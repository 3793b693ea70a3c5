"""Time the solver kernel one instance at a time and as one batch.

Usage: python3 benchmarks/bench_kernels.py [n_solves]

Draws seeded random downlink instances and solves them twice: one
``solve_pga`` call per instance, then all of them in one ``solve_pga_batch``
call, as sweeps do.  For each entry it reports per-solve wall time, Cholesky
factorisations per solve (counted in an untimed pass) and solver iterations
(p50, p99, max).  It warns if the batch rows differ from the lone solves or
if any solve did not converge.

A scaling table follows for K in {5, 16, 64} users and N in {1, 3, 8}
antennas: per-solve time of one batch call, iterations, the bytes per row
that the sweep's solve pool counts (``uavwpt._kernels.bytes_per_row``,
bounded by ``uavwpt.cli._POOL_BYTES``) and, beside it, the tracemalloc peak
per row of one batch ``_value_grad`` at the uniform start, with the rows'
invariants, picking its rows by index as the line search does.  K=64 runs
n_solves // 20 instances and K=16 n_solves // 3.  Last comes the
tracemalloc peak of one 1024-row ``solve_pga_batch`` at K=16, N=8, the
sweep's largest chunk there.  A default run takes about 5 s and peaks at
about 140 MB of RSS.
"""

import sys
import time
import tracemalloc

import numpy as np

from uavwpt.channel import draw_channel, draw_topology, trial_rng
from uavwpt.rate import optimal_permutation, weight_decrements
from uavwpt._kernels import _ref, bytes_per_row


def make_instances(count, n_ues=5, n_antennas=3, seed=20240817):
    instances = []
    for i in range(count):
        rng = trial_rng(seed, cell=0, trial=i)
        topo = draw_topology(rng, n_ues, 10.0, 20.0, 50.0, 2.5, 2.0)
        channels = draw_channel(rng, topo, n_antennas)
        weights = np.sort(rng.uniform(0.05, 1.0, size=n_ues))[::-1]
        perm = optimal_permutation(weights)
        hp = np.ascontiguousarray(channels.h[perm])
        dw = weight_decrements(weights, perm)
        budget = float(rng.uniform(20.0, 160.0))
        instances.append((hp, dw, budget))
    return instances


SETTINGS = (1e-8, 1e-6, 10_000, 1e-4, 0.5)  # tol, kkt_tol, max_iter, armijo, shrink


def run(instances):
    results = []
    start = time.perf_counter()
    for hp, dw, budget in instances:
        p, f, iters, kkt, conv = _ref.solve_pga(hp, dw, 0.001, budget, *SETTINGS)
        results.append((f, iters, conv))
    elapsed = time.perf_counter() - start
    return elapsed, results


def run_batch(instances):
    h, dw, budget = (np.stack(column) for column in zip(*instances))
    start = time.perf_counter()
    _, f, iters, _, conv = _ref.solve_pga_batch(h, dw, 0.001, budget, *SETTINGS)
    elapsed = time.perf_counter() - start
    return elapsed, list(zip(f.tolist(), iters.tolist(), conv.tolist()))


def factorisations(solve):
    """Cholesky factorisations ``solve()`` makes, counting each stacked matrix."""
    real = _ref._cholesky
    count = 0

    def counting(acc):
        nonlocal count
        count += acc.shape[0]
        return real(acc)

    _ref._cholesky = counting
    try:
        solve()
    finally:
        _ref._cholesky = real
    return count


def iterations(results):
    """Iterations per solve as p50 / p99 / max."""
    its = np.array([it for _, it, _ in results])
    p50, p99 = np.percentile(its, [50, 99], method="inverted_cdf")
    return f"iterations {p50:g} / {p99:g} / {its.max()}"


def value_grad_peak(instances):
    """tracemalloc peak bytes per row of _invariants and one batch _value_grad at the uniform start."""
    h, dw, budget = (np.stack(column) for column in zip(*instances))
    rows, k_ues, n_antennas = h.shape
    picked = np.arange(rows)
    p = np.repeat((budget / k_ues)[:, None], k_ues, axis=1)
    eye = np.eye(n_antennas)
    tracemalloc.start()
    try:
        inv = _ref._invariants(h[picked], dw[picked])
        _ref._value_grad(inv, picked, p, 0.001, eye)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / rows


def solve_peak(instances):
    """tracemalloc peak bytes of one solve_pga_batch call on all the instances."""
    h, dw, budget = (np.stack(column) for column in zip(*instances))
    tracemalloc.start()
    try:
        _ref.solve_pga_batch(h, dw, 0.001, budget, *SETTINGS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def scaling(count):
    """One row per (K, N): batch time per solve, iterations and memory per row."""
    print(f"{'K':>3} {'N':>2} {'solves':>6} {'us/solve':>10} {'pool B/row':>11} {'peak B/row':>11}")
    for k_ues in (5, 16, 64):
        solves = max(1, count // {5: 1, 16: 3, 64: 20}[k_ues])
        for n_antennas in (1, 3, 8):
            instances = make_instances(solves, k_ues, n_antennas)
            elapsed, results = run_batch(instances)
            print(f"{k_ues:>3} {n_antennas:>2} {solves:>6} {elapsed / solves * 1e6:>10.1f} "
                  f"{bytes_per_row(k_ues, n_antennas):>11} {value_grad_peak(instances):>11.0f}  "
                  f"{iterations(results)}")
            if not all(conv for _, _, conv in results):
                print("WARNING: some solves did not converge")


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    instances = make_instances(count)

    t_lone, r_lone = run(instances)
    print(f"lone solves : {t_lone:8.3f} s total, {t_lone / count * 1e6:9.1f} us/solve, "
          f"{factorisations(lambda: run(instances)) / count:5.1f} factorisations/solve, "
          f"{iterations(r_lone)}")
    t_batch, r_batch = run_batch(instances)
    print(f"batch       : {t_batch:8.3f} s total, {t_batch / count * 1e6:9.1f} us/solve, "
          f"{factorisations(lambda: run_batch(instances)) / count:5.1f} factorisations/solve, "
          f"{iterations(r_batch)}")
    if r_batch != r_lone:
        print("WARNING: batch rows differ from the single solves")
    if not all(conv for _, _, conv in r_lone + r_batch):
        print("WARNING: some solves did not converge")
    print()
    scaling(count)
    print()
    peak = solve_peak(make_instances(1024, 16, 8))
    print(f"solve_pga_batch of 1024 rows at K=16, N=8: tracemalloc peak {peak / 1e6:.1f} MB")


if __name__ == "__main__":
    main()
