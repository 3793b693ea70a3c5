"""Time the pure-NumPy kernels against the compiled ones.

Usage: python3 benchmarks/bench_kernels.py [n_solves]

Draws a batch of seeded random downlink instances and solves each with both
backends, reporting per-solve wall time, solver iterations (p50, p99, max)
and the worst cross-backend disagreement on the objective.  The pure-NumPy
backend also solves all instances in one ``solve_pga_batch`` call, as sweeps
do; for both of its entries the script also reports Cholesky factorisations
per solve (counted in an untimed pass).  The compiled module is optional; if
it is missing only the reference numbers are printed.
"""

import sys
import time

import numpy as np

from uavwpt.channel import draw_channel, draw_topology, trial_rng
from uavwpt.rate import optimal_permutation, weight_decrements
from uavwpt._kernels import _ref

try:
    from uavwpt._kernels import _fast
except ImportError:
    _fast = None


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


def run(backend, instances):
    results = []
    start = time.perf_counter()
    for hp, dw, budget in instances:
        p, f, iters, kkt, conv = backend.solve_pga(hp, dw, 0.001, budget, *SETTINGS)
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
    return f"iterations {np.percentile(its, 50):g} / {np.percentile(its, 99):g} / {its.max()}"


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    instances = make_instances(count)

    t_ref, r_ref = run(_ref, instances)
    print(f"python backend : {t_ref:8.3f} s total, {t_ref / count * 1e6:9.1f} us/solve, "
          f"{factorisations(lambda: run(_ref, instances)) / count:5.1f} factorisations/solve, "
          f"{iterations(r_ref)}")
    t_batch, r_batch = run_batch(instances)
    print(f"python batch   : {t_batch:8.3f} s total, {t_batch / count * 1e6:9.1f} us/solve, "
          f"{factorisations(lambda: run_batch(instances)) / count:5.1f} factorisations/solve, "
          f"{iterations(r_batch)}")
    if r_batch != r_ref:
        print("WARNING: batch rows differ from the single solves")
    if _fast is None:
        print("cython backend : not built")
        return
    t_fast, r_fast = run(_fast, instances)
    print(f"cython backend : {t_fast:8.3f} s total, {t_fast / count * 1e6:9.1f} us/solve, "
          f"speedup x{t_ref / t_fast:.1f}, {iterations(r_fast)}")
    gap = max(
        abs(a - b) / max(abs(a), 1e-12)
        for (a, _, _), (b, _, _) in zip(r_ref, r_fast)
    )
    print(f"worst relative objective disagreement: {gap:.3e}")
    if not all(conv for _, _, conv in r_ref + r_fast):
        print("WARNING: some solves did not converge")


if __name__ == "__main__":
    main()
