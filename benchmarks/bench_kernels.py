"""Time the C solver kernel beside the numpy reference on the same instances.

Usage: python3 benchmarks/bench_kernels.py [n_solves] [--json PATH]

Draws seeded random downlink instances at K=5, N=3 (``n_solves`` of them,
300 by default) and K=16, N=8 (a third as many) and solves them with
``uavwpt._kernels._ref`` (before) and the compiled ``uavwpt._kernels``
(after): one ``solve_pga`` call per instance ("lone"), then all of them in
one ``solve_pga_batch`` call ("batch"), as sweeps do.  Each timing is
repeated REPEATS times; the table gives the median and quartiles of the
wall time per solve, the speedup of the medians, solver iterations (p50,
p99, max) and the largest objective gap between the two kernels.  It warns
when a gap exceeds 1e-12 relative, when a batch row differs from its lone
solve, or when a solve did not converge.

``--json PATH`` also writes the results with the machine (CPU, cores,
Python, numpy, compiler) and the commit.  ``_ref`` solves one row at a
time, about 1 ms per solve at K=5, N=3 and 2 ms at K=16, N=8 on a 2-core
Xeon with one BLAS thread, so a default run takes about 6 s there, nearly
all of it in ``_ref``, and ``bench_kernels.py 30`` under 1 s.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from uavwpt import _kernels
from uavwpt._kernels import _c, _ref
from uavwpt.channel import draw_channel, draw_topology, trial_rng
from uavwpt.rate import optimal_permutation, weight_decrements

SETTINGS = (1e-8, 1e-6, 10_000, 1e-4, 0.5)  # tol, kkt_tol, max_iter, armijo, shrink
SIGMA2 = 0.001
REPEATS = 5
SHAPES = ((5, 3, 1), (16, 8, 3))  # K, N and the divisor of n_solves
ROOT = Path(__file__).resolve().parent.parent


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


def lone(kernel, instances):
    """Objectives, iterations and converged flags of one solve_pga call per instance."""
    out = [kernel.solve_pga(hp, dw, SIGMA2, budget, *SETTINGS) for hp, dw, budget in instances]
    _, f, iterations, _, converged = zip(*out)
    return [np.array(f), np.array(iterations), np.array(converged)]


def batch(kernel, instances):
    """The same from one solve_pga_batch call."""
    h, dw, budget = (np.stack(column) for column in zip(*instances))
    _, f, iterations, _, converged = kernel.solve_pga_batch(h, dw, SIGMA2, budget, *SETTINGS)
    return [f, iterations, converged]


def timed(run, kernel, instances):
    """(us per solve of each repeat, the last repeat's results)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        results = run(kernel, instances)
        times.append((time.perf_counter() - start) / len(instances) * 1e6)
    return times, results


def summary(times):
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": median, "quartiles": [q1, q3]}


def measure(count):
    """One record per (K, N, mode), printed as a table row as it is measured."""
    records = []
    print(f"{'K':>3} {'N':>2} {'mode':>5} {'solves':>6} {'_ref us':>9} {'C us':>8} "
          f"{'speedup':>8}  iterations p50/p99/max  max rel gap")
    for k_ues, n_antennas, divisor in SHAPES:
        instances = make_instances(max(1, count // divisor), k_ues, n_antennas)
        rows = {}
        for mode, run in (("lone", lone), ("batch", batch)):
            before, (f_ref, _, conv_ref) = timed(run, _ref, instances)
            after, (f, iterations, converged) = timed(run, _kernels, instances)
            rows[mode] = (f, iterations, converged)
            gap = float(np.max(np.abs(f - f_ref) / np.abs(f_ref)))
            p50, p99 = np.percentile(iterations, [50, 99], method="inverted_cdf")
            record = {
                "k": k_ues, "n": n_antennas, "mode": mode, "solves": len(instances),
                "before_us_per_solve": summary(before), "after_us_per_solve": summary(after),
                "iterations": [int(p50), int(p99), int(iterations.max())],
                "max_relative_objective_gap": gap,
            }
            record["speedup"] = (record["before_us_per_solve"]["median"]
                                 / record["after_us_per_solve"]["median"])
            records.append(record)
            print(f"{k_ues:>3} {n_antennas:>2} {mode:>5} {len(instances):>6} "
                  f"{record['before_us_per_solve']['median']:>9.1f} "
                  f"{record['after_us_per_solve']['median']:>8.1f} {record['speedup']:>7.1f}x  "
                  f"{p50:>10g} / {p99:g} / {iterations.max()}  {gap:>11.1e}")
            if gap > 1e-12:
                print(f"WARNING: objectives differ from _ref by {gap:.1e} relative")
            if not (converged.all() and conv_ref.all()):
                print("WARNING: some solves did not converge")
        if any(not np.array_equal(a, b) for a, b in zip(rows["lone"], rows["batch"])):
            print("WARNING: batch rows differ from the lone solves")
    return records


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        compiler = subprocess.run([*_c.compiler_command(), "--version"], capture_output=True,
                                  text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        compiler = None
    return {
        "cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "compiler": compiler, "backend": _kernels.BACKEND,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def commit():
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n_solves", nargs="?", type=int, default=300)
    parser.add_argument("--json", type=Path, help="also write the results to this file")
    args = parser.parse_args(argv)
    if _kernels.BACKEND != "c":
        print("WARNING: the C kernel did not build; both columns time _ref")
    records = measure(args.n_solves)
    if args.json:
        document = {
            "label": "c_kernel",
            "harness": "benchmarks/bench_kernels.py",
            "command": " ".join(["python3", "benchmarks/bench_kernels.py", *sys.argv[1:]]),
            "commit": commit(),
            "machine": machine(),
            "before": "uavwpt._kernels._ref (numpy, one row at a time)",
            "after": "uavwpt._kernels (kernel.c through ctypes, row by row)",
            "unit": "us per solve, wall time, median and quartiles of repeats",
            "repeats": REPEATS,
            "settings": {"sigma2": SIGMA2, "tol_kkt_tol_max_iter_armijo_shrink": SETTINGS},
            "results": records,
        }
        args.json.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
