"""Benchmark of the uavwpt Monte-Carlo sweep, one workload per invocation.

    python3 perfbench/run.py --workload stock --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed or built.  Set-up is measured in
PROBES fresh interpreters plus the measuring one; the measuring interpreter
then runs whole sweep rounds for ``--seconds`` and checks the output rows
(see worker.py and checks.py).  Each child is one process with BLAS held to
one thread, started only after the previous one has ended.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 7
DEADLINE_S = 170.0
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in _THREAD_VARS})
    return env


def _worker(args, timeout, probe):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--probe"] if probe else [])
    cmd += ["--spawned-at", str(time.monotonic_ns())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise SystemExit(f"benchmark worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("need --seed >= 0 and 1 <= --seconds <= 120")
    if not (ROOT / "src" / "uavwpt" / "__init__.py").is_file():
        print(f"no uavwpt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    began = time.monotonic()
    setups = [_worker(args, 60.0, probe=True) for _ in range(PROBES)]
    run = _worker(args, DEADLINE_S - (time.monotonic() - began), probe=False)
    setups.append(run)

    def median(key):
        return statistics.median(s[key] for s in setups)

    if args.trace:
        metrics = {name: (value, unit) for name, (value, unit) in run["layers"].items()}
        metrics["uavwpt.import_ms"] = (median("import_ms"), "ms")
        metrics["config.load_config.ms"] = (median("load_config_ms"), "ms")
        metrics["traced.trials_per_s"] = (run["trials_per_s"], "1/s")
    else:
        metrics = {
            "trials_per_s": (run["trials_per_s"], "1/s"),
            "setup_s": (median("setup_s"), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
    for failure in run["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    rates = run["round_rates"]
    quartiles = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"backend={run['backend']} rounds={len(rates)} "
        f"round trials/s quartiles={[round(q, 1) for q in quartiles]} "
        f"checked rounds={run['checked_rounds']} "
        f"exact-checked trials={run['checked_optimal']}"
    )
    print(
        json.dumps(
            {
                "correct": run["correct"] and all(s["backend"] == run["backend"] for s in setups),
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
