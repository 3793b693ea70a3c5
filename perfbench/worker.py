"""One benchmark process: set-up, timed sweep rounds, then untimed checks.

Started by run.py in a fresh interpreter with ``src`` on PYTHONPATH and BLAS
held to one thread; not meant to be run by hand.  It prints one JSON object.

    worker.py --workload NAME --seed N --seconds S --trace 0|1 --spawned-at NS [--probe]

``--spawned-at`` is the parent's ``time.monotonic_ns()`` just before the
spawn; the same clock read here, after the imports and ``load_config``, gives
the set-up time.  ``--probe`` stops there.  Otherwise the worker runs whole
sweep rounds until ``--seconds`` have passed (inside the spans of spans.py
when ``--trace 1``), reads its peak RSS, and only then checks the rows.
"""

import argparse
import json
import math
import re
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from workloads import WORKLOADS, check_seed, round_seed

_NONCONVERGED = re.compile(r": (\d+) of \d+ trials did not converge$")
_MAX_REPORTED_FAILURES = 20
# Rows are checked on at most this many trials, spread over the run's
# rounds, so that a faster program does not make the checks outlast the run.
_MAX_CHECKED_TRIALS = 20_000


def _parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=int, required=True)
    parser.add_argument("--probe", action="store_true")
    return parser.parse_args(argv)


def _nonconverged(warnings, trials):
    total = 0
    for line in warnings:
        match = _NONCONVERGED.search(line)
        total += int(match.group(1)) if match else trials
    return total


def main(argv=None):
    args = _parse_args(argv)
    wl = WORKLOADS[args.workload]

    start = time.perf_counter()
    import uavwpt
    import uavwpt.cli
    import_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    cfg = uavwpt.config.load_config(None, wl.overrides)
    load_config_ms = (time.perf_counter() - start) * 1e3
    setup_s = (time.monotonic_ns() - args.spawned_at) / 1e9

    record = {
        "backend": uavwpt.BACKEND,
        "setup_s": setup_s,
        "import_ms": import_ms,
        "load_config_ms": load_config_ms,
    }
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(uavwpt.__file__).resolve().parents:
        raise SystemExit(f"uavwpt was imported from {uavwpt.__file__}, not from {src}")
    if args.probe:
        print(json.dumps(record))
        return 0

    import numpy as np

    from checks import check_optimal, check_rows
    from spans import Tracer
    from uavwpt.cli import SweepSpec, format_csv, run_sweep

    def spec(trials, seed):
        return SweepSpec(cfg.sweep_p_cir, cfg.sweep_c, trials, seed)

    tracer = Tracer() if args.trace else None
    rounds = []  # (spec, rows, seconds)
    failed = 0
    with tracer.traced() if tracer else nullcontext():
        began = time.perf_counter()
        while True:
            round_spec = spec(wl.trials, round_seed(args.seed, len(rounds)))
            t0 = time.perf_counter()
            rows, warnings = run_sweep(cfg, round_spec)
            rounds.append((round_spec, rows, time.perf_counter() - t0))
            failed += _nonconverged(warnings, wl.trials)
            if time.perf_counter() - began >= args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    trials_per_round = wl.trials * len(rounds[0][0].cells)
    attempted = trials_per_round * len(rounds)

    # Untimed from here on.
    failures = []
    checked = rounds[:: math.ceil(attempted / _MAX_CHECKED_TRIALS)]
    infeasible = np.zeros(len(rounds[0][0].cells), dtype=np.int64)
    for round_spec, rows, _ in checked:
        found, zeros = check_rows(cfg, round_spec, rows, wl.saturated)
        failures += found
        infeasible += zeros
    if not wl.saturated:
        pooled = wl.trials * len(checked)
        for (p_cir, c), zeros in zip(rounds[0][0].cells, infeasible):
            if not 0 < zeros < pooled:
                failures.append(
                    f"cell p_cir={p_cir:g} c={c:g}: {zeros} of {pooled} trials "
                    "infeasible, expected strictly between"
                )
    exact_spec = spec(wl.check_trials, check_seed(args.seed))
    exact_rows, _ = run_sweep(cfg, exact_spec)
    found, _ = check_rows(cfg, exact_spec, exact_rows, wl.saturated)
    failures += found
    found, budgeted = check_optimal(cfg, exact_spec, exact_rows)
    failures += found
    if budgeted == 0:
        failures.append("no trial of the exact-check sweep had a nonzero budget")
    if tracer:
        first_spec, first_rows, _ = rounds[0]
        if format_csv(run_sweep(cfg, first_spec)[0]) != format_csv(first_rows):
            failures.append("the traced sweep's CSV differs from the untraced one")

    rates = [trials_per_round / seconds for _, _, seconds in rounds]
    record.update(
        attempted=attempted,
        failed=failed,
        trials_per_s=statistics.median(rates),
        round_rates=rates,
        peak_rss_mb=peak_rss_mb,
        checked_rounds=len(checked),
        checked_optimal=budgeted,
        correct=not failures,
        failures=failures[:_MAX_REPORTED_FAILURES],
    )
    if tracer:
        record["layers"] = tracer.metrics(attempted)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
