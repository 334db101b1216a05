"""One workload in one fresh process: set up, run timed passes, check the
outputs, and print a JSON summary as the last line of standard output.

Started by run.py; not meant to be run by hand.  With --setup-only it
stops after set-up and prints the monotonic time at which set-up ended,
which run.py turns into a set-up time sample.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_run"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_PASSES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def count_fdlink_warnings() -> list[int]:
    """Count fdlink's numerical warnings instead of printing them, in
    traced and untraced passes alike so both do the same work."""
    from fdlink.errors import CancellationWarning, SingularTermWarning

    counter = [0]
    show = warnings.showwarning
    categories = (SingularTermWarning, CancellationWarning)

    def showwarning(message, category, *rest):
        if issubclass(category, categories):
            counter[0] += 1
        else:
            show(message, category, *rest)

    for category in categories:
        warnings.simplefilter("always", category)
    warnings.showwarning = showwarning
    return counter


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Check, Clock  # imports fdlink: part of set-up

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.tiny, OUT_DIR)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    import fdlink.analytic
    import fdlink.cli
    import fdlink.montecarlo
    from reference import Reference
    from spans import FdlinkProbes, Tracer

    plain = argparse.Namespace(
        run_sweep=fdlink.cli.run_sweep,
        mc_weighted_sum_rate=fdlink.montecarlo.mc_weighted_sum_rate,
        mc_weighted_sum_ser=fdlink.montecarlo.mc_weighted_sum_ser,
        **{name: getattr(fdlink.analytic, name) for name in (
            "avg_weighted_sum_rate", "avg_weighted_sum_ser", "rate_ceiling", "ser_floor",
            "asymptotic_ser_perfect_cancellation")},
    )
    warning_count = count_fdlink_warnings()
    probes = FdlinkProbes(Tracer()) if args.trace else None
    reference = Reference(workload.REFERENCE)

    clocks, traced_clocks, layers, fingerprints = [], [], [], []
    first_out = None
    failed_ops = attempted_ops = 0
    start = time.perf_counter()
    lap_times = []
    while True:
        lap = time.perf_counter()
        clock = Clock(reference)
        traced = args.trace and len(lap_times) % 2 == 1
        if traced:
            before = warning_count[0]
            with probes.installed(f"{args.workload}-seed{args.seed}-pass{len(lap_times)}"):
                out = workload.run(probes.api, clock)
            layers.append(probes.pass_metrics(warning_count[0] - before))
            traced_clocks.append(clock)
        else:
            out = workload.run(plain, clock)
            clocks.append(clock)
            if first_out is None:
                first_out = out
        fingerprints.append(workload.fingerprint(out))
        attempted_ops += len(clock.times)
        failed_ops += clock.failed
        lap_times.append(time.perf_counter() - lap)
        elapsed = time.perf_counter() - start
        enough = len(lap_times) >= (2 * MIN_PASSES - 2 if args.trace else MIN_PASSES)
        if enough and elapsed + statistics.median(lap_times) > args.seconds:
            break

    walls = [math.fsum(c.times) for c in clocks]
    scaled = [c.scaled_times() for c in clocks]
    scaled_walls = [math.fsum(ts) for ts in scaled]
    wall_s = statistics.fmean(scaled_walls)
    call_seconds = [statistics.fmean(ts) for ts in zip(*scaled)]
    to_1pct = [s * (rel / 0.01) ** 2 for s, rel in workload.mc_points(first_out, call_seconds)]

    checks = list(workload.checks(first_out, args.seed))
    checks.append(Check("outputs identical in every pass",
                        all(f == fingerprints[0] for f in fingerprints)))
    failed_checks = [c for c in checks if not c.ok]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_done": setup_done,
        "passes": len(walls),
        "pass_walls_s": walls,
        "pass_scaled_s": scaled_walls,
        "raw_wall_s": statistics.median(walls),
        "reference": reference.name,
        "reference_s": statistics.median(t for c in clocks for t in c.ref_times),
        "wall_s": wall_s,
        "mtrials_per_s": (workload.trials_per_pass / wall_s / 1e6
                          if workload.trials_per_pass else None),
        "cf_evals_per_s": (workload.cf_evals_per_pass / wall_s
                           if workload.cf_evals_per_pass else None),
        "s_to_1pct_p50": statistics.median(to_1pct) if to_1pct else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "checks_attempted": len(checks),
        "checks_failed": len(failed_checks),
        "unexpected_failures": [c.name for c in failed_checks if not c.known_defect],
        "known_defect_failures": [c.name for c in failed_checks if c.known_defect],
        "ops_attempted": attempted_ops,
        "ops_failed": failed_ops,
        "env": environment(),
    }
    if args.trace:
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["trace.overhead_s"] = statistics.fmean(
            math.fsum(c.scaled_times()) for c in traced_clocks) - wall_s
        per_layer["montecarlo.peak_alloc_mb"] = probes.peak_alloc_mb()
        result["per_layer"] = per_layer
        probes.tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
