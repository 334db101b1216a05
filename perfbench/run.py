"""fdlink benchmark: one command that runs one workload (or all of them),
each in its own fresh single-threaded process, and prints its metrics.

    python3 perfbench/run.py --workload mc_grid --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
and the tracing overhead.  The last line of standard output is a JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
repeat every metric, with its unit, for a human reader.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_grid", "mc_exhaustive", "closed_form")
# set-up is sampled in this many extra processes besides the workload's own
SETUP_PROBES = 6
DEADLINE_S = 170.0

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "mtrials_per_s": "Mtrials/s", "cf_evals_per_s": "1/s",
    "peak_rss_mb": "MB", "s_to_1pct_p50": "s", "fail_ratio": "1",
}
# the end-to-end metrics every workload has; the others are n/a on some
# and are printed for the reader only
REPORTED = ("setup_s", "wall_s", "peak_rss_mb")
LAYER_UNITS = {
    "channel.draw_s": "s", "channel.trials_drawn": "count", "channel.mb_generated": "MB",
    "montecarlo.s": "s", "montecarlo.self_s": "s", "montecarlo.calls": "count",
    "montecarlo.peak_alloc_mb": "MB",
    "analytic.s": "s", "analytic.self_s": "s", "analytic.calls": "count",
    "analytic.quad_calls": "count", "analytic.quad_s": "s", "analytic.mp_promotions": "count",
    "analytic.mp_s": "s", "analytic.mp_per_call": "1", "analytic.flagged": "count",
    "analytic.warnings": "count", "special.e1_calls": "count", "special.erfcx_calls": "count",
    "cli.s": "s", "cli.self_s": "s", "cli.bytes_written": "B", "trace.overhead_s": "s",
}


def _worker(args, extra, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--tiny"] if args.tiny else []) + extra
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - started))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return started, json.loads(lines[-1])


def run_workload(args, deadline) -> dict:
    setup = []
    for _ in range(SETUP_PROBES):
        started, probe = _worker(args, ["--setup-only"], deadline)
        setup.append(probe["setup_done"] - started)
    started, res = _worker(args, [], deadline)
    setup.append(res["setup_done"] - started)

    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": res["wall_s"],
        "mtrials_per_s": res["mtrials_per_s"],
        "cf_evals_per_s": res["cf_evals_per_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "s_to_1pct_p50": res["s_to_1pct_p50"],
        "fail_ratio": res["checks_failed"] / res["checks_attempted"],
    }
    env = " ".join(f"{k}={v}" for k, v in res["env"].items())
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={res['passes']}")
    print(f"# env {env}")
    for name, unit in E2E_UNITS.items():
        value = e2e[name]
        print(f"# {name:16s} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    print(f"# raw_wall_s       {res['raw_wall_s']:.6g} s  (median pass as measured; wall_s rescales "
          f"each call by the {res['reference']} kernel, median {res['reference_s']:.6g} s)")
    print(f"# checks: {res['checks_failed']} of {res['checks_attempted']} failed, "
          f"{len(res['known_defect_failures'])} on known-defect points")
    for name in res["unexpected_failures"]:
        print(f"# UNEXPECTED FAILURE {name}")

    if args.trace:
        metrics = {k: {"value": res["per_layer"][k], "unit": u} for k, u in LAYER_UNITS.items()}
        for name, m in metrics.items():
            print(f"# {name:26s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {k: {"value": e2e[k], "unit": E2E_UNITS[k]} for k in REPORTED}

    out = ROOT / ".perfbench_run" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump({**res, "setup_samples_s": setup, "end_to_end": e2e}, fh, indent=1)
    return {
        "correct": not res["unexpected_failures"] and res["ops_failed"] == 0,
        "attempted": res["ops_attempted"],
        "failed": res["ops_failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's smoke tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fdlink" / "__init__.py").is_file():
        print(f"perfbench: no fdlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            summary = run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                                   time.monotonic() + DEADLINE_S)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
