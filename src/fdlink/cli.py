"""Experiment runner: parameter sweeps over SNR, eta, antenna count, and
policy, with Monte Carlo and closed-form columns side by side.

Output is plot-ready long-format CSV (or JSON), one row per grid point,
plus a JSON sidecar recording the sweep spec (all but the output path) and
the fdlink, numpy, scipy and mpmath versions.  SNR is accepted in dB on
the command line and converted to linear scale once.
Re-running a sweep with the same seed produces byte-identical files.

Exit codes: 0 success, 2 bad input (a validation error, or an I/O error
reading the --config file), 3 numerical failure, an output path that
cannot be written (checked before the sweep runs) or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import mpmath
import numpy as np

from . import __version__
from .analytic import (
    MAX_NN_CLOSED_FORM,
    asymptotic_ser_perfect_cancellation,
    avg_weighted_sum_rate,
    avg_weighted_sum_ser,
    cdf_gammas,
    rate_ceiling,
    ser_floor,
)
from .config import (
    BPSK,
    SystemConfig,
    db_to_linear,
    linear_to_db,
    load_config,
)
from .errors import FdlinkError, InvalidRange, IoError, UnknownPreset
from .montecarlo import (
    MAX_TRIALS,
    POLICIES,
    mc_empirical_cdfs,
    mc_p_not,
    mc_weighted_sum_rate,
    mc_weighted_sum_ser,
)
from .selection import by_weight, comparison_count, p_not_upper_bound

# the policy names each metric accepts; p_not and cdf describe Serial-Max
# itself, and complexity counts comparisons of exhaustive search
METRIC_POLICIES = {
    "wsr": POLICIES,
    "wser": POLICIES,
    "p_not": ("serial_max",),
    "cdf": ("serial_max",),
    "complexity": ("exhaustive", "serial_max"),
}
METRICS = tuple(METRIC_POLICIES)


@dataclass
class SweepSpec:
    metric: str
    policies: list[str]
    snr_db: list[float]
    eta: list[float]
    sizes: list[tuple[int, int]]
    w: float
    trials: int
    seed: int
    out: str
    fmt: str = "csv"

    def validate(self) -> None:
        if self.metric not in METRICS:
            raise InvalidRange(f"unknown metric {self.metric!r}")
        if not self.policies or not self.snr_db or not self.eta or not self.sizes:
            raise InvalidRange("sweep grids must be nonempty")
        allowed = METRIC_POLICIES[self.metric]
        for policy in self.policies:
            if policy not in allowed:
                raise InvalidRange(
                    f"policy {policy!r} does not apply to metric {self.metric!r}; "
                    f"choose from {', '.join(allowed)}"
                )
        if self.metric in ("wsr", "wser", "p_not", "cdf"):
            if not 1 <= self.trials <= MAX_TRIALS:
                raise InvalidRange(f"Monte Carlo columns need 1 <= trials <= {MAX_TRIALS:,}, "
                                   f"got {self.trials:,}")
            if not 0 <= self.seed < 2**128:  # the Philox key's range
                raise InvalidRange(f"seed must lie in [0, 2**128), got {self.seed}")
        if self.fmt not in ("csv", "json"):
            raise InvalidRange(f"unknown format {self.fmt!r}")
        for (n_a, n_b), eta, snr_db in itertools.product(self.sizes, self.eta, self.snr_db):
            _cfg(n_a, n_b, snr_db, eta, self.w)


@dataclass
class ResultRow:
    metric: str
    policy: str
    n_a: int
    n_b: int
    snr_db: float
    eta: float
    w: float
    x: float | None = None  # CDF evaluation point; empty for other metrics
    trials: int | None = None
    seed: int | None = None
    mc_value: float | None = None
    mc_stderr: float | None = None
    analytic_value: float | None = None
    ceiling_or_floor: float | None = None
    comparisons: int | None = None


FIELDS = [f.name for f in dataclasses.fields(ResultRow)]
# Monte Carlo trials per point and master seed unless --trials or --seed is given
DEFAULT_TRIALS = 20000
DEFAULT_SEED = 12345


def preset(name: str, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED) -> SweepSpec:
    """Sweep specs reproducing the reference experiment layouts.

    Where figure captions and body text disagree on eta, the caption
    value is the default; --eta overrides it.
    """
    snr = [float(s) for s in range(0, 41, 5)]
    table = {
        "fig2": dict(metric="wsr", policies=["max_wsr", "serial_max"], snr_db=snr,
                     eta=[0.02, 0.05, 0.1], sizes=[(3, 3)]),
        "fig3": dict(metric="wsr", policies=["max_wsr", "serial_max"], snr_db=snr,
                     eta=[0.02], sizes=[(3, 3), (4, 4), (5, 5)]),
        "fig4": dict(metric="wser", policies=["serial_max"], snr_db=snr,
                     eta=[0.0, 0.05, 0.1, 0.5], sizes=[(3, 3)]),
        "fig5": dict(metric="wser", policies=["min_wser", "serial_max"], snr_db=snr,
                     eta=[0.05], sizes=[(3, 3), (4, 4), (5, 5)]),
        "fig6": dict(metric="wser", policies=["min_wser", "serial_max"],
                     snr_db=[10.0, 15.0], eta=[0.1, 0.2],
                     sizes=[(n, n) for n in range(2, 7)]),
        "table1": dict(metric="complexity", policies=["exhaustive", "serial_max"],
                       snr_db=[0.0], eta=[0.0], sizes=[(n, n) for n in range(2, 9)]),
        "pnot": dict(metric="p_not", policies=["serial_max"], snr_db=[10.0],
                     eta=[0.05], sizes=[(n, n) for n in range(2, 6)]),
    }
    if name not in table:
        raise UnknownPreset(f"unknown preset {name!r}; choose from {sorted(table)}")
    return SweepSpec(w=0.7, trials=trials, seed=seed, out="", **table[name])


def _cfg(n_a: int, n_b: int, snr_db: float, eta: float, w: float) -> SystemConfig:
    return SystemConfig(n_a, n_b, db_to_linear(snr_db), eta, w, BPSK)


def _rows_for_size(spec: SweepSpec, n_a: int, n_b: int):
    """Rows of every (eta, SNR) point at one array size, in grid order.

    Monte Carlo metrics make one call per policy for all the points, so
    Serial-Max draws and selects each chunk once for the whole grid."""
    points = list(itertools.product(spec.eta, spec.snr_db))
    commons = [dict(metric=spec.metric, n_a=n_a, n_b=n_b, snr_db=snr_db, eta=eta, w=spec.w)
               for eta, snr_db in points]
    if spec.metric == "complexity":
        for common in commons:
            for policy in spec.policies:
                yield ResultRow(policy=policy, comparisons=comparison_count(policy, n_a, n_b),
                                **common)
        return

    cfgs = [_cfg(n_a, n_b, snr_db, eta, spec.w) for eta, snr_db in points]
    closed_form_ok = n_a * n_b <= MAX_NN_CLOSED_FORM
    if spec.metric == "p_not":
        for est, common in zip(mc_p_not(cfgs, spec.trials, spec.seed), commons):
            yield ResultRow(policy="serial_max", trials=spec.trials, seed=spec.seed,
                            mc_value=est.value, mc_stderr=est.std_error,
                            analytic_value=p_not_upper_bound(n_a, n_b), **common)
        return

    if spec.metric == "cdf":
        grids = [np.linspace(0.0, 5.0 * cfg.lambda_s, 50)[1:] for cfg in cfgs]
        all_emps = mc_empirical_cdfs(cfgs, spec.trials, spec.seed, grids)
        for cfg, common, grid, emps in zip(cfgs, commons, grids, all_emps):
            # cdf_gammas gives the (first, second) pick; by_weight puts each on its link
            analytic = zip(*(by_weight(*cdf_gammas(float(x), cfg), spec.w) if closed_form_ok
                             else (None, None) for x in grid))
            for which, emp, analytic_values in zip(("gamma_ab", "gamma_ba"), emps, analytic):
                for x, p, analytic_value in zip(emp.grid, emp.probabilities, analytic_values):
                    yield ResultRow(policy=which, x=float(x), trials=spec.trials,
                                    seed=spec.seed, mc_value=float(p),
                                    analytic_value=analytic_value, **common)
        return

    mc_fn = mc_weighted_sum_rate if spec.metric == "wsr" else mc_weighted_sum_ser
    estimates = {policy: mc_fn(cfgs, policy, spec.trials, spec.seed)
                 for policy in spec.policies}
    average, limit_at = ((avg_weighted_sum_rate, rate_ceiling) if spec.metric == "wsr"
                         else (avg_weighted_sum_ser, ser_floor))
    limits = {}  # by eta: ceilings and floors do not depend on lambda_s
    for k, (cfg, common) in enumerate(zip(cfgs, commons)):
        for policy in spec.policies:
            est = estimates[policy][k]
            analytic_value = None
            limit = None
            if policy == "serial_max" and closed_form_ok:
                analytic_value = average(cfg).value
                if cfg.eta > 0:
                    if cfg.eta not in limits:
                        limits[cfg.eta] = limit_at(cfg)
                    limit = limits[cfg.eta]
                elif spec.metric == "wser":
                    # perfect cancellation: overlay the high-SNR asymptote
                    _, _, limit = asymptotic_ser_perfect_cancellation(cfg, cfg.lambda_s)
            yield ResultRow(policy=policy, trials=spec.trials, seed=spec.seed,
                            mc_value=est.value, mc_stderr=est.std_error,
                            analytic_value=analytic_value, ceiling_or_floor=limit,
                            comparisons=comparison_count(policy, n_a, n_b),
                            **common)


def _format_cell(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """Evaluate every grid point in deterministic order and write results;
    an output directory that cannot be written fails before any point runs."""
    spec.validate()
    directory = os.path.dirname(spec.out) or "."
    writable = os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)
    if not writable or os.path.isdir(spec.out):
        raise IoError(f"cannot write {spec.out}: not a file in a writable directory")
    rows: list[ResultRow] = []
    for n_a, n_b in spec.sizes:
        rows.extend(_rows_for_size(spec, n_a, n_b))

    try:
        if spec.fmt == "csv":
            with open(spec.out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(FIELDS)
                writer.writerows([_format_cell(getattr(row, name)) for name in FIELDS]
                                 for row in rows)
        else:
            # JSON has no token for a non-finite float: such cells are null
            records = [{k: v if not isinstance(v, float) or math.isfinite(v) else None
                        for k, v in dataclasses.asdict(r).items()} for r in rows]
            with open(spec.out, "w") as fh:
                json.dump(records, fh, indent=1, allow_nan=False)
                fh.write("\n")
        # the sidecar sits at out + ".meta.json"; leaving out itself out
        # keeps a sweep's sidecar the same wherever it is written
        recorded = dataclasses.asdict(spec)
        del recorded["out"]
        import scipy  # only for its version: not at import, where it adds to every start-up
        sidecar = {
            "tool": "fdlink",
            "version": __version__,
            "libraries": {m.__name__: m.__version__ for m in (np, scipy, mpmath)},
            "spec": {**recorded, "sizes": [list(s) for s in spec.sizes]},
        }
        with open(spec.out + ".meta.json", "w") as fh:
            json.dump(sidecar, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {spec.out}: {exc}") from exc
    return rows


def _parse_range(text: str) -> list[float]:
    """'a:b:step' inclusive range of at most 10,000 points, or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidRange(f"{text!r} is not a range of the form 'a:b:step'")
        a, b, step = (float(p) for p in parts)
        if step <= 0:
            raise InvalidRange(f"step must be positive in {text!r}")
        n = (b - a) / step
        if not math.isfinite(n) or round(n) >= 10_000:
            raise InvalidRange(f"{text!r} is not a finite range of at most 10,000 points")
        return [a + i * step for i in range(round(n) + 1) if a + i * step <= b + 1e-9]
    return [float(p) for p in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdlink",
        description="Full-duplex MIMO bidirectional link selection: sweep runner. "
        "Figure presets use caption parameter values where captions and text "
        "disagree; override with --eta etc.",
    )
    parser.add_argument("--preset", help="named sweep: fig2..fig6, table1, pnot")
    parser.add_argument("--metric", choices=METRICS)
    parser.add_argument("--policy", help="comma list: max_wsr,min_wser,serial_max")
    parser.add_argument("--snr-db", help="grid 'a:b:step' or comma list, in dB")
    parser.add_argument("--eta", help="comma list of cancellation coefficients")
    parser.add_argument("--na", type=int, help="antennas at node A")
    parser.add_argument("--nb", type=int, help="antennas at node B")
    parser.add_argument("--w", type=float, help="weight of the A->B direction")
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                        help="Monte Carlo trials per point")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    parser.add_argument("--config", help="flat key-value config file: one point over the "
                        "preset or defaults; other flags override it")
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    """The sweep the arguments ask for: the preset or the --metric
    defaults, then the --config point, then each flag given."""
    if args.preset:
        spec = preset(args.preset, trials=args.trials, seed=args.seed)
    elif args.metric is None:
        raise InvalidRange("either --preset or --metric is required")
    else:
        spec = SweepSpec(metric=args.metric, policies=["serial_max"], snr_db=[10.0], eta=[0.05],
                         sizes=[(3, 3)], w=0.7, trials=args.trials, seed=args.seed, out="")
    if args.config:
        cfg = load_config(args.config)
        if cfg.modulation != BPSK:  # rows and sidecar record no modulation
            raise InvalidRange(f"{args.config}: sweeps run BPSK only, got {cfg.modulation}")
        spec.sizes, spec.eta, spec.w = [(cfg.n_a, cfg.n_b)], [cfg.eta], cfg.w
        spec.snr_db = [linear_to_db(cfg.lambda_s)]
    if args.metric:
        spec.metric = args.metric
    if args.policy is not None:
        spec.policies = args.policy.split(",")
    if args.snr_db is not None:
        spec.snr_db = _parse_range(args.snr_db)
    if args.eta is not None:
        spec.eta = [float(p) for p in args.eta.split(",")]
    if args.na is not None or args.nb is not None:
        n_a = args.na if args.na is not None else spec.sizes[0][0]
        n_b = args.nb if args.nb is not None else spec.sizes[0][1]
        spec.sizes = [(n_a, n_b)]
    if args.w is not None:
        spec.w = args.w
    spec.out = args.out
    spec.fmt = args.format
    return spec


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
        spec.validate()
    except (FdlinkError, ValueError) as exc:
        print(f"fdlink: {'I/O' if isinstance(exc, IoError) else 'validation'} error: {exc}", file=sys.stderr)
        return 2
    try:
        rows = run_sweep(spec)
    except IoError as exc:
        print(f"fdlink: I/O error: {exc}", file=sys.stderr)
        return 3
    except FdlinkError as exc:
        print(f"fdlink: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"fdlink: out of memory: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(rows)} rows to {spec.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
