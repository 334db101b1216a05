"""Experiment runner: parameter sweeps over SNR, eta, antenna count, and
policy, with Monte Carlo and closed-form columns side by side.

Output is plot-ready long-format CSV (or JSON), one row per grid point,
plus a JSON sidecar recording the sweep spec (all but the output path) and
the fdlink, numpy, scipy and mpmath versions.  SNR is accepted in dB on
the command line and converted to linear scale once.
Re-running a sweep with the same seed produces byte-identical files.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import sys
from dataclasses import dataclass

import mpmath
import numpy as np
import scipy

from . import __version__
from .analytic import (
    MAX_NN_CLOSED_FORM,
    asymptotic_ser_perfect_cancellation,
    avg_weighted_sum_rate,
    avg_weighted_sum_ser,
    cdf_gamma_ab,
    cdf_gamma_ba,
    rate_ceiling,
    ser_floor,
)
from .config import (
    BPSK,
    SystemConfig,
    db_to_linear,
    load_config,
    validate_config,
)
from .errors import FdlinkError, InvalidRange, IoError, UnknownPreset
from .montecarlo import (
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
            if self.trials < 1:
                raise InvalidRange("trials must be >= 1 for Monte Carlo columns")
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


def preset(name: str, trials: int = 20000, seed: int = 12345, eta: list[float] | None = None) -> SweepSpec:
    """Sweep specs reproducing the reference experiment layouts.

    Where figure captions and body text disagree on eta, the caption
    value is the default and eta stays overridable.
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
    kw = table[name]
    if eta is not None:
        kw = dict(kw, eta=eta)
    return SweepSpec(w=0.7, trials=trials, seed=seed, out="", **kw)


def _cfg(n_a: int, n_b: int, snr_db: float, eta: float, w: float) -> SystemConfig:
    return validate_config(
        SystemConfig(n_a=n_a, n_b=n_b, lambda_s=db_to_linear(snr_db), eta=eta, w=w,
                     modulation=BPSK)
    )


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
    if spec.metric == "p_not":
        for cfg, common in zip(cfgs, commons):
            est = mc_p_not(cfg, spec.trials, spec.seed)
            yield ResultRow(policy="serial_max", trials=spec.trials, seed=spec.seed,
                            mc_value=est.value, mc_stderr=est.std_error,
                            analytic_value=p_not_upper_bound(n_a, n_b), **common)
        return

    if spec.metric == "cdf":
        grids = [np.linspace(0.0, 5.0 * cfg.lambda_s, 50)[1:] for cfg in cfgs]
        links = ("gamma_ab", "gamma_ba")
        all_emps = mc_empirical_cdfs(cfgs, links, spec.trials, spec.seed, grids)
        # cdf_gamma_ab/_ba are the first/second pick; by_weight puts each on its link
        analytic_fns = by_weight(cdf_gamma_ab, cdf_gamma_ba, spec.w)
        for cfg, common, emps in zip(cfgs, commons, all_emps):
            for which, emp, analytic_fn in zip(links, emps, analytic_fns):
                for x, p in zip(emp.grid, emp.probabilities):
                    yield ResultRow(policy=which, x=float(x), trials=spec.trials,
                                    seed=spec.seed, mc_value=float(p),
                                    analytic_value=analytic_fn(float(x), cfg), **common)
        return

    mc_fn = mc_weighted_sum_rate if spec.metric == "wsr" else mc_weighted_sum_ser
    estimates = {policy: mc_fn(cfgs, policy, spec.trials, spec.seed)
                 for policy in spec.policies}
    closed_form_ok = n_a * n_b <= MAX_NN_CLOSED_FORM
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
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """Evaluate every grid point in deterministic order and write results."""
    spec.validate()
    rows: list[ResultRow] = []
    for n_a, n_b in spec.sizes:
        rows.extend(_rows_for_size(spec, n_a, n_b))

    try:
        if spec.fmt == "csv":
            with open(spec.out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(FIELDS)
                for row in rows:
                    writer.writerow(
                        [_format_cell(getattr(row, name)) for name in FIELDS]
                    )
        else:
            with open(spec.out, "w") as fh:
                json.dump([dataclasses.asdict(r) for r in rows], fh, indent=1)
                fh.write("\n")
        # the sidecar sits at out + ".meta.json"; leaving out itself out
        # keeps a sweep's sidecar the same wherever it is written
        recorded = dataclasses.asdict(spec)
        del recorded["out"]
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
        a, b, step = (float(p) for p in text.split(":"))
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
    parser.add_argument("--trials", type=int, help="Monte Carlo trials per point")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--config", help="flat key-value config file with defaults")
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    defaults: dict = {}
    if args.config:
        cfg = load_config(args.config)
        if cfg.modulation != BPSK:  # rows and sidecar record no modulation
            raise InvalidRange(f"{args.config}: sweeps run BPSK only, got {cfg.modulation}")
        defaults = dict(
            sizes=[(cfg.n_a, cfg.n_b)],
            eta=[cfg.eta],
            w=cfg.w,
            snr_db=[10.0 * math.log10(cfg.lambda_s)],
        )
    if args.preset:
        spec = preset(
            args.preset,
            trials=args.trials if args.trials is not None else 20000,
            seed=args.seed if args.seed is not None else 12345,
        )
    else:
        if args.metric is None:
            raise InvalidRange("either --preset or --metric is required")
        spec = SweepSpec(
            metric=args.metric,
            policies=["serial_max"],
            snr_db=defaults.get("snr_db", [10.0]),
            eta=defaults.get("eta", [0.05]),
            sizes=defaults.get("sizes", [(3, 3)]),
            w=defaults.get("w", 0.7),
            trials=args.trials if args.trials is not None else 20000,
            seed=args.seed if args.seed is not None else 12345,
            out="",
        )
    if args.metric:
        spec.metric = args.metric
    if args.policy:
        spec.policies = args.policy.split(",")
    if args.snr_db:
        spec.snr_db = _parse_range(args.snr_db)
    if args.eta:
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
        print(f"fdlink: validation error: {exc}", file=sys.stderr)
        return 2
    try:
        rows = run_sweep(spec)
    except FdlinkError as exc:
        print(f"fdlink: numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(rows)} rows to {spec.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
