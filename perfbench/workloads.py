"""The benchmark's workloads: inputs built from a seed, one timed pass over
fdlink's public functions, and the checks on that pass's outputs.

Every workload runs the same inputs in each pass, so passes can be
compared with each other (their outputs must be identical) and the pass
time reported as a median.
"""

from __future__ import annotations

import math
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import fdlink
from fdlink import SystemConfig, db_to_linear, validate_config
from fdlink.cli import SweepSpec

# MC against closed form: |z| above this fails.  With ~100 checks per run a
# 5-sigma limit keeps the chance of a false failure below 1e-4.
Z_MAX = 5.0
# exhaustive against Serial-Max: allowed shortfall in standard errors of
# the difference, taken as independent (both use the same draws, so the
# true spread of the difference is smaller).
K_SIGMA = 3.0
REL_TOL = 1e-9
W = 0.7


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    # the check sits on a point with an open defect (ROADMAP items 1 and 5);
    # a failure there counts into fail_ratio but does not make the run wrong
    known_defect: bool = False


class Clock:
    """Times each public call of a pass; a call that raises counts as failed.

    With a `reference` (see reference.py) it also times that kernel before
    the first call and after every call, so each call is bracketed by two
    measurements of the host's speed.
    """

    def __init__(self, reference=None) -> None:
        self.times: list[float] = []
        self.failed = 0
        self.reference = reference
        self.ref_times: list[float] = []

    def call(self, fn, *args):
        if self.reference is not None and not self.ref_times:
            self.ref_times.append(self.reference())
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            self.times.append(time.perf_counter() - start)
            if self.reference is not None:
                self.ref_times.append(self.reference())

    def scaled_times(self) -> list[float]:
        """Each call's time at the reference's nominal host speed: its time
        times the kernel's nominal time over the mean of the two kernel
        times that bracket it."""
        nominal = self.reference.nominal_s
        return [t * nominal / ((before + after) / 2.0)
                for t, before, after in zip(self.times, self.ref_times, self.ref_times[1:])]


def singular(cfg: SystemConfig) -> bool:
    """True when 1 - c*eta = 0 for some c <= n_a*n_b, where the closed-form
    rates and ceilings are known to be wrong."""
    return cfg.eta > 0 and any(abs(1.0 - c * cfg.eta) < 1e-9 for c in range(1, cfg.nn + 1))


def rate_defect(cfg: SystemConfig, wsr) -> bool:
    """True where the closed-form rate is known to be unreliable: a singular
    point, or a rate sum that lost more than 6 digits (largest term above
    1e6 * |value|), where SER is re-evaluated in mpmath but rate is not."""
    return singular(cfg) or wsr.max_term_magnitude > 1e6 * abs(wsr.value)


def z_check(name: str, mc: float, stderr: float, exact: float, known_defect: bool) -> Check:
    ok = stderr > 0 and abs(mc - exact) <= Z_MAX * stderr
    return Check(f"{name}: mc {mc!r} +- {stderr!r} vs closed form {exact!r}", ok, known_defect)


def _rel(stderr: float, value: float) -> float:
    return stderr / abs(value) if value else math.inf


def _cfg(n_a: int, n_b: int, lambda_s: float, eta: float) -> SystemConfig:
    return validate_config(SystemConfig(n_a=n_a, n_b=n_b, lambda_s=lambda_s, eta=eta, w=W))


class McGrid:
    """cli.run_sweep of Serial-Max at 3x3 over a dense SNR x eta grid, rate and SER.

    Every point shares one size and one seed, and draws two chunks of
    trials, so draws, greedy selection and the fsum reduction dominate.
    """

    REFERENCE = "mc_small"
    # MC SER at eta = 0 from this SNR on cannot see the tail that sets the
    # closed form (ROADMAP item 5), so its agreement checks fail.
    TAIL_DB = 15.0

    def __init__(self, seed: int, tiny: bool, out_dir: Path) -> None:
        snr = [0.0, 20.0, 40.0] if tiny else [float(s) for s in range(0, 41, 5)]
        trials = 500 if tiny else (1 << 17) + (1 << 13)
        self.specs = [
            SweepSpec(metric=metric, policies=["serial_max"], snr_db=snr,
                      eta=[0.0, 0.02, 0.1], sizes=[(3, 3)], w=W, trials=trials, seed=seed,
                      out=str(out_dir / f"mc_grid_{metric}.csv"))
            for metric in ("wsr", "wser")
        ]
        self.trials_per_pass = trials * len(snr) * 3 * len(self.specs)
        self.cf_evals_per_pass = 0

    def run(self, api, clock: Clock):
        out = []
        for spec in self.specs:
            rows = clock.call(api.run_sweep, spec)
            if rows is None:
                out.append((None, b""))
                continue
            with open(spec.out, "rb") as fh:
                out.append((rows, fh.read()))
        return out

    def fingerprint(self, out):
        return [csv for _, csv in out]

    def mc_points(self, out, call_seconds):
        for (rows, _), seconds in zip(out, call_seconds):
            for r in rows or []:
                yield seconds / len(rows), _rel(r.mc_stderr, r.mc_value)

    def checks(self, out, seed: int):
        for (rows, _), spec in zip(out, self.specs):
            if rows is None:
                yield Check(f"run_sweep {spec.metric} returned rows", False)
                continue
            for r in rows:
                yield z_check(f"{r.metric} 3x3 eta={r.eta} {r.snr_db}dB", r.mc_value,
                              r.mc_stderr, r.analytic_value,
                              r.metric == "wser" and r.eta == 0.0 and r.snr_db >= self.TAIL_DB)


class McExhaustive:
    """mc_weighted_sum_rate / _ser with max_wsr, min_wser and serial_max,
    one (SNR, eta) point per size from 2x2 to 6x6.

    The exhaustive objective array dominates time and memory; one point per
    size leaves nothing to share across a grid.
    """

    REFERENCE = "mc_exhaustive"
    SIZES = ((2, 2, 1 << 16), (3, 3, 1 << 16), (4, 4, 1 << 15), (5, 5, 1 << 15),
             (6, 6, 3 << 14))
    RUNS = (("rate", "max_wsr"), ("rate", "serial_max"),
            ("ser", "min_wser"), ("ser", "serial_max"))

    def __init__(self, seed: int, tiny: bool, out_dir: Path) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.points = [
            (_cfg(n_a, n_b, db_to_linear(rng.uniform(5.0, 25.0)), rng.choice((0.02, 0.05, 0.1))),
             200 if tiny else trials)
            for n_a, n_b, trials in self.SIZES
        ]
        self.trials_per_pass = sum(t for _, t in self.points) * len(self.RUNS)
        self.cf_evals_per_pass = 0

    def run(self, api, clock: Clock):
        out = []
        for cfg, trials in self.points:
            for metric, policy in self.RUNS:
                fn = api.mc_weighted_sum_rate if metric == "rate" else api.mc_weighted_sum_ser
                out.append(clock.call(fn, cfg, policy, trials, self.seed))
        return out

    def fingerprint(self, out):
        return [repr(e) for e in out]

    def mc_points(self, out, call_seconds):
        for est, seconds in zip(out, call_seconds):
            if est is not None:
                yield seconds, _rel(est.std_error, est.value)

    def checks(self, out, seed: int):
        runs = iter(out)
        for cfg, _ in self.points:
            ests = {run: next(runs) for run in self.RUNS}
            for metric, exhaustive, sign in (("rate", "max_wsr", 1.0), ("ser", "min_wser", -1.0)):
                ex, sm = ests[(metric, exhaustive)], ests[(metric, "serial_max")]
                name = f"{exhaustive} no worse than serial_max, {cfg.n_a}x{cfg.n_b} eta={cfg.eta}"
                if ex is None or sm is None:
                    yield Check(name, False)
                    continue
                slack = K_SIGMA * math.hypot(ex.std_error, sm.std_error)
                ok = all(math.isfinite(v) for v in (ex.value, sm.value, slack))
                yield Check(f"{name}: {ex.value!r} vs {sm.value!r}",
                            ok and sign * (ex.value - sm.value) >= -slack)


class ClosedForm:
    """Closed-form weighted sum rate and SER, rate ceiling, SER floor and the
    eta = 0 asymptote over sizes 2x2..6x6, singular and regular eta, and
    lambda_s from 10 to 1e8.  No Monte Carlo is timed.
    """

    REFERENCE = "mp"
    SIZES = ((2, 2), (3, 3), (4, 4), (5, 5), (6, 6))
    # 0.05, 0.1 and 0.2 are 1/c for some c <= n_a*n_b at 5x5 and 6x6;
    # 0.02 and 0.11 are regular there
    ETAS = (0.0, 0.02, 0.05, 0.1, 0.11, 0.2)
    # log10 lambda_s centres, taken in turn over the (size, eta) grid so each
    # eta meets several; the seed moves each point by at most a quarter
    # decade, which keeps the work of a pass nearly the same for every seed
    LOG10_LAMBDA_CENTRES = (1.25, 3.5, 5.75, 7.75)
    MC_TRIALS = 1 << 16

    def __init__(self, seed: int, tiny: bool, out_dir: Path) -> None:
        rng = random.Random(seed)
        sizes = self.SIZES[:2] if tiny else self.SIZES
        etas = (0.0, 0.1, 0.2) if tiny else self.ETAS
        self.seed = seed
        self.mc_trials = 2000 if tiny else self.MC_TRIALS
        self.points = [
            _cfg(n_a, n_b, 10.0 ** (self.LOG10_LAMBDA_CENTRES[(i + j) % 4] + rng.uniform(-0.25, 0.25)),
                 eta)
            for i, (n_a, n_b) in enumerate(sizes) for j, eta in enumerate(etas)
        ]
        self.trials_per_pass = 0
        # wsr, wser, then ceiling and floor, or the eta = 0 asymptote
        self.cf_evals_per_pass = sum(4 if cfg.eta > 0 else 3 for cfg in self.points)

    def run(self, api, clock: Clock):
        out = {}
        for cfg in self.points:
            out["wsr", cfg] = clock.call(api.avg_weighted_sum_rate, cfg)
            out["wser", cfg] = clock.call(api.avg_weighted_sum_ser, cfg)
            if cfg.eta > 0:
                out["ceiling", cfg] = clock.call(api.rate_ceiling, cfg)
                out["floor", cfg] = clock.call(api.ser_floor, cfg)
            else:
                out["asymptote", cfg] = clock.call(
                    api.asymptotic_ser_perfect_cancellation, cfg, cfg.lambda_s)
        return out

    def fingerprint(self, out):
        return repr(sorted((k[0], repr(k[1]), repr(v)) for k, v in out.items()))

    def mc_points(self, out, call_seconds):
        return []

    def checks(self, out, seed: int):
        missing = [k for k, v in out.items() if v is None]
        yield Check(f"every closed-form call returned ({len(missing)} missing)", not missing)
        if missing:
            return
        half_alpha = fdlink.BPSK.alpha_mod / 2.0
        for cfg in self.points:
            point = f"{cfg.n_a}x{cfg.n_b} eta={cfg.eta} lambda_s={cfg.lambda_s:.4g}"
            ser = out["wser", cfg].value
            if cfg.eta == 0.0:
                yield Check(f"{point}: 0 < wser {ser!r} <= alpha/2", 0.0 < ser <= half_alpha)
                continue
            # rates from the same closed forms, outside the timed pass
            r_ab = fdlink.avg_rate_ab(cfg).value
            r_ba = fdlink.avg_rate_ba(cfg).value
            wsr = out["wsr", cfg].value
            ceiling, floor = out["ceiling", cfg], out["floor", cfg]
            known = rate_defect(cfg, out["wsr", cfg])
            yield Check(f"{point}: 0 <= R_ba {r_ba!r} <= R_ab {r_ab!r}",
                        0.0 <= r_ba <= r_ab, known)
            yield Check(f"{point}: wsr {wsr!r} < ceiling {ceiling!r}",
                        wsr < ceiling * (1.0 + REL_TOL), known)
            yield Check(f"{point}: floor {floor!r} <= wser {ser!r} <= alpha/2",
                        floor * (1.0 - 1e-6) <= ser <= half_alpha)
        yield from self._ceilings_decrease(out)
        yield from self._mc_agreement(out, seed)

    def _ceilings_decrease(self, out):
        by_size: dict = {}
        for cfg in self.points:
            if cfg.eta > 0:
                by_size.setdefault((cfg.n_a, cfg.n_b), []).append(cfg)
        for row in by_size.values():
            for lo, hi in zip(row, row[1:]):
                c_lo, c_hi = out["ceiling", lo], out["ceiling", hi]
                yield Check(
                    f"{lo.n_a}x{lo.n_b}: ceiling(eta={lo.eta}) {c_lo!r} > ceiling(eta={hi.eta}) {c_hi!r}",
                    c_lo > c_hi,
                    rate_defect(lo, out["wsr", lo]) or rate_defect(hi, out["wsr", hi]))

    def _mc_agreement(self, out, seed: int):
        """Closed form against an untimed Serial-Max estimate, for the etas
        that straddle the singular ones."""
        for cfg in self.points:
            name = f"{cfg.n_a}x{cfg.n_b} eta={cfg.eta} lambda_s={cfg.lambda_s:.4g}"
            if cfg.eta in (0.1, 0.11, 0.2):
                est = fdlink.mc_weighted_sum_rate(cfg, "serial_max", self.mc_trials, seed)
                yield z_check(f"wsr {name}", est.value, est.std_error, out["wsr", cfg].value,
                              rate_defect(cfg, out["wsr", cfg]))
            if cfg.eta == 0.1:
                est = fdlink.mc_weighted_sum_ser(cfg, "serial_max", self.mc_trials, seed)
                yield z_check(f"wser {name}", est.value, est.std_error, out["wser", cfg].value,
                              False)


WORKLOADS = {"mc_grid": McGrid, "mc_exhaustive": McExhaustive, "closed_form": ClosedForm}
