"""Spans and counters recorded at fdlink's layer boundaries.

Nothing here lives inside the program: the tracer replaces the module
attributes through which one layer calls the next (for example the
``draw_trial_batch`` name that ``fdlink.montecarlo`` looks up) with
wrappers, and puts the originals back afterwards.  Spans are kept in
memory as ``[name, start, end, parent, run_id]`` and written out once at
exit; a layer's self time is its span's duration minus its children's.
"""

from __future__ import annotations

import collections
import json
import math
import time
import tracemalloc
import types
from contextlib import contextmanager

_MB = 1e6


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.run_id = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1,
                  self.run_id]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(result, args, seconds) may add counts."""

        def traced(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, args, record[2] - record[1])
            return out

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": self.spans}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Calls are single-threaded, so children of one span never overlap."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, covered)]


def _stride(n_a: int, n_b: int) -> int:
    # doubles each trial consumes: the matrix plus two INR draws, rounded
    # up to the 4-double Philox block
    return -(-(n_a * n_b + 2) // 4) * 4


class FdlinkProbes:
    """The wrapped bindings of every layer boundary the benchmark traces."""

    def __init__(self, tracer: Tracer) -> None:
        import fdlink.analytic as analytic
        import fdlink.cli as cli
        import fdlink.montecarlo as montecarlo

        t = tracer
        self.tracer = t
        # the longest traced call of each mc function: (seconds, args)
        self.longest: dict = {}

        def after_draw(_, args, __):
            _, _, count, cfg, _ = args
            t.counts["channel.trials_drawn"] += count
            t.counts["channel.bytes_generated"] += count * _stride(cfg.n_a, cfg.n_b) * 8

        def after_analytic(out, *_):
            if getattr(out, "cancellation_flag", False):
                t.counts["analytic.flagged"] += 1

        def after_sweep(_, args, __):
            spec = args[0]
            for path in (spec.out, spec.out + ".meta.json"):
                with open(path, "rb") as fh:
                    t.counts["cli.bytes_written"] += len(fh.read())

        def mc(fn):
            def remember_longest(_, args, seconds):
                if seconds > self.longest.get(fn, (0.0,))[0]:
                    self.longest[fn] = (seconds, args)

            return t.wrap("montecarlo." + fn.__name__, fn, remember_longest)

        mpmath = analytic.mpmath
        mp_module = types.ModuleType("mpmath")
        mp_module.__dict__.update(mpmath.__dict__)

        @contextmanager
        def workdps(dps):
            with t.span("analytic.mp"), mpmath.workdps(dps):
                yield

        mp_module.workdps = workdps

        self.api = types.SimpleNamespace(run_sweep=t.wrap("cli.run_sweep", cli.run_sweep,
                                                          after_sweep))
        for name in ("mc_weighted_sum_rate", "mc_weighted_sum_ser"):
            setattr(self.api, name, mc(getattr(montecarlo, name)))
        for name in ("avg_weighted_sum_rate", "avg_weighted_sum_ser", "rate_ceiling",
                     "ser_floor", "asymptotic_ser_perfect_cancellation"):
            setattr(self.api, name, t.wrap("analytic." + name, getattr(analytic, name),
                                           after_analytic))

        self._bindings = [
            (montecarlo, "draw_trial_batch",
             t.wrap("channel.draw_trial_batch", montecarlo.draw_trial_batch, after_draw)),
            (analytic, "quad", t.wrap("analytic.quad", analytic.quad)),
            (analytic, "mpmath", mp_module),
            (analytic, "exp_e1_scaled", t.counted("special.e1_calls", analytic.exp_e1_scaled)),
            (analytic, "erfcx", t.counted("special.erfcx_calls", analytic.erfcx)),
        ] + [(cli, name, getattr(self.api, name)) for name in (
            "mc_weighted_sum_rate", "mc_weighted_sum_ser", "avg_weighted_sum_rate",
            "avg_weighted_sum_ser", "rate_ceiling", "ser_floor",
            "asymptotic_ser_perfect_cancellation")]

    @contextmanager
    def installed(self, run_id: str):
        """Route fdlink's cross-layer calls through the wrappers."""
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in self._bindings]
        for mod, name, replacement in self._bindings:
            setattr(mod, name, replacement)
        self.tracer.run_id = run_id
        self.tracer.counts.clear()
        try:
            yield
        finally:
            for mod, name, original in saved:
                setattr(mod, name, original)

    def peak_alloc_mb(self) -> float:
        """tracemalloc peak of the longest traced call of each mc function,
        replayed outside the traced passes: tracemalloc slows the Python
        loop in math.fsum several-fold, which would swamp the spans."""
        peak = 0
        for fn, (_, args) in self.longest.items():
            tracemalloc.start()
            try:
                fn(*args)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak / _MB

    def pass_metrics(self, warnings: int) -> dict:
        """Per-layer metrics of the most recent traced pass."""
        run = [(s, v) for s, v in zip(self.tracer.spans, self_times(self.tracer.spans))
               if s[4] == self.tracer.run_id]
        spans = [s for s, _ in run]
        selfs = [v for _, v in run]
        counts = self.tracer.counts

        def total(prefix, values, exclude=()):
            return math.fsum(v for s, v in zip(spans, values)
                             if s[0].startswith(prefix) and s[0] not in exclude)

        durations = [end - start for _, start, end, _, _ in spans]
        inner = ("analytic.quad", "analytic.mp")
        n_calls = sum(1 for s in spans if s[0].startswith("analytic.") and s[0] not in inner)
        n_mp = sum(1 for s in spans if s[0] == "analytic.mp")
        return {
            "channel.draw_s": total("channel.", durations),
            "channel.trials_drawn": counts.get("channel.trials_drawn", 0),
            "channel.mb_generated": counts.get("channel.bytes_generated", 0) / _MB,
            "montecarlo.s": total("montecarlo.", durations),
            "montecarlo.self_s": total("montecarlo.", selfs),
            "montecarlo.calls": sum(1 for s in spans if s[0].startswith("montecarlo.")),
            "analytic.s": total("analytic.", durations, inner),
            "analytic.self_s": total("analytic.", selfs, inner),
            "analytic.calls": n_calls,
            "analytic.quad_calls": sum(1 for s in spans if s[0] == "analytic.quad"),
            "analytic.quad_s": total("analytic.quad", durations),
            "analytic.mp_promotions": n_mp,
            "analytic.mp_s": total("analytic.mp", durations),
            "analytic.mp_per_call": n_mp / n_calls if n_calls else 0.0,
            "analytic.flagged": counts.get("analytic.flagged", 0),
            "analytic.warnings": warnings,
            "special.e1_calls": counts.get("special.e1_calls", 0),
            "special.erfcx_calls": counts.get("special.erfcx_calls", 0),
            "cli.s": total("cli.", durations),
            "cli.self_s": total("cli.", selfs),
            "cli.bytes_written": counts.get("cli.bytes_written", 0),
        }
