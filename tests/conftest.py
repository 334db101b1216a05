"""Shared pytest wiring: collects the acceptance-gate verdict lines and
prints them after the test summary, where output capture cannot hide them;
the masking oracle of exhaustive search's candidate links; and a counter
of the closed forms' mpmath calls."""

import collections
import types

import mpmath
import numpy as np

from fdlink import analytic

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def masked_candidates(g):
    """(4, T) flat positions of M, S, R and C in (T, n_a, n_b) matrices, by
    masking: M the first maximum, S the first maximum outside M's row and
    column, R and C the first maxima in M's row and in its column."""
    t, n_a, n_b = g.shape
    m = g.reshape(t, -1).argmax(axis=1)
    in_row = np.arange(n_a)[:, None] == (m // n_b)[:, None, None]
    in_col = np.arange(n_b) == (m % n_b)[:, None, None]

    def first_max(mask):
        return np.where(mask, g, -np.inf).reshape(t, -1).argmax(axis=1)

    return np.stack([m, first_max(~in_row & ~in_col), first_max(in_row & ~in_col),
                     first_max(in_col & ~in_row)])


def counting_mpmath(monkeypatch, names):
    """Route analytic's mpmath calls through a copy of the module whose
    named functions count their calls."""
    counts = collections.Counter()
    stand_in = types.ModuleType("mpmath")
    stand_in.__dict__.update(mpmath.__dict__)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        setattr(stand_in, name, counted(name, getattr(mpmath, name)))
    monkeypatch.setattr(analytic, "mpmath", stand_in)
    return counts
