"""Shared pytest wiring: collects the acceptance-gate verdict lines and
prints them after the test summary, where output capture cannot hide them;
empties the Monte Carlo draws kept across calls before each test; and the
masking oracle of exhaustive search's candidate links."""

import numpy as np
import pytest

from fdlink import montecarlo

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def forget_kept_draws():
    """Empty the draws montecarlo keeps across calls, so the next call draws."""
    with montecarlo._KEPT_LOCK:
        montecarlo._KEPT.clear()


@pytest.fixture(autouse=True)
def no_kept_draws():
    """Each test draws its own trials: none are served from an earlier test's call."""
    forget_kept_draws()


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
