"""The estimate grid against the per-rate loop, and its scan count.

``checkers._grid_search`` scans a block of rates at once, the whole grid
unless its points outgrow ``checkers._GRID_ENTRIES``: the kernels' ``rows``
and ``cols`` take a column of rates and give one row per rate. The
reference is ``oracles.grid_search_loop``, the search as it ran before, one
rate and three scans at a time, each point floored by Python's ``max``. The
tables and the best points must agree field by field in ``repr``, which
tells an int rate from a float one and -0.0 from 0.0.
"""

from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dichotomy import (
    EmptyFeasibleSetError,
    WindowSpec,
    estimate_ed,
    estimate_ued,
    checkers,
    make_example,
    system,
)
from oracles import grid_search_loop
from test_dense_kernel import block_fixture, dense_cases
from test_diagonal_scan import PROPERTY, diagonal_cases

FIELDS = ("alpha", "beta", "log_n_full", "log_n_half", "stable")

# rates and betas of either type, repeats included: 1 and 1.0 fall in one group
RATES = st.lists(st.one_of(st.integers(1, 3), st.floats(0.05, 3.0),
                           st.sampled_from([0.25, 0.5, 1.0, 2.0])), min_size=1, max_size=5)
BETAS = st.lists(st.one_of(st.integers(0, 2), st.floats(0.0, 1.0),
                           st.sampled_from([0.0, 0.25, 0.5])), min_size=1, max_size=4)


def rows(table):
    return [tuple(repr(getattr(point, f)) for f in FIELDS) for point in table]


def check_grid(sys_, proj, window, alphas, betas):
    """estimate_ued and estimate_ed (weak and strong) against the loop, with
    the grid scanned in one block, one rate per block, and blocks of a few
    points."""
    width = window.m_max - window.n_min + 1
    for entries in (checkers._GRID_ENTRIES, 1, 3 * width):
        with patch.object(checkers, "_GRID_ENTRIES", entries):
            check_estimates(sys_, proj, window, alphas, betas)


def check_estimates(sys_, proj, window, alphas, betas):
    uniform = estimate_ued(sys_, proj, window, alphas)
    best, table = grid_search_loop(sys_, proj, window, [(a, None) for a in sorted(alphas)])
    assert rows(uniform.table) == rows(table)
    assert (repr(uniform.alpha), repr(uniform.n_value.logmag), uniform.stable) == (
        repr(best.alpha), repr(best.log_n_full), best.stable)
    for strong in (False, True):
        points = [(a, b) for a in sorted(alphas) for b in sorted(betas) if not strong or b < a]
        if not points:
            with pytest.raises(EmptyFeasibleSetError):
                estimate_ed(sys_, proj, window, alphas, betas, strong=strong)
            continue
        expo = estimate_ed(sys_, proj, window, alphas, betas, strong=strong)
        best, table = grid_search_loop(sys_, proj, window, points)
        assert rows(expo.table) == rows(table)
        assert (repr(expo.alpha), repr(expo.beta), repr(expo.n_value.logmag), expo.stable) == (
            repr(best.alpha), repr(best.beta), repr(best.log_n_full), best.stable)


@PROPERTY
@given(diagonal_cases(), RATES, BETAS, st.booleans())
def test_diagonal_grid_matches_the_per_rate_loop(case, alphas, betas, fraction):
    _, sys_, proj, window, alpha = case
    alphas = [*alphas, Fraction(alpha) if fraction else alpha]
    check_grid(sys_, proj, window, alphas, betas)


@PROPERTY
@given(dense_cases(), RATES, BETAS)
def test_dense_grid_matches_the_per_rate_loop(case, alphas, betas):
    check_grid(*case, alphas, betas)


@PROPERTY
@given(st.integers(0, 2**16), st.sampled_from([2, 4]), st.integers(0, 12), RATES, BETAS)
def test_block_fixture_grid_matches_the_per_rate_loop(seed, dim, w, alphas, betas):
    sys_, proj = block_fixture(seed, dim, w, (0.80, 0.85), (1.15, 1.20))
    check_grid(sys_, proj, WindowSpec(0, w), alphas, betas)


@pytest.mark.parametrize("count", [1, 64])
@pytest.mark.parametrize("kernel", ["diagonal", "dense"])
def test_an_estimate_scans_each_window_once(monkeypatch, kernel, count):
    # whatever the size of the grid: one rows call per window, one cols call
    if kernel == "diagonal":
        entry = make_example("ued_example")
        sys_, proj, sweeps = entry.system, entry.projection, system._DiagonalSweeps
    else:
        sys_, proj = block_fixture(1, 4, 20, (0.80, 0.85), (1.15, 1.20))
        sweeps = system._DenseSweeps
    calls = {"rows": 0, "cols": 0}
    for name in calls:
        def counted(self, *args, _scan=getattr(sweeps, name), _name=name):
            calls[_name] += 1
            return _scan(self, *args)

        monkeypatch.setattr(sweeps, name, counted)
    window = WindowSpec(0, 20)
    alphas = [0.01 * (k + 1) for k in range(count)]
    for estimate in (lambda: estimate_ued(sys_, proj, window, alphas),
                     lambda: estimate_ed(sys_, proj, window, alphas, [0.0, 0.005])):
        calls.update(rows=0, cols=0)
        estimate()
        assert calls == {"rows": 2, "cols": 1}
