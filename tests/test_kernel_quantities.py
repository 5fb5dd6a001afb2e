"""Each kernel quantity has one implementation.

The dense restricted extremes are the row's logs and the row's witness
directions. A dense ratio whose denominator kills a direction follows the
diagonal rule: a direction that both horizons kill takes no part, so the
dense triplet form of a diagonal system written densely agrees with the
diagonal one.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from dichotomy import (
    DiagonalClosedForm,
    ExplicitSequence,
    LogScalar,
    ProjectionFamily,
    SystemDescription,
    WindowSpec,
    restricted_extremes,
    verify_certificate,
    verify_triplet_form,
)
from dichotomy.config import parse_certificate_spec
from dichotomy.system import _sweeps

from test_dense_kernel import PROPERTY, block_fixture, certificates, dense_cases


def assert_extremes_are_the_row_logs(sys_, proj, lo, hi):
    kernel = _sweeps(sys_, proj, lo, hi)
    for n in range(lo, hi + 1):
        row = kernel.row(n)
        for m in range(n, hi + 1):
            ext = restricted_extremes(sys_, proj, m, n)
            growth, gain = row.logs(m)
            assert (ext.growth_p.logmag, ext.min_gain_q.logmag) == (growth, gain), (m, n)
            assert ext.direction_p == (row.direction(m, n, "P") or None)
            assert ext.direction_q == (row.direction(m, n, "Q") or None)


def test_dense_extremes_are_the_row_logs_on_the_block_fixture():
    # the singular values of one image taken on its own and in the row's
    # batched call differ in their last bits: log min_gain_Q at (3, 3) was
    # -1.1e-16 against the row's exact 0.0
    sys_, proj = block_fixture(1, 4, 12, (0.80, 0.85), (1.15, 1.20))
    assert_extremes_are_the_row_logs(sys_, proj, 0, 12)


@PROPERTY
@given(dense_cases())
def test_dense_extremes_are_the_row_logs(case):
    sys_, proj, window = case
    assert_extremes_are_the_row_logs(sys_, proj, window.n_min, window.m_max)


def diagonal_and_dense(table, masks):
    """A diagonal system of the factors ``table[i][k]`` and the same system
    written densely, with the masks ``masks[n]`` (the last one beyond)."""
    dim = len(table)
    diagonal = SystemDescription(
        dim, DiagonalClosedForm([(lambda c: (lambda n: c[n]))(c) for c in table]))
    dense = SystemDescription(dim, ExplicitSequence(
        [np.diag([c[k].to_float() for c in table]) for k in range(len(table[0]))]))
    proj = ProjectionFamily(dim, mask=lambda n: masks[min(n, len(masks) - 1)])
    return diagonal, dense, proj


def test_a_direction_killed_at_both_horizons_takes_no_part():
    # coordinate 1 of P is annihilated at step 1: the ratios between later
    # horizons are those of coordinate 0, not unbounded
    diags = [(1.0, 1.0, 1.0), (0.5, 0.0, 2.0)] + [(0.5, 0.5, 2.0)] * 3
    table = [[LogScalar.from_float(d[i]) for d in diags] for i in range(3)]
    diagonal, dense, proj = diagonal_and_dense(table, [(True, True, False)])
    cert = parse_certificate_spec("UED:N=1,alpha=0.1")
    for form, window in ((verify_certificate, WindowSpec(0, 4)),
                         (verify_triplet_form, WindowSpec(0, 4, triplet=True))):
        for sys_ in (diagonal, dense):
            out = form(sys_, proj, cert, window)
            assert out.holds and out.min_slack == 0.0, (form.__name__, sys_.is_diagonal)
    row = _sweeps(dense, proj, 0, 4).row(0)
    assert math.isclose(row.ratios(3, 2)[0], math.log(0.5))


@st.composite
def zero_factor_cases(draw):
    """A 2- or 3-dimensional diagonal system with zero factors, written
    densely too, and masks that stay constant or change only across a zero
    factor, so that the family is compatible with the dynamics."""
    dim, m_max = draw(st.integers(2, 3)), draw(st.integers(1, 6))
    table = [[LogScalar.one()] + [
        LogScalar(draw(st.sampled_from([1, -1])), draw(st.floats(-2.0, 2.0)))
        if draw(st.floats(0.0, 1.0)) > 0.25 else LogScalar.zero()
        for _ in range(m_max)] for _ in range(dim)]
    masks = [tuple(draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))]
    changing = draw(st.booleans())
    for k in range(1, m_max + 1):
        masks.append(tuple(draw(st.booleans()) if changing and table[i][k].is_zero else b
                           for i, b in enumerate(masks[-1])))
    return (*diagonal_and_dense(table, masks), WindowSpec(draw(st.integers(0, m_max)), m_max,
                                                          triplet=True))


@PROPERTY
@given(zero_factor_cases(), st.data())
def test_diagonal_and_dense_triplet_forms_agree_across_zero_factors(case, data):
    diagonal, dense, proj, window = case
    cert = data.draw(certificates(window))
    a = verify_triplet_form(diagonal, proj, cert, window)
    b = verify_triplet_form(dense, proj, cert, window)
    assert (a.holds, a.pairs_checked) == (b.holds, b.pairs_checked)
    if a.witness is None:
        assert b.witness is None
    else:
        assert (a.witness.m, a.witness.n, a.witness.side) == (
            b.witness.m, b.witness.n, b.witness.side)
