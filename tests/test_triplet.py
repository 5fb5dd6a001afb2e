"""The triplet form against the loop over every triplet.

``verify_triplet_form`` checks one array of triplets per seed p: the dense
kernel batches ``oracles._sup_ratio`` over a seed's rows, and the diagonal
kernel clears whole rows with one running-maximum scan per coordinate class
and rescans, one array of triplets per seed, only the rows that may violate. The oracle,
``oracles.triplet_loop``, visits every triplet (p, n, m) in lexicographic
order with one ``ratios`` call each. Verdict, witness and count must agree
exactly; the least slack of a holding run exactly where the logs, the rate
and the weights are exact or dyadic, so that neither form rounds, and to
1e-12 otherwise.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_dense_kernel import block_fixture, dense_cases
from test_dense_kernel import certificates as dense_certificates
from test_diagonal_scan import PROPERTY, certificates, diagonal_cases, same, unit

from dichotomy import (
    DenseOverflowError,
    DichotomyCertificate,
    ExplicitSequence,
    Kind,
    LogScalar,
    ProjectionFamily,
    SystemDescription,
    WindowSpec,
    make_example,
    verify_certificate,
    verify_triplet_form,
)
from dichotomy import system
from dichotomy.cli import main
from dichotomy.logscalar import lsub
from dichotomy.system import DiagonalClosedForm, _sweeps
from oracles import _sup_ratio, factor_log, triplet_loop


def run(check, *args, **kw):
    """The outcome of a check, or the type and text of what it raised."""
    try:
        return check(*args, **kw)
    except DenseOverflowError as exc:
        return type(exc), str(exc)


def assert_agrees(sys_, proj, cert, window, tol, exact):
    window = WindowSpec(window.n_min, window.m_max, triplet=True)
    got = run(verify_triplet_form, sys_, proj, cert, window, tol=tol)
    want = run(triplet_loop, sys_, proj, cert, window, tol=tol)
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.holds, got.pairs_checked) == (want.holds, want.pairs_checked)
    if want.witness is None:
        assert got.witness is None
        if exact:
            assert same(got.min_slack, want.min_slack)
        else:
            assert math.isclose(got.min_slack, want.min_slack, rel_tol=1e-12, abs_tol=1e-12)
        return
    g, w = got.witness, want.witness
    assert (g.m, g.n, g.side, g.direction) == (w.m, w.n, w.side, w.direction)
    assert same(g.required_constant, w.required_constant)
    assert same(got.min_slack, want.min_slack)


@PROPERTY
@given(diagonal_cases(), st.data())
def test_diagonal_triplet_form_matches_the_loop(case, data):
    # zero factors in P and Q, masks that change across them, empty P or Q
    # ranges, one-index windows, float, int, Fraction and bigint logs
    kind, sys_, proj, window, alpha = case
    cert = data.draw(certificates(kind, alpha, window))
    tol = data.draw(st.sampled_from([1e-9, 0.0]))
    # exact logs with dyadic rates and weights (log N = 0) round nowhere
    assert_agrees(sys_, proj, cert, window, tol, exact=kind != "float" and cert.log_n() == 0)


@PROPERTY
@given(st.floats(0.01, 3.0), st.integers(1, 3), st.integers(0, 12),
       st.sampled_from([0.0, 1e-16, 1e-15, 1e-9]))
def test_diagonal_triplet_form_matches_the_loop_on_tight_certificates(alpha, dim, w, tol):
    # every triplet's slack is 0 up to rounding, so rows lie within the
    # rounding bound of tol and are rescanned triplet by triplet
    mask = tuple(i % 2 == 0 for i in range(dim))
    entries = [
        (lambda s: (lambda n: LogScalar.from_log(s * alpha)))(-1.0 if p else 1.0) for p in mask
    ]
    sys_ = SystemDescription(dim, DiagonalClosedForm(entries))
    proj = ProjectionFamily(dim, mask=mask)
    cert = DichotomyCertificate(Kind.UED, alpha=alpha, n_const=1.0)
    assert_agrees(sys_, proj, cert, WindowSpec(0, w), tol, exact=False)


@PROPERTY
@given(dense_cases(), st.data())
def test_dense_triplet_form_matches_the_loop(case, data):
    # oblique projections, and rank 0 or dim for an empty P or Q range
    sys_, proj, window = case
    cert = data.draw(dense_certificates(window))
    assert_agrees(sys_, proj, cert, window, 1e-9, exact=False)


@st.composite
def singular_cases(draw):
    """``commuting_system``s in which some coefficients kill directions of
    range P or Q (one column of a block, or the whole block), so the swept
    images lose rank and the denominators of the ratios are singular."""
    sys_, proj, window = draw(dense_cases())
    dim, mats = sys_.dim, list(sys_.coefficients.matrices)
    p = proj.matrix(0)
    basis = np.column_stack([system._range_basis(p), system._range_basis(np.eye(dim) - p)])
    rank = system._range_basis(p).shape[1]
    for k in draw(st.lists(st.integers(1, len(mats) - 1), max_size=2)) if len(mats) > 1 else []:
        side = np.arange(rank) if draw(st.booleans()) else np.arange(rank, dim)
        if side.size and not draw(st.booleans()):
            side = side[draw(st.integers(0, side.size - 1)):][:1]
        # A(k) composed with the oblique projection that drops the basis
        # vectors of ``side``: it still commutes with P, and kills them
        keep = np.ones(dim)
        keep[side] = 0.0
        mats[k] = mats[k] @ basis @ np.diag(keep) @ np.linalg.inv(basis)
    return SystemDescription(dim, ExplicitSequence(mats)), proj, window


@PROPERTY
@given(singular_cases(), st.data())
def test_dense_triplet_form_matches_the_loop_with_singular_denominators(case, data):
    sys_, proj, window = case
    cert = data.draw(dense_certificates(window))
    assert_agrees(sys_, proj, cert, window, 1e-9, exact=False)


@PROPERTY
@given(st.one_of(dense_cases(), singular_cases()))
def test_dense_batched_ratios_repeat_the_single_ratios_bit_for_bit(case):
    sys_, proj, window = case
    lo, hi = window.n_min, window.m_max
    kernel = _sweeps(sys_, proj, lo, hi)
    for p in range(lo, hi + 1):
        row = kernel.row(p)
        k_of, m_of, rp, rq = row.triplet_ratios(range(p, hi + 1))
        want = [
            (_sup_ratio(row.xs[m - p], row.xs[k - p], k == m) if row.bp.shape[1] else -math.inf,
             _sup_ratio(row.ys[k - p], row.ys[m - p], k == m) if row.bq.shape[1] else -math.inf)
            for k, m in zip(k_of.tolist(), m_of.tolist())
        ]
        assert [(k, m) for k in range(p, hi + 1) for m in range(k, hi + 1)] == list(
            zip(k_of.tolist(), m_of.tolist())
        )
        assert np.array(want).reshape(-1, 2).tobytes() == np.column_stack([rp, rq]).tobytes()
        single = [row.ratios(m, k) for k, m in zip(k_of.tolist(), m_of.tolist())]
        assert np.array(single).reshape(-1, 2).tobytes() == np.column_stack([rp, rq]).tobytes()


@pytest.mark.parametrize("p_scale, q_scales, n_const", [
    (0.5, [1e200, 1e200, 1e200], 2.0),  # the row of seed 0 overflows at m = 2
    (0.5, [1e-200, 1e200, 1e200], 1e250),  # seed 0 holds; the row of seed 1 overflows
    (1e200, [1e200, 1e200, 1e200], 2.0),  # the violation at (0, 0, 1) comes first
])
def test_dense_overflow_matches_the_loop(p_scale, q_scales, n_const):
    # the loop raises at the first triplet beyond a row's end, unless it
    # meets a violation first
    mats = [np.eye(2)] + [np.diag([p_scale, q]) for q in q_scales]
    sys_ = SystemDescription(2, ExplicitSequence(mats))
    proj = ProjectionFamily(2, matrix=[[1.0, 0.0], [0.0, 0.0]])
    cert = DichotomyCertificate(Kind.UED, alpha=0.1, n_const=n_const)
    window = WindowSpec(0, 3, triplet=True)
    got = run(verify_triplet_form, sys_, proj, cert, window)
    assert got == run(triplet_loop, sys_, proj, cert, window)


def test_diagonal_triplet_form_makes_no_per_triplet_ratio_call(monkeypatch):
    def refuse(self, m, k):
        raise AssertionError(f"per-triplet ratio call at ({self.n}, {k}, {m})")

    monkeypatch.setattr(system._DiagonalRow, "ratios", refuse)
    # at W = 1000 the rounding bound of the ued claim exceeds tol, so its
    # triplets (p, n, n), with excess -0.0, must be judged against tol itself
    cases = [(make_example(name), w) for name, w in (
        ("ued_example", 200), ("ued_example", 1000), ("ned_example", 60),
        ("ned_not_ed_example", 24),
    )]
    for entry, w in cases:
        out = verify_triplet_form(entry.system, entry.projection, entry.claims[0].cert,
                                  WindowSpec(0, w, triplet=True))
        assert out.holds
        assert out.pairs_checked == (w + 1) * (w + 2) * (w + 3) // 6
    # with a zero factor no class takes the annihilated coordinate, on
    # either side, so no row comes near the tolerance either
    p_coord = [LogScalar.from_log(-1.0)] * 21
    p_coord[3] = LogScalar.zero()
    sys_ = SystemDescription(2, DiagonalClosedForm(
        [lambda n: p_coord[n], lambda n: LogScalar.from_log(1.0)]
    ))
    proj = ProjectionFamily(2, mask=(True, False))
    cert = DichotomyCertificate(Kind.UED, alpha=0.5, n_const=1.0)
    assert verify_triplet_form(sys_, proj, cert, WindowSpec(0, 20, triplet=True)).holds


# -- the witness direction ----------------------------------------------------


def coordinate_ratio(kernel, i, m, k, p, side):
    """The side's ratio of coordinate i between horizons k <= m, seeded at p:
    +inf where it is alive at the numerator's horizon and annihilated at the
    denominator's, None where it is annihilated at both."""
    top, bottom = (factor_log(kernel, i, h, p) for h in ((m, k) if side == "P" else (k, m)))
    if top == bottom == -math.inf:
        return None
    return math.inf if bottom == -math.inf else lsub(top, bottom)


def assert_pair_directions(row, m):
    # the witness of the pair form (k = n) is the direction of the extremes
    ext = row.extremes(m)
    assert row.direction(m, row.n, "P") == (ext.direction_p or ())
    assert row.direction(m, row.n, "Q") == (ext.direction_q or ())


@PROPERTY
@given(diagonal_cases())
def test_diagonal_witness_is_the_first_coordinate_of_the_ratio(case):
    # zero factors, masks that change across them, exact logs: the witness of
    # every triplet is the first coordinate whose ratio is the side's ratio,
    # an unbounded one included, and at p = n that of the extremes
    _, sys_, proj, window, _ = case
    lo, hi, dim = window.n_min, window.m_max, sys_.dim
    kernel = _sweeps(sys_, proj, lo, hi)
    for p in range(lo, hi + 1):
        row, mask = kernel.row(p), proj.mask(p)
        for k in range(p, hi + 1):
            for m in range(k, hi + 1):
                if k == p:
                    assert_pair_directions(row, m)
                for side, ratio in zip("PQ", row.ratios(m, k)):
                    coords = [i for i in range(dim) if mask[i] == (side == "P")]
                    first = next((i for i in coords
                                  if coordinate_ratio(kernel, i, m, k, p, side) == ratio), None)
                    assert row.direction(m, k, side) == (unit(dim, first) or ())


@st.composite
def block_cases(draw):
    span = draw(st.integers(0, 8))
    sys_, proj = block_fixture(draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 5)), span,
                               (0.80, 0.85), (1.15, 1.20))
    return sys_, proj, WindowSpec(0, span)


@PROPERTY
@given(st.one_of(block_cases(), dense_cases()))
def test_dense_witness_is_the_direction_of_the_extremes(case):
    # at k = p the direction of the extremes at m; beyond, a direction that
    # attains the side's ratio between the horizons k and m, within 1e-9
    # relative (1e-9 on its log), or within the rounding of its denominator
    # image times the direction, which grows with that image's condition
    sys_, proj, window = case
    lo, hi = window.n_min, window.m_max
    kernel = _sweeps(sys_, proj, lo, hi)
    for p in range(lo, hi + 1):
        row = kernel.row(p)
        for m in range(p, hi + 1):
            assert_pair_directions(row, m)
            for k in range(p + 1, m + 1):
                for side, ratio in zip("PQ", row.ratios(m, k)):
                    if ratio == -math.inf:  # a trivial range
                        continue
                    basis, images = (row.bp, row.xs) if side == "P" else (row.bq, row.ys)
                    top, bottom = (m, k) if side == "P" else (k, m)
                    z = basis.T @ np.array(row.direction(m, k, side))
                    num, den = (np.linalg.norm(images[h - p] @ z) for h in (top, bottom))
                    tol = max(1e-9, 1e-13 * np.linalg.cond(images[bottom - p]))
                    assert math.isclose(math.log(num) - math.log(den), ratio,
                                        rel_tol=0.0, abs_tol=tol)


def test_dense_triplet_witness_attains_the_ratio_beyond_the_seed():
    # seeded at 0, the P ratio between the horizons 1 and 2 is 1 along
    # coordinate 0 and 0.6 along coordinate 1, where the growth at 2 peaks
    mats = [np.eye(3), np.diag([0.1, 0.5, 3.0])] + [np.diag([1.0, 0.6, 3.0])] * 2
    sys_ = SystemDescription(3, ExplicitSequence(mats))
    proj = ProjectionFamily(3, matrix=np.diag([1.0, 1.0, 0.0]))
    cert = DichotomyCertificate(Kind.UED, alpha=0.1, n_const=1.0)
    for window in (WindowSpec(0, 3), WindowSpec(0, 3, triplet=True)):
        check = verify_triplet_form if window.triplet else verify_certificate
        w = check(sys_, proj, cert, window).witness
        assert (w.m, w.n, w.side) == (2, 1, "P")
        assert [abs(v) for v in w.direction] == [1.0, 0.0, 0.0]  # the SVD picks the sign
    # A(2) kills Q coordinate 1: an unbounded Q ratio between the horizons 1
    # and 2 names it
    mats = [np.eye(3), np.diag([0.5, 2.0, 3.0]), np.diag([0.5, 0.0, 3.0])]
    sys_ = SystemDescription(3, ExplicitSequence(mats))
    proj = ProjectionFamily(3, matrix=np.diag([1.0, 0.0, 0.0]))
    row = _sweeps(sys_, proj, 0, 2).row(0)
    assert row.ratios(2, 1)[1] == math.inf
    assert [abs(v) for v in row.direction(2, 1, "Q")] == [0.0, 1.0, 0.0]


DENSE_DIAGONAL = "[system]\ndim = 3\nsource = explicit\n" + "".join(
    f"A{k} = 0.5,0,0; 0,1.01,0; 0,0,3\n" for k in range(7)
) + "[projection]\nmask = 1,0,0\n"
BOTH_SIDES = (
    "[system]\ndim = 2\nsource = diagonal\ncoord0 = linear_exponent: sigma=0, tau=-0.5\n"
    "coord1 = linear_exponent: sigma=0, tau=0.1\n[projection]\nmask = 1,0\n"
)


@pytest.mark.parametrize("text, cert, window, want", [
    # a zero factor annihilates coordinate 1 at 7, where the Q ratio of
    # coordinate 2 is only e^-1.7
    (None, "UED:N=5,alpha=0.1", "0..8", (7, 5, "Q", [0.0, 1.0, 0.0], "inf")),
    # written densely: the slow Q coordinate, not the fast one
    (DENSE_DIAGONAL, "UED:N=1,alpha=0.5", "0..6", (1, 0, "Q", [0.0, 1.0, 0.0], 0.49005)),
    # both sides violate at (1, 0): the P side is named first
    (BOTH_SIDES, "UED:N=1,alpha=1", "0..5", (1, 0, "P", [1.0, 0.0], 0.5)),
])
def test_both_verify_forms_name_the_same_witness(tmp_path, text, cert, window, want):
    path = Path(__file__).parent / "golden" / "zeros.cfg"
    if text is not None:
        path = tmp_path / "system.cfg"
        path.write_text(text, encoding="utf-8")
    witnesses = []
    for flags in ([], ["--triplet"]):
        report = tmp_path / "report.json"
        argv = ["verify", "--system", str(path), "--cert", cert, "--window", window, *flags]
        assert main([*argv, "--report", str(report)]) == 1
        witnesses.append(json.loads(report.read_text(encoding="utf-8"))["result"]["witness"])
    assert witnesses[0] == witnesses[1]
    w = witnesses[0]
    m, n, side, direction, logmag = want
    assert (w["m"], w["n"], w["side"]) == (m, n, side)
    assert [abs(v) for v in w["direction"]] == direction  # the SVD picks the sign
    got = w["required_constant"]["logmag"]
    assert got == logmag if isinstance(logmag, str) else math.isclose(got, logmag, abs_tol=1e-5)


@st.composite
def both_forms_cases(draw):
    """A diagonal, dense or block system with a UED or ED certificate, and
    whether the system is diagonal."""
    def ued_or_ed(cert):
        return cert.kind in (Kind.UED, Kind.ED)

    if draw(st.booleans()):
        kind, sys_, proj, window, alpha = draw(diagonal_cases())
        return sys_, proj, window, draw(certificates(kind, alpha, window).filter(ued_or_ed)), True
    sys_, proj, window = draw(st.one_of(dense_cases(), block_cases()))
    return sys_, proj, window, draw(dense_certificates(window).filter(ued_or_ed)), False


@PROPERTY
@given(both_forms_cases())
def test_a_pair_witness_in_the_first_row_is_the_triplet_witness(case):
    # the triplets (n_min, n_min, m) come first and are the pairs of row
    # n_min, checked by the same rule, the P side first; on a diagonal system
    # their ratios are the pair extremes bit for bit
    sys_, proj, window, cert, diagonal = case
    pair = run(verify_certificate, sys_, proj, cert, window)
    if isinstance(pair, tuple) or pair.holds or pair.witness.n != window.n_min:
        return
    trip = verify_triplet_form(sys_, proj, cert,
                               WindowSpec(window.n_min, window.m_max, triplet=True))
    g, w = pair.witness, trip.witness
    assert (w.m, w.n, w.side, w.direction) == (g.m, g.n, g.side, g.direction)
    if diagonal:
        assert same(w.required_constant, g.required_constant)
        assert same(trip.min_slack, pair.min_slack)
