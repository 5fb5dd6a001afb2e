"""The dense pair-extreme kernel against the per-pair dense formula.

The oracle below is the formula the checkers evaluated for every pair of a
dense system before the row kernel replaced it: form the full product
A(m, n), take orthonormal bases of ranges P(n) and Q(n), and read growth_P
and min_gain_Q off one SVD each. The systems are block systems conjugated by
a random frame, so every coefficient commutes with the (oblique) projection
and the kernel's re-projection changes nothing in exact arithmetic; with at
most eight steps of moderate growth the oracle's own rounding stays far below
the 1e-9 the comparisons allow.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dichotomy import (
    DenseOverflowError,
    DichotomyCertificate,
    ExplicitSequence,
    Kind,
    LogScalar,
    ProjectionFamily,
    SystemDescription,
    TabulatedProfile,
    WindowSpec,
    WitnessSchedule,
    estimate_ed,
    estimate_ued,
    falsify,
    minimal_ned_profile,
    optimal_N_for_alpha,
    restricted_extremes,
    restricted_ratio_extremes,
    verify_certificate,
    verify_datko_ued,
    verify_triplet_form,
)
from dichotomy.logscalar import ladd
from dichotomy.system import DiagonalClosedForm, _range_basis

from oracles import _slack, evolution, window_pairs

TOL = 1e-9
MARGIN = 1e-6  # every pair's slack stays this far from -tol, so rounding cannot decide

# -- brute-force oracle ----------------------------------------------------------


def brute_logs(sys, proj, n, m):
    """(log growth_P, log min_gain_Q) at one pair; -inf / +inf mark trivial ranges."""
    evo = evolution(sys, m, n).to_dense()
    bp = _range_basis(proj.matrix(n))
    bq = _range_basis(proj.complement_matrix(n))
    g, h = -math.inf, math.inf
    if bp.shape[1]:
        s = np.linalg.svd(evo @ bp, compute_uv=False)[0]
        g = math.log(s) if s > 0 else -math.inf
    if bq.shape[1]:
        s = np.linalg.svd(evo @ bq, compute_uv=False)[-1]
        h = math.log(s) if s > 0 else -math.inf
    return g, h


def brute_slacks(logs, cert, window):
    """[(n, m, slack_p, slack_q)] over the window in scan order."""
    out = []
    for n, m in window_pairs(window):
        gap = cert.alpha * (m - n)
        g, h = logs(n, m)
        slack_p = _slack(cert.r_log(n), ladd(gap, g) if g != -math.inf else -math.inf)
        rhs_q = ladd(cert.r_log(m), h) if h != math.inf else math.inf
        out.append((n, m, slack_p, _slack(rhs_q, gap)))
    return out


def brute_verify(slacks, tol):
    """(holds, (m, n, side) or None, pairs, min_slack) of the pair scan."""
    min_slack = math.inf
    for pairs, (n, m, slack_p, slack_q) in enumerate(slacks, start=1):
        for side, slack in (("P", slack_p), ("Q", slack_q)):
            min_slack = min(min_slack, slack)
            if slack < -tol:
                return False, (m, n, side), pairs, slack
    return True, None, len(slacks), min_slack


def decided_by_rounding(slacks, tol):
    return any(abs(s + tol) <= MARGIN for _, _, sp, sq in slacks for s in (sp, sq))


def brute_needs(logs, alpha, window):
    """The minimal profile and the optimal uniform N, from every pair."""
    base = window.n_min
    raw = [0.0] * (window.m_max - base + 1)
    for n, m in window_pairs(window):
        gap = alpha * (m - n)
        g, h = logs(n, m)
        if g != -math.inf:
            raw[n - base] = max(raw[n - base], gap + g)
        if h != math.inf:
            raw[m - base] = max(raw[m - base], gap - h)
    running, profile = -math.inf, []
    for v in raw:
        running = max(running, v)
        profile.append(running)
    return profile, max(raw)


def brute_min_log_n(logs, window, alpha, beta, half):
    m_hi = window.half().m_max if half else window.m_max
    best = 0.0
    for n, m in window_pairs(window):
        if m > m_hi:
            continue
        g, h = logs(n, m)
        best = max(best, alpha * (m - n) + g - beta * n, alpha * (m - n) - h - beta * m)
    return best


# -- random compatible dense systems --------------------------------------------------


def commuting_system(seed, dim, rank, steps):
    """Blocks of rank and dim - rank conjugated by a random frame, with the
    matching oblique projection; rank 0 and rank dim leave P or Q empty."""
    rng = np.random.default_rng(seed)
    while True:
        frame = rng.uniform(-1.0, 1.0, size=(dim, dim))
        if abs(np.linalg.det(frame)) > 0.3:
            break
    inv = np.linalg.inv(frame)
    proj = ProjectionFamily(dim, matrix=frame @ np.diag([1.0] * rank + [0.0] * (dim - rank)) @ inv)
    mats = [np.eye(dim)]
    for _ in range(steps):
        block = np.zeros((dim, dim))
        block[:rank, :rank] = rng.uniform(-1.2, 1.2, size=(rank, rank))
        block[rank:, rank:] = rng.uniform(-1.2, 1.2, size=(dim - rank, dim - rank))
        block[np.diag_indices(dim)] += np.sign(block.diagonal()) * 0.7 + 0.1
        mats.append(frame @ block @ inv)
    return SystemDescription(dim, ExplicitSequence(mats)), proj


@st.composite
def dense_cases(draw):
    dim = draw(st.integers(2, 5))
    rank = draw(st.sampled_from(range(dim + 1)))
    width = draw(st.sampled_from(range(9)))
    n_min = draw(st.integers(0, 8 - width))
    steps = n_min + width + draw(st.integers(0, 1))
    window = WindowSpec(n_min, n_min + width)
    sys_, proj = commuting_system(draw(st.integers(0, 2**32 - 1)), dim, rank, steps)
    return sys_, proj, window


@st.composite
def certificates(draw, window):
    # constants above 1 keep the pairs m = n (slack log N) away from -tol
    alpha = draw(st.floats(0.05, 1.5))
    kind = draw(st.sampled_from([Kind.UED, Kind.ED, Kind.SED, Kind.NED]))
    if kind is Kind.NED:
        logs = sorted(draw(st.lists(st.floats(0.01, 6.0), min_size=window.m_max + 1,
                                    max_size=window.m_max + 1)))
        profile = TabulatedProfile(0, tuple(LogScalar.from_log(v) for v in logs))
        return DichotomyCertificate(Kind.NED, alpha=alpha, profile=profile)
    n_const = draw(st.floats(1.01, 50.0))
    if kind is Kind.UED:
        return DichotomyCertificate(Kind.UED, alpha=alpha, n_const=n_const)
    beta = draw(st.floats(0.0, 1.0))
    if kind is Kind.SED and not beta < alpha:
        beta = 0.0
    return DichotomyCertificate(kind, alpha=alpha, n_const=n_const, beta=beta)


PROPERTY = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def close(got, want, tol=1e-9):
    return got == want or math.isclose(got, want, rel_tol=tol, abs_tol=tol)


# -- properties ----------------------------------------------------------------------


@PROPERTY
@given(dense_cases(), st.data())
def test_verify_matches_pair_formula(case, data):
    sys_, proj, window = case
    cert = data.draw(certificates(window))
    slacks = brute_slacks(lambda n, m: brute_logs(sys_, proj, n, m), cert, window)
    assume(not decided_by_rounding(slacks, TOL))
    holds, witness, pairs, min_slack = brute_verify(slacks, TOL)
    out = verify_certificate(sys_, proj, cert, window, tol=TOL)
    assert (out.holds, out.pairs_checked) == (holds, pairs)
    if witness is None:
        assert out.witness is None
    else:
        assert (out.witness.m, out.witness.n, out.witness.side) == witness
    assert close(out.min_slack, min_slack)


@PROPERTY
@given(dense_cases(), st.floats(0.05, 1.5))
def test_optimal_constant_and_minimal_profile_match_pair_formula(case, alpha):
    sys_, proj, window = case
    profile, best = brute_needs(lambda n, m: brute_logs(sys_, proj, n, m), alpha, window)
    assert close(optimal_N_for_alpha(sys_, proj, alpha, window).logmag, best)
    got = minimal_ned_profile(sys_, proj, alpha, window)
    assert len(got.values) == len(profile)
    for v, want in zip(got.values, profile):
        assert close(v.logmag, want)


@PROPERTY
@given(dense_cases(), st.booleans())
def test_estimate_grid_rows_match_pair_formula(case, strong):
    sys_, proj, window = case
    logs = {(n, m): brute_logs(sys_, proj, n, m) for n, m in window_pairs(window)}
    alphas = [0.1, 0.5, 1.0]
    uniform = estimate_ued(sys_, proj, window, alphas)
    expo = estimate_ed(sys_, proj, window, alphas, [0.0, 0.25, 0.5], strong=strong)
    for est, beta_of in ((uniform, lambda row: 0.0), (expo, lambda row: row.beta)):
        for row in est.table:
            for half, got in ((False, row.log_n_full), (True, row.log_n_half)):
                want = brute_min_log_n(lambda n, m: logs[n, m], window, row.alpha,
                                       beta_of(row), half)
                assert close(got, want)


@PROPERTY
@given(dense_cases(), st.data())
def test_triplet_form_matches_pair_form(case, data):
    # with invertible blocks A(n, p) maps range P(p) onto range P(n), so
    # every seed p <= n gives the ratio of the pair (m, n); the first
    # violating triplet is then (n_min, n, m) for the pair form's witness
    sys_, proj, window = case
    cert = data.draw(certificates(window))
    slacks = brute_slacks(lambda n, m: brute_logs(sys_, proj, n, m), cert, window)
    assume(not decided_by_rounding(slacks, TOL))
    pair = verify_certificate(sys_, proj, cert, window, tol=TOL)
    trip = verify_triplet_form(
        sys_, proj, cert, WindowSpec(window.n_min, window.m_max, triplet=True), tol=TOL
    )
    assert trip.holds == pair.holds
    if pair.holds:
        assert close(trip.min_slack, pair.min_slack)
    else:
        assert (trip.witness.m, trip.witness.n) == (pair.witness.m, pair.witness.n)
        sides = {s for n, m, sp, sq in slacks for s, v in (("P", sp), ("Q", sq))
                 if (m, n) == (pair.witness.m, pair.witness.n) and v < -TOL}
        assert trip.witness.side in sides


@PROPERTY
@given(
    st.integers(1, 3),
    st.integers(0, 3),
    st.integers(0, 10),
    st.data(),
)
def test_diagonal_and_dense_forms_agree(dim, n_min, width, data):
    m_max = n_min + width
    mask = tuple(data.draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
    table = [
        [LogScalar.one()] + [
            LogScalar(data.draw(st.sampled_from([1, -1])), data.draw(st.floats(-2.0, 2.0)))
            if data.draw(st.floats(0.0, 1.0)) > 0.1 else LogScalar.zero()
            for _ in range(m_max)
        ]
        for _ in range(dim)
    ]
    diagonal = SystemDescription(
        dim, DiagonalClosedForm([(lambda c: (lambda n: c[n]))(c) for c in table])
    )
    dense = SystemDescription(dim, ExplicitSequence(
        [np.diag([table[i][k].to_float() for i in range(dim)]) for k in range(m_max + 1)]
    ))
    proj = ProjectionFamily(dim, mask=mask)
    window = WindowSpec(n_min, m_max)
    cert = data.draw(certificates(window))
    slacks = brute_slacks(lambda n, m: brute_logs(dense, proj, n, m), cert, window)
    assume(not decided_by_rounding(slacks, TOL))
    a = verify_certificate(diagonal, proj, cert, window, tol=TOL)
    b = verify_certificate(dense, proj, cert, window, tol=TOL)
    assert (a.holds, a.pairs_checked) == (b.holds, b.pairs_checked)
    if a.witness is None:
        assert b.witness is None
    else:
        assert (a.witness.m, a.witness.n, a.witness.side) == (
            b.witness.m, b.witness.n, b.witness.side)


def test_single_pair_extremes_and_ratios_match_pair_formula():
    sys_, proj = commuting_system(5, 4, 2, 8)
    for m, n in [(0, 0), (3, 1), (8, 0)]:
        ext = restricted_extremes(sys_, proj, m, n)
        g, h = brute_logs(sys_, proj, n, m)
        assert close(ext.growth_p.logmag, g) and close(ext.min_gain_q.logmag, h)
        evo = evolution(sys_, m, n).to_dense()
        # the directions attain the extremes
        assert close(math.log(np.linalg.norm(evo @ np.array(ext.direction_p))), g)
        assert close(math.log(np.linalg.norm(evo @ np.array(ext.direction_q))), h)
    rat = restricted_ratio_extremes(sys_, proj, 7, 4, 4)
    g, h = brute_logs(sys_, proj, 4, 7)
    assert close(rat.ratio_p.logmag, g) and close(rat.ratio_q.logmag, -h)


# -- regressions ----------------------------------------------------------------------


def _orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def block_fixture(seed, dim, span, c_range, big_c_range):
    """A P block contracting by c and a Q block expanding by C, each c or C
    times an orthogonal matrix, in an orthogonal frame."""
    rng = np.random.default_rng(seed)
    half = dim // 2
    frame = _orthogonal(rng, dim)
    mats = []
    for _ in range(span + 1):
        c, big_c = rng.uniform(*c_range), rng.uniform(*big_c_range)
        block = np.zeros((dim, dim))
        block[:half, :half] = c * _orthogonal(rng, half)
        block[half:, half:] = big_c * _orthogonal(rng, dim - half)
        mats.append(frame @ block @ frame.T)
    proj = ProjectionFamily(dim, matrix=frame @ np.diag([1.0] * half + [0.0] * (dim - half))
                            @ frame.T)
    return SystemDescription(dim, ExplicitSequence(mats)), proj


def test_rounding_probe_holds():
    # P contracts by c in [0.4, 0.6] per step next to a Q side expanding by C
    # in [1.6, 2.4]; UED with N = 1, alpha = 0.4 holds with min_slack 0. The
    # full product restricted to range P(n) afterwards carries eps * prod C
    # of leakage, which reported a violation at (34, 0) with slack -0.89.
    w = 40
    sys_, proj = block_fixture(11, 4, w, (0.4, 0.6), (1.6, 2.4))
    cert = DichotomyCertificate(Kind.UED, alpha=0.4, n_const=1.0)
    out = verify_certificate(sys_, proj, cert, WindowSpec(0, w))
    assert out.holds
    assert out.min_slack >= -1e-9


def test_overflow_after_the_witness_keeps_the_witness():
    # the row from n = 0 overflows at step 2, after the violation at (1, 0)
    big = 1e300 * np.eye(2)
    sys_ = SystemDescription(2, ExplicitSequence([np.eye(2), big, big, big]))
    proj = ProjectionFamily(2, matrix=[[1.0, 0.0], [0.0, 0.0]])
    cert = DichotomyCertificate(Kind.UED, alpha=0.1, n_const=1.0)
    out = verify_certificate(sys_, proj, cert, WindowSpec(0, 3))
    assert not out.holds
    assert (out.witness.m, out.witness.n, out.witness.side) == (1, 0, "P")
    assert out.pairs_checked == 2
    # a pair at or beyond the overflow still raises
    with pytest.raises(DenseOverflowError):
        restricted_extremes(sys_, proj, 2, 0)


def test_trajectories_that_overflow_raise():
    # every trajectory from 0 leaves the doubles at its second step
    sys_ = SystemDescription(2, ExplicitSequence([1e200 * np.eye(2)] * 7))
    proj = ProjectionFamily(2, matrix=[[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DenseOverflowError, match=r"over \(0, 2\]"):
        verify_datko_ued(sys_, proj, 0.1, 2.0, WindowSpec(0, 1), 5)
    schedule = WitnessSchedule("from_zero", lambda k: (k, 0), 0)
    with pytest.raises(DenseOverflowError, match=r"over \(0, 2\]"):
        falsify(sys_, proj, Kind.UED, schedule, range(4))


@pytest.mark.parametrize("seed", range(40))
def test_trivial_pairs_hold_exactly_at_zero_tolerance(seed):
    # every pair (n, n) and triplet (p, n, n) has slack log N - 0 = 0 exactly;
    # the singular values of an orthonormal basis, 1 + 2.2e-16 say, used to
    # report a violation at (0, 0) with tol = 0
    sys_, proj = block_fixture(seed, 4, 20, (0.80, 0.85), (1.15, 1.20))
    cert = DichotomyCertificate(Kind.UED, alpha=0.01, n_const=1.0)
    pair = verify_certificate(sys_, proj, cert, WindowSpec(0, 20), tol=0.0)
    assert (pair.holds, pair.pairs_checked, pair.min_slack) == (True, 21 * 22 // 2, 0.0)
    trip = verify_triplet_form(sys_, proj, cert, WindowSpec(0, 20, triplet=True), tol=0.0)
    assert (trip.holds, trip.pairs_checked, trip.min_slack) == (True, 21 * 22 * 23 // 6, 0.0)
