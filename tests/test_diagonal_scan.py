"""The linear-time diagonal scans against the brute-force O(W^2) pair scan,
and the diagonal kernel against the per-pair formulas.

The oracle functions below are the pair loops the checkers ran for diagonal
systems before the running-maximum kernel replaced them, and the per-pair
formulas for extremes, ratios, witness directions and trajectories that the
diagonal kernel replaced; they evaluate each pair (n, m) or triplet from
``diag_factor`` directly.

Exact equality is required wherever both sides do exact arithmetic: the
systems with exact logs use dyadic logs and dyadic rates, so every float
operation on the way is exact too. Float-log systems compare float results
to 1e-12.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dichotomy import (
    DichotomyCertificate,
    Kind,
    LogScalar,
    ProjectionFamily,
    SystemDescription,
    TabulatedProfile,
    WindowSpec,
    estimate_ed,
    estimate_ued,
    make_example,
    minimal_ned_profile,
    optimal_N_for_alpha,
    verify_certificate,
    verify_triplet_form,
)
from dichotomy import checkers, system
from dichotomy.checkers import _family_norms, _slack
from dichotomy.logscalar import ladd, lfloat, lsub, mixes_as_float
from dichotomy.system import DiagonalClosedForm, _sweeps
from oracles import running_p_rows, running_q_cols, running_q_rows

# -- brute-force oracle ----------------------------------------------------------


def brute_logs(sys, proj, n, m):
    """(log growth_P, log min_gain_Q) at one pair; -inf / +inf mark trivial ranges."""
    mask = proj.mask(n)
    g = -math.inf
    h = math.inf
    for i in range(sys.dim):
        v = sys.diag_factor(i, m, n)
        cand = v.logmag if v.sign != 0 else -math.inf
        if mask[i]:
            if g == -math.inf or cand > g:
                g = cand
        elif h == math.inf or cand < h:
            h = cand
    return g, h


def brute_verify(sys, proj, cert, window, tol):
    """(holds, (m, n, side, required logmag) or None, pairs, min_slack)."""
    alpha = cert.alpha
    min_slack = math.inf
    pairs = 0
    for n, m in window.pairs():
        pairs += 1
        gap = alpha * (m - n)
        g, h = brute_logs(sys, proj, n, m)
        slack_p = _slack(cert.r_log(n), ladd(gap, g) if g != -math.inf else -math.inf)
        min_slack = min(min_slack, slack_p)
        if slack_p < -tol:
            required = lsub(ladd(gap, g), cert.scale_offset(n))
            return False, (m, n, "P", required), pairs, slack_p
        rhs_q = ladd(cert.r_log(m), h) if h != math.inf else math.inf
        slack_q = _slack(rhs_q, gap)
        min_slack = min(min_slack, slack_q)
        if slack_q < -tol:
            required = lsub(lsub(gap, cert.scale_offset(m)), h)
            return False, (m, n, "Q", required), pairs, slack_q
    return True, None, pairs, min_slack


def brute_needs(sys, proj, alpha, window):
    """Per-index maxima of both reduced ratios (the minimal profile before its
    running maximum) and their overall maximum (the optimal uniform N)."""
    base = window.n_min
    raw = [0] * (window.m_max - base + 1)
    best = 0
    for n, m in window.pairs():
        gap = alpha * (m - n)
        g, h = brute_logs(sys, proj, n, m)
        if g != -math.inf:
            need = ladd(gap, g)
            raw[n - base] = max(raw[n - base], need)
            best = max(best, need)
        if h != math.inf:
            need = lsub(gap, h) if h != -math.inf else math.inf
            raw[m - base] = max(raw[m - base], need)
            best = max(best, need)
    running = -math.inf
    profile = []
    for v in raw:
        running = max(running, v)
        profile.append(running)
    return profile, best


def brute_extremes(sys, proj, m, n):
    """(growth_P, min_gain_Q, P coordinate, Q coordinate) at one pair; the
    first extremal coordinate wins ties."""
    mask = proj.mask(n)
    growth, gain = LogScalar.zero(), LogScalar.positive_infinity()
    dir_p = dir_q = None
    for i in range(sys.dim):
        mag = abs(sys.diag_factor(i, m, n))
        if mask[i]:
            if dir_p is None or mag > growth:
                growth, dir_p = mag, i
        elif dir_q is None or mag < gain:
            gain, dir_q = mag, i
    return growth, gain, dir_p, dir_q


def brute_ratios(sys, proj, m, n, p):
    """(ratio_P, ratio_Q, P witness coordinate, Q witness coordinate) of the
    triplet: the witness is the first coordinate of the largest ratio among
    those with a nonzero denominator."""
    mask = proj.mask(p)
    ratio = {"P": LogScalar.zero(), "Q": LogScalar.zero()}
    best = {"P": (None, None), "Q": (None, None)}
    for i in range(sys.dim):
        side = "P" if mask[i] else "Q"
        num = abs(sys.diag_factor(i, m if side == "P" else n, p))
        den = abs(sys.diag_factor(i, n if side == "P" else m, p))
        if den.is_zero:
            if side == "Q" and not num.is_zero:
                ratio["Q"] = LogScalar.positive_infinity()
            continue
        r = num / den
        ratio[side] = max(ratio[side], r)
        if best[side][0] is None or r > best[side][0]:
            best[side] = (r, i)
    return ratio["P"], ratio["Q"], best["P"][1], best["Q"][1]


def brute_trajectory(sys, vec, seed, upto):
    """log |A(j, seed) x| for j = seed..upto."""
    active = [(i, math.log(abs(vec[i]))) for i in range(sys.dim) if vec[i] != 0.0]
    out = []
    for j in range(seed, upto + 1):
        best = -math.inf
        for i, off in active:
            f = sys.diag_factor(i, j, seed)
            if f.sign == 0:
                continue
            cand = ladd(f.logmag, off) if off != 0.0 else f.logmag
            if best == -math.inf or cand > best:
                best = cand
        out.append(best)
    return out


def brute_vector_parts(sys, proj, m, n, x):
    """(|A_P x|, |Q x|, |P x|, |A_Q x|) at one pair."""
    mask = proj.mask(n)
    ap = qx = px = aq = LogScalar.zero()
    for i in range(sys.dim):
        xi = abs(LogScalar.from_float(x[i]))
        if xi.is_zero:
            continue
        lam = abs(sys.diag_factor(i, m, n)) * xi
        if mask[i]:
            ap, px = max(ap, lam), max(px, xi)
        else:
            qx, aq = max(qx, xi), max(aq, lam)
    return ap, qx, px, aq


def brute_grid_row(sys, proj, window, alpha, beta):
    """Least log N of the weighted inequality on the window and on its half,
    pair by pair in floats."""

    def least(win):
        best = 0.0
        for n, m in win.pairs():
            g, h = (lfloat(v) for v in brute_logs(sys, proj, n, m))
            best = max(best, alpha * (m - n) + g - beta * n, alpha * (m - n) - h - beta * m)
        return best

    return least(window), least(window.half())


# -- random diagonal systems -------------------------------------------------------

DYADIC_RATES = [0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]


@st.composite
def log_values(draw, kind):
    if kind == "float":
        return draw(st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))
    if kind == "int":
        return draw(st.integers(-4, 4))
    if kind == "fraction":
        return Fraction(draw(st.integers(-64, 64)), 16)
    return draw(st.integers(-(2**40), 2**40))  # "bigint": beyond the float-safe range


@st.composite
def diagonal_cases(draw):
    kind = draw(st.sampled_from(["float", "int", "fraction", "bigint"]))
    dim = draw(st.integers(1, 3))
    n_min = draw(st.integers(0, 3))
    m_max = n_min + draw(st.integers(0, 11))
    zero_rate = draw(st.sampled_from([0.0, 0.1, 0.3]))
    masks = [draw(st.lists(st.booleans(), min_size=dim, max_size=dim))]
    # a split system (P contracts, Q expands) makes holding certificates common
    split = draw(st.booleans())
    table = []
    for i in range(dim):
        coord = [LogScalar.one()]
        for _ in range(m_max):
            if draw(st.floats(0.0, 1.0)) < zero_rate:
                coord.append(LogScalar.zero())
                continue
            log = draw(log_values(kind))
            if split:
                log = -abs(log) if masks[0][i] else abs(log)
            coord.append(LogScalar(draw(st.sampled_from([1, -1])), log))
        table.append(coord)
    # masks may change only across a zero factor, which keeps them compatible
    for k in range(1, m_max + 1):
        row = list(masks[-1])
        for i in range(dim):
            if table[i][k].is_zero and draw(st.booleans()):
                row[i] = not row[i]
        masks.append(row)
    entries = [(lambda c: (lambda n: c[n]))(coord) for coord in table]
    sys_ = SystemDescription(dim, DiagonalClosedForm(entries))
    proj = ProjectionFamily(dim, mask=lambda n: masks[n])
    alpha = (
        draw(st.floats(0.05, 3.0)) if kind == "float" else draw(st.sampled_from(DYADIC_RATES))
    )
    return kind, sys_, proj, WindowSpec(n_min, m_max), alpha


@st.composite
def certificates(draw, kind, alpha, window):
    cert_kind = draw(st.sampled_from([Kind.UED, Kind.ED, Kind.SED, Kind.NED]))
    exact = kind != "float"
    if cert_kind is Kind.NED:
        logs = sorted(
            draw(st.lists(log_values("fraction" if exact else "float"),
                          min_size=window.m_max + 1, max_size=window.m_max + 1))
        )
        profile = TabulatedProfile(0, tuple(LogScalar.from_log(v) for v in logs))
        return DichotomyCertificate(Kind.NED, alpha=alpha, profile=profile)
    n_const = draw(st.sampled_from([1.0, 2.0, 4.0, 64.0]) if exact else st.floats(1.0, 50.0))
    if cert_kind is Kind.UED:
        return DichotomyCertificate(Kind.UED, alpha=alpha, n_const=n_const)
    beta = draw(st.sampled_from([0.0, 0.0625, 0.5]) if exact else st.floats(0.0, 1.0))
    if cert_kind is Kind.SED and not beta < alpha:
        beta = 0.0
    return DichotomyCertificate(cert_kind, alpha=alpha, n_const=n_const, beta=beta)


def close(got, want, exact):
    if exact or got == want:
        return got == want
    return math.isclose(float(got), float(want), rel_tol=1e-12, abs_tol=1e-12)


PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- properties -------------------------------------------------------------------------


@PROPERTY
@given(diagonal_cases(), st.data())
def test_verify_matches_pair_scan(case, data):
    kind, sys_, proj, window, alpha = case
    cert = data.draw(certificates(kind, alpha, window))
    tol = data.draw(st.sampled_from([1e-9, 0.0]))
    out = verify_certificate(sys_, proj, cert, window, tol=tol)
    holds, witness, pairs, min_slack = brute_verify(sys_, proj, cert, window, tol)
    assert out.holds == holds
    assert out.pairs_checked == pairs
    if witness is None:
        assert out.witness is None
        assert close(out.min_slack, min_slack, exact=False)
    else:
        m, n, side, required = witness
        got = out.witness
        assert (got.m, got.n, got.side) == (m, n, side)
        assert got.required_constant.logmag == required
        want_dir = checkers._PairExtremes(sys_, proj, window).directions(n, m)[0 if side == "P" else 1]
        assert got.direction == (want_dir or ())
        assert out.min_slack == min_slack


@PROPERTY
@given(
    st.floats(0.01, 3.0),
    st.integers(1, 3),
    st.integers(0, 30),
    st.sampled_from([0.0, 1e-16, 1e-15, 1e-9]),
)
def test_verify_matches_pair_scan_on_tight_certificates(alpha, dim, w, tol):
    # P contracts and Q expands at exactly the certified rate, so the slack
    # of every pair is 0 up to rounding, and rounding alone decides the
    # verdict at tol = 0: the rows must be rescanned pair by pair
    mask = tuple(i % 2 == 0 for i in range(dim))
    entries = [
        (lambda s: (lambda n: LogScalar.from_log(s * alpha)))(-1.0 if p else 1.0) for p in mask
    ]
    sys_ = SystemDescription(dim, DiagonalClosedForm(entries))
    proj = ProjectionFamily(dim, mask=mask)
    cert = DichotomyCertificate(Kind.UED, alpha=alpha, n_const=1.0)
    window = WindowSpec(0, w)
    out = verify_certificate(sys_, proj, cert, window, tol=tol)
    holds, witness, pairs, min_slack = brute_verify(sys_, proj, cert, window, tol)
    assert (out.holds, out.pairs_checked) == (holds, pairs)
    if witness is not None:
        assert (out.witness.m, out.witness.n, out.witness.side) == witness[:3]
        assert out.min_slack == min_slack
    else:
        assert close(out.min_slack, min_slack, exact=False)


@PROPERTY
@given(diagonal_cases())
def test_optimal_constant_and_minimal_profile_match_pair_scan(case):
    kind, sys_, proj, window, alpha = case
    exact = kind != "float"
    profile, best = brute_needs(sys_, proj, alpha, window)
    assert close(optimal_N_for_alpha(sys_, proj, alpha, window).logmag, best, exact)
    got = minimal_ned_profile(sys_, proj, alpha, window)
    assert got.n_min == window.n_min
    assert len(got.values) == len(profile)
    for v, want in zip(got.values, profile):
        assert close(v.logmag, want, exact)


@PROPERTY
@given(diagonal_cases(), st.booleans())
def test_estimate_grid_rows_match_pair_scan(case, strong):
    kind, sys_, proj, window, alpha = case
    alphas = sorted({alpha, 0.5, 1.0})
    betas = [0.0, 0.25, 0.5]
    uniform = estimate_ued(sys_, proj, window, alphas)
    expo = estimate_ed(sys_, proj, window, alphas, betas, strong=strong)
    for est, beta_of in ((uniform, lambda row: 0.0), (expo, lambda row: row.beta)):
        for row in est.table:
            full, half = brute_grid_row(sys_, proj, window, row.alpha, beta_of(row))
            assert close(row.log_n_full, full, exact=False)
            assert close(row.log_n_half, half, exact=False)
            # the flag compares two floats against a 1e-9 band; only float
            # rounding can move a difference sitting on the band's edge
            if kind != "float" or abs(full - half - 1e-9) > 1e-10:
                assert row.stable == (full <= half + 1e-9)


@st.composite
def rates(draw, alpha):
    """The case's rate as a float, an int or a Fraction."""
    form = draw(st.sampled_from(["float", "int", "fraction"]))
    if form == "int":
        return draw(st.integers(1, 3))
    return Fraction(alpha) if form == "fraction" else alpha


def typed(values):
    return [(type(v), v) for v in values]


@PROPERTY
@given(diagonal_cases(), st.data())
def test_array_scan_matches_the_running_maximum_loops(case, data):
    kind, sys_, proj, window, alpha = case
    alpha = data.draw(rates(alpha))
    lo, hi = window.n_min, window.m_max
    weight = st.one_of(log_values("bigint" if kind == "bigint" else "float"),
                       st.just(-math.inf))
    weights = data.draw(st.lists(weight, min_size=hi - lo + 1, max_size=hi - lo + 1))
    scan = checkers._DiagonalScan(sys_, proj, window)
    exact = checkers._DiagonalScan(sys_, proj, window)
    exact.mixes = False  # the object arrays, whatever the logs
    for hi_ in (hi, window.half().m_max):
        want = running_p_rows(sys_, proj, lo, hi_, alpha)
        assert typed(scan.rows(alpha, hi_).tolist()) == typed(want)
        assert typed(exact.rows(alpha, hi_).tolist()) == typed(want)
    want = running_q_cols(sys_, proj, lo, hi, alpha)
    assert typed(scan.cols(alpha).tolist()) == typed(want)
    assert typed(exact.cols(alpha).tolist()) == typed(want)
    want = running_q_rows(sys_, proj, lo, hi, alpha, weights)
    assert typed(scan.q_rows(alpha, weights).tolist()) == typed(want)
    assert typed(exact.q_rows(alpha, weights).tolist()) == typed(want)
    pre, _ = sys_.diag_prefix(hi)
    floats = isinstance(alpha, float) and all(mixes_as_float(v) for c in pre for v in c[lo:hi + 1])
    assert (scan.rows(alpha, hi).dtype == float) == floats
    assert (scan.cols(alpha).dtype == float) == floats
    floats_q = floats and all(map(mixes_as_float, weights))
    assert (scan.q_rows(alpha, weights).dtype == float) == floats_q
    # float64 arrays repeat the exact arithmetic bit for bit, signed zeros included
    for got, ref in ((scan.rows(alpha, hi), exact.rows(alpha, hi)),
                     (scan.cols(alpha), exact.cols(alpha)),
                     (scan.q_rows(alpha, weights), exact.q_rows(alpha, weights))):
        if got.dtype == float:
            assert got.tobytes() == ref.astype(float).tobytes()


def test_gallery_scan_takes_the_float_form():
    # the ned_example claim at W = 150 must not fall back to object arrays
    entry = make_example("ned_example")
    cert = entry.claims[0].cert
    window = WindowSpec(0, 150)
    scan = checkers._DiagonalScan(entry.system, entry.projection, window)
    weights = [cert.r_log(k) for k in range(151)]
    assert scan.rows(cert.alpha, 150).dtype == np.float64
    assert scan.cols(cert.alpha).dtype == np.float64
    assert scan.q_rows(cert.alpha, weights).dtype == np.float64


def test_exact_rate_keeps_exact_profile_logs():
    # integer logs and an integer rate: the scan's arithmetic stays in int,
    # which the float-array form of the demands would turn into float
    sys_ = SystemDescription(2, DiagonalClosedForm([
        lambda n: LogScalar.from_log(-1), lambda n: LogScalar.from_log(3),
    ]))
    proj = ProjectionFamily(2, mask=(True, False))
    prof = minimal_ned_profile(sys_, proj, 2, WindowSpec(0, 4))
    assert [type(v.logmag) for v in prof.values] == [int] * 5
    assert [v.logmag for v in prof.values] == [4] * 5


def test_verify_rescans_only_rows_that_may_violate(monkeypatch):
    calls = []
    logs = checkers._PairExtremes.logs

    def counted(self, n, m):
        calls.append((n, m))
        return logs(self, n, m)

    monkeypatch.setattr(checkers._PairExtremes, "logs", counted)
    entry = make_example("ued_example")
    w = 5000
    cert = DichotomyCertificate(Kind.UED, alpha=0.5, n_const=1.0)
    out = verify_certificate(entry.system, entry.projection, cert, WindowSpec(0, w))
    assert out.holds
    assert out.pairs_checked == (w + 1) * (w + 2) // 2
    assert out.min_slack == 0.0
    assert len(calls) == w + 1  # the pairs m = n only


def test_triplet_form_agrees_with_pair_form_across_a_zero_factor():
    # coordinate 0 (P) is annihilated at step 1 and grows by e afterwards;
    # coordinate 1 (Q) grows by e^2. Seeded at p = 0 the P direction is dead
    # before n = 1, seeded at p = 1 it is not, so the triplet ratio at
    # (n, m) = (1, 2) depends on p.
    p_coord = [LogScalar.one(), LogScalar.zero()] + [LogScalar.from_log(1.0)] * 6
    q_coord = [LogScalar.from_log(2.0)] * 8
    sys_ = SystemDescription(
        2, DiagonalClosedForm([lambda n: p_coord[n], lambda n: q_coord[n]])
    )
    proj = ProjectionFamily(2, mask=(True, False))
    cert = DichotomyCertificate(Kind.UED, alpha=0.5, n_const=1.0)
    pair = verify_certificate(sys_, proj, cert, WindowSpec(0, 6))
    trip = verify_triplet_form(sys_, proj, cert, WindowSpec(0, 6, triplet=True))
    assert not pair.holds
    assert (pair.witness.m, pair.witness.n, pair.witness.side) == (2, 1, "P")
    assert not trip.holds
    assert (trip.witness.m, trip.witness.n, trip.witness.side) == (2, 1, "P")


def same(got, want):
    """Equal values of the same type (a report prints an int and a float
    differently); LogScalars field by field."""
    if isinstance(want, LogScalar):
        return same(got.sign, want.sign) and same(got.logmag, want.logmag)
    return type(got) is type(want) and got == want


def unit(dim, i):
    return None if i is None else tuple(1.0 if j == i else 0.0 for j in range(dim))


@PROPERTY
@given(diagonal_cases(), st.data())
def test_kernel_matches_per_pair_formulas(case, data):
    _, sys_, proj, window, _ = case
    lo, hi, dim = window.n_min, window.m_max, sys_.dim
    kernel = _sweeps(sys_, proj, lo, hi)
    for n in range(lo, hi + 1):
        row = kernel.row(n)
        for m in range(n, hi + 1):
            g, h = brute_logs(sys_, proj, n, m)
            got_g, got_h = row.logs(m)
            assert same(got_g, g) and same(got_h, h)
            growth, gain, dir_p, dir_q = brute_extremes(sys_, proj, m, n)
            ext = row.extremes(m)
            assert same(ext.growth_p, growth) and same(ext.min_gain_q, gain)
            assert (ext.direction_p, ext.direction_q) == (unit(dim, dir_p), unit(dim, dir_q))
    # one kernel per seed p: the ratio memo then never serves a second row
    for p in range(lo, hi + 1):
        row = _sweeps(sys_, proj, p, hi).row(p)
        for n in range(p, hi + 1):
            for m in range(n, hi + 1):
                ratio_p, ratio_q, wit_p, wit_q = brute_ratios(sys_, proj, m, n, p)
                got = row.ratios(m, n)
                assert same(got.ratio_p, ratio_p) and same(got.ratio_q, ratio_q)
                assert row.triplet_direction(m, n, "P") == (unit(dim, wit_p) or ())
                assert row.triplet_direction(m, n, "Q") == (unit(dim, wit_q) or ())
    entries = st.sampled_from([0.0, 1.0, -1.0, 0.5, -3.25])
    vectors = [tuple(1.0 if j == i else 0.0 for j in range(dim)) for i in range(dim)]
    vectors += data.draw(st.lists(st.tuples(*[entries] * dim), min_size=1, max_size=3))
    block = [[v[i] for v in vectors] for i in range(dim)]
    for seed in range(lo, hi + 1):
        got = kernel.lognorms("P", block, seed)
        for vec, traj in zip(vectors, got):
            want = brute_trajectory(sys_, vec, seed, hi)
            assert len(traj) == len(want)
            assert all(same(a, b) for a, b in zip(traj, want))
        for vec in vectors:
            for m in range(seed, hi + 1):
                got = _family_norms(sys_, proj, [(m, seed)], vec)[m, seed]
                assert tuple(LogScalar.from_log(v) for v in got) == brute_vector_parts(
                    sys_, proj, m, seed, vec
                )


def test_single_pairs_read_few_prefix_entries(monkeypatch):
    class Counted(list):
        reads = 0

        def __getitem__(self, k):
            Counted.reads += 1
            return super().__getitem__(k)

    entry = make_example("ned_not_ed_example")
    sys_, proj = entry.system, entry.projection
    pre, zeros = sys_.diag_prefix(402)
    counted = ([Counted(c) for c in pre], [Counted(c) for c in zeros])
    monkeypatch.setattr(sys_, "diag_prefix", lambda upto: counted)
    calls = [
        lambda: system.restricted_extremes(sys_, proj, 400, 2),
        lambda: system.restricted_ratio_extremes(sys_, proj, 400, 200, 2),
        lambda: _family_norms(sys_, proj, [(400, 2)], (1.0, 1.0)),
    ]
    for call in calls:
        Counted.reads = 0
        call()
        assert 0 < Counted.reads <= 12 * sys_.dim
    Counted.reads = 0
    rep = checkers.falsify(sys_, proj, Kind.ED, entry.schedule("tower_expanding"), range(200))
    assert len(rep.witnesses) == 200
    assert Counted.reads <= 12 * sys_.dim * 200
