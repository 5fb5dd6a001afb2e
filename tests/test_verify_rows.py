"""The pair form's row arrays and the dense kernel's blocks, against the
references they replaced.

``verify_certificate`` checks the pairs of a row as one array over the
row's logs; ``oracles.pair_loop`` checks them one pair at a time, in the
same rows. The dense kernel sweeps blocks of rows with one stacked product
per step and takes their extremes in one batched call; a row swept alone,
one product per step, must give the same bits. ``check_pairs_compatibility``
screens stacked gaps by their Frobenius norm; the per-index loop of
``compatibility_defect`` must raise at the same index with the same text.
"""

import math
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_dense_kernel import certificates as dense_certificates
from test_dense_kernel import dense_cases
from test_diagonal_scan import PROPERTY, certificates, diagonal_cases, same

from dichotomy import (
    ConstantProfile,
    DenseOverflowError,
    DichotomyCertificate,
    ExplicitSequence,
    IncompatibleProjectionError,
    Kind,
    LogScalar,
    OutOfRangeError,
    Profile,
    ProjectionFamily,
    ScaledProfile,
    ShiftedPowerProfile,
    SystemDescription,
    TabulatedProfile,
    TowerExponentProfile,
    WindowSpec,
    make_example,
    verify_certificate,
    verify_triplet_form,
)
from dichotomy import system
from dichotomy.errors import InvalidCertificateError
from dichotomy.system import (
    DEFAULT_TOL_COMPAT,
    _log_values,
    _merged,
    _sweeps,
    check_pairs_compatibility,
    compatibility_defect,
)
from oracles import pair_loop, validate_loop

BUDGETS = [1, 2**12, system._BLOCK_BYTES]  # one row per block, a few, the default


def run(check, *args, **kw):
    """The outcome of a check, or the type and text of what it raised."""
    try:
        return check(*args, **kw)
    except DenseOverflowError as exc:
        return type(exc), str(exc)


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.holds, got.pairs_checked) == (want.holds, want.pairs_checked)
    assert type(got.min_slack) is float and bits(got.min_slack) == bits(want.min_slack)
    if want.witness is None:
        assert got.witness is None
        return
    g, w = got.witness, want.witness
    assert (g.m, g.n, g.side, g.direction) == (w.m, w.n, w.side, w.direction)
    assert same(g.required_constant, w.required_constant)


def switching_system(seed, dim, steps):
    """A diagonal system written densely in a random frame, whose P factors
    contract and Q factors expand. A P factor may be 0, and its coordinate
    may leave P there, so the range widths change inside the window while
    the family stays compatible with the dynamics."""
    rng = np.random.default_rng(seed)
    while True:
        frame = rng.uniform(-1.0, 1.0, size=(dim, dim))
        if abs(np.linalg.det(frame)) > 0.3:
            break
    inv = np.linalg.inv(frame)
    masks = [rng.random(dim) < 0.7]
    mats = [np.eye(dim)]
    for _ in range(steps):
        in_p = masks[-1]
        d = np.where(in_p, rng.uniform(0.3, 0.9, dim), rng.uniform(1.1, 2.0, dim))
        d *= rng.choice([-1.0, 1.0], dim)
        zero = in_p & (rng.random(dim) < 0.25)
        d[zero] = 0.0
        mats.append(frame @ np.diag(d) @ inv)
        masks.append(in_p & ~(zero & (rng.random(dim) < 0.5)))
    projections = [frame @ np.diag(m.astype(float)) @ inv for m in masks]
    proj = ProjectionFamily(dim, matrix=lambda n: projections[n])
    return SystemDescription(dim, ExplicitSequence(mats)), proj


def overflowing_system(seed, dim, rank, steps, start):
    """Block-diagonal coefficients, P the first ``rank`` coordinates, that
    from ``start`` on shrink P by 1e-150 and grow Q by 1e150 per step: the Q
    images of the rows before them overflow doubles mid-window. The blocks
    keep the family exactly compatible at any scale."""
    rng = np.random.default_rng(seed)
    mats = [np.eye(dim)]
    for k in range(1, steps + 1):
        block = np.zeros((dim, dim))
        block[:rank, :rank] = rng.uniform(-1.0, 1.0, size=(rank, rank)) + 0.8 * np.eye(rank)
        block[rank:, rank:] = rng.uniform(-1.0, 1.0, size=(dim - rank, dim - rank)) + 1.5 * np.eye(
            dim - rank)
        if k >= start:
            block[:rank] *= 1e-150
            block[rank:] *= 1e150
        mats.append(block)
    proj = ProjectionFamily(dim, matrix=np.diag([1.0] * rank + [0.0] * (dim - rank)))
    return SystemDescription(dim, ExplicitSequence(mats)), proj


@st.composite
def dense_systems(draw):
    """(system, projection, window): commuting blocks, switching widths, or
    an overflow mid-window."""
    shape = draw(st.sampled_from(["commuting", "switching", "overflow"]))
    if shape == "commuting":
        return draw(dense_cases())
    seed, dim = draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 4))
    n_min = draw(st.integers(0, 3))
    m_max = n_min + draw(st.integers(0, 14))
    if shape == "switching":
        sys_, proj = switching_system(seed, dim, m_max)
    else:
        rank = draw(st.integers(1, dim - 1))
        sys_, proj = overflowing_system(seed, dim, rank, m_max, draw(st.integers(1, m_max + 1)))
    return sys_, proj, WindowSpec(n_min, m_max)


@PROPERTY
@given(dense_systems(), st.data())
def test_dense_verify_matches_the_pair_loop(case, data):
    sys_, proj, window = case
    cert = data.draw(dense_certificates(window))
    tol = data.draw(st.sampled_from([1e-9, 0.0]))
    with patch.object(system, "_BLOCK_BYTES", data.draw(st.sampled_from(BUDGETS))):
        got = run(verify_certificate, sys_, proj, cert, window, tol=tol)
    assert_same_outcome(got, run(pair_loop, sys_, proj, cert, window, tol=tol))


@PROPERTY
@given(diagonal_cases(), st.data())
def test_diagonal_verify_matches_the_pair_loop(case, data):
    # zero factors, masks that change across them, empty ranges, float, int,
    # Fraction and bigint logs
    kind, sys_, proj, window, alpha = case
    cert = data.draw(certificates(kind, alpha, window))
    tol = data.draw(st.sampled_from([1e-9, 0.0]))
    got = verify_certificate(sys_, proj, cert, window, tol=tol)
    assert_same_outcome(got, pair_loop(sys_, proj, cert, window, tol=tol))


@pytest.mark.parametrize("alpha", [0.5, 3.0])
@pytest.mark.parametrize("tol", [1e-9, 0.0])
@pytest.mark.parametrize("w", [4, 12, 30])
def test_tower_verify_matches_the_pair_loop(alpha, tol, w):
    # the tower's exact int logs: a holding claim and, at alpha 3, a violation
    entry = make_example("ned_not_ed_example")
    cert = DichotomyCertificate(Kind.NED, alpha=alpha, profile=TowerExponentProfile())
    args = (entry.system, entry.projection, cert, WindowSpec(0, w))
    assert_same_outcome(verify_certificate(*args, tol=tol), pair_loop(*args, tol=tol))


# -- blocks of dense rows --------------------------------------------------------------


def one_row(kernel, n):
    """(xs, ys, growth logs, gain logs) of row n swept alone: one product per
    step and side, cut before the first index at which either image is not
    finite, and one singular-value call per side, but for the pair (n, n)."""
    out = []
    for part, start in zip("PQ", kernel.bases(n)):
        images = [start]
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n + 1, kernel.hi + 1):
                images.append(kernel.steps[part][k - kernel.lo] @ images[-1])
        out.append(np.array(images))
    finite = [np.isfinite(x).all(axis=(1, 2)) for x in out]
    size = min(len(f) if f.all() else int(np.argmin(f)) for f in finite)
    xs, ys = (x[:size] for x in out)
    growth = _log_values(np.linalg.svd(xs, compute_uv=False)[:, 0]) if xs.shape[2] \
        else [-math.inf] * size
    gain = _log_values(np.linalg.svd(ys, compute_uv=False)[:, -1]) if ys.shape[2] \
        else [math.inf] * size
    # the pair (n, n) of a nontrivial range is exact
    growth[0] = 0.0 if xs.shape[2] else growth[0]
    gain[0] = 0.0 if ys.shape[2] else gain[0]
    return xs, ys, growth, gain


@PROPERTY
@given(dense_systems(), st.sampled_from(BUDGETS), st.data())
def test_blocked_rows_match_rows_swept_alone(case, budget, data):
    sys_, proj, window = case
    lo, hi = window.n_min, window.m_max
    with patch.object(system, "_BLOCK_BYTES", budget):
        kernel = _sweeps(sys_, proj, lo, hi)
        # in order, as the scans ask, and from a random row on
        starts = [lo, data.draw(st.integers(lo, hi))]
        rows = [kernel.row(n) for s in starts for n in range(s, hi + 1)]
    for row in rows:
        xs, ys, growth, gain = one_row(kernel, row.n)
        assert row.end == row.n + len(xs) - 1
        assert row.xs.shape == xs.shape and row.xs.tobytes() == xs.tobytes()
        assert row.ys.shape == ys.shape and row.ys.tobytes() == ys.tobytes()
        assert row.row_logs[0].tobytes() == np.array(growth, dtype=float).tobytes()
        assert row.row_logs[1].tobytes() == np.array(gain, dtype=float).tobytes()


# -- the stacked compatibility check ---------------------------------------------------


def per_index_check(sys_, proj, pairs):
    """``check_pairs_compatibility`` of a dense system one index at a time,
    as ``compatibility_defect`` gives each defect; the type and text of what
    it raises, or None."""
    try:
        for lo, hi in _merged((n, m) for m, n in pairs):
            proj.validate(lo, hi)
        for lo, hi in _merged((n, m - 1) for m, n in pairs):
            for k in range(lo, hi + 1):
                d = compatibility_defect(sys_, proj, k)
                if d > DEFAULT_TOL_COMPAT:
                    raise IncompatibleProjectionError(
                        f"compatibility defect {d:.3e} at n={k} exceeds tolerance "
                        f"{DEFAULT_TOL_COMPAT:.1e}"
                    )
    except (IncompatibleProjectionError, OutOfRangeError) as exc:
        return type(exc), str(exc)
    return None


def stacked_check(sys_, proj, pairs):
    try:
        check_pairs_compatibility(sys_, proj, *zip(*pairs))
    except (IncompatibleProjectionError, OutOfRangeError) as exc:
        return type(exc), str(exc)
    return None


def leaky_system(leaks):
    """4x4 coefficients A(k) whose block from range P to range Q of the mask
    (1, 1, 0, 0) is leaks[k] times the identity: the gap at k - 1 has 2-norm
    leaks[k] and Frobenius norm sqrt(2) leaks[k]."""
    mats = []
    for leak in leaks:
        a = np.diag([0.5, 0.6, 1.5, 1.7])
        a[2:, :2] = leak * np.eye(2)
        mats.append(a)
    return SystemDescription(4, ExplicitSequence(mats)), ProjectionFamily(4, mask=(1, 1, 0, 0))


def test_a_gap_within_tolerance_passes_the_screen():
    # Frobenius norm 0.57e-9 is above half the tolerance, the 2-norm 0.4e-9 within it
    sys_, proj = leaky_system([0.0, 0.4e-9, 0.0, 0.4e-9])
    assert math.sqrt(2) * 0.4e-9 > DEFAULT_TOL_COMPAT / 2
    assert stacked_check(sys_, proj, [(3, 0)]) is None
    assert per_index_check(sys_, proj, [(3, 0)]) is None


@pytest.mark.parametrize("leaks, pairs", [
    ([0.0, 0.0, 2e-9, 0.0, 5e-9], [(4, 0)]),  # the first failing index is 1
    ([0.0, 0.7e-9, 0.0, 1.1e-9, 3.0], [(4, 0)]),  # 1.1e-9 fails before 3.0
    ([0.0, 0.0, 0.0, 0.0, 3.0], [(2, 0), (4, 3)]),  # the range between is not read
    ([0.0, 0.0, 1e-3, 0.0], [(1, 0), (3, 2), (5, 4)]),  # 3 passes, then 4 is out of range
    ([0.0, 0.0, 0.0], [(6, 1)]),  # the first index out of range raises
])
def test_stacked_check_fails_where_the_per_index_check_fails(leaks, pairs):
    sys_, proj = leaky_system(leaks)
    assert stacked_check(sys_, proj, pairs) == per_index_check(sys_, proj, pairs)


@PROPERTY
@given(dense_systems(), st.floats(1e-12, 1e-7), st.data())
def test_stacked_check_matches_the_per_index_check(case, size, data):
    sys_, proj, window = case
    mats = list(sys_.coefficients.matrices)
    for k in data.draw(st.lists(st.integers(0, len(mats) - 1), max_size=3)):
        mats[k] = mats[k] + size * np.outer(np.arange(sys_.dim), np.ones(sys_.dim))
    sys_ = SystemDescription(sys_.dim, ExplicitSequence(mats))
    last = len(mats) - 1
    pairs = [(window.m_max, window.n_min), *data.draw(st.lists(
        st.tuples(st.integers(0, last), st.integers(0, 4)).map(
            lambda p: (min(p[0] + p[1], last), p[0])), max_size=3))]
    assert stacked_check(sys_, proj, pairs) == per_index_check(sys_, proj, pairs)


# -- the weights of a window -----------------------------------------------------------


PROFILES = [
    ConstantProfile(2.0),
    ConstantProfile(0.0),
    ShiftedPowerProfile(2.0, 1.5),
    ShiftedPowerProfile(0.5, -2.0),
    TowerExponentProfile(),
    ScaledProfile(TowerExponentProfile(), 0.25),
    ScaledProfile(ShiftedPowerProfile(1.0, 1.0), -3.0),
    TabulatedProfile(2, tuple(LogScalar.from_log(v) for v in
                              [0, 1.5, Fraction(7, 3), 2**70, 2**70 + 0.5] * 4)),
]


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.describe()["form"])
@pytest.mark.parametrize("lo, hi", [(2, 2), (2, 21), (5, 13)])
def test_profile_logs_are_the_per_index_logs(profile, lo, hi):
    got = profile.logs(lo, hi)
    want = [profile.log_at(n) for n in range(lo, hi + 1)]
    assert len(got) == len(want) and all(map(same, got, want))


@pytest.mark.parametrize("cert", [
    DichotomyCertificate(Kind.UED, alpha=0.5, n_const=3.0),
    DichotomyCertificate(Kind.ED, alpha=0.5, n_const=3.0, beta=0.3),
    DichotomyCertificate(Kind.SED, alpha=0.5, n_const=1.0, beta=0.1),
    DichotomyCertificate(Kind.ED, alpha=0.5, n_const=2.0, beta=1),
    *(DichotomyCertificate(Kind.NED, alpha=0.5, profile=p) for p in PROFILES),
])
def test_certificate_weights_are_the_per_index_weights(cert):
    # a profile's weights are its list; the others an array of the same values
    got = np.asarray(cert.r_logs(2, 21), dtype=object).tolist()
    want = [cert.r_log(k) for k in range(2, 22)]
    assert len(got) == len(want) and all(map(same, got, want))


@pytest.mark.parametrize("profile, lo, hi", [
    (ShiftedPowerProfile(-3.0, 1.0), 2, 9),  # the base is negative at n = 2
    (ShiftedPowerProfile(-3.0, 1.0), 4, 9),  # every base is positive: no error
    (ShiftedPowerProfile(0.0, math.inf), 1, 4),  # inf * log 1 is NaN at n = 1
    (ShiftedPowerProfile(0.0, 1e308), 1, 4),  # +inf from n = 3
    (TabulatedProfile(3, (LogScalar.one(),) * 4), 2, 5),  # n = 2 is not in the table
    (TabulatedProfile(3, (LogScalar.one(),) * 4), 4, 9),  # the first missing n is 7
])
def test_profile_logs_raise_as_the_per_index_logs(profile, lo, hi):
    def outcome(logs):
        try:
            return logs()
        except (InvalidCertificateError, OutOfRangeError) as exc:
            return type(exc), str(exc)

    want = outcome(lambda: [profile.log_at(n) for n in range(lo, hi + 1)])
    assert outcome(lambda: profile.logs(lo, hi)) == want


class Listed(Profile):
    """Logs given as a list from n = 0 (any values, NaN too); out of range
    past its end."""

    def __init__(self, logs):
        self.values = list(logs)

    def log_at(self, n):
        if not 0 <= n < len(self.values):
            raise OutOfRangeError(f"no log at {n}")
        return self.values[n]


def raised(check):
    try:
        check()
    except (InvalidCertificateError, OutOfRangeError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("profile, lo, hi", [
    *((p, 2, 21) for p in PROFILES),  # ShiftedPowerProfile(0.5, -2.0) decreases at n = 3
    (ShiftedPowerProfile(-3.0, 1.0), 2, 9),  # the base is negative at n = 2
    (ShiftedPowerProfile(0.0, math.inf), 1, 4),  # inf * log 1 is NaN at n = 1
    (ShiftedPowerProfile(0.0, 1e308), 1, 4),  # +inf from n = 3
    (ShiftedPowerProfile(0.0, 1e308), 1, 1),  # a window of one index
    (Listed([0, 1, 0.5, 1]), 0, 9),  # a decrease at 2 before the range ends at 4
    (Listed([0, 1, 2]), 0, 5),  # out of range at 3
    (Listed([0, math.inf, -1.0]), 0, 2),  # +inf at 1 before the decrease at 2
    (Listed([1, 0, math.nan]), 0, 2),  # a decrease at 1 before NaN at 2
    (Listed([0, math.nan, -1.0]), 0, 2),  # NaN at 1: no decrease is seen across it
    (Listed([-math.inf, -math.inf, 0, 2**70, 2**70 + 0.5]), 0, 4),  # zero values pass
    (Listed([2**70 + 1, 2**70]), 0, 1),  # ints that round to one double
])
def test_validate_fails_where_the_per_index_loop_fails(profile, lo, hi):
    cert = DichotomyCertificate(Kind.NED, alpha=0.5, profile=profile)
    window = WindowSpec(lo, hi)
    assert raised(lambda: cert.validate(window)) == raised(lambda: validate_loop(cert, window))


class Counting(Profile):
    """A profile that records which of its reads are called."""

    def __init__(self, base):
        self.base, self.calls = base, []

    def log_at(self, n):
        self.calls.append("log_at")
        return self.base.log_at(n)

    def logs(self, lo, hi):
        self.calls.append("logs")
        return self.base.logs(lo, hi)


@pytest.mark.parametrize("verify", [verify_certificate, verify_triplet_form])
def test_verify_reads_the_profile_logs_once(verify):
    # the window's logs are read once: validated, and then the weights
    entry = make_example("ned_example")
    claim = entry.claims[0].cert
    profile = Counting(claim.profile)
    cert = DichotomyCertificate(Kind.NED, alpha=claim.alpha, profile=profile)
    assert verify(entry.system, entry.projection, cert, WindowSpec(2, 30)).holds
    assert profile.calls == ["logs"]


@pytest.mark.parametrize("profile, lo, hi", [
    (ShiftedPowerProfile(0.5, -2.0), 2, 21),  # decreases at n = 3
    (ShiftedPowerProfile(-3.0, 1.0), 2, 9),  # the base is negative at n = 2
    (ShiftedPowerProfile(0.0, 1e308), 1, 9),  # +inf from n = 6
    (Listed([0, 1, 0.5, 1]), 0, 9),  # a decrease at 2 before the range ends at 4
    (Listed([0, math.inf, -1.0]), 0, 2),  # +inf at 1 before the decrease at 2
    (Listed([0, math.nan, -1.0]), 0, 2),  # NaN at 1: no decrease is seen across it
])
def test_verify_fails_where_the_per_index_loop_fails(profile, lo, hi):
    entry = make_example("ued_example")
    cert = DichotomyCertificate(Kind.NED, alpha=0.5, profile=profile)
    window = WindowSpec(lo, hi)
    want = raised(lambda: validate_loop(cert, window))
    assert want is not None
    assert raised(lambda: verify_certificate(entry.system, entry.projection, cert, window)) == want


@PROPERTY
@given(st.lists(st.one_of(st.floats(), st.integers(-5, 5), st.integers(2**60, 2**61),
                          st.fractions(max_denominator=5)), max_size=8),
       st.integers(0, 9), st.integers(0, 9))
def test_validate_fails_where_the_per_index_loop_fails_for_any_logs(logs, lo, width):
    cert = DichotomyCertificate(Kind.NED, alpha=0.5, profile=Listed(logs))
    window = WindowSpec(lo, lo + width)
    assert raised(lambda: cert.validate(window)) == raised(lambda: validate_loop(cert, window))
