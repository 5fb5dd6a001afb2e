"""Batched witness families against the per-pair falsify loop.

``falsify`` evaluates a family as one batch: one compatibility pass over the
indices its pairs cover, one kernel over its span and one trajectory per
start index and side. The oracle below is the loop it replaced, which
checked compatibility, built a kernel and split the probe direction for
every pair and combined the four norms as LogScalars. Both do the same
arithmetic on the same log-magnitudes, so witnesses, required constants,
trend and slope must agree bit for bit.
"""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_dense_kernel import commuting_system
from test_diagonal_scan import PROPERTY, diagonal_cases, same

from dichotomy import (
    ConstantProfile,
    DichotomyCertificate,
    DichotomyError,
    DiagonalClosedForm,
    ExplicitSequence,
    IncompatibleProjectionError,
    InvalidCertificateError,
    Kind,
    LogScalar,
    ProjectionFamily,
    ScaledProfile,
    ScheduleOutOfRangeError,
    SystemDescription,
    TabulatedProfile,
    WindowSpec,
    gallery_names,
    make_example,
    verify_certificate,
)
from dichotomy import serialize, system
from dichotomy.certificates import Witness
from dichotomy.checkers import (
    WitnessSchedule,
    _classify_trend,
    _family_norms,
    _family_pairs,
    _required_logs,
    falsify,
)
from dichotomy.cli import _GENERIC_SCHEDULES, _dumps, main
from dichotomy.system import _sweeps, check_compatibility
from oracles import classify_trend_loop, required_logs_loop, sadd, sdiv, smul

# -- per-pair oracle -----------------------------------------------------------


def per_pair_vector_parts(sys, proj, m, n, x):
    """(|A_P x|, |Q x|, |P x|, |A_Q x|) at the pair, as LogScalars."""
    kernel = _sweeps(sys, proj, n, m)
    norms = []
    for part, start in zip("PQ", proj.split(n, x)):
        logs = kernel.trajectories(part, [start], [n], [n, m]).tolist()[0]
        norms.append([LogScalar.from_log(v) for v in logs])
    (px, ap), (qx, aq) = norms
    return ap, qx, px, aq


def per_pair_falsify(sys, proj, concept, schedule, k_values, alpha, beta=None, profile=None):
    """(witnesses, trend, slope) of the per-pair loop; inputs already valid."""
    ks = sorted(set(k_values))
    witnesses, logs = [], []
    for k in ks:
        m, n = schedule.pair_at(k)
        check_compatibility(sys, proj, n, m)
        x = schedule.direction_vector(sys.dim)
        ap, qx, px, aq = per_pair_vector_parts(sys, proj, m, n, x)
        gap = LogScalar.from_log(alpha * (m - n))
        numerator = smul(gap, sadd(ap, qx))
        if concept is Kind.UED:
            w_p, w_q = LogScalar.one(), LogScalar.one()
        elif concept is Kind.NED:
            w_p, w_q = (LogScalar.from_log(profile.log_at(k)) for k in (n, m))
        else:
            w_p, w_q = LogScalar.from_log(beta * n), LogScalar.from_log(beta * m)
        denominator = sadd(smul(w_p, px), smul(w_q, aq))
        if denominator.is_zero:
            required = LogScalar.positive_infinity()
        else:
            required = sdiv(numerator, denominator)
        witnesses.append(Witness(m, n, x, required, side="family"))
        logs.append(required.logmag if required.sign != 0 else -math.inf)
    trend, slope = _classify_trend(ks, logs)
    return witnesses, trend, slope


# -- random families -------------------------------------------------------------


@st.composite
def families(draw, lo, hi):
    """Pairs (m, n) in [lo, hi] that repeat a start index, touch or overlap the
    previous range, lie apart from it, or have m = n."""
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        how = draw(st.sampled_from(["free", "repeat", "touch", "overlap", "point"]))
        if pairs and how != "free":
            m0, n0 = pairs[-1]
            n = {"repeat": n0, "touch": m0, "point": m0}.get(how)
            if n is None:
                n = draw(st.integers(n0, m0))
        else:
            n = draw(st.integers(lo, hi))
        m = n if how == "point" else draw(st.integers(n, hi))
        pairs.append((m, n))
    return pairs


@st.composite
def trials(draw, hi):
    """(concept, alpha, beta, profile) for a family inside [0, hi]."""
    concept = draw(st.sampled_from([Kind.UED, Kind.NED, Kind.ED, Kind.SED]))
    alpha = draw(st.sampled_from([0.125, 0.5, 1.5]) | st.floats(0.01, 3.0))
    beta = draw(st.sampled_from([0.0, 0.25]) | st.floats(0.0, 1.0))
    values = [draw(st.sampled_from([LogScalar.zero(), LogScalar.one()])
                   | st.floats(-3.0, 6.0).map(LogScalar.from_log)) for _ in range(hi + 1)]
    profile = draw(st.sampled_from([TabulatedProfile(0, tuple(values)), ConstantProfile(0.0)]))
    return concept, alpha, beta, profile


def check_family(sys, proj, pairs, direction, trial):
    concept, alpha, beta, profile = trial
    schedule = WitnessSchedule("drawn", lambda k: pairs[k], direction)
    ks = range(len(pairs))
    want, trend, slope = per_pair_falsify(sys, proj, concept, schedule, ks, alpha, beta, profile)
    rep = falsify(sys, proj, concept, schedule, ks, alpha=alpha, beta=beta, profile=profile)
    assert len(rep.witnesses) == len(want)
    for got, w in zip(rep.witnesses, want):
        assert (got.m, got.n, got.direction, got.side) == (w.m, w.n, w.direction, w.side)
        assert same(got.required_constant, w.required_constant)
    assert (rep.trend, rep.log_slope) == (trend, slope)


DIRECTIONS = st.sampled_from([0.0, 1.0, -1.0, 0.5, -3.25])


@PROPERTY
@given(diagonal_cases(), st.data())
def test_diagonal_families_match_per_pair_loop(case, data):
    _, sys_, proj, window, _ = case
    masks = {proj.mask(k) for k in range(window.m_max + 1)}
    if len(masks) == 1 and data.draw(st.booleans()):
        proj = ProjectionFamily(sys_.dim, mask=masks.pop())
    pairs = data.draw(families(window.n_min, window.m_max))
    direction = data.draw(st.integers(0, sys_.dim - 1)
                          | st.tuples(*[DIRECTIONS] * sys_.dim))
    check_family(sys_, proj, pairs, direction, data.draw(trials(window.m_max)))


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.data())
def test_dense_families_match_per_pair_loop(seed, dim, data):
    rank = data.draw(st.integers(0, dim))
    sys_, proj = commuting_system(seed, dim, rank, 8)
    if data.draw(st.booleans()):
        fixed = proj.matrix(0)
        proj = ProjectionFamily(dim, matrix=lambda n: fixed)
    pairs = data.draw(families(0, 8))
    direction = data.draw(st.integers(0, dim - 1)
                          | st.tuples(*[st.floats(-2.0, 2.0)] * dim))
    check_family(sys_, proj, pairs, direction, data.draw(trials(8)))


@st.composite
def norm_tables(draw):
    """A family and the norm tables of ``_family_norms``: on a diagonal
    system with int, Fraction or bigint logs, or on a dense one, whose norms
    are all floats."""
    if draw(st.booleans()):
        _, sys_, proj, window, alpha = draw(diagonal_cases())
        lo, hi = window.n_min, window.m_max
    else:
        dim = draw(st.integers(2, 4))
        sys_, proj = commuting_system(draw(st.integers(0, 2**32 - 1)), dim,
                                      draw(st.integers(0, dim)), 8)
        lo, hi, alpha = 0, 8, draw(st.floats(0.01, 3.0))
    pairs = draw(families(lo, hi))
    x = draw(st.tuples(*[DIRECTIONS] * sys_.dim))
    return alpha, pairs, _family_norms(sys_, proj, pairs, x)


@PROPERTY
@given(norm_tables(), st.data())
def test_required_constants_match_the_member_loop(case, data):
    # the array pass of each form against the scalar formula member by
    # member, on float, int, Fraction and bigint norms, exact and float
    # rates, and weights that do and do not mix with floats as floats
    alpha, pairs, tables = case
    alpha = data.draw(st.sampled_from([alpha, 2, Fraction(3, 4)]))
    weight = st.sampled_from([0, 3, -math.inf, 2**20, Fraction(1, 3), 0.5, -1.25])
    w_p, w_q = (data.draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
                for _ in "PQ")
    got = _required_logs(alpha, pairs, w_p, w_q, *tables).tolist()
    want = required_logs_loop(alpha, pairs, w_p, w_q, *tables)
    assert len(got) == len(want)
    assert all(same(a, b) for a, b in zip(got, want))


def test_int_norms_whose_sums_leave_the_float_safe_range_stay_exact():
    # the float64 norm table holds the int logs 0 and 40000; with the int
    # profile log 30000 the denominator is the int 70000, beyond the range
    # in which ladd mixes with floats, so the required constant is exact
    logs = [LogScalar.one(), LogScalar.from_log(40000)]
    sys_ = SystemDescription(1, DiagonalClosedForm([lambda n: logs[n]]))
    proj = ProjectionFamily(1, mask=(False,))
    profile = TabulatedProfile(0, (LogScalar.from_log(30000),) * 2)
    schedule = WitnessSchedule("one", lambda k: (1, 0), 0)
    want, _, _ = per_pair_falsify(sys_, proj, Kind.NED, schedule, [0], 0.5, profile=profile)
    rep = falsify(sys_, proj, Kind.NED, schedule, [0], alpha=0.5, profile=profile)
    assert same(rep.witnesses[0].required_constant, want[0].required_constant)
    assert rep.witnesses[0].required_constant.logmag == Fraction(-139999, 2)


# -- the family as columns ---------------------------------------------------------


def test_falsify_builds_no_record_per_member(monkeypatch):
    entry = make_example("ned_example")
    schedule = entry.schedule("odd_after_even")
    want, trend, slope = per_pair_falsify(entry.system, entry.projection, Kind.UED, schedule,
                                          range(40), 0.25)
    built = []
    for cls in (Witness, LogScalar):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, init=init, **kw: (
            built.append(type(self)), init(self, *a, **kw))[1])
    rep = falsify(entry.system, entry.projection, Kind.UED, schedule, range(40), alpha=0.25)
    assert built == []
    assert (rep.trend, rep.log_slope) == (trend, slope)
    # the witnesses are built when first read, and equal the per-pair loop's
    assert [rep.witnesses[i] for i in range(40)] == want
    assert built.count(Witness) == 40
    assert rep.witnesses is rep.witnesses


def test_non_integral_family_parameters_are_named():
    # not truncated to the members k = 0, 1, 2
    entry = make_example("ned_example")
    schedule = entry.schedule("odd_after_even")
    with pytest.raises(ScheduleOutOfRangeError, match=r"family parameter 0\.5 is not an integer"):
        falsify(entry.system, entry.projection, Kind.UED, schedule, [0, 0.5, 1.9, 2.7])
    with pytest.raises(ScheduleOutOfRangeError, match="family parameter '3' is not"):
        falsify(entry.system, entry.projection, Kind.UED, schedule, [1, "3"])
    # what operator.index takes stays valid
    rep = falsify(entry.system, entry.projection, Kind.UED, schedule,
                  [np.int64(2), True, 0, 2])
    assert rep.ms == (1, 3, 5)


FLOAT_LOGS = st.sampled_from([0.0, 1.0, 1.0 + 1e-13, 2.5, -3.0, math.inf, -math.inf,
                              1e300, -1e300, 1.5e308]) | st.floats(-50.0, 50.0)
EXACT_LOGS = st.sampled_from([0, 7, -2**70, 2**60, 2**60 + 1, 2**1100,
                              Fraction(1, 3), Fraction(2**80, 3)]) | FLOAT_LOGS


@st.composite
def trend_families(draw):
    """(ks, logs): distinct increasing ks, and logs that are all floats or
    hold exact ones, in drawn or in sorted order."""
    logs = draw(st.lists(draw(st.sampled_from([FLOAT_LOGS, EXACT_LOGS])), max_size=9))
    if draw(st.booleans()):
        logs.sort()
    ks = sorted(draw(st.sets(st.integers(0, 10**6), min_size=len(logs), max_size=len(logs))))
    return ks, logs


@PROPERTY
@given(trend_families())
@example(([0, 1, 2, 3, 4], [0.0, 1.0, 1.0, 2.0, 3.0]))  # a tie
@example(([0, 1, 2, 3, 4], [-math.inf, 0.0, 1.0, 2.0, math.inf]))
@example(([0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0]))  # fewer than five members
@example(([0, 10**6, 2 * 10**6, 3 * 10**6, 4 * 10**6],  # the sums overflow: rescaled
          [1e307, 4e307, 8e307, 1.2e308, 1.6e308]))
def test_trend_array_pass_matches_the_member_rule(family):
    # ties, +-inf, sums that overflow (the rescale branch) and fewer than
    # five members, in all-float families and families with an exact log
    ks, logs = family
    assert _classify_trend(ks, logs) == classify_trend_loop(ks, logs)


def test_trend_compares_exact_logs_exactly():
    # 2**60 + 2 and 2**60 + 1 round to one double: in floats the family is
    # nondecreasing, exactly it decreases
    logs = [0, 2**60, 2**60 + 2, 2**60 + 1, 2**61]
    assert _classify_trend(range(5), [float(v) for v in logs])[0] == "divergent"
    assert _classify_trend(range(5), logs) == classify_trend_loop(range(5), logs)
    assert _classify_trend(range(5), logs)[0] == "bounded"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the trend test calls a family that rises to a finite limit divergent")
def test_a_bounded_family_is_not_divergent():
    # P: log a_j = -0.5 + 2^-j, Q: log a_j = 1. The family's required logs
    # are 0, 0.5, 0.75, ..., all at most 1, and a uniform constant holds on
    # a long window; yet the family rises, so the trend test calls it divergent
    sys_ = SystemDescription(2, DiagonalClosedForm([
        lambda j: LogScalar(1, -0.5 + 2.0**-j), lambda j: LogScalar(1, 1.0)]))
    proj = ProjectionFamily(2, mask=(True, False))
    cert = DichotomyCertificate(Kind.UED, alpha=0.5, n_const=math.exp(2.01))
    assert verify_certificate(sys_, proj, cert, WindowSpec(0, 10000)).holds
    report = falsify(sys_, proj, Kind.UED, WitnessSchedule("from_start", lambda k: (k, 0), 0),
                     range(60), alpha=0.5)
    assert not report.divergent


# -- compatibility and cost --------------------------------------------------------


def incompatible_at_3():
    """A dense system whose constant projection fails to commute with A(4),
    that is at index 3 only."""
    p = np.diag([1.0, 0.0])
    mats = [np.diag([0.5, 2.0])] * 9
    mats[4] = np.array([[0.5, 1.0], [0.0, 2.0]])
    return SystemDescription(2, ExplicitSequence(mats)), ProjectionFamily(2, matrix=p)


def test_a_gap_between_the_pairs_is_not_checked():
    sys_, proj = incompatible_at_3()
    with pytest.raises(IncompatibleProjectionError):
        check_compatibility(sys_, proj, 0, 7)
    # (1, 0), (3, 2), (5, 4), (7, 6) check the defect at 0, 2, 4 and 6 only
    schedule = WitnessSchedule("odd_after_even", lambda k: (2 * k + 1, 2 * k), 0)
    want, trend, slope = per_pair_falsify(sys_, proj, Kind.UED, schedule, range(4), 0.5)
    rep = falsify(sys_, proj, Kind.UED, schedule, range(4), alpha=0.5)
    assert [w.required_constant for w in rep.witnesses] == [w.required_constant for w in want]
    assert (rep.trend, rep.log_slope) == (trend, slope)
    # (4, 3) covers it, and the batch names the defect as the per-pair loop does
    adjacent = WitnessSchedule("adjacent", lambda k: (k + 1, k), 0)
    with pytest.raises(IncompatibleProjectionError) as per_pair:
        per_pair_falsify(sys_, proj, Kind.UED, adjacent, range(6), 0.5)
    with pytest.raises(IncompatibleProjectionError) as batched:
        falsify(sys_, proj, Kind.UED, adjacent, range(6), alpha=0.5)
    assert str(batched.value) == str(per_pair.value)
    assert "at n=3 " in str(batched.value)


@pytest.mark.parametrize("constant", [True, False])
def test_tower_family_reads_masks_once_per_index(monkeypatch, constant):
    entry = make_example("ned_not_ed_example")
    proj = entry.projection if constant else ProjectionFamily(2, mask=lambda n: (True, False))
    calls = []
    mask = ProjectionFamily.mask
    monkeypatch.setattr(ProjectionFamily, "mask", lambda self, n: calls.append(n) or mask(self, n))
    schedule = entry.schedule("tower_expanding")  # (2k + 2, 2): every range starts at 2
    rep = falsify(entry.system, proj, Kind.ED, schedule, range(200))
    assert len(rep.witnesses) == 200
    assert len(calls) <= 5 * 200  # the per-pair loop made 40,803


@pytest.mark.parametrize("schedule", [
    WitnessSchedule("odd_after_even", lambda k: (2 * k + 1, 2 * k), 0),
    WitnessSchedule("from_start", lambda k: (k, 0), 0),
    WitnessSchedule("nested", lambda k: (30 - k, k), (1.0, 0.5, -0.25)),
])
def test_dense_family_sweeps_stop_at_the_last_horizon(monkeypatch, schedule):
    sys_, proj = commuting_system(3, 3, 1, 30)
    steps = {"P": 0, "Q": 0}
    images = system._DenseSweeps.images

    def counted(self, part, starts, s, upto):
        out = images(self, part, starts, s, upto)
        steps[part] += len(out) - 1
        return out

    monkeypatch.setattr(system._DenseSweeps, "images", counted)
    ks = range(15)
    falsify(sys_, proj, Kind.UED, schedule, ks)
    last: dict[int, int] = {}
    for m, n in map(schedule.pair_at, ks):
        last[n] = max(last.get(n, n), m)
    bound = sum(m - n for n, m in last.items())
    assert steps["P"] <= bound and steps["Q"] <= bound


@pytest.mark.parametrize("rates", [
    ["--concept", "UED", "--alpha", "inf"],
    ["--concept", "ED", "--beta", "nan"],
    ["--concept", "ED", "--beta", "inf"],
])
def test_non_finite_trial_rates_are_reported(tmp_path, rates):
    # a NaN log-magnitude used to escape as a bare ValueError for beta
    report = tmp_path / "error.json"
    argv = ["falsify", "--gallery", "ned_example", "--schedule", "adjacent", "--k-max", "3",
            *rates, "--report", str(report)]
    assert main(argv) == 2
    assert json.loads(report.read_text())["error"]["type"] == "InvalidCertificateError"


# trial weights that are +inf or NaN at some index, which falsify and the
# nonuniform Datko check reject
BAD_PROFILES = [
    TabulatedProfile(0, (LogScalar.positive_infinity(),) * 40),
    ScaledProfile(ConstantProfile(1.0), math.inf),
    ScaledProfile(ConstantProfile(1.0), math.nan),
]


@pytest.mark.parametrize("profile", BAD_PROFILES)
def test_nonuniform_trial_profile_must_stay_below_infinity(profile):
    # a +inf weight makes every required constant 0 and the trend bounded
    entry = make_example("ned_example")
    with pytest.raises(InvalidCertificateError, match=r"profile log is (inf|nan) at n="):
        falsify(entry.system, entry.projection, Kind.NED, entry.schedule("odd_after_even"),
                range(20), profile=profile)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_dense_trajectory_norms_neither_overflow_nor_underflow(scale):
    # |A(k + 1, k) x| = scale, whose square overflows or underflows a double:
    # the dense family reported an infinite or a zero required constant
    factors = [1.0] + [scale] * 3
    diagonal = SystemDescription(2, DiagonalClosedForm(
        [lambda n: LogScalar.from_float(factors[n])] * 2))
    dense = SystemDescription(2, ExplicitSequence([f * np.eye(2) for f in factors]))
    proj = ProjectionFamily(2, mask=(True, False))
    schedule = WitnessSchedule("adjacent", lambda k: (k + 1, k), 0)
    logs = [[w.required_constant.logmag for w in falsify(sys_, proj, Kind.UED, schedule,
                                                         range(3)).witnesses]
            for sys_ in (diagonal, dense)]
    assert all(math.isfinite(v) for v in logs[1])
    assert np.allclose(logs[1], logs[0], rtol=0.0, atol=1e-12)


# -- affine schedules: a range's pairs as arrays -------------------------------------

# the pairs of each built-in schedule, as the gallery and the command line
# describe them
DOCUMENTED = {
    "odd_after_even": lambda k: (2 * k + 1, 2 * k),
    "tower_balanced": lambda k: (2 * k + 2, 2 * k + 1),
    "tower_contracting": lambda k: (2 * k + 2, 2 * k + 1),
    "tower_expanding": lambda k: (2 * k + 2, 2),
    "adjacent": lambda k: (k + 1, k),
    "from_start": lambda k: (k, 0),
}
BUILT_IN = [(name, make_example(name).schedule(s))
            for name in gallery_names() for s in make_example(name).schedules] + [
    ("cli", WitnessSchedule(name, None, 0, affine=affine))
    for name, affine in _GENERIC_SCHEDULES.items()]


def callable_twin(schedule):
    """The schedule with its documented pairs as a callable."""
    return dataclasses.replace(schedule, pair_fn=DOCUMENTED[schedule.name], affine=None)


def outcome(*args, **kwargs):
    """The report text of ``falsify``, or the type and text of the error it raises."""
    try:
        return _dumps(serialize.witness_report_columns(falsify(*args, **kwargs)))
    except DichotomyError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("entry, schedule", BUILT_IN, ids=[f"{e}-{s.name}" for e, s in BUILT_IN])
def test_built_in_schedules_give_their_pairs_as_arrays(monkeypatch, entry, schedule):
    want = [DOCUMENTED[schedule.name](k) for k in range(301)]
    assert [schedule.pair_at(k) for k in range(301)] == want
    ks, at, ms, ns = _family_pairs(schedule, range(301))
    assert ks.tolist() == list(range(301))
    assert at.dtype == np.int64 and at.tolist() == [list(p) for p in want]
    assert (ms, ns) == tuple(zip(*want))
    assert all(type(v) is int for v in ms + ns)
    if entry != "cli":
        # the whole family without one pair_at call, and as the callable gives it
        sys_, proj = make_example(entry).system, make_example(entry).projection
        concept = Kind.ED if entry == "ned_not_ed_example" else Kind.UED
        twin = callable_twin(schedule)
        want = outcome(sys_, proj, concept, twin, range(40))
        monkeypatch.setattr(WitnessSchedule, "pair_at", lambda *a: pytest.fail("pair_at called"))
        assert outcome(sys_, proj, concept, schedule, range(40)) == want


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.data())
def test_affine_families_match_their_callable(seed, dim, data):
    # a dense system of indices 0..12 (a constant or a varying projection),
    # pairs that may leave it or have m < n: the same report, or the same error
    sys_, proj = commuting_system(seed, dim, data.draw(st.integers(0, dim)), 12)
    if data.draw(st.booleans()):
        fixed = proj.matrix(0)
        proj = ProjectionFamily(dim, matrix=lambda n: fixed)
    affine = data.draw(st.tuples(*[st.tuples(st.integers(-1, 2), st.integers(-1, 4))] * 2))
    start = data.draw(st.integers(-2, 6))
    ks = range(start, start + data.draw(st.integers(1, 8)), data.draw(st.integers(1, 3)))
    concept = data.draw(st.sampled_from([Kind.UED, Kind.NED, Kind.ED]))
    schedule = WitnessSchedule("drawn", None, 0, affine=affine)
    twin = WitnessSchedule("drawn", lambda k: (affine[0][0] * k + affine[0][1],
                                               affine[1][0] * k + affine[1][1]), 0)
    profile = ConstantProfile(0.5)
    assert (outcome(sys_, proj, concept, schedule, ks, profile=profile)
            == outcome(sys_, proj, concept, twin, ks, profile=profile))


def test_an_invalid_pair_is_named_as_by_the_callable():
    entry = make_example("ned_example")
    for affine in (((1, 0), (1, 1)), ((1, -3), (0, 0)), ((1, 0), (1, -2))):
        schedule = WitnessSchedule("bad", None, 0, affine=affine)
        twin = WitnessSchedule("bad", schedule.pair_at, 0)
        got = outcome(entry.system, entry.projection, Kind.UED, schedule, range(5))
        assert got == outcome(entry.system, entry.projection, Kind.UED, twin, range(5))
        assert got[0] is ScheduleOutOfRangeError


def test_parameters_that_are_no_range_keep_their_rules():
    # unsorted values and duplicates are sorted and merged; 0.5 and '3' are named
    entry = make_example("ned_example")
    schedule = entry.schedule("odd_after_even")
    args = entry.system, entry.projection, Kind.UED, schedule
    rep = falsify(*args, [5, 1, 3, 3, 0], alpha=0.25)
    assert rep.ms == (1, 3, 7, 11)
    assert rep == falsify(*args, [0, 1, 3, 5], alpha=0.25)
    full = falsify(*args, range(6), alpha=0.25)
    assert rep.required_logs == tuple(full.required_logs[k] for k in (0, 1, 3, 5))
    for bad in ([0, 0.5], [1, "3"]):
        assert outcome(*args, bad) == outcome(entry.system, entry.projection, Kind.UED,
                                              callable_twin(schedule), bad)
        assert outcome(*args, bad)[0] is ScheduleOutOfRangeError


def test_pairs_beyond_int64_take_the_member_path():
    # in int64, 2 k + 1 would wrap past 2**63 to a negative m; the pairs are
    # those of the callable, and the first is named beyond the system
    sys_, proj = commuting_system(1, 2, 1, 12)
    schedule = make_example("ned_example").schedule("odd_after_even")
    from_start = WitnessSchedule("from_start", None, 0, affine=_GENERIC_SCHEDULES["from_start"])
    for schedule, ks, m in ((schedule, range(2**62 - 3, 2**62), 2**63 - 5),
                            (schedule, range(2**63, 2**63 + 2), 2**64 + 1),
                            (schedule, [2**62, 2**70], 2**63 + 1),
                            # m = 2**63 beside n = 0: numpy makes the pairs floats
                            (from_start, range(2**63, 2**63 + 2), 2**63)):
        got = outcome(sys_, proj, Kind.UED, schedule, ks)
        assert got == outcome(sys_, proj, Kind.UED, callable_twin(schedule), ks)
        assert got == (ScheduleOutOfRangeError, f"index {m} beyond declared range 12")


def test_a_huge_k_max_is_a_configuration_of_too_many_members(tmp_path):
    # listing range(10**30 + 1) raised a bare OverflowError
    report = tmp_path / "error.json"
    argv = ["falsify", "--gallery", "ned_example", "--concept", "UED", "--schedule",
            "adjacent", "--k-max", str(10**30), "--report", str(report)]
    assert main(argv) == 2
    error = json.loads(report.read_text())["error"]
    assert error["type"] == "ScheduleOutOfRangeError"
    assert "too long" in error["message"]
