import math

import numpy as np
import pytest

from dichotomy import (
    DiagonalClosedForm,
    DichotomyCertificate,
    EmptyFeasibleSetError,
    ExplicitSequence,
    InvalidCertificateError,
    Kind,
    LogScalar,
    ProjectionFamily,
    ScheduleOutOfRangeError,
    ShiftedPowerProfile,
    SystemDescription,
    TabulatedProfile,
    TowerExponentProfile,
    WindowSpec,
    default_alpha_grid,
    estimate_ed,
    estimate_ued,
    falsify,
    make_example,
    minimal_ned_profile,
    optimal_N_for_alpha,
    verify_certificate,
    verify_triplet_form,
)
from dichotomy.logscalar import lfloat

from oracles import scmp, smul

LN2 = math.log(2.0)


def ued_cert(n_const=1.0, alpha=0.5):
    return DichotomyCertificate(Kind.UED, alpha=alpha, n_const=n_const)


def test_quadratic_example_uniform_certificate_holds():
    entry = make_example("ued_example")
    out = verify_certificate(entry.system, entry.projection, ued_cert(), WindowSpec(0, 50))
    assert out.holds
    assert out.min_slack >= 0.0
    assert out.pairs_checked == 51 * 52 // 2


def test_equal_times_only_require_constant_one():
    entry = make_example("ued_example")
    out = verify_certificate(entry.system, entry.projection, ued_cert(1.0, 7.0), WindowSpec(4, 4))
    assert out.holds and out.min_slack == 0.0
    with pytest.raises(InvalidCertificateError):
        verify_certificate(
            entry.system, entry.projection, ued_cert(0.99, 7.0), WindowSpec(4, 4)
        )


def test_strong_certificate_gate():
    entry = make_example("sed_example")
    bad = DichotomyCertificate(Kind.SED, alpha=1.0, n_const=2.0, beta=1.0)
    with pytest.raises(InvalidCertificateError):
        verify_certificate(entry.system, entry.projection, bad, WindowSpec(0, 5))
    # the plain exponential kind accepts beta >= alpha
    fine = DichotomyCertificate(Kind.ED, alpha=0.5, n_const=math.e, beta=1.0)
    assert verify_certificate(
        make_example("ed_example").system,
        make_example("ed_example").projection,
        fine,
        WindowSpec(0, 50),
    ).holds


def test_polynomial_ripple_nonuniform_certificate_holds():
    entry = make_example("ned_example")
    cert = DichotomyCertificate(Kind.NED, alpha=LN2, profile=ShiftedPowerProfile(2.0, 1.0))
    out = verify_certificate(entry.system, entry.projection, cert, WindowSpec(0, 60))
    assert out.holds
    assert out.min_slack >= -1e-9


def test_polynomial_ripple_uniform_first_violation():
    # frozen oracle: scanning lexicographically with N=100, alpha=0.01, the
    # first failing pair is (m, n) = (199, 198) needing e^0.01 * 0.5 * 200
    entry = make_example("ned_example")
    out = verify_certificate(
        entry.system, entry.projection, ued_cert(100.0, 0.01), WindowSpec(0, 300)
    )
    assert not out.holds
    w = out.witness
    assert (w.n, w.m) == (198, 199)
    assert w.side == "P"
    assert w.direction == (1.0, 0.0)
    assert w.required_constant.to_float() == pytest.approx(101.00501670841679, abs=1e-9)


def test_optimal_constant_quadratic():
    entry = make_example("ued_example")
    n_, p_ = entry.system, entry.projection
    assert optimal_N_for_alpha(n_, p_, 0.5, WindowSpec(0, 50)).to_float() == 1.0
    assert optimal_N_for_alpha(n_, p_, 0.25, WindowSpec(0, 20)).to_float() == 1.0


def test_optimal_constant_grows_without_uniformity():
    entry = make_example("sed_example")
    short = optimal_N_for_alpha(entry.system, entry.projection, 1.0, WindowSpec(0, 20))
    long = optimal_N_for_alpha(entry.system, entry.projection, 1.0, WindowSpec(0, 40))
    assert scmp(long, short) > 0
    # binding family: expansion-side pairs (2k, 2k-1) demand log N = 2k - 1,
    # beating the contraction-side demand 1 + log(c1) + (2k + 2) = 2k - 1 - 2
    assert lfloat(short.logmag) == pytest.approx(19.0)
    assert lfloat(long.logmag) == pytest.approx(39.0)


def _diagonal(*coords):
    return SystemDescription(len(coords), DiagonalClosedForm(list(coords)))


@pytest.mark.parametrize("system, mask, alpha, hi", [
    (lambda: make_example("sed_example").system, (True, False), 1.0, 40),
    (lambda: _diagonal(lambda n: LogScalar.from_log(-1), lambda n: LogScalar.from_log(3)),
     (True, False), 2, 30),
    (lambda: make_example("ned_not_ed_example").system, (True, False), 0.5, 30),
    (lambda: SystemDescription(2, ExplicitSequence(
        [np.diag([0.5 + 0.01 * k, 2.0 + k % 3]) for k in range(40)])), None, 0.25, 39),
    (lambda: _diagonal(
        lambda n: LogScalar.zero() if n % 2 == 0 else LogScalar.from_log(-0.5),
        lambda n: LogScalar.zero() if n % 3 == 0 else LogScalar.from_log(1.5)),
     (True, False), 0.25, 30),
], ids=["float", "int-rate", "tower", "dense", "zero-factors"])
def test_optimal_constant_is_the_profiles_last_value(system, mask, alpha, hi):
    sys_ = system()
    proj = (ProjectionFamily(2, mask=mask) if mask else
            ProjectionFamily(2, matrix=[[1.0, 0.0], [0.0, 0.0]]))
    window = WindowSpec(0, hi)
    best = optimal_N_for_alpha(sys_, proj, alpha, window)
    last = minimal_ned_profile(sys_, proj, alpha, window).values[-1]
    assert best == last and type(best.logmag) is type(last.logmag)


def test_estimate_uniform_stable_on_quadratic():
    entry = make_example("ued_example")
    grid = [0.1, 0.2, 0.3, 0.4, 0.5]
    est = estimate_ued(entry.system, entry.projection, WindowSpec(0, 50), grid)
    assert est.alpha == 0.5  # ties in N prefer the larger rate
    assert est.n_value.to_float() == 1.0
    assert est.stable


def test_estimate_uniform_unstable_on_ripple():
    entry = make_example("ned_example")
    est = estimate_ued(entry.system, entry.projection, WindowSpec(0, 80), [0.1, 0.3, 0.5])
    assert not est.stable


def test_estimate_uniform_degenerate_window():
    entry = make_example("ued_example")
    est = estimate_ued(entry.system, entry.projection, WindowSpec(3, 3), [0.1, 0.4])
    assert est.alpha == 0.4
    assert est.n_value.to_float() == 1.0
    assert est.stable


def test_minimal_profile_matches_oracle():
    # frozen oracle: per-index maxima of the closed-form products, then a
    # running maximum (b = 1/2, c = 1, alpha = ln 2, window 0..12)
    entry = make_example("ned_example")
    prof = minimal_ned_profile(entry.system, entry.projection, LN2, WindowSpec(0, 12))
    got = [v.to_float() for v in prof.values]
    assert got == pytest.approx(
        [2.0, 2.0, 4.0, 4.0, 6.0, 6.0, 8.0, 8.0, 10.0, 10.0, 12.0, 12.0, 12.0], rel=1e-12
    )
    # dominated by the certified envelope (n + 2)
    for n, v in enumerate(got):
        assert v <= n + 2 + 1e-9


def test_minimal_profile_constant_for_uniform_system():
    entry = make_example("ued_example")
    prof = minimal_ned_profile(entry.system, entry.projection, 0.5, WindowSpec(0, 20))
    assert all(v.to_float() == 1.0 for v in prof.values)


def test_minimal_profile_tower_dominated_by_closed_form():
    entry = make_example("ned_not_ed_example")
    tower = TowerExponentProfile()
    prof = minimal_ned_profile(entry.system, entry.projection, 1.0, WindowSpec(0, 12))
    for n, v in enumerate(prof.values):
        assert v.logmag <= tower.log_at(n)
    # odd indices are tight: the profile equals the tower value exactly
    for n in range(1, 13, 2):
        assert prof.values[n].logmag == tower.log_at(n)


def test_minimal_profile_values_are_tight():
    entry = make_example("ned_example")
    window = WindowSpec(0, 12)
    prof = minimal_ned_profile(entry.system, entry.projection, LN2, window)
    from dichotomy import LogScalar

    for j in range(len(prof.values)):
        dented = list(prof.values)
        dented[j] = smul(dented[j], LogScalar.from_float(0.999))
        candidate = TabulatedProfile(prof.n_min, tuple(dented))
        cert = DichotomyCertificate(Kind.NED, alpha=LN2, profile=candidate)
        try:
            out = verify_certificate(entry.system, entry.projection, cert, window)
        except InvalidCertificateError:
            continue  # the dent broke monotonicity: not a certificate at all
        assert not out.holds, f"profile value {j} is not tight"


def test_triplet_form_equals_pair_form():
    cases = [
        ("ued_example", ued_cert(), True),
        ("ned_example", DichotomyCertificate(Kind.NED, alpha=LN2,
                                             profile=ShiftedPowerProfile(2.0, 1.0)), True),
        ("ned_example", ued_cert(5.0, 0.3), False),
        ("sed_example", DichotomyCertificate(Kind.SED, alpha=2.0, n_const=math.e, beta=1.0),
         True),
    ]
    for name, cert, expected in cases:
        entry = make_example(name)
        pair = verify_certificate(entry.system, entry.projection, cert, WindowSpec(0, 30))
        trip = verify_triplet_form(
            entry.system, entry.projection, cert, WindowSpec(0, 30, triplet=True)
        )
        assert pair.holds == trip.holds == expected, name


def test_triplet_form_seeded_before_start():
    entry = make_example("ued_example")
    out = verify_triplet_form(
        entry.system, entry.projection, ued_cert(), WindowSpec(0, 25, triplet=True)
    )
    assert out.holds
    assert out.pairs_checked == sum(
        1 for p in range(26) for n in range(p, 26) for _ in range(n, 26)
    )


def test_autonomous_reduction_matches_direct_check():
    # constant coefficients and projection: the checker verdict must agree
    # with a direct scan of the power-matrix inequality
    a = np.diag([0.5, 3.0])
    sys_ = SystemDescription(2, ExplicitSequence([a] * 13))
    proj = ProjectionFamily(2, mask=(True, False))
    rng = np.random.default_rng(5)
    dirs = rng.normal(size=(4000, 2))

    def direct_holds(n_const, alpha, window_max=12):
        for span in range(0, window_max + 1):
            power = np.linalg.matrix_power(a, span)
            for x in dirs:
                px, qx = np.array([x[0], 0.0]), np.array([0.0, x[1]])
                lhs = math.exp(alpha * span) * (
                    np.linalg.norm(power @ px) + np.linalg.norm(qx)
                )
                rhs = n_const * (np.linalg.norm(px) + np.linalg.norm(power @ qx))
                if lhs > rhs * (1 + 1e-9):
                    return False
        return True

    for n_const, alpha in [(1.0, LN2), (1.0, LN2 + 0.05), (2.0, LN2 + 0.05), (1.0, 1.2)]:
        got = verify_certificate(
            sys_, proj, ued_cert(n_const, alpha), WindowSpec(0, 12)
        ).holds
        assert got == direct_holds(n_const, alpha), (n_const, alpha)


def test_falsify_ripple_required_constants():
    entry = make_example("ned_example")
    rep = falsify(
        entry.system, entry.projection, Kind.UED, entry.schedule("odd_after_even"),
        range(21), alpha=0.3,
    )
    assert rep.divergent
    assert rep.log_slope > 0
    for q, w in enumerate(rep.witnesses):
        assert (w.m, w.n) == (2 * q + 1, 2 * q)
        expected = math.exp(0.3) * (q + 1)
        assert abs(lfloat(w.required_constant.logmag) - math.log(expected)) < 1e-9


def test_falsify_certified_system_stays_bounded():
    entry = make_example("ued_example")
    rep = falsify(
        entry.system, entry.projection, Kind.UED, entry.schedule("odd_after_even"),
        range(30), alpha=0.5,
    )
    assert rep.trend == "bounded"


def test_falsify_alternating_required_constants():
    entry = make_example("sed_example")
    c1 = entry.params["c1"]
    rep = falsify(
        entry.system, entry.projection, Kind.UED, entry.schedule("odd_after_even"),
        range(30), alpha=1.0,
    )
    assert rep.divergent
    for k, w in enumerate(rep.witnesses):
        expected_log = 1.0 + math.log(c1) + (2 * k + 2)
        assert abs(lfloat(w.required_constant.logmag) - expected_log) < 1e-9


def test_falsify_needs_profile_for_nonuniform():
    entry = make_example("ned_example")
    with pytest.raises(InvalidCertificateError):
        falsify(
            entry.system, entry.projection, Kind.NED,
            entry.schedule("odd_after_even"), range(10),
        )
    rep = falsify(
        entry.system, entry.projection, Kind.NED, entry.schedule("odd_after_even"),
        range(10), alpha=LN2, profile=ShiftedPowerProfile(2.0, 1.0),
    )
    assert rep.trend == "bounded"  # the certified profile leaves nothing to grow


def test_falsify_schedule_out_of_range():
    a = np.eye(2)
    sys_ = SystemDescription(2, ExplicitSequence([a] * 6))
    proj = ProjectionFamily(2, mask=(True, False))
    from dichotomy import WitnessSchedule

    sched = WitnessSchedule("runaway", lambda k: (10 * (k + 1), 0), 0)
    with pytest.raises(ScheduleOutOfRangeError):
        falsify(sys_, proj, Kind.UED, sched, range(5), alpha=0.1)


@pytest.mark.parametrize("direction", [2, -1, (1.0, 0.0, 0.0)])
def test_falsify_probe_direction_outside_the_system(direction):
    from dichotomy import WitnessSchedule

    entry = make_example("ued_example")
    sched = WitnessSchedule("adjacent", lambda k: (k + 1, k), direction)
    with pytest.raises(ScheduleOutOfRangeError):
        falsify(entry.system, entry.projection, Kind.UED, sched, range(3), alpha=0.1)


def test_estimate_exponential_point_values():
    # at (alpha, beta) = (2, 1) every pair of the default alternating system
    # leaves log-slack >= 1 under the constant e, so the minimal constant is 1
    sed = make_example("sed_example")
    est = estimate_ed(sed.system, sed.projection, WindowSpec(0, 80), [2.0], [1.0])
    assert est.stable
    assert est.n_value.to_float() == pytest.approx(1.0, rel=1e-9)
    # the slower parameterization is tight at every (odd, even) pair: N = e
    ed = make_example("ed_example")
    est2 = estimate_ed(ed.system, ed.projection, WindowSpec(0, 80), [0.5], [1.0])
    assert est2.stable
    assert est2.n_value.to_float() == pytest.approx(math.e, rel=1e-9)


def test_estimate_exponential_strong_gate():
    entry = make_example("ed_example")
    with pytest.raises(EmptyFeasibleSetError):
        estimate_ed(
            entry.system, entry.projection, WindowSpec(0, 20), [0.1, 0.2], [0.5, 1.0],
            strong=True,
        )


def test_estimate_exponential_rejects_negative_beta():
    # a certificate needs beta >= 0; the grids follow the same rule, on
    # diagonal and dense systems alike
    entry = make_example("ued_example")
    dense = SystemDescription(2, ExplicitSequence([np.diag([0.5, 2.0])] * 6))
    dense_proj = ProjectionFamily(2, mask=(True, False))
    for sys_, proj in ((entry.system, entry.projection), (dense, dense_proj)):
        with pytest.raises(InvalidCertificateError):
            estimate_ed(sys_, proj, WindowSpec(0, 5), [1.0], [0.0, -0.5])


def test_profile_validation_rejects_decreasing():
    from dichotomy import LogScalar

    entry = make_example("ned_example")
    bad = TabulatedProfile(0, (LogScalar.from_float(2.0), LogScalar.from_float(1.0)))
    cert = DichotomyCertificate(Kind.NED, alpha=0.5, profile=bad)
    with pytest.raises(InvalidCertificateError):
        verify_certificate(entry.system, entry.projection, cert, WindowSpec(0, 1))


def test_profile_validation_rejects_infinite_log():
    # an infinite weight would satisfy every pair of its index
    from dichotomy import LogScalar

    entry = make_example("ned_example")
    bad = TabulatedProfile(0, (LogScalar.one(), LogScalar.positive_infinity()))
    cert = DichotomyCertificate(Kind.NED, alpha=0.5, profile=bad)
    with pytest.raises(InvalidCertificateError, match="profile log is inf at n=1"):
        verify_certificate(entry.system, entry.projection, cert, WindowSpec(0, 1))


def test_one_index_window_reads_the_next_pair_for_its_alpha_grid():
    # the system declares no last index, so the window 3..3 reads the pair
    # (4, 3), as the window 3..4 does, instead of falling back to alpha 1
    entry = make_example("ued_example")
    grid = default_alpha_grid(entry.system, entry.projection, WindowSpec(3, 3))
    assert grid == default_alpha_grid(entry.system, entry.projection, WindowSpec(3, 4))
    assert grid[-1] != 1.0
