import contextlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from dichotomy import (
    ConstantProfile,
    DiagonalClosedForm,
    DecayGapError,
    DichotomyCertificate,
    ExplicitSequence,
    InvalidCertificateError,
    InvalidConstantsError,
    Kind,
    LogScalar,
    NoDecayCertificateError,
    ProjectionFamily,
    ShiftedPowerProfile,
    SystemDescription,
    TowerExponentProfile,
    WindowSpec,
    certificate_to_datko,
    make_example,
    overall_verdict,
    verify_datko_ed,
    verify_datko_ned,
    verify_datko_ued,
)
from dichotomy import datko
from dichotomy.config import parse_system_file
from dichotomy.logscalar import lfloat

from oracles import datko_lhs, projected_sum, sadd, scmp, side_reports_loop
from test_falsify import BAD_PROFILES

LN2 = math.log(2.0)

UED_QUAD = DichotomyCertificate(Kind.UED, alpha=0.5, n_const=1.0)
NED_RIPPLE = DichotomyCertificate(Kind.NED, alpha=LN2, profile=ShiftedPowerProfile(2.0, 1.0))


def test_constant_mapping_uniform():
    got = certificate_to_datko(UED_QUAD, 0.25)
    assert got.form == "uniform"
    # 1 + e^0.5 / (e^0.5 - e^0.25), frozen from direct arithmetic
    assert got.big_d == pytest.approx(5.5208116641877965, rel=1e-12)
    assert got.c == 0.0


def test_constant_mapping_nonuniform():
    got = certificate_to_datko(NED_RIPPLE, LN2 / 2)
    assert got.form == "nonuniform"
    # S(n) = 2 (n + 2) / (2 - sqrt(2)); frozen at n = 0
    assert math.exp(lfloat(got.s_profile.log_at(0))) == pytest.approx(
        6.828427124746192, rel=1e-12
    )


def test_constant_mapping_exponential_keeps_beta():
    cert = DichotomyCertificate(Kind.ED, alpha=0.5, n_const=math.e, beta=1.0)
    got = certificate_to_datko(cert, 0.25)
    assert got.form == "exponential"
    assert got.c == 1.0
    assert got.big_d == pytest.approx(1 + math.e * math.exp(0.5) / (math.exp(0.5) - math.exp(0.25)))


def test_constant_mapping_requires_decay_gap():
    with pytest.raises(DecayGapError):
        certificate_to_datko(UED_QUAD, 0.5)
    with pytest.raises(DecayGapError):
        certificate_to_datko(UED_QUAD, 0.7)


def test_lhs_q_sum_matches_brute_force():
    # frozen oracle: sum_{k=2}^{5} e^{(5-k)/4} e^{((k+1)^2 - 9)/2} along e2
    entry = make_example("ued_example")
    _, q_sum, _ = datko_lhs(
        entry.system, entry.projection, 0.25, 5, 2, 0, (0.0, 1.0), 60, UED_QUAD
    )
    assert lfloat(q_sum.logmag) == pytest.approx(13.505311143424379, abs=1e-12)


def test_lhs_p_part_vanishes_for_expanding_seed():
    entry = make_example("ued_example")
    p_sum, q_sum, tail = datko_lhs(
        entry.system, entry.projection, 0.25, 5, 2, 0, (0.0, 1.0), 60, UED_QUAD
    )
    assert p_sum.is_zero
    assert tail.is_zero
    assert not q_sum.is_zero


def test_lhs_truncation_agreement_within_tail():
    entry = make_example("ued_example")
    args = (entry.system, entry.projection, 0.25, 5, 2, 0, (1.0, 0.0))
    p_short, _, tail_short = datko_lhs(*args, 60, UED_QUAD)
    p_long, _, _ = datko_lhs(*args, 200, UED_QUAD)
    assert scmp(p_short, p_long) <= 0
    assert scmp(p_long, sadd(p_short, tail_short)) <= 0


def test_lhs_requires_dominating_certificate():
    entry = make_example("ued_example")
    with pytest.raises(NoDecayCertificateError):
        datko_lhs(entry.system, entry.projection, 0.6, 5, 2, 0, (1.0, 0.0), 60, UED_QUAD)
    with pytest.raises(NoDecayCertificateError):
        datko_lhs(entry.system, entry.projection, 0.25, 5, 2, 0, (1.0, 0.0), 60, None)


def test_index_origin_discipline():
    # the uniform-form P sum restarts at j = m; seeding both sums identically
    # on the contracting coordinate shows a strict gap once m > n
    entry = make_example("ued_example")
    d, m, n = 0.25, 5, 2
    from_n = projected_sum(entry.system, entry.projection, d, (1.0, 0.0), n, n, 60, n)
    from_m = projected_sum(entry.system, entry.projection, d, (1.0, 0.0), n, m, 60, m)
    assert scmp(from_m, from_n) < 0
    same = projected_sum(entry.system, entry.projection, d, (1.0, 0.0), n, n, 60, n)
    assert same == from_n


def test_roundtrip_uniform():
    entry = make_example("ued_example")
    sc = certificate_to_datko(UED_QUAD, 0.25)
    reports = verify_datko_ued(
        entry.system, entry.projection, 0.25, sc.big_d, WindowSpec(0, 40), 120,
        cert=UED_QUAD,
    )
    assert overall_verdict(reports) == "holds"
    assert all(r.max_tail_rhs_log < math.log(1e-6) for r in reports if r.side == "P")


def test_roundtrip_uniform_unweighted():
    entry = make_example("ued_example")
    sc = certificate_to_datko(UED_QUAD, 0.0)
    reports = verify_datko_ued(
        entry.system, entry.projection, 0.0, sc.big_d, WindowSpec(0, 40), 120,
        cert=UED_QUAD,
    )
    assert overall_verdict(reports) == "holds"


def test_roundtrip_nonuniform():
    entry = make_example("ned_example")
    d = LN2 / 2
    sc = certificate_to_datko(NED_RIPPLE, d)
    reports = verify_datko_ned(
        entry.system, entry.projection, d, sc.s_profile, WindowSpec(0, 40), 120,
        cert=NED_RIPPLE,
    )
    assert overall_verdict(reports) == "holds"


def test_zero_profile_is_violated():
    entry = make_example("ued_example")
    reports = verify_datko_ned(
        entry.system, entry.projection, 0.25, ConstantProfile(0.0), WindowSpec(0, 10), 60,
        cert=UED_QUAD,
    )
    assert overall_verdict(reports) == "violated"


def test_uniform_form_eventually_fails_without_uniformity():
    # the polynomially rippled system defeats any constant D on long windows
    entry = make_example("ned_example")
    reports = verify_datko_ued(
        entry.system, entry.projection, LN2 / 2, 100.0, WindowSpec(0, 160), 300,
        cert=None,
    )
    assert overall_verdict(reports) == "violated"
    short = verify_datko_ued(
        entry.system, entry.projection, LN2 / 2, 100.0, WindowSpec(0, 40), 300,
        cert=None,
    )
    assert overall_verdict(short) != "violated"


def test_without_certificate_passing_checks_are_inconclusive():
    entry = make_example("ued_example")
    reports = verify_datko_ued(
        entry.system, entry.projection, 0.25, 100.0, WindowSpec(0, 20), 60, cert=None
    )
    assert overall_verdict(reports) == "inconclusive-tail"
    sides = {r.side: r.verdict for r in reports}
    assert sides["P"] == "inconclusive-tail"
    assert sides["Q"] == "holds"  # the expanding sum is finite and exact


def test_truncation_soundness():
    entry = make_example("ned_example")
    d = LN2 / 2
    sc = certificate_to_datko(NED_RIPPLE, d)
    tails = []
    for m_trunc in (60, 120, 240):
        reports = verify_datko_ned(
            entry.system, entry.projection, d, sc.s_profile, WindowSpec(0, 30), m_trunc,
            cert=NED_RIPPLE,
        )
        assert overall_verdict(reports) == "holds"
        tails.append(max(r.max_tail_rhs_log for r in reports if r.side == "P"))
    assert tails[0] > tails[1] > tails[2]


def test_sufficiency_direction_term_bounds():
    # a passing summation report implies the single-term bounds
    #   e^{d(m-n)} |A_P(m,n) x| <= S(n) |P(n) x|
    #   e^{d(m-n)} |Q(n) x|     <= S(m) |A_Q(m,n) x|
    # check them directly on basis directions over the window
    entry = make_example("ned_example")
    d = LN2 / 2
    sc = certificate_to_datko(NED_RIPPLE, d)
    s_log = sc.s_profile.log_at
    for n in range(0, 30):
        for m in range(n, 30):
            lam_p = entry.system.diag_factor(0, m, n)
            assert d * (m - n) + lfloat(lam_p.logmag) <= lfloat(s_log(n)) + 1e-9
            lam_q = entry.system.diag_factor(1, m, n)
            assert d * (m - n) <= lfloat(s_log(m)) + lfloat(lam_q.logmag) + 1e-9


def test_summation_needs_a_constant_projection():
    # coordinate 0 dies at step 3, where it leaves the P range; the family is
    # compatible with the dynamics but not constant
    sys_ = SystemDescription(2, DiagonalClosedForm([
        lambda n: LogScalar.zero() if n == 3 else LogScalar.from_log(-0.5),
        lambda n: LogScalar.from_log(0.5),
    ]))
    moving = ProjectionFamily(2, mask=lambda n: (n < 3, False))
    with pytest.raises(InvalidConstantsError):
        verify_datko_ued(sys_, moving, 0.1, 2.0, WindowSpec(0, 5), 10)
    # a mask function that never changes passes the check
    fixed = ProjectionFamily(2, mask=lambda n: (True, False))
    assert verify_datko_ued(sys_, fixed, 0.1, 2.0, WindowSpec(0, 5), 10)


def test_strong_gate():
    entry = make_example("sed_example")
    with pytest.raises(InvalidConstantsError):
        verify_datko_ed(
            entry.system, entry.projection, 1.0, 1.0, 5.0, WindowSpec(0, 10), 60,
            strong=True,
        )
    reports = verify_datko_ed(
        entry.system, entry.projection, 1.0, 0.5, 7.0, WindowSpec(0, 10), 60,
        cert=DichotomyCertificate(Kind.SED, alpha=2.0, n_const=math.e, beta=1.0),
        strong=True,
    )
    assert isinstance(reports, list)


def test_exponential_form_eventually_fails_on_tower():
    entry = make_example("ned_not_ed_example")
    reports = verify_datko_ed(
        entry.system, entry.projection, 0.5, 1.0, 50.0, WindowSpec(0, 20), 60, cert=None
    )
    assert overall_verdict(reports) == "violated"


def test_roundtrip_tower_nonuniform_exact():
    entry = make_example("ned_not_ed_example")
    cert = DichotomyCertificate(Kind.NED, alpha=1.0, profile=TowerExponentProfile())
    sc = certificate_to_datko(cert, 0.5)
    reports = verify_datko_ned(
        entry.system, entry.projection, 0.5, sc.s_profile, WindowSpec(0, 25), 80,
        cert=cert,
    )
    assert overall_verdict(reports) == "holds"


def loop_reports(run):
    """A verifier run with the per-point reference loops in place of the
    array pass over the side tables."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datko, "_side_reports", side_reports_loop)
        return run()


@contextlib.contextmanager
def table_pass():
    """Every Datko side through the table of every point, the dense
    algorithm, on a diagonal system too: the oracle of the diagonal pass.
    Yields the patch, which may replace more."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datko, "_side_points", datko._table_points)
        yield patch


def test_dense_reports_match_the_loop_reference():
    # P contracts by 1/2 and Q expands by 2 at each step, in a rotated frame
    c, s = math.cos(0.3), math.sin(0.3)
    frame = np.array([[c, -s], [s, c]])
    sys_ = SystemDescription(2, ExplicitSequence([frame @ np.diag([0.5, 2.0]) @ frame.T] * 31))
    proj = ProjectionFamily(2, matrix=frame @ np.diag([1.0, 0.0]) @ frame.T)
    cert = DichotomyCertificate(Kind.UED, alpha=0.6, n_const=1.0)
    runs = {
        "violated": lambda: verify_datko_ued(sys_, proj, 0.25, 1.5, WindowSpec(0, 8), 30,
                                             cert=cert),
        "holds": lambda: verify_datko_ued(sys_, proj, 0.25, 8.0, WindowSpec(0, 8), 30,
                                          cert=cert),
        "inconclusive-tail": lambda: verify_datko_ed(sys_, proj, 0.25, 0.1, 3.0,
                                                     WindowSpec(0, 8), 30),
    }
    for verdict, run in runs.items():
        reports = run()
        assert overall_verdict(reports) == verdict
        assert repr(reports) == repr(loop_reports(run))


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    """A module of the benchmark, imported once from its file (and only
    read); registered first, as its dataclasses need."""
    key = f"bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, BENCH / f"{name}.py")
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


@pytest.mark.parametrize("dim", [4, 6])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_datko_matches_the_block_closed_form(tmp_path, seed, dim):
    # every unit vector of range P is stretched by the product of the block
    # scalars c_k, and of range Q by that of the C_k: all seeds of a side tie
    # in exact arithmetic, and the oracle accepts any point of the tie band
    from dichotomy.cli import main

    inputs, oracle = _bench_module("inputs"), _bench_module("oracle")
    w, m_trunc, d = 8, 30, 0.02
    rng = np.random.default_rng([seed, dim])
    mats, proj, cs, big_cs = inputs.dense_fixture(rng, dim, m_trunc, inputs.DENSE_C,
                                                  inputs.DENSE_BIG_C)
    system = tmp_path / "dense.ini"
    system.write_text(inputs.explicit_system_text(mats, proj), encoding="utf-8")
    cert = oracle.Cert("UED", 0.05)
    out = tmp_path / "report.json"
    logs = oracle.CoordLogs.dense(cs, big_cs, m_trunc, m_trunc)
    want = oracle.datko(logs, cert, d, w, m_trunc)
    status = {"holds": 0, "violated": 1, "inconclusive-tail": 3}[want[0]]
    assert main(["datko", "--system", str(system), "--from-cert", cert.spec(), "--d", repr(d),
                 "--window", f"0..{w}", "--m-trunc", str(m_trunc), "--report", str(out)]) == status
    report = json.loads(out.read_text())
    assert oracle.check_datko(report, *want, dim // 2, dim - dim // 2) == []

def test_int_trajectory_logs_beyond_the_float_safe_range():
    # every prefix log-sum is an int within 2^16, so the trajectory table is
    # float64, but A(2, 1) has the int log 120000: ``ladd`` adds it to a float
    # weight in Fraction arithmetic, and the array pass must too, over the
    # diagonal pass's points and over the table's
    logs = [0, -60000, 120000, -1]
    sys_ = SystemDescription(1, DiagonalClosedForm([lambda n: LogScalar(1, logs[n])]))
    proj = ProjectionFamily(1, mask=(True,))
    cert = DichotomyCertificate(Kind.UED, alpha=0.3, n_const=2.0)

    def run():
        return verify_datko_ued(sys_, proj, 0.1, 4.0, WindowSpec(1, 2), 3, cert=cert)

    assert repr(run()) == repr(loop_reports(run))
    with table_pass():
        assert repr(run()) == repr(loop_reports(run))


@pytest.mark.parametrize("m_trunc", [30, 400])
def test_tower_names_the_first_of_its_tied_seeds(tmp_path, m_trunc):
    # the P slacks of seeds 0 and 1 at index 1 are equal in exact arithmetic
    # and 6e-16 apart in floats: the report names seed 0, the first, whether
    # a table of the side would hold 11 x 31 or 11 x 401 entries per direction
    from dichotomy.cli import main

    report = tmp_path / "report.json"
    assert main(["datko", "--gallery", "ned_not_ed_example", "--window", "0..10",
                 "--d", "0.5", "--from-cert", "NED:alpha=1,profile=tower",
                 "--m-trunc", str(m_trunc), "--report", str(report)]) == 0
    reports = json.loads(report.read_text())["reports"]
    assert [(r["side"], tuple(r["worst"].values())) for r in reports] == [
        ("P", (1, 1, 0)), ("Q", (0, 0, 0))]


def test_overflowing_weight_matches_the_loop_reference():
    # c j overflows to +inf from j = 2 on: the library rejects c, as the CLI
    # does, before any point is checked
    entry = make_example("ued_example")
    with pytest.raises(InvalidConstantsError,
                       match=r"need c \* \(m_max \+ 1\) a finite double, got c=1e\+308"):
        verify_datko_ed(entry.system, entry.projection, 0.25, 1e308, 2.0,
                        WindowSpec(0, 6), 20, cert=UED_QUAD)


@pytest.mark.parametrize("profile", BAD_PROFILES)
def test_nonuniform_right_side_must_stay_below_infinity(profile):
    # a +inf right side holds at every point; with no certificate the check
    # must not report "holds" for it
    entry = make_example("ned_example")
    with pytest.raises(InvalidCertificateError, match=r"profile log is (inf|nan) at n="):
        verify_datko_ned(entry.system, entry.projection, 0.3, profile, WindowSpec(0, 10), 30)


# coordinate 0 has a zero factor at every even index after 0, so its points
# seeded before one are dead from there on
ZERO_FACTORS = """[system]
dim = 2
source = diagonal
coord0 = parity: even=0, odd=0.5
coord1 = const: value=2

[projection]
mask = 1,0
"""


@pytest.mark.parametrize("argv, error", [
    (["--gallery", "ued_example", "--c-weight", "1e308", "--d", "0.25", "--window", "0..3",
      "--cert", "UED:N=1,alpha=0.5"], "InvalidConstantsError"),
    (["--system", "{file}", "--c-weight", "1e308", "--d", "0.1", "--window", "0..4",
      "--cert", "UED:N=1,alpha=0.5"], "InvalidConstantsError"),
    (["--gallery", "ued_example", "--c-weight", "0.1", "--d", "0.25", "--window", "0..3",
      "--cert", "ED:N=1,alpha=0.5,beta=1e308"], "InvalidCertificateError"),
])
def test_weights_whose_rate_overflows_over_the_window_are_rejected(tmp_path, argv, error):
    # c j (or the tail's beta j) is +inf from some index of the window on: the
    # check held at every live point, and a dead point's slack was NaN
    from dichotomy.cli import main

    system, report = tmp_path / "system.cfg", tmp_path / "error.json"
    system.write_text(ZERO_FACTORS, encoding="utf-8")
    argv = [a.format(file=system) for a in argv]
    assert main(["datko", "--form", "ed", "--D", "2", "--m-trunc", "10", *argv,
                 "--report", str(report)]) == 2
    assert json.loads(report.read_text())["error"]["type"] == error


def test_a_dead_point_stays_dead_under_an_infinite_weight():
    # a tail certificate whose weight beta j is +inf from j = 2 on, and a d
    # whose shift d t is +inf: the library rejects both before any point is
    # checked, so no weight or shift of a live or dead point is +inf
    sys_, proj, _ = parse_system_file(ZERO_FACTORS)
    cert = DichotomyCertificate(Kind.ED, alpha=0.5, n_const=1.0, beta=1e308)
    with pytest.raises(InvalidCertificateError, match=r"rate 1e\+308 overflows"):
        verify_datko_ed(sys_, proj, 0.1, 0.1, 2.0, WindowSpec(0, 4), 10, cert=cert)
    with pytest.raises(InvalidConstantsError,
                       match=r"need d \* \(m_trunc \+ 1\) a finite double, got d=1e\+308"):
        verify_datko_ued(sys_, proj, 1e308, 2.0, WindowSpec(0, 4), 10)
