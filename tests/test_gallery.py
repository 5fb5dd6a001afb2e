import math

import pytest

from dichotomy import (
    DiagonalClosedForm,
    IndexOrderError,
    LogScalar,
    ParamOutOfRangeError,
    SystemDescription,
    UnknownExampleError,
    closed_form_amn,
    compatibility_defect,
    gallery_names,
    make_example,
    raw_factor_log,
)
from dichotomy.logscalar import lfloat, lsub

from oracles import evolution

ALL = gallery_names()


def test_names():
    assert set(ALL) == {
        "ued_example",
        "ned_example",
        "sed_example",
        "ed_example",
        "ned_not_ed_example",
    }


def raw_scalar_system(name):
    """One-coordinate system carrying the entry's raw sequence a_n."""
    return SystemDescription(
        1,
        DiagonalClosedForm([lambda n: LogScalar.from_log(raw_factor_log(name, None, n))]),
    )


@pytest.mark.parametrize("name", ALL)
def test_closed_form_matches_computed_products(name):
    sys_ = raw_scalar_system(name)
    for n in range(0, 31):
        for m in range(n, 31):
            table = closed_form_amn(name, None, m, n)
            product = evolution(sys_, m, n).diag[0]
            assert product.sign == 1
            gap = lfloat(lsub(table.logmag, product.logmag))
            assert abs(gap) <= 1e-9, (name, m, n)


def test_closed_form_point_values():
    assert closed_form_amn("ned_example", None, 2, 0).to_float() == pytest.approx(0.5)
    assert closed_form_amn("sed_example", None, 1, 0).logmag == 2
    assert closed_form_amn("ned_not_ed_example", None, 1, 0).logmag == -10
    for name in ALL:
        assert closed_form_amn(name, None, 7, 7) == LogScalar.one()


def test_closed_form_exactness_at_scale():
    # the tower entry must stay exact far beyond double range
    got = closed_form_amn("ned_not_ed_example", None, 24, 23)
    assert got.logmag == 24 * (1 + 2**24)
    sys_ = raw_scalar_system("ned_not_ed_example")
    assert evolution(sys_, 24, 23).diag[0].logmag == 24 * (1 + 2**24)


def test_closed_form_errors():
    with pytest.raises(IndexOrderError):
        closed_form_amn("ued_example", None, 1, 2)
    with pytest.raises(UnknownExampleError):
        closed_form_amn("mystery", None, 2, 1)


def test_make_example_errors():
    with pytest.raises(UnknownExampleError):
        make_example("mystery")
    with pytest.raises(ParamOutOfRangeError):
        make_example("ned_example", b=1.5)
    with pytest.raises(ParamOutOfRangeError):
        make_example("ned_example", b=0.0)
    with pytest.raises(ParamOutOfRangeError):
        make_example("sed_example", c1=-1.0)
    with pytest.raises(ParamOutOfRangeError):
        make_example("ued_example", b=0.5)  # entry takes no parameters


@pytest.mark.parametrize(
    "name, key", [("ned_example", "b"), ("ned_example", "c"), ("sed_example", "c1"),
                  ("ed_example", "c2"), ("ned_not_ed_example", "c")],
)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_parameters_are_rejected_by_name(name, key, value):
    # the range checks let +inf through; every entry point names the parameter
    for call in (
        lambda: make_example(name, {key: value}),
        lambda: closed_form_amn(name, {key: value}, 3, 0),
        lambda: raw_factor_log(name, {key: value}, 1),
    ):
        with pytest.raises(ParamOutOfRangeError, match=f"parameter {key} must be finite"):
            call()


@pytest.mark.parametrize(
    "name, params, message",
    [("ned_example", {"b": 5.0, "c": -1.0}, "ned_example needs b in (0, 1), got 5.0"),
     ("ned_example", {"c": 0.0}, "ned_example needs c > 0, got 0.0"),
     ("sed_example", {"c1": -1.0}, "sed_example needs c1 > 0 and c2 > 0"),
     ("ed_example", {"c2": 0.0}, "ed_example needs c1 > 0 and c2 > 0"),
     ("ned_not_ed_example", {"c": -2.0}, "ned_not_ed_example needs c > 0, got -2.0")],
)
@pytest.mark.parametrize("call", ["make_example", "closed_form_amn", "raw_factor_log"])
def test_out_of_range_parameters_are_rejected_by_every_entry_point(name, params, message, call):
    # the closed form and the raw sequence share the builders' range checks
    calls = {
        "make_example": lambda: make_example(name, params),
        "closed_form_amn": lambda: closed_form_amn(name, params, 3, 0),
        "raw_factor_log": lambda: raw_factor_log(name, params, 2),
    }
    with pytest.raises(ParamOutOfRangeError) as exc:
        calls[call]()
    assert str(exc.value) == message


@pytest.mark.parametrize("name", ALL)
def test_projections_commute_everywhere(name):
    entry = make_example(name)
    for n in range(0, 31):
        assert compatibility_defect(entry.system, entry.projection, n) == 0.0


def test_parameter_override_changes_system():
    entry = make_example("ned_example", {"b": 0.25, "c": 2.0})
    assert entry.params == {"b": 0.25, "c": 2.0}
    one_step = evolution(entry.system, 1, 0).diag[0]
    # A(1) first coordinate: b * (1 + 1)^c = 0.25 * 4
    assert one_step.to_float() == pytest.approx(1.0)


def test_entry_coordinates_combine_scale_and_raw_sequence():
    entry = make_example("sed_example")
    c1, c2 = entry.params["c1"], entry.params["c2"]
    op = evolution(entry.system, 3, 0)
    raw = closed_form_amn("sed_example", None, 3, 0)
    assert lfloat(op.diag[0].logmag) == pytest.approx(
        3 * math.log(c1) + lfloat(raw.logmag), rel=1e-12
    )
    assert lfloat(op.diag[1].logmag) == pytest.approx(
        3 * math.log(c2) + lfloat(raw.logmag), rel=1e-12
    )


def test_schedules_are_wired():
    entry = make_example("ned_not_ed_example")
    assert set(entry.schedules) == {"tower_balanced", "tower_expanding", "tower_contracting"}
    assert entry.schedule("tower_balanced").pair_at(0) == (2, 1)
    assert entry.schedule("tower_expanding").pair_at(3) == (8, 2)
    with pytest.raises(UnknownExampleError):
        entry.schedule("nope")


def test_claims_inventory():
    from dichotomy import CertificateClaim, FalsificationClaim, Kind, StrongInstabilityClaim

    kinds = {
        name: [type(c).__name__ for c in make_example(name).claims] for name in ALL
    }
    assert kinds["ued_example"] == ["CertificateClaim"]
    assert kinds["ned_example"] == ["CertificateClaim", "FalsificationClaim"]
    assert kinds["sed_example"] == ["CertificateClaim", "FalsificationClaim"]
    assert kinds["ed_example"] == ["CertificateClaim", "StrongInstabilityClaim"]
    assert kinds["ned_not_ed_example"] == ["CertificateClaim"] + ["FalsificationClaim"] * 3
    sed = make_example("sed_example")
    cert_claim = sed.claims[0]
    assert isinstance(cert_claim, CertificateClaim)
    assert cert_claim.cert.kind is Kind.SED
    assert cert_claim.cert.n_const == pytest.approx(math.e)
    fal = sed.claims[1]
    assert isinstance(fal, FalsificationClaim)
    assert fal.concept is Kind.UED
    strong = make_example("ed_example").claims[1]
    assert isinstance(strong, StrongInstabilityClaim)


@pytest.mark.parametrize("name", ALL)
def test_certificate_claims_hold_at_verify_m_max(name):
    # each entry's certificates hold on its largest advertised window, up to
    # the float drift of the prefix sums (the ned slack is -7e-10 at 10^5)
    from dichotomy import CertificateClaim, WindowSpec, verify_certificate
    from dichotomy.checkers import DEFAULT_LOG_TOL

    entry = make_example(name)
    window = WindowSpec(0, entry.verify_m_max)
    for claim in entry.claims:
        if isinstance(claim, CertificateClaim):
            outcome = verify_certificate(entry.system, entry.projection, claim.cert, window)
            assert outcome.holds, (name, claim.cert, outcome.witness)
            assert outcome.min_slack >= -DEFAULT_LOG_TOL, (name, outcome.min_slack)
