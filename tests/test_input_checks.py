"""Input checks of the library's public entry points: each malformed input
raises its documented error type with a message that names the cause."""

import math

import pytest

from dichotomy import (
    ConstantProfile,
    DichotomyCertificate,
    IndexOrderError,
    InvalidCertificateError,
    InvalidConstantsError,
    Kind,
    LogScalar,
    NoDecayCertificateError,
    ScheduleOutOfRangeError,
    VerificationOutcome,
    WindowSpec,
    falsify,
    make_example,
    serialize,
    verify_datko_ed,
    verify_datko_ned,
    verify_datko_ued,
)
from dichotomy.errors import ConfigError

UED = make_example("ued_example")
SYS, PROJ = UED.system, UED.projection
SCHEDULE = UED.schedule("odd_after_even")
WINDOW = WindowSpec(0, 10)


@pytest.mark.parametrize("call, error, message", [
    (lambda: WindowSpec(-1, 3), ValueError, "window start must be nonnegative"),
    (lambda: WindowSpec(3, 2), ValueError, "empty window: 3 > 2"),
    (lambda: DichotomyCertificate(Kind.NED, 0.5).validate(), InvalidCertificateError,
     "nonuniform certificate needs a profile"),
], ids=["negative-start", "empty-window", "ned-without-profile"])
def test_certificate_inputs_are_checked(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_an_outcome_is_true_when_its_certificate_holds():
    assert VerificationOutcome(True, None, 3, 0.5)
    assert not VerificationOutcome(False, None, 3, -0.5)


@pytest.mark.parametrize("call, error, message", [
    (lambda: falsify(SYS, PROJ, Kind.UED, SCHEDULE, range(5), alpha=0.0),
     InvalidCertificateError, "trial alpha must be positive"),
    (lambda: falsify(SYS, PROJ, Kind.ED, SCHEDULE, range(5), alpha=0.5, beta=-0.1),
     InvalidCertificateError, "trial beta must be nonnegative"),
    (lambda: falsify(SYS, PROJ, Kind.UED, SCHEDULE, [], alpha=0.5),
     ScheduleOutOfRangeError, "empty family parameter range"),
], ids=["alpha-zero", "negative-beta", "empty-family"])
def test_falsify_inputs_are_checked(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: verify_datko_ned(SYS, PROJ, 0.0, ConstantProfile(1.0), WINDOW, 20),
     InvalidConstantsError, "need finite d > 0, got 0.0"),
    (lambda: verify_datko_ed(SYS, PROJ, -1.0, 0.0, 2.0, WINDOW, 20),
     InvalidConstantsError, "need finite d > 0, got -1.0"),
    (lambda: verify_datko_ed(SYS, PROJ, 0.2, 0.0, 0.5, WINDOW, 20),
     InvalidConstantsError, "need finite D >= 1, got 0.5"),
    (lambda: verify_datko_ued(SYS, PROJ, 0.2, 2.0, WINDOW, 5),
     IndexOrderError, "truncation 5 below window end 10"),
    (lambda: verify_datko_ued(SYS, PROJ, 0.5, 2.0, WINDOW, 20,
                              DichotomyCertificate(Kind.UED, 0.5, n_const=1.0)),
     NoDecayCertificateError, "certificate decay alpha=0.5 does not dominate d=0.5"),
], ids=["ned-d-zero", "ed-d-negative", "ed-D-below-one", "truncation-in-window",
        "cert-without-decay"])
def test_datko_inputs_are_checked(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: LogScalar(2, 0.0), ValueError, r"sign must be -1, 0 or \+1, got 2"),
    (lambda: LogScalar(1, math.nan), ValueError, "log-magnitude cannot be NaN"),
], ids=["sign", "nan-log"])
def test_logscalar_inputs_are_checked(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("sign", [1, -1])
def test_an_infinite_log_is_an_infinite_float(sign):
    assert LogScalar(sign, math.inf).to_float() == sign * math.inf


def _family(directions):
    """A witness report whose members have the given probe directions."""
    return {"concept": "UED", "schedule": "s", "trend": "bounded", "log_slope": 0.0,
            "trial_alpha": 0.5, "trial_beta": None, "witnesses": [
                {"m": 1, "n": 0, "direction": d, "side": "family",
                 "required_constant": {"sign": 1, "logmag": 0.0}} for d in directions]}


@pytest.mark.parametrize("call, message", [
    (lambda: serialize.logscalar_from_json({"sign": 1}),
     "malformed log-scalar payload: {'sign': 1}"),
    (lambda: serialize.profile_from_json({"form": "cubic"}), "unknown profile form 'cubic'"),
    (lambda: serialize.certificate_from_json({"kind": "XED", "alpha": 0.5}),
     "malformed certificate payload: {'kind': 'XED', 'alpha': 0.5}"),
    (lambda: serialize.witness_report_from_json(_family([[1.0, 0.0], [0.0, 1.0]])),
     r"witness Witness\(m=1, n=0, direction=\(0.0, 1.0\), .*\) is not a member of one family"),
], ids=["logscalar", "profile", "certificate", "two-directions"])
def test_malformed_payloads_are_configuration_errors(call, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        call()
