"""Certificates for the four dichotomy concepts, windows, and witnesses.

A certificate asserts, for every pair m >= n in the scanned window and
every state x,

    exp(alpha (m-n)) (|A_P(m,n) x| + |Q(n) x|)
        <= R_P(n) |P(n) x| + R_Q(m) |A_Q(m,n) x|

with the right-hand weights determined by the kind:

    UED:  R_P(n) = N,            R_Q(m) = N            (N >= 1, alpha > 0)
    NED:  R_P(n) = N(n),         R_Q(m) = N(m)         (N nondecreasing > 0)
    ED:   R_P(n) = N e^(beta n), R_Q(m) = N e^(beta m) (N >= 1, beta >= 0)
    SED:  as ED with 0 <= beta < alpha
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import count

import numpy as np

from .errors import DichotomyError, InvalidCertificateError, OutOfRangeError
from .logscalar import LogMag, LogScalar, json_log, ladd


class Kind(str, Enum):
    UED = "UED"
    NED = "NED"
    ED = "ED"
    SED = "SED"


@dataclass(frozen=True)
class WindowSpec:
    """Finite scan window: pairs n_min <= n <= m <= m_max, or the triplets
    n_min <= p <= n <= m <= m_max when triplet mode is set."""

    n_min: int
    m_max: int
    triplet: bool = False

    def __post_init__(self):
        if self.n_min < 0:
            raise ValueError("window start must be nonnegative")
        if self.n_min > self.m_max:
            raise ValueError(f"empty window: {self.n_min} > {self.m_max}")

    def half(self) -> "WindowSpec":
        mid = self.n_min + (self.m_max - self.n_min) // 2
        return WindowSpec(self.n_min, mid, self.triplet)


# -- nonuniform profiles -----------------------------------------------------


class Profile:
    """Nondecreasing positive sequence n -> value, kept in the log domain."""

    def log_at(self, n: int) -> LogMag:
        raise NotImplementedError

    def logs(self, lo: int, hi: int) -> list[LogMag]:
        """``log_at(n)`` for n = lo..hi, in one pass."""
        return [self.log_at(n) for n in range(lo, hi + 1)]

    def describe(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantProfile(Profile):
    value: float

    def log_at(self, n: int) -> LogMag:
        if not 0 <= self.value < math.inf:  # NaN fails the comparison too
            raise InvalidCertificateError(
                f"profile values must be finite and nonnegative, got {self.value}"
            )
        return math.log(self.value) if self.value > 0 else -math.inf

    def logs(self, lo: int, hi: int) -> list[LogMag]:
        return [self.log_at(lo)] * (hi - lo + 1)

    def describe(self) -> dict:
        return {"form": "constant", "value": self.value}


@dataclass(frozen=True)
class ShiftedPowerProfile(Profile):
    """(n + shift) ** power, e.g. the linear envelope (n + 2)."""

    shift: float
    power: float

    def log_at(self, n: int) -> LogMag:
        base = n + self.shift
        if not base > 0:  # NaN fails the comparison too
            raise InvalidCertificateError(
                f"profile base n + shift must be positive, got {base} at n={n}"
            )
        log = self.power * math.log(base)
        if not log < math.inf:  # NaN fails the comparison too
            raise InvalidCertificateError(f"profile log is {log} at n={n}")
        return log

    def logs(self, lo: int, hi: int) -> list[LogMag]:
        self.log_at(lo)  # the base grows with n: the first index is checked
        shift, power, log = self.shift, self.power, math.log
        out = [power * log(n + shift) for n in range(lo, hi + 1)]
        if not all(map(math.inf.__gt__, out)):  # NaN fails the comparison too
            for n in range(lo, hi + 1):
                self.log_at(n)  # raises at the first log that is +inf or NaN
        return out

    def describe(self) -> dict:
        return {"form": "shifted_power", "shift": self.shift, "power": self.power}


@dataclass(frozen=True)
class TowerExponentProfile(Profile):
    """exp((n+1) * (1 + 2**(n+1))): integer log-magnitudes, exact at any n."""

    def log_at(self, n: int) -> LogMag:
        return (n + 1) * (1 + 2 ** (n + 1))

    def describe(self) -> dict:
        return {"form": "tower_exponent"}


@dataclass(frozen=True)
class ScaledProfile(Profile):
    """A base profile multiplied by a fixed positive factor (log-domain)."""

    base: Profile
    log_factor: LogMag

    def log_at(self, n: int) -> LogMag:
        return ladd(self.base.log_at(n), self.log_factor)

    def describe(self) -> dict:
        return {"form": "scaled", "log_factor": json_log(self.log_factor),
                "base": self.base.describe()}


@dataclass(frozen=True)
class TabulatedProfile(Profile):
    """Explicit values on [n_min, n_min + len - 1]; out-of-range access fails."""

    n_min: int
    values: tuple[LogScalar, ...]

    def log_at(self, n: int) -> LogMag:
        idx = n - self.n_min
        if not 0 <= idx < len(self.values):
            raise OutOfRangeError(f"profile tabulated on [{self.n_min}, "
                                  f"{self.n_min + len(self.values) - 1}], asked for {n}")
        return self.values[idx].logmag

    def describe(self) -> dict:
        return {
            "form": "tabulated",
            "n_min": self.n_min,
            "values": [{"sign": v.sign, "logmag": json_log(v.logmag)} for v in self.values],
        }


def _profile_log(profile: Profile, n: int) -> LogMag:
    """``profile.log_at(n)``, rejected when it is +inf or NaN: a weight of
    +inf satisfies every inequality. -inf, a zero value, stays valid."""
    log = profile.log_at(n)
    if isinstance(log, float) and not log < math.inf:  # NaN fails it too
        raise InvalidCertificateError(f"profile log is {log} at n={n}")
    return log


def _check_nondecreasing(profile: Profile, lo: int, hi: int) -> list[LogMag]:
    """The logs of lo..hi, read through ``profile.logs`` in one pass; raise
    at the first n whose log ``_profile_log`` rejects or that falls below
    the log at n - 1."""
    try:
        logs = profile.logs(lo, hi)
    except DichotomyError:
        # logs() raises at its first faulty index; a fault before it comes first
        logs = map(profile.log_at, range(lo, hi + 1))
    prev = -math.inf
    for n, log in zip(count(lo), logs):
        if not log < math.inf:  # NaN fails the comparison too
            raise InvalidCertificateError(f"profile log is {log} at n={n}")
        if log < prev:
            raise InvalidCertificateError(f"profile decreases at n={n}")
        prev = log
    return logs


# -- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class DichotomyCertificate:
    kind: Kind
    alpha: float
    n_const: float | None = None
    beta: float | None = None
    profile: Profile | None = None

    def validate(self, window: WindowSpec | None = None) -> None:
        # comparisons that NaN fails, so NaN and infinite constants are rejected
        if not 0 < self.alpha < math.inf:
            raise InvalidCertificateError(f"alpha must be positive and finite, got {self.alpha}")
        if self.kind is Kind.NED:
            if self.profile is None:
                raise InvalidCertificateError("nonuniform certificate needs a profile")
            if window is not None:
                _check_nondecreasing(self.profile, window.n_min, window.m_max)
            return
        if self.n_const is None or not 1 <= self.n_const < math.inf:
            raise InvalidCertificateError("constant N must be finite and satisfy N >= 1")
        if self.kind is Kind.UED:
            return
        if self.beta is None or not 0 <= self.beta < math.inf:
            raise InvalidCertificateError("beta must be finite and satisfy beta >= 0")
        if self.kind is Kind.SED and not self.beta < self.alpha:
            raise InvalidCertificateError(
                f"strong certificate needs beta < alpha, got beta={self.beta}, alpha={self.alpha}"
            )

    def weights(self, window: WindowSpec) -> list[LogMag] | np.ndarray:
        """``validate(window)``, then ``r_logs`` on the window; a profile's
        logs are read once, by the check of ``validate``."""
        self.validate()
        if self.kind is Kind.NED:
            return _check_nondecreasing(self.profile, window.n_min, window.m_max)
        return self.r_logs(window.n_min, window.m_max)

    def log_n(self) -> float:
        return math.log(self.n_const) if self.n_const is not None else 0.0

    def r_log(self, k: int) -> LogMag:
        """log of the weight at index k: R_P(n) = r(n) multiplies |P(n) x|
        and R_Q(m) = r(m) multiplies |A_Q(m,n) x|."""
        if self.kind is Kind.NED:
            return self.profile.log_at(k)
        if self.kind is Kind.UED:
            return self.log_n()
        return self.log_n() + self.beta * k

    def r_logs(self, lo: int, hi: int) -> list[LogMag] | np.ndarray:
        """``r_log(k)`` for k = lo..hi, in one pass: a profile's list, or a
        float64 array of the same values."""
        if self.kind is Kind.NED:
            return self.profile.logs(lo, hi)
        if self.kind is Kind.UED:
            return np.full(hi - lo + 1, self.log_n())
        with np.errstate(over="ignore"):  # a float product overflows to inf, as in r_log
            return self.log_n() + self.beta * np.arange(lo, hi + 1, dtype=float)

    def scale_offset(self, k: int) -> LogMag:
        """log(r(k) / N): the profile part of the weight at index k."""
        if self.kind in (Kind.NED, Kind.UED):
            return 0
        return self.beta * k


# -- witnesses ----------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A single (m, n, direction) at which a required constant was extracted."""

    m: int
    n: int
    direction: tuple[float, ...]
    required_constant: LogScalar
    side: str = "P"


@dataclass(frozen=True)
class WitnessReport:
    """A witness family as columns, with the growth trend of its required
    constants: member i is the pair (ms[i], ns[i]) probed along
    ``direction``, and its least constant has log-magnitude
    ``required_logs[i]`` (-inf for a zero constant)."""

    concept: Kind
    schedule: str
    ms: tuple[int, ...]
    ns: tuple[int, ...]
    direction: tuple[float, ...]
    required_logs: tuple[LogMag, ...]
    trend: str  # "bounded" | "divergent"
    log_slope: float
    trial_alpha: float
    trial_beta: float | None = None

    @property
    def divergent(self) -> bool:
        return self.trend == "divergent"

    @cached_property
    def witnesses(self) -> tuple[Witness, ...]:
        """The members as ``Witness`` records (side "family"), built on the
        first read."""
        return tuple(
            Witness(m, n, self.direction, LogScalar.from_log(log), side="family")
            for m, n, log in zip(self.ms, self.ns, self.required_logs)
        )


@dataclass(frozen=True)
class VerificationOutcome:
    """Result of a certificate scan: either holds, or the first witness."""

    holds: bool
    witness: Witness | None
    pairs_checked: int
    min_slack: float  # smallest log-domain slack seen across the window

    def __bool__(self) -> bool:
        return self.holds
