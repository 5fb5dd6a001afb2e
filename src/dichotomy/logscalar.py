"""Sign and log-magnitude arithmetic for quantities far beyond double range.

A :class:`LogScalar` represents ``sign * exp(logmag)``. Multiplication adds
log-magnitudes, addition goes through the log-sum-exp identity, so products
such as ``exp((n+1) * (1 + 2**(n+1)))`` never overflow.

Log-magnitudes are plain Python numbers and may be ``int``, ``Fraction`` or
``float``. Exact types are preserved through arithmetic: whenever an exact
operand meets a float the pair is promoted to ``Fraction`` (floats embed
exactly into the rationals), except when the exact operand is small enough
that float addition is harmless. This matters because comparisons with a
slack of order one must stay meaningful even at log-magnitudes of order
2**60, where a double's spacing is in the tens of thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

LogMag = Union[int, float, Fraction]

# Exact values at or below this magnitude may be mixed into float arithmetic:
# the absolute rounding error stays below 2**16 * 2**-52 ~ 1.5e-11 per
# operation, far inside the 1e-9 comparison tolerances used by the checkers.
_FLOAT_SAFE = 2**16


def ladd(a: LogMag, b: LogMag) -> LogMag:
    """Add two log-magnitudes without losing exactness.

    float+float stays float; exact+exact stays exact; a mix is promoted to
    Fraction unless the exact side is small (see ``_FLOAT_SAFE``).
    """
    if isinstance(a, float):
        if not math.isfinite(a):
            if isinstance(b, float) and math.isinf(b) and (b > 0) != (a > 0):
                raise ValueError("indeterminate inf - inf log-magnitude")
            return a
        if isinstance(b, float):
            return a + b
        if -_FLOAT_SAFE <= b <= _FLOAT_SAFE:
            return a + float(b)
        return Fraction(a) + b
    if isinstance(b, float):
        if not math.isfinite(b):
            return b
        if -_FLOAT_SAFE <= a <= _FLOAT_SAFE:
            return float(a) + b
        return a + Fraction(b)
    return a + b


def lsub(a: LogMag, b: LogMag) -> LogMag:
    return ladd(a, -b)


def mixes_as_float(x: LogMag) -> bool:
    """Whether ``ladd`` adds ``x`` to a float in plain float arithmetic: true
    for floats and for exact values within ``_FLOAT_SAFE``."""
    return isinstance(x, float) or -_FLOAT_SAFE <= x <= _FLOAT_SAFE


def rounding_scale(x: LogMag) -> float:
    """Largest magnitude with which ``x`` can enter float rounding in ``ladd``.

    A finite float counts in full; an exact value counts only up to
    ``_FLOAT_SAFE``, because a larger one promotes the addition to
    ``Fraction``. Infinities propagate without rounding and count as 0.
    """
    if isinstance(x, float) and not math.isfinite(x):
        return 0.0
    return float(abs(x)) if mixes_as_float(x) else float(_FLOAT_SAFE)


def lfloat(x: LogMag) -> float:
    """Collapse a log-magnitude to float, saturating to +-inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def logaddexp_mag(a: LogMag, b: LogMag) -> LogMag:
    """log(exp(a) + exp(b)) with exact dominant part.

    The result is ``max(a, b) + log1p(exp(min - max))``; only the bounded
    correction term is computed in floating point.
    """
    if isinstance(a, float) and a == -math.inf:
        return b
    if isinstance(b, float) and b == -math.inf:
        return a
    if b > a:
        a, b = b, a
    if isinstance(a, float) and math.isinf(a):
        return a
    return ladd(a, math.log1p(math.exp(lfloat(lsub(b, a)))))


def logsubexp_mag(a: LogMag, b: LogMag) -> LogMag:
    """log(exp(a) - exp(b)) for a >= b; returns -inf when the terms cancel."""
    if isinstance(b, float) and b == -math.inf:
        return a
    diff = lfloat(lsub(b, a))
    if diff > 0:
        raise ValueError("logsubexp_mag requires a >= b")
    q = math.exp(diff)
    if q >= 1.0:
        return -math.inf
    return ladd(a, math.log1p(-q))


@dataclass(frozen=True)
class LogScalar:
    """A real number stored as ``sign * exp(logmag)``.

    ``sign`` is -1, 0 or +1 and is 0 exactly when the value is 0 (the
    log-magnitude is then pinned to -inf so equality and hashing behave).
    """

    sign: int
    logmag: LogMag

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.sign == 0:
            object.__setattr__(self, "logmag", -math.inf)
        elif isinstance(self.logmag, float) and self.logmag == -math.inf:
            object.__setattr__(self, "sign", 0)
        elif isinstance(self.logmag, float) and math.isnan(self.logmag):
            raise ValueError("log-magnitude cannot be NaN")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_float(cls, value: float) -> "LogScalar":
        if value == 0:
            return cls(0, -math.inf)
        return cls(1 if value > 0 else -1, math.log(abs(value)))

    @classmethod
    def from_log(cls, logmag: LogMag, sign: int = 1) -> "LogScalar":
        return cls(sign, logmag)

    @classmethod
    def zero(cls) -> "LogScalar":
        return cls(0, -math.inf)

    @classmethod
    def one(cls) -> "LogScalar":
        return cls(1, 0)

    @classmethod
    def positive_infinity(cls) -> "LogScalar":
        return cls(1, math.inf)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        mag = lfloat(self.logmag)
        if mag == math.inf:
            return math.inf * self.sign
        try:
            return self.sign * math.exp(mag)
        except OverflowError:
            return math.inf * self.sign

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "LogScalar") -> "LogScalar":
        if self.sign == 0 or other.sign == 0:
            return LogScalar.zero()
        return LogScalar(self.sign * other.sign, ladd(self.logmag, other.logmag))

    def __truediv__(self, other: "LogScalar") -> "LogScalar":
        if other.sign == 0:
            raise ZeroDivisionError("division by LogScalar zero")
        if self.sign == 0:
            return LogScalar.zero()
        return LogScalar(self.sign * other.sign, lsub(self.logmag, other.logmag))

    def __add__(self, other: "LogScalar") -> "LogScalar":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        if self.sign == other.sign:
            return LogScalar(self.sign, logaddexp_mag(self.logmag, other.logmag))
        big, small = (self, other) if self.magnitude_geq(other) else (other, self)
        mag = logsubexp_mag(big.logmag, small.logmag)
        if isinstance(mag, float) and mag == -math.inf:
            return LogScalar.zero()
        return LogScalar(big.sign, mag)

    def __sub__(self, other: "LogScalar") -> "LogScalar":
        return self + (-other)

    def __neg__(self) -> "LogScalar":
        if self.sign == 0:
            return self
        return LogScalar(-self.sign, self.logmag)

    def __abs__(self) -> "LogScalar":
        if self.sign == -1:
            return LogScalar(1, self.logmag)
        return self

    def magnitude_geq(self, other: "LogScalar") -> bool:
        if other.sign == 0:
            return True
        if self.sign == 0:
            return False
        return self.logmag >= other.logmag

    # -- total order by represented value ----------------------------------

    def _cmp(self, other: "LogScalar") -> int:
        if self.sign != other.sign:
            return -1 if self.sign < other.sign else 1
        if self.sign == 0:
            return 0
        if self.logmag == other.logmag:
            return 0
        bigger_mag = self.logmag > other.logmag
        if self.sign > 0:
            return 1 if bigger_mag else -1
        return -1 if bigger_mag else 1

    def __lt__(self, other: "LogScalar") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "LogScalar") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "LogScalar") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "LogScalar") -> bool:
        return self._cmp(other) >= 0

    def __repr__(self) -> str:
        if self.sign == 0:
            return "LogScalar(0)"
        s = "-" if self.sign < 0 else "+"
        return f"LogScalar({s}exp({self.logmag!r}))"
