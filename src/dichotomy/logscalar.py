"""Log-magnitude arithmetic for quantities far beyond double range.

A quantity is kept as its log-magnitude, so products such as
``exp((n+1) * (1 + 2**(n+1)))`` become sums that never overflow. The
arithmetic is the functions below: ``ladd``/``lsub`` multiply and divide,
``logaddexp_mag`` adds magnitudes, ``lfloat`` collapses a log to float,
``json_log`` writes one as a report value; the array forms live in
``logarray``. A :class:`LogScalar` is the record that
reports, witnesses, profiles and signed diagonal inputs carry: a sign and a
log-magnitude, with no arithmetic of its own.

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
import operator
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
    Fraction unless the exact side is small (see ``_FLOAT_SAFE``). Exact
    sums are taken from the operands' integer ratios (a finite float's is
    exact): the cross products over one ``Fraction``.
    """
    if not isinstance(a, float):
        if not isinstance(b, float):
            if type(a) is not Fraction is not type(b):
                return a + b
            (an, ad), (bn, bd) = _ratio(a), _ratio(b)
            return Fraction(an * bd + bn * ad, ad * bd)
        a, b = b, a  # the float first: the sum is the same either way
    if not math.isfinite(a):
        if isinstance(b, float) and math.isinf(b) and (b > 0) != (a > 0):
            raise ValueError("indeterminate inf - inf log-magnitude")
        return a
    if isinstance(b, float):
        return a + b
    bn, bd = _ratio(b)
    if -_FLOAT_SAFE * bd <= bn <= _FLOAT_SAFE * bd:
        return a + bn / bd  # a + float(b)
    an, ad = a.as_integer_ratio()
    return Fraction(an * bd + bn * ad, ad * bd)


def _ratio(x: LogMag) -> tuple[int, int]:
    """An exact value or a finite float as (numerator, denominator) ints (a
    numpy integer as an int, whose products cannot overflow)."""
    if type(x) is int:
        return x, 1
    if isinstance(x, (float, Fraction)):
        return x.as_integer_ratio()
    return operator.index(x), 1


def lsub(a: LogMag, b: LogMag) -> LogMag:
    return ladd(a, -b)


def rounding_scale(x: LogMag) -> float:
    """Largest magnitude with which ``x`` can enter float rounding in ``ladd``.

    A finite float counts in full; an exact value counts only up to
    ``_FLOAT_SAFE``, because a larger one promotes the addition to
    ``Fraction``. Infinities propagate without rounding and count as 0.
    """
    if isinstance(x, float) and not math.isfinite(x):
        return 0.0
    return float(abs(x)) if isinstance(x, float) or abs(x) <= _FLOAT_SAFE else float(_FLOAT_SAFE)


def lfloat(x: LogMag) -> float:
    """Collapse a log-magnitude to float, saturating to +-inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def json_log(x: LogMag):
    """A log-magnitude as a JSON value: an int stays an int (of any size), a
    Fraction collapses to float, +-inf become "inf" / "-inf"."""
    if isinstance(x, Fraction):
        return lfloat(x)
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


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
    def from_log(cls, logmag: LogMag) -> "LogScalar":
        return cls(1, logmag)

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

    def __repr__(self) -> str:
        if self.sign == 0:
            return "LogScalar(0)"
        s = "-" if self.sign < 0 else "+"
        return f"LogScalar({s}exp({self.logmag!r}))"
