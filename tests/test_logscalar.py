"""The LogScalar record, the library's log-magnitude arithmetic (``ladd``,
``logaddexp_mag``, ``lfloat``), and the signed arithmetic over LogScalar
records that ``oracles`` gives the other tests."""

import math
import sys
from fractions import Fraction
from functools import cmp_to_key

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dichotomy.logscalar import (
    LogScalar,
    ladd,
    lfloat,
    logaddexp_mag,
    lsub,
)
from oracles import sadd, scmp, sdiv, smul, sneg, ssub

finite_values = st.floats(
    min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False
)


@given(finite_values, st.sampled_from([-1.0, 1.0]))
def test_roundtrip_full_range(mag, sign):
    # exp(log(x)) amplifies the log's rounding by |log x|, <= ~1e-13 overall
    x = sign * mag
    back = LogScalar.from_float(x).to_float()
    assert back == pytest.approx(x, rel=1e-13)
    assert math.copysign(1.0, back) == math.copysign(1.0, x)


@given(
    st.floats(min_value=1e-8, max_value=1e8, allow_nan=False, allow_infinity=False),
    st.sampled_from([-1.0, 1.0]),
)
def test_roundtrip_moderate_is_ulp_scale(mag, sign):
    x = sign * mag
    back = LogScalar.from_float(x).to_float()
    assert back == pytest.approx(x, rel=8e-15)


def test_zero_is_canonical():
    z = LogScalar.from_float(0.0)
    assert z.sign == 0 and z.is_zero
    assert z == LogScalar.zero() == LogScalar(1, -math.inf)
    assert z.to_float() == 0.0
    assert smul(z, LogScalar.one()).is_zero
    assert sadd(LogScalar.one(), z) == LogScalar.one()


def test_long_alternating_product_never_overflows():
    # a product of magnitudes is a sum of their logs
    acc = 0
    for k in range(10_000):
        acc = ladd(acc, 1 if k % 2 == 0 else -1)
    assert LogScalar.from_log(acc) == LogScalar.one()
    # one-sided product walks to exp(10000) without leaving the log domain
    acc = 0
    for _ in range(10_000):
        acc = ladd(acc, 1)
    assert acc == 10_000
    assert LogScalar.from_log(acc).to_float() == math.inf  # only the float view saturates


@given(finite_values, finite_values)
def test_multiplication_matches_floats(a, b):
    prod = LogScalar.from_log(ladd(math.log(a), math.log(b)))
    expected = a * b
    if expected != 0 and math.isfinite(expected):
        assert prod.to_float() == pytest.approx(expected, rel=1e-12)


@given(finite_values, finite_values)
def test_addition_matches_floats(a, b):
    got = LogScalar.from_log(logaddexp_mag(math.log(a), math.log(b)))
    assert got.to_float() == pytest.approx(a + b, rel=1e-12)


@example(9.999999999999999e299, 1e300)  # both logs round to the same double
@example(9.999999999991227e299, 9.999625248783169e299)  # a - b cancels 4.4 digits
@given(finite_values, finite_values)
def test_subtraction_and_order(a, b):
    # A LogScalar holds log|a| rounded to a double, so it orders a and b
    # exactly only when their logs differ, and it ties them when the logs
    # are equal.
    x, y = LogScalar.from_float(a), LogScalar.from_float(b)
    if math.log(a) != math.log(b):
        assert (scmp(x, y) < 0) == (a < b)
    assert (x == y) == (math.log(a) == math.log(b))
    # Difference bound, with u = eps / 2, L = max(|log a|, |log b|) and
    # M = max(a, b) / |a - b| >= 1 (the cancellation factor). Each log holds
    # an absolute error of at most 2uL (one ulp); logsubexp_mag forms
    # t = log b - log a, q = exp(t) and big + log1p(-q), and an error in t
    # or q reaches log1p(-q) multiplied by q / (1 - q) <= M. Collecting the
    # log errors (2uL), the errors fed through log1p (M (4uL + 3u)), the
    # roundings of log1p, the last addition and exp (at most u |log(a - b)|
    # + u log M + 3u, with log M <= M), the relative error of the
    # difference stays below 7u (1 + L) M, so c = 4 in units of eps; c = 8
    # leaves a factor of two for libm results that are not correctly rounded.
    # The 1 + L, not L alone, covers a and b near 1, where the logs are
    # nearly exact and exp and log1p still round.
    bound = 8 * sys.float_info.epsilon * (1 + max(abs(math.log(a)), abs(math.log(b))))
    cancel = max(a, b) / abs(a - b) if a != b else 1.0
    diff = ssub(x, y)
    assert diff.to_float() == pytest.approx(a - b, rel=bound * cancel, abs=1e-250)


def test_exact_integer_magnitudes_do_not_round():
    huge = 61 * (1 + 2**61)  # far beyond a double's integer range
    y = ladd(huge, 1)  # exp(huge) * exp(1)
    assert y - huge == 1
    # mixing a float in promotes to Fraction instead of rounding to ulp(2^66)
    z = ladd(huge, 0.5)
    assert isinstance(z, Fraction)
    assert z - huge == Fraction(0.5)


def test_small_int_float_mix_stays_float():
    assert isinstance(ladd(3, 0.25), float)
    assert ladd(3, 0.25) == 3.25
    assert isinstance(ladd(2**40, 0.25), Fraction)


def test_logaddexp_mag_is_exact_at_scale():
    big = 10**30
    got = logaddexp_mag(big, big)
    assert got - big == Fraction(math.log(2.0))
    assert logaddexp_mag(-math.inf, 5) == 5


def test_comparisons_total_order():
    values = [-3.0, -0.5, 0.0, 0.25, 7.0]
    scalars = [LogScalar.from_float(v) for v in values]
    assert sorted(scalars, key=cmp_to_key(scmp)) == [LogScalar.from_float(v) for v in sorted(values)]


def test_opposite_sign_addition_cancels():
    x = LogScalar.from_float(5.0)
    assert sadd(x, sneg(x)).is_zero
    got = sadd(LogScalar.from_float(5.0), LogScalar.from_float(-3.0))
    assert got.to_float() == pytest.approx(2.0, rel=1e-12)


def test_division():
    x = LogScalar.from_log(10)
    y = LogScalar.from_log(4)
    assert sdiv(x, y).logmag == 6
    with pytest.raises(ZeroDivisionError):
        sdiv(x, LogScalar.zero())


@settings(max_examples=200)
@given(st.integers(min_value=-(2**80), max_value=2**80), finite_values)
def test_promotion_keeps_comparisons_exact(big, small):
    # int log-magnitudes compare exactly against float ones at any scale
    a = LogScalar.from_log(big)
    b = LogScalar.from_log(math.log(small))
    assert (scmp(a, b) < 0) == (big < math.log(small))
    assert isinstance(lfloat(a.logmag), float)


# -- ladd and lsub against the Fraction arithmetic of their first form ----------


def ladd_rule(a, b):
    """``ladd`` as first written: an exact operand beyond 2**16 meets a float
    as ``Fraction(float)``, and sums holding a Fraction go through
    ``Fraction.__add__``."""
    if isinstance(a, float):
        if not math.isfinite(a):
            if isinstance(b, float) and math.isinf(b) and (b > 0) != (a > 0):
                raise ValueError("indeterminate inf - inf log-magnitude")
            return a
        if isinstance(b, float):
            return a + b
        if -(2**16) <= b <= 2**16:
            return a + float(b)
        return Fraction(a) + b
    if isinstance(b, float):
        if not math.isfinite(b):
            return b
        if -(2**16) <= a <= 2**16:
            return float(a) + b
        return a + Fraction(b)
    return a + b


def outcome(f, a, b):
    """What ``f(a, b)`` gives: its value, or the type of what it raises."""
    try:
        return f(a, b)
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc)


LIMIT = 2**16
LOG_OPERANDS = st.one_of(
    st.sampled_from([
        0.0, -0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan, 0.1, -1.5, 1e300,
        np.float64(0.5), 0, LIMIT, LIMIT + 1, -LIMIT, -LIMIT - 1, 3**50, -(3**50),
        True, False, np.int64(7), np.int64(LIMIT + 1), np.int64(-(2**40)),
        Fraction(1, 3), Fraction(-1, 3), Fraction(2**80, 3), Fraction(-(2**80), 3),
        Fraction(3, 8), Fraction(2**70 + 1, 2**10), Fraction(7, 2**20), Fraction(2**20),
    ]),
    st.floats(),
    st.integers(-2 * LIMIT, 2 * LIMIT),
    st.integers(-(2**90), 2**90),
    st.builds(np.int64, st.integers(-(2**40), 2**40)),
    st.fractions(),
    st.builds(Fraction, st.integers(-(2**90), 2**90), st.integers(1, 2**70)),
)


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(LOG_OPERANDS, LOG_OPERANDS)
@example(0.1, np.int64(2**62))
@example(np.int64(2**62), Fraction(1, 3))
def test_ladd_and_lsub_keep_the_fraction_rule(a, b):
    # the sums through integer ratios give the value and the type of the
    # rule; a Fraction in lowest terms, so the same numerator and denominator
    for got, want in ((outcome(ladd, a, b), outcome(ladd_rule, a, b)),
                      (outcome(lsub, a, b), outcome(lambda x, y: ladd_rule(x, -y), a, b))):
        assert type(got) is type(want)
        assert repr(got) == repr(want)
        if isinstance(want, Fraction):
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
            assert type(got.numerator) is int and type(got.denominator) is int
