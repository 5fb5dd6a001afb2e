"""Arrays of log-magnitudes: the one place that picks float64 or exact arithmetic.

A ``LogArray`` is float64 when every value is a float or an ``int`` within
``_FLOAT_SAFE`` (``ladd`` then adds any two as floats, so numpy's ufuncs give
its bits; ``ints`` marks the ints, each exact in a double), and otherwise an
object array of the Python numbers, worked through ``ladd``, ``lsub`` and
``logaddexp_mag``. The arithmetic below gives each entry the value and type
that those functions (and numpy's object ``maximum``) give it: a float-form
result carries its ints, and is taken in the object form when one leaves
``_FLOAT_SAFE``. ``pick`` applies the rule again to part of an object array.
Comparisons of ``values`` are exact in both forms. Float overflow gives
+-inf, as ``ladd`` does; callers wrap it in ``np.errstate`` and never add
+inf to -inf.
"""

from __future__ import annotations

import math

import numpy as np

from .logscalar import _FLOAT_SAFE, LogMag, ladd, lfloat, logaddexp_mag, lsub, rounding_scale

# (add, sub, logaddexp) of each form, for loops that run on the raw arrays
FLOAT_FORM = (np.add, np.subtract, np.logaddexp)
EXACT_FORM = tuple(np.frompyfunc(f, 2, 1) for f in (ladd, lsub, logaddexp_mag))
_NEGATIVE_ZERO = np.array(-0.0).view(np.int64)


class LogArray:
    """Log-magnitudes in a numpy array of either form (see the module)."""

    __slots__ = ("values", "ints")

    def __init__(self, values):
        """The values (an array, a list or one number) in the form the rule
        picks; a LogArray is taken as it is."""
        if isinstance(values, LogArray):
            self.values, self.ints = values.values, values.ints
        elif isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
            small = values.dtype.kind == "f" or not values.size or (
                -_FLOAT_SAFE <= values.min() and values.max() <= _FLOAT_SAFE)
            self.values = values.astype(float, copy=False) if small else values.astype(object)
            self.ints = _any(values == values) if small and values.dtype.kind != "f" else None
        else:
            objects = np.asarray(values, dtype=object)
            flat = objects.ravel().tolist()
            kinds = set(map(type, flat))
            ints = [v for v in flat if type(v) is int] if int in kinds else []
            self.values, self.ints = objects, None
            if kinds <= {float, int} and (
                    not ints or -_FLOAT_SAFE <= min(ints) and max(ints) <= _FLOAT_SAFE):
                self.values = objects.astype(float)
                if ints:
                    self.ints = np.array([type(v) is int for v in flat]).reshape(objects.shape)

    @property
    def exact(self) -> bool:
        """Whether the array takes the object form."""
        return self.values.dtype.hasobject

    @property
    def form(self) -> tuple[np.ufunc, np.ufunc, np.ufunc]:
        return EXACT_FORM if self.exact else FLOAT_FORM

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index) -> LogArray:
        """The entries at a numpy index, always as an array (0-d for one entry)."""
        key = (*index, ...) if type(index) is tuple else (index, ...)
        return _made(self.values[key], None if self.ints is None else _any(self.ints[key]))

    def pick(self, index) -> LogArray:
        """The entries at a numpy index in the form that their own values
        allow: part of an object array may take the float form."""
        return LogArray(self.values[index]) if self.exact else self[index]

    def item(self, *index) -> LogMag:
        """One entry as a Python number."""
        value = self.values.item(*index)
        return int(value) if self.ints is not None and self.ints.item(*index) else value

    def tolist(self):
        """The entries as (nested) lists of Python numbers."""
        return (self.values if self.ints is None else self.objects()).tolist()

    def objects(self) -> np.ndarray:
        """The entries as an object array of Python numbers."""
        if self.exact:
            return self.values
        out = self.values.astype(object)
        if self.ints is not None:
            out[self.ints] = self.values[self.ints].astype(np.int64).astype(object)
        return out

    def floats(self) -> np.ndarray:
        """The entries collapsed to float64 by ``lfloat``."""
        if not self.exact:
            return self.values
        return np.array([lfloat(v) for v in self.values.ravel().tolist()],
                        dtype=float).reshape(self.values.shape)

    def exact_entries(self) -> np.ndarray:
        """Per entry, whether it is exact (an int or a Fraction), not a float."""
        if not self.exact:
            return _marks(self)
        return np.array([not isinstance(v, float) for v in self.values.ravel().tolist()],
                        dtype=bool).reshape(self.values.shape)

    def nonfinite(self) -> np.ndarray:
        """Per entry, whether it is a float +-inf or NaN."""
        v = self.values
        return (v == math.inf) | (v == -math.inf) | (v != v) if self.exact else ~np.isfinite(v)

    def rounding_scale(self) -> float:
        """The largest ``rounding_scale`` of an entry; 0.0 when there is none."""
        if self.exact:
            return max(map(rounding_scale, self.values.ravel().tolist()), default=0.0)
        return float(np.abs(self.values[np.isfinite(self.values)]).max(initial=0.0))


def _made(values, ints=None) -> LogArray:
    """A LogArray of values already in their form, with their int marks."""
    out = object.__new__(LogArray)
    out.values, out.ints = values, ints
    return out


def _any(ints: np.ndarray) -> np.ndarray | None:
    """The marks, or None when none is set."""
    return ints if np.count_nonzero(ints) else None


def _marks(a: LogArray) -> np.ndarray:
    return np.zeros(a.values.shape, dtype=bool) if a.ints is None else a.ints


def _lift(x) -> LogArray:
    """An operand as a LogArray: a float64 or object array is taken in its
    own form, anything else through the constructor."""
    if isinstance(x, LogArray):
        return x
    if isinstance(x, np.ndarray) and x.dtype in (np.float64, object):
        return _made(x)
    return _made(np.array(x)) if type(x) is float else LogArray(x)


def _exact(ufunc, *operands: LogArray) -> LogArray:
    return _made(np.asarray(ufunc(*(a.objects() for a in operands)), dtype=object))


# -- arithmetic: numpy broadcasting, each entry as the scalar function gives it --------


def add(a, b) -> LogArray:
    """``ladd`` of each pair of entries."""
    return _sum(_lift(a), _lift(b), 0)


def sub(a, b) -> LogArray:
    """``lsub`` of each pair of entries."""
    return _sum(_lift(a), _lift(b), 1)


def _sum(a: LogArray, b: LogArray, op: int) -> LogArray:
    """``add`` (op 0) or ``sub`` (op 1)."""
    if not (a.exact or b.exact):
        out = FLOAT_FORM[op](a.values, b.values)
        if op and b.ints is not None:
            # lsub adds an int's negation as a float: a zero difference is +0.0
            wrong = np.asarray(out).view(np.int64) == _NEGATIVE_ZERO
            if np.count_nonzero(wrong):
                out = np.where(wrong & b.ints, 0.0, out)
        if a.ints is None or b.ints is None:
            return _made(out)
        ints = _any(np.broadcast_to(a.ints & b.ints, out.shape))
        if ints is None or np.abs(out[ints]).max() <= _FLOAT_SAFE:
            return _made(out, ints)
    return _exact(EXACT_FORM[op], a, b)


def neg(a: LogArray) -> LogArray:
    """The negation of each entry, exactly and in the entry's own type."""
    return _made(-a.values, a.ints)


def logaddexp(a, b) -> LogArray:
    """``logaddexp_mag`` of each pair of entries: where one is -inf it gives
    the other unchanged, an int or -0.0 included."""
    a, b = _lift(a), _lift(b)
    if a.exact or b.exact:
        return _exact(EXACT_FORM[2], a, b)
    a_none, b_none = a.values == -math.inf, b.values == -math.inf
    out = np.where(a_none, b.values, np.where(b_none, a.values, np.logaddexp(a.values, b.values)))
    if a.ints is None and b.ints is None:
        return _made(out)
    return _made(out, _any(np.broadcast_to(np.where(a_none, _marks(b), b_none & _marks(a)),
                                           out.shape)))


def maximum(a, b) -> LogArray:
    """The larger of each pair of entries, the first of two equal ones (as
    numpy's object maximum takes it: an int against an equal float, 0.0
    against -0.0)."""
    a, b = _lift(a), _lift(b)
    if a.exact or b.exact:
        return _exact(np.maximum, a, b)
    return where(a.values >= b.values, a, b)


def where(cond, a, b) -> LogArray:
    """Entries of ``a`` where ``cond`` holds, of ``b`` elsewhere."""
    a, b = _lift(a), _lift(b)
    if a.exact or b.exact:
        return _made(np.where(cond, a.objects(), b.objects()))
    out = np.where(cond, a.values, b.values)
    if a.ints is None and b.ints is None:
        return _made(out)
    return _made(out, _any(np.broadcast_to(np.where(cond, _marks(a), _marks(b)), out.shape)))


def concatenate(arrays) -> LogArray:
    """The arrays joined along their last axis."""
    arrays = [_lift(a) for a in arrays]
    if any(a.exact for a in arrays):
        return _made(np.concatenate([a.objects() for a in arrays], axis=-1))
    return _made(np.concatenate([a.values for a in arrays], axis=-1),
                 _any(np.concatenate([_marks(a) for a in arrays], axis=-1)))


def full(shape, value: float) -> LogArray:
    return _made(np.full(shape, value, dtype=float))


def times(rate, ks: np.ndarray) -> LogArray:
    """rate * k for each int k of ``ks``, as Python multiplies them; a
    sequence of rates gives one row per rate."""
    rates = np.asarray(rate, dtype=object)
    if all(isinstance(r, float) for r in rates.flat):
        return _made(np.multiply.outer(rates.astype(float), ks))
    return LogArray(np.multiply.outer(rates, ks.astype(object)))


def accumulate(a: LogArray) -> LogArray:
    """The running ``ladd`` of a one-dimensional array, in order."""
    if not a.exact:
        out = np.add.accumulate(a.values)
        ints = None if a.ints is None else _any(np.logical_and.accumulate(a.ints))
        if ints is None or np.abs(out[ints]).max() <= _FLOAT_SAFE:
            return _made(out, ints)
    return _made(EXACT_FORM[0].accumulate(a.objects()))


def segmented_max(a: LogArray, bounds: list[int], reverse: bool) -> LogArray:
    """Per index along the last axis, the maximum of the entries strictly
    after it (``reverse``) or strictly before it within its stretch, the
    stretches starting at ``bounds`` (the last bound ends the last one);
    -inf where there is none, and before ``bounds[0]``. Of equal entries the
    first met is kept, as in ``maximum``. Each row of a two-dimensional
    array is taken on its own."""
    v = a.values
    size = v.shape[-1]
    out = np.full(v.shape, -math.inf, dtype=v.dtype)
    # of equal floats the first is taken by position where they may differ:
    # an int and a float, or 0.0 and -0.0
    ties = not a.exact and (a.ints is not None
                            or np.count_nonzero(v.view(np.int64) == _NEGATIVE_ZERO))
    src = np.full(v.shape, size) if ties else None
    for s, e in zip(bounds, bounds[1:]):
        e = min(e, size)
        if s >= e:
            break
        if reverse:
            peak = np.maximum.accumulate(v[..., s + 1:e][..., ::-1], axis=-1)
            out[..., s:e - 1] = peak[..., ::-1]
            if ties:
                src[..., s:e - 1] = e - 1 - _firsts(peak)[..., ::-1]
        else:
            out[..., s + 1:e] = peak = np.maximum.accumulate(v[..., s:e - 1], axis=-1)
            if ties:
                src[..., s + 1:e] = s + _firsts(peak)
    if not ties:
        return _made(out)
    padded = concatenate([a, full((*v.shape[:-1], 1), -math.inf)])
    return _made(np.take_along_axis(padded.values, src, -1),
                 None if padded.ints is None else _any(np.take_along_axis(padded.ints, src, -1)))


def _firsts(peak: np.ndarray) -> np.ndarray:
    """Per index of a running maximum along the last axis, the first
    position where it is met."""
    rises = np.ones(peak.shape, dtype=bool)
    rises[..., 1:] = peak[..., 1:] > peak[..., :-1]
    return np.maximum.accumulate(np.where(rises, np.arange(peak.shape[-1]), 0), axis=-1)
