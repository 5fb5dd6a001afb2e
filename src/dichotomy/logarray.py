"""Log-magnitudes in numpy arrays, in float64 or exact form.

The kernels and scans compute many log-magnitudes at once. Where every
operand is a float they use float64 arrays and numpy's ufuncs; otherwise
object arrays through the exact scalar arithmetic of ``logscalar``, in the
same order, so both forms give the same bits where both apply.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .logscalar import LogMag, ladd, lfloat, logaddexp_mag, lsub


class ArrayForm(NamedTuple):
    """Elementwise log-magnitude arithmetic on numpy arrays.

    ``FLOAT_FORM`` works on float64 arrays with numpy's own ufuncs;
    ``EXACT_FORM`` works on object arrays through ``ladd``, ``lsub`` and
    ``logaddexp_mag``, so ``int`` and ``Fraction`` logs stay exact and keep
    their types. Where every operand is a float, both give the same bits.
    Float overflow in the float form gives +-inf, as ``ladd`` does; callers
    wrap it in ``np.errstate``.
    """

    dtype: type
    add: np.ufunc
    sub: np.ufunc
    logaddexp: np.ufunc


FLOAT_FORM = ArrayForm(float, np.add, np.subtract, np.logaddexp)
EXACT_FORM = ArrayForm(
    object,
    np.frompyfunc(ladd, 2, 1),
    np.frompyfunc(lsub, 2, 1),
    np.frompyfunc(logaddexp_mag, 2, 1),
)


class LogTable(NamedTuple):
    """Log-magnitudes in an array of either form.

    A two-dimensional float64 table may stand for values that exact
    arithmetic keeps as ``int`` (the empty product's log 0, say); ``ints``
    marks those entries, and ``tolist`` gives them back as ints. ``ints`` is
    None for an object table, whose entries keep their own types, and for a
    float64 table of floats only.
    """

    values: np.ndarray
    ints: np.ndarray | None = None

    @property
    def form(self) -> ArrayForm:
        return EXACT_FORM if self.values.dtype == object else FLOAT_FORM

    @property
    def T(self) -> "LogTable":
        return LogTable(self.values.T, None if self.ints is None else self.ints.T)

    def tolist(self, stop: int | None = None) -> list[list[LogMag]]:
        """The rows as lists of Python numbers, each cut before column ``stop``."""
        rows = self.values[:, :stop].tolist()
        if self.ints is not None:
            for r, c in zip(*np.nonzero(self.ints[:, :stop])):
                rows[r][c] = int(rows[r][c])
        return rows

    def item(self, *index) -> LogMag:
        """One entry as a Python number, an int where ``ints`` marks one."""
        value = self.values.item(*index)
        return int(value) if self.ints is not None and self.ints.item(*index) else value


def as_floats(values: np.ndarray) -> np.ndarray:
    """A float64 array of log-magnitudes; an object array goes through ``lfloat``."""
    if values.dtype == object:
        return np.array([lfloat(v) for v in values], dtype=float)
    return values
