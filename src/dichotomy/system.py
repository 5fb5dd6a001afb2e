"""Systems x_{n+1} = A(n) x_n, projection families, and evolution products.

The evolution operator from time n to time m >= n is the left-ordered
product ``A(m) * ... * A(n+1)`` (the identity when m = n), so coefficient
index 0 never enters a product. Two coefficient representations coexist:

* ``ExplicitSequence``: dense real matrices stored as doubles, valid on a
  declared index range, with overflow detection on products.
* ``DiagonalClosedForm``: one range function per coordinate, valid for
  every index, that gives the factors of a stretch of indices as arrays of
  log-magnitudes and signs, so magnitudes like exp(n * 2**n) remain exactly
  computable and the prefix log-sums are built one array pass per stretch.

Norms: dense systems use the Euclidean vector norm and the spectral
operator norm; diagonal systems use the max norm, under which restriction
to coordinate subsets decomposes exactly per coordinate. Both are valid
instantiations of the abstract norm the theory leaves unspecified; the
choice is recorded in the ``norm`` field.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateRangeError,
    DenseOverflowError,
    IncompatibleProjectionError,
    IndexOrderError,
    InvalidProjectionError,
    LogOverflowError,
    OutOfRangeError,
)
from .logarray import (
    LogArray,
    _log_values,
    accumulate,
    add,
    concatenate,
    full,
    maximum,
    segmented_max,
    sub,
    times,
    where,
)
from .logscalar import LogMag, LogScalar, lsub

DEFAULT_TOL_PROJ = 1e-9
DEFAULT_TOL_COMPAT = 1e-9
_RANK_TOL = 1e-9  # projection rank: singular values above this share of the largest
# The images that one block of dense rows holds at most, in bytes: larger
# blocks take fewer numpy calls per row, and hold more memory at once.
_BLOCK_BYTES = 2**18


FactorRange = Callable[[int, int], tuple[np.ndarray, np.ndarray]]


class DiagonalClosedForm:
    """One range function per coordinate: ``factors[i](lo, hi)`` gives the
    factors a_i(lo), ..., a_i(hi) as two arrays, their log-magnitudes and
    their signs (-1, 0 or +1; 0 for a zero factor, whose log is ignored).

    The logs are a ``LogArray`` or an array that its constructor takes
    (float64, or an object array of ``int``, ``Fraction`` or ``float`` logs).
    The constructor takes per-index functions n -> LogScalar and wraps each
    one; ``from_ranges`` takes range functions.
    """

    def __init__(self, entries: Sequence[Callable[[int], LogScalar]]):
        self.factors = _nonempty([_per_index(entry) for entry in entries])

    @classmethod
    def from_ranges(cls, factors: Sequence[FactorRange]) -> "DiagonalClosedForm":
        form = cls.__new__(cls)
        form.factors = _nonempty(factors)
        return form

    @property
    def dim(self) -> int:
        return len(self.factors)


def _nonempty(factors: Sequence[FactorRange]) -> tuple[FactorRange, ...]:
    if not factors:
        raise ValueError("need at least one coordinate function")
    return tuple(factors)


def _per_index(entry: Callable[[int], LogScalar]) -> FactorRange:
    """The range function of a per-index coefficient function."""

    def factors(lo: int, hi: int) -> tuple[LogArray, np.ndarray]:
        values = [entry(n) for n in range(lo, hi + 1)]
        return LogArray([v.logmag for v in values]), np.array([v.sign for v in values])

    return factors


def positive_factors(logs) -> tuple[LogArray, np.ndarray]:
    """Factors exp(logs): positive, and zero where a log is -inf."""
    logs = LogArray(logs)
    return logs, (logs.values != -math.inf).astype(np.int8)


class ExplicitSequence:
    """Dense coefficients A(0), ..., A(n_max) as double matrices."""

    def __init__(self, matrices: Sequence):
        mats = [np.asarray(m, dtype=float) for m in matrices]
        if not mats:
            raise ValueError("empty coefficient list")
        d = mats[0].shape[0]
        for m in mats:
            if m.shape != (d, d):
                raise ValueError("coefficient matrices must share a square shape")
            if not np.all(np.isfinite(m)):
                raise DenseOverflowError("non-finite entry in a declared coefficient")
        self.matrices = mats

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def n_max(self) -> int:
        return len(self.matrices) - 1


class SystemDescription:
    """A coefficient sequence plus its ambient dimension and the norm its
    representation uses."""

    def __init__(self, dim: int, coefficients):
        if dim <= 0:
            raise ValueError("dimension must be positive")
        if coefficients.dim != dim:
            raise ValueError("coefficient dimension does not match dim")
        self.dim = dim
        self.coefficients = coefficients
        self.norm = "max" if self.is_diagonal else "spectral"
        # per-coordinate prefix data (diagonal systems)
        self._prefix_mag: list[LogArray] | None = None
        self._prefix_neg: list[np.ndarray] | None = None
        self._prefix_zero: list[np.ndarray] | None = None

    @property
    def is_diagonal(self) -> bool:
        return isinstance(self.coefficients, DiagonalClosedForm)

    @property
    def n_max(self) -> int | None:
        """Largest declared coefficient index; None when unbounded."""
        if self.is_diagonal:
            return None
        return self.coefficients.n_max

    def check_pair(self, m: int, n: int) -> None:
        if m < n:
            raise IndexOrderError(f"need m >= n, got (m, n) = ({m}, {n})")
        if n < 0:
            raise OutOfRangeError(f"negative start index {n}")
        if self.n_max is not None and m > self.n_max:
            raise OutOfRangeError(f"index {m} beyond declared range {self.n_max}")

    def coefficient(self, n: int) -> np.ndarray:
        if self.is_diagonal:
            raise TypeError("diagonal systems expose coefficients per coordinate")
        if not 0 <= n <= self.coefficients.n_max:
            raise OutOfRangeError(f"coefficient index {n} outside 0..{self.coefficients.n_max}")
        return self.coefficients.matrices[n]

    # -- diagonal prefix sums ------------------------------------------------
    # pre[i][t] = sum_{k=1..t} log|a_i(k)|, so a product over (n, m] has
    # log-magnitude pre[i][m] - pre[i][n]; exact log-magnitude types survive.

    def _ensure_prefix(self, upto: int) -> None:
        if self._prefix_mag is None:
            self._prefix_mag = [LogArray(np.zeros(1, dtype=int))] * self.dim
            self._prefix_neg = [np.zeros(1, dtype=int)] * self.dim
            self._prefix_zero = [np.zeros(1, dtype=int)] * self.dim
        for i, factors in enumerate(self.coefficients.factors):
            mags, negs, zeros = self._prefix_mag[i], self._prefix_neg[i], self._prefix_zero[i]
            lo = len(mags)
            if upto < lo:
                continue
            logs, signs = factors(lo, upto)
            nonzero = signs != 0
            # sums[j]: the log-sum after the first j nonzero factors among
            # lo..upto, from the cached one; a zero factor leaves it as it was
            with np.errstate(over="ignore", invalid="ignore"):
                sums = accumulate(concatenate([mags[-1:], LogArray(logs)[nonzero]]))
            bad = np.flatnonzero(sums.nonfinite())
            if bad.size:
                k = lo + int(np.flatnonzero(nonzero)[bad[0] - 1])
                raise LogOverflowError(
                    f"coordinate {i}: the log-magnitude of the product of factors "
                    f"1..{k} is not a finite double"
                )
            self._prefix_mag[i] = concatenate([mags, sums[np.cumsum(nonzero)]])
            self._prefix_neg[i] = np.concatenate([negs, negs[-1] + np.cumsum(signs < 0)])
            self._prefix_zero[i] = np.concatenate([zeros, zeros[-1] + np.cumsum(~nonzero)])

    def diag_prefix(self, upto: int) -> tuple[list[LogArray], list[np.ndarray]]:
        """Per-coordinate prefix log-sums and zero-factor counts on 0..upto:
        the live cache (valid at least through ``upto``), which callers must
        not modify. A scan takes the part it reads with ``LogArray.pick``."""
        self._ensure_prefix(upto)
        return self._prefix_mag, self._prefix_zero

    def diag_factor(self, i: int, m: int, n: int) -> LogScalar:
        """Coordinate i of the evolution product over (n, m]."""
        self._ensure_prefix(m)
        zeros, negs, mags = self._prefix_zero[i], self._prefix_neg[i], self._prefix_mag[i]
        if zeros[m] - zeros[n] > 0:
            return LogScalar.zero()
        sign = -1 if (negs[m] - negs[n]) % 2 else 1
        return LogScalar(sign, lsub(mags.item(m), mags.item(n)))


def _overflow(n: int, k: int) -> DenseOverflowError:
    return DenseOverflowError(
        f"product over ({n}, {k}] overflows doubles; declare the system in diagonal closed form"
    )


class ProjectionFamily:
    """Idempotent operators P(n); the complement Q(n) = I - P(n).

    Two forms: a coordinate mask (constant tuple of bools, or a function
    of n), which is the only form accepted for diagonal systems, or
    explicit projection matrices (constant or per index). A family given
    by a fixed mask or matrix is ``constant``: it is checked once, when it
    is built.
    """

    def __init__(self, dim: int, mask=None, matrix=None):
        if (mask is None) == (matrix is None):
            raise ValueError("exactly one of mask or matrix is required")
        self.dim = dim
        self._mask = None
        self._matrix = None
        self.constant = not callable(mask if matrix is None else matrix)
        if mask is not None:
            if callable(mask):
                self._mask = mask
            else:
                fixed = tuple(bool(b) for b in mask)
                if len(fixed) != dim:
                    raise ValueError("mask length must equal dim")
                self._mask = lambda n: fixed
        else:
            if callable(matrix):
                self._matrix = matrix
            else:
                fixed_m = _finite(np.asarray(matrix, dtype=float))
                if fixed_m.shape != (dim, dim):
                    raise ValueError("projection matrix must be dim x dim")
                self._matrix = lambda n: fixed_m

    @property
    def is_mask(self) -> bool:
        return self._mask is not None

    def mask(self, n: int) -> tuple[bool, ...]:
        if self._mask is None:
            raise TypeError("matrix-specified projection has no coordinate mask")
        if self.constant:
            return self._mask(n)
        got = tuple(bool(b) for b in self._mask(n))
        if len(got) != self.dim:
            raise ValueError("mask length must equal dim")
        return got

    def matrix(self, n: int) -> np.ndarray:
        if self._mask is not None:
            return np.diag([1.0 if b else 0.0 for b in self.mask(n)])
        if self.constant:
            return self._matrix(n)
        return _finite(np.asarray(self._matrix(n), dtype=float))

    def complement_matrix(self, n: int) -> np.ndarray:
        return np.eye(self.dim) - self.matrix(n)

    def split(self, n: int, x) -> tuple[np.ndarray, np.ndarray]:
        """(P(n) x, Q(n) x); a mask copies the entries of x into the parts."""
        x = np.asarray(x, dtype=float)
        if self._mask is not None:
            mask = self.mask(n)
            return np.where(mask, x, 0.0), np.where(mask, 0.0, x)
        return self.matrix(n) @ x, self.complement_matrix(n) @ x

    def idempotence_defect(self, n: int) -> float:
        if self._mask is not None:
            return 0.0
        p = self.matrix(n)
        return float(np.linalg.norm(p @ p - p, 2))

    def validate(self, n_lo: int, n_hi: int) -> None:
        """Raise unless P(n) is idempotent for n_lo <= n <= n_hi; each
        distinct matrix is checked once."""
        if self._mask is not None:
            return
        seen = set()
        for n in range(n_lo, n_hi + 1):
            key = self.matrix(n).tobytes()
            if key in seen:
                continue
            seen.add(key)
            d = self.idempotence_defect(n)
            if not d <= DEFAULT_TOL_PROJ:
                raise InvalidProjectionError(f"projection at n={n} fails idempotence by {d:.3e}")
            if self.constant:
                return


def _finite(matrix: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(matrix)):
        raise InvalidProjectionError("non-finite entry in a projection matrix")
    return matrix


def _require_mask_for_diagonal(sys: SystemDescription, proj: ProjectionFamily) -> None:
    if sys.is_diagonal and not proj.is_mask:
        raise InvalidProjectionError("diagonal systems require coordinate-mask projections")


def compatibility_defect(sys: SystemDescription, proj: ProjectionFamily, n: int) -> float:
    """Operator-norm size of A(n+1) P(n) - P(n+1) A(n+1); 0 means compatible."""
    if sys.n_max is not None and n + 1 > sys.n_max:
        raise OutOfRangeError(f"compatibility at n={n} needs coefficient {n + 1}")
    if n < 0:
        raise OutOfRangeError(f"negative index {n}")
    if sys.is_diagonal:
        _require_mask_for_diagonal(sys, proj)
        before, after = proj.mask(n), proj.mask(n + 1)
        if before == after:
            return 0.0
        worst = 0.0
        for i, factors in enumerate(sys.coefficients.factors):
            if before[i] != after[i]:
                logs, signs = factors(n + 1, n + 1)
                if signs[0]:
                    worst = max(worst, LogScalar(1, logs.tolist()[0]).to_float())
        return worst
    a = sys.coefficient(n + 1)
    gap = a @ proj.matrix(n) - proj.matrix(n + 1) @ a
    return float(np.linalg.norm(gap, 2))


def check_compatibility(
    sys: SystemDescription, proj: ProjectionFamily, n_lo: int, m_hi: int
) -> None:
    """Raise unless the family is idempotent and commutes with the dynamics
    on [n_lo, m_hi]."""
    check_pairs_compatibility(sys, proj, [m_hi], [n_lo])


def check_pairs_compatibility(
    sys: SystemDescription,
    proj: ProjectionFamily,
    ms: Sequence[int],
    ns: Sequence[int],
) -> None:
    """Raise unless the family is idempotent at every index of the ranges
    [n, m] of the pairs (ms[i], ns[i]) and commutes with the dynamics at
    every index of their ranges [n, m). Each index is checked once, and none
    that lies between the ranges; a diagonal system with a constant mask
    commutes everywhere."""
    if not proj.is_mask:  # a mask is idempotent
        for lo, hi in _merged(zip(ns, ms)):
            proj.validate(lo, hi)
    if sys.is_diagonal and proj.is_mask and proj.constant:
        return
    for lo, hi in _merged((n, m - 1) for m, n in zip(ms, ns)):
        for k in range(lo, hi + 1) if sys.is_diagonal else _unscreened(sys, proj, lo, hi):
            d = compatibility_defect(sys, proj, k)
            if d > DEFAULT_TOL_COMPAT:
                raise IncompatibleProjectionError(
                    f"compatibility defect {d:.3e} at n={k} exceeds tolerance "
                    f"{DEFAULT_TOL_COMPAT:.1e}"
                )


def _unscreened(sys: SystemDescription, proj: ProjectionFamily, lo: int, hi: int) -> list[int]:
    """The indices k of lo..hi, in order, that a dense compatibility check
    must still take one at a time: every gap A(k+1) P(k) - P(k+1) A(k+1) is
    formed by stacked products, and one whose Frobenius norm, an upper bound
    on its 2-norm, is at most half the tolerance passes; an index outside
    0..n_max - 1 is kept, so that it raises as before."""
    first, last = max(lo, 0), min(hi, sys.n_max - 1)
    passed = np.zeros(hi - lo + 1, dtype=bool)
    if first <= last:
        a = np.array(sys.coefficients.matrices[first + 1:last + 2])
        p = np.array([proj.matrix(k) for k in range(first, last + 2)])
        frobenius = np.linalg.norm(a @ p[:-1] - p[1:] @ a, axis=(1, 2))
        passed[first - lo:last - lo + 1] = frobenius <= DEFAULT_TOL_COMPAT / 2
    return (lo + np.flatnonzero(~passed)).tolist()


def _merged(ranges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The union of the integer ranges [lo, hi] as sorted disjoint ranges;
    an empty range (hi < lo) adds nothing."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(r for r in ranges if r[0] <= r[1]):
        if out and lo <= out[-1][1] + 1:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


@dataclass(frozen=True)
class RestrictedExtremes:
    """Extremal magnitudes of the evolution over the two projected ranges.

    growth_p  = sup of |A(m,n) u| over unit u in range P(n)
    min_gain_q = inf of |A(m,n) v| over unit v in range Q(n)

    A trivial P range gives growth_p = 0; a trivial Q range gives
    min_gain_q = +inf (both constraints become vacuous downstream).
    """

    growth_p: LogScalar
    min_gain_q: LogScalar
    direction_p: tuple[float, ...] | None = None
    direction_q: tuple[float, ...] | None = None


def _range_basis(p_matrix: np.ndarray) -> np.ndarray:
    u, s, _ = np.linalg.svd(p_matrix)
    if s.size == 0 or s[0] <= _RANK_TOL:
        return u[:, :0]
    rank = int(np.sum(s > _RANK_TOL * s[0]))
    return u[:, :rank]


def restricted_extremes(
    sys: SystemDescription,
    proj: ProjectionFamily,
    m: int,
    n: int,
    strict: bool = False,
) -> RestrictedExtremes:
    """Extreme restricted magnitudes of the evolution operator at (m, n).

    With ``strict=True`` a trivial Q range raises DegenerateRangeError
    instead of signalling through the +inf convention. Dense systems are
    swept with re-projection, which assumes the family is compatible with
    the dynamics on [n, m] (``check_compatibility``).
    """
    sys.check_pair(m, n)
    ext = _sweeps(sys, proj, n, m).row(n).extremes(m)
    if strict and ext.direction_q is None:
        raise DegenerateRangeError("Q range is trivial at this index")
    return ext


def _unit(dim: int, i: int) -> tuple[float, ...]:
    return tuple(1.0 if j == i else 0.0 for j in range(dim))


@dataclass(frozen=True)
class RatioExtremes:
    """Extremal growth ratios between two evolution horizons, seeded at p.

    ratio_p = sup over u in range P(p) of |A(m,p) u| / |A(n,p) u|
    ratio_q = sup over v in range Q(p) of |A(n,p) v| / |A(m,p) v|
    """

    ratio_p: LogScalar
    ratio_q: LogScalar


def restricted_ratio_extremes(
    sys: SystemDescription, proj: ProjectionFamily, m: int, n: int, p: int
) -> RatioExtremes:
    """Ratio extremes seeded at p; dense systems assume compatibility on
    [p, m], as in ``restricted_extremes``."""
    if not (m >= n >= p >= 0):
        raise IndexOrderError(f"need m >= n >= p >= 0, got ({m}, {n}, {p})")
    sys.check_pair(m, p)
    logs = _sweeps(sys, proj, p, m).row(p).ratios(m, n)
    return RatioExtremes(*map(LogScalar.from_log, logs))


def _killed(s: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Per singular value (largest first along the last axis) of a matrix of
    ``shape``: whether the matrix kills its direction, to rounding."""
    return s <= s[..., :1] * max(shape) * np.finfo(float).eps


def _sup_ratios(out: np.ndarray, images: np.ndarray, svd, num, den, witness=False):
    """log sup over z of |images[num[t]] z| / |images[den[t]] z| into
    ``out[t]`` for every t, with den = U S V^T from ``svd`` (the reduced SVD of
    every image), one batched call per number r of directions den keeps (the
    killed ones, ``_killed``, are a suffix of V). A killed v takes no part if
    |num v| is within the same share of |num|, as a coordinate annihilated at
    both horizons of a diagonal ratio; else the ratio is unbounded. Over the
    kept ones it is the top singular value of num V_r S_r^-1 (-inf if r = 0),
    whose rounding grows with cond(den), not its square. Returns the unit z
    that attain them: that v with the largest |num v|, or V_r S_r^-1 w,
    normalised, w the top right singular vector, if r < len(V) or ``witness``."""
    _, s, vt = svd
    width = s.shape[-1]
    kept = np.count_nonzero(~_killed(s, images.shape[1:]), axis=-1)[den]
    zs = np.empty((len(num), width))
    for r in np.unique(kept).tolist() if kept.min(initial=width) < width else [width]:
        at = np.flatnonzero(kept == r)
        if r < width:
            x, v = images[num[at]], vt[den[at]]
            leak = np.linalg.norm(x @ v[:, r:].transpose(0, 2, 1), axis=1)
            share = np.linalg.norm(x, 2, axis=(1, 2)) * max(x.shape[1:]) * np.finfo(float).eps
            unbounded = (leak > share[:, None]).any(axis=1)
            out[at] = np.where(unbounded, math.inf, -math.inf)  # -inf: den and num are zero
            zs[at] = v[np.arange(len(at)), np.where(unbounded, r + leak.argmax(axis=1), 0)]
            at = at[~unbounded]
        if not r:
            continue
        b = den[at]
        stack = (images[num[at]] @ vt[b, :r].transpose(0, 2, 1)) / s[b, None, :r]
        if r == width and not witness:
            out[at] = _log_values(np.linalg.svd(stack, compute_uv=False)[:, 0])
            continue
        _, top, wt = np.linalg.svd(stack)
        z = vt[b, :r].transpose(0, 2, 1) @ (wt[:, 0] / s[b, :r])[..., None]
        out[at], zs[at] = _log_values(top[:, 0]), (z / np.sqrt(z.transpose(0, 2, 1) @ z))[..., 0]
    return zs


class _DenseSweeps:
    """The dense pair-extreme kernel: restricted images swept forward.

    Under compatibility A(m, n) P(n) = P(m) A(m) P(m-1) ... A(n+1) P(n), so
    the image of range P(n) at time k is X_k = P(k) A(k) X_{k-1}, started
    from a basis X_n of range P(n); likewise for Q. The re-projection
    changes nothing in exact arithmetic. In doubles it keeps the rounding
    that leaks into the other range from growing with that range's dynamics,
    which would otherwise swamp a contracting P side next to an expanding Q
    side. The projected coefficients of [lo, hi] are formed once, and the
    range bases once per distinct projection matrix.

    Rows are swept in blocks of consecutive start indices whose ranges share
    their widths, at most ``_BLOCK_BYTES`` of images at a time: one stacked
    ``matmul`` per step and side advances every row of the block, and one
    batched singular-value call per side gives the extremes of all its
    pairs. Each row's images and logs are those of its own sweep, bit for
    bit. Blocks are built when a row of theirs is first asked for, and only
    the last one is kept.
    """

    def __init__(self, sys: SystemDescription, proj: ProjectionFamily, lo: int, hi: int):
        sys.check_pair(hi, lo)
        self.lo, self.hi = lo, hi
        self.projections = np.array([proj.matrix(k) for k in range(lo, hi + 1)])
        self.coeffs = np.array([sys.coefficient(k) for k in range(lo, hi + 1)])
        pa = self.projections @ self.coeffs
        self.steps = {"P": pa, "Q": self.coeffs - pa}
        self._bases: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        self._block: list[_DenseRow] = []

    def bases(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal bases of ranges P(n) and Q(n)."""
        p = self.projections[n - self.lo]
        key = p.tobytes()
        if key not in self._bases:
            self._bases[key] = (_range_basis(p), _range_basis(np.eye(len(p)) - p))
        return self._bases[key]

    def images(self, part: str, starts: np.ndarray, s: int, upto: int) -> np.ndarray:
        """Images of each block ``starts[j]`` (in range P(s + j) or Q(s + j),
        ``part`` "P" or "Q") at k = s + j..upto, entry [k - s, j] of one
        stack; the entries with k < s + j are not set. Step k advances every
        row started before it in one ``matmul``."""
        steps, lo, rows = self.steps[part], self.lo, len(starts)
        out = np.empty((upto - s + 1, *starts.shape))
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(upto - s + 1):
                live = min(t, rows)
                if live:
                    np.matmul(steps[s + t - lo], out[t - 1, :live], out=out[t, :live])
                if t < rows:
                    out[t, t] = starts[t]
        return out

    def row(self, n: int) -> "_DenseRow":
        block = self._block
        if not block or not block[0].n <= n <= block[-1].n:
            self._block = block = self._sweep_block(n)
        return block[n - block[0].n]

    def _sweep_block(self, s: int) -> list["_DenseRow"]:
        """The rows of the block that starts at s: the rows s, s + 1, ...
        whose ranges have the widths of those at s, at most s - lo + 1 of
        them and as many as fit in ``_BLOCK_BYTES``. Blocks taken in order
        thus double in size from one row, so that a scan that stops at row n
        has swept fewer than 2 (n - lo + 1) rows. Each row ends before the
        first index at which either image is not finite."""
        hi, (bp, bq) = self.hi, self.bases(s)
        shape = (bp.shape[1], bq.shape[1])
        row_bytes = 8 * len(bp) * sum(shape) * (hi - s + 1)
        count = min(s - self.lo + 1, max(1, _BLOCK_BYTES // max(row_bytes, 1)))
        bases = []
        for n in range(s, min(hi + 1, s + count)):
            pair = self.bases(n)
            if (pair[0].shape[1], pair[1].shape[1]) != shape:
                break
            bases.append(pair)
        xs = self.images("P", np.array([p for p, _ in bases]), s, hi)
        ys = self.images("Q", np.array([q for _, q in bases]), s, hi)
        finite = np.isfinite(xs).all(axis=(2, 3)) & np.isfinite(ys).all(axis=(2, 3))
        sizes = []
        for j in range(len(bases)):
            col = finite[j:, j]
            sizes.append(len(col) if col.all() else int(np.argmin(col)))
        # the pairs (n, m) of the block, row by row: stack entry [m - s, n - s]
        t = np.arange(hi - s + 1)
        held = np.array([(t >= j) & (t < j + size) for j, size in enumerate(sizes)])
        growth = _block_logs(xs, held, shape[0], 0, -math.inf)
        gain = _block_logs(ys, held, shape[1], -1, math.inf)
        ends = np.cumsum(sizes)
        # the pair (n, n) of a nontrivial range has growth and gain 1 exactly,
        # as on a diagonal system; the singular values of its orthonormal
        # basis are 1 only up to rounding
        for logs, width in ((growth, shape[0]), (gain, shape[1])):
            if width:
                logs[ends - sizes] = 0.0
        return [
            _DenseRow(s + j, *basis, xs[j:j + size, j], ys[j:j + size, j],
                      (growth[end - size:end], gain[end - size:end]), hi)
            for j, (basis, size, end) in enumerate(zip(bases, sizes, ends.tolist()))
        ]

    def seed_directions(self, part: str, n: int) -> list[tuple[float, ...]]:
        """Unit directions spanning range P(n) or Q(n) (``part`` "P" or "Q"):
        the columns of its basis."""
        return [tuple(x) for x in self.bases(n)[part == "Q"].T.tolist()]

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(log growth_P, log min_gain_Q, m - n) of every pair as (n, m)
        tables over [lo, hi], filled one row at a time; the entries with
        m < n are -inf and +inf, so they demand nothing."""
        lo, size = self.lo, self.hi - self.lo + 1
        growth = np.full((size, size), -np.inf)
        gain = np.full((size, size), np.inf)
        for k in range(size):
            row = self.row(lo + k)
            row._at(self.hi)  # an overflowed row raises at its first pair beyond its end
            growth[k, k:], gain[k, k:] = row.row_logs
        steps = np.arange(size, dtype=float)
        return growth, gain, steps - steps[:, None]

    def rows(self, alpha, hi: int) -> LogArray:
        """Row n = lo..hi: the largest alpha (m - n) + log growth_P(m, n)
        over n <= m <= hi; a lower bound on log R_P(n). A sequence of rates
        gives one such row per rate."""
        growth, _, gap = self._pairs
        size = hi - self.lo + 1
        growth, gap = growth[:size, :size], gap[:size, :size]
        return _per_rate(alpha, lambda a: np.max(a * gap + growth, axis=1))

    def cols(self, alpha) -> LogArray:
        """Column m = lo..hi: the largest alpha (m - n) - log min_gain_Q(m, n)
        over lo <= n <= m; a lower bound on log R_Q(m). A sequence of rates
        gives one such row per rate."""
        _, gain, gap = self._pairs
        return _per_rate(alpha, lambda a: np.max(a * gap - gain, axis=0))

    def rows_to_scan(self, alpha: float, weights, tol: float):
        """The rows to check to hi, no least slack, and the short pairs of
        every row (``_dense_plan.short_pairs``) or None. With short pairs
        there is no such row: the caller checks the short pairs as one
        block, and every row if one of them violates. Without, it checks
        every row as one array over its ``row_logs``; the rows come from
        blocks built in order, so a scan that stops early sweeps few rows
        beyond it."""
        # imported here, so that ``import dichotomy`` does not compile it
        from ._dense_plan import short_pairs

        short = short_pairs(self, alpha, weights, tol)
        return range(self.lo, self.hi + 1) if short is None else [], math.inf, short

    def triplet_rows_to_scan(
        self, alpha: float, weights, tol: float
    ) -> tuple[list[tuple[int, range]], float]:
        """Every row of every seed, and no least slack, as ``rows_to_scan``."""
        hi = self.hi
        return [(p, range(p, hi + 1)) for p in range(self.lo, hi + 1)], math.inf

    def trajectories(self, part: str, xs, seeds, at) -> LogArray:
        """log |A(j, s) x| as in ``_DiagonalSweeps.trajectories``, for rows x
        in range P(s) or Q(s) (``part`` "P" or "Q"): one sweep per seed of
        its distinct rows, up to their last horizon."""
        xs, seeds = np.asarray(xs, dtype=float), np.asarray(seeds)
        at = np.broadcast_to(at, (len(xs), np.shape(at)[-1]))
        out = np.full(at.shape, -math.inf)
        for seed in dict.fromkeys(seeds.tolist()):
            rows = np.flatnonzero(seeds == seed)
            upto = int(at[rows].max())
            # one column per distinct row, in order of first appearance
            keys = [xs[r].tobytes() for r in rows.tolist()]
            first = {}
            for r, k in zip(rows.tolist(), keys):
                first.setdefault(k, r)
            column = {k: c for c, k in enumerate(first)}
            images = self.images(part, xs[list(first.values())].T[None], seed, upto)[:, 0]
            finite = np.isfinite(images).all(axis=(1, 2))
            if not finite.all():
                raise _overflow(seed, seed + int(np.argmin(finite)))
            logs = _log_norms(images).T
            steps = at[rows] - seed
            picked = logs[[[column[k]] for k in keys], np.maximum(steps, 0)]
            out[rows] = np.where(steps >= 0, picked, -math.inf)
        return LogArray(out)


def _per_rate(rate, scan) -> LogArray:
    """``scan(rate)`` as a LogArray; for a sequence of rates, one row per
    rate, each reduced on its own so that no table per rate is held."""
    if np.ndim(rate) == 0:
        return LogArray(scan(rate))
    return LogArray(np.array([scan(a) for a in rate]))


class _Row:
    """The surface that the rows of both kernels share, over each row's own
    ``logs_at`` and ``_ratios(i, j)`` (the ratios at the horizons
    (n + i[t], n + j[t]) for every t): a row starts at ``n`` and ends at
    ``end``, within the window's last index ``hi``."""

    def _at(self, m: int) -> int:
        if m > self.end:
            raise _overflow(self.n, self.end + 1)
        return m - self.n

    def logs(self, m: int) -> tuple[LogMag, LogMag]:
        """(log growth_P, log min_gain_Q) at (m, n); -inf / +inf mark trivial
        ranges."""
        growth, gain = self.logs_at([m])
        return growth.item(0), gain.item(0)

    def ratios(self, m: int, k: int) -> tuple[LogMag, LogMag]:
        """(log ratio_P, log ratio_Q) between horizons k <= m, seeded at n;
        -inf marks a trivial range."""
        ratio_p, ratio_q = self._ratios(np.array([self._at(m)]), np.array([k - self.n]))
        return LogArray(ratio_p).item(0), LogArray(ratio_q).item(0)

    def triplet_ratios(self, ks):
        """``ratios(m, k)`` for each k of ``ks`` (ascending, from n) and
        m = k..hi in that order, as flat arrays (k, m, log ratio_P,
        log ratio_Q), cut before the first m beyond ``end``."""
        ks = np.asarray(ks, dtype=int)
        counts = self.hi - ks + 1
        if self.end < self.hi:  # the row overflows: the list ends in row ks[0]
            ks, counts = ks[:1], np.clip(self.end - ks[:1] + 1, 0, None)
        k_of = np.repeat(ks, counts)
        m_of = k_of + np.arange(len(k_of)) - np.repeat(np.cumsum(counts) - counts, counts)
        return k_of, m_of, *self._ratios(m_of - self.n, k_of - self.n)


class _DenseRow(_Row):
    """Restricted images of ranges P(n) and Q(n) from n up to ``end``, the
    last index at which both are finite, and ``row_logs``, the (log
    growth_P, log min_gain_Q) of the pairs (m, n), m = n..end, as float64
    arrays (-inf / +inf for a trivial range). An overflow ends the row, and
    only a request beyond its end raises.

    One SVD of the row per side, taken on the first ratio asked for, gives
    every denominator of ``_ratios`` (X_k on the P side, Y_m on the Q side)
    and the witnesses at k = n and k = m; ``_sup_ratios`` batches the top
    singular values of all the X_m V S^-1 and Y_k V S^-1."""

    def __init__(self, n: int, bp: np.ndarray, bq: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                 row_logs: tuple[np.ndarray, np.ndarray], hi: int):
        self.n, self.bp, self.bq, self.xs, self.ys = n, bp, bq, xs, ys
        self.row_logs = row_logs
        self.end, self.hi = n + len(xs) - 1, hi

    def logs_at(self, ms) -> tuple[LogArray, LogArray]:
        """``logs(m)`` at each m of ``ms`` as two arrays."""
        at = [self._at(m) for m in ms]
        growth, gain = self.row_logs
        return LogArray(growth[at]), LogArray(gain[at])

    def extremes(self, m: int) -> RestrictedExtremes:
        """Restricted extremes at (m, n): ``logs(m)`` and the directions of
        ``direction(m, n, side)``."""
        growth, gain = self.logs(m)
        return RestrictedExtremes(LogScalar.from_log(growth), LogScalar.from_log(gain),
                                  self.direction(m, self.n, "P") or None,
                                  self.direction(m, self.n, "Q") or None)

    def _ratios(self, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ratios at the horizons (n + i[t], n + j[t]) for every t. At
        equal horizons the ratio is 1 exactly, unless the image there is
        zero, as on a diagonal system."""
        ratio_p, ratio_q = np.full(len(j), -math.inf), np.full(len(j), -math.inf)
        if self.bp.shape[1]:
            _sup_ratios(ratio_p, self.xs, self._svd_p, i, j)
        if self.bq.shape[1]:
            _sup_ratios(ratio_q, self.ys, self._svd_q, j, i)
        for ratio in (ratio_p, ratio_q):
            ratio[(i == j) & (ratio != -math.inf)] = 0.0
        return ratio_p, ratio_q

    @cached_property
    def _svd_p(self):
        return np.linalg.svd(self.xs, full_matrices=False)

    @cached_property
    def _svd_q(self):
        return np.linalg.svd(self.ys, full_matrices=False)

    def direction(self, m: int, k: int, side: str) -> tuple[float, ...]:
        """Witness direction of the side's ratio between horizons k <= m. At
        k = n one image is the orthonormal start basis, and at k = m the ratio
        is 1: the row's own SVD gives the top (for Q at k = n, the least)
        right singular vector of the image at m. Otherwise the witness of
        ``_sup_ratios``. Each is mapped through the basis."""
        i, j = self._at(m), k - self.n
        basis = self.bp if side == "P" else self.bq
        if not basis.shape[1]:
            return ()
        images, svd = (self.xs, self._svd_p) if side == "P" else (self.ys, self._svd_q)
        num, den = (i, j) if side == "P" else (j, i)
        if k in (self.n, m):
            z = svd[2][i, -1 if side == "Q" and k == self.n else 0]
        else:
            z = _sup_ratios(np.empty(1), images, svd, np.array([num]), np.array([den]), True)[0]
        return tuple(float(x) for x in basis @ z)


def _block_logs(images: np.ndarray, held: np.ndarray, width: int, which: int,
                empty: float) -> np.ndarray:
    """The log of singular value ``which`` (0 the largest, -1 the least) of
    each image [t, j] of a block with ``held[j, t]``, row j by row j, from one
    batched call; ``empty`` for each when the range has width 0."""
    if not width:
        return np.full(int(held.sum()), empty)
    s = np.linalg.svd(images.transpose(1, 0, 2, 3)[held], compute_uv=False)
    return np.array(_log_values(s[:, which]))


# the norms whose squares neither overflow nor underflow
_SQUARES = (math.sqrt(np.finfo(float).tiny), math.sqrt(np.finfo(float).max))


def _log_norms(images: np.ndarray) -> np.ndarray:
    """log |x| of the columns x of each finite image: the plain norm's log
    within ``_SQUARES``, elsewhere that of x scaled by its largest magnitude
    plus the log of that magnitude."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(images, axis=1)
    logs = np.reshape(_log_values(norms.ravel()), norms.shape)
    off = ~((norms >= _SQUARES[0]) & (norms <= _SQUARES[1]))
    if off.any():
        x = images.transpose(0, 2, 1)[off]
        top = np.abs(x).max(axis=1)
        scaled = np.linalg.norm(x / np.where(top > 0, top, 1.0)[:, None], axis=1)
        logs[off] = np.add(_log_values(top), _log_values(scaled))
    return logs


class _DiagonalSweeps:
    """The diagonal pair-extreme kernel, read off the prefix log-sums.

    Under the max norm the evolution over (n, m] acts on coordinate i by a
    factor of log-magnitude pre_i[m] - pre_i[n], or annihilates it when a
    zero factor a_i(k), n < k <= m, lies in between; every restricted
    extreme, ratio and trajectory is a maximum or minimum of these over a
    set of coordinates. Entries cost O(dim) whatever m - n is, and rows
    are built only when asked for. The surface is that of ``_DenseSweeps``.

    The worst pair of every row or column of the window comes from running
    maxima, in O(W * dim). The P-side excess alpha (m - n) + pre_i[m] -
    pre_i[n] of a pair splits into a term in m and a term in n, so the worst
    m of row n is a suffix maximum of alpha m + pre_i[m] that a zero factor
    restarts; on the Q side a crossed zero factor makes the minimal gain 0
    and the excess +inf. Pairs with m = n are left out (their excess is 0
    on every nonempty range, the floor of every constant); callers account
    for them. Each running maximum is one ``LogArray`` pass per coordinate,
    which combines the terms in the order of the per-pair formula and in
    the form of its operands: the window's prefix log-sums, the rate and the
    weights. Given a column of rates, each pass runs on one row per rate,
    by the same code. The window's arrays are taken on the first scan, so
    kernels that never scan do not pay for them.
    """

    def __init__(self, sys: SystemDescription, proj: ProjectionFamily, lo: int, hi: int):
        sys.check_pair(hi, lo)
        _require_mask_for_diagonal(sys, proj)
        self.dim, self.proj, self.lo, self.hi = sys.dim, proj, lo, hi
        self.pre, self.zeros = sys.diag_prefix(hi)

    def row(self, n: int) -> "_DiagonalRow":
        return _DiagonalRow(self, n)

    def seed_directions(self, part: str, n: int) -> list[tuple[float, ...]]:
        """Unit directions spanning range P(n) or Q(n) (``part`` "P" or "Q"):
        the unit vectors of its coordinates."""
        row = self.row(n)
        return [_unit(self.dim, i) for i in (row.p_coords if part == "P" else row.q_coords)]

    # -- running maxima over the window ----------------------------------------

    @cached_property
    def window(self) -> list[LogArray]:
        """The prefix log-sums of lo..hi per coordinate, each in the form
        that its own values allow."""
        return [pre.pick(slice(self.lo, self.hi + 1)) for pre in self.pre]

    @cached_property
    def in_p(self) -> np.ndarray:
        """(dim, window) flags: coordinate i lies in P(n)."""
        lo, hi, proj = self.lo, self.hi, self.proj
        masks = [proj.mask(lo)] if proj.constant else [proj.mask(n) for n in range(lo, hi + 1)]
        return np.broadcast_to(np.array(masks, dtype=bool).T, (self.dim, hi - lo + 1))

    @cached_property
    def bounds(self) -> list[list[int]]:
        """Per coordinate, the first index of each stretch between zero
        factors, and the window size."""
        lo, hi = self.lo, self.hi
        return [[0, *(np.flatnonzero(np.diff(coord[lo:hi + 1])) + 1).tolist(), hi - lo + 1]
                for coord in self.zeros]

    @cached_property
    def crossed(self) -> list[int]:
        """Per coordinate, the first column that a pair from the first Q
        start reaches only across a zero factor (gain 0)."""
        size = self.hi - self.lo + 1
        first_q = [np.append(np.flatnonzero(~in_p), size)[0] for in_p in self.in_p]
        return [min((b for b in bounds if b > first), default=size)
                for bounds, first in zip(self.bounds, first_q)]

    def rows(self, alpha, hi: int, in_p: np.ndarray | None = None) -> LogArray:
        """Row n = lo..hi: max over i in P(n) and n < m <= hi, with no zero
        factor of i in (n, m], of alpha (m - n) + pre_i[m] - pre_i[n];
        -inf when there is no such pair. A lower bound on log R_P(n).
        ``in_p`` replaces the flags of ``self.in_p``. A sequence of rates
        gives one such row per rate."""
        size = hi - self.lo + 1
        ax, out = times(alpha, np.arange(self.lo, hi + 1)), None
        for pre_i, bounds, in_p in zip(self.window, self.bounds,
                                       self.in_p if in_p is None else in_p):
            if np.count_nonzero(in_p[:size]):
                pre_i = pre_i[:size]
                strict = segmented_max(add(ax, pre_i), bounds, reverse=True)
                out = _larger(out, _only(in_p[:size], sub(sub(strict, ax), pre_i)))
        return full(ax.values.shape, -math.inf) if out is None else out

    def q_rows(self, alpha: LogMag, weights, in_p: np.ndarray | None = None) -> LogArray:
        """Row n = lo..hi: max over j in Q(n) and n < m <= hi of
        alpha (m - n) - weights[m - lo] - (pre_j[m] - pre_j[n]); +inf when a
        zero factor of j lies in (n, hi]; -inf when there is no such pair.
        ``in_p`` replaces the flags of ``self.in_p``."""
        index, out = np.arange(self.hi - self.lo + 1), None
        ax, weights = times(alpha, self.lo + index), LogArray(weights)
        for pre_i, bounds, in_p in zip(self.window, self.bounds,
                                       self.in_p if in_p is None else in_p):
            if not in_p.all():
                run = segmented_max(sub(sub(ax, pre_i), weights), bounds[-2:], reverse=True)
                # rows before the last stretch cross a zero factor
                run = where(index < bounds[-2], math.inf, run)
                out = _larger(out, _only(~in_p, add(sub(run, ax), pre_i)))
        return full(ax.values.shape, -math.inf) if out is None else out

    def cols(self, alpha) -> LogArray:
        """Column m = lo..hi: max over j and lo <= n < m with j in Q(n) of
        alpha (m - n) - (pre_j[m] - pre_j[n]); +inf once such a pair crosses
        a zero factor of j; -inf when there is no such pair. A lower bound
        on log R_Q(m). A sequence of rates gives one such row per rate."""
        index, out = np.arange(self.hi - self.lo + 1), None
        ax = times(alpha, self.lo + index)
        for pre_i, bounds, in_p, crossed in zip(self.window, self.bounds, self.in_p, self.crossed):
            if not in_p.all():
                starts = _only(~in_p, sub(pre_i, ax))
                before = segmented_max(starts, bounds, reverse=False)
                col = sub(add(before, ax), pre_i)
                out = _larger(out, where(index >= crossed, math.inf, col))
        return full(ax.values.shape, -math.inf) if out is None else out

    def rows_to_scan(self, alpha: LogMag, weights, tol: float) -> tuple[list[int], float, None]:
        """The rows lo..hi whose pairs may violate the certificate with the
        weights r(lo..hi), in order, the least slack over the pairs of every
        other row (``_plan``), and no short pairs (``_DenseSweeps``); the
        caller rescans those rows, each as one array over its ``row_logs``,
        and reaches the pair scan's verdict and witness."""
        weights = LogArray(weights)
        cutoff = tol - _ROUNDING_BOUND * self.scale(alpha, weights)
        over, excess = self._plan(alpha, weights, cutoff, tol)
        return (self.lo + np.flatnonzero(over)).tolist(), _least(excess[~over]), None

    def _plan(self, alpha: LogMag, weights: LogArray, cutoff: float, tol: float,
              p_flags=None, q_flags=None) -> tuple[np.ndarray, np.ndarray]:
        """Row n = lo..hi: whether to rescan it, and the largest excess of its
        pairs over their weighted extremes, as floats.

        The pairs m > n come from the running maxima, on the P side (``rows``
        with the flags ``p_flags``, less the weight at n) and on the Q side
        (``q_rows`` with the flags ``q_flags``). These associate the additions
        differently from the per-pair formula, so such an excess is flagged
        above ``cutoff``, within a rounding bound of ``tol``. The pair (n, n)
        has excess -r(n) in both, so it is flagged above ``tol`` itself."""
        g, q = self.rows(alpha, self.hi, p_flags), self.q_rows(alpha, weights, q_flags)
        worst = maximum(sub(g, where(g.values != -math.inf, weights, 0)), q)
        diagonal = -weights.floats()
        return (worst.values > cutoff) | (diagonal > tol), np.maximum(worst.floats(), diagonal)

    def triplet_rows_to_scan(
        self, alpha: LogMag, weights, tol: float
    ) -> tuple[list[tuple[int, list[int]]], float]:
        """Per seed p in order, the rows n whose triplets (p, n, m) may
        violate the certificate, and the least slack over the triplets of
        every other row.

        Seeded at p, the triplet ratios at (n, m) are the pair extremes of
        (n, m) taken over the class of (p, n): the coordinates of P(p) and of
        Q(p) with no zero factor in (p, n]. Each distinct class takes one
        ``rows``/``q_rows`` scan restricted to its coordinates and serves
        every (p, n) where it holds; the triplet (p, n, n) of a nonempty class
        has slack r(n), as the pair (n, n). The rows are flagged as in
        ``rows_to_scan``, with the triplet form's rounding bound.
        """
        lo, hi = self.lo, self.hi
        weights = LogArray(weights)
        cutoff = tol - _TRIPLET_ROUNDING_BOUND * self.scale(alpha, weights)
        classes: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        out, least = [], math.inf
        for p in range(lo, hi + 1):
            rows = []
            for key, a, b in self._classes(p - lo):
                if key not in classes:
                    state = np.array(key)[:, None]
                    shape = (self.dim, hi - lo + 1)
                    classes[key] = self._plan(alpha, weights, cutoff, tol,
                                              np.broadcast_to(state == 1, shape),
                                              np.broadcast_to(state != 0, shape))
                over, excess = classes[key]
                rows += (lo + a + np.flatnonzero(over[a:b])).tolist()
                least = min(least, _least(excess[a:b][~over[a:b]]))
            if rows:
                out.append((p, rows))
        return out, least

    def _classes(self, t: int) -> list[tuple[tuple[int, ...], int, int]]:
        """The classes of the rows of the seed at window index t, as (key,
        a, b): rows a..b-1 (window indices) have the class whose key gives
        each coordinate as 1 (in P), 0 (in Q) or -1 (a zero factor lies
        between). Rows where every coordinate is annihilated are left out."""
        ends = [bounds[bisect_right(bounds, t)] for bounds in self.bounds]
        mask = self.in_p[:, t].tolist()
        out, a = [], t
        for b in sorted(set(ends)):
            out.append((tuple(int(f) if e >= b else -1 for f, e in zip(mask, ends)), a, b))
            a = b
        return out

    def scale(self, alpha: LogMag, weights) -> float:
        """The factor of ``_ROUNDING_BOUND`` in the cutoff of ``rows_to_scan``:
        |alpha| (hi + 1) plus the largest ``rounding_scale`` of a prefix sum
        of the window and of a weight, doubled when any of them is exact and
        nonzero."""
        weights = LogArray(weights)
        pre_scale = max(pre.rounding_scale() for pre in self.window)
        scale = abs(alpha) * (self.hi + 1) + pre_scale + weights.rounding_scale()
        exact_nonzero = any((a.exact_entries() & (a.values != 0)).any()
                            for a in (*self.window, weights))
        return 2 * scale if exact_nonzero else scale

    def factor_logs(self, i: int, at, seeds) -> LogArray:
        """log |a_i(m) ... a_i(s+1)| for each horizon m >= s of ``at`` and seed
        s of ``seeds``, numpy indices of the prefix entries that broadcast
        together: the ``lsub`` of the prefix log-sums at m and s, -inf once a
        zero factor is crossed. Only the prefix entries at ``at`` and
        ``seeds`` are read, in the form that their own values allow."""
        pre, zeros = self.pre[i], self.zeros[i]
        crossed = zeros[at] != zeros[seeds]
        with np.errstate(over="ignore"):
            logs = sub(pre.pick(at), pre.pick(seeds))
        return where(crossed, -math.inf, logs) if crossed.any() else logs

    def trajectories(self, part: str, xs, seeds, at) -> LogArray:
        """log |A(j, s) x| for each row x of ``xs`` and its seed s = seeds[k],
        at each horizon j of row k of ``at`` (shape (rows, J), or (J,) for
        every row); -inf where j < s. The rows are taken as given (``part``
        is not applied).

        Coordinate i contributes its ``factor_logs`` plus log |x_i|, one
        broadcast over the table, unless x_i = 0; a unit entry adds nothing,
        so an exact difference stays exact. Each entry is the first largest
        contribution (``_first_best``).
        """
        xs, seeds, at = np.asarray(xs, dtype=float), np.asarray(seeds)[:, None], np.asarray(at)
        # math.log of each distinct magnitude of the probes, not np.log: the
        # offsets keep the bits of the scalar formula
        mags, inverse = np.unique(np.abs(xs).ravel(), return_inverse=True)
        logs = np.array([math.log(v) if v else -math.inf for v in mags.tolist()])
        offs = logs[inverse].reshape(xs.shape)
        candidates = []
        for i in np.flatnonzero(xs.any(axis=0)).tolist():
            off = offs[:, i:i + 1]
            cand, scaled = self.factor_logs(i, at, seeds), np.isfinite(off) & (off != 0.0)
            if scaled.any():
                with np.errstate(over="ignore"):
                    cand = where(scaled, add(cand, np.where(scaled, off, 0.0)), cand)
            candidates.append((i, cand, (off > -math.inf) & (at >= seeds)))
        return _first_best(candidates, (len(xs), at.shape[-1]), -math.inf, np.greater)[0]


class _DiagonalRow(_Row):
    """The coordinates of P(n) and Q(n), and every quantity of the row read
    off one table of factor logs (``_table``) at the horizons it needs: the
    extremes, over the coordinates of a range, of the factors at a horizon,
    and the ratios of the factors at two horizons. Ties go to the first
    extremal coordinate."""

    def __init__(self, sweeps: _DiagonalSweeps, n: int):
        self.sweeps, self.n = sweeps, n
        self.hi = self.end = sweeps.hi
        mask = sweeps.proj.mask(n)
        self.p_coords = [i for i, b in enumerate(mask) if b]
        self.q_coords = [i for i, b in enumerate(mask) if not b]

    def _table(self, at) -> list[LogArray]:
        """Per coordinate, its ``factor_logs`` at each horizon m >= n of
        ``at``, a numpy index of the prefix entries, seeded at n."""
        return [self.sweeps.factor_logs(i, at, self.n) for i in range(self.sweeps.dim)]

    def logs_at(self, ms) -> tuple[LogArray, LogArray]:
        """``logs(m)`` at each m of ``ms`` (a numpy index) as two arrays."""
        table = self._table(ms)
        size = len(table[0])
        return (_first_best([(i, table[i], True) for i in self.p_coords], size, -math.inf,
                            np.greater)[0],
                _first_best([(i, table[i], True) for i in self.q_coords], size, math.inf,
                            np.less)[0])

    @cached_property
    def row_logs(self) -> tuple[LogArray, LogArray]:
        """``logs(m)`` at m = n..hi as two arrays."""
        return self.logs_at(slice(self.n, self.hi + 1))

    def extremes(self, m: int) -> RestrictedExtremes:
        """Restricted extremes at (m, n): the coordinates of ``direction(m, n,
        side)`` and the factors at m along them."""
        table = self._table([m, self.n])  # entry 0 at m, entry 1 at n
        ip, iq = (self._coordinate(table, side) for side in "PQ")
        dim = self.sweeps.dim
        return RestrictedExtremes(
            LogScalar.from_log(-math.inf if ip < 0 else table[ip].item(0)),
            LogScalar.from_log(math.inf if iq < 0 else table[iq].item(0)),
            None if ip < 0 else _unit(dim, ip),
            None if iq < 0 else _unit(dim, iq),
        )

    def _ratios(self, i: np.ndarray, j: np.ndarray) -> tuple[LogArray, LogArray]:
        """The ratios at the horizons (n + i[t], n + j[t]) for every t, from
        one table at the distinct horizons (``_coordinate_ratios``)."""
        keys, pos = np.unique(self.n + np.concatenate([i, j]), return_inverse=True)
        table = self._table(keys)
        m_at, k_at = pos[:len(i)], pos[len(i):]
        return (_coordinate_ratios(self.p_coords, table, m_at, k_at)[0],
                _coordinate_ratios(self.q_coords, table, k_at, m_at)[0])

    def direction(self, m: int, k: int, side: str) -> tuple[float, ...]:
        """Witness direction of the side's ratio between horizons k <= m: its
        first extremal coordinate, an unbounded ratio's included."""
        i = self._coordinate(self._table([m, k]), side)
        return () if i < 0 else _unit(self.sweeps.dim, i)

    def _coordinate(self, table: list[LogArray], side: str) -> int:
        """The first coordinate of the side's largest ratio between the
        horizons of entries 0 (m) and 1 (k) of ``table``; -1 for none."""
        coords, num = (self.p_coords, 0) if side == "P" else (self.q_coords, 1)
        return int(_coordinate_ratios(coords, table, [num], [1 - num])[1][0])


def _first_best(candidates, size, empty: float, better) -> tuple[LogArray, np.ndarray]:
    """Per entry of ``size``, the best values of the (coordinate, values,
    alive) ``candidates`` by the strict comparison ``better``, the first of
    equal ones, among those alive there, and its coordinate; ``empty`` and
    -1 where none is. The coordinates are int32: on a trajectory table an
    int64 array doubled the cost of a call."""
    out, arg = full(size, empty), np.full(size, -1, dtype=np.int32)
    for i, values, alive in candidates:
        take = alive & ((arg < 0) | better(values.values, out.values))
        out, arg = where(take, values, out), np.where(take, i, arg)
    return out, arg


def _coordinate_ratios(coords: list[int], table: list[LogArray], num,
                       den) -> tuple[LogArray, np.ndarray]:
    """The largest log table[i][num[t]] - table[i][den[t]] over the coords i
    that are alive at either horizon, and its first coordinate
    (``_first_best``): a coordinate alive at the numerator's horizon and
    annihilated at the denominator's gives +inf there."""
    candidates = []
    for i in coords:
        top, bottom = table[i][num], table[i][den]
        alive = (top.values != -math.inf) | (bottom.values != -math.inf)
        with np.errstate(over="ignore"):
            candidates.append((i, sub(top, where(alive, bottom, 0.0)), alive))
    return _first_best(candidates, len(num), -math.inf, np.greater)


# How far the per-pair formula and the running-maximum form of one pair's
# slack can disagree, per unit of |alpha| m_max + max |pre| + max |weight|,
# when all of them are floats: the roundings of the two forms add up to at
# most 12 (eps/2) times that sum. Exact operands that ``ladd`` converts to
# float (``rounding_scale``) at most double it.
_ROUNDING_BOUND = 8 * 2.0**-52
# The same for one triplet's slack: the per-triplet formula rounds two more
# differences of prefix sums (each factor is taken from the seed p), which
# brings the two forms to at most 16 (eps/2) times that sum; the bound
# leaves a quarter of headroom over that.
_TRIPLET_ROUNDING_BOUND = 10 * 2.0**-52


def _only(flags: np.ndarray, values: LogArray) -> LogArray:
    """``values`` where ``flags`` hold, -inf elsewhere."""
    return values if np.count_nonzero(flags) == flags.size else where(flags, values, -math.inf)


def _larger(out: LogArray | None, values: LogArray) -> LogArray:
    """``maximum(out, values)``; ``values`` itself while there is no ``out``
    (the maximum with -inf, of which equal entries are -inf too)."""
    return values if out is None else maximum(out, values)


def _least(excess: np.ndarray) -> float:
    """The least slack of rows with these largest excesses; 0.0 - x, so a
    zero slack is +0.0, as the per-pair formula gives it."""
    return 0.0 - float(excess.max()) if excess.size else math.inf


def _sweeps(sys: SystemDescription, proj: ProjectionFamily, lo: int, hi: int):
    """The pair-extreme kernel of the system's representation on [lo, hi]."""
    return (_DiagonalSweeps if sys.is_diagonal else _DenseSweeps)(sys, proj, lo, hi)
