"""Systems x_{n+1} = A(n) x_n, projection families, and evolution products.

The evolution operator from time n to time m >= n is the left-ordered
product ``A(m) * ... * A(n+1)`` (the identity when m = n), so coefficient
index 0 never enters a product. Two coefficient representations coexist:

* ``ExplicitSequence``: dense real matrices stored as doubles, valid on a
  declared index range, with overflow detection on products.
* ``DiagonalClosedForm``: one log-domain function per coordinate, valid for
  every index, so magnitudes like exp(n * 2**n) remain exactly computable.

Norms: dense systems use the Euclidean vector norm and the spectral
operator norm; diagonal systems use the max norm, under which restriction
to coordinate subsets decomposes exactly per coordinate. Both are valid
instantiations of the abstract norm the theory leaves unspecified; the
choice is recorded in the ``norm`` field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .logscalar import LogMag, LogScalar, ladd, lsub

DEFAULT_TOL_PROJ = 1e-9
DEFAULT_TOL_COMPAT = 1e-9


class DiagonalClosedForm:
    """Per-coordinate coefficient functions n -> LogScalar."""

    def __init__(self, entries: Sequence[Callable[[int], LogScalar]]):
        if not entries:
            raise ValueError("need at least one coordinate function")
        self.entries = tuple(entries)

    @property
    def dim(self) -> int:
        return len(self.entries)


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
    """A coefficient sequence plus its ambient dimension and norm choice."""

    def __init__(self, dim: int, coefficients, norm: str = "auto"):
        if dim <= 0:
            raise ValueError("dimension must be positive")
        if coefficients.dim != dim:
            raise ValueError("coefficient dimension does not match dim")
        self.dim = dim
        self.coefficients = coefficients
        if norm == "auto":
            norm = "max" if self.is_diagonal else "spectral"
        if self.is_diagonal and norm != "max":
            raise ValueError("diagonal systems use the max norm")
        if not self.is_diagonal and norm != "spectral":
            raise ValueError("dense systems use the spectral norm")
        self.norm = norm
        # per-coordinate prefix data (diagonal systems)
        self._prefix_mag: list[list[LogMag]] | None = None
        self._prefix_neg: list[list[int]] | None = None
        self._prefix_zero: list[list[int]] | None = None

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

    def diag_entry(self, i: int, n: int) -> LogScalar:
        return self.coefficients.entries[i](n)

    # -- diagonal prefix sums ------------------------------------------------
    # pre[i][t] = sum_{k=1..t} log|a_i(k)|, so a product over (n, m] has
    # log-magnitude pre[i][m] - pre[i][n]; exact log-magnitude types survive.

    def _ensure_prefix(self, upto: int) -> None:
        if self._prefix_mag is None:
            self._prefix_mag = [[0] for _ in range(self.dim)]
            self._prefix_neg = [[0] for _ in range(self.dim)]
            self._prefix_zero = [[0] for _ in range(self.dim)]
        for i in range(self.dim):
            mags, negs, zeros = self._prefix_mag[i], self._prefix_neg[i], self._prefix_zero[i]
            while len(mags) <= upto:
                k = len(mags)
                a = self.diag_entry(i, k)
                if a.sign == 0:
                    mags.append(mags[-1])
                    negs.append(negs[-1])
                    zeros.append(zeros[-1] + 1)
                else:
                    mag = ladd(mags[-1], a.logmag)
                    if isinstance(mag, float) and not math.isfinite(mag):
                        raise LogOverflowError(
                            f"coordinate {i}: the log-magnitude of the product of factors "
                            f"1..{k} is not a finite double"
                        )
                    mags.append(mag)
                    negs.append(negs[-1] + (1 if a.sign < 0 else 0))
                    zeros.append(zeros[-1])

    def diag_prefix(self, upto: int) -> tuple[list[list[LogMag]], list[list[int]]]:
        """Per-coordinate prefix log-sums and zero-factor counts on 0..upto.

        The lists are the live cache (valid at least through ``upto``);
        callers must not modify them.
        """
        self._ensure_prefix(upto)
        return self._prefix_mag, self._prefix_zero

    def diag_factor(self, i: int, m: int, n: int) -> LogScalar:
        """Coordinate i of the evolution product over (n, m]."""
        self._ensure_prefix(m)
        if self._prefix_zero[i][m] - self._prefix_zero[i][n] > 0:
            return LogScalar.zero()
        sign = -1 if (self._prefix_neg[i][m] - self._prefix_neg[i][n]) % 2 else 1
        return LogScalar(sign, lsub(self._prefix_mag[i][m], self._prefix_mag[i][n]))


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

    def validate(self, n_lo: int, n_hi: int, tol: float = DEFAULT_TOL_PROJ) -> None:
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
            if not d <= tol:
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
        for i in range(sys.dim):
            if before[i] != after[i]:
                worst = max(worst, abs(sys.diag_entry(i, n + 1)).to_float())
        return worst
    a = sys.coefficient(n + 1)
    gap = a @ proj.matrix(n) - proj.matrix(n + 1) @ a
    return float(np.linalg.norm(gap, 2))


def check_compatibility(
    sys: SystemDescription,
    proj: ProjectionFamily,
    n_lo: int,
    m_hi: int,
    tol: float = DEFAULT_TOL_COMPAT,
) -> None:
    """Raise unless the family is idempotent and commutes with the dynamics
    on [n_lo, m_hi]."""
    check_pairs_compatibility(sys, proj, [(m_hi, n_lo)], tol)


def check_pairs_compatibility(
    sys: SystemDescription,
    proj: ProjectionFamily,
    pairs: Sequence[tuple[int, int]],
    tol: float = DEFAULT_TOL_COMPAT,
) -> None:
    """Raise unless the family is idempotent at every index of the ranges
    [n, m] of the pairs (m, n) and commutes with the dynamics at every index
    of their ranges [n, m). Each index is checked once, and none that lies
    between the ranges; a diagonal system with a constant mask commutes
    everywhere."""
    for lo, hi in _merged((n, m) for m, n in pairs):
        proj.validate(lo, hi)
    if sys.is_diagonal and proj.is_mask and proj.constant:
        return
    for lo, hi in _merged((n, m - 1) for m, n in pairs):
        for k in range(lo, hi + 1):
            d = compatibility_defect(sys, proj, k)
            if d > tol:
                raise IncompatibleProjectionError(
                    f"compatibility defect {d:.3e} at n={k} exceeds tolerance {tol:.1e}"
                )


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


def _range_basis(p_matrix: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    u, s, _ = np.linalg.svd(p_matrix)
    if s.size == 0 or s[0] <= tol:
        return u[:, :0]
    rank = int(np.sum(s > tol * s[0]))
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
    return _sweeps(sys, proj, p, m).row(p).ratios(m, n)


def _sup_ratio(num: np.ndarray, den: np.ndarray) -> LogScalar:
    """sup over z of |num z| / |den z|: with den = U S V^T this is the top
    singular value of num V S^-1. Unlike the pencil of the normal equations,
    whose error grows with cond(den)^2, the rounding grows with cond(den)."""
    _, s, vt = np.linalg.svd(den, full_matrices=False)
    if s[-1] <= s[0] * max(den.shape) * np.finfo(float).eps:
        # den kills some direction; the ratio is unbounded unless num does too
        if float(np.linalg.norm(num, 2)) == 0.0:
            return LogScalar.zero()
        return LogScalar.positive_infinity()
    top = np.linalg.svd((num @ vt.T) / s, compute_uv=False)[0]
    return LogScalar.from_float(float(top))


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
    """

    def __init__(self, sys: SystemDescription, proj: ProjectionFamily, lo: int, hi: int):
        sys.check_pair(hi, lo)
        self.lo, self.hi = lo, hi
        self.projections = np.array([proj.matrix(k) for k in range(lo, hi + 1)])
        coeffs = np.array([sys.coefficient(k) for k in range(lo, hi + 1)])
        pa = self.projections @ coeffs
        self.steps = {"P": pa, "Q": coeffs - pa}
        self._bases: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def bases(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal bases of ranges P(n) and Q(n)."""
        p = self.projections[n - self.lo]
        key = p.tobytes()
        if key not in self._bases:
            self._bases[key] = (_range_basis(p), _range_basis(np.eye(len(p)) - p))
        return self._bases[key]

    def sweep(self, part: str, start: np.ndarray, n: int, upto: int) -> np.ndarray:
        """Images of the columns of ``start`` (a block in range P(n) or Q(n),
        ``part`` "P" or "Q") at k = n..upto, entry k - n of one stack, cut
        before the first index whose image is not finite."""
        steps, lo = self.steps[part], self.lo
        out = np.empty((upto - n + 1, *start.shape))
        out[0] = start
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n + 1, upto + 1):
                np.matmul(steps[k - lo], out[k - n - 1], out=out[k - n])
        finite = np.isfinite(out).all(axis=(1, 2))
        return out if finite.all() else out[: int(np.argmin(finite))]

    def row(self, n: int) -> "_DenseRow":
        return _DenseRow(self, n)

    def lognorms(self, part: str, block: np.ndarray, seed: int, at=None) -> list[list[LogMag]]:
        """Per column of ``block`` (a block in range P(seed) or Q(seed), as in
        ``sweep``): log |A(j, seed) column| for j in ``at``, by default
        seed..hi, from one sweep of the whole block up to the last of them."""
        upto = self.hi if at is None else max(at)
        images = self.sweep(part, block, seed, upto)
        if len(images) <= upto - seed:
            raise _overflow(seed, seed + len(images))
        norms = np.linalg.norm(images, axis=1)
        if at is not None:
            norms = norms[[j - seed for j in at]]
        return [_log_values(col) for col in norms.T]


class _DenseRow:
    """Restricted images of ranges P(n) and Q(n) from n up to ``end``, the
    last index at which both are finite; an overflow ends the row, and only
    a request beyond its end raises."""

    def __init__(self, sweeps: _DenseSweeps, n: int):
        self.n = n
        self.bp, self.bq = sweeps.bases(n)
        xs = sweeps.sweep("P", self.bp, n, sweeps.hi)
        ys = sweeps.sweep("Q", self.bq, n, sweeps.hi)
        size = min(len(xs), len(ys))
        self.xs, self.ys = xs[:size], ys[:size]
        self.end = n + size - 1
        self._logs: tuple[list[float], list[float]] | None = None

    def _at(self, m: int) -> int:
        if m > self.end:
            raise _overflow(self.n, self.end + 1)
        return m - self.n

    def logs(self, m: int) -> tuple[float, float]:
        """(log growth_P, log min_gain_Q) at (m, n); -inf / +inf mark trivial
        ranges. The first request takes the singular values of the whole row
        in one batched call per side."""
        i = self._at(m)
        if self._logs is None:
            size = len(self.xs)
            growth = [-math.inf] * size
            gain = [math.inf] * size
            if self.bp.shape[1]:
                growth = _log_values(np.linalg.svd(self.xs, compute_uv=False)[:, 0])
            if self.bq.shape[1]:
                gain = _log_values(np.linalg.svd(self.ys, compute_uv=False)[:, -1])
            self._logs = growth, gain
        return self._logs[0][i], self._logs[1][i]

    def extremes(self, m: int) -> RestrictedExtremes:
        """Restricted extremes at (m, n) with their extremal directions."""
        i = self._at(m)
        growth, dir_p = LogScalar.zero(), None
        if self.bp.shape[1]:
            _, s, vt = np.linalg.svd(self.xs[i])
            growth = LogScalar.from_float(float(s[0]))
            dir_p = tuple(float(x) for x in self.bp @ vt[0])
        gain, dir_q = LogScalar.positive_infinity(), None
        if self.bq.shape[1]:
            _, s, vt = np.linalg.svd(self.ys[i])
            k = self.bq.shape[1]
            gain = LogScalar.from_float(float(s[k - 1]))
            dir_q = tuple(float(x) for x in self.bq @ vt[k - 1])
        return RestrictedExtremes(growth, gain, dir_p, dir_q)

    def ratios(self, m: int, k: int) -> RatioExtremes:
        """Ratio extremes between horizons k <= m, seeded at n."""
        i, j = self._at(m), k - self.n
        ratio_p = _sup_ratio(self.xs[i], self.xs[j]) if self.bp.shape[1] else LogScalar.zero()
        ratio_q = _sup_ratio(self.ys[j], self.ys[i]) if self.bq.shape[1] else LogScalar.zero()
        return RatioExtremes(ratio_p, ratio_q)

    def triplet_direction(self, m: int, k: int, side: str) -> tuple[float, ...]:
        """Witness direction of a triplet: the extremal direction of the
        restricted extremes at (m, n) for side "P", at (k, n) for side "Q"."""
        if side == "P":
            return self.extremes(m).direction_p or ()
        return self.extremes(k).direction_q or ()


def _log_values(values: np.ndarray) -> list[float]:
    return [math.log(v) if v > 0 else -math.inf for v in values.tolist()]


class _DiagonalSweeps:
    """The diagonal pair-extreme kernel, read off the prefix log-sums.

    Under the max norm the evolution over (n, m] acts on coordinate i by a
    factor of log-magnitude pre_i[m] - pre_i[n], or annihilates it when a
    zero factor a_i(k), n < k <= m, lies in between; every restricted
    extreme, ratio and trajectory is a maximum or minimum of these over a
    set of coordinates. Entries cost O(dim) whatever m - n is, and rows
    are built only when asked for. The surface is that of ``_DenseSweeps``.
    """

    def __init__(self, sys: SystemDescription, proj: ProjectionFamily, lo: int, hi: int):
        sys.check_pair(hi, lo)
        _require_mask_for_diagonal(sys, proj)
        self.dim, self.proj, self.hi = sys.dim, proj, hi
        self.pre, self.zeros = sys.diag_prefix(hi)
        # triplet ratios: (k, m, mask at n, coordinates alive on (n, k]) ->
        # the ratios of the first row n with that key
        self.ratio_memo: dict[tuple, RatioExtremes] = {}

    def factor_log(self, i: int, m: int, n: int) -> LogMag:
        """log |a_i(m) ... a_i(n+1)|; -inf once a zero factor is crossed."""
        if self.zeros[i][m] != self.zeros[i][n]:
            return -math.inf
        return lsub(self.pre[i][m], self.pre[i][n])

    def row(self, n: int) -> "_DiagonalRow":
        return _DiagonalRow(self, n)

    def lognorms(self, part: str, block: np.ndarray, seed: int, at=None) -> list[list[LogMag]]:
        """Per column x of ``block``: log |A(j, seed) x| for j in ``at``, by
        default seed..hi. The columns are taken as given (``part`` is not
        applied); an exact factor log stays exact for a unit entry."""
        out = []
        for col in np.asarray(block, dtype=float).T.tolist():
            active = [(i, math.log(abs(v))) for i, v in enumerate(col) if v != 0.0]
            traj: list[LogMag] = []
            for j in range(seed, self.hi + 1) if at is None else at:
                best: LogMag = -math.inf
                for i, off in active:
                    f = self.factor_log(i, j, seed)
                    if f == -math.inf:
                        continue
                    cand = ladd(f, off) if off != 0.0 else f
                    if best == -math.inf or cand > best:
                        best = cand
                traj.append(best)
            out.append(traj)
        return out


class _DiagonalRow:
    """Factor logs from the start index n, with the coordinates of P(n) and
    Q(n); ties go to the first extremal coordinate."""

    def __init__(self, sweeps: _DiagonalSweeps, n: int):
        self.sweeps, self.n = sweeps, n
        self.mask = sweeps.proj.mask(n)
        self.p_coords = [i for i, b in enumerate(self.mask) if b]
        self.q_coords = [i for i, b in enumerate(self.mask) if not b]
        self._seed_at, self._seed = None, None

    def _extremes(self, m: int) -> tuple[LogMag, int | None, LogMag, int | None]:
        """(log growth_P, its coordinate, log min_gain_Q, its coordinate)."""
        factor, n = self.sweeps.factor_log, self.n
        g, gi = -math.inf, None
        for i in self.p_coords:
            v = factor(i, m, n)
            if gi is None or v > g:
                g, gi = v, i
        h, hi = math.inf, None
        for i in self.q_coords:
            v = factor(i, m, n)
            if hi is None or v < h:
                h, hi = v, i
        return g, gi, h, hi

    def logs(self, m: int) -> tuple[LogMag, LogMag]:
        """(log growth_P, log min_gain_Q) at (m, n); -inf / +inf mark trivial
        ranges."""
        g, _, h, _ = self._extremes(m)
        return g, h

    def extremes(self, m: int) -> RestrictedExtremes:
        """Restricted extremes at (m, n) with their extremal directions."""
        g, gi, h, hi = self._extremes(m)
        dim = self.sweeps.dim
        return RestrictedExtremes(
            LogScalar.from_log(g),
            LogScalar.from_log(h),
            None if gi is None else _unit(dim, gi),
            None if hi is None else _unit(dim, hi),
        )

    def _sup_ratio(self, m: int, k: int, side: str) -> tuple[LogMag, int | None]:
        """Largest ratio log over the coordinates of ``side`` (|A(m, n) e_i|
        over |A(k, n) e_i| on P, the reverse on Q) and the first coordinate
        attaining it among those with a nonzero denominator. A coordinate
        alive at k but annihilated by m makes the Q ratio +inf."""
        factor, n = self.sweeps.factor_log, self.n
        best, best_i, unbounded = -math.inf, None, False
        for i in self.p_coords if side == "P" else self.q_coords:
            num, den = factor(i, m, n), factor(i, k, n)
            if side == "Q":
                num, den = den, num
            if den == -math.inf:
                unbounded = unbounded or num != -math.inf
                continue
            r = lsub(num, den) if num != -math.inf else -math.inf
            if best_i is None or r > best:
                best, best_i = r, i
        return (math.inf if unbounded else best), best_i

    def ratios(self, m: int, k: int) -> RatioExtremes:
        """Ratio extremes between horizons k <= m, seeded at n. A ratio
        depends on n only through the mask at n and the coordinates alive on
        (n, k], so the kernel keeps the first row's value for each."""
        if self._seed_at != k:
            zeros, n = self.sweeps.zeros, self.n
            self._seed_at = k
            self._seed = (self.mask, tuple(z[k] == z[n] for z in zeros))
        key = (k, m, self._seed)
        memo = self.sweeps.ratio_memo
        got = memo.get(key)
        if got is None:
            got = memo[key] = RatioExtremes(
                *(LogScalar.from_log(self._sup_ratio(m, k, side)[0]) for side in "PQ")
            )
        return got

    def triplet_direction(self, m: int, k: int, side: str) -> tuple[float, ...]:
        """Witness direction of a triplet: the first coordinate of the largest
        ratio of the side among those with a nonzero denominator."""
        i = self._sup_ratio(m, k, side)[1]
        return () if i is None else _unit(self.sweeps.dim, i)


def _sweeps(sys: SystemDescription, proj: ProjectionFamily, lo: int, hi: int):
    """The pair-extreme kernel of the system's representation on [lo, hi]."""
    return (_DiagonalSweeps if sys.is_diagonal else _DenseSweeps)(sys, proj, lo, hi)
