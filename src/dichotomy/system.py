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
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateRangeError,
    DenseOverflowError,
    IncompatibleProjectionError,
    IndexOrderError,
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
        # per-coordinate prefix data (diagonal) or product memo (dense)
        self._prefix_mag: list[list[LogMag]] | None = None
        self._prefix_neg: list[list[int]] | None = None
        self._prefix_zero: list[list[int]] | None = None
        self._dense_cache: dict[tuple[int, int], np.ndarray] = {}

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
                    mags.append(ladd(mags[-1], a.logmag))
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


@dataclass(frozen=True)
class EvolutionOperator:
    """The product A(m) * ... * A(n+1); identity at m = n."""

    m: int
    n: int
    dim: int
    diag: tuple[LogScalar, ...] | None = None
    dense: np.ndarray | None = None

    def entry(self, i: int, j: int) -> LogScalar:
        if self.diag is not None:
            return self.diag[i] if i == j else LogScalar.zero()
        return LogScalar.from_float(float(self.dense[i, j]))

    def to_dense(self) -> np.ndarray:
        if self.dense is not None:
            return self.dense
        return np.diag([d.to_float() for d in self.diag])


def evolution(sys: SystemDescription, m: int, n: int) -> EvolutionOperator:
    """Evolution operator from time n to time m (left-ordered product)."""
    sys.check_pair(m, n)
    if sys.is_diagonal:
        return EvolutionOperator(
            m, n, sys.dim, diag=tuple(sys.diag_factor(i, m, n) for i in range(sys.dim))
        )
    return EvolutionOperator(m, n, sys.dim, dense=_dense_product(sys, m, n))


def _dense_product(sys: SystemDescription, m: int, n: int) -> np.ndarray:
    # memoized left extension: product(k, n) = A(k) @ product(k-1, n), swept
    # forward from the largest cached horizon so long windows never recurse
    if m == n:
        return np.eye(sys.dim)
    cache = sys._dense_cache
    start = m
    while start > n and (start, n) not in cache:
        start -= 1
    result = cache[(start, n)] if start > n else np.eye(sys.dim)
    for k in range(start + 1, m + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            result = sys.coefficient(k) @ result
        if not np.all(np.isfinite(result)):
            raise DenseOverflowError(
                f"product over ({n}, {k}] overflows doubles; declare the system in diagonal closed form"
            )
        cache[(k, n)] = result
    return result


class ProjectionFamily:
    """Idempotent operators P(n); the complement Q(n) = I - P(n).

    Two forms: a coordinate mask (constant tuple of bools, or a function
    of n), which is the only form accepted for diagonal systems, or
    explicit projection matrices (constant or per index).
    """

    def __init__(self, dim: int, mask=None, matrix=None):
        if (mask is None) == (matrix is None):
            raise ValueError("exactly one of mask or matrix is required")
        self.dim = dim
        self._mask = None
        self._matrix = None
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
                fixed_m = np.asarray(matrix, dtype=float)
                if fixed_m.shape != (dim, dim):
                    raise ValueError("projection matrix must be dim x dim")
                self._matrix = lambda n: fixed_m

    @property
    def is_mask(self) -> bool:
        return self._mask is not None

    def mask(self, n: int) -> tuple[bool, ...]:
        if self._mask is None:
            raise TypeError("matrix-specified projection has no coordinate mask")
        got = tuple(bool(b) for b in self._mask(n))
        if len(got) != self.dim:
            raise ValueError("mask length must equal dim")
        return got

    def matrix(self, n: int) -> np.ndarray:
        if self._mask is not None:
            return np.diag([1.0 if b else 0.0 for b in self.mask(n)])
        return np.asarray(self._matrix(n), dtype=float)

    def complement_matrix(self, n: int) -> np.ndarray:
        return np.eye(self.dim) - self.matrix(n)

    def idempotence_defect(self, n: int) -> float:
        if self._mask is not None:
            return 0.0
        p = self.matrix(n)
        return float(np.linalg.norm(p @ p - p, 2))

    def validate(self, n_lo: int, n_hi: int, tol: float = DEFAULT_TOL_PROJ) -> None:
        for n in range(n_lo, n_hi + 1):
            d = self.idempotence_defect(n)
            if d > tol:
                raise ValueError(f"projection at n={n} fails idempotence by {d:.3e}")


def _require_mask_for_diagonal(sys: SystemDescription, proj: ProjectionFamily) -> None:
    if sys.is_diagonal and not proj.is_mask:
        raise TypeError("diagonal systems require coordinate-mask projections")


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
    """Raise unless the family commutes with the dynamics on [n_lo, m_hi]."""
    if sys.is_diagonal and proj.is_mask:
        ref = proj.mask(n_lo)
        constant = all(proj.mask(k) == ref for k in range(n_lo, m_hi + 1))
        if constant:
            return
    for k in range(n_lo, m_hi):
        d = compatibility_defect(sys, proj, k)
        if d > tol:
            raise IncompatibleProjectionError(
                f"compatibility defect {d:.3e} at n={k} exceeds tolerance {tol:.1e}"
            )


def projected_evolution(
    sys: SystemDescription,
    proj: ProjectionFamily,
    m: int,
    n: int,
    part: str,
    tol_compat: float = DEFAULT_TOL_COMPAT,
) -> EvolutionOperator:
    """Evolution product composed with P(n) (part="P") or Q(n) (part="Q")."""
    if part not in ("P", "Q"):
        raise ValueError("part must be 'P' or 'Q'")
    sys.check_pair(m, n)
    check_compatibility(sys, proj, n, m, tol_compat)
    if sys.is_diagonal:
        _require_mask_for_diagonal(sys, proj)
        mask = proj.mask(n)
        keep = [b if part == "P" else not b for b in mask]
        entries = tuple(
            sys.diag_factor(i, m, n) if keep[i] else LogScalar.zero() for i in range(sys.dim)
        )
        return EvolutionOperator(m, n, sys.dim, diag=entries)
    base = proj.matrix(n) if part == "P" else proj.complement_matrix(n)
    if m == n:
        return EvolutionOperator(m, n, sys.dim, dense=base)
    return EvolutionOperator(m, n, sys.dim, dense=_dense_product(sys, m, n) @ base)


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
    instead of signalling through the +inf convention.
    """
    sys.check_pair(m, n)
    if sys.is_diagonal:
        _require_mask_for_diagonal(sys, proj)
        mask = proj.mask(n)
        p_coords = [i for i in range(sys.dim) if mask[i]]
        q_coords = [i for i in range(sys.dim) if not mask[i]]
        if strict and not q_coords:
            raise DegenerateRangeError("Q range is trivial at this index")
        growth = LogScalar.zero()
        dir_p = None
        for i in p_coords:
            mag = abs(sys.diag_factor(i, m, n))
            if mag > growth or dir_p is None:
                growth, dir_p = mag, _unit(sys.dim, i)
        gain = LogScalar.positive_infinity()
        dir_q = None
        for i in q_coords:
            mag = abs(sys.diag_factor(i, m, n))
            if mag < gain or dir_q is None:
                gain, dir_q = mag, _unit(sys.dim, i)
        return RestrictedExtremes(growth, gain, dir_p, dir_q)

    evo = _dense_product(sys, m, n)
    bp = _range_basis(proj.matrix(n))
    bq = _range_basis(proj.complement_matrix(n))
    if strict and bq.shape[1] == 0:
        raise DegenerateRangeError("Q range is trivial at this index")
    growth, dir_p = LogScalar.zero(), None
    if bp.shape[1] > 0:
        _, s, vt = np.linalg.svd(evo @ bp)
        growth = LogScalar.from_float(float(s[0]))
        dir_p = tuple(float(x) for x in bp @ vt[0])
    gain, dir_q = LogScalar.positive_infinity(), None
    if bq.shape[1] > 0:
        _, s, vt = np.linalg.svd(evo @ bq)
        k = bq.shape[1]
        gain = LogScalar.from_float(float(s[k - 1]))
        dir_q = tuple(float(x) for x in bq @ vt[k - 1])
    return RestrictedExtremes(growth, gain, dir_p, dir_q)


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
    if not (m >= n >= p >= 0):
        raise IndexOrderError(f"need m >= n >= p >= 0, got ({m}, {n}, {p})")
    sys.check_pair(m, p)
    if sys.is_diagonal:
        _require_mask_for_diagonal(sys, proj)
        mask = proj.mask(p)
        ratio_p = LogScalar.zero()
        for i in range(sys.dim):
            if not mask[i]:
                continue
            num = abs(sys.diag_factor(i, m, p))
            den = abs(sys.diag_factor(i, n, p))
            if den.is_zero:
                continue  # the direction is annihilated before n
            ratio_p = max(ratio_p, num / den)
        ratio_q = LogScalar.zero()
        for i in range(sys.dim):
            if mask[i]:
                continue
            num = abs(sys.diag_factor(i, n, p))
            den = abs(sys.diag_factor(i, m, p))
            if den.is_zero:
                ratio_q = LogScalar.positive_infinity() if not num.is_zero else ratio_q
                continue
            ratio_q = max(ratio_q, num / den)
        return RatioExtremes(ratio_p, ratio_q)

    bp = _range_basis(proj.matrix(p))
    bq = _range_basis(proj.complement_matrix(p))
    evo_m = _dense_product(sys, m, p)
    evo_n = _dense_product(sys, n, p)
    ratio_p = _sup_ratio(evo_m @ bp, evo_n @ bp) if bp.shape[1] else LogScalar.zero()
    ratio_q = _sup_ratio(evo_n @ bq, evo_m @ bq) if bq.shape[1] else LogScalar.zero()
    return RatioExtremes(ratio_p, ratio_q)


def _sup_ratio(num: np.ndarray, den: np.ndarray) -> LogScalar:
    """sup over z of |num z| / |den z| via the definite pencil."""
    g = num.T @ num
    h = den.T @ den
    try:
        chol = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        # den kills some direction; the ratio is unbounded unless num does too
        if float(np.linalg.norm(num, 2)) == 0.0:
            return LogScalar.zero()
        return LogScalar.positive_infinity()
    half = np.linalg.solve(chol, g)
    pencil = np.linalg.solve(chol, half.T).T
    eigs = np.linalg.eigvalsh(0.5 * (pencil + pencil.T))
    top = max(0.0, float(eigs[-1]))
    return LogScalar.from_float(math.sqrt(top))
