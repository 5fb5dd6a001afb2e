"""Brute-force references that the tests compare the kernels against.

Evolution products are formed factor by factor, from the per-coordinate
factors of a diagonal system or by multiplying the dense coefficients, and
the Datko left side is summed term by term along one kernel trajectory, in
place of the verifiers' suffix sums. The diagonal running maxima are
computed one coordinate and one index at a time with ``ladd``/``lsub``, in
place of the scan's arrays. None of this is on a path of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dichotomy import DichotomyCertificate, LogScalar, ProjectionFamily, SystemDescription
from dichotomy.datko import _require_constant_projection
from dichotomy.errors import IndexOrderError, NoDecayCertificateError
from dichotomy.logscalar import LogMag, ladd, logaddexp_mag, lsub
from dichotomy.system import (
    DEFAULT_TOL_COMPAT,
    _overflow,
    _require_mask_for_diagonal,
    _sweeps,
    check_compatibility,
)


@dataclass(frozen=True)
class EvolutionOperator:
    """The product A(m) * ... * A(n+1); identity at m = n."""

    m: int
    n: int
    dim: int
    diag: tuple[LogScalar, ...] | None = None
    dense: np.ndarray | None = None

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
    result = np.eye(sys.dim)
    for k in range(n + 1, m + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            result = sys.coefficient(k) @ result
        if not np.all(np.isfinite(result)):
            raise _overflow(n, k)
    return result


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


def _traj_lognorms(sys, proj, part, vec, seed: int, upto: int) -> list[LogMag]:
    """log |A(j, seed) x| for j = seed..upto (index j - seed in the list);
    x must lie in range P(seed) (part "P") or Q(seed) (part "Q")."""
    block = np.asarray(vec, dtype=float)[:, None]
    return _sweeps(sys, proj, seed, upto).lognorms(part, block, seed)[0]


def projected_sum(
    sys: SystemDescription,
    proj: ProjectionFamily,
    d: float,
    x,
    seed_time: int,
    start: int,
    stop: int,
    weight_origin: int,
) -> LogScalar:
    """sum_{j=start}^{stop} e^{d (j - weight_origin)} |A_P(j, seed_time) x|.

    Direct summation, the reference for the verifiers' suffix sums and for
    index-origin experiments.
    """
    if not (stop >= start >= seed_time >= 0):
        raise IndexOrderError("need stop >= start >= seed_time >= 0")
    px, _ = proj.split(seed_time, list(x))
    traj = _traj_lognorms(sys, proj, "P", px, seed_time, stop)
    terms = [
        ladd(traj[j - seed_time], d * (j - weight_origin)) for j in range(start, stop + 1)
    ]
    acc: LogMag = -math.inf
    for t in terms:
        acc = logaddexp_mag(acc, t)
    return LogScalar.from_log(acc)


def datko_lhs(
    sys: SystemDescription,
    proj: ProjectionFamily,
    d: float,
    m: int,
    n: int,
    p: int,
    x,
    m_trunc: int,
    cert: DichotomyCertificate,
    tol_compat: float = DEFAULT_TOL_COMPAT,
) -> tuple[LogScalar, LogScalar, LogScalar]:
    """Truncated left side of the nonuniform criterion at (m, n, p, x).

    Returns (P_sum truncated at m_trunc, exact Q_sum, geometric tail bound).
    The tail needs a decay certificate with alpha > d.
    """
    if not (m >= n >= p >= 0):
        raise IndexOrderError(f"need m >= n >= p >= 0, got ({m}, {n}, {p})")
    if m_trunc < m:
        raise IndexOrderError(f"truncation {m_trunc} below m = {m}")
    if cert is None:
        raise NoDecayCertificateError("tail accounting needs a decay certificate")
    cert.validate()
    if d >= cert.alpha:
        raise NoDecayCertificateError(
            f"certificate decay alpha={cert.alpha} does not dominate d={d}"
        )
    check_compatibility(sys, proj, p, m_trunc, tol_compat)
    _require_constant_projection(proj, p, m_trunc)
    vec = list(x)
    p_sum = projected_sum(sys, proj, d, vec, p, n, m_trunc, n)
    # tail: sum_{j > m_trunc} e^{d(j-n)} |A_P(j,p)x| <= majorant(n) |A_P(n,p)x| *
    #       e^{(d-alpha)(m_trunc+1-n)} / (1 - e^{d-alpha})
    anchor = projected_sum(sys, proj, 0.0, vec, p, n, n, n)  # |A_P(n,p) x|
    log_geom = -math.log1p(-math.exp(d - cert.alpha))
    if anchor.sign == 0:
        tail = LogScalar.zero()
    else:
        tail_log = ladd(
            ladd(cert.r_log(n), anchor.logmag),
            (d - cert.alpha) * (m_trunc + 1 - n) + log_geom,
        )
        tail = LogScalar.from_log(tail_log)
    # exact Q part
    _, qx = proj.split(n, vec)
    q_traj = _traj_lognorms(sys, proj, "Q", qx, n, m)
    acc: LogMag = -math.inf
    for k in range(n, m + 1):
        acc = logaddexp_mag(acc, ladd(q_traj[k - n], d * (m - k)))
    return p_sum, LogScalar.from_log(acc), tail


def _diagonal_window(sys, proj, lo, hi):
    pre, zeros = sys.diag_prefix(hi)
    return pre, zeros, [proj.mask(n) for n in range(lo, hi + 1)]


def running_p_rows(sys, proj, lo, hi, alpha) -> list[LogMag]:
    """Row n = lo..hi: max over i in P(n) and n < m <= hi, with no zero
    factor of i in (n, m], of alpha (m - n) + pre_i[m] - pre_i[n];
    -inf when there is no such pair."""
    pres, zeross, masks = _diagonal_window(sys, proj, lo, hi)
    out: list[LogMag] = [-math.inf] * (hi - lo + 1)
    for i, (pre, zeros) in enumerate(zip(pres, zeross)):
        run: LogMag = -math.inf
        for n in range(hi - 1, lo - 1, -1):
            if zeros[n + 1] != zeros[n]:
                run = -math.inf
            else:
                cand = ladd(alpha * (n + 1), pre[n + 1])
                if cand > run:
                    run = cand
            if run != -math.inf and masks[n - lo][i]:
                v = lsub(lsub(run, alpha * n), pre[n])
                if v > out[n - lo]:
                    out[n - lo] = v
    return out


def running_q_rows(sys, proj, lo, hi, alpha, weights) -> list[LogMag]:
    """Row n = lo..hi: max over j in Q(n) and n < m <= hi of
    alpha (m - n) - weights[m - lo] - (pre_j[m] - pre_j[n]); +inf when a
    zero factor of j lies in (n, hi]; -inf when there is no such pair."""
    pres, zeross, masks = _diagonal_window(sys, proj, lo, hi)
    out: list[LogMag] = [-math.inf] * (hi - lo + 1)
    for j, (pre, zeros) in enumerate(zip(pres, zeross)):
        run: LogMag = -math.inf
        for n in range(hi - 1, lo - 1, -1):
            if zeros[n + 1] != zeros[n]:
                run = math.inf
            elif run != math.inf:
                cand = lsub(lsub(alpha * (n + 1), pre[n + 1]), weights[n + 1 - lo])
                if cand > run:
                    run = cand
            if run != -math.inf and not masks[n - lo][j]:
                v = ladd(lsub(run, alpha * n), pre[n])
                if v > out[n - lo]:
                    out[n - lo] = v
    return out


def running_q_cols(sys, proj, lo, hi, alpha) -> list[LogMag]:
    """Column m = lo..hi: max over j and lo <= n < m with j in Q(n) of
    alpha (m - n) - (pre_j[m] - pre_j[n]); +inf once such a pair crosses
    a zero factor of j; -inf when there is no such pair."""
    pres, zeross, masks = _diagonal_window(sys, proj, lo, hi)
    out: list[LogMag] = [-math.inf] * (hi - lo + 1)
    for j, (pre, zeros) in enumerate(zip(pres, zeross)):
        run: LogMag = -math.inf
        for m in range(lo + 1, hi + 1):
            n = m - 1
            if run != math.inf and not masks[n - lo][j]:
                cand = lsub(pre[n], alpha * n)
                if cand > run:
                    run = cand
            if run != -math.inf and zeros[m] != zeros[n]:
                run = math.inf
            if run != -math.inf:
                v = lsub(ladd(run, alpha * m), pre[m])
                if v > out[m - lo]:
                    out[m - lo] = v
    return out
