"""Certificate verification, constant estimation, and falsification.

Every check reduces the quantified inequality over all states x to two
pure-direction inequalities through the mediant bound
(a + b) / (c + d) <= max(a/c, b/d) for nonnegative terms: splitting
x = u + v with u in range P(n) and v in range Q(n), the certificate
inequality at a pair (m, n) holds for every x exactly when

    exp(alpha (m-n)) * growth_P(m, n) <= R_P(n)       (pure P directions)
    exp(alpha (m-n)) <= R_Q(m) * min_gain_Q(m, n)     (pure Q directions)

where growth_P and min_gain_Q are the restricted extremes of the evolution
operator. Scans enumerate pairs in lexicographic (n, m) order so witness
selection is deterministic. All comparisons happen on log-magnitudes and
stay exact for closed-form systems with exact logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .certificates import (
    DichotomyCertificate,
    Kind,
    Profile,
    TabulatedProfile,
    VerificationOutcome,
    WindowSpec,
    Witness,
    WitnessReport,
)
from .errors import (
    EmptyFeasibleSetError,
    IndexOrderError,
    InvalidCertificateError,
    OutOfRangeError,
    ScheduleOutOfRangeError,
)
from .logscalar import LogMag, LogScalar, ladd, lfloat, lsub, mixes_as_float, rounding_scale
from .system import (
    DEFAULT_TOL_COMPAT,
    ProjectionFamily,
    SystemDescription,
    check_compatibility,
    restricted_extremes,
    restricted_ratio_extremes,
)

DEFAULT_LOG_TOL = 1e-9
_TIE_BAND = 1e-12
# How far the per-pair formula and the running-maximum form of one pair's
# slack can disagree, per unit of |alpha| m_max + max |pre| + max |weight|,
# when all of them are floats: the roundings of the two forms add up to at
# most 12 (eps/2) times that sum. Exact operands that ``ladd`` converts to
# float (``rounding_scale``) at most double it.
_ROUNDING_BOUND = 8 * 2.0**-52


def _slack(rhs_log: LogMag, lhs_log: LogMag) -> float:
    """Float value of log(rhs) - log(lhs) with infinity conventions."""
    if isinstance(lhs_log, float) and lhs_log == -math.inf:
        return math.inf
    if isinstance(rhs_log, float) and rhs_log == math.inf:
        return math.inf
    if isinstance(rhs_log, float) and rhs_log == -math.inf:
        return -math.inf
    if isinstance(lhs_log, float) and lhs_log == math.inf:
        return -math.inf
    return lfloat(lsub(rhs_log, lhs_log))


class _PairExtremes:
    """Memoized growth/min-gain log-magnitudes per pair (n, m)."""

    def __init__(self, sys: SystemDescription, proj: ProjectionFamily):
        self.sys = sys
        self.proj = proj
        self._cache: dict[tuple[int, int], tuple[LogMag, LogMag]] = {}

    def logs(self, n: int, m: int) -> tuple[LogMag, LogMag]:
        """(log growth_P, log min_gain_Q); -inf / +inf mark trivial ranges."""
        key = (n, m)
        got = self._cache.get(key)
        if got is not None:
            return got
        if self.sys.is_diagonal:
            mask = self.proj.mask(n)
            g: LogMag = -math.inf
            for i in range(self.sys.dim):
                if not mask[i]:
                    continue
                v = self.sys.diag_factor(i, m, n)
                cand = v.logmag if v.sign != 0 else -math.inf
                if g == -math.inf or cand > g:
                    g = cand
            h: LogMag = math.inf
            for i in range(self.sys.dim):
                if mask[i]:
                    continue
                v = self.sys.diag_factor(i, m, n)
                cand = v.logmag if v.sign != 0 else -math.inf
                if h == math.inf or cand < h:
                    h = cand
        else:
            ext = restricted_extremes(self.sys, self.proj, m, n)
            g = ext.growth_p.logmag if ext.growth_p.sign != 0 else -math.inf
            h = ext.min_gain_q.logmag
        self._cache[key] = (g, h)
        return g, h

    def directions(self, n: int, m: int) -> tuple[tuple[float, ...] | None, tuple[float, ...] | None]:
        ext = restricted_extremes(self.sys, self.proj, m, n)
        return ext.direction_p, ext.direction_q


class _DiagonalScan:
    """Worst pair of every row or column of a diagonal window, in O(W * dim).

    Coordinate i's factor over (n, m] has log-magnitude pre_i[m] - pre_i[n]
    (the prefix log-sums) unless a zero factor a_i(k), n < k <= m,
    annihilates it. The P-side excess alpha (m - n) + pre_i[m] - pre_i[n]
    of a pair splits into a term in m and a term in n, so the worst m of
    row n is a suffix maximum of alpha m + pre_i[m] that a zero factor
    restarts; on the Q side a crossed zero factor makes the minimal gain 0
    and the excess +inf. Masks are read once per row. Pairs with m = n are
    left out (their excess is 0 on every nonempty range); callers account
    for them.
    """

    def __init__(self, sys: SystemDescription, proj: ProjectionFamily, window: WindowSpec):
        self.lo, self.hi = window.n_min, window.m_max
        self.pre, self.zeros = sys.diag_prefix(self.hi)
        self.masks = [proj.mask(n) for n in range(self.lo, self.hi + 1)]

    def p_rows(self, alpha: float, hi: int) -> list[LogMag]:
        """Row n = lo..hi: max over i in P(n) and n < m <= hi, with no zero
        factor of i in (n, m], of alpha (m - n) + pre_i[m] - pre_i[n];
        -inf when there is no such pair."""
        lo, masks = self.lo, self.masks
        out: list[LogMag] = [-math.inf] * (hi - lo + 1)
        for i, (pre, zeros) in enumerate(zip(self.pre, self.zeros)):
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

    def q_rows(self, alpha: float, weights: Sequence[LogMag]) -> list[LogMag]:
        """Row n = lo..hi: max over j in Q(n) and n < m <= hi of
        alpha (m - n) - weights[m - lo] - (pre_j[m] - pre_j[n]); +inf when a
        zero factor of j lies in (n, hi]; -inf when there is no such pair."""
        lo, hi, masks = self.lo, self.hi, self.masks
        out: list[LogMag] = [-math.inf] * (hi - lo + 1)
        for j, (pre, zeros) in enumerate(zip(self.pre, self.zeros)):
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

    def q_cols(self, alpha: float) -> list[LogMag]:
        """Column m = lo..hi: max over j and lo <= n < m with j in Q(n) of
        alpha (m - n) - (pre_j[m] - pre_j[n]); +inf once such a pair crosses
        a zero factor of j; -inf when there is no such pair."""
        lo, hi, masks = self.lo, self.hi, self.masks
        out: list[LogMag] = [-math.inf] * (hi - lo + 1)
        for j, (pre, zeros) in enumerate(zip(self.pre, self.zeros)):
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

    def rows_to_scan(self, cert: DichotomyCertificate, tol: float) -> tuple[set[int], float]:
        """Rows whose pairs m > n may violate the certificate, and the least
        slack over the pairs m > n of every other row.

        The running maxima associate the additions differently from the
        per-pair formula, so a row is returned whenever its worst excess
        lies within a rounding bound of ``tol``; the caller rescans those
        rows pair by pair and reaches the pair scan's verdict and witness.
        """
        lo, hi, alpha = self.lo, self.hi, cert.alpha
        r_p = [cert.r_p_log(n) for n in range(lo, hi + 1)]
        r_q = [cert.r_q_log(m) for m in range(lo, hi + 1)]
        pre = [v for coord in self.pre for v in coord[lo:hi + 1]]
        weights = r_p + r_q
        scale = abs(alpha) * (hi + 1) + max(map(rounding_scale, pre))
        scale += max(map(rounding_scale, weights))
        if not all(isinstance(v, float) or v == 0 for v in pre + weights):
            scale *= 2
        cutoff = tol - _ROUNDING_BOUND * scale
        rows: set[int] = set()
        least = math.inf
        for k, (g, q) in enumerate(zip(self.p_rows(alpha, hi), self.q_rows(alpha, r_q))):
            worst = max(lsub(g, r_p[k]) if g != -math.inf else -math.inf, q)
            if worst > cutoff:
                rows.add(lo + k)
            else:
                least = min(least, -lfloat(worst))
        return rows, least


def verify_certificate(
    sys: SystemDescription,
    proj: ProjectionFamily,
    cert: DichotomyCertificate,
    window: WindowSpec,
    tol: float = DEFAULT_LOG_TOL,
    tol_compat: float = DEFAULT_TOL_COMPAT,
) -> VerificationOutcome:
    """Scan the pair window; return holds, or the first violating witness.

    A pair violates when its log-domain slack drops below -tol. The
    reported witness carries the extremal direction and the exact minimal
    constant that would repair the inequality at that pair. Diagonal
    systems check the pairs m > n of a row pair by pair only when the
    row's running maxima say it may violate; the verdict, witness and
    count are those of the full pair scan.
    """
    cert.validate(window)
    check_compatibility(sys, proj, window.n_min, window.m_max, tol_compat)
    ext = _PairExtremes(sys, proj)
    alpha = cert.alpha
    min_slack = math.inf
    full_rows = None  # None: every row is scanned pair by pair
    if sys.is_diagonal:
        full_rows, min_slack = _DiagonalScan(sys, proj, window).rows_to_scan(cert, tol)
    done = 0  # pairs in the rows before n
    for n in range(window.n_min, window.m_max + 1):
        last = window.m_max if full_rows is None or n in full_rows else n
        for m in range(n, last + 1):
            pairs = done + m - n + 1
            gap = alpha * (m - n)
            g, h = ext.logs(n, m)
            slack_p = _slack(cert.r_p_log(n), ladd(gap, g) if g != -math.inf else -math.inf)
            if slack_p < min_slack:
                min_slack = slack_p
            if slack_p < -tol:
                dir_p, _ = ext.directions(n, m)
                required = lsub(ladd(gap, g), cert.scale_offset_p(n))
                return VerificationOutcome(
                    False,
                    Witness(m, n, dir_p or (), LogScalar.from_log(required), side="P"),
                    pairs,
                    slack_p,
                )
            rhs_q = ladd(cert.r_q_log(m), h) if h != math.inf else math.inf
            slack_q = _slack(rhs_q, gap)
            if slack_q < min_slack:
                min_slack = slack_q
            if slack_q < -tol:
                _, dir_q = ext.directions(n, m)
                required = lsub(lsub(gap, cert.scale_offset_q(m)), h)
                return VerificationOutcome(
                    False,
                    Witness(m, n, dir_q or (), LogScalar.from_log(required), side="Q"),
                    pairs,
                    slack_q,
                )
        done += window.m_max - n + 1
    return VerificationOutcome(True, None, done, min_slack)


def verify_triplet_form(
    sys: SystemDescription,
    proj: ProjectionFamily,
    cert: DichotomyCertificate,
    window: WindowSpec,
    tol: float = DEFAULT_LOG_TOL,
    tol_compat: float = DEFAULT_TOL_COMPAT,
) -> VerificationOutcome:
    """Three-index variant: directions are seeded at time p <= n.

    Equivalent to the pair form on the induced window (the pair form is the
    p = n slice); kept separate so the equivalence itself can be tested.
    """
    cert.validate(window)
    check_compatibility(sys, proj, window.n_min, window.m_max, tol_compat)
    alpha = cert.alpha
    memo: dict[tuple, tuple[LogMag, LogMag]] = {}
    zeros = sys.diag_prefix(window.m_max)[1] if sys.is_diagonal else None
    seed_at, seed = None, None
    min_slack = math.inf
    checked = 0
    for p, n, m in window.triplets():
        checked += 1
        if zeros is None:
            key = (p, n, m)
        else:
            # a diagonal ratio depends on p only through the mask at p and
            # the coordinates that no zero factor annihilates on (p, n]
            if seed_at != (p, n):
                seed_at = (p, n)
                seed = (proj.mask(p), tuple(z[n] == z[p] for z in zeros))
            key = (n, m, seed)
        got = memo.get(key)
        if got is None:
            rat = restricted_ratio_extremes(sys, proj, m, n, p)
            rp = rat.ratio_p.logmag if rat.ratio_p.sign != 0 else -math.inf
            rq = rat.ratio_q.logmag if rat.ratio_q.sign != 0 else -math.inf
            got = (rp, rq)
            memo[key] = got
        rp, rq = got
        gap = alpha * (m - n)
        slack_p = _slack(cert.r_p_log(n), ladd(gap, rp) if rp != -math.inf else -math.inf)
        slack_q = _slack(cert.r_q_log(m), ladd(gap, rq) if rq != -math.inf else -math.inf)
        worse = min(slack_p, slack_q)
        if worse < min_slack:
            min_slack = worse
        if worse < -tol:
            side = "P" if slack_p <= slack_q else "Q"
            bad = rp if side == "P" else rq
            offset = cert.scale_offset_p(n) if side == "P" else cert.scale_offset_q(m)
            required = lsub(ladd(gap, bad), offset)
            direction = _triplet_direction(sys, proj, m, n, p, side)
            return VerificationOutcome(
                False,
                Witness(m, n, direction, LogScalar.from_log(required), side=side),
                checked,
                worse,
            )
    return VerificationOutcome(True, None, checked, min_slack)


def _triplet_direction(sys, proj, m, n, p, side) -> tuple[float, ...]:
    if sys.is_diagonal:
        mask = proj.mask(p)
        best, best_idx = None, None
        for i in range(sys.dim):
            if mask[i] != (side == "P"):
                continue
            num = abs(sys.diag_factor(i, m, p) if side == "P" else sys.diag_factor(i, n, p))
            den = abs(sys.diag_factor(i, n, p) if side == "P" else sys.diag_factor(i, m, p))
            if den.is_zero:
                continue
            r = num / den
            if best is None or r > best:
                best, best_idx = r, i
        if best_idx is None:
            return ()
        return tuple(1.0 if j == best_idx else 0.0 for j in range(sys.dim))
    ext = restricted_extremes(sys, proj, m if side == "P" else n, p)
    return (ext.direction_p if side == "P" else ext.direction_q) or ()


def optimal_N_for_alpha(
    sys: SystemDescription,
    proj: ProjectionFamily,
    alpha: float,
    window: WindowSpec,
    tol_compat: float = DEFAULT_TOL_COMPAT,
) -> LogScalar:
    """Least N making the uniform inequality hold everywhere on the window:
    the maximum over pairs of both reduced ratios, floored at 1."""
    if not alpha > 0:
        raise InvalidCertificateError(f"alpha must be positive, got {alpha}")
    check_compatibility(sys, proj, window.n_min, window.m_max, tol_compat)
    best: LogMag = 0
    if sys.is_diagonal:
        scan = _DiagonalScan(sys, proj, window)
        for cand in scan.p_rows(alpha, window.m_max) + scan.q_cols(alpha):
            if cand > best:
                best = cand
        return LogScalar.from_log(best)
    ext = _PairExtremes(sys, proj)
    for n, m in window.pairs():
        gap = alpha * (m - n)
        g, h = ext.logs(n, m)
        if g != -math.inf:
            cand = ladd(gap, g)
            if cand > best:
                best = cand
        if h != math.inf:
            cand = lsub(gap, h) if h != -math.inf else math.inf
            if cand > best:
                best = cand
    return LogScalar.from_log(best)


@dataclass(frozen=True)
class GridPoint:
    alpha: float
    beta: float | None
    log_n_full: float
    log_n_half: float
    stable: bool


@dataclass(frozen=True)
class UniformEstimate:
    alpha: float
    n_value: LogScalar
    stable: bool
    table: tuple[GridPoint, ...]


@dataclass(frozen=True)
class ExponentialEstimate:
    alpha: float
    beta: float
    n_value: LogScalar
    stable: bool
    table: tuple[GridPoint, ...]


class _PairTable:
    """Flat per-pair arrays for grid sweeps of dense systems (float64)."""

    def __init__(self, sys, proj, window: WindowSpec):
        ext = _PairExtremes(sys, proj)
        ns, ms, gs, hs = [], [], [], []
        for n, m in window.pairs():
            g, h = ext.logs(n, m)
            ns.append(n)
            ms.append(m)
            gs.append(lfloat(g))
            hs.append(lfloat(h))
        self.n = np.array(ns, dtype=float)
        self.m = np.array(ms, dtype=float)
        self.d = self.m - self.n
        self.g = np.array(gs, dtype=float)
        self.h = np.array(hs, dtype=float)
        half_m = window.half().m_max
        self.half_mask = self.m <= half_m

    def min_log_n(self, alpha: float, beta: float, half: bool = False) -> float:
        mask = self.half_mask if half else None
        g = self.g if mask is None else self.g[mask]
        h = self.h if mask is None else self.h[mask]
        d = self.d if mask is None else self.d[mask]
        n = self.n if mask is None else self.n[mask]
        m = self.m if mask is None else self.m[mask]
        with np.errstate(invalid="ignore"):
            p_side = alpha * d + g - beta * n
            q_side = alpha * d - h - beta * m
        p_side = np.where(np.isnan(p_side), -np.inf, p_side)
        q_side = np.where(np.isnan(q_side), -np.inf, q_side)
        best = 0.0
        if p_side.size:
            best = max(best, float(np.max(p_side)), float(np.max(q_side)))
        return best


class _DiagonalTable:
    """Grid sweeps of a diagonal system from the running maxima of each rate.

    The row and column maxima depend on alpha alone; beta only shifts row n
    by -beta n and column m by -beta m, so one scan serves every beta of a
    rate. Pairs with m = n are left out: they demand at most 0, the floor of
    every constant, since ``estimate_ed`` admits only beta >= 0. When every
    prefix log-sum mixes with floats as a float (``mixes_as_float``),
    ``ladd`` is plain float arithmetic and numpy repeats the scan's
    operations in the same order; larger exact logs keep the scan's exact
    arithmetic, since float differences of them cancel.
    """

    def __init__(self, sys, proj, window: WindowSpec):
        self.scan = scan = _DiagonalScan(sys, proj, window)
        self.mid = window.half().m_max
        self.index = np.arange(scan.lo, scan.hi + 1, dtype=float)
        self.alpha = None
        self.coords = None
        window_pre = [pre[scan.lo:scan.hi + 1] for pre in scan.pre]
        if all(mixes_as_float(v) for pre in window_pre for v in pre):
            in_p = np.array(scan.masks, dtype=bool)
            self.coords = [
                (np.array(pre, dtype=float), np.array(zeros[scan.lo:scan.hi + 1]), in_p[:, i])
                for i, (pre, zeros) in enumerate(zip(window_pre, scan.zeros))
            ]

    def min_log_n(self, alpha: float, beta: float, half: bool = False) -> float:
        scan = self.scan
        if alpha != self.alpha:
            self.alpha = alpha
            if self.coords is None:
                self.rows = np.array([lfloat(v) for v in scan.p_rows(alpha, scan.hi)])
                self.rows_half = np.array([lfloat(v) for v in scan.p_rows(alpha, self.mid)])
                self.cols = np.array([lfloat(v) for v in scan.q_cols(alpha)])
            else:
                self.rows = self._p_rows(alpha, len(self.index))
                self.rows_half = self._p_rows(alpha, self.mid - scan.lo + 1)
                self.cols = self._q_cols(alpha)
        size = self.mid - scan.lo + 1 if half else len(self.index)
        index = self.index[:size]
        rows = self.rows_half if half else self.rows
        return max(
            0.0,
            float(np.max(rows - beta * index)),
            float(np.max(self.cols[:size] - beta * index)),
        )

    def _p_rows(self, alpha: float, size: int) -> np.ndarray:
        """``_DiagonalScan.p_rows`` on the first ``size`` indices, in numpy."""
        ax = alpha * self.index[:size]
        out = np.full(size, -np.inf)
        for pre, zeros, in_p in self.coords:
            pre, zeros = pre[:size], zeros[:size]
            suffix = _segmented_max(ax + pre, zeros, reverse=True)
            strict = np.full(size, -np.inf)
            strict[:-1] = np.where(zeros[1:] == zeros[:-1], suffix[1:], -np.inf)
            out = np.maximum(out, np.where(in_p[:size], (strict - ax) - pre, -np.inf))
        return out

    def _q_cols(self, alpha: float) -> np.ndarray:
        """``_DiagonalScan.q_cols`` in numpy."""
        ax = alpha * self.index
        out = np.full(len(ax), -np.inf)
        for pre, zeros, in_p in self.coords:
            prefix = _segmented_max(np.where(in_p, -np.inf, pre - ax), zeros, reverse=False)
            before = np.full(len(ax), -np.inf)
            before[1:] = np.where(zeros[1:] == zeros[:-1], prefix[:-1], -np.inf)
            cols = (before + ax) - pre
            starts = np.flatnonzero(~in_p)
            if starts.size:
                # a pair from the first Q start across a zero factor: gain 0
                cols[zeros > zeros[starts[0]]] = np.inf
            out = np.maximum(out, cols)
        return out


def _segmented_max(values: np.ndarray, zeros: np.ndarray, reverse: bool) -> np.ndarray:
    """Running maximum of ``values`` that restarts wherever ``zeros`` changes."""
    out = np.empty_like(values)
    bounds = [0, *(np.flatnonzero(np.diff(zeros)) + 1), len(values)]
    for s, e in zip(bounds, bounds[1:]):
        if reverse:
            out[s:e] = np.maximum.accumulate(values[s:e][::-1])[::-1]
        else:
            out[s:e] = np.maximum.accumulate(values[s:e])
    return out


def _grid_table(sys, proj, window: WindowSpec):
    return (_DiagonalTable if sys.is_diagonal else _PairTable)(sys, proj, window)


def estimate_ued(
    sys: SystemDescription,
    proj: ProjectionFamily,
    window: WindowSpec,
    alpha_grid: Sequence[float],
    tol_compat: float = DEFAULT_TOL_COMPAT,
) -> UniformEstimate:
    """Grid search for the least uniform constant; flags window stability.

    The flag compares the minimal N on the half window against the full
    window: growth under window doubling marks the candidate for
    falsification rather than certification.
    """
    if not alpha_grid:
        raise ValueError("alpha grid must be nonempty")
    check_compatibility(sys, proj, window.n_min, window.m_max, tol_compat)
    table = _grid_table(sys, proj, window)
    rows = []
    best_row = None
    for alpha in sorted(alpha_grid):
        if alpha <= 0:
            raise InvalidCertificateError("alpha grid entries must be positive")
        full = table.min_log_n(alpha, 0.0)
        half = table.min_log_n(alpha, 0.0, half=True)
        stable = full <= half + DEFAULT_LOG_TOL
        row = GridPoint(alpha, None, full, half, stable)
        rows.append(row)
        if best_row is None or full < best_row.log_n_full - _TIE_BAND:
            best_row = row
        elif abs(full - best_row.log_n_full) <= _TIE_BAND and alpha > best_row.alpha:
            best_row = row
    return UniformEstimate(
        best_row.alpha, LogScalar.from_log(best_row.log_n_full), best_row.stable, tuple(rows)
    )


def estimate_ed(
    sys: SystemDescription,
    proj: ProjectionFamily,
    window: WindowSpec,
    alpha_grid: Sequence[float] | None = None,
    beta_grid: Sequence[float] | None = None,
    strong: bool = False,
    tol_compat: float = DEFAULT_TOL_COMPAT,
) -> ExponentialEstimate:
    """Grid search over (alpha, beta) for the least weighted constant.

    With ``strong`` set, only pairs with beta < alpha are admissible and an
    empty admissible set is an error.
    """
    check_compatibility(sys, proj, window.n_min, window.m_max, tol_compat)
    if alpha_grid is None:
        alpha_grid = default_alpha_grid(sys, proj, window)
    if beta_grid is None:
        beta_grid = default_beta_grid(max(alpha_grid))
    if not alpha_grid or not beta_grid:
        raise ValueError("grids must be nonempty")
    if any(b < 0 for b in beta_grid):
        raise InvalidCertificateError("beta grid entries must satisfy beta >= 0")
    pairs = [
        (a, b)
        for a in sorted(alpha_grid)
        for b in sorted(beta_grid)
        if not strong or b < a
    ]
    if not pairs:
        raise EmptyFeasibleSetError("no grid pair satisfies beta < alpha")
    table = _grid_table(sys, proj, window)
    rows = []
    best_row = None
    for alpha, beta in pairs:
        if alpha <= 0:
            raise InvalidCertificateError("alpha grid entries must be positive")
        full = table.min_log_n(alpha, beta)
        half = table.min_log_n(alpha, beta, half=True)
        stable = full <= half + DEFAULT_LOG_TOL
        row = GridPoint(alpha, beta, full, half, stable)
        rows.append(row)
        if best_row is None or full < best_row.log_n_full - _TIE_BAND:
            best_row = row
        elif abs(full - best_row.log_n_full) <= _TIE_BAND:
            if alpha > best_row.alpha or (alpha == best_row.alpha and beta < best_row.beta):
                best_row = row
    return ExponentialEstimate(
        best_row.alpha,
        best_row.beta,
        LogScalar.from_log(best_row.log_n_full),
        best_row.stable,
        tuple(rows),
    )


def minimal_ned_profile(
    sys: SystemDescription,
    proj: ProjectionFamily,
    alpha: float,
    window: WindowSpec,
    tol_compat: float = DEFAULT_TOL_COMPAT,
) -> TabulatedProfile:
    """Pointwise-minimal nondecreasing profile for the nonuniform inequality.

    Each pair (m, n) demands profile(n) >= exp(alpha (m-n)) growth_P and
    profile(m) >= exp(alpha (m-n)) / min_gain_Q; per-index maxima followed
    by a running maximum give the least admissible profile (floored at 1,
    which every index with nontrivial ranges forces at m = n anyway).
    """
    if not alpha > 0:
        raise InvalidCertificateError(f"alpha must be positive, got {alpha}")
    check_compatibility(sys, proj, window.n_min, window.m_max, tol_compat)
    base = window.n_min
    raw: list[LogMag] = [0 for _ in range(window.m_max - base + 1)]
    if sys.is_diagonal:
        scan = _DiagonalScan(sys, proj, window)
        for k, needs in enumerate(zip(scan.p_rows(alpha, window.m_max), scan.q_cols(alpha))):
            for need in needs:
                if need > raw[k]:
                    raw[k] = need
    else:
        ext = _PairExtremes(sys, proj)
        for n, m in window.pairs():
            gap = alpha * (m - n)
            g, h = ext.logs(n, m)
            if g != -math.inf:
                need_n = ladd(gap, g)
                if need_n > raw[n - base]:
                    raw[n - base] = need_n
            if h != math.inf:
                need_m = lsub(gap, h) if h != -math.inf else math.inf
                if need_m > raw[m - base]:
                    raw[m - base] = need_m
    running: LogMag = -math.inf
    values = []
    for v in raw:
        if running == -math.inf or v > running:
            running = v
        values.append(LogScalar.from_log(running))
    return TabulatedProfile(base, tuple(values))


# -- falsification -------------------------------------------------------------


@dataclass(frozen=True)
class WitnessSchedule:
    """A parameterized family of pairs plus a probe direction.

    ``pair_fn`` maps the family parameter k to (m, n); the direction is a
    coordinate index or an explicit vector used at time n.
    """

    name: str
    pair_fn: Callable[[int], tuple[int, int]]
    direction: int | tuple[float, ...]
    default_alpha: float = 0.5
    default_beta: float = 0.0
    description: str = ""

    def pair_at(self, k: int) -> tuple[int, int]:
        return self.pair_fn(k)

    def direction_vector(self, dim: int) -> tuple[float, ...]:
        if isinstance(self.direction, int):
            return tuple(1.0 if j == self.direction else 0.0 for j in range(dim))
        return tuple(float(v) for v in self.direction)


def _vector_parts(sys, proj, m, n, x):
    """(|A_P x|, |Q x|, |P x|, |A_Q x|) at the pair, as LogScalars."""
    if sys.is_diagonal:
        mask = proj.mask(n)
        ap = LogScalar.zero()
        qx = LogScalar.zero()
        px = LogScalar.zero()
        aq = LogScalar.zero()
        for i in range(sys.dim):
            xi = abs(LogScalar.from_float(x[i]))
            if xi.is_zero:
                continue
            lam = abs(sys.diag_factor(i, m, n)) * xi
            if mask[i]:
                ap = max(ap, lam)
                px = max(px, xi)
            else:
                qx = max(qx, xi)
                aq = max(aq, lam)
        return ap, qx, px, aq
    from .system import _dense_product  # local import to keep the surface small

    xv = np.asarray(x, dtype=float)
    p = proj.matrix(n)
    q = proj.complement_matrix(n)
    evo = _dense_product(sys, m, n)
    return (
        LogScalar.from_float(float(np.linalg.norm(evo @ (p @ xv)))),
        LogScalar.from_float(float(np.linalg.norm(q @ xv))),
        LogScalar.from_float(float(np.linalg.norm(p @ xv))),
        LogScalar.from_float(float(np.linalg.norm(evo @ (q @ xv)))),
    )


def falsify(
    sys: SystemDescription,
    proj: ProjectionFamily,
    concept: Kind,
    schedule: WitnessSchedule,
    k_values: Iterable[int],
    alpha: float | None = None,
    beta: float | None = None,
    profile: Profile | None = None,
    tol_compat: float = DEFAULT_TOL_COMPAT,
) -> WitnessReport:
    """Track the minimal constant along a witness family.

    The report is ``divergent`` when the required constants grow
    monotonically across at least five consecutive family members with a
    positive least-squares slope of their logs; a certified system can only
    produce ``bounded`` reports.
    """
    alpha = schedule.default_alpha if alpha is None else alpha
    if not alpha > 0:
        raise InvalidCertificateError("trial alpha must be positive")
    if concept in (Kind.ED, Kind.SED):
        beta = schedule.default_beta if beta is None else beta
        if beta < 0:
            raise InvalidCertificateError("trial beta must be nonnegative")
    elif concept is Kind.NED and profile is None:
        raise InvalidCertificateError("falsifying the nonuniform concept needs a trial profile")
    ks = sorted(set(int(k) for k in k_values))
    if not ks:
        raise ScheduleOutOfRangeError("empty family parameter range")
    witnesses = []
    logs: list[LogMag] = []
    for k in ks:
        m, n = schedule.pair_at(k)
        if m < n or n < 0:
            raise ScheduleOutOfRangeError(f"schedule produced invalid pair (m, n) = ({m}, {n})")
        try:
            sys.check_pair(m, n)
        except (OutOfRangeError, IndexOrderError) as exc:
            raise ScheduleOutOfRangeError(str(exc)) from exc
        check_compatibility(sys, proj, n, m, tol_compat)
        x = schedule.direction_vector(sys.dim)
        ap, qx, px, aq = _vector_parts(sys, proj, m, n, x)
        gap = LogScalar.from_log(alpha * (m - n))
        numerator = gap * (ap + qx)
        if concept is Kind.UED:
            w_p, w_q = LogScalar.one(), LogScalar.one()
        elif concept is Kind.NED:
            w_p, w_q = profile.at(n), profile.at(m)
        else:
            w_p = LogScalar.from_log(beta * n)
            w_q = LogScalar.from_log(beta * m)
        denominator = w_p * px + w_q * aq
        if denominator.is_zero:
            required = LogScalar.positive_infinity()
        else:
            required = numerator / denominator
        witnesses.append(Witness(m, n, x, required, side="family"))
        logs.append(required.logmag if required.sign != 0 else -math.inf)
    trend, slope = _classify_trend(ks, logs)
    return WitnessReport(
        concept=concept,
        schedule=schedule.name,
        witnesses=tuple(witnesses),
        trend=trend,
        log_slope=slope,
        trial_alpha=alpha,
        trial_beta=beta if concept in (Kind.ED, Kind.SED) else None,
    )


def _classify_trend(ks: Sequence[int], logs: Sequence[LogMag]) -> tuple[str, float]:
    floats = [lfloat(v) for v in logs]
    finite = [(k, v) for k, v in zip(ks, floats) if math.isfinite(v)]
    if len(finite) >= 2:
        xs = np.array([k for k, _ in finite], dtype=float)
        ys = np.array([v for _, v in finite], dtype=float)
        xbar, ybar = xs.mean(), ys.mean()
        denom = float(np.sum((xs - xbar) ** 2))
        slope = float(np.sum((xs - xbar) * (ys - ybar)) / denom) if denom else 0.0
    else:
        slope = 0.0
    if len(logs) < 5:
        return "bounded", slope
    nondecreasing = all(logs[i + 1] >= logs[i] for i in range(len(logs) - 1))
    growing = logs[-1] > logs[0]
    if nondecreasing and growing and slope > _TIE_BAND:
        return "divergent", slope
    return "bounded", slope


# -- default grids --------------------------------------------------------------


def default_alpha_grid(
    sys: SystemDescription,
    proj: ProjectionFamily,
    window: WindowSpec,
    count: int = 32,
) -> list[float]:
    """Log-spaced decay rates up to a one-pair spectral-gap estimate."""
    ext = _PairExtremes(sys, proj)
    alpha_max = 0.0
    for m in {window.m_max, max(window.n_min + 1, window.m_max - 1)}:
        if m <= window.n_min:
            continue
        g, h = ext.logs(window.n_min, m)
        span = m - window.n_min
        cands = []
        if g != -math.inf:
            cands.append(-lfloat(g) / span)
        if h not in (math.inf, -math.inf):
            cands.append(lfloat(h) / span)
        if cands:
            alpha_max = max(alpha_max, min(cands))
    if not math.isfinite(alpha_max) or alpha_max <= 0:
        alpha_max = 1.0
    grid = list(np.geomspace(alpha_max / 100.0, alpha_max, count))
    grid[-1] = alpha_max
    return grid


def default_beta_grid(alpha_max: float, count: int = 16) -> list[float]:
    return list(np.linspace(0.0, 2.0 * alpha_max, count))
