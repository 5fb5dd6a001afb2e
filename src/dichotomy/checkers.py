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
from .logscalar import (
    LogMag,
    LogScalar,
    ladd,
    lfloat,
    logaddexp_mag,
    lsub,
    mixes_as_float,
    rounding_scale,
)
from .system import (
    DEFAULT_TOL_COMPAT,
    ProjectionFamily,
    SystemDescription,
    _sweeps,
    check_compatibility,
    check_pairs_compatibility,
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
    """Growth/min-gain log-magnitudes per pair (n, m) of a window, from the
    system's kernel one row at a time."""

    def __init__(self, sys: SystemDescription, proj: ProjectionFamily, window: WindowSpec):
        self._sweeps = _sweeps(sys, proj, window.n_min, window.m_max)
        self._row = None

    def _at(self, n: int):
        if self._row is None or self._row.n != n:
            self._row = self._sweeps.row(n)
        return self._row

    def logs(self, n: int, m: int) -> tuple[LogMag, LogMag]:
        """(log growth_P, log min_gain_Q); -inf / +inf mark trivial ranges."""
        return self._at(n).logs(m)

    def directions(self, n: int, m: int) -> tuple[tuple[float, ...] | None, tuple[float, ...] | None]:
        ext = self._at(n).extremes(m)
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
        weights = [cert.r_log(k) for k in range(lo, hi + 1)]
        pre = [v for coord in self.pre for v in coord[lo:hi + 1]]
        scale = abs(alpha) * (hi + 1) + max(map(rounding_scale, pre))
        scale += max(map(rounding_scale, weights))
        if not all(isinstance(v, float) or v == 0 for v in pre + weights):
            scale *= 2
        cutoff = tol - _ROUNDING_BOUND * scale
        rows: set[int] = set()
        least = math.inf
        for k, (g, q) in enumerate(zip(self.p_rows(alpha, hi), self.q_rows(alpha, weights))):
            worst = max(lsub(g, weights[k]) if g != -math.inf else -math.inf, q)
            if worst > cutoff:
                rows.add(lo + k)
            else:
                least = min(least, -lfloat(worst))
        return rows, least


def _validate(cert: DichotomyCertificate, window: WindowSpec, tol: float) -> None:
    cert.validate(window)
    if not math.isfinite(tol):
        raise InvalidCertificateError(f"tolerance must be finite, got {tol}")


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
    _validate(cert, window, tol)
    check_compatibility(sys, proj, window.n_min, window.m_max, tol_compat)
    ext = _PairExtremes(sys, proj, window)
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
            slack_p = _slack(cert.r_log(n), ladd(gap, g) if g != -math.inf else -math.inf)
            if slack_p < min_slack:
                min_slack = slack_p
            if slack_p < -tol:
                dir_p, _ = ext.directions(n, m)
                required = lsub(ladd(gap, g), cert.scale_offset(n))
                return VerificationOutcome(
                    False,
                    Witness(m, n, dir_p or (), LogScalar.from_log(required), side="P"),
                    pairs,
                    slack_p,
                )
            rhs_q = ladd(cert.r_log(m), h) if h != math.inf else math.inf
            slack_q = _slack(rhs_q, gap)
            if slack_q < min_slack:
                min_slack = slack_q
            if slack_q < -tol:
                _, dir_q = ext.directions(n, m)
                required = lsub(lsub(gap, cert.scale_offset(m)), h)
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
    _validate(cert, window, tol)
    check_compatibility(sys, proj, window.n_min, window.m_max, tol_compat)
    alpha = cert.alpha
    # one kernel row per p, the outer loop
    kernel = _sweeps(sys, proj, window.n_min, window.m_max)
    row = None
    min_slack = math.inf
    checked = 0
    for p, n, m in window.triplets():
        checked += 1
        if row is None or row.n != p:
            row = kernel.row(p)
        rp, rq = _ratio_logs(row.ratios(m, n))
        gap = alpha * (m - n)
        slack_p = _slack(cert.r_log(n), ladd(gap, rp) if rp != -math.inf else -math.inf)
        slack_q = _slack(cert.r_log(m), ladd(gap, rq) if rq != -math.inf else -math.inf)
        worse = min(slack_p, slack_q)
        if worse < min_slack:
            min_slack = worse
        if worse < -tol:
            side = "P" if slack_p <= slack_q else "Q"
            bad = rp if side == "P" else rq
            offset = cert.scale_offset(n) if side == "P" else cert.scale_offset(m)
            required = lsub(ladd(gap, bad), offset)
            return VerificationOutcome(
                False,
                Witness(m, n, row.triplet_direction(m, n, side), LogScalar.from_log(required),
                        side=side),
                checked,
                worse,
            )
    return VerificationOutcome(True, None, checked, min_slack)


def _ratio_logs(rat) -> tuple[LogMag, LogMag]:
    return tuple(r.logmag if r.sign != 0 else -math.inf for r in (rat.ratio_p, rat.ratio_q))


def optimal_N_for_alpha(
    sys: SystemDescription,
    proj: ProjectionFamily,
    alpha: float,
    window: WindowSpec,
    tol_compat: float = DEFAULT_TOL_COMPAT,
) -> LogScalar:
    """Least N making the uniform inequality hold everywhere on the window:
    the maximum over pairs of both reduced ratios, floored at 1, which is
    the last value of the minimal nonuniform profile."""
    return minimal_ned_profile(sys, proj, alpha, window, tol_compat).values[-1]


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


class _DiagonalDemands:
    """Demands of a diagonal window, from the running maxima of
    ``_DiagonalScan``.

    Pairs with m = n are left out: they demand at most 0, the floor of every
    constant, since the estimators admit only beta >= 0. When every prefix
    log-sum mixes with floats as a float (``mixes_as_float``) and the rate is
    a float, ``ladd`` is plain float arithmetic and numpy repeats the scan's
    operations in the same order; larger exact logs keep the scan's exact
    arithmetic, since float differences of them cancel.
    """

    def __init__(self, sys, proj, window: WindowSpec):
        self.scan = scan = _DiagonalScan(sys, proj, window)
        self.index = np.arange(scan.lo, scan.hi + 1, dtype=float)
        self.coords = None
        window_pre = [pre[scan.lo:scan.hi + 1] for pre in scan.pre]
        if all(mixes_as_float(v) for pre in window_pre for v in pre):
            in_p = np.array(scan.masks, dtype=bool)
            self.coords = [
                (np.array(pre, dtype=float), np.array(zeros[scan.lo:scan.hi + 1]), in_p[:, i])
                for i, (pre, zeros) in enumerate(zip(window_pre, scan.zeros))
            ]

    def _in_numpy(self, alpha) -> bool:
        return self.coords is not None and isinstance(alpha, float)

    def rows(self, alpha: float, hi: int):
        """``_DiagonalScan.p_rows``."""
        if not self._in_numpy(alpha):
            return self.scan.p_rows(alpha, hi)
        size = hi - self.scan.lo + 1
        ax = alpha * self.index[:size]
        out = np.full(size, -np.inf)
        for pre, zeros, in_p in self.coords:
            pre, zeros = pre[:size], zeros[:size]
            suffix = _segmented_max(ax + pre, zeros, reverse=True)
            strict = np.full(size, -np.inf)
            strict[:-1] = np.where(zeros[1:] == zeros[:-1], suffix[1:], -np.inf)
            out = np.maximum(out, np.where(in_p[:size], (strict - ax) - pre, -np.inf))
        return out

    def cols(self, alpha: float):
        """``_DiagonalScan.q_cols``."""
        if not self._in_numpy(alpha):
            return self.scan.q_cols(alpha)
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


class _DenseDemands:
    """Demands of a dense window from one (n, m) table of the pair extremes,
    filled once; the entries with m < n are -inf on the P side and +inf on
    the Q side, so they demand nothing."""

    def __init__(self, sys, proj, window: WindowSpec):
        ext = _PairExtremes(sys, proj, window)
        self.lo = lo = window.n_min
        size = window.m_max - lo + 1
        self.growth = np.full((size, size), -np.inf)
        self.gain = np.full((size, size), np.inf)
        for n, m in window.pairs():
            self.growth[n - lo, m - lo], self.gain[n - lo, m - lo] = ext.logs(n, m)
        steps = np.arange(size, dtype=float)
        self.gap = steps - steps[:, None]  # m - n

    def rows(self, alpha: float, hi: int) -> np.ndarray:
        size = hi - self.lo + 1
        return np.max(alpha * self.gap[:size, :size] + self.growth[:size, :size], axis=1)

    def cols(self, alpha: float) -> np.ndarray:
        return np.max(alpha * self.gap - self.gain, axis=0)


def _demands(sys, proj, window: WindowSpec):
    """The per-index demands of the system's representation on the window.

    ``rows(alpha, hi)`` gives, for each start index n up to ``hi``, the
    largest alpha (m - n) + log growth_P(m, n) over n <= m <= hi, a lower
    bound on log R_P(n); ``cols(alpha)`` gives, for each end index m, the
    largest alpha (m - n) - log min_gain_Q(m, n), a lower bound on
    log R_Q(m). Either is a list of log-magnitudes or a float array, and
    may leave out the pairs m = n, whose demand is at most 0.
    """
    return (_DiagonalDemands if sys.is_diagonal else _DenseDemands)(sys, proj, window)


class _GridTable:
    """Least log N of the weighted inequality at each (alpha, beta) point.

    beta only shifts row n by -beta n and column m by -beta m, so the
    demands of one rate serve every beta of it.
    """

    def __init__(self, sys, proj, window: WindowSpec):
        self.demands = _demands(sys, proj, window)
        self.hi, self.mid = window.m_max, window.half().m_max
        self.index = np.arange(window.n_min, window.m_max + 1, dtype=float)
        self.alpha = None

    def min_log_n(self, alpha: float, beta: float, half: bool = False) -> float:
        if alpha != self.alpha:
            self.alpha = alpha
            self.rows = _floats(self.demands.rows(alpha, self.hi))
            self.rows_half = _floats(self.demands.rows(alpha, self.mid))
            self.cols = _floats(self.demands.cols(alpha))
        rows = self.rows_half if half else self.rows
        index = self.index[:len(rows)]
        return max(
            0.0,
            float(np.max(rows - beta * index)),
            float(np.max(self.cols[:len(rows)] - beta * index)),
        )


def _floats(demands) -> np.ndarray:
    if isinstance(demands, np.ndarray):
        return demands
    return np.array([lfloat(v) for v in demands], dtype=float)


def _logs(demands) -> list[LogMag]:
    return demands.tolist() if isinstance(demands, np.ndarray) else demands


def _check_alphas(alpha_grid: Sequence[float]) -> None:
    # comparisons that NaN fails, so NaN and infinite entries are rejected
    if not all(0 < a < math.inf for a in alpha_grid):
        raise InvalidCertificateError("alpha grid entries must be positive and finite")


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
        raise EmptyFeasibleSetError("alpha grid must be nonempty")
    check_compatibility(sys, proj, window.n_min, window.m_max, tol_compat)
    _check_alphas(alpha_grid)
    table = _GridTable(sys, proj, window)
    rows = []
    best_row = None
    for alpha in sorted(alpha_grid):
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
    if not alpha_grid:
        raise EmptyFeasibleSetError("alpha grid must be nonempty")
    _check_alphas(alpha_grid)
    if beta_grid is None:
        beta_grid = default_beta_grid(max(alpha_grid))
    if not beta_grid:
        raise EmptyFeasibleSetError("beta grid must be nonempty")
    # comparisons that NaN fails, so NaN and infinite entries are rejected
    if not all(0 <= b < math.inf for b in beta_grid):
        raise InvalidCertificateError("beta grid entries must be finite and satisfy beta >= 0")
    pairs = [
        (a, b)
        for a in sorted(alpha_grid)
        for b in sorted(beta_grid)
        if not strong or b < a
    ]
    if not pairs:
        raise EmptyFeasibleSetError("no grid pair satisfies beta < alpha")
    table = _GridTable(sys, proj, window)
    rows = []
    best_row = None
    for alpha, beta in pairs:
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
    if not 0 < alpha < math.inf:
        raise InvalidCertificateError(f"alpha must be positive and finite, got {alpha}")
    check_compatibility(sys, proj, window.n_min, window.m_max, tol_compat)
    demands = _demands(sys, proj, window)
    running: LogMag = 0
    values = []
    for row, col in zip(_logs(demands.rows(alpha, window.m_max)), _logs(demands.cols(alpha))):
        running = max(running, row, col)
        values.append(LogScalar.from_log(running))
    return TabulatedProfile(window.n_min, tuple(values))


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
            if not 0 <= self.direction < dim:
                raise ScheduleOutOfRangeError(
                    f"probe coordinate {self.direction} outside 0..{dim - 1}"
                )
            return tuple(1.0 if j == self.direction else 0.0 for j in range(dim))
        if len(self.direction) != dim:
            raise ScheduleOutOfRangeError(
                f"probe vector has {len(self.direction)} entries, the system {dim}"
            )
        return tuple(float(v) for v in self.direction)


def _family_norms(sys, proj, pairs, x):
    """Log-magnitudes (|A_P x|, |Q x|, |P x|, |A_Q x|) of every pair (m, n),
    keyed by the pair; -inf marks a zero. One kernel spans the family, and
    each start index n takes one trajectory per side up to its last horizon."""
    kernel = _sweeps(sys, proj, min(n for _, n in pairs), max(m for m, _ in pairs))
    horizons: dict[int, set[int]] = {}
    for m, n in pairs:
        horizons.setdefault(n, set()).add(m)
    fixed_parts = proj.split(pairs[0][1], x) if proj.constant else None
    norms = {}
    for n, ms in horizons.items():
        ms = sorted(ms)
        (px, *aps), (qx, *aqs) = (
            kernel.lognorms(part, start[:, None], n, at=(n, *ms))[0]
            for part, start in zip("PQ", fixed_parts or proj.split(n, x))
        )
        for m, ap, aq in zip(ms, aps, aqs):
            norms[m, n] = ap, qx, px, aq
    return norms


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

    The family is evaluated as one batch: every pair is checked first, then
    compatibility once per index the pairs cover, and the norms come from
    one kernel over the family's span.
    """
    alpha = schedule.default_alpha if alpha is None else alpha
    if not alpha > 0:
        raise InvalidCertificateError("trial alpha must be positive")
    if not alpha < math.inf:
        raise InvalidCertificateError("trial alpha must be finite")
    if concept in (Kind.ED, Kind.SED):
        beta = schedule.default_beta if beta is None else beta
        if beta < 0:
            raise InvalidCertificateError("trial beta must be nonnegative")
        if not beta < math.inf:
            raise InvalidCertificateError("trial beta must be finite")
    elif concept is Kind.NED and profile is None:
        raise InvalidCertificateError("falsifying the nonuniform concept needs a trial profile")
    ks = sorted(set(int(k) for k in k_values))
    if not ks:
        raise ScheduleOutOfRangeError("empty family parameter range")
    pairs = [schedule.pair_at(k) for k in ks]
    for m, n in pairs:
        if m < n or n < 0:
            raise ScheduleOutOfRangeError(f"schedule produced invalid pair (m, n) = ({m}, {n})")
        try:
            sys.check_pair(m, n)
        except (OutOfRangeError, IndexOrderError) as exc:
            raise ScheduleOutOfRangeError(str(exc)) from exc
    check_pairs_compatibility(sys, proj, pairs, tol_compat)
    x = schedule.direction_vector(sys.dim)
    norms = _family_norms(sys, proj, pairs, x)
    witnesses = []
    logs: list[LogMag] = []
    for m, n in pairs:
        ap, qx, px, aq = norms[m, n]
        # the LogScalar arithmetic of exp(alpha (m-n)) (|A_P x| + |Q x|) over
        # w_P |P x| + w_Q |A_Q x|, on log-magnitudes with -inf for zero
        s = logaddexp_mag(ap, qx)
        numerator = _log_product(alpha * (m - n), s)
        if concept is Kind.UED:
            w_p, w_q = 0, 0
        elif concept is Kind.NED:
            w_p, w_q = profile.at(n).logmag, profile.at(m).logmag
        else:
            w_p, w_q = beta * n, beta * m
        denominator = logaddexp_mag(_log_product(w_p, px), _log_product(w_q, aq))
        if denominator == -math.inf:
            required = math.inf
        elif numerator == -math.inf:
            required = -math.inf
        else:
            required = lsub(numerator, denominator)
        witnesses.append(Witness(m, n, x, LogScalar.from_log(required), side="family"))
        logs.append(required)
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


def _log_product(a: LogMag, b: LogMag) -> LogMag:
    """log(exp(a) exp(b)) of two magnitudes, -inf when either is zero."""
    return -math.inf if a == -math.inf or b == -math.inf else ladd(a, b)


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
    if count < 1:
        raise EmptyFeasibleSetError(f"alpha grid needs at least one point, got {count}")
    ends = {window.m_max, max(window.n_min + 1, window.m_max - 1)}
    # a one-index window still reads the pair (n_min + 1, n_min)
    ext = _PairExtremes(sys, proj, WindowSpec(window.n_min, max(ends)))
    alpha_max = 0.0
    for m in ends:
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
    if count < 1:
        raise EmptyFeasibleSetError(f"beta grid needs at least one point, got {count}")
    _check_alphas([alpha_max])
    return list(np.linspace(0.0, 2.0 * alpha_max, count))
