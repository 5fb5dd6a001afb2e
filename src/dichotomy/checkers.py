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


_LADD = np.frompyfunc(ladd, 2, 1)
_LSUB = np.frompyfunc(lsub, 2, 1)


class _DiagonalScan:
    """Worst pair of every row or column of a diagonal window, in O(W * dim).

    Coordinate i's factor over (n, m] has log-magnitude pre_i[m] - pre_i[n]
    (the prefix log-sums) unless a zero factor a_i(k), n < k <= m,
    annihilates it. The P-side excess alpha (m - n) + pre_i[m] - pre_i[n]
    of a pair splits into a term in m and a term in n, so the worst m of
    row n is a suffix maximum of alpha m + pre_i[m] that a zero factor
    restarts; on the Q side a crossed zero factor makes the minimal gain 0
    and the excess +inf. Pairs with m = n are left out (their excess is 0
    on every nonempty range, the floor of every constant); callers account
    for them.

    Each running maximum is one array pass per coordinate. When every
    prefix log-sum of the window and every weight mixes with floats as a
    float (``mixes_as_float``) and the rate is a float, ``ladd`` is plain
    float arithmetic and the arrays are float64; otherwise they are object
    arrays combined by ``ladd``/``lsub`` in the same order, so ``int`` and
    ``Fraction`` logs stay exact (float differences of large ones cancel).
    """

    def __init__(self, sys: SystemDescription, proj: ProjectionFamily, window: WindowSpec):
        self.lo, self.hi = lo, hi = window.n_min, window.m_max
        pre, zeros = sys.diag_prefix(hi)
        self.pre = [coord[lo:hi + 1] for coord in pre]
        self.mixes = all(mixes_as_float(v) for coord in self.pre for v in coord)
        self._forms = {}
        self.in_p = np.array([proj.mask(n) for n in range(lo, hi + 1)], dtype=bool).T
        # per coordinate: the first index of each stretch between zero
        # factors, and the first column that a pair from the first Q start
        # reaches only across a zero factor (gain 0)
        size = hi - lo + 1
        self.bounds = [[0, *(np.flatnonzero(np.diff(coord[lo:hi + 1])) + 1).tolist(), size]
                       for coord in zeros]
        first_q = [np.append(np.flatnonzero(~in_p), size)[0] for in_p in self.in_p]
        self.crossed = [min((b for b in bounds if b > first), default=size)
                        for bounds, first in zip(self.bounds, first_q)]

    def _form(self, alpha: LogMag, weights: Sequence[LogMag] = ()):
        """(indices, prefix sums, add, subtract) of the window, float64 with
        numpy's arithmetic or object arrays with ``ladd``/``lsub``."""
        floats = self.mixes and isinstance(alpha, float) and all(map(mixes_as_float, weights))
        if floats not in self._forms:
            dtype = float if floats else object
            self._forms[floats] = (
                np.arange(self.lo, self.hi + 1).astype(dtype),
                np.array(self.pre, dtype=dtype),
                *((np.add, np.subtract) if floats else (_LADD, _LSUB)),
            )
        return self._forms[floats]

    def rows(self, alpha: LogMag, hi: int) -> np.ndarray:
        """Row n = lo..hi: max over i in P(n) and n < m <= hi, with no zero
        factor of i in (n, m], of alpha (m - n) + pre_i[m] - pre_i[n];
        -inf when there is no such pair."""
        index, pre, add, sub = self._form(alpha)
        size = hi - self.lo + 1
        ax = alpha * index[:size]
        out = np.full(size, -math.inf, dtype=pre.dtype)
        for pre_i, bounds, in_p in zip(pre[:, :size], self.bounds, self.in_p):
            if not in_p[:size].any():
                continue
            strict = _segmented_max(add(ax, pre_i), bounds, reverse=True)
            out = np.maximum(out, np.where(in_p[:size], sub(sub(strict, ax), pre_i), -math.inf))
        return out

    def q_rows(self, alpha: LogMag, weights: Sequence[LogMag]) -> np.ndarray:
        """Row n = lo..hi: max over j in Q(n) and n < m <= hi of
        alpha (m - n) - weights[m - lo] - (pre_j[m] - pre_j[n]); +inf when a
        zero factor of j lies in (n, hi]; -inf when there is no such pair."""
        index, pre, add, sub = self._form(alpha, weights)
        ax = alpha * index
        w = np.array(weights, dtype=pre.dtype)
        out = np.full(len(ax), -math.inf, dtype=pre.dtype)
        for pre_i, bounds, in_p in zip(pre, self.bounds, self.in_p):
            if in_p.all():
                continue
            run = _segmented_max(sub(sub(ax, pre_i), w), bounds[-2:], reverse=True)
            run[:bounds[-2]] = math.inf  # rows before the last stretch cross a zero factor
            out = np.maximum(out, np.where(in_p, -math.inf, add(sub(run, ax), pre_i)))
        return out

    def cols(self, alpha: LogMag) -> np.ndarray:
        """Column m = lo..hi: max over j and lo <= n < m with j in Q(n) of
        alpha (m - n) - (pre_j[m] - pre_j[n]); +inf once such a pair crosses
        a zero factor of j; -inf when there is no such pair."""
        index, pre, add, sub = self._form(alpha)
        ax = alpha * index
        out = np.full(len(ax), -math.inf, dtype=pre.dtype)
        for pre_i, bounds, in_p, crossed in zip(pre, self.bounds, self.in_p, self.crossed):
            if in_p.all():
                continue
            starts = np.where(in_p, -math.inf, sub(pre_i, ax))
            before = _segmented_max(starts, bounds, reverse=False)
            col = sub(add(before, ax), pre_i)
            col[crossed:] = math.inf
            out = np.maximum(out, col)
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
        pre = [v for coord in self.pre for v in coord]
        scale = abs(alpha) * (hi + 1) + max(map(rounding_scale, pre))
        scale += max(map(rounding_scale, weights))
        if not all(isinstance(v, float) or v == 0 for v in pre + weights):
            scale *= 2
        cutoff = tol - _ROUNDING_BOUND * scale
        *_, sub = self._form(alpha, weights)
        g, q = self.rows(alpha, hi), self.q_rows(alpha, weights)
        live = g != -math.inf
        worst = np.maximum(sub(g, np.where(live, np.array(weights, dtype=q.dtype), 0)), q)
        over = worst > cutoff
        rest = _floats(worst[~over])
        least = -float(rest.max()) if rest.size else math.inf
        return set((lo + np.flatnonzero(over)).tolist()), least


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


def _segmented_max(values: np.ndarray, bounds: list[int], reverse: bool) -> np.ndarray:
    """Per index, the maximum of ``values`` strictly after it (``reverse``)
    or strictly before it within its stretch of ``bounds``; -inf when there
    is none, and for indices before ``bounds[0]``."""
    out = np.full_like(values, -math.inf)
    for s, e in zip(bounds, bounds[1:]):
        e = min(e, len(values))
        if reverse:
            out[s:e - 1] = np.maximum.accumulate(values[s + 1:e][::-1])[::-1]
        else:
            out[s + 1:e] = np.maximum.accumulate(values[s:e - 1])
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
    log R_Q(m). Either is a float array or, for exact diagonal logs, an
    object array of log-magnitudes, and may leave out the pairs m = n,
    whose demand is at most 0.
    """
    return (_DiagonalScan if sys.is_diagonal else _DenseDemands)(sys, proj, window)


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


def _floats(demands: np.ndarray) -> np.ndarray:
    if demands.dtype == object:
        return np.array([lfloat(v) for v in demands], dtype=float)
    return demands


def _check_alphas(alpha_grid: Sequence[float]) -> None:
    # comparisons that NaN fails, so NaN and infinite entries are rejected
    if not all(0 < a < math.inf for a in alpha_grid):
        raise InvalidCertificateError("alpha grid entries must be positive and finite")


def _grid_search(sys, proj, window: WindowSpec, points) -> tuple[GridPoint, tuple[GridPoint, ...]]:
    """The grid row of every (alpha, beta) point (beta None: the uniform
    inequality) and the best row: the least full-window constant, ties to
    the larger alpha, then to the smaller beta.

    The flag compares the minimal N on the half window against the full
    window: growth under window doubling marks the candidate for
    falsification rather than certification.
    """
    table = _GridTable(sys, proj, window)
    rows = []
    best = None
    for alpha, beta in points:
        full = table.min_log_n(alpha, beta or 0.0)
        half = table.min_log_n(alpha, beta or 0.0, half=True)
        row = GridPoint(alpha, beta, full, half, full <= half + DEFAULT_LOG_TOL)
        rows.append(row)
        if best is None or full < best.log_n_full - _TIE_BAND:
            best = row
        elif abs(full - best.log_n_full) <= _TIE_BAND and (
            alpha > best.alpha or (alpha == best.alpha and beta is not None and beta < best.beta)
        ):
            best = row
    return best, tuple(rows)


def estimate_ued(
    sys: SystemDescription,
    proj: ProjectionFamily,
    window: WindowSpec,
    alpha_grid: Sequence[float],
    tol_compat: float = DEFAULT_TOL_COMPAT,
) -> UniformEstimate:
    """Grid search for the least uniform constant; flags window stability
    (``_grid_search``)."""
    if not alpha_grid:
        raise EmptyFeasibleSetError("alpha grid must be nonempty")
    check_compatibility(sys, proj, window.n_min, window.m_max, tol_compat)
    _check_alphas(alpha_grid)
    best, table = _grid_search(sys, proj, window, [(a, None) for a in sorted(alpha_grid)])
    return UniformEstimate(best.alpha, LogScalar.from_log(best.log_n_full), best.stable, table)


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
    best, table = _grid_search(sys, proj, window, pairs)
    return ExponentialEstimate(
        best.alpha, best.beta, LogScalar.from_log(best.log_n_full), best.stable, table
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
    for row, col in zip(demands.rows(alpha, window.m_max).tolist(), demands.cols(alpha).tolist()):
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
