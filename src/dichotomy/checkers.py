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
import operator
from dataclasses import dataclass
from itertools import groupby
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
    _profile_log,
)
from .errors import (
    EmptyFeasibleSetError,
    IndexOrderError,
    InvalidCertificateError,
    OutOfRangeError,
    ScheduleOutOfRangeError,
)
from .logarray import LogArray, add, logaddexp, neg, sub, times, where
from .logscalar import LogMag, LogScalar, ladd, lfloat, lsub
from .system import (
    ProjectionFamily,
    SystemDescription,
    _sweeps,
    check_compatibility,
    check_pairs_compatibility,
)

DEFAULT_LOG_TOL = 1e-9
_TIE_BAND = 1e-12
# The largest (points x window) block of an estimate grid: 1 MiB per float64
# array, so that a large window is scanned a few rates at a time
_GRID_ENTRIES = 2**17


def _slacks(rhs: LogArray, lhs: LogArray) -> np.ndarray:
    """Float values of log(rhs) - log(lhs), elementwise, with infinity
    conventions: a zero left side decides first, then an infinite right
    side, then an infinite left side."""
    a, b = rhs.values, lhs.values
    return _difference(rhs, lhs, [
        (b == -math.inf, math.inf), (a == math.inf, math.inf),
        (a == -math.inf, -math.inf), (b == math.inf, -math.inf),
    ])


def _difference(a: LogArray, b: LogArray, rules) -> np.ndarray:
    """lfloat(lsub(a, b)) elementwise as float64 for arrays of one shape,
    unless one of the (mask, value) ``rules`` holds, the first one deciding;
    every entry with an infinite operand meets a rule. The rules agree with
    float subtraction wherever it is not NaN (inf - inf), so where that is
    ``lsub`` (float operands, no int subtracted) it runs on every entry."""
    masks, values = zip(*rules)
    if not (a.exact or b.exact or b.ints is not None):
        with np.errstate(invalid="ignore"):
            out = a.values - b.values
        nan = np.isnan(out)
        if nan.any():
            out[nan] = np.select([mask[nan] for mask in masks], values, out[nan])
        return out
    out = np.zeros(a.values.shape)
    open_ = ~np.logical_or.reduce(masks)
    out[open_] = sub(a[open_], b[open_]).floats()
    return np.select(masks, values, out)


class _PairExtremes:
    """Growth/min-gain log-magnitudes per pair (n, m), from a kernel one row
    at a time."""

    def __init__(self, kernel):
        self._kernel = kernel
        self._row = None

    def row(self, n: int):
        """The kernel's row n, kept until another row is asked for."""
        if self._row is None or self._row.n != n:
            self._row = self._kernel.row(n)
        return self._row

    def logs(self, n: int, m: int) -> tuple[LogMag, LogMag]:
        """(log growth_P, log min_gain_Q); -inf / +inf mark trivial ranges."""
        return self.row(n).logs(m)


def _validate(cert: DichotomyCertificate, window: WindowSpec, tol: float) -> LogArray:
    """Check the certificate on the window and the tolerance; the weights
    r(n_min..m_max), a profile's logs read once (``cert.weights``)."""
    weights = cert.weights(window)
    _check_rates(window, cert.alpha, cert.beta or 0.0)
    if not 0 <= tol < math.inf:  # NaN fails the comparison too
        raise InvalidCertificateError(f"tolerance must be finite and nonnegative, got {tol}")
    return LogArray(weights)


def _check_rates(window: WindowSpec, *rates: LogMag) -> None:
    """Reject a float rate whose product with m_max + 1 is not a finite
    double: the scans form rate * index, where inf - inf would be NaN."""
    for rate in rates:
        _check_product(rate, window.m_max + 1, f"(m_max + 1) at m_max = {window.m_max}")


def _check_product(rate: LogMag, factor: int, what: str) -> None:
    if isinstance(rate, float) and not math.isfinite(rate * factor):
        raise InvalidCertificateError(
            f"rate {rate} overflows: rate * {what} is not a finite double"
        )


def verify_certificate(
    sys: SystemDescription,
    proj: ProjectionFamily,
    cert: DichotomyCertificate,
    window: WindowSpec,
    tol: float = DEFAULT_LOG_TOL,
) -> VerificationOutcome:
    """Scan the pair window; return holds, or the first violating witness.

    A pair violates when its log-domain slack drops below -tol. The
    reported witness carries the extremal direction and the exact minimal
    constant that would repair the inequality at that pair. The pairs (n, m)
    of a row are checked as one block (``_scan``) over the row's logs, and
    only in the rows that the kernel's ``rows_to_scan`` returns; the
    verdict, witness, count and least slack are those of the loop over
    every pair in lexicographic (n, m) order, the P side of a pair first.
    A dense kernel may instead return the short pairs of every row, which
    decide a holding verdict; they are checked as one block, and if one of
    them violates, every row is.
    """
    weights = _validate(cert, window, tol)
    check_compatibility(sys, proj, window.n_min, window.m_max)
    lo, hi = window.n_min, window.m_max
    kernel = _sweeps(sys, proj, lo, hi)
    ext = _PairExtremes(kernel)
    rows, min_slack, short = kernel.rows_to_scan(cert.alpha, weights, tol)

    def count(p, n):
        return _pairs_before(lo, hi, n)

    if short is not None:
        from ._dense_plan import debug  # already loaded by rows_to_scan

        block = (None, short.ns, short.ms, short.growth, -short.gain, len(short.ns))
        out = _scan(ext, cert, window, tol, weights, [block], min_slack, count)
        if out is not None:
            debug("dense pair plan: block length %d certifies; %d short pairs swept",
                  short.length, len(short.ns))
            return out
        debug("dense pair plan: full scan, a short pair violates")

    def blocks():
        for n in rows if short is None else range(lo, hi + 1):
            g, h = map(LogArray, ext.row(n).row_logs)  # m = n..end
            yield n, np.full(len(g), n), np.arange(n, n + len(g)), g, neg(h), hi - n + 1

    return _scan(ext, cert, window, tol, weights, blocks(), min_slack, count)


def verify_triplet_form(
    sys: SystemDescription,
    proj: ProjectionFamily,
    cert: DichotomyCertificate,
    window: WindowSpec,
    tol: float = DEFAULT_LOG_TOL,
) -> VerificationOutcome:
    """Three-index variant: directions are seeded at time p <= n.

    Equivalent to the pair form on the induced window (the pair form is the
    p = n slice); kept separate so the equivalence itself can be tested.
    The triplets (p, n, m) of a seed p are checked as one block (``_scan``),
    and only in the rows n that the kernel's ``triplet_rows_to_scan``
    returns; the verdict, witness and count are those of the loop over every
    triplet in lexicographic (p, n, m) order, the P side of a triplet first.
    """
    weights = _validate(cert, window, tol)
    check_compatibility(sys, proj, window.n_min, window.m_max)
    lo, hi = window.n_min, window.m_max
    kernel = _sweeps(sys, proj, lo, hi)
    ext = _PairExtremes(kernel)
    to_scan, min_slack = kernel.triplet_rows_to_scan(cert.alpha, weights, tol)
    blocks = ((p, *ext.row(p).triplet_ratios(ns), sum(hi + 1 - n for n in ns))
              for p, ns in to_scan)
    return _scan(ext, cert, window, tol, weights, blocks, min_slack,
                 lambda p, n: _triplets_before(lo, hi, p, n))


def _scan(ext: _PairExtremes, cert: DichotomyCertificate, window: WindowSpec, tol: float,
          weights: LogArray, blocks, min_slack: float, before) -> VerificationOutcome:
    """The check of both verify forms over ``blocks`` (seed, ks, ms,
    log ratio_P, log ratio_Q, size): the seed row's ratios between horizons
    ks[t] <= ms[t], ``size`` entries due, cut at the row's end. The slacks
    are log r(k) - (alpha (m - k) + ratio_P) and (log r(m) - ratio_Q) -
    alpha (m - k), +inf where ratio_Q is -inf; the first entry below -tol is
    the witness, P before Q, counted by ``before(seed, k)``. A block of short
    pairs (seed None) has no witness: a violation there returns None."""
    lo, hi, alpha = window.n_min, window.m_max, cert.alpha
    for seed, ks, ms, ratio_p, ratio_q, size in blocks:
        ratio_p, ratio_q = LogArray(ratio_p), LogArray(ratio_q)
        gap = times(alpha, ms - ks)
        live = ratio_q.values != -math.inf
        with np.errstate(over="ignore"):
            slack_p = _slacks(weights[ks - lo], add(gap, ratio_p))
            # a trivial Q range makes the right side +inf, unsubtracted
            rhs_q = where(live, sub(weights[ms - lo], where(live, ratio_q, 0.0)), math.inf)
            slack_q = _slacks(rhs_q, gap)
        # min(slack_p, slack_q), the first of two equal ones
        worse = np.where(slack_q < slack_p, slack_q, slack_p)
        bad = np.flatnonzero(worse < -tol)
        if bad.size:
            if seed is None:
                return None
            t = int(bad[0])
            n, m = int(ks[t]), int(ms[t])
            gap = alpha * (m - n)
            if slack_p[t] < -tol:
                side, slack = "P", slack_p[t]
                required = lsub(ladd(gap, ratio_p.item(t)), cert.scale_offset(n))
            else:
                side, slack = "Q", slack_q[t]
                required = ladd(lsub(gap, cert.scale_offset(m)), ratio_q.item(t))
            return VerificationOutcome(
                False,
                Witness(m, n, ext.row(seed).direction(m, n, side), LogScalar.from_log(required),
                        side=side),
                before(seed, n) + m - n + 1,
                float(slack),
            )
        if worse.size:
            min_slack = min(min_slack, float(worse[np.argmin(worse)]))
        if len(worse) < size:
            ext.logs(seed, hi)  # the row overflows before hi: raises
    return VerificationOutcome(True, None, before(hi + 1, hi + 1), min_slack)


def _pairs_before(lo: int, hi: int, n: int) -> int:
    """The pairs lo <= n' <= m' <= hi before row n in lexicographic order;
    hi + 1 counts them all."""
    def tri(k):  # the pairs of a window of k indices
        return k * (k + 1) // 2

    return tri(hi - lo + 1) - tri(hi - n + 1)


def _triplets_before(lo: int, hi: int, p: int, n: int) -> int:
    """The triplets lo <= p' <= n' <= m' <= hi before row (p, n) in
    lexicographic order; (hi + 1, hi + 1) counts them all."""
    def tetra(k):  # the triplets of a window of k indices
        return k * (k + 1) * (k + 2) // 6

    return tetra(hi - lo + 1) - tetra(hi - p + 1) + _pairs_before(p, hi, n)


def optimal_N_for_alpha(
    sys: SystemDescription,
    proj: ProjectionFamily,
    alpha: float,
    window: WindowSpec,
) -> LogScalar:
    """Least N making the uniform inequality hold everywhere on the window:
    the maximum over pairs of both reduced ratios, floored at 1, which is
    the last value of the minimal nonuniform profile."""
    return minimal_ned_profile(sys, proj, alpha, window).values[-1]


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


def _check_alphas(alpha_grid: Sequence[float]) -> None:
    # comparisons that NaN fails, so NaN and infinite entries are rejected
    if not all(0 < a < math.inf for a in alpha_grid):
        raise InvalidCertificateError("alpha grid entries must be positive and finite")


def _grid_search(sys, proj, window: WindowSpec, points) -> tuple[GridPoint, tuple[GridPoint, ...]]:
    """The grid row of every (alpha, beta) point (beta None: the uniform
    inequality), the points of one rate next to each other, and the best
    row: the least full-window constant, ties to the larger alpha, then to
    the smaller beta.

    beta only shifts row n by -beta n and column m by -beta m, so the kernel
    scans a block of rates at once: one ``cols`` call, and one ``rows`` call
    per window. Each point is then its rate's row and column less beta
    times the index, reduced as one array. A block holds as many rates as
    keep its points within ``_GRID_ENTRIES`` entries: the default 32 x 16
    grid is one block on windows of up to 256 indices. The flag compares
    the minimal N on the half window against the full window: growth under
    window doubling marks the candidate for falsification rather than
    certification.
    """
    kernel = _sweeps(sys, proj, window.n_min, window.m_max)
    index = np.arange(window.n_min, window.m_max + 1, dtype=float)
    sizes = (len(index), window.half().m_max - window.n_min + 1)  # full and half window
    groups = [(alpha, [beta for _, beta in group])
              for alpha, group in groupby(points, key=operator.itemgetter(0))]
    least = ([], [])  # per window and point: max(0.0, max(rows - beta n), max(cols - beta m))
    step = max(1, _GRID_ENTRIES // (len(index) * max(len(betas) for _, betas in groups)))
    for block in (groups[k:k + step] for k in range(0, len(groups), step)):
        rates = [alpha for alpha, _ in block]
        at = np.repeat(np.arange(len(block)), [len(betas) for _, betas in block])
        shifts = np.array([beta or 0.0 for _, betas in block for beta in betas])[:, None] * index
        cols = kernel.cols(rates).floats()[at] - shifts
        for size, out in zip(sizes, least):
            rows = kernel.rows(rates, window.n_min + size - 1).floats()[at] - shifts[:, :size]
            p, q = rows.max(axis=1), cols[:, :size].max(axis=1)
            # Python's max keeps the first of equal values, so -0.0 floors to 0.0
            floor = np.where(p > 0.0, p, 0.0)
            out += np.where(q > floor, q, floor).tolist()
    table, best = [], None
    keys = ((alpha, beta) for alpha, betas in groups for beta in betas)
    for (alpha, beta), full, half in zip(keys, *least):
        point = GridPoint(alpha, beta, full, half, full <= half + DEFAULT_LOG_TOL)
        table.append(point)
        if best is None or full < best.log_n_full - _TIE_BAND:
            best = point
        elif abs(full - best.log_n_full) <= _TIE_BAND and (
            alpha > best.alpha
            or (alpha == best.alpha and beta is not None and beta < best.beta)
        ):
            best = point
    return best, tuple(table)


def estimate_ued(
    sys: SystemDescription,
    proj: ProjectionFamily,
    window: WindowSpec,
    alpha_grid: Sequence[float],
) -> UniformEstimate:
    """Grid search for the least uniform constant; flags window stability
    (``_grid_search``)."""
    if not alpha_grid:
        raise EmptyFeasibleSetError("alpha grid must be nonempty")
    check_compatibility(sys, proj, window.n_min, window.m_max)
    _check_alphas(alpha_grid)
    _check_rates(window, *alpha_grid)
    best, table = _grid_search(sys, proj, window, [(a, None) for a in sorted(alpha_grid)])
    return UniformEstimate(best.alpha, LogScalar.from_log(best.log_n_full), best.stable, table)


def estimate_ed(
    sys: SystemDescription,
    proj: ProjectionFamily,
    window: WindowSpec,
    alpha_grid: Sequence[float] | None = None,
    beta_grid: Sequence[float] | None = None,
    strong: bool = False,
) -> ExponentialEstimate:
    """Grid search over (alpha, beta) for the least weighted constant.

    With ``strong`` set, only pairs with beta < alpha are admissible and an
    empty admissible set is an error.
    """
    check_compatibility(sys, proj, window.n_min, window.m_max)
    if alpha_grid is None:
        alpha_grid = default_alpha_grid(sys, proj, window)
    if not alpha_grid:
        raise EmptyFeasibleSetError("alpha grid must be nonempty")
    _check_alphas(alpha_grid)
    _check_rates(window, *alpha_grid)
    if beta_grid is None:
        beta_grid = default_beta_grid(max(alpha_grid))
    if not beta_grid:
        raise EmptyFeasibleSetError("beta grid must be nonempty")
    # comparisons that NaN fails, so NaN and infinite entries are rejected
    if not all(0 <= b < math.inf for b in beta_grid):
        raise InvalidCertificateError("beta grid entries must be finite and satisfy beta >= 0")
    _check_rates(window, *beta_grid)
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
) -> TabulatedProfile:
    """Pointwise-minimal nondecreasing profile for the nonuniform inequality.

    Each pair (m, n) demands profile(n) >= exp(alpha (m-n)) growth_P and
    profile(m) >= exp(alpha (m-n)) / min_gain_Q; per-index maxima followed
    by a running maximum give the least admissible profile (floored at 1,
    which every index with nontrivial ranges forces at m = n anyway).
    """
    if not 0 < alpha < math.inf:
        raise InvalidCertificateError(f"alpha must be positive and finite, got {alpha}")
    _check_rates(window, alpha)
    check_compatibility(sys, proj, window.n_min, window.m_max)
    kernel = _sweeps(sys, proj, window.n_min, window.m_max)
    running: LogMag = 0
    values = []
    for row, col in zip(kernel.rows(alpha, window.m_max).tolist(), kernel.cols(alpha).tolist()):
        running = max(running, row, col)
        values.append(LogScalar.from_log(running))
    return TabulatedProfile(window.n_min, tuple(values))


# -- falsification -------------------------------------------------------------


@dataclass(frozen=True)
class WitnessSchedule:
    """A parameterized family of pairs plus a probe direction.

    ``pair_fn`` maps the family parameter k to (m, n), or ``affine`` =
    ((a, b), (c, d)) gives (a k + b, c k + d), as arrays over a range of k in
    ``falsify`` (every built-in schedule); the direction is a coordinate
    index or an explicit vector used at time n.
    """

    name: str
    pair_fn: Callable[[int], tuple[int, int]] | None
    direction: int | tuple[float, ...]
    default_alpha: float = 0.5
    default_beta: float = 0.0
    description: str = ""
    affine: tuple[tuple[int, int], tuple[int, int]] | None = None

    def pair_at(self, k: int) -> tuple[int, int]:
        if self.affine is None:
            return self.pair_fn(k)
        (a, b), (c, d) = self.affine
        return a * k + b, c * k + d

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


def _family_norms(sys, proj, pairs, x) -> tuple[LogArray, LogArray]:
    """Log-magnitudes of the pairs (m, n) as two tables with one row per pair
    in order: (|P x|, |A_P x|) and (|Q x|, |A_Q x|); -inf marks a zero. One
    kernel spans the family and gives every pair in one call per side: the
    row of pair (m, n) starts from the part of x at n (one split per start
    index, or one for a fixed projection) and is read at n and m."""
    at = np.array(pairs)[:, ::-1]  # (n, m)
    ns = at[:, 0]
    kernel = _sweeps(sys, proj, int(ns.min()), int(at.max()))
    if proj.constant:
        parts = [np.broadcast_to(v, (len(ns), sys.dim)) for v in proj.split(pairs[0][1], x)]
    else:
        split = {n: proj.split(n, x) for n in set(ns.tolist())}
        parts = [np.array([split[n][k] for n in ns.tolist()]) for k in (0, 1)]
    p_norms, q_norms = (kernel.trajectories(part, xs, ns, at) for part, xs in zip("PQ", parts))
    return p_norms, q_norms


def falsify(
    sys: SystemDescription,
    proj: ProjectionFamily,
    concept: Kind,
    schedule: WitnessSchedule,
    k_values: Iterable[int],
    alpha: float | None = None,
    beta: float | None = None,
    profile: Profile | None = None,
) -> WitnessReport:
    """Track the minimal constant along a witness family.

    The family parameters must be integers (values that ``operator.index``
    accepts). The report is ``divergent`` when the family has at least five
    members, its required constants are nondecreasing across the whole
    family and end above where they start, and the least-squares slope of
    their finite logs over k exceeds ``_TIE_BAND``; a certified system can
    only produce ``bounded`` reports.

    The family is evaluated as one batch: every pair is checked first, then
    compatibility once per index the pairs cover, and the norms come from
    one kernel over the family's span. The report holds the family as
    columns; it builds no record per member.
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
    ks, at, ms, ns = _family_pairs(schedule, k_values)
    _check_pairs(sys, ms, ns, at)
    # the family forms alpha (m - n) and beta m; float overflow must not
    # decide a required constant
    i = int(np.argmax(at[:, 0] - at[:, 1]))
    _check_product(alpha, ms[i] - ns[i], f"(m - n) at (m, n) = ({ms[i]}, {ns[i]})")
    if concept in (Kind.ED, Kind.SED):
        top = ms[int(np.argmax(at[:, 0]))]
        _check_product(beta, top, f"m at m = {top}")
    check_pairs_compatibility(sys, proj, ms, ns)
    x = schedule.direction_vector(sys.dim)
    p_norms, q_norms = _family_norms(sys, proj, at, x)
    if concept is Kind.UED:
        w_p = w_q = np.zeros(len(at), dtype=int)
    elif concept is Kind.NED:
        # n before m, member by member: the first log rejected is named
        w = [_profile_log(profile, k) for k in at[:, ::-1].ravel().tolist()]
        w_p, w_q = w[0::2], w[1::2]
    else:
        w_p, w_q = times(beta, at[:, 1]), times(beta, at[:, 0])
    logs = _required_logs(alpha, at, w_p, w_q, p_norms, q_norms)
    trend, slope = _classify_trend(ks, logs)
    return WitnessReport(
        concept=concept,
        schedule=schedule.name,
        ms=ms,
        ns=ns,
        direction=x,
        required_logs=tuple(logs.tolist()),
        trend=trend,
        log_slope=slope,
        trial_alpha=alpha,
        trial_beta=beta if concept in (Kind.ED, Kind.SED) else None,
    )


def _family_pairs(schedule: WitnessSchedule, k_values: Iterable[int]):
    """The parameters in increasing order, the pairs as rows (m, n) and the
    members' m and n as tuples: for an affine schedule over a range within
    +-2**62 (m - n fits int64) as int64 arrays, else by ``pair_at``."""
    r, affine = k_values, schedule.affine
    if type(r) is range and r.step > 0 and r and affine is not None:
        ends = [r[0], r[-1]] + [a * k + b for a, b in affine for k in (r[0], r[-1])]
        if max(map(abs, ends)) < 2**62:
            ks = np.arange(r.start, r.stop, r.step)
            at = ks[:, None] * np.array(affine)[:, 0] + np.array(affine)[:, 1]
            return ks, at, tuple(at[:, 0].tolist()), tuple(at[:, 1].tolist())
    ks = _family_parameters(k_values)
    ms, ns = zip(*map(schedule.pair_at, ks))
    return ks, np.array((ms, ns)).T, ms, ns


def _family_parameters(k_values: Iterable[int]) -> list[int]:
    """The distinct family parameters in increasing order; a value that
    ``operator.index`` refuses (0.5, say), or too many to list, is named."""
    try:
        values = list(k_values)
    except OverflowError:
        raise ScheduleOutOfRangeError(f"family parameter range {k_values} is too long") from None
    try:
        ks = sorted(set(map(operator.index, values)))
    except TypeError:
        for value in values:
            try:
                operator.index(value)
            except TypeError:
                raise ScheduleOutOfRangeError(
                    f"family parameter {value!r} is not an integer") from None
        raise
    if not ks:
        raise ScheduleOutOfRangeError("empty family parameter range")
    return ks


def _check_pairs(sys: SystemDescription, ms, ns, at: np.ndarray) -> None:
    """Find, in one array pass over the rows (m, n) of ``at``, the first pair
    with m < n, n < 0 or m beyond the system's last index; that pair (of
    ``ms`` and ``ns``) raises the error that checking them one by one raises."""
    bad = (at[:, 0] < at[:, 1]) | (at[:, 1] < 0)
    if sys.n_max is not None:
        bad |= at[:, 0] > sys.n_max
    for m, n in ((ms[i], ns[i]) for i in np.flatnonzero(bad)[:1]):
        if m < n or n < 0:
            raise ScheduleOutOfRangeError(f"schedule produced invalid pair (m, n) = ({m}, {n})")
        try:
            sys.check_pair(m, n)
        except (OutOfRangeError, IndexOrderError) as exc:
            raise ScheduleOutOfRangeError(str(exc)) from exc


def _required_logs(alpha, pairs, w_p, w_q, p_norms: LogArray, q_norms: LogArray) -> LogArray:
    """Per pair (m, n) of a family, the log of the least constant:
    exp(alpha (m-n)) (|A_P x| + |Q x|) over w_P |P x| + w_Q |A_Q x|, from
    the weights' logs and the norm tables of ``_family_norms``; +inf where
    the denominator is zero, else -inf where the numerator is. One array
    pass in the order of the scalar formula."""
    ms, ns = np.array(pairs).reshape(-1, 2).T
    (c, a), (b, d) = ((t[:, 0], t[:, 1]) for t in (p_norms, q_norms))
    # no log is +inf, so ladd with a -inf operand gives -inf, as the
    # product of the magnitudes does
    with np.errstate(over="ignore"):
        numerator = add(times(alpha, ms - ns), logaddexp(a, b))
        denominator = logaddexp(add(LogArray(w_p), c), add(LogArray(w_q), d))
        zero = denominator.values == -math.inf
        return where(zero, math.inf, sub(numerator, where(zero, 0.0, denominator)))


def _fit_slope(xs: np.ndarray, ys: np.ndarray) -> float:
    """Least-squares slope of ys over xs; 0 when the xs do not vary."""
    xbar, ybar = xs.mean(), ys.mean()
    denom = float(np.sum((xs - xbar) ** 2))
    return float(np.sum((xs - xbar) * (ys - ybar)) / denom) if denom else 0.0


def _classify_trend(ks: Sequence[int], logs: Sequence[LogMag]) -> tuple[str, float]:
    """("divergent" or "bounded", slope) of a family's required logs over its
    parameters ks. The slope is the least-squares slope of the finite logs
    (as floats) over their ks, 0 with fewer than two. The family is divergent
    when it has at least five members, its logs are nondecreasing, the last
    exceeds the first and the slope exceeds ``_TIE_BAND``.

    The logs are compared in their own form, exactly: two distinct ints
    above 2**53 can round to one double, and a decrease between them must
    still count."""
    logs = LogArray(logs)
    ys, v = logs.floats(), logs.values
    nondecreasing = bool(np.all(v[1:] >= v[:-1]))
    finite = np.isfinite(ys)
    slope = 0.0
    if np.count_nonzero(finite) >= 2:
        xs, ys = np.array(ks, dtype=float)[finite], ys[finite]
        with np.errstate(over="ignore", invalid="ignore"):
            slope = _fit_slope(xs, ys)
            if not math.isfinite(slope):
                # the sums overflowed: fit the logs scaled by their largest magnitude
                scale = float(np.abs(ys).max())
                slope = _fit_slope(xs, ys / scale) * scale
    if len(v) >= 5 and nondecreasing and v[-1] > v[0] and slope > _TIE_BAND:
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
    top = window.m_max
    if top == window.n_min and (sys.n_max is None or top < sys.n_max):
        top += 1  # a one-index window reads (n_min + 1, n_min) where the system declares it
    ends = [m for m in {top, top - 1} if m > window.n_min]
    logs = []
    if ends:
        row = _sweeps(sys, proj, window.n_min, max(ends)).row(window.n_min)
        logs = zip(ends, *(side.tolist() for side in row.logs_at(ends)))
    alpha_max = 0.0
    for m, g, h in logs:
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
    grid = np.geomspace(alpha_max / 100.0, alpha_max, count).tolist()
    grid[-1] = alpha_max
    return grid


def default_beta_grid(alpha_max: float, count: int = 16) -> list[float]:
    if count < 1:
        raise EmptyFeasibleSetError(f"beta grid needs at least one point, got {count}")
    _check_alphas([alpha_max])
    return np.linspace(0.0, 2.0 * alpha_max, count).tolist()
