"""Brute-force references that the tests compare the kernels against.

Evolution products are formed factor by factor, from the per-coordinate
factors of a diagonal system or by multiplying the dense coefficients, and
the Datko left side is summed term by term along one kernel trajectory, in
place of the verifiers' suffix sums. The diagonal running maxima are
computed one coordinate and one index at a time with ``ladd``/``lsub``, in
place of the arrays of the diagonal kernel (``_DiagonalSweeps.rows``,
``q_rows``, ``cols``, and the rounding scale of its ``rows_to_scan``). Diagonal trajectories are read one coordinate
and one index at a time, and the Datko suffix and forward sums are
accumulated one term at a time, in place of the kernel's table and the
verifiers' lockstep sums. The Datko side reports are evaluated one point at
a time, in place of the verifiers' array pass. The diagonal prefix sums are
built one factor at a time with ``ladd``, in place of the array build of
``SystemDescription._ensure_prefix``. A dense ratio is taken one pair of
images at a time (``_sup_ratio``), in place of the dense rows' batched
call, and a diagonal factor log from two prefix entries at a time
(``factor_log``), in place of the diagonal rows' table. A window's pairs
and triplets are listed in lexicographic order (``window_pairs``,
``window_triplets``). A witness family's trend is judged one member at a time
(``classify_trend_loop``), in place of the array pass of
``checkers._classify_trend``, and the pair and triplet forms check one pair
or triplet at a time (``pair_loop``, ``triplet_loop``), in place of the
row arrays of the verifiers. The estimate grid is scanned one rate at a
time and each point floored by Python's ``max`` (``grid_search_loop``), in
place of the block scans of ``checkers._grid_search``. Signed quantities
are multiplied, divided, added and ordered by the functions of the first
section, over the (sign, logmag) fields of a ``LogScalar`` record, which
has no arithmetic of its own. None of this is on a path of the package.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from dichotomy import (
    DichotomyCertificate,
    LogScalar,
    ProjectionFamily,
    SystemDescription,
    VerificationOutcome,
    WindowSpec,
    Witness,
)
from dichotomy.checkers import (
    _TIE_BAND,
    DEFAULT_LOG_TOL,
    GridPoint,
    _fit_slope,
    _PairExtremes,
    _validate,
)
from dichotomy.datko import (
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    DatkoReport,
    _require_constant_projection,
)
from dichotomy.certificates import _profile_log
from dichotomy.errors import (
    IndexOrderError,
    InvalidCertificateError,
    LogOverflowError,
    NoDecayCertificateError,
)
from dichotomy.logscalar import LogMag, ladd, lfloat, logaddexp_mag, lsub, rounding_scale
from dichotomy.system import (
    _overflow,
    _require_mask_for_diagonal,
    _sweeps,
    check_compatibility,
)


# -- signed log-magnitude arithmetic ---------------------------------------------
#
# A LogScalar represents sign * exp(logmag): a product adds the logs, a sum
# goes through the log-sum-exp identity, and the order is that of the
# represented values.


def smul(a: LogScalar, b: LogScalar) -> LogScalar:
    if a.sign == 0 or b.sign == 0:
        return LogScalar.zero()
    return LogScalar(a.sign * b.sign, ladd(a.logmag, b.logmag))


def sdiv(a: LogScalar, b: LogScalar) -> LogScalar:
    if b.sign == 0:
        raise ZeroDivisionError("division by LogScalar zero")
    if a.sign == 0:
        return LogScalar.zero()
    return LogScalar(a.sign * b.sign, lsub(a.logmag, b.logmag))


def logsubexp_mag(a: LogMag, b: LogMag) -> LogMag:
    """log(exp(a) - exp(b)) for a >= b; returns -inf when the terms cancel."""
    if isinstance(b, float) and b == -math.inf:
        return a
    diff = lfloat(lsub(b, a))
    if diff > 0:
        raise ValueError("logsubexp_mag requires a >= b")
    q = math.exp(diff)
    if q >= 1.0:
        return -math.inf
    return ladd(a, math.log1p(-q))


def sadd(a: LogScalar, b: LogScalar) -> LogScalar:
    if a.sign == 0:
        return b
    if b.sign == 0:
        return a
    if a.sign == b.sign:
        return LogScalar(a.sign, logaddexp_mag(a.logmag, b.logmag))
    big, small = (a, b) if magnitude_geq(a, b) else (b, a)
    mag = logsubexp_mag(big.logmag, small.logmag)
    if isinstance(mag, float) and mag == -math.inf:
        return LogScalar.zero()
    return LogScalar(big.sign, mag)


def sneg(a: LogScalar) -> LogScalar:
    return a if a.sign == 0 else LogScalar(-a.sign, a.logmag)


def ssub(a: LogScalar, b: LogScalar) -> LogScalar:
    return sadd(a, sneg(b))


def sabs(a: LogScalar) -> LogScalar:
    return LogScalar(1, a.logmag) if a.sign == -1 else a


def magnitude_geq(a: LogScalar, b: LogScalar) -> bool:
    if b.sign == 0:
        return True
    if a.sign == 0:
        return False
    return a.logmag >= b.logmag


def scmp(a: LogScalar, b: LogScalar) -> int:
    """-1, 0 or 1 as the value of a is below, equal to or above that of b."""
    if a.sign != b.sign:
        return -1 if a.sign < b.sign else 1
    if a.sign == 0 or a.logmag == b.logmag:
        return 0
    bigger_mag = a.logmag > b.logmag
    if a.sign > 0:
        return 1 if bigger_mag else -1
    return -1 if bigger_mag else 1


def smax(a: LogScalar, b: LogScalar) -> LogScalar:
    """The larger value; the first on a tie, as ``max`` keeps it."""
    return b if scmp(b, a) > 0 else a


def _slack(rhs_log: LogMag, lhs_log: LogMag) -> float:
    """Float value of log(rhs) - log(lhs) with infinity conventions, one
    pair of logs at a time (``checkers._slacks`` takes arrays)."""
    if isinstance(lhs_log, float) and lhs_log == -math.inf:
        return math.inf
    if isinstance(rhs_log, float) and rhs_log == math.inf:
        return math.inf
    if isinstance(rhs_log, float) and rhs_log == -math.inf:
        return -math.inf
    if isinstance(lhs_log, float) and lhs_log == math.inf:
        return -math.inf
    return lfloat(lsub(rhs_log, lhs_log))


def prefix_loop(sys: SystemDescription, upto: int):
    """Per coordinate, the prefix log-sums, negative-factor counts and
    zero-factor counts on 0..upto, one factor at a time; each factor is read
    from the coordinate's range function as a ``LogScalar``."""
    out = []
    for i, factors in enumerate(sys.coefficients.factors):
        logs, signs = factors(1, upto)
        mags, negs, zeros = [0], [0], [0]
        for k, (log, sign) in enumerate(zip(logs.tolist(), signs.tolist()), start=1):
            a = LogScalar(sign, log)
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
        out.append((mags, negs, zeros))
    return out


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
) -> EvolutionOperator:
    """Evolution product composed with P(n) (part="P") or Q(n) (part="Q")."""
    if part not in ("P", "Q"):
        raise ValueError("part must be 'P' or 'Q'")
    sys.check_pair(m, n)
    check_compatibility(sys, proj, n, m)
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
    kernel = _sweeps(sys, proj, seed, upto)
    return kernel.trajectories(part, [vec], [seed], np.arange(seed, upto + 1)).tolist()[0]


def diagonal_lognorms(kernel, block, seed: int, at) -> list[list[LogMag]]:
    """Per column x of ``block``: log |A(j, seed) x| for j in ``at``, one
    coordinate and one index at a time from the diagonal kernel's factor
    logs; the first largest coordinate wins, and a unit entry adds nothing,
    so an exact factor log stays exact."""
    out = []
    for col in np.asarray(block, dtype=float).T.tolist():
        active = [(i, math.log(abs(v))) for i, v in enumerate(col) if v != 0.0]
        traj: list[LogMag] = []
        for j in at:
            best: LogMag = -math.inf
            for i, off in active:
                f = factor_log(kernel, i, j, seed) if j >= seed else -math.inf
                if f == -math.inf:
                    continue
                cand = ladd(f, off) if off != 0.0 else f
                if best == -math.inf or cand > best:
                    best = cand
            traj.append(best)
        out.append(traj)
    return out


def factor_log(kernel, i: int, m: int, n: int) -> LogMag:
    """log |a_i(m) ... a_i(n+1)| from the diagonal kernel's prefix log-sums,
    one ``lsub`` of two entries; -inf once a zero factor is crossed."""
    if kernel.zeros[i][m] != kernel.zeros[i][n]:
        return -math.inf
    return lsub(kernel.pre[i].item(m), kernel.pre[i].item(n))


def suffix_weighted(traj: list[LogMag], d: float) -> list[LogMag]:
    """R[t] = log sum_{s >= t} exp(d (s - t)) exp(traj[s]) (same indexing)."""
    out: list[LogMag] = []
    acc: LogMag = -math.inf
    for t in reversed(traj):
        acc = logaddexp_mag(t, ladd(acc, d))
        out.append(acc)
    out.reverse()
    return out


def prefix_weighted(traj: list[LogMag], d: float) -> list[LogMag]:
    """S[t] = log sum_{s <= t} exp(d (t - s)) exp(traj[s]) (same indexing)."""
    out: list[LogMag] = []
    acc: LogMag = -math.inf
    for t in traj:
        acc = logaddexp_mag(t, ladd(acc, d))
        out.append(acc)
    return out


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
    check_compatibility(sys, proj, p, m_trunc)
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


def side_reports_loop(
    side, directions, table, sums, weight, tail, window, restart, **fields
) -> list[DatkoReport]:
    """``datko._side_reports`` one point at a time: the loops the verifiers
    ran before the array pass."""
    tol = DEFAULT_LOG_TOL
    size = window.m_max - window.n_min + 1
    trajs, sums = table[:, :size].tolist(), sums[:, :size].tolist()
    reports = []
    for k, direction in enumerate(directions):
        rows = slice(k * size, (k + 1) * size)
        if side == "P":
            reports.append(_p_side_report(
                window, tol, weight, tail, restart, direction, trajs[rows], sums[rows], fields
            ))
        else:
            reports.append(_q_side_report(
                window, tol, weight, direction, trajs[rows], sums[rows], fields
            ))
    return reports


def _p_side_report(window, tol, weight, tail, restart, direction, trajs, suffixes, fields):
    """The P-side report of one direction from its trajectories and suffix
    sums, row s - n_min and column j - n_min."""
    worst_slack = math.inf
    worst = None
    worst_vals = None
    max_tail_rhs = -math.inf
    checked = 0
    any_violated = False
    any_inconclusive = False
    for seed in range(window.n_min, window.m_max + 1):
        traj, suffix = trajs[seed - window.n_min], suffixes[seed - window.n_min]
        for check_at in range(seed, window.m_max + 1):
            triple = (check_at, seed, seed) if restart else (check_at, check_at, seed)
            checked += 1
            col = check_at - window.n_min
            lhs = suffix[col]
            anchor = traj[col]
            rhs = ladd(weight(check_at), anchor) if anchor != -math.inf else -math.inf
            if anchor == -math.inf:
                tail_log = -math.inf
            elif callable(tail):
                r, offset = tail(check_at)
                tail_log = ladd(ladd(r, anchor), offset)
            else:
                tail_log = tail
            combined = math.inf if tail_log == math.inf else logaddexp_mag(lhs, tail_log)
            trunc_slack = _slack(rhs, lhs)
            total_slack = _slack(rhs, combined)
            if trunc_slack < -tol:
                any_violated = True
            elif total_slack < -tol:
                any_inconclusive = True
            track = total_slack if math.isfinite(total_slack) else trunc_slack
            if worst is None or track < worst_slack:
                worst_slack = track
                worst = triple
                worst_vals = (lhs, tail_log, rhs)
            tr = _tail_rhs_log(tail_log, rhs)
            if tr > max_tail_rhs:
                max_tail_rhs = tr
    verdict = VIOLATED if any_violated else (INCONCLUSIVE if any_inconclusive else HOLDS)
    lhs, tail_log, rhs = worst_vals
    return DatkoReport(
        side="P",
        direction=direction,
        verdict=verdict,
        worst=worst,
        lhs_p_sum=LogScalar.from_log(lhs),
        lhs_q_sum=LogScalar.zero(),
        tail_bound=LogScalar.from_log(tail_log) if tail_log != math.inf
        else LogScalar.positive_infinity(),
        rhs=LogScalar.from_log(rhs),
        checked=checked,
        max_tail_rhs_log=max_tail_rhs,
        **fields,
    )


def _q_side_report(window, tol, weight, direction, trajs, sums, fields):
    """The Q-side report of one direction from its trajectories and forward
    sums, row n - n_min and column m - n_min."""
    worst_slack = math.inf
    worst = None
    worst_vals = None
    checked = 0
    any_violated = False
    for n in range(window.n_min, window.m_max + 1):
        traj, acc_row = trajs[n - window.n_min], sums[n - window.n_min]
        for m in range(n, window.m_max + 1):
            col = m - window.n_min
            acc = acc_row[col]
            checked += 1
            anchor = traj[col]
            rhs = ladd(weight(m), anchor) if anchor != -math.inf else -math.inf
            slack = _slack(rhs, acc)
            if slack < -tol:
                any_violated = True
            if worst is None or slack < worst_slack:
                worst_slack = slack
                worst = (m, n, n)
                worst_vals = (acc, rhs)
    lhs, rhs = worst_vals
    return DatkoReport(
        side="Q",
        direction=direction,
        verdict=VIOLATED if any_violated else HOLDS,
        worst=worst,
        lhs_p_sum=LogScalar.zero(),
        lhs_q_sum=LogScalar.from_log(lhs),
        tail_bound=LogScalar.zero(),
        rhs=LogScalar.from_log(rhs),
        checked=checked,
        max_tail_rhs_log=-math.inf,
        **fields,
    )


def _tail_rhs_log(tail_log: LogMag, rhs_log: LogMag) -> float:
    if isinstance(tail_log, float) and tail_log == -math.inf:
        return -math.inf
    if isinstance(tail_log, float) and tail_log == math.inf:
        return math.inf
    if isinstance(rhs_log, float) and math.isinf(rhs_log):
        return -math.inf if rhs_log > 0 else math.inf
    return lfloat(lsub(tail_log, rhs_log))


def _diagonal_window(sys, proj, lo, hi):
    pre, zeros = sys.diag_prefix(hi)
    return ([p.tolist() for p in pre], [z.tolist() for z in zeros],
            [proj.mask(n) for n in range(lo, hi + 1)])


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


def rounding_scale_of(sys, lo, hi, alpha, weights) -> float:
    """The factor of the rounding bound in ``_DiagonalSweeps.rows_to_scan``:
    |alpha| (hi + 1) plus the largest ``rounding_scale`` of a prefix sum of
    the window and of a weight, doubled when any of them is exact and
    nonzero; one value at a time."""
    pres, _ = sys.diag_prefix(hi)
    pre = [v for coord in pres for v in coord[lo:hi + 1].tolist()]
    scale = abs(alpha) * (hi + 1) + max(map(rounding_scale, pre))
    scale += max(map(rounding_scale, weights))
    if not all(isinstance(v, float) or v == 0 for v in pre + list(weights)):
        scale *= 2
    return scale


# -- the log array, one entry at a time -----------------------------------------------

# object arrays through the scalar functions: what each entry of a
# ``LogArray`` result must equal, in value and type
EXACT_ADD = np.frompyfunc(ladd, 2, 1)
EXACT_SUB = np.frompyfunc(lsub, 2, 1)
EXACT_LOGADDEXP = np.frompyfunc(logaddexp_mag, 2, 1)


def exact_segmented_max(values: list, bounds: list[int], reverse: bool) -> list:
    """``logarray.segmented_max`` one entry at a time: per index, the
    running maximum of the entries after it (``reverse``) or before it in
    its stretch, each step as numpy's object maximum takes it (the first of
    equal entries kept); -inf where there is none."""
    out = [-math.inf] * len(values)
    for s, e in zip(bounds, bounds[1:]):
        e = min(e, len(values))
        run = None
        for k in range(e - 1, s, -1) if reverse else range(s, e - 1):
            run = values[k] if run is None or not run >= values[k] else run
            out[k - 1 if reverse else k + 1] = run
    return out


# -- certificates, one index at a time -------------------------------------------------


def validate_loop(cert: DichotomyCertificate, window: WindowSpec) -> None:
    """``cert.validate(window)`` for a nonuniform certificate, one profile
    log per index: raises at the first n whose log is rejected or falls
    below the one at n - 1."""
    prev = None
    for n in range(window.n_min, window.m_max + 1):
        cur = _profile_log(cert.profile, n)
        if prev is not None and cur < prev:
            raise InvalidCertificateError(f"profile decreases at n={n}")
        prev = cur


# -- the pair and triplet forms, one pair or triplet at a time ------------------------


def window_pairs(window: WindowSpec):
    """The pairs (n, m) of the window in lexicographic order, the order that
    fixes witness selection."""
    for n in range(window.n_min, window.m_max + 1):
        for m in range(n, window.m_max + 1):
            yield n, m


def window_triplets(window: WindowSpec):
    """The triplets (p, n, m) of the window in lexicographic order."""
    for p in range(window.n_min, window.m_max + 1):
        for n, m in window_pairs(WindowSpec(p, window.m_max)):
            yield p, n, m


def pair_loop(
    sys: SystemDescription,
    proj: ProjectionFamily,
    cert: DichotomyCertificate,
    window: WindowSpec,
    tol: float = DEFAULT_LOG_TOL,
) -> VerificationOutcome:
    """``verify_certificate`` as the loop over the pairs (n, m) of the rows
    that the kernel's ``rows_to_scan`` returns, in lexicographic order, the
    P side before the Q side: one ``logs`` call and two ``_slack`` calls per
    pair, from the least slack of the rows it clears."""
    _validate(cert, window, tol)
    check_compatibility(sys, proj, window.n_min, window.m_max)
    lo, hi, alpha = window.n_min, window.m_max, cert.alpha
    weights = [cert.r_log(k) for k in range(lo, hi + 1)]
    kernel = _sweeps(sys, proj, lo, hi)
    ext = _PairExtremes(kernel)
    rows, min_slack = kernel.rows_to_scan(alpha, weights, tol)
    for n in rows:
        before = sum(hi - k + 1 for k in range(lo, n))  # the pairs of the rows before n
        for m in range(n, hi + 1):
            checked = before + m - n + 1
            gap = alpha * (m - n)
            g, h = ext.logs(n, m)
            slack_p = _slack(weights[n - lo], ladd(gap, g) if g != -math.inf else -math.inf)
            if slack_p < min_slack:
                min_slack = slack_p
            if slack_p < -tol:
                required = lsub(ladd(gap, g), cert.scale_offset(n))
                return VerificationOutcome(
                    False,
                    Witness(m, n, ext.row(n).direction(m, n, "P"),
                            LogScalar.from_log(required), side="P"),
                    checked,
                    slack_p,
                )
            rhs_q = ladd(weights[m - lo], h) if h != math.inf else math.inf
            slack_q = _slack(rhs_q, gap)
            if slack_q < min_slack:
                min_slack = slack_q
            if slack_q < -tol:
                required = lsub(lsub(gap, cert.scale_offset(m)), h)
                return VerificationOutcome(
                    False,
                    Witness(m, n, ext.row(n).direction(m, n, "Q"),
                            LogScalar.from_log(required), side="Q"),
                    checked,
                    slack_q,
                )
    return VerificationOutcome(True, None, sum(hi - k + 1 for k in range(lo, hi + 1)), min_slack)


def triplet_loop(
    sys: SystemDescription,
    proj: ProjectionFamily,
    cert: DichotomyCertificate,
    window: WindowSpec,
    tol: float = DEFAULT_LOG_TOL,
) -> VerificationOutcome:
    """``verify_triplet_form`` as the loop over every triplet (p, n, m) in
    lexicographic order, the P side before the Q side: one kernel row per
    seed p, one ``ratios`` call and two ``_slack`` calls per triplet."""
    _validate(cert, window, tol)
    check_compatibility(sys, proj, window.n_min, window.m_max)
    alpha = cert.alpha
    kernel = _sweeps(sys, proj, window.n_min, window.m_max)
    row = None
    min_slack = math.inf
    checked = 0
    for p, n, m in window_triplets(window):
        checked += 1
        if row is None or row.n != p:
            row = kernel.row(p)
        rp, rq = row.ratios(m, n)
        gap = alpha * (m - n)
        slack_p = _slack(cert.r_log(n), ladd(gap, rp) if rp != -math.inf else -math.inf)
        slack_q = _slack(lsub(cert.r_log(m), rq) if rq != -math.inf else math.inf, gap)
        worse = min(slack_p, slack_q)
        if worse < min_slack:
            min_slack = worse
        if worse < -tol:
            if slack_p < -tol:
                side, slack, required = "P", slack_p, lsub(ladd(gap, rp), cert.scale_offset(n))
            else:
                side, slack, required = "Q", slack_q, ladd(lsub(gap, cert.scale_offset(m)), rq)
            return VerificationOutcome(
                False,
                Witness(m, n, row.direction(m, n, side), LogScalar.from_log(required),
                        side=side),
                checked,
                slack,
            )
    return VerificationOutcome(True, None, checked, min_slack)


def grid_search_loop(sys, proj, window: WindowSpec, points):
    """``checkers._grid_search`` one rate at a time: two ``rows`` calls and
    one ``cols`` call per rate, all its betas as one array, and each point
    floored by ``max(0.0, p, q)``."""
    kernel = _sweeps(sys, proj, window.n_min, window.m_max)
    index = np.arange(window.n_min, window.m_max + 1, dtype=float)
    sizes = (len(index), window.half().m_max - window.n_min + 1)  # full and half window
    table, best = [], None
    for alpha, group in groupby(points, key=operator.itemgetter(0)):
        betas = [beta for _, beta in group]
        shifts = np.array([beta or 0.0 for beta in betas])[:, None] * index
        cols = kernel.cols(alpha).floats() - shifts
        least = []  # per window and beta: max(0.0, max(rows - beta n), max(cols - beta m))
        for size in sizes:
            rows = kernel.rows(alpha, window.n_min + size - 1).floats() - shifts[:, :size]
            peaks = zip(rows.max(axis=1).tolist(), cols[:, :size].max(axis=1).tolist())
            least.append([max(0.0, p, q) for p, q in peaks])
        for beta, full, half in zip(betas, *least):
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


def _sup_ratio(num: np.ndarray, den: np.ndarray, same_horizon: bool = False) -> float:
    """log sup over z of |num z| / |den z|, one pair of images at a time.
    With den = U S V^T, a direction v that den kills (a singular value at
    most max(shape) eps times the largest) takes no part when |num v| is at
    most max(shape) eps |num|, and makes the ratio unbounded otherwise; over
    the other directions the ratio is the top singular value of num V S^-1.
    Images at the same horizon have the ratio 1, unless they are zero. The
    dense kernel batches this over a seed's row."""
    if same_horizon:
        return -math.inf if float(np.linalg.norm(num, 2)) == 0.0 else 0.0
    _, s, vt = np.linalg.svd(den, full_matrices=False)
    share = max(den.shape) * np.finfo(float).eps
    killed = s <= s[0] * share
    if not killed.any():
        top = float(np.linalg.svd((num @ vt.T) / s, compute_uv=False)[0])
    elif (np.linalg.norm(num @ vt[killed].T, axis=0) > np.linalg.norm(num, 2) * share).any():
        return math.inf
    elif killed.all():
        return -math.inf
    else:
        top = float(np.linalg.svd((num @ vt[~killed].T) / s[~killed])[1][0])
    return math.log(top) if top > 0 else -math.inf


# -- falsify, one family member at a time ---------------------------------------------


def _log_product(a: LogMag, b: LogMag) -> LogMag:
    """log(exp(a) exp(b)) of two magnitudes, -inf when either is zero."""
    return -math.inf if a == -math.inf or b == -math.inf else ladd(a, b)


def required_logs_loop(alpha, pairs, w_p, w_q, p_norms, q_norms) -> list[LogMag]:
    """``checkers._required_logs`` one member at a time: the scalar formula
    exp(alpha (m-n)) (|A_P x| + |Q x|) over w_P |P x| + w_Q |A_Q x| through
    ``ladd``, ``lsub`` and ``logaddexp_mag``."""
    logs = []
    for (m, n), u, v, (px, ap), (qx, aq) in zip(pairs, w_p, w_q, p_norms.tolist(),
                                                 q_norms.tolist()):
        numerator = _log_product(alpha * (m - n), logaddexp_mag(ap, qx))
        denominator = logaddexp_mag(_log_product(u, px), _log_product(v, aq))
        if denominator == -math.inf:
            required = math.inf
        elif numerator == -math.inf:
            required = -math.inf
        else:
            required = lsub(numerator, denominator)
        logs.append(required)
    return logs


def classify_trend_loop(ks, logs) -> tuple[str, float]:
    """``checkers._classify_trend`` one member at a time: the finite logs (as
    floats) and their ks picked out in Python lists, and the family compared
    step by step in the logs' own types."""
    floats = [lfloat(v) for v in logs]
    finite = [(k, v) for k, v in zip(ks, floats) if math.isfinite(v)]
    slope = 0.0
    if len(finite) >= 2:
        xs = np.array([k for k, _ in finite], dtype=float)
        ys = np.array([v for _, v in finite], dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            slope = _fit_slope(xs, ys)
            if not math.isfinite(slope):
                scale = float(np.abs(ys).max())
                slope = _fit_slope(xs, ys / scale) * scale
    if len(logs) < 5:
        return "bounded", slope
    nondecreasing = all(logs[i + 1] >= logs[i] for i in range(len(logs) - 1))
    growing = logs[-1] > logs[0]
    if nondecreasing and growing and slope > _TIE_BAND:
        return "divergent", slope
    return "bounded", slope
