"""Summation (Datko-type) characterizations of the dichotomy concepts.

Three weighted-sum criteria are implemented, each evaluated on extremal
directions (the mediant reduction splits the inequality into a P-seeded and
a Q-seeded scalar check, exactly as in the pointwise verifiers):

* nonuniform form, over triplets (m, n, p):
    sum_{j=n}^inf e^{d(j-n)} |A_P(j,p) x| + sum_{k=n}^m e^{d(m-k)} |A_Q(k,n) x|
        <= S(n) |A_P(n,p) x| + S(m) |A_Q(m,n) x|
* uniform form, over pairs (m, n), with the P sum restarting at j = m:
    sum_{j=m}^inf e^{d(j-m)} |A_P(j,n) x| + sum_{k=n}^m e^{d(m-k)} |A_Q(k,n) x|
        <= D (|A_P(m,n) x| + |A_Q(m,n) x|)
  (d = 0 gives the unweighted variant);
* exponential form, over triplets, with right weights D e^{cn} and D e^{cm};
  the strong variant only tightens the admissibility gate to 0 <= c < d.

Infinite P sums are truncated at M_trunc; the remainder is covered by a
geometric tail bound derived from a decay certificate with alpha > d.
Without a certificate the tail is unknown and a passing truncated check is
reported as inconclusive rather than holds.

Each side checks every point (seed s, index j), s <= j, of the window, and
reports the first point of least slack in (seed, index) order, with one
algorithm per representation and one summation routine for both
(``weighted_sums``: a running ``logaddexp`` along the last axis, with no
loop over the columns). A dense system builds the trajectory of every seed
direction from every seed, a table of O(W M) entries, and sums its rows. A
diagonal system, at every window size, checks one point per index
(``_datko_diagonal``), in O(W + M): the seed's factor cancels from every
slack, so the P side is decided at the index's first live seed and the Q
side at n_min. So, among points whose slacks are equal in exact arithmetic,
a diagonal report names the first in (seed, index) order. Dense seeds are
range bases whose slacks are computed one by one in floats: where two tie,
rounding still picks the one named, until the dense kernel carries a bound
on its rounding.

The sums form d * t, the weights c * j and the tail's weights beta * j, so
a d, c or beta whose product with the last index is not a finite double is
rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import (
    DichotomyCertificate,
    Kind,
    Profile,
    ScaledProfile,
    WindowSpec,
    _profile_log,
)
from .checkers import DEFAULT_LOG_TOL, _check_rates, _difference, _slacks
from .errors import (
    DecayGapError,
    IndexOrderError,
    InvalidConstantsError,
    NoDecayCertificateError,
)
from .logarray import LogArray, _made, add, logaddexp, sub, times, where
from .logscalar import LogMag, LogScalar, ladd, logaddexp_mag
from .system import ProjectionFamily, SystemDescription, _sweeps, check_compatibility

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive-tail"


@dataclass(frozen=True)
class DatkoReport:
    """Outcome of one summation check along one extremal direction.

    The scalar fields are materialized at the worst-slack index triple;
    ``verdict`` aggregates every scanned index. ``verdict == "holds"``
    guarantees truncated sums plus tail stay below the right side
    everywhere scanned.
    """

    form: str
    side: str
    direction: tuple[float, ...]
    d: float
    c: float | None
    verdict: str
    worst: tuple[int, int, int]  # (m, n, p)
    lhs_p_sum: LogScalar
    lhs_q_sum: LogScalar
    tail_bound: LogScalar
    rhs: LogScalar
    checked: int
    max_tail_rhs_log: float


def overall_verdict(reports) -> str:
    verdicts = {r.verdict for r in reports}
    if VIOLATED in verdicts:
        return VIOLATED
    if INCONCLUSIVE in verdicts:
        return INCONCLUSIVE
    return HOLDS


@dataclass(frozen=True)
class SummationConstants:
    """Right-hand data for a summation criterion."""

    form: str  # "uniform" | "nonuniform" | "exponential"
    d: float
    big_d: float | None = None
    c: float | None = None
    s_profile: Profile | None = None


def _log_geometric(d, alpha) -> float:
    """log sum_{k >= 0} e^{(d - alpha) k} = -log(1 - e^{d - alpha}), for d < alpha."""
    return -math.log1p(-math.exp(d - alpha))


def certificate_to_datko(cert: DichotomyCertificate, d: float) -> SummationConstants:
    """Map certificate constants to summation constants (necessity direction).

    Uses the geometric factor e^alpha / (e^alpha - e^d), which requires
    d < alpha; the nonuniform profile is scaled by it, the constant kinds
    get D = 1 + N * factor with c = beta (0 for the uniform kind).
    """
    cert.validate()
    if d >= cert.alpha:
        raise DecayGapError(f"need d < alpha, got d={d}, alpha={cert.alpha}")
    log_factor = _log_geometric(d, cert.alpha)
    if cert.kind is Kind.NED:
        return SummationConstants(
            form="nonuniform", d=d, s_profile=ScaledProfile(cert.profile, log_factor)
        )
    big_d = 1.0 + cert.n_const * math.exp(log_factor)
    form = "uniform" if cert.kind is Kind.UED else "exponential"
    c = 0.0 if cert.kind is Kind.UED else float(cert.beta)
    return SummationConstants(form=form, d=d, big_d=big_d, c=c)


# -- trajectories ----------------------------------------------------------------


def _require_constant_projection(proj, n_lo, n_hi) -> None:
    """Summation scans assume a constant projection; raise unless it is."""
    if proj.constant:
        return
    window = proj.matrices(n_lo, n_hi)
    if not np.allclose(window, window[0], atol=1e-12):
        raise InvalidConstantsError("summation checks require a constant projection family")


def _trajectories(sys, proj, part: str, window: WindowSpec, upto: int):
    """The seed directions of the range and one table of their log-norm
    trajectories: a row per direction and seed s = n_min..m_max (direction
    major), a column per index j = n_min..upto, -inf before the seed."""
    kernel = _sweeps(sys, proj, window.n_min, upto)
    directions = kernel.seed_directions(part, window.n_min)
    seeds = list(range(window.n_min, window.m_max + 1))
    xs = np.array([x for x in directions for _ in seeds]).reshape(-1, sys.dim)
    table = kernel.trajectories(
        part, xs, seeds * len(directions), np.arange(window.n_min, upto + 1)
    )
    return directions, table


def weighted_sums(a: LogArray, rate: LogMag, reverse: bool) -> LogArray:
    """Along the last axis, log sum_{t >= j} e^{rate (t - j) + a[t]} at each j
    (``reverse``), or log sum_{t <= j} e^{rate (j - t) + a[t]}. The float form
    takes one running ``logaddexp`` of a[t] + rate t (of a[t] - rate t in
    order), less the same shift at j; the shift overflows unless rate *
    (length + 1) is finite. The exact form takes the running acc =
    ``logaddexp_mag``(a[t], ``ladd``(acc, rate)), one Python call per entry,
    which rounds only a bounded log1p term per step: the shift's rounding
    would move the last bits of exact sums. A term added to an empty sum
    (-inf) passes through unchanged: an int stays an int."""
    if a.exact:
        step = np.frompyfunc(lambda acc, x: logaddexp_mag(x, ladd(acc, rate)), 2, 1)
        v = a.objects()
        acc = step.accumulate(v[..., ::-1] if reverse else v, axis=-1, dtype=object)
        return _made(acc[..., ::-1] if reverse else acc)
    shift = times(rate if reverse else -rate, np.arange(a.values.shape[-1]))
    with np.errstate(over="ignore"):
        terms = add(a, shift)
        v = terms.values[..., ::-1] if reverse else terms.values
        acc = terms.form[2].accumulate(v, axis=-1)
        out = sub(_made(acc[..., ::-1] if reverse else acc), shift)
    empty = out.values == -math.inf
    edge = np.ones((*empty.shape[:-1], 1), dtype=bool)
    before = np.concatenate([empty[..., 1:], edge] if reverse else [edge, empty[..., :-1]], -1)
    return where(before, a, out)


def _table_points(sys, proj, part: str, window: WindowSpec, upto: int, d):
    """Every point (seed s, index j) of the side's triangle n_min <= s <= j
    <= m_max, in (seed, index) order, from one table of trajectories, a row
    per seed direction and seed, and their ``weighted_sums`` along the rows:
    the directions, the seeds, the columns j - n_min, and per direction the
    trajectories and sums at the points."""
    directions, table = _trajectories(sys, proj, part, window, upto)
    size = window.m_max - window.n_min + 1
    sums = weighted_sums(table, d, part == "P")
    rows, cols = np.triu_indices(size)
    at = np.arange(len(directions))[:, None] * size + rows
    return directions, window.n_min + rows, cols, table[at, cols], sums[at, cols]


def _side_points(sys, proj, part: str, window: WindowSpec, upto: int, d):
    """The points that decide the side, as ``_table_points`` gives them: on
    a diagonal system, at every window size, one per index, the first of
    its least slack in exact arithmetic (``_datko_diagonal``); on a dense
    one the whole table, where rounding breaks a tie between seeds."""
    if sys.is_diagonal:
        from ._datko_diagonal import datko_points
        return datko_points(_sweeps(sys, proj, window.n_min, upto), part, d, window.m_max)
    return _table_points(sys, proj, part, window, upto, d)


# -- the three verifiers -----------------------------------------------------


def verify_datko_ned(
    sys: SystemDescription,
    proj: ProjectionFamily,
    d: float,
    s_profile: Profile,
    window: WindowSpec,
    m_trunc: int,
    cert: DichotomyCertificate | None = None,
) -> list[DatkoReport]:
    """Nonuniform summation criterion over the triplet window."""
    if not 0 < d < math.inf:
        raise InvalidConstantsError(f"need finite d > 0, got {d}")
    return _run_summation(sys, proj, window, m_trunc, cert,
                          "nonuniform", d, lambda j: _profile_log(s_profile, j), restart=False)


def verify_datko_ued(
    sys: SystemDescription,
    proj: ProjectionFamily,
    d: float,
    big_d: float,
    window: WindowSpec,
    m_trunc: int,
    cert: DichotomyCertificate | None = None,
) -> list[DatkoReport]:
    """Uniform summation criterion over the pair window.

    The P sum starts at j = m (not n); d = 0 selects the unweighted
    variant. This index origin is load-bearing: starting the uniform sum at
    n adds strictly positive terms and breaks the constant D.
    """
    if not 0 <= d < math.inf:
        raise InvalidConstantsError(f"need finite d >= 0, got {d}")
    if not 1 <= big_d < math.inf:
        raise InvalidConstantsError(f"need finite D >= 1, got {big_d}")
    log_d = math.log(big_d)
    return _run_summation(sys, proj, window, m_trunc, cert,
                          "uniform", d, lambda j: log_d, restart=True)


def verify_datko_ed(
    sys: SystemDescription,
    proj: ProjectionFamily,
    d: float,
    c: float,
    big_d: float,
    window: WindowSpec,
    m_trunc: int,
    cert: DichotomyCertificate | None = None,
    strong: bool = False,
) -> list[DatkoReport]:
    """Exponential summation criterion; ``strong`` tightens the gate to c < d."""
    if not 0 < d < math.inf:
        raise InvalidConstantsError(f"need finite d > 0, got {d}")
    if not 0 <= c < math.inf:
        raise InvalidConstantsError(f"need finite c >= 0, got {c}")
    # the weights form c * j, as verify's rates do
    if isinstance(c, float) and not math.isfinite(c * (window.m_max + 1)):
        raise InvalidConstantsError(f"need c * (m_max + 1) a finite double, got c={c}")
    if not 1 <= big_d < math.inf:
        raise InvalidConstantsError(f"need finite D >= 1, got {big_d}")
    if strong and not c < d:
        raise InvalidConstantsError(f"strong gate needs c < d, got c={c}, d={d}")
    log_d = math.log(big_d)
    return _run_summation(sys, proj, window, m_trunc, cert,
                          "exponential", d, lambda j: log_d + c * j, restart=False, c=c)


def _run_summation(
    sys, proj, window, m_trunc, cert, form, d, weight, restart, c=None,
) -> list[DatkoReport]:
    if m_trunc < window.m_max:
        raise IndexOrderError(f"truncation {m_trunc} below window end {window.m_max}")
    # the sums form d * t, as the weights form c * j
    if isinstance(d, float) and not math.isfinite(d * (m_trunc + 1)):
        raise InvalidConstantsError(f"need d * (m_trunc + 1) a finite double, got d={d}")
    if cert is not None:
        cert.validate()
        # the tail's weights form beta * j, as verify's rates do
        _check_rates(window, cert.beta or 0.0)
        if d >= cert.alpha:
            raise NoDecayCertificateError(
                f"certificate decay alpha={cert.alpha} does not dominate d={d}"
            )
    check_compatibility(sys, proj, window.n_min, m_trunc)
    _require_constant_projection(proj, window.n_min, m_trunc)
    tail = math.inf
    if cert is not None:
        log_geom = _log_geometric(d, cert.alpha)

        def tail(j):
            return cert.r_log(j), (d - cert.alpha) * (m_trunc + 1 - j) + log_geom

    fields = dict(form=form, d=d, c=c)
    reports = _side_reports("P", *_side_points(sys, proj, "P", window, m_trunc, d),
                            weight, tail, window, restart, **fields)
    return reports + _side_reports("Q", *_side_points(sys, proj, "Q", window, window.m_max, d),
                                   weight, -math.inf, window, True, **fields)


def _side_reports(
    side, directions, seeds, cols, trajs, sums, weight, tail, window, restart, **fields
) -> list[DatkoReport]:
    """One report per direction of a side, every point in one array pass.

    Point k of direction i has seed ``seeds[i, k]`` (or ``seeds[k]``), index
    j = n_min + ``cols[k]``, trajectory ``trajs[i, k]`` and weighted sum
    ``sums[i, k]``; its triple is (j, s, s) if ``restart``, else (j, j, s).
    The right side is weight(j) + traj; the tail is r(j) + traj + offset(j)
    from ``tail(j)``, or else the constant log ``tail`` (+inf when unknown,
    -inf for none) where traj is finite. The worst point is the first of
    least slack; ``checked`` counts the whole triangle s <= j.
    """
    if not directions:
        return []
    size = window.m_max - window.n_min + 1
    at = range(window.n_min, window.m_max + 1)
    seeds = np.broadcast_to(seeds, trajs.values.shape)
    with np.errstate(over="ignore"):
        rhs = add(LogArray([weight(j) for j in at])[cols], trajs)
        if callable(tail):
            r, offset = (LogArray(v)[cols] for v in zip(*map(tail, at)))
            tails = add(add(r, trajs), offset)
        else:
            tails = where(trajs.values != -math.inf, tail, -math.inf)
        trunc = _slacks(rhs, sums)
        total = _slacks(rhs, logaddexp(sums, tails))
        # the tail/right ratio: a zero tail decides first
        t, v = tails.values, rhs.values
        tail_rhs = _difference(tails, rhs, [
            (t == -math.inf, -math.inf), (t == math.inf, math.inf),
            (v == math.inf, -math.inf), (v == -math.inf, math.inf),
        ])
    violated = (trunc < -DEFAULT_LOG_TOL).any(axis=1)
    inconclusive = (total < -DEFAULT_LOG_TOL).any(axis=1)
    worst = np.where(np.isfinite(total), total, trunc).argmin(axis=1)
    zero = LogScalar.zero()
    reports = []
    for k, w in enumerate(worst.tolist()):
        seed, j = seeds.item(k, w), window.n_min + cols.item(w)
        total_sum = LogScalar.from_log(sums.item(k, w))
        reports.append(DatkoReport(
            side=side,
            direction=directions[k],
            verdict=VIOLATED if violated[k] else INCONCLUSIVE if inconclusive[k] else HOLDS,
            worst=(j, seed, seed) if restart else (j, j, seed),
            lhs_p_sum=total_sum if side == "P" else zero,
            lhs_q_sum=zero if side == "P" else total_sum,
            tail_bound=LogScalar.from_log(tails.item(k, w)),
            rhs=LogScalar.from_log(rhs.item(k, w)),
            checked=size * (size + 1) // 2,
            max_tail_rhs_log=tail_rhs[k].max().item(),
            **fields,
        ))
    return reports
