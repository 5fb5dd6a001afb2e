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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import DichotomyCertificate, Kind, Profile, ScaledProfile, WindowSpec
from .checkers import _slack
from .errors import (
    DecayGapError,
    IndexOrderError,
    InvalidConstantsError,
    NoDecayCertificateError,
)
from .logarray import LogTable
from .logscalar import LogMag, LogScalar, ladd, lfloat, logaddexp_mag, lsub
from .system import (
    DEFAULT_TOL_COMPAT,
    ProjectionFamily,
    SystemDescription,
    _range_basis,
    _sweeps,
    check_compatibility,
)

DEFAULT_LOG_TOL = 1e-9

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


def certificate_to_datko(cert: DichotomyCertificate, d: float) -> SummationConstants:
    """Map certificate constants to summation constants (necessity direction).

    Uses the geometric factor e^alpha / (e^alpha - e^d), which requires
    d < alpha; the nonuniform profile is scaled by it, the constant kinds
    get D = 1 + N * factor with c = beta (0 for the uniform kind).
    """
    cert.validate()
    if d >= cert.alpha:
        raise DecayGapError(f"need d < alpha, got d={d}, alpha={cert.alpha}")
    log_factor = -math.log1p(-math.exp(d - cert.alpha))
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
    base = proj.matrix(n_lo)
    for k in range(n_lo, n_hi + 1):
        if not np.allclose(proj.matrix(k), base, atol=1e-12):
            raise InvalidConstantsError(
                "summation checks require a constant projection family"
            )


def _seed_directions(sys, proj, part: str, ref_index: int) -> list[tuple[float, ...]]:
    """Unit directions spanning the requested range (coordinates or basis)."""
    if sys.is_diagonal:
        mask = proj.mask(ref_index)
        coords = [i for i in range(sys.dim) if mask[i] == (part == "P")]
        return [tuple(1.0 if j == i else 0.0 for j in range(sys.dim)) for i in coords]
    mat = proj.matrix(ref_index) if part == "P" else proj.complement_matrix(ref_index)
    basis = _range_basis(mat)
    return [tuple(float(v) for v in basis[:, j]) for j in range(basis.shape[1])]


def _trajectories(sys, proj, part: str, window: WindowSpec, upto: int):
    """The seed directions of the range and one table of their log-norm
    trajectories: a row per direction and seed s = n_min..m_max (direction
    major), a column per index j = n_min..upto, -inf before the seed."""
    directions = _seed_directions(sys, proj, part, window.n_min)
    seeds = list(range(window.n_min, window.m_max + 1))
    xs = np.array([x for x in directions for _ in seeds]).reshape(-1, sys.dim)
    kernel = _sweeps(sys, proj, window.n_min, upto)
    table = kernel.trajectories(
        part, xs, seeds * len(directions), np.arange(window.n_min, upto + 1)
    )
    return directions, table


def _weighted_sums(table: LogTable, d: float, reverse: bool) -> LogTable:
    """Per row, acc[j] = log(exp(row[j]) + exp(d + acc[j +- 1])): taken over
    the columns in reverse, log sum_{t >= j} e^{d (t - j)} e^{row[t]}; in
    order, log sum_{t <= j} e^{d (j - t)} e^{row[t]}. All rows advance in
    lockstep. A row's first finite term passes through unchanged, so an int
    stays an int."""
    values, form = table.values, table.form
    if not len(values):
        return table
    out = np.empty_like(values)
    acc = np.full(len(values), -math.inf, dtype=values.dtype)
    step = -1 if reverse else 1
    with np.errstate(over="ignore"):
        for col, dst in zip(values.T[::step], out.T[::step]):
            acc = form.logaddexp(col, form.add(acc, d), out=dst)
    ints = table.ints
    if ints is not None:
        # an int entry stays one where the sum of the columns before it is -inf
        rows, cols = np.nonzero(ints)
        before = cols - step
        inside = (before >= 0) & (before < values.shape[1])
        ints = np.zeros_like(ints)
        ints[rows, cols] = ~inside
        ints[rows[inside], cols[inside]] = out[rows[inside], before[inside]] == -math.inf
    return LogTable(out, ints)


# -- the three verifiers -----------------------------------------------------


def verify_datko_ned(
    sys: SystemDescription,
    proj: ProjectionFamily,
    d: float,
    s_profile: Profile,
    window: WindowSpec,
    m_trunc: int,
    cert: DichotomyCertificate | None = None,
    tol: float = DEFAULT_LOG_TOL,
    tol_compat: float = DEFAULT_TOL_COMPAT,
) -> list[DatkoReport]:
    """Nonuniform summation criterion over the triplet window."""
    if not 0 < d < math.inf:
        raise InvalidConstantsError(f"need finite d > 0, got {d}")
    return _run_summation(
        sys, proj, window, m_trunc, cert, tol, tol_compat,
        form="nonuniform", d=d,
        w_p=lambda n: s_profile.log_at(n),
        w_q=lambda m: s_profile.log_at(m),
        p_sum_from_m=False,
    )


def verify_datko_ued(
    sys: SystemDescription,
    proj: ProjectionFamily,
    d: float,
    big_d: float,
    window: WindowSpec,
    m_trunc: int,
    cert: DichotomyCertificate | None = None,
    tol: float = DEFAULT_LOG_TOL,
    tol_compat: float = DEFAULT_TOL_COMPAT,
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
    return _run_summation(
        sys, proj, window, m_trunc, cert, tol, tol_compat,
        form="uniform", d=d,
        w_p=lambda n: log_d,
        w_q=lambda m: log_d,
        p_sum_from_m=True,
    )


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
    tol: float = DEFAULT_LOG_TOL,
    tol_compat: float = DEFAULT_TOL_COMPAT,
) -> list[DatkoReport]:
    """Exponential summation criterion; ``strong`` tightens the gate to c < d."""
    if not 0 < d < math.inf:
        raise InvalidConstantsError(f"need finite d > 0, got {d}")
    if not 0 <= c < math.inf:
        raise InvalidConstantsError(f"need finite c >= 0, got {c}")
    if not 1 <= big_d < math.inf:
        raise InvalidConstantsError(f"need finite D >= 1, got {big_d}")
    if strong and not c < d:
        raise InvalidConstantsError(f"strong gate needs c < d, got c={c}, d={d}")
    log_d = math.log(big_d)
    return _run_summation(
        sys, proj, window, m_trunc, cert, tol, tol_compat,
        form="exponential", d=d,
        w_p=lambda n: log_d + c * n,
        w_q=lambda m: log_d + c * m,
        p_sum_from_m=False,
        c=c,
    )


def _run_summation(
    sys, proj, window, m_trunc, cert, tol, tol_compat,
    form, d, w_p, w_q, p_sum_from_m, c=None,
) -> list[DatkoReport]:
    if m_trunc < window.m_max:
        raise IndexOrderError(f"truncation {m_trunc} below window end {window.m_max}")
    if cert is not None:
        cert.validate()
        if d >= cert.alpha:
            raise NoDecayCertificateError(
                f"certificate decay alpha={cert.alpha} does not dominate d={d}"
            )
    check_compatibility(sys, proj, window.n_min, m_trunc, tol_compat)
    _require_constant_projection(proj, window.n_min, m_trunc)
    log_geom = (
        -math.log1p(-math.exp(d - cert.alpha)) if cert is not None else None
    )
    reports = []
    size = window.m_max - window.n_min + 1
    directions, table = _trajectories(sys, proj, "P", window, m_trunc)
    trajs = table.tolist(size)
    suffixes = _weighted_sums(table, d, reverse=True).tolist(size)
    for k, direction in enumerate(directions):
        rows = slice(k * size, (k + 1) * size)
        reports.append(
            _p_side_report(
                window, m_trunc, cert, tol, form, d, w_p,
                p_sum_from_m, c, direction, trajs[rows], suffixes[rows], log_geom,
            )
        )
    directions, table = _trajectories(sys, proj, "Q", window, window.m_max)
    trajs = table.tolist()
    sums = _weighted_sums(table, d, reverse=False).tolist()
    for k, direction in enumerate(directions):
        rows = slice(k * size, (k + 1) * size)
        reports.append(
            _q_side_report(window, tol, form, d, w_q, c, direction, trajs[rows], sums[rows])
        )
    return reports


def _p_side_report(
    window, m_trunc, cert, tol, form, d, w_p,
    p_sum_from_m, c, direction, trajs, suffixes, log_geom,
):
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

        def point(check_at: int, triple: tuple[int, int, int]):
            nonlocal worst_slack, worst, worst_vals, max_tail_rhs
            nonlocal checked, any_violated, any_inconclusive
            checked += 1
            col = check_at - window.n_min
            lhs = suffix[col]
            anchor = traj[col]
            rhs = ladd(w_p(check_at), anchor) if anchor != -math.inf else -math.inf
            if cert is not None and anchor != -math.inf:
                tail_log = ladd(
                    ladd(cert.r_log(check_at), anchor),
                    (d - cert.alpha) * (m_trunc + 1 - check_at) + log_geom,
                )
            elif anchor == -math.inf:
                tail_log = -math.inf
            else:
                tail_log = math.inf
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

        if p_sum_from_m:
            n = seed
            for m in range(n, window.m_max + 1):
                point(m, (m, n, n))
        else:
            p = seed
            for n in range(p, window.m_max + 1):
                point(n, (n, n, p))
    verdict = VIOLATED if any_violated else (INCONCLUSIVE if any_inconclusive else HOLDS)
    lhs, tail_log, rhs = worst_vals
    return DatkoReport(
        form=form,
        side="P",
        direction=direction,
        d=d,
        c=c,
        verdict=verdict,
        worst=worst,
        lhs_p_sum=LogScalar.from_log(lhs),
        lhs_q_sum=LogScalar.zero(),
        tail_bound=LogScalar.from_log(tail_log) if tail_log != math.inf
        else LogScalar.positive_infinity(),
        rhs=LogScalar.from_log(rhs),
        checked=checked,
        max_tail_rhs_log=max_tail_rhs,
    )


def _q_side_report(window, tol, form, d, w_q, c, direction, trajs, sums):
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
            rhs = ladd(w_q(m), anchor) if anchor != -math.inf else -math.inf
            slack = _slack(rhs, acc)
            if slack < -tol:
                any_violated = True
            if worst is None or slack < worst_slack:
                worst_slack = slack
                worst = (m, n, n)
                worst_vals = (acc, rhs)
    verdict = VIOLATED if any_violated else HOLDS
    lhs, rhs = worst_vals
    return DatkoReport(
        form=form,
        side="Q",
        direction=direction,
        d=d,
        c=c,
        verdict=verdict,
        worst=worst,
        lhs_p_sum=LogScalar.zero(),
        lhs_q_sum=LogScalar.from_log(lhs),
        tail_bound=LogScalar.zero(),
        rhs=LogScalar.from_log(rhs),
        checked=checked,
        max_tail_rhs_log=-math.inf,
    )


def _tail_rhs_log(tail_log: LogMag, rhs_log: LogMag) -> float:
    if isinstance(tail_log, float) and tail_log == -math.inf:
        return -math.inf
    if isinstance(tail_log, float) and tail_log == math.inf:
        return math.inf
    if isinstance(rhs_log, float) and math.isinf(rhs_log):
        return -math.inf if rhs_log > 0 else math.inf
    return lfloat(lsub(tail_log, rhs_log))
