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
    DenseOverflowError,
    IndexOrderError,
    InvalidConstantsError,
    NoDecayCertificateError,
)
from .logscalar import LogMag, LogScalar, ladd, lfloat, logaddexp_mag, lsub
from .system import (
    DEFAULT_TOL_COMPAT,
    ProjectionFamily,
    SystemDescription,
    check_compatibility,
    _range_basis,
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


def _constant_mask_or_matrix(sys, proj, n_lo, n_hi):
    """Summation scans assume a constant projection; verify and return it."""
    if sys.is_diagonal:
        mask = proj.mask(n_lo)
        for k in range(n_lo, n_hi + 1):
            if proj.mask(k) != mask:
                raise InvalidConstantsError(
                    "summation checks require a constant projection family"
                )
        return mask
    base = proj.matrix(n_lo)
    for k in range(n_lo, n_hi + 1):
        if not np.allclose(proj.matrix(k), base, atol=1e-12):
            raise InvalidConstantsError(
                "summation checks require a constant projection family"
            )
    return base


def _seed_directions(sys, proj, part: str, ref_index: int):
    """Unit directions spanning the requested range (coordinates or basis)."""
    if sys.is_diagonal:
        mask = proj.mask(ref_index)
        coords = [i for i in range(sys.dim) if mask[i] == (part == "P")]
        return [
            (tuple(1.0 if j == i else 0.0 for j in range(sys.dim)), i) for i in coords
        ]
    mat = proj.matrix(ref_index) if part == "P" else proj.complement_matrix(ref_index)
    basis = _range_basis(mat)
    return [(tuple(float(v) for v in basis[:, j]), None) for j in range(basis.shape[1])]


def _traj_lognorms(sys, vec, coord, seed: int, upto: int) -> list[LogMag]:
    """log |A(j, seed) x| for j = seed..upto (index j - seed in the list)."""
    if sys.is_diagonal:
        active = [
            (i, math.log(abs(vec[i]))) for i in range(sys.dim) if vec[i] != 0.0
        ] if coord is None else [(coord, 0.0)]
        out: list[LogMag] = []
        for j in range(seed, upto + 1):
            best: LogMag = -math.inf
            for i, off in active:
                f = sys.diag_factor(i, j, seed)
                if f.sign == 0:
                    continue
                cand = ladd(f.logmag, off) if off != 0.0 else f.logmag
                if best == -math.inf or cand > best:
                    best = cand
            out.append(best)
        return out
    y = np.asarray(vec, dtype=float)
    out = []
    for j in range(seed, upto + 1):
        if j > seed:
            with np.errstate(over="ignore", invalid="ignore"):
                y = sys.coefficient(j) @ y
            if not np.all(np.isfinite(y)):
                raise DenseOverflowError(
                    f"trajectory from {seed} overflows doubles at {j}; "
                    "declare the system in diagonal closed form"
                )
        nrm = float(np.linalg.norm(y))
        out.append(math.log(nrm) if nrm > 0 else -math.inf)
    return out


def _suffix_weighted(traj: list[LogMag], d: float) -> list[LogMag]:
    """R[t] = log sum_{s >= t} exp(d (s - t)) exp(traj[s]) (same indexing)."""
    out: list[LogMag] = []
    acc: LogMag = -math.inf
    for t in reversed(traj):
        acc = logaddexp_mag(t, ladd(acc, d))
        out.append(acc)
    out.reverse()
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

    Direct summation; exists mainly as an independent oracle for the
    verifier fast paths and for index-origin experiments.
    """
    if not (stop >= start >= seed_time >= 0):
        raise IndexOrderError("need stop >= start >= seed_time >= 0")
    vec = list(x)
    if sys.is_diagonal:
        mask = proj.mask(seed_time)
        px = [v if mask[i] else 0.0 for i, v in enumerate(vec)]
        traj = _traj_lognorms(sys, px, None, seed_time, stop)
    else:
        px = proj.matrix(seed_time) @ np.asarray(vec, dtype=float)
        traj = _traj_lognorms(sys, px, None, seed_time, stop)
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
    _constant_mask_or_matrix(sys, proj, p, m_trunc)
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
            ladd(_majorant_log(cert, n), anchor.logmag),
            (d - cert.alpha) * (m_trunc + 1 - n) + log_geom,
        )
        tail = LogScalar.from_log(tail_log)
    # exact Q part
    if sys.is_diagonal:
        mask = proj.mask(n)
        qx = [v if not mask[i] else 0.0 for i, v in enumerate(vec)]
    else:
        qx = proj.complement_matrix(n) @ np.asarray(vec, dtype=float)
    q_traj = _traj_lognorms(sys, qx, None, n, m)
    acc: LogMag = -math.inf
    for k in range(n, m + 1):
        acc = logaddexp_mag(acc, ladd(q_traj[k - n], d * (m - k)))
    return p_sum, LogScalar.from_log(acc), tail


def _majorant_log(cert: DichotomyCertificate, n: int) -> LogMag:
    if cert.kind is Kind.NED:
        return cert.profile.log_at(n)
    if cert.kind is Kind.UED:
        return cert.log_n()
    return cert.log_n() + cert.beta * n


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
    if not d > 0:
        raise InvalidConstantsError(f"need d > 0, got {d}")
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
    if d < 0:
        raise InvalidConstantsError(f"need d >= 0, got {d}")
    if big_d < 1:
        raise InvalidConstantsError(f"need D >= 1, got {big_d}")
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
    if not d > 0:
        raise InvalidConstantsError(f"need d > 0, got {d}")
    if c < 0:
        raise InvalidConstantsError(f"need c >= 0, got {c}")
    if big_d < 1:
        raise InvalidConstantsError(f"need D >= 1, got {big_d}")
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
    _constant_mask_or_matrix(sys, proj, window.n_min, m_trunc)
    log_geom = (
        -math.log1p(-math.exp(d - cert.alpha)) if cert is not None else None
    )
    reports = []
    for direction, coord in _seed_directions(sys, proj, "P", window.n_min):
        reports.append(
            _p_side_report(
                sys, proj, window, m_trunc, cert, tol, form, d, w_p,
                p_sum_from_m, c, direction, coord, log_geom,
            )
        )
    for direction, coord in _seed_directions(sys, proj, "Q", window.n_min):
        reports.append(
            _q_side_report(sys, window, tol, form, d, w_q, c, direction, coord)
        )
    return reports


def _p_side_report(
    sys, proj, window, m_trunc, cert, tol, form, d, w_p,
    p_sum_from_m, c, direction, coord, log_geom,
):
    worst_slack = math.inf
    worst = None
    worst_vals = None
    max_tail_rhs = -math.inf
    checked = 0
    any_violated = False
    any_inconclusive = False
    for seed in range(window.n_min, window.m_max + 1):
        traj = _traj_lognorms(sys, list(direction), coord, seed, m_trunc)
        suffix = _suffix_weighted(traj, d)

        def point(check_at: int, triple: tuple[int, int, int]):
            nonlocal worst_slack, worst, worst_vals, max_tail_rhs
            nonlocal checked, any_violated, any_inconclusive
            checked += 1
            rel = check_at - seed
            lhs = suffix[rel]
            anchor = traj[rel]
            rhs = ladd(w_p(check_at), anchor) if anchor != -math.inf else -math.inf
            if cert is not None and anchor != -math.inf:
                tail_log = ladd(
                    ladd(_majorant_log(cert, check_at), anchor),
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


def _q_side_report(sys, window, tol, form, d, w_q, c, direction, coord):
    worst_slack = math.inf
    worst = None
    worst_vals = None
    checked = 0
    any_violated = False
    for n in range(window.n_min, window.m_max + 1):
        traj = _traj_lognorms(sys, list(direction), coord, n, window.m_max)
        acc: LogMag = -math.inf
        for m in range(n, window.m_max + 1):
            rel = m - n
            acc = logaddexp_mag(traj[rel], ladd(acc, d))
            checked += 1
            anchor = traj[rel]
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
