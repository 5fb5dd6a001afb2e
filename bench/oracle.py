"""Expected answers computed from closed forms, independently of the scan code.

Every job of the benchmark is checked against an answer computed here. For
gallery entries the coordinate products come from
``dichotomy.gallery.closed_form_amn`` (the entry's tabulated product formula);
for dense fixtures they come from the block scalars the fixture was built
from. Nothing here calls the prefix sums, the pair scans, the dense products
or the Datko summations of the program.

The scans are evaluated on whole index triangles with numpy: rows are the
start index n (or seed p), columns the end index m. The tower entry keeps
exact integer logs, so its arrays hold Python ``int``/``Fraction`` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from dichotomy.gallery import closed_form_amn, make_example

LOG_TOL = 1e-9  # the program's default comparison tolerance
TIE_BAND = 1e-12


def close(a, b, rel: float = 1e-9, abs_tol: float = 1e-6) -> bool:
    """Numbers agree up to float rounding; infinities must match exactly."""
    a, b = float(a), float(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= abs_tol + rel * abs(b)


# -- coordinate products ---------------------------------------------------------

# Each gallery entry has two diagonal coordinates; coordinate i multiplies
# the shared scalar a_k by a constant. Its product over (n, m] has log
#   sign_i * log a_{mn} + offset_i * (m - n).
# The first coordinate spans range P, the second range Q.
def _coordinate_rule(name: str, params: dict):
    if name == "ued_example":
        return (-1, 0.0), (1, 0.0)
    if name == "ned_example":
        log_b = math.log(params["b"])
        return (1, log_b), (0, -log_b)
    if name in ("sed_example", "ed_example"):
        return (1, math.log(params["c1"])), (1, math.log(params["c2"]))
    if name == "ned_not_ed_example":
        log_c = math.log(params["c"])
        return (1, log_c), (0, -log_c)
    raise KeyError(name)


def is_exact(name: str) -> bool:
    return name == "ned_not_ed_example"


class CoordLogs:
    """Log-magnitudes of both coordinates' products over (n, m].

    ``p[n, m]`` and ``q[n, m]`` are filled for ``n <= n_max`` and
    ``n <= m <= m_max``; other entries are unused.
    """

    def __init__(self, p, q, exact: bool):
        self.p = p
        self.q = q
        self.exact = exact

    @classmethod
    def gallery(cls, name: str, params: dict, n_max: int, m_max: int) -> "CoordLogs":
        exact = is_exact(name)
        (sp, op), (sq, oq) = _coordinate_rule(name, params)
        if exact:
            op, oq = Fraction(op), Fraction(oq)
        dtype = object if exact else float
        p = np.zeros((n_max + 1, m_max + 1), dtype=dtype)
        q = np.zeros((n_max + 1, m_max + 1), dtype=dtype)
        for n in range(n_max + 1):
            for m in range(n, m_max + 1):
                a = closed_form_amn(name, params, m, n).logmag if m > n else 0
                p[n, m] = sp * a + op * (m - n)
                q[n, m] = sq * a + oq * (m - n)
        return cls(p, q, exact)

    @classmethod
    def dense(cls, p_scalars, q_scalars, n_max: int, m_max: int) -> "CoordLogs":
        """Products of the fixture's block scalars; index 0 never enters."""
        def table(scalars):
            logs = np.log(np.abs(np.asarray(scalars[: m_max + 1], dtype=float)))
            cum = np.concatenate(([0.0], np.cumsum(logs[1:])))
            return cum[None, :] - cum[: n_max + 1, None]

        return cls(table(p_scalars), table(q_scalars), exact=False)


# -- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class Cert:
    """The certificate a job passes on the command line, in oracle form."""

    kind: str  # UED | NED | ED | SED
    alpha: float
    n_const: float = 1.0
    beta: float = 0.0
    profile: tuple = ()  # ("power", shift, power) or ("tower",)

    def spec(self) -> str:
        if self.kind == "NED":
            if self.profile[0] == "tower":
                prof = "tower"
            else:
                prof = f"power:{self.profile[1]!r}:{self.profile[2]!r}"
            return f"NED:alpha={self.alpha!r},profile={prof}"
        text = f"{self.kind}:N={self.n_const!r},alpha={self.alpha!r}"
        if self.kind != "UED":
            text += f",beta={self.beta!r}"
        return text

    def weight_log(self, idx: int, exact: bool = False):
        """log R_P(idx) = log R_Q(idx)."""
        if self.kind == "NED":
            if self.profile[0] == "tower":
                return (idx + 1) * (1 + 2 ** (idx + 1))
            return self.profile[2] * math.log(idx + self.profile[1])
        log_n = math.log(self.n_const)
        if self.kind == "UED":
            return Fraction(log_n) if exact else log_n
        if exact:
            return Fraction(log_n) + Fraction(self.beta) * idx
        return log_n + self.beta * idx

    def offset(self, idx: int, exact: bool = False):
        """log(R(idx) / N): zero except for the beta weight of ED and SED."""
        if self.kind in ("ED", "SED"):
            return Fraction(self.beta) * idx if exact else self.beta * idx
        return 0


def _weights(cert: Cert, count: int, exact: bool):
    vals = [cert.weight_log(i, exact) for i in range(count)]
    return np.array(vals, dtype=object if exact else float)


def _grid(w: int, exact: bool):
    n = np.arange(w + 1)[:, None]
    m = np.arange(w + 1)[None, :]
    d = m - n
    if exact:
        d = d.astype(object)
    return n, m, d, (m >= n)


# -- verify ---------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    holds: bool
    min_slack: float
    checked: int
    witness: tuple | None = None  # (m, n, side, required log-magnitude)


def _pair_slacks(logs: CoordLogs, cert: Cert, w: int):
    exact = logs.exact
    _, _, d, valid = _grid(w, exact)
    alpha = Fraction(cert.alpha) if exact else cert.alpha
    rw = _weights(cert, w + 1, exact)
    g = logs.p[: w + 1, : w + 1]
    h = logs.q[: w + 1, : w + 1]
    slack_p = rw[:, None] - (alpha * d + g)
    slack_q = (rw[None, :] + h) - alpha * d
    return slack_p, slack_q, valid, alpha * d


def _witness(logs: CoordLogs, cert: Cert, gap, w: int, n: int, m: int, side: str, slack):
    """Verdict for the first violation at (n, m): rank in the scan, slack, and
    the least constant that would repair the inequality there."""
    checked = sum(w + 1 - k for k in range(n)) + (m - n) + 1
    if side == "P":
        required = gap[n, m] + logs.p[n, m] - cert.offset(n, logs.exact)
    else:
        required = gap[n, m] - cert.offset(m, logs.exact) - logs.q[n, m]
    return Verdict(False, float(slack), checked, (m, n, side, required))


def verify_pairs(logs: CoordLogs, cert: Cert, w: int, tol: float = LOG_TOL) -> Verdict:
    """Pair scan in lexicographic (n, m) order, P side before Q side."""
    slack_p, slack_q, valid, gap = _pair_slacks(logs, cert, w)
    bad_p = valid & (slack_p < -tol)
    bad = (bad_p | (valid & (slack_q < -tol))).ravel()
    if bad.any():
        n, m = divmod(int(np.argmax(bad)), w + 1)
        side, slack = ("P", slack_p[n, m]) if bad_p[n, m] else ("Q", slack_q[n, m])
        return _witness(logs, cert, gap, w, n, m, side, slack)
    low = min(min(slack_p[valid]), min(slack_q[valid]))
    return Verdict(True, float(low), int(valid.sum()))


def verify_triplets(logs: CoordLogs, cert: Cert, w: int, tol: float = LOG_TOL) -> Verdict:
    """Triplet scan (p, n, m). Without zero factors the ratio extremes equal
    the pair extremes of (n, m) for every seed p, so the first violation, if
    any, sits in the p = 0 block, on the side with the smaller slack."""
    slack_p, slack_q, valid, gap = _pair_slacks(logs, cert, w)
    worse = np.where(slack_p <= slack_q, slack_p, slack_q)
    bad = (valid & (worse < -tol)).ravel()
    if bad.any():
        n, m = divmod(int(np.argmax(bad)), w + 1)
        side = "P" if slack_p[n, m] <= slack_q[n, m] else "Q"
        return _witness(logs, cert, gap, w, n, m, side, worse[n, m])
    return Verdict(True, float(min(worse[valid])), (w + 1) * (w + 2) * (w + 3) // 6)


def check_verify(result: dict, want: Verdict) -> list[str]:
    errs = []
    verdict = "holds" if want.holds else "violated"
    if result.get("verdict") != verdict:
        errs.append(f"verdict {result.get('verdict')} != {verdict}")
        return errs
    if result["pairs_checked"] != want.checked:
        errs.append(f"pairs_checked {result['pairs_checked']} != {want.checked}")
    if not close(result["min_slack"], want.min_slack):
        errs.append(f"min_slack {result['min_slack']} != {want.min_slack}")
    if want.witness is not None:
        got = result["witness"]
        m, n, side, required = want.witness
        if (got["m"], got["n"], got["side"]) != (m, n, side):
            errs.append(f"witness {(got['m'], got['n'], got['side'])} != {(m, n, side)}")
        elif not close(got["required_constant"]["logmag"], required):
            errs.append(f"required constant {got['required_constant']} != {float(required)}")
    return errs


# -- estimates ------------------------------------------------------------------


def default_alpha_grid(logs: CoordLogs, w: int, count: int = 32) -> list[float]:
    """Log-spaced rates up to the one-pair gap estimate at (0, w) and (0, w-1)."""
    alpha_max = 0.0
    for m in {w, max(1, w - 1)}:
        if m <= 0:
            continue
        cands = [-float(logs.p[0, m]) / m, float(logs.q[0, m]) / m]
        alpha_max = max(alpha_max, min(cands))
    if not math.isfinite(alpha_max) or alpha_max <= 0:
        alpha_max = 1.0
    grid = list(np.geomspace(alpha_max / 100.0, alpha_max, count))
    grid[-1] = alpha_max
    return grid


def default_beta_grid(alpha_max: float, count: int = 16) -> list[float]:
    return list(np.linspace(0.0, 2.0 * alpha_max, count))


@dataclass(frozen=True)
class Estimate:
    rows: tuple  # (alpha, beta, log_n_full, log_n_half, stable)
    best: tuple  # (alpha, beta, log_n, stable)


def estimate(logs: CoordLogs, w: int, alphas, betas=None, strong: bool = False) -> Estimate:
    """Least weighted constant per grid point, on the full and the half window."""
    n, m, d, valid = _grid(w, False)
    g = np.asarray(logs.p[: w + 1, : w + 1], dtype=float)
    h = np.asarray(logs.q[: w + 1, : w + 1], dtype=float)
    half = valid & (m <= w // 2)
    uniform = betas is None
    grid = [(a, None if uniform else b) for a in sorted(alphas)
            for b in ([0.0] if uniform else sorted(betas)) if uniform or not strong or b < a]

    def least(alpha, beta, mask):
        p_side = alpha * d + g - beta * n
        q_side = alpha * d - h - beta * m
        return max(0.0, float(p_side[mask].max()), float(q_side[mask].max()))

    rows, best = [], None
    for alpha, beta in grid:
        full = least(alpha, beta or 0.0, valid)
        part = least(alpha, beta or 0.0, half)
        row = (alpha, beta, full, part, full <= part + LOG_TOL)
        rows.append(row)
        if best is None or full < best[2] - TIE_BAND:
            best = row
        elif abs(full - best[2]) <= TIE_BAND:
            if alpha > best[0] or (not uniform and alpha == best[0] and beta < best[1]):
                best = row
    return Estimate(tuple(rows), (best[0], best[1], best[2], best[4]))


def check_estimate(result: dict, want: Estimate) -> list[str]:
    errs = []
    grid = result["grid"]
    if len(grid) != len(want.rows):
        return [f"grid has {len(grid)} rows, expected {len(want.rows)}"]
    for got, (alpha, beta, full, part, stable) in zip(grid, want.rows):
        if not close(got["alpha"], alpha) or (beta is not None and not close(got["beta"], beta)):
            errs.append(f"grid point ({got['alpha']}, {got['beta']}) != ({alpha}, {beta})")
        elif not (close(got["log_n_full"], full) and close(got["log_n_half"], part)):
            errs.append(f"grid values at alpha={alpha}: ({got['log_n_full']}, "
                        f"{got['log_n_half']}) != ({full}, {part})")
        elif got["stable"] != stable:
            errs.append(f"stability at alpha={alpha}, beta={beta}")
        if errs:
            return errs
    alpha, beta, log_n, stable = want.best
    if not close(result["alpha"], alpha) or not close(result["N"]["logmag"], log_n):
        errs.append(f"best ({result['alpha']}, {result['N']}) != ({alpha}, {log_n})")
    if beta is not None and not close(result["beta"], beta):
        errs.append(f"best beta {result['beta']} != {beta}")
    if result["stable"] != stable:
        errs.append(f"best stable {result['stable']} != {stable}")
    return errs


def ned_profile(logs: CoordLogs, w: int, alpha: float) -> tuple[list[float], float]:
    """Least nondecreasing profile (floored at 1) and the least uniform N."""
    n, m, d, valid = _grid(w, False)
    g = np.asarray(logs.p[: w + 1, : w + 1], dtype=float)
    h = np.asarray(logs.q[: w + 1, : w + 1], dtype=float)
    need_p = np.where(valid, alpha * d + g, -np.inf)
    need_q = np.where(valid, alpha * d - h, -np.inf)
    raw = np.maximum(0.0, np.maximum(need_p.max(axis=1), need_q.max(axis=0)))
    return list(np.maximum.accumulate(raw)), float(max(0.0, need_p.max(), need_q.max()))


# -- falsification --------------------------------------------------------------


@dataclass(frozen=True)
class Trend:
    pairs: tuple  # (m, n) per family member
    required: tuple  # required log-constant per member
    trend: str
    slope: float


def falsify(name: str, params: dict, concept: str, schedule: str, k_max: int,
            alpha: float | None = None, beta: float | None = None) -> Trend:
    """Required constants along a gallery schedule probed at coordinate 0."""
    sched = make_example(name, params).schedule(schedule)
    alpha = sched.default_alpha if alpha is None else alpha
    beta = sched.default_beta if beta is None else beta
    exact = is_exact(name)
    (sp, op), _ = _coordinate_rule(name, params)
    if exact:
        alpha, beta, op = Fraction(alpha), Fraction(beta), Fraction(op)
    pairs, logs = [], []
    for k in range(k_max + 1):
        m, n = sched.pair_at(k)
        a = closed_form_amn(name, params, m, n).logmag if m > n else 0
        grow = sp * a + op * (m - n)
        weight = beta * n if concept in ("ED", "SED") else 0
        pairs.append((m, n))
        logs.append(alpha * (m - n) + grow - weight)
    ks = np.arange(k_max + 1, dtype=float)
    ys = np.array([float(v) for v in logs])
    xbar, ybar = ks.mean(), ys.mean()
    denom = float(np.sum((ks - xbar) ** 2))
    slope = float(np.sum((ks - xbar) * (ys - ybar)) / denom) if denom else 0.0
    nondecreasing = all(b >= a for a, b in zip(logs, logs[1:]))
    divergent = (len(logs) >= 5 and nondecreasing and logs[-1] > logs[0]
                 and slope > TIE_BAND)
    return Trend(tuple(pairs), tuple(logs), "divergent" if divergent else "bounded", slope)


def check_falsify(result: dict, want: Trend) -> list[str]:
    if result["trend"] != want.trend:
        return [f"trend {result['trend']} != {want.trend}"]
    if not close(result["log_slope"], want.slope):
        return [f"slope {result['log_slope']} != {want.slope}"]
    wits = result["witnesses"]
    if len(wits) != len(want.pairs):
        return [f"{len(wits)} witnesses, expected {len(want.pairs)}"]
    for wit, (m, n), req in zip(wits, want.pairs, want.required):
        if (wit["m"], wit["n"]) != (m, n) or not close(wit["required_constant"]["logmag"], req):
            return [f"witness ({wit['m']}, {wit['n']}) required "
                    f"{wit['required_constant']['logmag']} != {float(req)} at ({m}, {n})"]
    return []


# -- Datko summation ------------------------------------------------------------


@dataclass(frozen=True)
class DatkoSide:
    verdict: str
    checked: int
    slack: dict  # triple -> tracked slack
    lhs: dict  # triple -> left-side log (truncated P sum or Q sum)
    rhs: dict
    worst_slack: float


def _cert_log_factor(cert: Cert, d: float) -> float:
    return -math.log1p(-math.exp(d - cert.alpha))


def datko(logs: CoordLogs, cert: Cert, d: float, w: int, m_trunc: int,
          tol: float = LOG_TOL) -> tuple[str, DatkoSide, DatkoSide]:
    """Summation criterion mapped from ``cert`` (the ``--from-cert`` path).

    Returns the overall verdict and the P-side and Q-side expectations.
    """
    log_factor = _cert_log_factor(cert, d)
    if cert.kind == "NED":
        form = "nonuniform"

        def weight(t):
            return cert.weight_log(t) + log_factor
    else:
        log_big_d = math.log(1.0 + cert.n_const * math.exp(log_factor))
        c = 0.0 if cert.kind == "UED" else cert.beta
        form = "uniform" if cert.kind == "UED" else "exponential"

        def weight(t):
            return log_big_d + c * t

    p_side = _datko_p(logs, cert, form, weight, d, w, m_trunc, log_factor, tol)
    q_side = _datko_q(logs, weight, d, w, tol)
    verdicts = {p_side.verdict, q_side.verdict}
    overall = ("violated" if "violated" in verdicts
               else "inconclusive-tail" if "inconclusive-tail" in verdicts else "holds")
    return overall, p_side, q_side


def _datko_p(logs, cert, form, weight, d, w, m_trunc, log_geom, tol) -> DatkoSide:
    slack, lhs_at, rhs_at = {}, {}, {}
    violated = inconclusive = False
    worst = math.inf
    for seed in range(w + 1):
        u = np.arange(seed, m_trunc + 1)
        traj = np.asarray(logs.p[seed, seed: m_trunc + 1], dtype=float)
        # suffix[t] = log sum_{u >= t} e^{d (u - t)} |A(u, seed) x|
        suffix = np.logaddexp.accumulate((traj + d * u)[::-1])[::-1] - d * u
        for t in range(seed, w + 1):
            rel = t - seed
            anchor = traj[rel]
            rhs = weight(t) + anchor
            tail = (cert.weight_log(t) + anchor + (d - cert.alpha) * (m_trunc + 1 - t)
                    + log_geom)
            total = rhs - np.logaddexp(suffix[rel], tail)
            trunc = rhs - suffix[rel]
            violated |= trunc < -tol
            inconclusive |= total < -tol
            triple = (t, seed, seed) if form == "uniform" else (t, t, seed)
            slack[triple], lhs_at[triple], rhs_at[triple] = total, suffix[rel], rhs
            worst = min(worst, total)
    verdict = "violated" if violated else ("inconclusive-tail" if inconclusive else "holds")
    return DatkoSide(verdict, len(slack), slack, lhs_at, rhs_at, worst)


def _datko_q(logs, weight, d, w, tol) -> DatkoSide:
    slack, lhs_at, rhs_at = {}, {}, {}
    worst = math.inf
    for n in range(w + 1):
        k = np.arange(n, w + 1)
        traj = np.asarray(logs.q[n, n: w + 1], dtype=float)
        # acc[m] = log sum_{k=n}^{m} e^{d (m - k)} |A(k, n) x|
        acc = np.logaddexp.accumulate(traj - d * k) + d * k
        for m in range(n, w + 1):
            rhs = weight(m) + traj[m - n]
            value = rhs - acc[m - n]
            slack[(m, n, n)], lhs_at[(m, n, n)], rhs_at[(m, n, n)] = value, acc[m - n], rhs
            worst = min(worst, value)
    verdict = "violated" if worst < -tol else "holds"
    return DatkoSide(verdict, len(slack), slack, lhs_at, rhs_at, worst)


def check_datko(report: dict, verdict: str, p_side: DatkoSide, q_side: DatkoSide,
                p_dirs: int, q_dirs: int) -> list[str]:
    """Each extremal direction's report must match its side's expectation.

    Pairs whose slacks tie in exact arithmetic are told apart only by
    rounding, so the worst triple may be any triple within the tie band.
    """
    if report["verdict"] != verdict:
        return [f"verdict {report['verdict']} != {verdict}"]
    sides = [r["side"] for r in report["reports"]]
    if sides != ["P"] * p_dirs + ["Q"] * q_dirs:
        return [f"report sides {sides}"]
    for rep in report["reports"]:
        want = p_side if rep["side"] == "P" else q_side
        worst = (rep["worst"]["m"], rep["worst"]["n"], rep["worst"]["p"])
        if rep["verdict"] != want.verdict or rep["checked"] != want.checked:
            return [f"{rep['side']} side {rep['verdict']}/{rep['checked']} != "
                    f"{want.verdict}/{want.checked}"]
        if worst not in want.slack or want.slack[worst] > want.worst_slack + 1e-8 * (
                1 + abs(want.worst_slack)):
            return [f"{rep['side']} side worst triple {worst} is not a tightest triple"]
        lhs = rep["lhs_P_sum"] if rep["side"] == "P" else rep["lhs_Q_sum"]
        if not (close(lhs["logmag"], want.lhs[worst]) and close(rep["rhs"]["logmag"],
                                                                 want.rhs[worst])):
            return [f"{rep['side']} side sums at {worst}: {lhs} / {rep['rhs']}"]
    return []
