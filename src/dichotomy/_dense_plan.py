"""The dense pair plan: the short pairs that decide a dense pair verify.

A uniform contraction over a fixed horizon bounds every longer pair
(Coppel, *Dichotomies in Stability Theory*, 1978; Pötzsche, *Geometric
Theory of Discrete Nonautonomous Dynamical Systems*, 2010). ``short_pairs``
looks for the least block length L = 1, 2, 4, ..., at most half the window,
at which every block (k, k + L) of the window has

    alpha L + log growth_P(k, k + L) <= -2 eps_P  and
    alpha L - log min_gain_Q(k, k + L) <= -2 eps_Q,

eps the rounding bound of the block's own sweep (``_Offsets``). Under
compatibility growth_P is submultiplicative and min_gain_Q
supermultiplicative, and the P weight is read at n, the Q weight at m. So
the exact slack of a pair (n, m) with m - n >= L exceeds that of (n, m - L)
on the P side and that of (n + L, m) on the Q side, and the pairs m - n < L
decide a holding verdict and its least slack. Their logs are those of the
rows' full sweeps (``system._DenseSweeps``), bit for bit.
"""

from __future__ import annotations

import math
import sys
from itertools import groupby
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .logarray import LogArray, _log_values

if TYPE_CHECKING:
    from .system import _DenseSweeps

# The unit roundoff, the least subnormal and the log of the largest double.
_U = 2.0**-53
_TINY = 2.0**-1074
_LOG_MAX = math.log(np.finfo(float).max)
# A computed singular value of X lies within _SVD_ROUNDING d w u |X|_F of the
# exact one of X, for X of shape (d, w).
_SVD_ROUNDING = 4


class ShortPairs(NamedTuple):
    """The pairs (ns[t], ms[t]) of a dense window with m - n < ``length``, in
    lexicographic order, and their log growth_P and log min_gain_Q."""

    length: int
    ns: np.ndarray
    ms: np.ndarray
    growth: np.ndarray
    gain: np.ndarray


def short_pairs(sweeps: _DenseSweeps, alpha: float, weights, tol: float) -> ShortPairs | None:
    """The short pairs of every row for the least block length that
    certifies, or None when none does (the search stops once the worst
    block excess stops falling), when a block tried is itself a pair that
    violates the certificate with the weights r(lo..hi), or when an image
    of the window could overflow (``_may_overflow``), so that the full scan
    raises as it did. Each case logs one DEBUG record (``debug``)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        found = _block_length(sweeps, alpha, LogArray(weights).floats(), tol)
    if found is None:
        return None
    length, sides = found
    p, q = (side.logs(length) for side in sides)
    size = sweeps.hi - sweeps.lo + 1
    short = np.arange(length) < (size - np.arange(size))[:, None]  # m <= hi
    ns = np.broadcast_to(np.arange(sweeps.lo, sweeps.hi + 1)[:, None], short.shape)[short]
    return ShortPairs(length, ns, ns + np.nonzero(short)[1], p[short], q[short])


def _block_length(sweeps: _DenseSweeps, alpha: float, weights: np.ndarray,
                  tol: float) -> tuple[int, list[_Offsets]] | None:
    """The least block length that certifies and the swept sides, for
    ``short_pairs``; None, with a DEBUG record of the reason, when there is
    none."""
    cap = (sweeps.hi - sweeps.lo) // 2
    norms = _step_norms(sweeps) if cap else {}
    if cap and _may_overflow(norms, sweeps.projections.shape[1]):
        debug("dense pair plan: full scan, an image of the window could overflow")
        return None
    sides, last = dict.fromkeys("PQ"), {"P": 0.0, "Q": 0.0}
    length, worst, before = 0, math.inf, math.inf
    for length in (2**j for j in range(cap.bit_length())):  # 1, 2, 4, ... <= cap
        worst = -math.inf
        # the side with the larger last excess first: once one side reaches
        # the last worst, the search stops
        for part in sorted(sides, key=lambda part: -last[part]):
            sides[part] = side = sides[part] or _Offsets(sweeps, part, *norms[part])
            excess, violated = side.blocks(alpha, length, weights, tol)
            if violated:
                debug("dense pair plan: full scan, a pair (k, k + %d) violates", length)
                return None
            last[part], worst = excess, max(worst, excess)
            if not worst < before:
                break
        if worst <= 0.0 or not worst < before:
            break
        before = worst
    if not worst <= 0.0:
        debug("dense pair plan: full scan, no block length certifies (the last tried, "
              "L = %d, has the worst block excess %.3g)", length, worst)
        return None
    return length, list(sides.values())


def _step_norms(sweeps: _DenseSweeps) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per side, |S_k|_F of each step and (1 + |P(k)|_F) |A(k)|_F, which
    bounds the matrices that forming S_k and applying it round."""
    scale = (1.0 + _frobenius(sweeps.projections)) * _frobenius(sweeps.coeffs)
    return {part: (_frobenius(steps), scale) for part, steps in sweeps.steps.items()}


def _may_overflow(norms: dict[str, tuple[np.ndarray, np.ndarray]], dim: int) -> bool:
    """Whether an image of the window could leave the doubles: the largest
    sum of log |S_k|_F over a stretch of steps of either side, plus the log
    of a start basis's norm (at most sqrt(dim)), comes within 1 of the
    largest double's log."""
    for steps, _ in norms.values():
        logs = np.maximum(np.log(steps[1:]), -_LOG_MAX)  # step lo starts no row
        run = np.concatenate([[0.0], np.cumsum(logs)])
        if (run - np.minimum.accumulate(run)).max() + 0.5 * math.log(dim) + 1 >= _LOG_MAX:
            return True
    return False


class _Offsets:
    """One side (``part`` "P" or "Q") of every row of a dense window, swept
    one offset t at a time: the images of range P(n) or Q(n) at n + t of all
    rows n advance together, one stacked ``matmul`` per offset and run of
    rows whose ranges share their width, each row by its own steps, so each
    image is that of the row's full sweep, bit for bit.

    Per offset it keeps, for every row, the image's Frobenius norm, the
    singular value that the side reads (the largest for P, the least for Q;
    taken when first asked for) and a bound on its distance from that of the
    exact product of the steps: Weyl's inequality over the sweep's error
    bound E_t <= |S_k| E_{t-1} + gamma_{2d+2} (1 + |P(k)|) |A(k)| |X_{t-1}|
    + d^2 tiny (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, §3.5: forming S_k and applying it, with underflow), plus the SVD's
    own error; all norms Frobenius, |S_k| and (1 + |P(k)|) |A(k)| given as
    ``norms`` and ``scales``. NaN marks rows past hi."""

    def __init__(self, sweeps: _DenseSweeps, part: str, norms: np.ndarray, scales: np.ndarray):
        self.steps, self.part = sweeps.steps[part], part
        self.step_norms, self.scales = norms, scales
        # the rows whose projection differs from the row before's take a basis
        p = sweeps.projections
        firsts = np.flatnonzero(np.concatenate([[True], (p[1:] != p[:-1]).any(axis=(1, 2))]))
        counts = np.diff([*firsts.tolist(), len(p)]).tolist()
        bases = [sweeps.bases(sweeps.lo + a)[part == "Q"] for a in firsts.tolist()]
        self.widths = np.repeat([b.shape[1] for b in bases], counts)
        # per run of rows of equal nonzero width: its first row, and the
        # images, error bounds and norms of its rows at the last offset swept
        self.runs = []
        for width, run in groupby(zip(firsts.tolist(), counts, bases), key=lambda s: s[2].shape[1]):
            if width:
                run = list(run)
                x = np.concatenate([np.broadcast_to(b, (c, *b.shape)) for _, c, b in run])
                self.runs.append((run[0][0], x, np.zeros(len(x)), _frobenius(x)))
        self.norms, self.bounds, self.values = [None], [None], [None]

    def _advance(self) -> None:
        """Sweep every row one offset further, once the singular values of
        the last offset are taken."""
        self._singular_values()
        t, size, d = len(self.norms), len(self.widths), self.steps.shape[1]
        gamma = (2 * d + 2) * _U / (1 - (2 * d + 2) * _U)
        out, bounds, runs = np.full(size, np.nan), np.full(size, np.nan), []
        for a, x, e, f in self.runs:
            live = min(len(x), size - t - a)  # the rows n with n + t <= hi
            if live > 0:
                k = slice(a + t, a + t + live)
                x = np.matmul(self.steps[k], x[:live])
                e = self.step_norms[k] * e[:live] + gamma * self.scales[k] * f[:live]
                e += d * d * _TINY
                f = out[a:a + live] = _frobenius(x)
                bounds[a:a + live] = e + _SVD_ROUNDING * d * x.shape[2] * _U * f
                runs.append((a, x, e, f))
        self.runs = runs
        self.norms.append(out)
        self.bounds.append(bounds)

    def _singular_values(self) -> None:
        """The side's singular value of every image at the last offset swept,
        unless taken; NaN where an image is not finite."""
        if len(self.values) < len(self.norms):
            out = np.full(len(self.widths), np.nan)
            for a, x, _, f in self.runs:
                if np.isfinite(f).all():
                    s = np.linalg.svd(x, compute_uv=False)
                    out[a:a + len(x)] = s[:, 0 if self.part == "P" else -1]
            self.values.append(out)

    def blocks(self, alpha: float, length: int, weights: np.ndarray,
               tol: float) -> tuple[float, bool]:
        """Over the blocks (k, k + L), k + L <= hi: whether one of them, as a
        pair, violates the certificate with the float ``weights`` by its
        Frobenius norm alone (|X|_F / sqrt(w) is at most growth_P and at
        least min_gain_Q), and if not, the largest of alpha L + log growth_P
        + 2 eps (P) or alpha L - log min_gain_Q + 2 eps (Q), eps the log of
        the bound's ratio to the value plus the rounding of the log and the
        sum: +inf where the bound is void (not below the value), -inf where
        the range is trivial."""
        while len(self.norms) <= length:
            self._advance()
        cut, gap = len(self.widths) - length, alpha * length
        sign = 1.0 if self.part == "P" else -1.0
        norm = np.log(self.norms[length][:cut] / np.sqrt(self.widths[:cut]))
        slack = weights[:cut] - (gap + norm) if sign > 0 else weights[length:] + norm - gap
        if (slack < -tol).any():
            return math.inf, True
        self._singular_values()
        s, bound = self.values[length][:cut], self.bounds[length][:cut]
        logs = np.log(s)
        eps = sign * np.log1p(sign * bound / s) + 4 * _U * (abs(gap) + np.abs(logs))
        excess = np.where(bound < s, gap + sign * logs + 2 * eps, math.inf)
        return float(np.where(self.widths[:cut] == 0, -math.inf, excess).max()), False

    def logs(self, length: int) -> np.ndarray:
        """(row, offset t < ``length``): the side's log growth_P or
        log min_gain_Q of the pair (n, n + t), -inf / +inf for a trivial
        range, as the rows' ``row_logs`` take them; unset past hi."""
        empty = -math.inf if self.part == "P" else math.inf
        values = np.reshape(self.values[1:length], (length - 1, len(self.widths))).T
        out = np.empty((len(self.widths), length))
        out[:, 0] = 0.0  # the pair (n, n), as in ``_DenseSweeps._sweep_block``
        out[:, 1:] = np.reshape(_log_values(values.ravel()), values.shape)
        out[self.widths == 0] = empty
        return out


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack; +inf where its square
    overflows."""
    return np.sqrt(np.einsum("kij,kij->k", stack, stack))


def debug(message: str, *args) -> None:
    """One DEBUG record on the ``dichotomy`` logger. A program that has not
    imported ``logging`` has set no level or handler that a DEBUG record
    could reach, so the record is dropped there, and ``logging`` is neither
    imported at ``import dichotomy`` nor loaded for it."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("dichotomy").debug(message, *args)
