"""The Datko points of a diagonal system, one per index, in O(W + M).

The trajectory of a unit direction e_i seeded at s is pre_i[j] - pre_i[s]
until a zero factor, so pre_i[s] cancels from every slack of the summation
criteria (``datko``). The P slack, whose sum runs over t = j..M, is the same
at every live seed s <= j (and +inf at a dead one), so j is taken at its
first live seed f(j), the start of its stretch between zero factors (or
n_min). The Q slack, whose sum runs over t = s..j, is least at the first
seed n_min: its sum holds every term of a later seed's, and its right side
is 0 once a zero factor lies in (n_min, j]. Either is the first point of
least slack in (seed, index) order, in exact arithmetic.

Each stretch is summed by ``datko.weighted_sums``, the routine that sums
the dense table's rows: one running ``logaddexp``, with no loop over the
columns. Imported when a diagonal Datko check first needs it.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .datko import weighted_sums
from .logarray import LogArray, concatenate, where
from .logscalar import LogMag


def stretch_sums(a: LogArray, bounds: list[int], rate: LogMag, reverse: bool) -> LogArray:
    """``weighted_sums`` of each stretch [bounds[k], bounds[k + 1]) of ``a``
    on its own: the stretches are the rows of tables padded with -inf, one
    per power of two of their lengths, so that the tables hold fewer than
    twice the entries; a table of one stretch is as wide as it."""
    starts, lengths = np.array(bounds[:-1]), np.diff(bounds)
    widths = 1 << np.frexp(lengths - 1)[1]
    parts, places = [], []
    for width in np.unique(widths).tolist():
        rows = np.flatnonzero(widths == width)
        width = int(lengths[rows[0]]) if len(rows) == 1 else width
        place = starts[rows, None] + np.arange(width)
        held = place < (starts + lengths)[rows, None]
        table = where(held, a[np.where(held, place, 0)], -math.inf)
        parts.append(weighted_sums(table, rate, reverse)[held])
        places.append(place[held])
    return concatenate(parts)[np.argsort(np.concatenate(places))]


def datko_points(kernel, part: str, d: LogMag, hi: int):
    """The Datko points of each coordinate i of P(lo) or Q(lo) (``part``) of
    a ``system._DiagonalSweeps`` kernel at j = lo..hi, one per j, in the
    shape of ``datko._table_points``: the directions, the seeds, the columns
    j - lo, and per direction the trajectories and sums at the points. Each
    stretch of P (the window of Q) is summed on its own, every coordinate's
    at once (``stretch_sums``), in O(dim (kernel.hi - lo))."""
    lo, size = kernel.lo, hi - kernel.lo + 1
    row = kernel.row(lo)
    coords = row.p_coords if part == "P" else row.q_coords
    if not coords:
        return [], None, None, None, None
    trajs, bounds, offsets, firsts = [], [0], [], []
    for i in coords:
        # P: the stretches that start in the window, to their ends; Q: the window
        ends = kernel.bounds[i]
        ends = ends[:bisect_left(ends, size) + 1] if part == "P" else [0, size]
        first = np.repeat(ends[:-1], np.diff(ends))
        trajs.append(kernel.factor_logs(i, lo + np.arange(len(first)), lo + first))
        offsets.append(bounds[-1])
        bounds += [offsets[-1] + e for e in ends[1:]]
        firsts.append(first[:size])
    trajs = concatenate(trajs)
    sums = stretch_sums(trajs, bounds, d, part == "P")
    at = np.array(offsets)[:, None] + np.arange(size)
    return (kernel.seed_directions(part, lo), lo + np.array(firsts), np.arange(size),
            trajs[at], sums[at])
