"""The mediant reduction is the backbone of every checker: the quantified
inequality collapses to pure-direction extremes. These tests pin the scalar
identity and compare checker values against dense direction sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dichotomy import (
    ExplicitSequence,
    ProjectionFamily,
    SystemDescription,
    restricted_extremes,
)

from oracles import evolution

positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300)
@given(positive, positive, positive, positive)
def test_mediant_identity(a, b, c, d):
    """sup over s, t >= 0 of (s a + t b) / (s c + t d) equals max(a/c, b/d)."""
    target = max(a / c, b / d)
    ss = np.linspace(0.0, 1.0, 101)
    ratios = [
        (s * a + (1 - s) * b) / (s * c + (1 - s) * d) for s in ss
    ]
    sampled = max(ratios)
    assert sampled <= target * (1 + 1e-12)
    # attained at one of the endpoints
    assert max(ratios[0], ratios[-1]) == pytest.approx(target, rel=1e-12)


def _commuting_system(rng, dim, rank, steps):
    while True:
        frame = rng.uniform(-1.0, 1.0, size=(dim, dim))
        if abs(np.linalg.det(frame)) > 0.3:
            break
    inv = np.linalg.inv(frame)
    proj = ProjectionFamily(dim, matrix=frame @ np.diag([1.0] * rank + [0.0] * (dim - rank)) @ inv)
    mats = [np.eye(dim)]
    for _ in range(steps):
        block = np.zeros((dim, dim))
        block[:rank, :rank] = rng.uniform(-1.2, 1.2, size=(rank, rank))
        block[rank:, rank:] = rng.uniform(-1.2, 1.2, size=(dim - rank, dim - rank))
        block[np.diag_indices(dim)] += np.sign(block.diagonal()) * 0.7 + 0.1
        mats.append(frame @ block @ inv)
    return SystemDescription(dim, ExplicitSequence(mats)), proj


def sampled_requirement(sys_, proj, alpha, m, n, rng, samples=2000):
    """Minimal uniform constant at one pair, by direction sampling plus the
    claimed extremal directions (the mediant bound says mixtures never win)."""
    evo = evolution(sys_, m, n).to_dense()
    p = proj.matrix(n)
    q = np.eye(sys_.dim) - p
    ext = restricted_extremes(sys_, proj, m, n)
    candidates = rng.normal(size=(samples, sys_.dim))
    extras = [d for d in (ext.direction_p, ext.direction_q) if d]
    if extras:
        candidates = np.vstack([candidates, np.array(extras)])
    gap = math.exp(alpha * (m - n))
    best = 0.0
    for x in candidates:
        px, qx = p @ x, q @ x
        num = gap * (np.linalg.norm(evo @ px) + np.linalg.norm(qx))
        den = np.linalg.norm(px) + np.linalg.norm(evo @ qx)
        if den > 1e-12:
            best = max(best, num / den)
    return best


def test_checker_requirement_matches_sampling():
    rng = np.random.default_rng(101)
    alpha = 0.3
    for _ in range(6):
        dim = int(rng.integers(2, 5))
        rank = int(rng.integers(1, dim))
        sys_, proj = _commuting_system(rng, dim, rank, steps=6)
        for (m, n) in [(2, 0), (4, 1), (6, 3), (5, 5)]:
            ext = restricted_extremes(sys_, proj, m, n)
            gap = math.exp(alpha * (m - n))
            checker = max(
                gap * ext.growth_p.to_float(),
                gap / ext.min_gain_q.to_float(),
            )
            sampled = sampled_requirement(sys_, proj, alpha, m, n, rng)
            # sampling may only fall short, never exceed, and the extremal
            # directions close the gap exactly
            assert sampled == pytest.approx(checker, rel=1e-9)
