import math

import numpy as np
import pytest

from dichotomy import (
    DegenerateRangeError,
    DiagonalClosedForm,
    ExplicitSequence,
    IncompatibleProjectionError,
    IndexOrderError,
    InvalidProjectionError,
    LogScalar,
    OutOfRangeError,
    ProjectionFamily,
    SystemDescription,
    compatibility_defect,
    make_example,
    restricted_extremes,
    restricted_ratio_extremes,
)
from dichotomy.logscalar import lfloat, lsub

from oracles import evolution, projected_evolution, smul


def two_factor_system():
    eye = np.eye(2)
    a1 = [[2.0, 0.0], [0.0, 1.0]]
    a2 = [[1.0, 1.0], [0.0, 1.0]]
    return SystemDescription(2, ExplicitSequence([eye, a1, a2]))


def test_identity_at_equal_times():
    sys_ = two_factor_system()
    op = evolution(sys_, 1, 1)
    assert np.allclose(op.to_dense(), np.eye(2))
    entry = make_example("ued_example")
    diag = evolution(entry.system, 5, 5).diag
    assert all(v == LogScalar.one() for v in diag)


def test_two_factor_product():
    op = evolution(two_factor_system(), 2, 0)
    assert np.allclose(op.to_dense(), [[2.0, 1.0], [0.0, 1.0]])


def test_quadratic_envelope_one_step():
    entry = make_example("ued_example")
    op = evolution(entry.system, 1, 0)
    assert op.diag[0].logmag == pytest.approx(-1.5)
    assert op.diag[1].logmag == pytest.approx(1.5)


def test_index_errors():
    sys_ = two_factor_system()
    with pytest.raises(IndexOrderError):
        evolution(sys_, 0, 1)
    with pytest.raises(OutOfRangeError):
        evolution(sys_, 5, 0)
    with pytest.raises(OutOfRangeError):
        evolution(sys_, 1, -1)


def test_compatibility_defect_zero_for_masked_diagonal():
    entry = make_example("ned_example")
    for n in range(0, 20):
        assert compatibility_defect(entry.system, entry.projection, n) == 0.0


def test_compatibility_defect_of_swap():
    eye = np.eye(2)
    swap = [[0.0, 1.0], [1.0, 0.0]]
    sys_ = SystemDescription(2, ExplicitSequence([eye, swap]))
    proj = ProjectionFamily(2, mask=(True, False))
    # A P - P A = [[0,-1],[1,0]], spectral norm 1
    assert compatibility_defect(sys_, proj, 0) == pytest.approx(1.0)


def test_projected_evolution_parts():
    entry = make_example("ued_example")
    p_part = projected_evolution(entry.system, entry.projection, 2, 0, "P")
    assert p_part.diag[0].logmag == pytest.approx(-4.0)
    assert p_part.diag[1].is_zero
    sed = make_example("sed_example")
    q_part = projected_evolution(sed.system, sed.projection, 1, 0, "Q")
    assert q_part.diag[0].is_zero
    # second coordinate factor c2 * e^{m+1} at (1, 0)
    assert lfloat(q_part.diag[1].logmag) == pytest.approx(math.log(sed.params["c2"]) + 2.0)
    at_rest = projected_evolution(entry.system, entry.projection, 3, 3, "Q")
    assert at_rest.diag[0].is_zero and at_rest.diag[1] == LogScalar.one()


def test_projected_evolution_rejects_incompatible():
    eye = np.eye(2)
    swap = [[0.0, 1.0], [1.0, 0.0]]
    sys_ = SystemDescription(2, ExplicitSequence([eye, swap, swap]))
    proj = ProjectionFamily(2, mask=(True, False))
    with pytest.raises(IncompatibleProjectionError):
        projected_evolution(sys_, proj, 2, 0, "P")


def test_restricted_extremes_quadratic():
    entry = make_example("ued_example")
    ext = restricted_extremes(entry.system, entry.projection, 2, 0)
    assert ext.growth_p.logmag == pytest.approx(-4.0)
    assert ext.min_gain_q.logmag == pytest.approx(4.0)
    assert ext.direction_p == (1.0, 0.0)
    assert ext.direction_q == (0.0, 1.0)
    rest = restricted_extremes(entry.system, entry.projection, 4, 4)
    assert rest.growth_p == LogScalar.one()
    assert rest.min_gain_q == LogScalar.one()


def test_restricted_extremes_dense():
    sys_ = two_factor_system()
    proj = ProjectionFamily(2, mask=(True, False))
    ext = restricted_extremes(sys_, proj, 2, 0)
    # evolution(2,0) e1 = (2, 0)
    assert ext.growth_p.to_float() == pytest.approx(2.0)


def test_degenerate_q_range():
    entry = make_example("ued_example")
    full = ProjectionFamily(2, mask=(True, True))
    ext = restricted_extremes(entry.system, full, 3, 1)
    assert ext.min_gain_q == LogScalar.positive_infinity()
    with pytest.raises(DegenerateRangeError):
        restricted_extremes(entry.system, full, 3, 1, strict=True)


def _random_commuting_pair(rng, dim, rank):
    """Block system conjugated by a random frame, plus the matching oblique
    projection; every coefficient commutes with it by construction."""
    while True:
        frame = rng.uniform(-1.0, 1.0, size=(dim, dim))
        if abs(np.linalg.det(frame)) > 0.3:
            break
    inv = np.linalg.inv(frame)
    proj = ProjectionFamily(dim, matrix=frame @ np.diag([1.0] * rank + [0.0] * (dim - rank)) @ inv)

    def coefficient():
        block = np.zeros((dim, dim))
        block[:rank, :rank] = rng.uniform(-1.2, 1.2, size=(rank, rank))
        block[rank:, rank:] = rng.uniform(-1.2, 1.2, size=(dim - rank, dim - rank))
        block[np.diag_indices(dim)] += np.sign(block.diagonal()) * 0.6 + 0.1
        return frame @ block @ inv

    return coefficient, proj


def test_parts_sum_to_whole_and_commute():
    rng = np.random.default_rng(7)
    for _ in range(5):
        dim = int(rng.integers(2, 5))
        rank = int(rng.integers(1, dim))
        coeff, proj = _random_commuting_pair(rng, dim, rank)
        sys_ = SystemDescription(dim, ExplicitSequence([coeff() for _ in range(9)]))
        for n in range(0, 8):
            assert compatibility_defect(sys_, proj, n) < 1e-9
        for (m, n) in [(3, 0), (5, 2), (8, 8)]:
            whole = evolution(sys_, m, n).to_dense()
            p_part = projected_evolution(sys_, proj, m, n, "P").to_dense()
            q_part = projected_evolution(sys_, proj, m, n, "Q").to_dense()
            assert np.allclose(p_part + q_part, whole, atol=1e-9 * max(1, np.linalg.norm(whole)))
            # commutation: A(m,n) P(n) = P(m) A(m,n) for compatible families
            assert np.allclose(whole @ proj.matrix(n), proj.matrix(m) @ whole, atol=1e-9)


def test_cocycle_property_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        mats = [np.eye(dim)] + [rng.uniform(-1.0, 1.0, size=(dim, dim)) for _ in range(12)]
        sys_ = SystemDescription(dim, ExplicitSequence(mats))
        for p, n, m in [(0, 3, 7), (1, 1, 9), (2, 5, 12), (0, 0, 0)]:
            left = evolution(sys_, m, n).to_dense() @ evolution(sys_, n, p).to_dense()
            right = evolution(sys_, m, p).to_dense()
            scale = max(1e-300, float(np.linalg.norm(right, 2)))
            assert np.linalg.norm(left - right, 2) / scale < 1e-9


def test_cocycle_property_diagonal_exact():
    entry = make_example("ned_not_ed_example")
    sys_ = entry.system
    for p, n, m in [(0, 2, 5), (1, 4, 9), (3, 3, 12)]:
        for i in range(sys_.dim):
            combined = smul(evolution(sys_, m, n).diag[i], evolution(sys_, n, p).diag[i])
            direct = evolution(sys_, m, p).diag[i]
            assert combined.sign == direct.sign
            assert lsub(combined.logmag, direct.logmag) == 0


def test_ratio_extremes_reduce_to_pair_at_equal_seed():
    entry = make_example("sed_example")
    rat = restricted_ratio_extremes(entry.system, entry.projection, 6, 3, 3)
    ext = restricted_extremes(entry.system, entry.projection, 6, 3)
    assert rat.ratio_p.logmag == ext.growth_p.logmag
    assert lsub(rat.ratio_q.logmag, -ext.min_gain_q.logmag) == 0


def test_ratio_extremes_dense_matches_brute_force():
    rng = np.random.default_rng(23)
    coeff, proj = _random_commuting_pair(rng, 3, 1)
    sys_ = SystemDescription(3, ExplicitSequence([coeff() for _ in range(8)]))
    m, n, p = 6, 4, 2
    rat = restricted_ratio_extremes(sys_, proj, m, n, p)
    evo_m = evolution(sys_, m, p).to_dense()
    evo_n = evolution(sys_, n, p).to_dense()
    best_p, best_q = 0.0, 0.0
    for _ in range(20_000):
        x = rng.normal(size=3)
        u = proj.matrix(p) @ x
        v = x - u
        if np.linalg.norm(evo_n @ u) > 1e-12:
            best_p = max(best_p, np.linalg.norm(evo_m @ u) / np.linalg.norm(evo_n @ u))
        if np.linalg.norm(evo_m @ v) > 1e-12:
            best_q = max(best_q, np.linalg.norm(evo_n @ v) / np.linalg.norm(evo_m @ v))
    assert rat.ratio_p.to_float() == pytest.approx(best_p, rel=1e-3)
    assert rat.ratio_q.to_float() == pytest.approx(best_q, rel=1e-3)
    assert rat.ratio_p.to_float() >= best_p * (1 - 1e-9)
    assert rat.ratio_q.to_float() >= best_q * (1 - 1e-9)


def test_diagonal_requires_mask_projection():
    entry = make_example("ued_example")
    dense_proj = ProjectionFamily(2, matrix=[[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InvalidProjectionError):
        restricted_extremes(entry.system, dense_proj, 2, 0)


def test_projection_validation():
    good = ProjectionFamily(2, matrix=[[1.0, 1.0], [0.0, 0.0]])  # oblique, idempotent
    good.validate(0, 5)
    bad = ProjectionFamily(2, matrix=[[1.0, 0.0], [0.0, 0.5]])
    with pytest.raises(InvalidProjectionError):
        bad.validate(0, 0)


def test_dense_products_detect_overflow():
    from dichotomy import DenseOverflowError

    big = np.diag([1e200, 1e-200])
    sys_ = SystemDescription(2, ExplicitSequence([np.eye(2), big, big]))
    with pytest.raises(DenseOverflowError):
        evolution(sys_, 2, 0)


def test_long_dense_products_do_not_recurse():
    # a rotation keeps every product finite; all 2500 steps are taken in one
    # forward loop
    c, s = math.cos(0.01), math.sin(0.01)
    sys_ = SystemDescription(2, ExplicitSequence([np.array([[c, -s], [s, c]])] * 2501))
    got = evolution(sys_, 2500, 0).to_dense()
    c, s = math.cos(25.0), math.sin(25.0)
    assert np.allclose(got, [[c, -s], [s, c]], atol=1e-9)
    # the product from 1 is the one from 0 without its first factor
    assert np.allclose(evolution(sys_, 2500, 1).to_dense(), got @ np.linalg.inv(
        np.array([[math.cos(0.01), -math.sin(0.01)], [math.sin(0.01), math.cos(0.01)]])
    ), atol=1e-9)


def test_empty_p_range_gives_zero_growth():
    entry = make_example("ued_example")
    nothing = ProjectionFamily(2, mask=(False, False))
    ext = restricted_extremes(entry.system, nothing, 3, 1)
    assert ext.growth_p.is_zero
    assert not ext.min_gain_q.is_zero


def test_diagonal_closed_form_with_zero_entry():
    coords = [
        lambda n: LogScalar.from_float(0.0 if n == 2 else 2.0),
        lambda n: LogScalar.from_float(3.0),
    ]
    sys_ = SystemDescription(2, DiagonalClosedForm(coords))
    assert evolution(sys_, 3, 0).diag[0].is_zero
    assert not evolution(sys_, 1, 0).diag[0].is_zero
