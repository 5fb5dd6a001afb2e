"""Trajectory tables and Datko sums against the loops they replaced.

The diagonal kernel gives a whole table of trajectory log-norms in one call,
the witness families read every pair of a family from it, and the Datko
verifiers accumulate their weighted sums for all seeds in lockstep and check
every point of a side in one array pass. The references in ``oracles`` are
the per-element loops: one coordinate and one index at a time, one term at a
time, one point at a time. Values and Python types must agree
exactly (``same``), because a report prints an int 0 and a float 0.0
differently.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import diagonal_lognorms, prefix_weighted, side_reports_loop, suffix_weighted
from test_diagonal_scan import PROPERTY, diagonal_cases, same

from dichotomy import (
    ConstantProfile,
    DichotomyCertificate,
    Kind,
    LogScalar,
    ProjectionFamily,
    TabulatedProfile,
    WindowSpec,
    verify_datko_ed,
    verify_datko_ned,
    verify_datko_ued,
)
from dichotomy import datko, logarray
from dichotomy.checkers import _family_norms
from dichotomy.cli import main
from dichotomy.logarray import LogArray
from dichotomy.logscalar import _FLOAT_SAFE, logaddexp_mag
from dichotomy.system import _sweeps

ENTRIES = st.sampled_from([0.0, 1.0, -1.0, 0.5, -3.25])


def vectors(dim):
    return st.lists(st.tuples(*[ENTRIES] * dim), min_size=1, max_size=4)


def read_entries(sys_, coords, indices):
    pre, _ = sys_.diag_prefix(max(indices))
    return [v for i in coords for v in (pre[i].item(k) for k in indices)]


def within(bound):
    return lambda v: isinstance(v, float) or (isinstance(v, int) and abs(v) <= bound)


@PROPERTY
@given(diagonal_cases(), st.data())
def test_trajectory_table_matches_the_loop(case, data):
    _, sys_, proj, window, _ = case
    lo, hi, dim = window.n_min, window.m_max, sys_.dim
    kernel = _sweeps(sys_, proj, lo, hi)
    xs = data.draw(vectors(dim))
    seeds = data.draw(st.lists(st.integers(lo, hi), min_size=len(xs), max_size=len(xs)))
    at = np.arange(lo, hi + 1)  # every horizon, those before the seed included
    table = kernel.trajectories("P", xs, seeds, at)
    for x, seed, row in zip(xs, seeds, table.tolist()):
        want = diagonal_lognorms(kernel, np.array(x)[:, None], seed, at.tolist())[0]
        assert all(same(a, b) for a, b in zip(row, want)), (x, seed)
        assert row[:seed - lo] == [-math.inf] * (seed - lo)
    coords = [i for i in range(dim) if any(x[i] for x in xs)]
    read = read_entries(sys_, coords, sorted(set(seeds) | set(at.tolist())))
    # differences of ints within 2**15 stay within _FLOAT_SAFE: the float form
    if all(map(within(_FLOAT_SAFE // 2), read)):
        assert not table.exact
    # an entry that the float form cannot hold: the object form
    if not all(map(within(_FLOAT_SAFE), read)):
        assert table.exact


@PROPERTY
@given(diagonal_cases(), st.data())
def test_pair_batch_matches_the_loop(case, data):
    _, sys_, proj, window, _ = case
    lo, hi, dim = window.n_min, window.m_max, sys_.dim
    if data.draw(st.booleans()):
        proj = ProjectionFamily(dim, mask=proj.mask(lo))  # the fixed-projection path
    starts = st.integers(lo, hi)
    pairs = data.draw(st.lists(
        starts.flatmap(lambda n: st.tuples(st.integers(n, hi), st.just(n))), min_size=1,
        max_size=8))
    x = data.draw(vectors(dim))[0]
    p_norms, q_norms = _family_norms(sys_, proj, pairs, x)
    for (m, n), (px, ap), (qx, aq) in zip(pairs, p_norms.tolist(), q_norms.tolist()):
        got = ap, qx, px, aq
        kernel = _sweeps(sys_, proj, n, m)
        want = []
        for part in proj.split(n, x):
            want.append(diagonal_lognorms(kernel, part[:, None], n, [n, m])[0])
        (px, ap), (qx, aq) = want
        assert all(same(a, b) for a, b in zip(got, (ap, qx, px, aq))), (m, n)


@PROPERTY
@given(diagonal_cases(), st.data())
def test_lockstep_sums_match_the_loops(case, data):
    _, sys_, proj, window, _ = case
    lo, hi, dim = window.n_min, window.m_max, sys_.dim
    d = data.draw(st.one_of(st.just(0.0), st.floats(0.01, 3.0)))
    kernel = _sweeps(sys_, proj, lo, hi)
    xs = data.draw(vectors(dim))
    seeds = list(range(lo, hi + 1))
    rows = [x for x in xs for _ in seeds]
    table = kernel.trajectories("P", rows, seeds * len(xs), np.arange(lo, hi + 1))
    trajs = table.tolist()
    for reverse, loop in ((True, suffix_weighted), (False, prefix_weighted)):
        sums = datko._weighted_sums(table, d, reverse)
        for k, row in enumerate(sums.tolist()):
            start = seeds[k % len(seeds)] - lo
            want = loop(trajs[k][start:], d)
            assert all(same(a, b) for a, b in zip(row[start:], want)), (k, reverse)
        if not table.exact:
            # the float form repeats the exact arithmetic bit for bit
            exact = datko._weighted_sums(logarray.concatenate([table.objects()]), d, reverse)
            assert sums.values.tobytes() == exact.values.astype(float).tobytes()


def loop_trajectories(sys_, proj, part, window, upto):
    """``datko._trajectories`` through the per-element loop, as an object table."""
    kernel = _sweeps(sys_, proj, window.n_min, upto)
    directions = kernel.seed_directions(part, window.n_min)
    at = list(range(window.n_min, upto + 1))
    rows = [diagonal_lognorms(kernel, np.array(x)[:, None], s, at)[0]
            for x in directions for s in range(window.n_min, window.m_max + 1)]
    return directions, LogArray(np.array(rows, dtype=object).reshape(len(rows), len(at)))


def loop_sums(table, d, reverse):
    """``datko._weighted_sums`` through the term-by-term loops."""
    loop = suffix_weighted if reverse else prefix_weighted
    rows = [loop(row, d) for row in table.tolist()]
    return LogArray(np.array(rows, dtype=object).reshape(table.values.shape))


@PROPERTY
@given(diagonal_cases(), st.data())
def test_datko_reports_match_the_loop_reference(case, data):
    _, sys_, proj, window, alpha = case
    mask = data.draw(st.sampled_from(["case", "P only", "Q only"]))
    if mask == "case":
        proj = ProjectionFamily(sys_.dim, mask=proj.mask(window.n_min))
    else:
        proj = ProjectionFamily(sys_.dim, mask=(mask == "P only",) * sys_.dim)
    # the case's factors end at m_max: truncate there, scan up to it
    m_trunc = window.m_max
    window = WindowSpec(window.n_min, data.draw(st.integers(window.n_min, m_trunc)))
    form = data.draw(st.sampled_from(["ued", "ed", "ned"]))
    d = data.draw(st.just(0.0) if form == "ued" else st.floats(0.01, 1.0))
    if data.draw(st.booleans()):
        d = min(d, alpha / 2)
        cert = DichotomyCertificate(Kind.UED, alpha=alpha, n_const=2.0)
    else:
        cert = None
    if form == "ued":
        def run():
            return verify_datko_ued(sys_, proj, d, 4.0, window, m_trunc, cert=cert)
    elif form == "ed":
        def run():
            return verify_datko_ed(sys_, proj, d, 0.25, 2.0, window, m_trunc, cert=cert)
    else:
        # a float weight, or int weights that send float tables to exact arithmetic
        profile = data.draw(st.sampled_from([
            ConstantProfile(3.0),
            TabulatedProfile(0, tuple(LogScalar.from_log(k) for k in range(m_trunc + 1))),
        ]))

        def run():
            return verify_datko_ned(sys_, proj, d, profile, window, m_trunc, cert=cert)
    got = repr(run())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datko, "_trajectories", loop_trajectories)
        patch.setattr(datko, "_weighted_sums", loop_sums)
        patch.setattr(datko, "_side_reports", side_reports_loop)
        want = repr(run())
    assert got == want


def test_numpy_logaddexp_matches_logaddexp_mag():
    rng = np.random.default_rng(8)
    a = np.concatenate([rng.normal(0, 10, 20000), rng.normal(0, 1e6, 5000),
                        [0.0, -math.inf, math.inf, 1.5, -math.inf, 700.0]])
    b = np.concatenate([a[:20000] + rng.normal(0, 1, 20000), rng.normal(0, 1e6, 5000),
                        [0.0, -math.inf, math.inf, 1.5, 3.0, -math.inf]])
    b[:500] = a[:500]  # equal pairs
    want = np.array([logaddexp_mag(x, y) for x, y in zip(a.tolist(), b.tolist())])
    assert np.logaddexp(a, b).tobytes() == want.tobytes()


def test_datko_overflowing_weight_is_quiet(tmp_path, capsys):
    # d = 1e308 overflows the weighted sums to +inf; numpy must not warn
    report = tmp_path / "report.json"
    rc = main(["datko", "--gallery", "ued_example", "--form", "ued", "--D", "4",
               "--d", "1e308", "--window", "0..3", "--m-trunc", "10", "--report", str(report)])
    assert rc == 1
    assert capsys.readouterr().err == ""
    assert '"verdict": "violated"' in report.read_text()
