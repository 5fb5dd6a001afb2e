"""Trajectory tables and Datko sums against the loops they replaced.

The diagonal kernel gives a whole table of trajectory log-norms in one call,
the witness families read every pair of a family from it, and the Datko
verifiers take each weighted sum as one running ``logaddexp`` along a row
and check every point of a side in one array pass. The references in
``oracles`` are the per-element loops: one coordinate and one index at a
time, one term at a time, one point at a time. Values and Python types must
agree exactly (``same``), because a report prints an int 0 and a float 0.0
differently. The diagonal Datko pass, one point per index, is compared with
the table of every point, which only dense systems take outside the tests
(``test_datko.table_pass``).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    _slack,
    diagonal_lognorms,
    prefix_weighted,
    side_reports_loop,
    suffix_weighted,
)
from test_datko import table_pass
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
from dichotomy import _datko_diagonal, datko
from dichotomy.checkers import _family_norms
from dichotomy.cli import main
from dichotomy.logarray import LogArray
from dichotomy.config import parse_system_file
from dichotomy.logscalar import _FLOAT_SAFE, logaddexp_mag, rounding_scale
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
        sums = datko.weighted_sums(table, d, reverse)
        for k, row in enumerate(sums.tolist()):
            start = seeds[k % len(seeds)] - lo
            want = loop(trajs[k][start:], d)
            # exact tables bit for bit; float ones within the shifts' rounding
            if table.exact:
                assert all(same(a, b) for a, b in zip(row[start:], want)), (k, reverse)
            else:
                assert all(close(a, b, d, len(row)) for a, b in zip(row[start:], want)), (
                    k, reverse)
            # the running sum from the seed, as the diagonal pass takes it
            shifted = datko.weighted_sums(LogArray(trajs[k][start:]), d, reverse)
            assert all(close(a, b, d, len(want)) for a, b in zip(shifted.tolist(), want)), (
                k, reverse)


def close(a, b, d, length) -> bool:
    """Two floats within 2^-44 times their rounding scale, that of the
    shifts d t and of the values; an exact log (or -inf) equal, type for
    type."""
    if type(a) is not float or type(b) is not float or not math.isfinite(a + b):
        return same(a, b)
    scale = 1 + abs(d) * (length + 1) + max(rounding_scale(a), rounding_scale(b))
    return abs(a - b) <= 2.0**-44 * scale


def loop_trajectories(sys_, proj, part, window, upto):
    """``datko._trajectories`` through the per-element loop, as an object table."""
    kernel = _sweeps(sys_, proj, window.n_min, upto)
    directions = kernel.seed_directions(part, window.n_min)
    at = list(range(window.n_min, upto + 1))
    rows = [diagonal_lognorms(kernel, np.array(x)[:, None], s, at)[0]
            for x in directions for s in range(window.n_min, window.m_max + 1)]
    return directions, LogArray(np.array(rows, dtype=object).reshape(len(rows), len(at)))


def loop_sums(table, d, reverse):
    """``datko.weighted_sums`` of a table's rows through the term-by-term loops."""
    loop = suffix_weighted if reverse else prefix_weighted
    rows = [loop(row, d) for row in table.tolist()]
    return LogArray(np.array(rows, dtype=object).reshape(table.values.shape))


def datko_run(case, data):
    """A verifier run on the case's system, with its mask at n_min (or all
    of one side), a drawn form, d, window and tail certificate (or none),
    truncated at the case's m_max; and the d, window and truncation."""
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
    return run, d, window, m_trunc


@PROPERTY
@given(diagonal_cases(), st.data())
def test_datko_reports_match_the_loop_reference(case, data):
    # the array pass over the diagonal pass's points, against the loops;
    # then the table of every point, against the loops
    run = datko_run(case, data)[0]
    got = repr(run())
    with table_pass() as patch:
        patch.setattr(datko, "weighted_sums", loop_sums)
        got_table = repr(run())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datko, "_side_reports", side_reports_loop)
        assert got == repr(run())
    with table_pass() as patch:
        patch.setattr(datko, "_side_reports", side_reports_loop)
        patch.setattr(datko, "_trajectories", loop_trajectories)
        patch.setattr(datko, "weighted_sums", loop_sums)
        want = repr(run())
    assert got_table == want


@PROPERTY
@given(diagonal_cases(), st.data())
def test_diagonal_reports_name_the_first_tied_seed(case, data):
    # the P slack of index j is the same at every live seed, so a report
    # names j's first live seed: n_min or the index of a zero factor, with no
    # zero factor in (seed, j]; the Q slack is least at n_min
    run, _, window, _ = datko_run(case, data)
    sys_ = case[1]
    for report in run():
        j, seed = report.worst[0], report.worst[2]
        if report.side == "Q":
            assert seed == window.n_min, report
            continue
        i = int(np.flatnonzero(report.direction)[0])
        assert not sys_.diag_factor(i, j, seed).is_zero, report
        assert seed == window.n_min or sys_.diag_factor(i, seed, seed - 1).is_zero, report


# coordinate 0 has a zero factor at every even index after 0
PARITY_ZEROS = """[system]
dim = 2
source = diagonal
coord0 = parity: even=0, odd=0.5
coord1 = const: value=2

[projection]
mask = 1,0
"""


def parity_cases():
    return st.builds(
        lambda n_min, w, mask: ("float", parse_system_file(PARITY_ZEROS)[0],
                                ProjectionFamily(2, mask=mask), WindowSpec(n_min, n_min + w), 0.8),
        st.integers(0, 3), st.integers(0, 11), st.sampled_from([(True, False), (False, True)]))


@settings(PROPERTY, derandomize=True)
@given(st.one_of(diagonal_cases(), parity_cases()), st.data())
def test_diagonal_datko_pass_matches_the_table_pass(case, data):
    # one point per index at its first live seed against every point: the
    # same verdicts, counts and tail ratios within rounding; the same worst
    # triple with the same values within rounding (exact logs equal, type
    # for type), or a worst triple of the table whose slack ties with it
    # within rounding, where the slacks of two seeds of one index (P), or of
    # two indices, are equal in exact arithmetic
    run, d, window, m_trunc = datko_run(case, data)
    got = run()
    with table_pass():
        want = run()
    pre, _ = case[1].diag_prefix(m_trunc)
    scale = (1 + abs(d) * (m_trunc + 1) + max(p.rounding_scale() for p in pre)
             + max(_rounding(r) for r in got + want))
    bound = 2.0**-44 * scale
    assert [r.side for r in got] == [r.side for r in want]
    for g, w in zip(got, want):
        assert (g.direction, g.verdict, g.checked) == (w.direction, w.verdict, w.checked)
        assert g.max_tail_rhs_log == pytest.approx(w.max_tail_rhs_log, rel=0, abs=bound)
        assert _tracked(g) == pytest.approx(_tracked(w), rel=0, abs=bound), (g, w)
        if g.worst == w.worst:
            for field in ("lhs_p_sum", "lhs_q_sum", "tail_bound", "rhs"):
                a, b = getattr(g, field), getattr(w, field)
                assert a.sign == b.sign and close(a.logmag, b.logmag, 0.0, 0), (field, g, w)


def _sums(report):
    return report.lhs_p_sum if report.side == "P" else report.lhs_q_sum


def _tracked(report) -> float:
    """The slack that picks the worst point, from a report's fields."""
    rhs, lhs, tail = report.rhs.logmag, _sums(report).logmag, report.tail_bound.logmag
    total = _slack(rhs, logaddexp_mag(lhs, tail) if tail != math.inf else math.inf)
    return total if math.isfinite(total) else _slack(rhs, lhs)


def _rounding(report) -> float:
    return max(rounding_scale(v.logmag) for v in (report.rhs, _sums(report), report.tail_bound))


@pytest.mark.parametrize("exact", [False, True])
def test_stretch_sums_match_each_stretch_on_its_own(exact):
    # stretches of every length from 1 to 9 and one of 40, padded into tables
    # by powers of two: each stretch's sums are its own, bit for bit
    rng = np.random.default_rng(5)
    lengths = [1, 2, 3, 4, 5, 7, 8, 9, 40, 1, 6]
    bounds = np.concatenate([[0], np.cumsum(lengths)]).tolist()
    values = rng.normal(0, 3, bounds[-1]).tolist()
    values[3] = values[20] = -math.inf  # dead terms inside stretches
    if exact:
        values[5] = 2**70  # an int beyond the float-safe range: the object form
    a = LogArray(values)
    assert a.exact == exact
    for d, reverse in ((0.0, True), (0.3, True), (0.3, False)):
        got = _datko_diagonal.stretch_sums(a, bounds, d, reverse).tolist()
        want = [v for s, e in zip(bounds, bounds[1:])
                for v in _datko_diagonal.weighted_sums(a[s:e], d, reverse).tolist()]
        assert all(same(x, y) for x, y in zip(got, want)) and len(got) == len(want)


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
    # d = 1e308 overflows the shift d t of the weighted sums: the command
    # rejects it with exit status 2 and its one error line, and numpy must
    # not warn
    report = tmp_path / "report.json"
    rc = main(["datko", "--gallery", "ued_example", "--form", "ued", "--D", "4",
               "--d", "1e308", "--window", "0..3", "--m-trunc", "10", "--report", str(report)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: InvalidConstantsError: need d * (m_trunc + 1) a finite double, got d=1e+308\n")
    assert json.loads(report.read_text())["error"]["type"] == "InvalidConstantsError"
