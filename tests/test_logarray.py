"""The log array against exact object arithmetic, entry by entry.

``LogArray`` takes float64 arrays (with ints marked) where every value is a
float or a small int, and object arrays otherwise; its arithmetic must give
each entry the value and the type that ``ladd``/``lsub``/``logaddexp_mag``
and numpy's object ``maximum`` give, in either form. The references are the
object-array ufuncs of ``oracles``; entries are compared through ``repr``,
which tells an int 0 from 0.0, -0.0 from 0.0 and a Fraction from a float.

The kernels decide the form of a scan per window, so a report on a window
must not depend on how far the prefix cache was extended before it.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import EXACT_ADD, EXACT_LOGADDEXP, EXACT_SUB, exact_segmented_max
from test_diagonal_scan import PROPERTY

from dichotomy import (
    DiagonalClosedForm,
    DichotomyCertificate,
    Kind,
    LogScalar,
    ProjectionFamily,
    SystemDescription,
    WindowSpec,
    estimate_ued,
    make_example,
    minimal_ned_profile,
    verify_certificate,
    verify_triplet_form,
)
from dichotomy import logarray
from dichotomy.logarray import LogArray
from dichotomy.logscalar import _FLOAT_SAFE, ladd
from dichotomy.serialize import (
    outcome_to_json,
    profile_series_to_json,
    uniform_estimate_to_json,
)

# values the float form holds: floats, and ints up to the bound
FLOATING = st.one_of(
    st.floats(allow_nan=False, width=64),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf]),
    st.integers(-3, 3),
    st.sampled_from([_FLOAT_SAFE, -_FLOAT_SAFE, _FLOAT_SAFE - 1, 2**15, -(2**15)]),
)
# and what only the object form holds
EXACT = st.one_of(
    FLOATING,
    st.sampled_from([_FLOAT_SAFE + 1, -_FLOAT_SAFE - 1, 2**70, -(2**70) + 1]),
    st.integers(-(2**80), 2**80),
    st.fractions(max_denominator=7),
    st.sampled_from([Fraction(1, 3), Fraction(-(2**70), 3)]),
)


@st.composite
def log_lists(draw, size):
    return draw(st.lists(draw(st.sampled_from([FLOATING, EXACT])), min_size=size,
                         max_size=size))


@st.composite
def operand_pairs(draw):
    """Two lists of one length, or a list and one number."""
    size = draw(st.integers(0, 7))
    a = draw(log_lists(size))
    b = draw(st.one_of(log_lists(size), st.builds(lambda v: [v], EXACT)))
    return a, b


def objects(values):
    return np.array(values, dtype=object)


def reprs(values) -> list[str]:
    return [repr(v) for v in np.asarray(values, dtype=object).ravel().tolist()]


def same(got: LogArray, want) -> bool:
    return reprs(got.tolist()) == reprs(want)


def reference(ufunc, a, b):
    """The object-array result, or None where the scalar function refuses
    (+inf meets -inf)."""
    try:
        return ufunc(objects(a), objects(b))
    except ValueError:
        return None


def as_operand(values):
    return LogArray(values) if len(values) != 1 else values[0]


def test_the_constructor_picks_the_form_by_one_rule():
    assert not LogArray([0.5, 0, _FLOAT_SAFE, -_FLOAT_SAFE]).exact
    assert LogArray([0.5, _FLOAT_SAFE + 1]).exact
    assert LogArray([0.5, Fraction(1, 2)]).exact
    assert not LogArray(np.arange(-3, 4)).exact
    assert LogArray(np.array([2**17])).exact
    assert same(LogArray([0, 0.0, -0.0]), [0, 0.0, -0.0])
    # a part of an object array takes the form of its own values
    mixed = LogArray([0, 1.5, 2**70])
    assert mixed.exact and not mixed.pick(slice(0, 2)).exact
    assert same(mixed.pick(slice(0, 2)), [0, 1.5])


@PROPERTY
@given(operand_pairs())
@example(([0, -0.0, 0.0], [0.0, 0, -0.0]))  # ties of an int with an equal float
@example(([-0.0, -0.0], [0, 0.0]))  # lsub of an int 0 from -0.0 is +0.0
@example(([_FLOAT_SAFE, 1.5], [1, 1]))  # an int sum that leaves the bound
@example(([-math.inf, 3], [5, -math.inf]))  # logaddexp passes the other operand
def test_arithmetic_matches_the_object_arrays(pair):
    a, b = pair
    x, y = LogArray(a), as_operand(b)
    with np.errstate(over="ignore"):
        for op, ufunc in ((logarray.add, EXACT_ADD), (logarray.sub, EXACT_SUB),
                          (logarray.logaddexp, EXACT_LOGADDEXP),
                          (logarray.maximum, np.maximum)):
            want = reference(ufunc, a, b)
            if want is not None:
                assert same(op(x, y), want), op.__name__
        cond = np.array([k % 3 != 1 for k in range(len(a))], dtype=bool)
        want = np.where(cond, objects(a), objects(b))
        assert same(logarray.where(cond, x, y), want)
        assert same(logarray.concatenate([x, LogArray(b)]), [*a, *b])
    # comparisons of the values are exact in either form
    if len(b) == len(a):
        assert (x.values >= LogArray(b).values).tolist() == [u >= v for u, v in zip(a, b)]


@PROPERTY
@given(st.integers(1, 9).flatmap(log_lists), st.data())
def test_running_passes_match_the_object_arrays(values, data):
    a = LogArray(values)
    # the object reference sums floats in Python, which can reach +inf and raise
    # the overflow flag that numpy reports after the loop, like the array form
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = EXACT_ADD.accumulate(objects(values))
        except ValueError:
            want = None
        if want is not None:
            assert same(logarray.accumulate(a), want)
    cuts = sorted(data.draw(st.sets(st.integers(1, len(values)), max_size=3)))
    bounds = [data.draw(st.integers(0, 1)), *[c for c in cuts if c > 1], len(values)]
    for reverse in (True, False):
        got = logarray.segmented_max(a, bounds, reverse)
        assert same(got, exact_segmented_max(values, bounds, reverse)), reverse


@PROPERTY
@given(st.integers(1, 9).flatmap(lambda size: st.lists(log_lists(size), min_size=1,
                                                       max_size=4)),
       st.sets(st.integers(2, 8), max_size=3), st.integers(0, 1))
@example([[0, 0.0, -0.0, 0], [0.0, -0.0, 0, 0.0]], set(), 0)  # int/float and signed-zero ties
@example([[-0.0, 0.0, -0.0], [1.5, 1, 1.5]], {2}, 0)
def test_segmented_max_takes_each_row_on_its_own(table, cuts, start):
    size = len(table[0])
    bounds = [start, *sorted(c for c in cuts if c < size), size]
    for reverse in (True, False):
        got = logarray.segmented_max(LogArray(table), bounds, reverse)
        rows = [logarray.segmented_max(LogArray(row), bounds, reverse).tolist() for row in table]
        assert reprs(got.tolist()) == reprs(rows), reverse


# -- history independence ------------------------------------------------------------


def turning_system() -> SystemDescription:
    """Two coordinates whose factor logs are floats up to index 20 and
    ladd(float, 2**17), a Fraction, from there on."""
    def coord(log):
        return lambda n: LogScalar.from_log(log if n < 20 else ladd(log, 2**17 * (-1) ** n))

    return SystemDescription(2, DiagonalClosedForm([coord(-0.75), coord(0.5)]))


def reports(sys_, proj, cert, window) -> list[str]:
    half = WindowSpec(window.n_min, window.m_max, triplet=True)
    return [
        json.dumps(outcome_to_json(verify_certificate(sys_, proj, cert, window))),
        json.dumps(outcome_to_json(verify_triplet_form(sys_, proj, cert, half))),
        json.dumps(uniform_estimate_to_json(estimate_ued(sys_, proj, window, [0.1, 0.25]))),
        json.dumps(profile_series_to_json(minimal_ned_profile(sys_, proj, 0.25, window))),
    ]


@pytest.mark.parametrize("build, cert, window, extend", [
    (turning_system, DichotomyCertificate(Kind.UED, alpha=0.25, n_const=2.0),
     WindowSpec(0, 12), 60),
    (turning_system, DichotomyCertificate(Kind.UED, alpha=0.25, n_const=2.0),
     WindowSpec(3, 15), 40),
    # past n = 2**16 the sed factors are Fractions
    (lambda: make_example("sed_example").system,
     DichotomyCertificate(Kind.SED, alpha=2.0, n_const=math.e, beta=1.0),
     WindowSpec(0, 40), _FLOAT_SAFE + 100),
])
def test_reports_do_not_depend_on_how_far_the_cache_reaches(build, cert, window, extend):
    proj = ProjectionFamily(2, mask=(True, False))
    fresh = reports(build(), proj, cert, window)
    extended = build()
    pre, _ = extended.diag_prefix(extend)
    assert pre[0].exact and not pre[0].pick(slice(0, window.m_max + 1)).exact
    assert reports(extended, proj, cert, window) == fresh
