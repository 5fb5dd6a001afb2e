"""The array build of the diagonal prefix sums against the per-factor loop.

``SystemDescription._ensure_prefix`` extends each coordinate's prefix
log-sums, negative-factor counts and zero-factor counts one range call and
one array pass at a time. ``oracles.prefix_loop`` is the loop it replaced:
one ``LogScalar`` and one ``ladd`` per factor. Both must give the same
values with the same Python types (compared through ``repr``, which tells
``int`` 0 from ``0.0``, a ``Fraction`` from a float and -0.0 from 0.0),
whatever stretches the cache is extended by, and the same
``LogOverflowError``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dichotomy import LogScalar, SystemDescription, make_example
from dichotomy.config import parse_system_file
from dichotomy.errors import LogOverflowError
from dichotomy.logscalar import _FLOAT_SAFE
from dichotomy.system import DiagonalClosedForm
from oracles import prefix_loop


def built_in_steps(sys_, stops):
    """The prefix caches after extending them to each of ``stops`` in turn."""
    for upto in stops:
        pre, zeros = sys_.diag_prefix(upto)
        assert min(map(len, pre)) > upto and min(map(len, zeros)) > upto
    return [
        (sys_._prefix_mag[i].tolist(), sys_._prefix_neg[i].tolist(),
         sys_._prefix_zero[i].tolist())
        for i in range(sys_.dim)
    ]


def assert_same(got, want, upto):
    for (mags, negs, zeros), (w_mags, w_negs, w_zeros) in zip(got, want):
        assert list(map(repr, mags[:upto + 1])) == list(map(repr, w_mags))
        assert negs[:upto + 1] == w_negs and zeros[:upto + 1] == w_zeros
        assert all(type(c) is int for c in negs + zeros)
        assert repr(mags[0]) == "0"


# a factor: zero, or a sign and a float, int, Fraction or big-int log
factors = st.one_of(
    st.just(LogScalar.zero()),
    st.builds(
        LogScalar,
        st.sampled_from([1, -1]),
        st.one_of(
            st.floats(-4.0, 4.0, allow_nan=False),
            st.integers(-4, 4),
            st.builds(Fraction, st.integers(-64, 64), st.just(16)),
            st.integers(-(2**40), 2**40),
        ),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(factors, min_size=13, max_size=13), min_size=1, max_size=3),
    st.lists(st.integers(0, 12), max_size=4),
)
def test_array_prefix_matches_the_factor_loop(table, stops):
    """Per-index coordinates mixing zero, negative, float, int, Fraction and
    big-int factors, extended in arbitrary stretches (a repeated or smaller
    stop extends nothing)."""
    sys_ = SystemDescription(
        len(table), DiagonalClosedForm([(lambda c: (lambda n: c[n]))(c) for c in table])
    )
    got = built_in_steps(sys_, [*stops, 12])
    assert_same(got, prefix_loop(sys_, 12), 12)


@pytest.mark.parametrize("name, stops", [
    ("ued_example", [7, 300]),
    ("ned_example", [1, 2, 5001]),
    ("ed_example", [40, 2000]),
    # past n = 2^16 the sed factors become Fractions; the second stretch mixes
    # float and Fraction factors
    ("sed_example", [_FLOAT_SAFE - 6, _FLOAT_SAFE + 40]),
    ("ned_not_ed_example", [3, 12, 13, 60]),
])
def test_gallery_prefix_matches_the_factor_loop(name, stops):
    sys_ = make_example(name).system
    assert_same(built_in_steps(sys_, stops), prefix_loop(sys_, stops[-1]), stops[-1])


def diagonal_file(*forms):
    coords = "\n".join(f"coord{i} = {form}" for i, form in enumerate(forms))
    return parse_system_file(
        f"[system]\nsource = diagonal\ndim = {len(forms)}\n{coords}\n"
        f"[projection]\nmask = {','.join(['1'] + ['0'] * (len(forms) - 1))}\n"
    )[0]


@pytest.mark.parametrize("stops", [[30], [0, 1, 2, 30], [9, 10, 30]])
def test_config_forms_match_the_factor_loop(stops):
    """Zero and negative factors: a zero even factor, a negative constant and
    a zero constant keep the log-sums, and the counts, of the loop."""
    sys_ = diagonal_file(
        "parity: even=0, odd=-2",
        "const: value=-0.5",
        "const: value=0",
        "linear_exponent: sigma=-1, tau=0.25",
        "parity: even=3, odd=1/4",
    )
    assert_same(built_in_steps(sys_, stops), prefix_loop(sys_, 30), 30)


@pytest.mark.parametrize("form, stops", [
    ("linear_exponent: sigma=1e308, tau=1e308", [5]),
    # the factors are finite; their running sum overflows at k = 6
    ("linear_exponent: sigma=1e307, tau=0", [3, 10]),
    ("linear_exponent: sigma=-1e307, tau=0", [2, 4, 10]),
])
def test_overflow_names_the_first_index(form, stops):
    sys_ = diagonal_file("const: value=1", form)
    with pytest.raises(LogOverflowError) as want:
        prefix_loop(sys_, stops[-1])
    *before, last = stops
    for upto in before:
        sys_.diag_prefix(upto)
    for _ in range(2):  # the cache is not extended past the overflow
        with pytest.raises(LogOverflowError) as got:
            sys_.diag_prefix(last)
        assert str(got.value) == str(want.value)
