import math

import pytest

from dichotomy import ConfigError, Kind
from dichotomy.config import (
    parse_certificate_spec,
    parse_number,
    parse_profile_spec,
    parse_system_file,
    parse_window,
)


def test_number_grammar():
    # every documented spelling, to the bit
    assert parse_number("0.5") == 0.5
    assert parse_number("-2") == -2.0
    assert parse_number("1e-3") == 0.001
    assert parse_number("1/2") == 0.5
    assert parse_number("-3/2") == -1.5
    assert parse_number("e^1") == math.exp(1)
    assert parse_number("e^-4") == math.exp(-4)
    assert parse_number("e^{-3/2}") == math.exp(-1.5)
    assert parse_number("e^0.25") == math.exp(0.25)
    assert parse_number("  0.5 ") == 0.5
    assert parse_number(" 1 / 2 ") == 0.5
    assert parse_number(" e^ { -3/2 } ") == math.exp(-1.5)
    # junk, a zero denominator and an overflowing exponential are errors
    for bad in ("two", "e^wat", "", "1/2/3", "1/0", "e^1000"):
        with pytest.raises(ConfigError):
            parse_number(bad)


def test_window_grammar():
    w = parse_window("3..17")
    assert (w.n_min, w.m_max) == (3, 17)
    for bad in ("5..3", "-1..4", "1..2..3", "x..y"):
        with pytest.raises(ConfigError):
            parse_window(bad)


def test_certificate_grammar():
    cert = parse_certificate_spec("UED:N=1,alpha=0.5")
    assert cert.kind is Kind.UED and cert.n_const == 1.0 and cert.alpha == 0.5
    cert = parse_certificate_spec("sed:N=e^1,alpha=2,beta=1")
    assert cert.kind is Kind.SED and cert.n_const == pytest.approx(math.e)
    cert = parse_certificate_spec("NED:alpha=1/2,profile=power:2:1")
    assert cert.kind is Kind.NED
    assert cert.profile.log_at(0) == pytest.approx(math.log(2.0))
    with pytest.raises(ConfigError):
        parse_certificate_spec("XYZ:alpha=1")
    with pytest.raises(ConfigError):
        parse_certificate_spec("UED:alpha=1,bogus=2")
    with pytest.raises(ConfigError):
        parse_certificate_spec("NED:alpha=1")  # profile required


def test_profile_grammar():
    assert parse_profile_spec("const:3").log_at(9) == pytest.approx(math.log(3.0))
    assert parse_profile_spec("tower").log_at(1) == 2 * (1 + 4)
    with pytest.raises(ConfigError):
        parse_profile_spec("power:2")  # needs both shift and power


def system_file(system: str, projection: str = "mask = 1,0") -> str:
    return f"[system]\n{system}\n\n[projection]\n{projection}\n"


DIAGONAL = "dim = 2\nsource = diagonal\ncoord0 = const: value=0.5\ncoord1 = const: value=2"
EXPLICIT = "dim = 2\nsource = explicit\nA0 = 1,0; 0,1\nA1 = 2,0; 0,3"

# files that parse at no index: each would crash or drop a line without a check
MALFORMED_FILES = [
    system_file(DIAGONAL, "mask = 1,0\nmask@abc = 0,1"),
    system_file(EXPLICIT, "matrix = 1,0; 0,0\nmatrix@x = 0,0; 0,1"),
    system_file(DIAGONAL, "mask = 1,0\nmatrix@3 = 0,0; 0,1"),
    system_file(EXPLICIT, "matrix = 1,0; 0,0\nmask@1 = 0,1"),
    system_file(DIAGONAL.replace("dim = 2", "dim = 0")),
    system_file(DIAGONAL.replace("dim = 2", "dim = -1")),
    system_file(DIAGONAL + "\ncoord5 = const: value=1"),
    system_file(DIAGONAL.replace("value=0.5", "value=nan")),
    system_file(DIAGONAL.replace("const: value=0.5", "parity: even=inf, odd=1")),
    system_file(DIAGONAL.replace("const: value=0.5", "linear_exponent: sigma=nan")),
]


def test_system_file_requires_sections():
    with pytest.raises(ConfigError):
        parse_system_file("dim = 2\n")
    with pytest.raises(ConfigError):
        parse_system_file("[system]\nsource = explicit\ndim = 2\nA0 = 1,0; 0,1\n")
    with pytest.raises(ConfigError):
        parse_system_file(
            "[system]\nsource = explicit\ndim = 2\nA0 = 1,0; 0,1\nA2 = 1,0; 0,1\n"
            "[projection]\nmask = 1,0\n"
        )  # gap at A1
    for text in MALFORMED_FILES:
        with pytest.raises(ConfigError):
            parse_system_file(text)


def test_system_file_mask_overrides():
    system, projection, entry = parse_system_file(
        """
[system]
dim = 2
source = diagonal
coord0 = const: value=0.5
coord1 = const: value=2

[projection]
mask = 1,0
mask@3 = 0,1
"""
    )
    assert entry is None
    assert projection.mask(0) == (True, False)
    assert projection.mask(3) == (False, True)
    assert system.is_diagonal


def test_gallery_file_params_override():
    _, _, entry = parse_system_file(
        """
[system]
source = gallery
name = ned_example
b = 1/4
"""
    )
    assert entry.params["b"] == 0.25
    assert entry.params["c"] == 1.0
