"""Built-in two-coordinate diagonal systems with closed-form product tables.

Each entry pairs a diagonal system with the constant projection onto the
first coordinate and carries executable claims: certificates expected to
verify, witness schedules expected to diverge, or grid instability expected
under the strong admissibility gate. The shared scalar sequence a_n of each
entry has a parity-based closed form for the running product
a_{mn} = a_{n+1} * ... * a_m, used as an independent oracle against the
evolution machinery.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .certificates import (
    DichotomyCertificate,
    Kind,
    ShiftedPowerProfile,
    TowerExponentProfile,
)
from .checkers import ALPHA_POINTS, BETA_POINTS, WitnessSchedule
from .errors import IndexOrderError, ParamOutOfRangeError, UnknownExampleError
from .logarray import LogArray, add
from .logscalar import LogMag, LogScalar
from .system import DiagonalClosedForm, ProjectionFamily, SystemDescription, positive_factors

FIRST_COORDINATE = (True, False)


@dataclass(frozen=True)
class CertificateClaim:
    """This certificate is expected to verify on the default window."""

    cert: DichotomyCertificate
    window_m_max: int


@dataclass(frozen=True)
class FalsificationClaim:
    """This witness schedule is expected to report a divergent constant."""

    concept: Kind
    schedule: str
    k_max: int
    alpha: float
    beta: float | None = None


@dataclass(frozen=True)
class StrongInstabilityClaim:
    """Every strong grid pair (beta < alpha) is expected to be unstable."""

    window_m_max: int
    alpha_points: int = ALPHA_POINTS
    beta_points: int = BETA_POINTS


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    params: dict[str, float]
    system: SystemDescription
    projection: ProjectionFamily
    claims: tuple
    schedules: dict[str, WitnessSchedule] = field(default_factory=dict)
    description: str = ""
    verify_m_max: int = 200

    def schedule(self, name: str) -> WitnessSchedule:
        if name not in self.schedules:
            raise UnknownExampleError(f"{self.name} has no schedule {name!r}")
        return self.schedules[name]


@dataclass(frozen=True)
class _Example:
    """One gallery entry: default parameters, log a_n on lo..hi, log a_{mn}
    for m > n, ``build(name, params)``, which returns the GalleryEntry
    fields that differ between entries, and ``check(name, params)``, which
    raises ParamOutOfRangeError for parameters outside the entry's range."""

    defaults: dict[str, float]
    raw: Callable[[Mapping, int, int], np.ndarray]
    closed: Callable[[Mapping, int, int], LogMag]
    build: Callable[[str, dict], dict]
    check: Callable[[str, dict], None] = lambda name, params: None


def gallery_names() -> tuple[str, ...]:
    return tuple(_EXAMPLES)


def _resolve_params(name, params: Mapping | None, kw) -> tuple[_Example, dict]:
    """The entry's table record and its defaults merged with the overrides,
    checked against the entry's range."""
    try:
        example = _EXAMPLES[name]
    except KeyError:
        known = ", ".join(_EXAMPLES)
        raise UnknownExampleError(f"unknown example {name!r}; known: {known}") from None
    merged = dict(example.defaults)
    for key, value in {**(params or {}), **kw}.items():
        if key not in example.defaults:
            raise ParamOutOfRangeError(f"{name} has no parameter {key!r}")
        if value is not None:
            merged[key] = float(value)
            if not math.isfinite(merged[key]):
                raise ParamOutOfRangeError(f"{name} parameter {key} must be finite, got {value}")
    example.check(name, merged)
    return example, merged


def make_example(name: str, params: Mapping | None = None, **kw) -> GalleryEntry:
    """Construct a built-in example by name, with optional parameter overrides."""
    example, merged = _resolve_params(name, params, kw)
    return GalleryEntry(
        name=name,
        params=merged,
        projection=ProjectionFamily(2, mask=FIRST_COORDINATE),
        **example.build(name, merged),
    )


def closed_form_amn(name: str, params: Mapping | None, m: int, n: int) -> LogScalar:
    """Tabulated closed form of the scalar product a_{n+1} * ... * a_m."""
    if m < n:
        raise IndexOrderError(f"need m >= n, got ({m}, {n})")
    example, merged = _resolve_params(name, params, {})
    if m == n:
        return LogScalar.one()
    return LogScalar.from_log(example.closed(merged, m, n))


def raw_factor_log(name: str, params: Mapping | None, n: int) -> LogMag:
    """log a_n of the entry's shared scalar sequence."""
    example, merged = _resolve_params(name, params, {})
    return example.raw(merged, n, n).tolist()[0]


def _diag_system(coord_logs: list[Callable[[int, int], LogArray]]) -> SystemDescription:
    """The diagonal system whose coordinate i has the positive factors
    exp(coord_logs[i](lo, hi)) on lo..hi."""
    coords = [(lambda f: (lambda lo, hi: positive_factors(f(lo, hi))))(f) for f in coord_logs]
    return SystemDescription(len(coords), DiagonalClosedForm.from_ranges(coords))


def _scaled(shift: float, raw, params) -> Callable[[int, int], LogArray]:
    """lo, hi -> ladd(shift, r) for each raw log r of the entry on lo..hi."""
    return lambda lo, hi: add(shift, LogArray(raw(params, lo, hi)))


def _constant(log: float) -> Callable[[int, int], np.ndarray]:
    return lambda lo, hi: np.full(hi - lo + 1, log)


def _odd_after_even(rate: float, description: str) -> dict[str, WitnessSchedule]:
    """The schedule of pairs (2k+1, 2k) along the first coordinate."""
    return {
        "odd_after_even": WitnessSchedule(
            "odd_after_even", None, 0, default_alpha=rate, description=description,
            affine=((2, 1), (2, 0)),
        )
    }


# -- contracting/expanding split with quadratic envelope ------------------------


def _ued_raw(params, lo, hi) -> np.ndarray:
    return np.arange(lo, hi + 1) + 0.5


def _ued_closed(params, m, n) -> LogMag:
    return ((m + 1) ** 2 - (n + 1) ** 2) / 2


def _build_ued(name, p) -> dict:
    raw = functools.partial(_ued_raw, p)
    return dict(
        system=_diag_system([lambda lo, hi: -raw(lo, hi), raw]),
        claims=(
            CertificateClaim(DichotomyCertificate(Kind.UED, alpha=0.5, n_const=1.0), 200),
        ),
        schedules=_odd_after_even(0.5, "pairs (2k+1, 2k) probed along the first coordinate"),
        description="first coordinate contracts by e^(n+1/2) per step, second expands",
        verify_m_max=10**6,
    )


# -- polynomially nonuniform split ----------------------------------------------


def _ned_raw(params, lo, hi) -> np.ndarray:
    c = params["c"]
    n = np.arange(lo, hi + 1)
    # log(n + 1) for n = lo..hi+1, by math.log: numpy's log rounds a few
    # integers differently
    logs = np.fromiter(map(math.log, range(lo + 1, hi + 3)), float, hi - lo + 2)
    return np.where(n % 2 == 0, -c * logs[1:], c * logs[:-1])


def _ned_closed(params, m, n) -> LogMag:
    c = params["c"]
    if m % 2 == 1 and n % 2 == 1:
        return 0.0
    if m % 2 == 1 and n % 2 == 0:
        return c * math.log(n + 2)
    if m % 2 == 0 and n % 2 == 0:
        return c * (math.log(n + 2) - math.log(m + 2))
    return -c * math.log(m + 2)


def _check_ned(name, p) -> None:
    b, c = p["b"], p["c"]
    if not 0 < b < 1:
        raise ParamOutOfRangeError(f"{name} needs b in (0, 1), got {b}")
    if not c > 0:
        raise ParamOutOfRangeError(f"{name} needs c > 0, got {c}")


def _build_ned(name, p) -> dict:
    b, c = p["b"], p["c"]
    log_b = math.log(b)
    return dict(
        system=_diag_system([_scaled(log_b, _ned_raw, p), _constant(-log_b)]),
        claims=(
            CertificateClaim(
                DichotomyCertificate(Kind.NED, alpha=-log_b, profile=ShiftedPowerProfile(2.0, c)),
                200,
            ),
            FalsificationClaim(Kind.UED, "odd_after_even", k_max=50, alpha=0.25),
        ),
        schedules=_odd_after_even(0.25, "pairs (2q+1, 2q) along the first coordinate"),
        description="per-step contraction b with polynomial parity ripple (n+2)^c",
        verify_m_max=10**5,
    )


# -- alternating split, both coordinates driven by the same sequence -------------


def _sed_raw(params, lo, hi) -> np.ndarray:
    n = np.arange(lo, hi + 1)
    return np.where(n % 2 == 0, -n, n + 1)


def _sed_closed(params, m, n) -> LogMag:
    if m % 2 == 0 and n % 2 == 0:
        return 0
    if m % 2 == 0 and n % 2 == 1:
        return -(n + 1)
    if m % 2 == 1 and n % 2 == 0:
        return m + 1
    return m - n


def _check_sed(name, p) -> None:
    if not p["c1"] > 0 or not p["c2"] > 0:
        raise ParamOutOfRangeError(f"{name} needs c1 > 0 and c2 > 0")


def _sed_family(claims: tuple) -> Callable[[str, dict], dict]:
    """Builder of an entry whose two coordinates scale the alternating
    sequence by c1 and c2; only the claims differ between entries."""

    def build(name, p) -> dict:
        log_c1, log_c2 = math.log(p["c1"]), math.log(p["c2"])
        return dict(
            system=_diag_system([_scaled(log_c1, _sed_raw, p), _scaled(log_c2, _sed_raw, p)]),
            claims=claims,
            schedules=_odd_after_even(1.0, "pairs (2k+1, 2k) along the first coordinate"),
            description="both coordinates share an alternating step, scaled by c1 and c2",
            verify_m_max=10**5,
        )

    return build


# -- tower-exponent split: exact integer log-magnitudes --------------------------


def _tower_raw(params, lo, hi) -> np.ndarray:
    n = np.arange(lo, hi + 1, dtype=object)  # Python ints: the logs outgrow int64
    return np.where(n % 2 == 0, n * (1 + 2**n), -(n + 1) * (1 + 2 ** (n + 1)))


def _tower_closed(params, m, n) -> LogMag:
    if m % 2 == 0 and n % 2 == 0:
        return 0
    if m % 2 == 0 and n % 2 == 1:
        return (n + 1) * (1 + 2 ** (n + 1))
    if m % 2 == 1 and n % 2 == 0:
        return -(m + 1) * (1 + 2 ** (m + 1))
    return (n + 1) * (1 + 2 ** (n + 1)) - (m + 1) * (1 + 2 ** (m + 1))


def _check_tower(name, p) -> None:
    if not p["c"] > 0:
        raise ParamOutOfRangeError(f"{name} needs c > 0, got {p['c']}")


def _build_tower(name, p) -> dict:
    log_c = math.log(p["c"])
    alpha = -log_c
    schedules = {
        # the three regimes of e^alpha * c: balanced (= 1), above 1, below 1
        "tower_balanced": WitnessSchedule(
            "tower_balanced", None, 0, default_alpha=alpha, default_beta=1.0,
            description="adjacent pairs at odd start, trial rate matching the drift",
            affine=((2, 2), (2, 1)),
        ),
        "tower_expanding": WitnessSchedule(
            "tower_expanding", None, 0, default_alpha=alpha + 0.5, default_beta=1.0,
            description="even horizon growing from n = 2, trial rate above the drift",
            affine=((2, 2), (0, 2)),
        ),
        "tower_contracting": WitnessSchedule(
            "tower_contracting", None, 0,
            default_alpha=alpha * 0.5 if alpha > 0 else 0.25, default_beta=1.0,
            description="adjacent pairs at odd start, trial rate below the drift",
            affine=((2, 2), (2, 1)),
        ),
    }
    return dict(
        system=_diag_system([_scaled(log_c, _tower_raw, p), _constant(-log_c)]),
        claims=(
            CertificateClaim(
                DichotomyCertificate(Kind.NED, alpha=alpha, profile=TowerExponentProfile()),
                25,
            ),
            *(
                FalsificationClaim(Kind.ED, s.name, 8, s.default_alpha, s.default_beta)
                for s in schedules.values()
            ),
        ),
        schedules=schedules,
        description="first coordinate rides a 2^n-sized seesaw; only a tower-size "
        "profile covers it",
        verify_m_max=25,
    )


_EXAMPLES = {
    "ued_example": _Example({}, _ued_raw, _ued_closed, _build_ued),
    "ned_example": _Example({"b": 0.5, "c": 1.0}, _ned_raw, _ned_closed, _build_ned, _check_ned),
    "sed_example": _Example(
        {"c1": math.exp(-4.0), "c2": math.exp(2.0)}, _sed_raw, _sed_closed,
        _sed_family((
            CertificateClaim(
                DichotomyCertificate(Kind.SED, alpha=2.0, n_const=math.e, beta=1.0), 200
            ),
            FalsificationClaim(Kind.UED, "odd_after_even", k_max=50, alpha=1.0),
        )),
        _check_sed,
    ),
    "ed_example": _Example(
        {"c1": math.exp(-1.5), "c2": math.exp(0.5)}, _sed_raw, _sed_closed,
        _sed_family((
            CertificateClaim(
                DichotomyCertificate(Kind.ED, alpha=0.5, n_const=math.e, beta=1.0), 200
            ),
            StrongInstabilityClaim(window_m_max=120),
        )),
        _check_sed,
    ),
    "ned_not_ed_example": _Example(
        {"c": 1.0 / math.e}, _tower_raw, _tower_closed, _build_tower, _check_tower
    ),
}
