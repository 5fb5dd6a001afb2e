"""Declarative text configuration: numbers, certificates, and system files.

Numbers accept three spellings so constants that live naturally in the
exponent can be written exactly:

    plain floats   0.5   -2   1e-3
    fractions      1/2   -3/2
    exponentials   e^1   e^-4   e^{-3/2}   e^0.25

System description files are flat key = value sections::

    [system]
    dim = 2
    source = gallery            # gallery | explicit | diagonal
    name = ned_example          # gallery: entry name plus parameter keys
    b = 1/2
    c = 1

    [projection]
    mask = 1,0                  # constant coordinate mask
    # mask@5 = 0,1              # per-index override (diagonal masks)
    # matrix = 1,0; 0,0         # rows separated by ';'

Explicit systems list their coefficients as ``A0 = rows``, ``A1 = rows``,
... from index 0 upward; diagonal systems name one closed form per
coordinate, e.g. ``coord0 = linear_exponent: sigma=-1, tau=-0.5`` (forms:
``const: value=V``, ``linear_exponent: sigma=S, tau=T`` for a(n) =
exp(S n + T), ``parity: even=V, odd=W``).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

from .certificates import (
    ConstantProfile,
    DichotomyCertificate,
    Kind,
    Profile,
    ShiftedPowerProfile,
    TowerExponentProfile,
    WindowSpec,
)
from .errors import ConfigError
from .gallery import GalleryEntry, gallery_names, make_example
from .logscalar import LogScalar
from .system import (
    DiagonalClosedForm,
    ExplicitSequence,
    ProjectionFamily,
    SystemDescription,
    positive_factors,
)

_FRACTION = re.compile(r"^([+-]?\d+)\s*/\s*(\d+)$")


def parse_number(token: str, line: int | None = None, field: str | None = None) -> float:
    """Parse a plain float, a fraction p/q, or an exponential e^x."""
    text = token.strip()
    try:
        return float(text)  # the common spelling; float() rejects the other two
    except ValueError:
        pass
    try:
        if text.startswith("e^"):
            inner = text[2:].strip()
            if inner.startswith("{") and inner.endswith("}"):
                inner = inner[1:-1].strip()
            return math.exp(parse_number(inner, line, field))
        got = _FRACTION.match(text)
        if got:
            return float(Fraction(int(got.group(1)), int(got.group(2))))
    except (OverflowError, ZeroDivisionError):
        pass
    raise ConfigError(f"cannot parse number {token!r}", line, field) from None


def parse_window(text: str) -> WindowSpec:
    """Window bounds written as ``A..B``."""
    parts = text.split("..")
    if len(parts) != 2:
        raise ConfigError(f"window must look like 0..50, got {text!r}", field="window")
    try:
        n_min, m_max = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"window bounds must be integers, got {text!r}", field="window") from None
    if n_min < 0 or n_min > m_max:
        raise ConfigError(f"window bounds must satisfy 0 <= n_min <= m_max, got {text!r}",
                          field="window")
    return WindowSpec(n_min, m_max)


def parse_profile_spec(text: str, line: int | None = None) -> Profile:
    """Profiles: ``const:V``, ``power:SHIFT:POWER``, or ``tower``."""
    parts = text.strip().split(":")
    form = parts[0]
    if form == "const" and len(parts) == 2:
        return ConstantProfile(parse_number(parts[1], line, "profile"))
    if form == "power" and len(parts) == 3:
        return ShiftedPowerProfile(
            parse_number(parts[1], line, "profile"), parse_number(parts[2], line, "profile")
        )
    if form == "tower" and len(parts) == 1:
        return TowerExponentProfile()
    raise ConfigError(f"cannot parse profile spec {text!r}", line, "profile")


def parse_certificate_spec(text: str) -> DichotomyCertificate:
    """Certificates: ``KIND:key=value,...`` e.g. ``UED:N=1,alpha=0.5``."""
    head, _, body = text.partition(":")
    try:
        kind = Kind(head.strip().upper())
    except ValueError:
        raise ConfigError(f"unknown certificate kind {head!r}", field="cert") from None
    fields: dict[str, str] = {}
    if body:
        for item in body.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ConfigError(f"expected key=value in certificate, got {item!r}", field="cert")
            fields[key.strip()] = value.strip()
    alpha = parse_number(fields.pop("alpha", "0"), field="cert")
    if kind is Kind.NED:
        profile = parse_profile_spec(fields.pop("profile", "")) if "profile" in fields else None
        if profile is None:
            raise ConfigError("nonuniform certificate needs profile=...", field="cert")
        cert = DichotomyCertificate(kind, alpha, profile=profile)
    else:
        n_const = parse_number(fields.pop("N", "1"), field="cert")
        beta = parse_number(fields.pop("beta", "0"), field="cert") if kind is not Kind.UED else None
        cert = DichotomyCertificate(kind, alpha, n_const=n_const, beta=beta)
    if fields:
        raise ConfigError(f"unused certificate fields: {sorted(fields)}", field="cert")
    return cert


# -- system description files ---------------------------------------------------


def _split_sections(text: str) -> dict[str, list[tuple[int, str, str]]]:
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, [])
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError("expected key = value", lineno)
        if current is None:
            raise ConfigError("key outside any [section]", lineno)
        sections[current].append((lineno, key.strip(), value.strip()))
    return sections


def _parse_matrix(value: str, dim: int, lineno: int, field: str) -> list[list[float]]:
    rows = [r for r in value.split(";") if r.strip()]
    if len(rows) != dim:
        raise ConfigError(f"expected {dim} rows, got {len(rows)}", lineno, field)
    out = []
    for row in rows:
        entries = row.split(",")
        if len(entries) != dim:
            raise ConfigError(f"expected {dim} entries per row", lineno, field)
        try:  # the plain floats of a row in one pass: parse_number tries float() first
            out.append(list(map(float, entries)))
        except ValueError:
            out.append([parse_number(e, lineno, field) for e in entries])
    return out


def _parse_mask(value: str, dim: int, lineno: int, field: str) -> tuple[bool, ...]:
    bits = [b.strip() for b in value.split(",")]
    if len(bits) != dim:
        raise ConfigError(f"mask needs {dim} entries", lineno, field)
    out = []
    for b in bits:
        if b not in ("0", "1"):
            raise ConfigError(f"mask entries must be 0 or 1, got {b!r}", lineno, field)
        out.append(b == "1")
    return tuple(out)


_DIAG_FORMS = {"const", "linear_exponent", "parity"}


def _parse_diag_form(value: str, lineno: int, field: str):
    head, _, body = value.partition(":")
    form = head.strip()
    if form not in _DIAG_FORMS:
        raise ConfigError(f"unknown diagonal form {form!r}", lineno, field)
    args: dict[str, float] = {}
    if body.strip():
        for item in body.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ConfigError(f"expected key=value, got {item!r}", lineno, field)
            args[key.strip()] = number = parse_number(val, lineno, field)
            if not math.isfinite(number):
                raise ConfigError(f"{key.strip()} must be finite, got {number}", lineno, field)
    if form == "const":
        value_ = args.get("value")
        if value_ is None:
            raise ConfigError("const form needs value=", lineno, field)
        return _by_parity(value_, value_)
    if form == "linear_exponent":
        sigma = args.get("sigma", 0.0)
        tau = args.get("tau", 0.0)
        return lambda lo, hi: positive_factors(_linear(sigma, tau, lo, hi))
    even = args.get("even")
    odd = args.get("odd")
    if even is None or odd is None:
        raise ConfigError("parity form needs even= and odd=", lineno, field)
    return _by_parity(even, odd)


def _linear(sigma: float, tau: float, lo: int, hi: int) -> np.ndarray:
    """sigma n + tau for n = lo..hi; an overflow gives +-inf, as in floats."""
    with np.errstate(over="ignore"):
        return sigma * np.arange(lo, hi + 1) + tau


def _by_parity(even: float, odd: float):
    """The range function of the factors ``even`` at even n, ``odd`` at odd n."""
    a, b = LogScalar.from_float(even), LogScalar.from_float(odd)

    def factors(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        is_odd = np.arange(lo, hi + 1) % 2 == 1
        return np.where(is_odd, b.logmag, a.logmag), np.where(is_odd, b.sign, a.sign)

    return factors


def parse_system_file(text: str) -> tuple[SystemDescription, ProjectionFamily, GalleryEntry | None]:
    """Build (system, projection, gallery entry or None) from file text."""
    sections = _split_sections(text)
    if "system" not in sections:
        raise ConfigError("missing [system] section")
    sys_items = sections["system"]
    by_key = {k: (lineno, v) for lineno, k, v in sys_items}
    source = by_key.get("source", (None, "gallery"))[1]

    if source == "gallery":
        if "name" not in by_key:
            raise ConfigError("gallery source needs name = <entry>")
        name = by_key["name"][1]
        if name not in gallery_names():
            raise ConfigError(f"unknown gallery entry {name!r}; known: {', '.join(gallery_names())}",
                              by_key["name"][0], "name")
        params = {
            k: parse_number(v, lineno, k)
            for lineno, k, v in sys_items
            if k not in ("source", "name", "dim")
        }
        entry = make_example(name, params)
        system, projection = entry.system, entry.projection
    elif source in ("explicit", "diagonal"):
        entry = None
        if "dim" not in by_key:
            raise ConfigError(f"{source} source needs dim = <positive integer>")
        lineno, dim_text = by_key["dim"]
        try:
            dim = int(dim_text)
        except ValueError:
            raise ConfigError(f"dim must be an integer, got {dim_text!r}", lineno, "dim") from None
        if dim <= 0:
            raise ConfigError(f"dim must be positive, got {dim}", lineno, "dim")
        if source == "explicit":
            mats: dict[int, list[list[float]]] = {}
            for lineno, key, value in sys_items:
                if key in ("source", "dim"):
                    continue
                got = re.fullmatch(r"[Aa](\d+)", key)
                if not got:
                    raise ConfigError(f"unexpected key {key!r} in explicit system", lineno, key)
                mats[int(got.group(1))] = _parse_matrix(value, dim, lineno, key)
            if not mats:
                raise ConfigError("explicit source needs at least A0 = ...")
            top = max(mats)
            missing = [k for k in range(top + 1) if k not in mats]
            if missing:
                raise ConfigError(f"explicit coefficients must be contiguous; missing A{missing[0]}")
            system = SystemDescription(dim, ExplicitSequence([mats[k] for k in range(top + 1)]))
        else:
            coords: dict[int, object] = {}
            for lineno, key, value in sys_items:
                if key in ("source", "dim"):
                    continue
                got = re.fullmatch(r"coord(\d+)", key)
                if not got:
                    raise ConfigError(f"unexpected key {key!r} in diagonal system", lineno, key)
                if int(got.group(1)) >= dim:
                    raise ConfigError(f"coordinate outside 0..{dim - 1}", lineno, key)
                coords[int(got.group(1))] = _parse_diag_form(value, lineno, key)
            missing = [i for i in range(dim) if i not in coords]
            if missing:
                raise ConfigError(f"diagonal source needs coord{missing[0]} = <form>")
            system = SystemDescription(
                dim, DiagonalClosedForm.from_ranges([coords[i] for i in range(dim)])
            )
    else:
        raise ConfigError(f"unknown source {source!r}; expected gallery, explicit or diagonal")

    projection_items = sections.get("projection", [])
    if projection_items:
        projection = _build_projection(projection_items, system.dim)
    elif source != "gallery":
        raise ConfigError("missing [projection] section")
    return system, projection, entry if source == "gallery" else None


def _build_projection(items, dim: int) -> ProjectionFamily:
    forms: dict[str, dict] = {"mask": {}, "matrix": {}}  # index (None: default) -> value
    for lineno, key, value in items:
        got = re.fullmatch(r"(mask|matrix)(?:@(\d+))?", key)
        if not got:
            raise ConfigError(f"unexpected projection key {key!r}", lineno, key)
        form, index = got.groups()
        parse = _parse_mask if form == "mask" else _parse_matrix
        forms[form][None if index is None else int(index)] = parse(value, dim, lineno, key)
    if forms["mask"] and forms["matrix"]:
        raise ConfigError("projection takes either masks or matrices, not both")
    form = "mask" if forms["mask"] else "matrix"
    overrides = forms[form]
    if None not in overrides:
        raise ConfigError("projection section needs mask = ... or matrix = ...")
    base = overrides.pop(None)
    if overrides:
        return ProjectionFamily(dim, **{form: lambda n: overrides.get(n, base)})
    return ProjectionFamily(dim, **{form: base})
