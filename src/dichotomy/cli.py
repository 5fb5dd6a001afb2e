"""Command-line front end: verify, estimate, falsify, datko, gallery-claims.

Reports are JSON documents with ``schema_version`` 1, written to --report
or stdout; identical configurations produce byte-identical documents.
Exit status: 0 verdict holds / claims reproduced / estimate stable,
1 violated / falsified / unstable, 2 configuration error,
3 inconclusive-tail.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter, sub
from pathlib import Path
from typing import Sequence

from . import serialize
from .certificates import Kind, WindowSpec
from .checkers import (
    ALPHA_POINTS,
    BETA_POINTS,
    DEFAULT_LOG_TOL,
    WitnessSchedule,
    default_alpha_grid,
    default_beta_grid,
    estimate_ed,
    estimate_ued,
    falsify,
    minimal_ned_profile,
    verify_certificate,
    verify_triplet_form,
)
from .config import parse_certificate_spec, parse_number, parse_profile_spec, parse_window, parse_system_file
from .datko import (
    certificate_to_datko,
    overall_verdict,
    verify_datko_ed,
    verify_datko_ned,
    verify_datko_ued,
)
from .errors import ConfigError, DichotomyError, RunTooLargeError
from .gallery import (
    _EXAMPLES,
    CertificateClaim,
    FalsificationClaim,
    StrongInstabilityClaim,
    gallery_names,
    make_example,
)
_GALLERY_PARAM_FLAGS = tuple(dict.fromkeys(k for ex in _EXAMPLES.values() for k in ex.defaults))

# m = a k + b, n = c k + d as ((a, b), (c, d))
_GENERIC_SCHEDULES = {
    "odd_after_even": ((2, 1), (2, 0)),
    "adjacent": ((1, 1), (1, 0)),
    "from_start": ((1, 0), (0, 0)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dichotomy",
        description="Analyze discrete-time linear systems for dichotomy properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--gallery", choices=gallery_names(), help="built-in example name")
        p.add_argument("--system", help="system description file")
        for flag in _GALLERY_PARAM_FLAGS:
            p.add_argument(f"--{flag}", default=None, help=f"gallery parameter {flag}")
        p.add_argument("--report", help="write the JSON report here instead of stdout")
        p.add_argument("--csv", help="write plot-ready series here")

    p_verify = sub.add_parser("verify", help="check a certificate on a window")
    add_source(p_verify)
    p_verify.add_argument("--cert", required=True, help="e.g. UED:N=1,alpha=0.5")
    p_verify.add_argument("--window", required=True, help="e.g. 0..50")
    p_verify.add_argument("--triplet", action="store_true", help="scan the three-index form")
    p_verify.add_argument("--tol", default=str(DEFAULT_LOG_TOL), help="log-domain tolerance")

    p_est = sub.add_parser("estimate", help="search constants on a grid")
    add_source(p_est)
    p_est.add_argument("--kind", choices=("ued", "ed", "ned"), required=True)
    p_est.add_argument("--window", required=True)
    p_est.add_argument("--alphas", help="comma-separated decay rates")
    p_est.add_argument("--alpha-points", type=int, default=ALPHA_POINTS)
    p_est.add_argument("--betas", help="comma-separated growth weights (ed)")
    p_est.add_argument("--beta-points", type=int, default=BETA_POINTS)
    p_est.add_argument("--strong", action="store_true", help="restrict to beta < alpha")
    p_est.add_argument("--alpha", help="fixed rate for the minimal profile (ned)")

    p_fal = sub.add_parser("falsify", help="track required constants along a schedule")
    add_source(p_fal)
    p_fal.add_argument("--concept", required=True, help="UED, NED, ED or SED")
    p_fal.add_argument("--schedule", required=True, help="schedule name")
    p_fal.add_argument("--k-max", type=int, default=20)
    p_fal.add_argument("--alpha", help="trial decay rate")
    p_fal.add_argument("--beta", help="trial growth weight (ed/sed)")
    p_fal.add_argument("--profile", help="trial profile (ned), e.g. power:2:1")
    p_fal.add_argument("--coord", type=int, default=None, help="probe coordinate override")

    p_datko = sub.add_parser("datko", help="evaluate a summation criterion")
    add_source(p_datko)
    p_datko.add_argument("--window", required=True)
    p_datko.add_argument("--d", required=True, help="summation weight rate")
    p_datko.add_argument("--m-trunc", type=int, default=200)
    p_datko.add_argument("--from-cert", help="map this certificate to summation constants")
    p_datko.add_argument("--form", choices=("ued", "ned", "ed"), help="explicit form")
    p_datko.add_argument("--D", dest="big_d", help="right-side constant (ued/ed)")
    p_datko.add_argument("--c-weight", dest="c_weight", help="right-side exponent (ed)")
    p_datko.add_argument("--s-profile", help="right-side profile (ned), e.g. power:2:1")
    p_datko.add_argument("--cert", help="decay certificate for tail accounting")
    p_datko.add_argument("--strong", action="store_true", help="require c < d")

    p_claims = sub.add_parser("gallery-claims", help="reproduce the claims of an entry")
    p_claims.add_argument("--name", choices=gallery_names(), required=True)
    for flag in _GALLERY_PARAM_FLAGS:
        p_claims.add_argument(f"--{flag}", default=None, help=f"gallery parameter {flag}")
    p_claims.add_argument("--window", help="override claim windows")
    p_claims.add_argument("--report", help="write the JSON report here instead of stdout")
    p_claims.add_argument("--csv", help="write plot-ready series here")
    return parser


def _gallery_params(args) -> dict:
    out = {}
    for flag in _GALLERY_PARAM_FLAGS:
        value = getattr(args, flag, None)
        if value is not None:
            out[flag] = parse_number(value, field=flag)
    return out


def _resolve_system(args):
    """(system, projection, entry or None, config echo dict)"""
    if getattr(args, "gallery", None) and getattr(args, "system", None):
        raise ConfigError("give either --gallery or --system, not both")
    if getattr(args, "gallery", None):
        entry = make_example(args.gallery, _gallery_params(args))
        echo = {"gallery": entry.name, "params": entry.params}
        return entry.system, entry.projection, entry, echo
    if getattr(args, "system", None):
        text = Path(args.system).read_text(encoding="utf-8")
        system, projection, entry = parse_system_file(text)
        echo = {"file": args.system}
        if entry is not None:
            echo["gallery"] = entry.name
            echo["params"] = entry.params
        return system, projection, entry, echo
    raise ConfigError("a system is required: --gallery NAME or --system FILE")


# -- report text -------------------------------------------------------------------
# With an indent, ``json.dumps`` runs json's pure-Python encoder, a few
# generator steps per value. Lists of records are encoded by column instead:
# a ``serialize.RecordColumns`` (a falsify report's witness family, written
# straight from the kernel's columns, with no record per member) from its
# shape, and a list whose records share the first record's shape (the same
# keys in the same order, lists of the same lengths, scalars in the same
# places) from the columns read out of its records. Each column's texts take
# one C-level call (a %-format of ints, else ``Column.texts``), or none when
# every record has the same text there (a family's probe direction, say, a
# literal of the template); the template's literal pieces and the columns
# are interleaved by slice assignment and joined in one ``str.join``. The
# rest of the report goes through ``json.dumps`` with a placeholder string
# for each such list, and the lists are spliced in, so the text is that of
# ``json.dumps(report, indent=2)`` with each ``RecordColumns`` written as its
# records. A column keeps its texts: a family's CSV reuses those of its log
# column.

_INDENT = "  "
# marks a column's place in a record template; the literal pieces are JSON
# punctuation, indentation, ASCII-escaped keys and the text of repeated
# scalars, which never hold it
_SLOT = "\x00"
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _dumps(report) -> str:
    """``json.dumps(report, indent=2)``, each ``RecordColumns`` written as its
    records, with lists of records encoded by column."""
    lists: list[str] = []
    text = json.dumps(_cut(report, 0, lists), indent=2)
    marks = [encode_basestring_ascii(_placeholder(j)) for j in range(len(lists))]
    if any(text.count(mark) != 1 for mark in marks):
        return json.dumps(report, indent=2, default=serialize.RecordColumns.records)
    pieces = []
    for mark, encoded in zip(marks, lists):
        head, found, text = text.partition(mark)
        if not found:
            return json.dumps(report, indent=2, default=serialize.RecordColumns.records)
        pieces += (head, encoded)
    pieces.append(text)
    return "".join(pieces)


def _placeholder(j: int) -> str:
    return f"\x00{j}"


def _cut(value, depth: int, lists: list[str]):
    """A copy of ``value`` (at nesting ``depth``) in which each list of
    records encoded by column is a placeholder string; the lists' text goes
    to ``lists``."""
    if isinstance(value, dict):
        return {k: _cut(v, depth + 1, lists) for k, v in value.items()}
    if isinstance(value, serialize.RecordColumns):
        encoded = _column_text(value.shape, [value.shape], value.size, depth)
        if encoded is None:  # a value json cannot write: json.dumps names it
            return [_cut(v, depth + 1, lists) for v in value.records()]
    elif isinstance(value, (list, tuple)):
        encoded = _records(value, depth)
        if encoded is None:
            return [_cut(v, depth + 1, lists) for v in value]
    else:
        return value
    lists.append(encoded)
    return _placeholder(len(lists) - 1)


def _records(items, depth: int) -> str | None:
    """The text of a list of records that share the first one's shape, or
    None for any other list."""
    if not items or type(items[0]) is not dict:
        return None
    return _column_text(items[0], list(items), len(items), depth)


def _column_text(proto, col: list, size: int, depth: int) -> str | None:
    """The text of ``size`` records at nesting ``depth``: the records ``col``
    shaped as ``proto``, or a ``RecordColumns``' shape as ``proto`` and
    ``[proto]``. None when a value has another shape."""
    if not size:
        return "[]"
    columns: list[Sequence] = []
    template = _template(proto, col, depth + 1, columns)
    if template is None:
        return None
    sep = ",\n" + _INDENT * (depth + 1)
    pieces = template.split(_SLOT)
    pieces[-1] += sep
    # per record: literal piece, column text, literal piece, ..., last piece
    parts = [[pieces[0]] * size]
    for column, piece in zip(columns, pieces[1:]):
        parts += (column, [piece] * size)
    body = "".join(_interleaved(parts))
    return "[" + sep[1:] + body[:-len(sep)] + "\n" + _INDENT * depth + "]"


def _interleaved(columns: list[Sequence]) -> list:
    """The values of equally long columns, record by record."""
    width = len(columns)
    out = [None] * (width * len(columns[0]))
    for i, column in enumerate(columns):
        out[i::width] = column
    return out


def _template(proto, col: list, depth: int, columns: list[Sequence[str]]) -> str | None:
    """The text of the values ``col`` at nesting ``depth``, shaped as
    ``proto``, with ``_SLOT`` at each scalar place whose texts differ between
    records (they go to ``columns``). A ``Column`` in ``proto`` stands for
    its values, one per record. None when a value has another shape."""
    if type(proto) in _SCALARS:
        col = serialize.Column(col)
    elif type(proto) is serialize.Column:
        col = proto
    kinds = set(map(type, col))
    if type(col) is serialize.Column:
        if not kinds <= _SCALARS:
            return None
        if len(kinds) == 1 and _repeated(col):
            return serialize.json_text(col[0])  # a literal piece of the template
        columns.append(_int_texts(col) if kinds == {int} else col.texts)
        return _SLOT
    if type(proto) is dict:
        keys = tuple(proto)
        if kinds != {dict} or not all(type(k) is str for k in keys) or not all(
            map(keys.__eq__, map(tuple, col))
        ):
            return None
        names = [encode_basestring_ascii(k) + ": " for k in keys]
        open_, close = "{", "}"
    elif type(proto) in (list, tuple):
        keys = range(len(proto))
        if not kinds <= {list, tuple} or set(map(len, col)) != {len(proto)}:
            return None
        names = [""] * len(proto)
        open_, close = "[", "]"
    else:
        return None
    if not keys:
        return open_ + close
    inner = "\n" + _INDENT * (depth + 1)
    parts = []
    for key, name in zip(keys, names):
        sub = _template(proto[key], list(map(itemgetter(key), col)), depth + 1, columns)
        if sub is None:
            return None
        parts.append(inner + name + sub)
    return open_ + ",".join(parts) + "\n" + _INDENT * depth + close


def _int_texts(ints: Sequence[int]) -> list[str]:
    """The text of each int, from one %-format."""
    return ("%d\n" * len(ints) % tuple(ints)).split("\n")[:-1]


def _repeated(values: Sequence) -> bool:
    """Whether every value of a one-type column encodes as the first one:
    equal to it or it itself (a NaN), and for a zero float, of the same
    sign. A scalar of a ``RecordColumns`` shape is a column of one value."""
    first, last = values[0], values[-1]
    if (last is not first and last != first) or values.count(first) != len(values):
        return False
    if type(first) is not float or first != 0.0:
        return True
    return len(set(map(math.copysign, repeat(1.0), values))) == 1


def _emit(args, report: dict, csv_text: str | None = None) -> None:
    payload = _dumps(report) + "\n"
    if args.report:
        Path(args.report).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    if args.csv:
        if csv_text is None:
            csv_text = emit_series(report)
        Path(args.csv).write_text(csv_text, encoding="utf-8")


def _fmt_num(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _column(records, key: str) -> serialize.Column:
    return serialize.Column(map(itemgetter(key), records))


def _csv_rows(indices, logmags: serialize.Column, signs) -> str:
    """The lines ``index,logmag,sign`` of the values, one %-format over the
    columns. The ``_fmt_num`` of a column of ints is its %d; that of a column
    of finite floats is its JSON text, ``logmags.texts``: made in one C-level
    call, or already made by the report's text."""
    kinds = set(map(type, logmags))
    mags, line = logmags, "%d,%d,%d\n"
    if kinds != {int}:
        finite = kinds == {float} and all(map(math.isfinite, logmags))
        mags, line = logmags.texts if finite else list(map(_fmt_num, logmags)), "%d,%s,%d\n"
    return line * len(logmags) % tuple(_interleaved([list(indices), mags, list(signs)]))


def _family(witnesses) -> dict:
    """The shape of a falsify report's witnesses, with a column of the
    members' m, n and required constants' sign and logmag."""
    if isinstance(witnesses, serialize.RecordColumns):
        return witnesses.shape
    constants = list(map(itemgetter("required_constant"), witnesses))
    return {"m": _column(witnesses, "m"), "n": _column(witnesses, "n"),
            "required_constant": {"sign": _column(constants, "sign"),
                                  "logmag": _column(constants, "logmag")}}


def emit_series(report: dict) -> str:
    """Plot-ready CSV: fixed columns (index, value-logmag, value-sign).

    Falsification reports emit one row per witness keyed by m - n; minimal
    profile reports emit one row per index n. Other reports produce a
    header-only file.
    """
    lines = ["index,value_logmag,value_sign\n"]
    command = report.get("command")
    if command == "falsify":
        family = _family(report["result"]["witnesses"])
        constant = family["required_constant"]
        lines.append(_csv_rows(map(sub, family["m"], family["n"]), constant["logmag"],
                               constant["sign"]))
    elif command == "estimate" and report.get("kind") == "ned":
        profile = report["profile"]
        values = profile["values"]
        lines.append(_csv_rows(range(profile["n_min"], profile["n_min"] + len(values)),
                               _column(values, "logmag"), map(itemgetter("sign"), values)))
    elif command == "estimate":
        for i, point in enumerate(report["result"]["grid"]):
            lines.append(f"{i},{_fmt_num(point['log_n_full'])},1\n")
    elif command == "verify" and report["result"].get("witness"):
        w = report["result"]["witness"]
        req = w["required_constant"]
        lines.append(f"{w['m'] - w['n']},{_fmt_num(req['logmag'])},{req['sign']}\n")
    return "".join(lines)


# -- subcommand runners ----------------------------------------------------------


def _run_verify(args) -> int:
    system, projection, _, echo = _resolve_system(args)
    cert = parse_certificate_spec(args.cert)
    window = parse_window(args.window)
    tol = parse_number(args.tol, field="tol")
    if args.triplet:
        window = WindowSpec(window.n_min, window.m_max, triplet=True)
        outcome = verify_triplet_form(system, projection, cert, window, tol=tol)
    else:
        outcome = verify_certificate(system, projection, cert, window, tol=tol)
    report = {
        "schema_version": serialize.SCHEMA_VERSION,
        "command": "verify",
        "system": echo,
        "cert": serialize.certificate_to_json(cert),
        "window": serialize.window_to_json(window),
        "result": serialize.outcome_to_json(outcome),
    }
    _emit(args, report)
    return 0 if outcome.holds else 1


def _parse_grid(text: str | None, field: str) -> list[float] | None:
    if text is None:
        return None
    return [parse_number(tok, field=field) for tok in text.split(",") if tok.strip()]


def _run_estimate(args) -> int:
    system, projection, _, echo = _resolve_system(args)
    window = parse_window(args.window)
    report = {
        "schema_version": serialize.SCHEMA_VERSION,
        "command": "estimate",
        "kind": args.kind,
        "system": echo,
        "window": serialize.window_to_json(window),
    }
    if args.kind == "ned":
        if args.alpha is None:
            raise ConfigError("estimate --kind ned needs --alpha")
        alpha = parse_number(args.alpha, field="alpha")
        profile = minimal_ned_profile(system, projection, alpha, window)
        report["alpha"] = alpha
        report["profile"] = serialize.profile_series_to_json(profile)
        # the least uniform N is the profile's last value
        report["optimal_uniform_N"] = serialize.logscalar_to_json(profile.values[-1])
        _emit(args, report)
        return 0
    alphas = _parse_grid(args.alphas, "alphas")
    if alphas is None:
        alphas = default_alpha_grid(system, projection, window, args.alpha_points)
    if args.kind == "ued":
        est = estimate_ued(system, projection, window, alphas)
        report["result"] = serialize.uniform_estimate_to_json(est)
        _emit(args, report)
        return 0 if est.stable else 1
    betas = _parse_grid(args.betas, "betas")
    if betas is None and alphas:  # estimate_ed reports an empty alpha grid
        betas = default_beta_grid(max(alphas), args.beta_points)
    est = estimate_ed(system, projection, window, alphas, betas, strong=args.strong)
    report["result"] = serialize.exponential_estimate_to_json(est)
    _emit(args, report)
    return 0 if est.stable else 1


def _run_falsify(args) -> int:
    system, projection, entry, echo = _resolve_system(args)
    try:
        concept = Kind(args.concept.upper())
    except ValueError:
        raise ConfigError(f"unknown concept {args.concept!r}") from None
    schedule = None
    if entry is not None and args.schedule in entry.schedules:
        schedule = entry.schedules[args.schedule]
    elif args.schedule in _GENERIC_SCHEDULES:
        schedule = WitnessSchedule(args.schedule, None, 0,
                                   affine=_GENERIC_SCHEDULES[args.schedule])
    else:
        raise ConfigError(f"unknown schedule {args.schedule!r}")
    if args.coord is not None:
        schedule = dataclasses.replace(schedule, direction=args.coord)
    alpha = parse_number(args.alpha, field="alpha") if args.alpha else None
    beta = parse_number(args.beta, field="beta") if args.beta else None
    profile = parse_profile_spec(args.profile) if args.profile else None
    rep = falsify(
        system, projection, concept, schedule, range(args.k_max + 1),
        alpha=alpha, beta=beta, profile=profile,
    )
    report = {
        "schema_version": serialize.SCHEMA_VERSION,
        "command": "falsify",
        "system": echo,
        "k_max": args.k_max,
        "result": serialize.witness_report_columns(rep),
    }
    _emit(args, report)
    return 1 if rep.divergent else 0


def _run_datko(args) -> int:
    system, projection, _, echo = _resolve_system(args)
    window = parse_window(args.window)
    d = parse_number(args.d, field="d")
    tail_cert = parse_certificate_spec(args.cert) if args.cert else None
    if args.from_cert:
        base = parse_certificate_spec(args.from_cert)
        constants = certificate_to_datko(base, d)
        if tail_cert is None:
            tail_cert = base
        form = {"uniform": "ued", "nonuniform": "ned", "exponential": "ed"}[constants.form]
        big_d, c_weight, s_profile = constants.big_d, constants.c, constants.s_profile
    else:
        form = args.form
        if form is None:
            raise ConfigError("datko needs --form or --from-cert")
        big_d = parse_number(args.big_d, field="D") if args.big_d else None
        c_weight = parse_number(args.c_weight, field="c") if args.c_weight else 0.0
        s_profile = parse_profile_spec(args.s_profile) if args.s_profile else None
    if form == "ned":
        if s_profile is None:
            raise ConfigError("the nonuniform form needs --s-profile or --from-cert")
        reports = verify_datko_ned(
            system, projection, d, s_profile, window, args.m_trunc, cert=tail_cert
        )
    elif form == "ued":
        if big_d is None:
            raise ConfigError("the uniform form needs --D or --from-cert")
        reports = verify_datko_ued(
            system, projection, d, big_d, window, args.m_trunc, cert=tail_cert
        )
    else:
        if big_d is None:
            raise ConfigError("the exponential form needs --D or --from-cert")
        reports = verify_datko_ed(
            system, projection, d, c_weight, big_d, window, args.m_trunc,
            cert=tail_cert, strong=args.strong,
        )
    verdict = overall_verdict(reports)
    report = {
        "schema_version": serialize.SCHEMA_VERSION,
        "command": "datko",
        "form": form,
        "system": echo,
        "window": serialize.window_to_json(window),
        "d": d,
        "m_trunc": args.m_trunc,
        "verdict": verdict,
        "reports": [serialize.datko_report_to_json(r) for r in reports],
    }
    _emit(args, report)
    return {"holds": 0, "violated": 1, "inconclusive-tail": 3}[verdict]


def _run_gallery_claims(args) -> int:
    entry = make_example(args.name, _gallery_params(args))
    override = parse_window(args.window) if args.window else None
    results = []
    all_ok = True
    for claim in entry.claims:
        if isinstance(claim, CertificateClaim):
            window = override or WindowSpec(0, claim.window_m_max)
            outcome = verify_certificate(entry.system, entry.projection, claim.cert, window)
            ok = outcome.holds
            results.append(
                {
                    "type": "certificate",
                    "cert": serialize.certificate_to_json(claim.cert),
                    "window": serialize.window_to_json(window),
                    "reproduced": ok,
                    "detail": serialize.outcome_to_json(outcome),
                }
            )
        elif isinstance(claim, FalsificationClaim):
            schedule = entry.schedule(claim.schedule)
            rep = falsify(
                entry.system, entry.projection, claim.concept, schedule,
                range(claim.k_max + 1), alpha=claim.alpha, beta=claim.beta,
            )
            ok = rep.divergent
            results.append(
                {
                    "type": "falsification",
                    "concept": claim.concept.value,
                    "schedule": claim.schedule,
                    "reproduced": ok,
                    "detail": serialize.witness_report_columns(rep),
                }
            )
        elif isinstance(claim, StrongInstabilityClaim):
            window = override or WindowSpec(0, claim.window_m_max)
            alphas = default_alpha_grid(entry.system, entry.projection, window,
                                        claim.alpha_points)
            betas = default_beta_grid(max(alphas), claim.beta_points)
            est = estimate_ed(entry.system, entry.projection, window, alphas, betas,
                              strong=True)
            ok = all(not row.stable for row in est.table)
            results.append(
                {
                    "type": "strong-instability",
                    "window": serialize.window_to_json(window),
                    "grid": [len(alphas), len(betas)],
                    "reproduced": ok,
                    "detail": serialize.exponential_estimate_to_json(est),
                }
            )
        else:  # pragma: no cover - claims are a closed set
            raise ConfigError(f"unknown claim type {type(claim).__name__}")
        all_ok = all_ok and ok
    report = {
        "schema_version": serialize.SCHEMA_VERSION,
        "command": "gallery-claims",
        "entry": entry.name,
        "params": entry.params,
        "all_reproduced": all_ok,
        "claims": results,
    }
    _emit(args, report)
    return 0 if all_ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: every default is immutable and the gallery
    # names are fixed, so parsing leaves the parser unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    runner = {
        "verify": _run_verify,
        "estimate": _run_estimate,
        "falsify": _run_falsify,
        "datko": _run_datko,
        "gallery-claims": _run_gallery_claims,
    }[args.command]
    try:
        return runner(args)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        # unreadable inputs and unwritable outputs are configuration errors
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DichotomyError, MemoryError) as exc:
        if isinstance(exc, MemoryError):
            # numpy refuses an array too large for the machine: an error,
            # never a verdict
            exc = RunTooLargeError("out of memory" + (f": {exc}" if str(exc) else ""))
        # numerical failures still produce a report naming the error
        report = {
            "schema_version": serialize.SCHEMA_VERSION,
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        try:
            _emit(args, report, csv_text="index,value_logmag,value_sign\n")
        except OSError as emit_exc:
            print(f"configuration error: {emit_exc}", file=sys.stderr)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
