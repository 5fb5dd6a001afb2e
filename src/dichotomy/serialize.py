"""JSON encoding of certificates, witnesses, estimates, and reports.

The wire format is versioned (``schema_version`` 1) and deterministic:
dictionaries are built in a fixed key order and floats go through Python's
shortest-repr rules, so identical inputs produce byte-identical documents.
Log-magnitudes serialize as JSON numbers; integer log-magnitudes are kept
as integers (arbitrary precision survives the round trip), rationals are
collapsed to float. A witness family is also given by column
(``witness_family``): the command line writes its text from the columns,
and ``witness_report_to_json`` expands them into one record per member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from json import dumps

from .certificates import (
    ConstantProfile,
    DichotomyCertificate,
    Kind,
    Profile,
    ScaledProfile,
    ShiftedPowerProfile,
    TabulatedProfile,
    TowerExponentProfile,
    VerificationOutcome,
    WindowSpec,
    Witness,
    WitnessReport,
)
from .checkers import ExponentialEstimate, GridPoint, UniformEstimate
from .datko import DatkoReport
from .errors import ConfigError
from .logscalar import LogScalar, json_log

SCHEMA_VERSION = 1


def _num_back(value):
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return value


def logscalar_to_json(x: LogScalar) -> dict:
    return {"sign": x.sign, "logmag": json_log(x.logmag)}


def logscalar_from_json(obj) -> LogScalar:
    try:
        return LogScalar(int(obj["sign"]), _num_back(obj["logmag"]))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed log-scalar payload: {obj!r}") from exc


def profile_to_json(profile: Profile) -> dict:
    return profile.describe()


def profile_from_json(desc) -> Profile:
    form = desc.get("form")
    if form == "constant":
        return ConstantProfile(float(desc["value"]))
    if form == "shifted_power":
        return ShiftedPowerProfile(float(desc["shift"]), float(desc["power"]))
    if form == "tower_exponent":
        return TowerExponentProfile()
    if form == "scaled":
        return ScaledProfile(profile_from_json(desc["base"]), _num_back(desc["log_factor"]))
    if form == "tabulated":
        values = tuple(
            LogScalar(int(v["sign"]), _num_back(v["logmag"])) for v in desc["values"]
        )
        return TabulatedProfile(int(desc["n_min"]), values)
    raise ConfigError(f"unknown profile form {form!r}")


def certificate_to_json(cert: DichotomyCertificate) -> dict:
    out = {"kind": cert.kind.value, "alpha": cert.alpha}
    if cert.kind is Kind.NED:
        out["profile"] = profile_to_json(cert.profile)
    else:
        out["N"] = cert.n_const
        if cert.kind is not Kind.UED:
            out["beta"] = cert.beta
    return out


def certificate_from_json(obj) -> DichotomyCertificate:
    try:
        kind = Kind(obj["kind"])
        alpha = float(obj["alpha"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed certificate payload: {obj!r}") from exc
    if kind is Kind.NED:
        return DichotomyCertificate(kind, alpha, profile=profile_from_json(obj["profile"]))
    n_const = float(obj["N"])
    beta = float(obj["beta"]) if kind is not Kind.UED else None
    return DichotomyCertificate(kind, alpha, n_const=n_const, beta=beta)


def window_to_json(window: WindowSpec) -> dict:
    return {"n_min": window.n_min, "m_max": window.m_max, "triplet": window.triplet}


def window_from_json(obj) -> WindowSpec:
    return WindowSpec(int(obj["n_min"]), int(obj["m_max"]), bool(obj.get("triplet", False)))


def witness_to_json(w: Witness) -> dict:
    return {
        "m": w.m,
        "n": w.n,
        "direction": [float(v) for v in w.direction],
        "required_constant": logscalar_to_json(w.required_constant),
        "side": w.side,
    }


def witness_from_json(obj) -> Witness:
    return Witness(
        int(obj["m"]),
        int(obj["n"]),
        tuple(float(v) for v in obj["direction"]),
        logscalar_from_json(obj["required_constant"]),
        str(obj["side"]),
    )


def outcome_to_json(out: VerificationOutcome) -> dict:
    return {
        "verdict": "holds" if out.holds else "violated",
        "pairs_checked": out.pairs_checked,
        "min_slack": json_log(out.min_slack),
        "witness": witness_to_json(out.witness) if out.witness else None,
    }


def outcome_from_json(obj) -> VerificationOutcome:
    witness = witness_from_json(obj["witness"]) if obj.get("witness") else None
    return VerificationOutcome(
        obj["verdict"] == "holds", witness, int(obj["pairs_checked"]),
        _num_back(obj["min_slack"]),
    )


class Column(tuple):
    """The values that one place of a record takes across a list of records,
    in the shape of a ``RecordColumns``."""

    @cached_property
    def texts(self) -> list[str]:
        """json's text of each value (each must be a JSON scalar): one
        C-level ``dumps`` of the column, split, or one ``dumps`` per value
        when a value is a string, whose text may hold the separator. Made
        once: a report's CSV reuses the texts of the columns its JSON text
        wrote."""
        if not self or str in set(map(type, self)):
            return list(map(dumps, self))
        return dumps(self)[1:-1].split(", ")


@dataclass(frozen=True)
class RecordColumns:
    """``size`` records given by column: ``shape`` is one record (dicts,
    lists and scalars) with a ``Column`` of ``size`` values at each place
    where the records differ."""

    size: int
    shape: dict

    def records(self) -> list[dict]:
        """The records, each list and dict in them a new one."""
        return list(_members(self.shape, self.size))


def _members(value, size: int):
    """The value at one place of a record shape, in each of ``size`` records."""
    if type(value) is Column:
        return value
    if type(value) not in (dict, list):
        return repeat(value, size)
    places = value.values() if type(value) is dict else value
    rows = zip(*[_members(v, size) for v in places]) if value else repeat((), size)
    if type(value) is dict:
        return [dict(zip(value, row)) for row in rows]
    return list(map(list, rows))


def witness_family(rep: WitnessReport) -> RecordColumns:
    """The witness records of a family, by column: the members' m, n and
    required constants vary, the probe direction and side are shared."""
    logs = rep.required_logs
    # floats of a finite sum are finite (an overflow takes the slower form)
    if set(map(type, logs)) == {float} and math.isfinite(sum(logs)):
        signs = repeat(1, len(logs))
    else:
        # LogScalar.from_log: a zero constant (log -inf) has sign 0
        signs = [0 if v == -math.inf else 1 for v in logs]
        logs = list(map(json_log, logs))
    return RecordColumns(len(logs), {
        "m": Column(rep.ms),
        "n": Column(rep.ns),
        "direction": list(map(float, rep.direction)),
        "required_constant": {"sign": Column(signs), "logmag": Column(logs)},
        "side": "family",
    })


def witness_report_columns(rep: WitnessReport) -> dict:
    """The report with its witnesses as ``witness_family(rep)``, the form the
    command line writes as text."""
    return {
        "concept": rep.concept.value,
        "schedule": rep.schedule,
        "trend": rep.trend,
        "log_slope": rep.log_slope,
        "trial_alpha": rep.trial_alpha,
        "trial_beta": rep.trial_beta,
        "witnesses": witness_family(rep),
    }


def witness_report_to_json(rep: WitnessReport) -> dict:
    """The report, with one witness record per family member; each record
    has its own direction list."""
    report = witness_report_columns(rep)
    report["witnesses"] = report["witnesses"].records()
    return report


def witness_report_from_json(obj) -> WitnessReport:
    witnesses = [witness_from_json(w) for w in obj["witnesses"]]
    direction = witnesses[0].direction if witnesses else ()
    for w in witnesses:
        if (w.side, w.direction) != ("family", direction) or w.required_constant.sign < 0:
            raise ConfigError(f"witness {w!r} is not a member of one family")
    return WitnessReport(
        concept=Kind(obj["concept"]),
        schedule=str(obj["schedule"]),
        ms=tuple(w.m for w in witnesses),
        ns=tuple(w.n for w in witnesses),
        direction=direction,
        required_logs=tuple(w.required_constant.logmag for w in witnesses),
        trend=str(obj["trend"]),
        log_slope=float(obj["log_slope"]),
        trial_alpha=float(obj["trial_alpha"]),
        trial_beta=None if obj.get("trial_beta") is None else float(obj["trial_beta"]),
    )


def grid_point_to_json(pt: GridPoint) -> dict:
    return {
        "alpha": pt.alpha,
        "beta": pt.beta,
        "log_n_full": json_log(pt.log_n_full),
        "log_n_half": json_log(pt.log_n_half),
        "stable": pt.stable,
    }


def grid_point_from_json(obj) -> GridPoint:
    return GridPoint(
        float(obj["alpha"]),
        None if obj.get("beta") is None else float(obj["beta"]),
        _num_back(obj["log_n_full"]),
        _num_back(obj["log_n_half"]),
        bool(obj["stable"]),
    )


def uniform_estimate_to_json(est: UniformEstimate) -> dict:
    return {
        "alpha": est.alpha,
        "N": logscalar_to_json(est.n_value),
        "stable": est.stable,
        "grid": [grid_point_to_json(p) for p in est.table],
    }


def uniform_estimate_from_json(obj) -> UniformEstimate:
    return UniformEstimate(
        float(obj["alpha"]),
        logscalar_from_json(obj["N"]),
        bool(obj["stable"]),
        tuple(grid_point_from_json(p) for p in obj["grid"]),
    )


def exponential_estimate_to_json(est: ExponentialEstimate) -> dict:
    return {
        "alpha": est.alpha,
        "beta": est.beta,
        "N": logscalar_to_json(est.n_value),
        "stable": est.stable,
        "grid": [grid_point_to_json(p) for p in est.table],
    }


def exponential_estimate_from_json(obj) -> ExponentialEstimate:
    return ExponentialEstimate(
        float(obj["alpha"]),
        float(obj["beta"]),
        logscalar_from_json(obj["N"]),
        bool(obj["stable"]),
        tuple(grid_point_from_json(p) for p in obj["grid"]),
    )


def datko_report_to_json(rep: DatkoReport) -> dict:
    return {
        "form": rep.form,
        "side": rep.side,
        "direction": [float(v) for v in rep.direction],
        "d": rep.d,
        "c": rep.c,
        "verdict": rep.verdict,
        "worst": {"m": rep.worst[0], "n": rep.worst[1], "p": rep.worst[2]},
        "lhs_P_sum": logscalar_to_json(rep.lhs_p_sum),
        "lhs_Q_sum": logscalar_to_json(rep.lhs_q_sum),
        "tail_bound": logscalar_to_json(rep.tail_bound),
        "rhs": logscalar_to_json(rep.rhs),
        "checked": rep.checked,
        "max_tail_rhs_log": json_log(rep.max_tail_rhs_log),
    }


def datko_report_from_json(obj) -> DatkoReport:
    worst = obj["worst"]
    return DatkoReport(
        form=str(obj["form"]),
        side=str(obj["side"]),
        direction=tuple(float(v) for v in obj["direction"]),
        d=float(obj["d"]),
        c=None if obj.get("c") is None else float(obj["c"]),
        verdict=str(obj["verdict"]),
        worst=(int(worst["m"]), int(worst["n"]), int(worst["p"])),
        lhs_p_sum=logscalar_from_json(obj["lhs_P_sum"]),
        lhs_q_sum=logscalar_from_json(obj["lhs_Q_sum"]),
        tail_bound=logscalar_from_json(obj["tail_bound"]),
        rhs=logscalar_from_json(obj["rhs"]),
        checked=int(obj["checked"]),
        max_tail_rhs_log=_num_back(obj["max_tail_rhs_log"]),
    )


def profile_series_to_json(profile: TabulatedProfile) -> dict:
    return {
        "n_min": profile.n_min,
        "values": [logscalar_to_json(v) for v in profile.values],
    }


def profile_series_from_json(obj) -> TabulatedProfile:
    return TabulatedProfile(
        int(obj["n_min"]), tuple(logscalar_from_json(v) for v in obj["values"])
    )
