"""Report text: the column encoding of record lists against ``json.dumps``.

``cli._emit`` writes ``json.dumps(report, indent=2) + "\\n"``, but encodes
each list of records that share the first record's shape by column and
sends only the rest of the report through ``json.dumps`` (through the
module attribute ``cli.json``, which the benchmark's tracing replaces). The
bytes must not change, for any report tree: record lists whose keys differ
or come in another order fall back to ``json.dumps``. Witness families,
whose records are written from the family's columns, are checked with
logs of every kind (float, int, Fraction, +-inf), and their CSV against
the rows the per-witness loop wrote.
"""

import json
import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dichotomy import (
    DiagonalClosedForm,
    Kind,
    LogScalar,
    ProjectionFamily,
    SystemDescription,
    WitnessReport,
    cli,
    falsify,
    make_example,
    serialize,
)
from dichotomy.checkers import WitnessSchedule
from dichotomy.cli import _dumps, _records, main

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(-(2**200), 2**200),
    st.floats(),  # NaN and +-inf included
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e16, 5e-324]),
    st.text(max_size=6),  # non-ASCII and control characters included
)
keys = st.text(max_size=4)


@st.composite
def uniform_records(draw, children):
    """Records of one shape: scalars, lists of a fixed length, or a nested
    record at each key."""
    names = draw(st.lists(keys, max_size=4, unique=True))
    shape = {k: draw(st.sampled_from(["scalar", "list", "record"])) for k in names}
    width = {k: draw(st.integers(0, 3)) for k in names}
    inner = draw(st.lists(keys, max_size=3, unique=True))

    def value(k):
        if shape[k] == "scalar":
            return draw(scalars)
        if shape[k] == "list":
            return draw(st.lists(scalars, min_size=width[k], max_size=width[k]))
        return {j: draw(scalars) for j in inner}

    return [{k: value(k) for k in names} for _ in range(draw(st.integers(1, 5)))]


@st.composite
def record_lists(draw, children):
    """Uniform records, or uniform records with one record changed so that
    its shape differs."""
    records = draw(uniform_records(children))
    change = draw(st.sampled_from(["none", "reorder", "extra", "drop", "length", "child"]))
    target = records[draw(st.integers(0, len(records) - 1))]
    items = list(target.items())
    if change == "reorder" and len(items) > 1:
        target.clear()
        target.update(reversed(items))
    elif change == "extra":
        target[draw(keys) + "+"] = draw(scalars)
    elif change == "drop" and items:
        del target[items[0][0]]
    elif change == "length":
        for k, v in items:
            if isinstance(v, list):
                v.append(draw(scalars))
    elif change == "child" and items:
        target[items[-1][0]] = draw(children)
    return records


trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
        record_lists(children),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(trees)
@example([])
@example({})
@example([{}, {}])
@example({"a": [{"b": [], "c": {}}, {"b": [], "c": {}}]})
@example([{"x": True}, {"x": 1}, {"x": 1.0}, {"x": None}])
@example([{"d": [1.0, 0.0]}, {"d": [0.0]}, {"d": [0.0, 1.0, 2.0]}])
@example([{"a": 1, "b": 2}, {"b": 2, "a": 1}])
@example([{"{}": "\x00", "ké\n": "☃\t"}, {"{}": "\x001", "ké\n": ""}])
@example({"\x000": [{"a": 1}], "b": "\x000"})
# columns of one repeated text, and columns equal in value but not in text
@example([{"d": [1.0, 0.0], "s": "family"}, {"d": [1.0, 0.0], "s": "family"}])
@example([{"x": 0.0}, {"x": -0.0}])
@example([{"x": -0.0}, {"x": -0.0}])
@example([{"x": 1}, {"x": True}, {"x": 1.0}])
@example([{"x": math.nan}, {"x": math.nan}])
@example([{"x": math.inf}, {"x": math.inf}])
@example([{"x": "\x00"}, {"x": "\x00"}])
# a key, or a text every record repeats, equal to the template's slot string
@example([{cli._SLOT: 1}, {cli._SLOT: 2}])
@example([{"a": cli._SLOT, "b": 1}, {"a": cli._SLOT, "b": 2}])
def test_column_encoding_equals_json_dumps(tree):
    assert _dumps(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("family, by_column", [
    (serialize.RecordColumns(2, {"a": serialize.Column([1, 2]), "s": cli._SLOT}), False),
    (serialize.RecordColumns(0, {"a": serialize.Column([]), "s": "family"}), True),
], ids=["slot-literal", "empty"])
def test_record_columns_at_the_edges_equal_json_dumps(family, by_column):
    assert (_records(family, 1) is not None) == by_column
    report = {"x": family}
    assert _dumps(report) == json.dumps(report, indent=2, default=serialize.RecordColumns.records)


@settings(max_examples=100, deadline=None)
@given(uniform_records(st.nothing()), st.integers(0, 3))
def test_uniform_records_take_the_column_path(records, depth):
    text = _records(records, depth)
    assert text is not None
    assert _dumps(records) == json.dumps(records, indent=2)


def _emitted(tmp_path, monkeypatch, argv, rc):
    """Run the CLI with --report and --csv; return (report, report text,
    CSV), the report as ``_emit`` got it but with each witness family, which
    the CLI hands over by column, built by ``witness_report_to_json``."""
    seen, families = [], []
    emit, run = cli._emit, cli.falsify
    monkeypatch.setattr(cli, "_emit", lambda args, report, csv_text=None: (
        seen.append(report), emit(args, report, csv_text)))
    monkeypatch.setattr(cli, "falsify", lambda *a, **kw: (
        families.append(run(*a, **kw)), families[-1])[1])
    report, csv = tmp_path / "r.json", tmp_path / "r.csv"
    assert main([*argv, "--report", str(report), "--csv", str(csv)]) == rc
    tree = seen[0]
    holders = [tree["result"]] if tree["command"] == "falsify" else [
        claim["detail"] for claim in tree["claims"] if claim["type"] == "falsification"]
    assert len(holders) == len(families)
    for holder, rep in zip(holders, families):
        assert isinstance(holder["witnesses"], serialize.RecordColumns)
        holder.clear()
        holder.update(serialize.witness_report_to_json(rep))
    return tree, report.read_text(encoding="utf-8"), csv.read_text(encoding="utf-8")


def _falsify_ned(tmp_path, monkeypatch, k_max):
    """Run ``falsify`` on ned_example; return (report dict, report text, CSV)."""
    return _emitted(tmp_path, monkeypatch, [
        "falsify", "--gallery", "ned_example", "--concept", "UED", "--schedule",
        "odd_after_even", "--k-max", str(k_max), "--alpha", "0.25"], 1)


def _csv_loop(report) -> str:
    """The CSV rows the per-witness loop wrote: one per witness of a falsify
    report, none for a gallery-claims report."""
    rows = ["index,value_logmag,value_sign"]
    for w in report["result"]["witnesses"] if report["command"] == "falsify" else ():
        req = w["required_constant"]
        value = repr(req["logmag"]) if isinstance(req["logmag"], float) else str(req["logmag"])
        rows.append(f"{w['m'] - w['n']},{value},{req['sign']}")
    return "\n".join(rows) + "\n"


def test_long_falsify_report_is_json_dumps(tmp_path, monkeypatch):
    """The golden reports stop at k_max 20; the benchmark's runs at 5000."""
    report, text, csv = _falsify_ned(tmp_path, monkeypatch, 5000)
    assert len(report["result"]["witnesses"]) == 5001
    assert text == json.dumps(report, indent=2) + "\n"
    assert csv == _csv_loop(report)


def system_file(tmp_path, text):
    path = tmp_path / "system.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


# zero factors at even indices on both sides: the probe of coordinate 0 has a
# zero numerator (log -inf, sign 0) across one, that of coordinate 1 a zero
# denominator (log +inf)
ZERO_FACTORS = """[system]
dim = 2
source = diagonal
coord0 = parity: even=0, odd=1/2
coord1 = parity: even=0, odd=3
[projection]
mask = 1,0
"""
# coordinate 0 (always a zero factor) moves to Q(n) at n = 3 and 6 only
PER_INDEX = """[system]
dim = 2
source = diagonal
coord0 = const: value=0
coord1 = linear_exponent: sigma=-0.5, tau=0.25
[projection]
mask = 1,1
mask@3 = 0,1
mask@6 = 0,1
"""
DENSE = "[system]\ndim = 2\nsource = explicit\n" + "\n".join(
    f"A{k} = {0.5 + 0.01 * k},0; 0,{2 + k % 3}" for k in range(32)
) + "\n[projection]\nmatrix = 1,0; 0,0\n"


def _families(report) -> list:
    """The witness reports in a falsify or gallery-claims report."""
    return [report["result"]] if report["command"] == "falsify" else [
        claim["detail"] for claim in report["claims"] if claim["type"] == "falsification"]


def _logmags(report) -> set:
    """The kinds of the families' logmags: a type name, or "inf"/"-inf"."""
    return {v if isinstance(v, str) else type(v).__name__
            for family in _families(report) for v in (w["required_constant"]["logmag"]
                                                      for w in family["witnesses"])}


TOWER = ["falsify", "--gallery", "ned_not_ed_example", "--concept", "ED", "--k-max", "200"]
ADJACENT = ["--concept", "UED", "--schedule", "adjacent", "--k-max", "30"]


@pytest.mark.parametrize("argv, rc, kinds", [
    # the benchmark's tower family, and one whose exact logs are Fractions
    ([*TOWER, "--schedule", "tower_expanding"], 1, {"float"}),
    ([*TOWER, "--schedule", "tower_balanced"], 1, {"float"}),
    (["falsify", "--system", ZERO_FACTORS, *ADJACENT, "--coord", "0"], 0, {"float", "-inf"}),
    (["falsify", "--system", ZERO_FACTORS, *ADJACENT, "--coord", "1"], 0, {"float", "inf"}),
    (["falsify", "--system", PER_INDEX, *ADJACENT], 0, {"inf", "-inf"}),
    (["falsify", "--system", DENSE, "--concept", "UED", "--schedule", "from_start",
      "--k-max", "31", "--coord", "1"], 0, {"float"}),
    (["gallery-claims", "--name", "ned_example"], 0, {"float"}),
], ids=["tower", "tower-fractions", "zero-numerators", "zero-denominators",
        "per-index-mask", "dense", "gallery-claims"])
def test_families_of_every_log_kind_are_json_dumps(tmp_path, monkeypatch, argv, rc, kinds):
    if "--system" in argv:
        at = argv.index("--system") + 1
        argv = [*argv[:at], system_file(tmp_path, argv[at]), *argv[at + 1:]]
    report, text, csv = _emitted(tmp_path, monkeypatch, argv, rc)
    assert text == json.dumps(report, indent=2) + "\n"
    assert csv == _csv_loop(report)
    assert _logmags(report) == kinds
    # the text reads back as the same families
    for written, family in zip(_families(json.loads(text)), _families(report)):
        parsed = serialize.witness_report_from_json(written)
        assert serialize.witness_report_to_json(parsed) == family


def int_family():
    # int factor logs, an int rate and a probe inside P(n)
    sys_ = SystemDescription(2, DiagonalClosedForm([
        lambda n: LogScalar.from_log(3), lambda n: LogScalar.from_log(-2)]))
    proj = ProjectionFamily(2, mask=(True, False))
    return falsify(sys_, proj, Kind.UED, WitnessSchedule("from_start", lambda k: (k, 0), 0),
                   range(40), alpha=2)


def tower_family():
    entry = make_example("ned_not_ed_example")
    return falsify(entry.system, entry.projection, Kind.ED, entry.schedule("tower_balanced"),
                   range(201))


@pytest.mark.parametrize("family, logs, kinds", [
    (int_family, {int}, {"int"}),
    (tower_family, {float, Fraction}, {"float"}),  # a report holds a Fraction as a float
])
def test_exact_log_families_are_json_dumps(family, logs, kinds):
    rep = family()
    assert set(map(type, rep.required_logs)) == logs
    report = {"command": "falsify", "result": serialize.witness_report_to_json(rep)}
    by_column = {"command": "falsify", "result": serialize.witness_report_columns(rep)}
    assert _dumps(by_column) == _dumps(report) == json.dumps(report, indent=2)
    assert cli.emit_series(by_column) == cli.emit_series(report) == _csv_loop(report)
    assert _logmags(report) == kinds


logs = st.one_of(
    st.floats(),  # NaN and +-inf included
    st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
    st.integers(-(2**70), 2**70),
    st.fractions(),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(logs, min_size=1, max_size=6), st.lists(st.floats(), min_size=1, max_size=3),
       st.data())
@example([-0.0], [1.0], None)
@example([-0.0, -0.0], [-0.0, 0.0], None)
@example([0.0, -0.0, 0.0], [0.0], None)
@example([-0.0, 1.5, -math.inf], [1.0, 0.0], None)
@example([-0.0, Fraction(1, 3), 7], [0.5], None)
@example([0.0, 0.0], [math.nan], None)  # a shared NaN is written once per record
def test_family_columns_write_the_records(required, direction, data):
    """A family written from its columns is the family written from its
    records, for any logs, indices and probe."""
    size = len(required)
    ms = ns = range(size)  # the examples' members are the pairs (k, k)
    if data is not None:
        indices = st.lists(st.integers(-3, 2**70), min_size=size, max_size=size)
        ms, ns = data.draw(indices), data.draw(indices)
    rep = WitnessReport(Kind.UED, "s", tuple(ms), tuple(ns), tuple(direction), tuple(required),
                        "bounded", 0.0, 0.5)
    records = {"command": "falsify", "result": serialize.witness_report_to_json(rep)}
    by_column = {"command": "falsify", "result": serialize.witness_report_columns(rep)}
    assert _dumps(by_column) == _dumps(records) == json.dumps(records, indent=2)
    assert cli.emit_series(by_column) == cli.emit_series(records) == _csv_loop(records)


@pytest.mark.parametrize("argv, rc", [
    (["falsify", "--gallery", "ned_example", "--concept", "UED", "--schedule",
      "odd_after_even", "--k-max", "50", "--alpha", "0.25"], 1),
    (["gallery-claims", "--name", "ned_not_ed_example"], 0),
], ids=["falsify", "gallery-claims"])
def test_cli_writes_families_without_a_record_per_member(tmp_path, monkeypatch, argv, rc):
    def refused(*args):
        raise AssertionError("a record built per member")

    monkeypatch.setattr(serialize, "witness_report_to_json", refused)
    monkeypatch.setattr(serialize.RecordColumns, "records", refused)
    report, csv = tmp_path / "r.json", tmp_path / "r.csv"
    assert main([*argv, "--report", str(report), "--csv", str(csv)]) == rc
    assert report.stat().st_size > 0 and csv.stat().st_size > 0


@pytest.mark.parametrize("argv, grids", [
    (["estimate", "--gallery", "ued_example", "--kind", "ued", "--window", "0..30"],
     lambda r: [r["result"]["grid"]]),
    (["estimate", "--gallery", "ed_example", "--kind", "ed", "--strong", "--window", "0..30"],
     lambda r: [r["result"]["grid"]]),
    (["gallery-claims", "--name", "ed_example", "--window", "0..30"],
     lambda r: [c["detail"]["grid"] for c in r["claims"] if c["type"] == "strong-instability"]),
], ids=["estimate-ued", "estimate-ed-strong", "claims-ed"])
def test_default_grid_reports_take_the_column_path(tmp_path, monkeypatch, argv, grids):
    """The default grids are Python floats, which the column encoding takes
    (it leaves numpy scalars to json.dumps)."""
    seen = []
    monkeypatch.setattr(cli, "_emit", lambda args, report, csv_text=None: seen.append(report))
    main(argv)
    found = grids(seen[0])
    assert found and all(_records(grid, 2) is not None for grid in found)
    assert all(type(p["alpha"]) is float for grid in found for p in grid)


def test_emit_calls_dumps_through_cli_json(tmp_path, monkeypatch):
    """Tracing swaps ``cli.json`` for a shim whose ``dumps`` it times, so
    emission must reach ``dumps`` through that attribute."""
    calls = []
    shim = types.SimpleNamespace(**vars(json))
    shim.dumps = lambda *args, **kwargs: (calls.append(args[0]), json.dumps(*args, **kwargs))[1]
    monkeypatch.setattr(cli, "json", shim)
    report, text, _ = _falsify_ned(tmp_path, monkeypatch, 30)
    assert len(calls) == 1
    assert calls[0]["result"]["witnesses"] != report["result"]["witnesses"]  # the placeholder
    assert text == json.dumps(report, indent=2) + "\n"
    # a list that cannot be spliced back falls back to json.dumps, also through the shim
    calls.clear()
    assert _dumps({"a": [{"b": 1}], "c": "\x000"}) == json.dumps(
        {"a": [{"b": 1}], "c": "\x000"}, indent=2)
    assert len(calls) == 2



def test_fallback_writes_families_as_records():
    """A report whose text holds a placeholder falls back to json.dumps,
    which writes a family as its records; a column json cannot write is left
    to json.dumps to name."""
    entry = make_example("sed_example")
    rep = falsify(entry.system, entry.projection, Kind.UED,
                  entry.schedule("odd_after_even"), range(6), alpha=1.0)
    by_column = {"note": "\x000", "result": serialize.witness_report_columns(rep)}
    records = {"note": "\x000", "result": serialize.witness_report_to_json(rep)}
    assert _dumps(by_column) == json.dumps(records, indent=2)
    odd = serialize.RecordColumns(2, {"a": serialize.Column([1, np.int64(2)])})
    with pytest.raises(TypeError, match="int64"):
        _dumps({"x": odd})
