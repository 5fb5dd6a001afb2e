"""The traced benchmark run wraps functions of the package by name; a
refactor that renames or removes one would otherwise break ``--trace 1``
silently. The benchmark's instrumentation is imported from its file."""

import importlib.util
from pathlib import Path

from dichotomy import checkers, cli, system

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_targets_resolve():
    layers = _load_layers()
    for name, (module, attr) in layers.SPAN_POINTS.items():
        assert callable(getattr(module, attr, None)), name
    counted = [
        (system, "restricted_extremes"),
        (system, "restricted_ratio_extremes"),
        (checkers._PairExtremes, "logs"),
        (system.SystemDescription, "diag_factor"),
    ]
    for owner, attr in counted:
        assert callable(getattr(owner, attr, None)), attr
    # installing either instrumentation and removing it leaves the package as it was
    before = {attr: getattr(owner, attr) for owner, attr in counted}
    with layers.SpanRecorder(0).installed():
        pass
    with layers.Counters().installed():
        assert system.restricted_extremes is not before["restricted_extremes"]
    assert {attr: getattr(owner, attr) for owner, attr in counted} == before


def test_traced_falsify_records_both_emission_spans(tmp_path):
    """The report text of a falsify run reaches ``json.dumps`` through
    ``cli.json`` and its CSV goes through ``cli.emit_series``: both are
    traced points of the benchmark's span passes."""
    layers = _load_layers()
    recorder = layers.SpanRecorder(0)
    argv = ["falsify", "--gallery", "ned_example", "--concept", "UED", "--schedule",
            "odd_after_even", "--k-max", "40", "--alpha", "0.25",
            "--report", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")]
    with recorder.installed():
        assert recorder.run_job("falsify", lambda: cli.main(argv)) == 1
    names = [span[0] for span in recorder.spans]
    assert names.count("emit.json") == 1 and names.count("emit.csv") == 1
    assert "checkers.falsify" in names
