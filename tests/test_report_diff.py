"""``tools/report_diff.py`` names the fields that moved between two trees'
reports, not just the file. The script is imported from its file."""

import importlib.util
from pathlib import Path

REPORT_DIFF = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"


def _load_report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", REPORT_DIFF)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_field_diff_names_each_moved_path():
    report_diff = _load_report_diff()
    base = {"verdict": "holds", "reports": [{"worst": {"m": 4, "n": 3}, "rhs": 1.5}, {"d": 0.5}],
            "window": {"n_min": 0}, "old": 1}
    head = {"verdict": "holds", "reports": [{"worst": {"m": 4, "n": 0}, "rhs": 1.5}, {"d": 0.5},
                                            {"d": 1}],
            "window": {"n_min": 0, "triplet": False}}
    assert report_diff.field_diff(base, head) == [
        "reports[0].worst.n: 3 -> 0",
        "reports[2]: (absent) -> {\"d\": 1}",
        "window.triplet: (absent) -> false",
        "old: 1 -> (absent)",
    ]
    assert report_diff.field_diff(base, base) == []
    # an int and a float of one value print differently, so they differ
    assert report_diff.field_diff({"x": 0}, {"x": 0.0}) == ["x: 0 -> 0.0"]


def test_moved_reads_json_fields_and_csv_lines(tmp_path):
    report_diff = _load_report_diff()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text('{"status": {"dense-scan/job": 0}, "long": "%s"}' % ("x" * 100))
    b.write_text('{"status": {"dense-scan/job": 1}, "long": "%s"}' % ("y" * 100))
    lines = report_diff.moved(a, b)
    assert lines[0] == "status.dense-scan/job: 0 -> 1"
    assert lines[1].startswith('long: "xxx') and lines[1].endswith('...')
    assert len(lines[1]) < 2 * report_diff.VALUE_CHARS + 20
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("h\n1\n2\n3\n")
    b.write_text("h\n1\n5\n3\n4\n")
    assert report_diff.moved(a, b) == ["lines 3, 5 (base 4 lines, head 5)"]
