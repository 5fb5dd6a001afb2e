import json
import os
import subprocess
import sys
from pathlib import Path

import dichotomy
from dichotomy import serialize

BASE = [sys.executable, "-m", "dichotomy"]
# the child runs the same package this process imported, installed or not
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(Path(dichotomy.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
    ),
}


def run_cli(*args, check=None):
    proc = subprocess.run(BASE + list(args), capture_output=True, text=True, env=ENV)
    if check is not None:
        assert proc.returncode == check, proc.stderr or proc.stdout
    return proc


def test_verify_holds_exit_zero():
    proc = run_cli(
        "verify", "--gallery", "ued_example", "--cert", "UED:N=1,alpha=0.5",
        "--window", "0..50", check=0,
    )
    report = json.loads(proc.stdout)
    assert report["schema_version"] == 1
    assert report["result"]["verdict"] == "holds"
    assert report["result"]["pairs_checked"] == 1326


def test_verify_violated_exit_one():
    run_cli(
        "verify", "--gallery", "ned_example", "--cert", "UED:N=100,alpha=0.01",
        "--window", "0..300", check=1,
    )


def test_invalid_window_exit_two():
    proc = run_cli(
        "verify", "--gallery", "ued_example", "--cert", "UED:N=1,alpha=0.5",
        "--window", "5..3",
    )
    assert proc.returncode == 2
    assert "window" in proc.stderr


def test_reports_are_deterministic(tmp_path):
    args = [
        "falsify", "--gallery", "ned_example", "--concept", "UED",
        "--schedule", "odd_after_even", "--k-max", "12", "--alpha", "0.25",
    ]
    first = run_cli(*args, "--report", str(tmp_path / "a.json"),
                    "--csv", str(tmp_path / "a.csv"), check=1)
    second = run_cli(*args, "--report", str(tmp_path / "b.json"),
                     "--csv", str(tmp_path / "b.csv"), check=1)
    assert first.stdout == second.stdout == ""
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_falsify_csv_rows(tmp_path):
    run_cli(
        "falsify", "--gallery", "ned_example", "--concept", "UED",
        "--schedule", "odd_after_even", "--k-max", "4", "--alpha", "0.25",
        "--report", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv"),
        check=1,
    )
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert lines[0] == "index,value_logmag,value_sign"
    assert len(lines) == 1 + 5
    assert all(line.split(",")[0] == "1" for line in lines[1:])  # m - n = 1


def test_profile_csv_is_nondecreasing(tmp_path):
    run_cli(
        "estimate", "--gallery", "ned_example", "--kind", "ned",
        "--alpha", "0.6931471805599453", "--window", "0..20",
        "--report", str(tmp_path / "p.json"), "--csv", str(tmp_path / "p.csv"),
        check=0,
    )
    rows = (tmp_path / "p.csv").read_text().strip().splitlines()[1:]
    values = [float(r.split(",")[1]) for r in rows]
    assert values == sorted(values)
    assert len(values) == 21


def test_gallery_claims_reproduced():
    proc = run_cli(
        "gallery-claims", "--name", "sed_example",
        "--c1", "0.0183156", "--c2", "7.389056", check=0,
    )
    report = json.loads(proc.stdout)
    assert report["all_reproduced"] is True
    assert [c["type"] for c in report["claims"]] == ["certificate", "falsification"]


def test_gallery_claims_exponent_notation_params():
    proc = run_cli(
        "gallery-claims", "--name", "sed_example", "--c1", "e^-4", "--c2", "e^2",
        "--window", "0..80", check=0,
    )
    report = json.loads(proc.stdout)
    assert report["all_reproduced"] is True


def test_datko_exit_codes():
    run_cli(
        "datko", "--gallery", "ued_example", "--from-cert", "UED:N=1,alpha=0.5",
        "--d", "0.25", "--window", "0..30", "--m-trunc", "120", check=0,
    )
    # no tail certificate: the P side cannot conclude
    proc = run_cli(
        "datko", "--gallery", "ued_example", "--form", "ued", "--D", "100",
        "--d", "0.25", "--window", "0..20", "--m-trunc", "60",
    )
    assert proc.returncode == 3
    # strong admissibility gate rejected up front
    proc = run_cli(
        "datko", "--gallery", "sed_example", "--form", "ed", "--D", "5",
        "--c-weight", "1", "--d", "1", "--strong",
        "--window", "0..10", "--m-trunc", "60",
    )
    assert proc.returncode == 2


def test_falsify_bounded_exit_zero():
    run_cli(
        "falsify", "--gallery", "ued_example", "--concept", "UED",
        "--schedule", "odd_after_even", "--k-max", "10", "--alpha", "0.5", check=0,
    )


def test_explicit_system_file(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text(
        """
# two diagonal steps, split along the first axis
[system]
dim = 2
source = explicit
A0 = 1,0; 0,1
A1 = 2,0; 0,1
A2 = 1/2,0; 0,3

[projection]
matrix = 1,0; 0,0
""",
        encoding="utf-8",
    )
    proc = run_cli(
        "verify", "--system", str(path), "--cert", "UED:N=10,alpha=0.1",
        "--window", "0..2", check=0,
    )
    assert json.loads(proc.stdout)["result"]["verdict"] == "holds"


def test_diagonal_system_file_with_exponent_numbers(tmp_path):
    path = tmp_path / "diag.cfg"
    path.write_text(
        """
[system]
dim = 2
source = diagonal
coord0 = linear_exponent: sigma=-1, tau=e^0
coord1 = linear_exponent: sigma=1, tau=1/2

[projection]
mask = 1,0
""",
        encoding="utf-8",
    )
    run_cli(
        "verify", "--system", str(path), "--cert", "UED:N=15,alpha=0.25",
        "--window", "0..10", check=0,
    )


def test_gallery_system_file(tmp_path):
    path = tmp_path / "g.cfg"
    path.write_text(
        """
[system]
source = gallery
name = ned_example
b = 1/2
c = 1
""",
        encoding="utf-8",
    )
    run_cli(
        "verify", "--system", str(path), "--cert",
        "NED:alpha=0.6931471805599453,profile=power:2:1", "--window", "0..40", check=0,
    )


def test_config_errors_carry_line_context(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(
        """
[system]
dim = 2
source = explicit
A0 = 1,0; 0,oops
""",
        encoding="utf-8",
    )
    proc = run_cli(
        "verify", "--system", str(path), "--cert", "UED:N=1,alpha=0.5",
        "--window", "0..2",
    )
    assert proc.returncode == 2
    assert "line 5" in proc.stderr


def test_report_roundtrip_reparses_identically(tmp_path):
    proc = run_cli(
        "falsify", "--gallery", "sed_example", "--concept", "UED",
        "--schedule", "odd_after_even", "--k-max", "9", "--alpha", "1.0", check=1,
    )
    report = json.loads(proc.stdout)
    parsed = serialize.witness_report_from_json(report["result"])
    assert serialize.witness_report_to_json(parsed) == report["result"]
    assert json.dumps(serialize.witness_report_to_json(parsed)) == json.dumps(report["result"])

    proc2 = run_cli(
        "datko", "--gallery", "ned_example",
        "--from-cert", "NED:alpha=0.6931471805599453,profile=power:2:1",
        "--d", "0.3", "--window", "0..20", "--m-trunc", "80", check=0,
    )
    report2 = json.loads(proc2.stdout)
    for payload in report2["reports"]:
        parsed2 = serialize.datko_report_from_json(payload)
        assert serialize.datko_report_to_json(parsed2) == payload

    proc3 = run_cli(
        "verify", "--gallery", "ned_example", "--cert", "UED:N=100,alpha=0.01",
        "--window", "0..250", check=1,
    )
    report3 = json.loads(proc3.stdout)
    parsed3 = serialize.outcome_from_json(report3["result"])
    assert serialize.outcome_to_json(parsed3) == report3["result"]
    parsed_cert = serialize.certificate_from_json(report3["cert"])
    assert serialize.certificate_to_json(parsed_cert) == report3["cert"]


def test_estimate_grid_report(tmp_path):
    proc = run_cli(
        "estimate", "--gallery", "ued_example", "--kind", "ued",
        "--alphas", "0.1,0.3,0.5", "--window", "0..40", check=0,
    )
    report = json.loads(proc.stdout)
    est = serialize.uniform_estimate_from_json(report["result"])
    assert est.alpha == 0.5
    assert est.stable
    proc2 = run_cli(
        "estimate", "--gallery", "ed_example", "--kind", "ed", "--strong",
        "--window", "0..60", check=1,
    )
    report2 = json.loads(proc2.stdout)
    est2 = serialize.exponential_estimate_from_json(report2["result"])
    assert all(not p.stable for p in est2.table)


def test_unknown_gallery_name_is_usage_error():
    proc = run_cli(
        "verify", "--gallery", "mystery", "--cert", "UED:N=1,alpha=0.5",
        "--window", "0..5",
    )
    assert proc.returncode == 2


def test_verify_without_witness_emits_header_only_csv(tmp_path):
    run_cli(
        "verify", "--gallery", "ued_example", "--cert", "UED:N=1,alpha=0.5",
        "--window", "0..10", "--csv", str(tmp_path / "v.csv"),
        "--report", str(tmp_path / "v.json"), check=0,
    )
    assert (tmp_path / "v.csv").read_text() == "index,value_logmag,value_sign\n"


def test_numerical_error_is_named_in_report(tmp_path):
    proc = run_cli(
        "falsify", "--gallery", "ned_example", "--concept", "NED",
        "--schedule", "odd_after_even", "--k-max", "5",
        "--report", str(tmp_path / "e.json"),
    )
    assert proc.returncode == 2
    report = json.loads((tmp_path / "e.json").read_text())
    assert report["error"]["type"] == "InvalidCertificateError"


def test_dense_trajectory_overflow_is_reported(tmp_path):
    path = tmp_path / "blowup.cfg"
    path.write_text(
        """
[system]
dim = 2
source = explicit
A0 = 1,0; 0,1
A1 = 1e200,0; 0,1
A2 = 1e200,0; 0,1
A3 = 1e200,0; 0,1

[projection]
matrix = 1,0; 0,0
""",
        encoding="utf-8",
    )
    proc = run_cli(
        "datko", "--system", str(path), "--window", "0..1", "--d", "0.1",
        "--form", "ued", "--D", "2", "--m-trunc", "3",
        "--report", str(tmp_path / "d.json"),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    report = json.loads((tmp_path / "d.json").read_text())
    assert report["error"]["type"] == "DenseOverflowError"
