import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dichotomy
from dichotomy import serialize
from test_config import DIAGONAL, MALFORMED_FILES, system_file

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


def test_non_finite_projection_is_reported(tmp_path):
    for entry in ("nan", "inf"):
        path = tmp_path / f"{entry}.cfg"
        path.write_text(
            f"""
[system]
dim = 2
source = explicit
A0 = 1,0; 0,1
A1 = 2,0; 0,1

[projection]
matrix = {entry},0; 0,0
""",
            encoding="utf-8",
        )
        for command in (
            ["verify", "--cert", "UED:N=1,alpha=0.1"],
            ["estimate", "--kind", "ued"],
        ):
            report = tmp_path / f"{entry}-{command[0]}.json"
            proc = run_cli(
                *command, "--system", str(path), "--window", "0..1", "--report", str(report)
            )
            assert proc.returncode == 2
            assert "Traceback" not in proc.stderr
            error = json.loads(report.read_text())["error"]
            assert error["type"] == "InvalidProjectionError"


def test_repeated_in_process_runs_do_not_share_arguments(tmp_path, capsys):
    from dichotomy.cli import main

    argv = ["verify", "--gallery", "ued_example", "--cert", "UED:N=1,alpha=0.5",
            "--window", "0..4"]
    assert main(argv + ["--triplet"]) == 0
    triplet = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    pair = json.loads(capsys.readouterr().out)
    assert triplet["window"]["triplet"] and not pair["window"]["triplet"]
    assert pair["result"]["pairs_checked"] == 15


NON_IDEMPOTENT = """
[system]
dim = 2
source = explicit
A0 = 1,0; 0,1
A1 = 2,0; 0,3

[projection]
matrix = 2,0; 0,0
"""


def _error_report(tmp_path, argv):
    from dichotomy.cli import main

    report = tmp_path / "error.json"
    assert main([*argv, "--report", str(report)]) == 2
    return json.loads(report.read_text())["error"]["type"]


@pytest.mark.parametrize(
    "argv, error",
    [
        # non-finite certificate constants and tolerances
        (["verify", "--cert", "UED:N=nan,alpha=0.5"], "InvalidCertificateError"),
        (["verify", "--cert", "UED:N=inf,alpha=0.5"], "InvalidCertificateError"),
        (["verify", "--cert", "ED:N=1,alpha=0.5,beta=inf"], "InvalidCertificateError"),
        (["verify", "--cert", "UED:N=1,alpha=inf"], "InvalidCertificateError"),
        (["verify", "--cert", "UED:N=1,alpha=2", "--tol", "nan"], "InvalidCertificateError"),
        (["verify", "--cert", "UED:N=1,alpha=2", "--tol", "inf", "--triplet"],
         "InvalidCertificateError"),
        # non-finite summation constants
        (["datko", "--form", "ued", "--D", "nan", "--d", "0.1"], "InvalidConstantsError"),
        (["datko", "--form", "ued", "--D", "inf", "--d", "0.1"], "InvalidConstantsError"),
        (["datko", "--form", "ed", "--D", "2", "--c-weight", "nan", "--d", "0.1"],
         "InvalidConstantsError"),
        (["datko", "--form", "ued", "--D", "2", "--d", "nan"], "InvalidConstantsError"),
        # empty estimate grids
        (["estimate", "--kind", "ued", "--alphas", ","], "EmptyFeasibleSetError"),
        (["estimate", "--kind", "ed", "--alphas", ","], "EmptyFeasibleSetError"),
        (["estimate", "--kind", "ed", "--betas", ","], "EmptyFeasibleSetError"),
        (["estimate", "--kind", "ed", "--beta-points", "0"], "EmptyFeasibleSetError"),
        (["estimate", "--kind", "ued", "--alpha-points", "0"], "EmptyFeasibleSetError"),
        # a probe coordinate outside the system
        (["falsify", "--concept", "UED", "--schedule", "odd_after_even", "--coord", "5"],
         "ScheduleOutOfRangeError"),
        (["falsify", "--concept", "UED", "--schedule", "odd_after_even", "--coord", "-1"],
         "ScheduleOutOfRangeError"),
        # non-finite estimate grids and rates
        (["estimate", "--kind", "ued", "--alphas", "inf"], "InvalidCertificateError"),
        (["estimate", "--kind", "ued", "--alphas", "nan"], "InvalidCertificateError"),
        (["estimate", "--kind", "ed", "--betas", "inf"], "InvalidCertificateError"),
        (["estimate", "--kind", "ned", "--alpha", "inf"], "InvalidCertificateError"),
        # profiles without a real log at some index of the window
        (["verify", "--cert", "NED:alpha=0.5,profile=power:2:nan"], "InvalidCertificateError"),
        (["verify", "--cert", "NED:alpha=0.5,profile=const:nan"], "InvalidCertificateError"),
        (["verify", "--cert", "NED:alpha=0.5,profile=power:-1:1"], "InvalidCertificateError"),
        (["falsify", "--concept", "NED", "--schedule", "from_start", "--profile", "power:-1:1"],
         "InvalidCertificateError"),
        (["datko", "--form", "ned", "--s-profile", "power:-1:1", "--d", "0.1"],
         "InvalidCertificateError"),
        # system files: "--system" is followed by the file's text
        *((["verify", "--cert", "UED:N=1,alpha=0.5", "--system", text], "ConfigError")
          for text in MALFORMED_FILES),
        (["verify", "--cert", "UED:N=1,alpha=0.5", "--system",
          system_file(DIAGONAL, "matrix = 1,0; 0,0")], "InvalidProjectionError"),
        *(([*cmd, "--system", system_file(DIAGONAL.replace(
            "const: value=0.5", "linear_exponent: sigma=1e308, tau=1e308"))], "LogOverflowError")
          for cmd in (["verify", "--cert", "UED:N=1,alpha=0.5"],
                      ["falsify", "--concept", "UED", "--schedule", "odd_after_even"])),
    ],
)
def test_invalid_inputs_are_reported(tmp_path, capsys, argv, error):
    from dichotomy.cli import main

    source = ["--gallery", "ued_example"]
    if "--system" in argv:
        at = argv.index("--system") + 1
        path = tmp_path / "system.cfg"
        path.write_text(argv[at], encoding="utf-8")
        argv, source = [*argv[:at], str(path), *argv[at + 1:]], []
    if argv[0] != "falsify":
        source += ["--window", "0..10"]
    if error == "ConfigError":
        # a configuration error is reported on stderr, before any report
        assert main([*argv, *source]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
    else:
        assert _error_report(tmp_path, [*argv, *source]) == error


def test_non_idempotent_projection_is_reported(tmp_path):
    path = tmp_path / "p.cfg"
    path.write_text(NON_IDEMPOTENT, encoding="utf-8")
    argv = ["verify", "--system", str(path), "--cert", "UED:N=10,alpha=0.1", "--window", "0..1"]
    assert _error_report(tmp_path, argv) == "InvalidProjectionError"
