import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dichotomy
from dichotomy import (
    ConstantProfile,
    DichotomyCertificate,
    Kind,
    LogScalar,
    ScaledProfile,
    ShiftedPowerProfile,
    TabulatedProfile,
    TowerExponentProfile,
    serialize,
)
from dichotomy.config import parse_system_file
from dichotomy.system import compatibility_defect
from test_config import DIAGONAL, EXPLICIT, MALFORMED_FILES, system_file

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


def test_start_up_imports_stay_lazy():
    # each benchmark job's set-up imports the command line; the modules below
    # load only when a run needs them, and ``logging`` never from the package
    code = ("import sys, dichotomy, dichotomy.cli; "
            "print(' '.join(m for m in ('dichotomy._dense_plan', 'dichotomy._datko_diagonal', "
            "'logging') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""

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


def test_gallery_claims_window_override_keeps_its_start(capsys):
    from dichotomy.cli import main

    # ed_example holds a certificate claim and a strong-instability claim
    assert main(["gallery-claims", "--name", "ed_example", "--window", "5..30"]) == 0
    claims = json.loads(capsys.readouterr().out)["claims"]
    windows = [c["window"] for c in claims if "window" in c]
    assert windows == [{"n_min": 5, "m_max": 30, "triplet": False}] * 2


@pytest.mark.parametrize("kind", ["ued", "ed"])
def test_default_alpha_grid_stays_in_the_declared_range(tmp_path, capsys, kind):
    from dichotomy.cli import main

    # A0 and A1 only: a one-index window at 1 has no pair (2, 1) to read
    path = tmp_path / "two.cfg"
    path.write_text(system_file(EXPLICIT), encoding="utf-8")
    argv = ["estimate", "--system", str(path), "--kind", kind, "--window", "1..1"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["alpha"] == 1.0


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


@pytest.mark.parametrize(
    "argv",
    [
        ["gallery-claims", "--name", "ned_not_ed_example", "--c", "inf", "--window", "0..5"],
        ["gallery-claims", "--name", "sed_example", "--c1", "inf", "--window", "0..5"],
        ["verify", "--gallery", "ned_example", "--c", "inf", "--cert", "UED:N=1,alpha=0.1",
         "--window", "0..5"],
        ["datko", "--gallery", "sed_example", "--c2", "inf", "--form", "ued", "--D", "2",
         "--d", "0.1", "--window", "0..5", "--m-trunc", "10"],
    ],
)
def test_non_finite_gallery_parameter_is_reported(tmp_path, argv):
    # reported as the parameter, not as a certificate or an overflow it causes
    from dichotomy.cli import main

    report = tmp_path / "error.json"
    assert main([*argv, "--report", str(report)]) == 2
    error = json.loads(report.read_text())["error"]
    assert error["type"] == "ParamOutOfRangeError"
    assert "must be finite" in error["message"]


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
    parsed_window = serialize.window_from_json(report3["window"])
    assert serialize.window_to_json(parsed_window) == report3["window"]

    proc4 = run_cli(
        "estimate", "--gallery", "ned_not_ed_example", "--kind", "ned", "--alpha", "1",
        "--window", "0..12", check=0,
    )
    report4 = json.loads(proc4.stdout)
    parsed4 = serialize.profile_series_from_json(report4["profile"])
    assert serialize.profile_series_to_json(parsed4) == report4["profile"]
    assert json.dumps(serialize.profile_series_to_json(parsed4)) == json.dumps(report4["profile"])


@pytest.mark.parametrize("profile", [
    ConstantProfile(2.0),
    ShiftedPowerProfile(2.0, 1.5),
    TowerExponentProfile(),
    ScaledProfile(ShiftedPowerProfile(1.0, 2.0), -0.25),
    # a zero factor, and an int log factor beyond float precision
    pytest.param(ScaledProfile(ConstantProfile(2.0), -math.inf), id="scaled-zero"),
    pytest.param(ScaledProfile(ConstantProfile(2.0), 2**70 + 1), id="scaled-bigint"),
    # a zero value (log -inf) and an int log beyond float precision
    TabulatedProfile(3, (LogScalar.zero(), LogScalar.from_log(2**70 + 1),
                         LogScalar.from_log(0.5))),
], ids=lambda p: p.describe()["form"])
def test_ned_certificates_round_trip_every_profile_form(profile):
    # strict JSON: every log is a number or "inf" / "-inf", as in a report
    cert = DichotomyCertificate(Kind.NED, alpha=0.5, profile=profile)
    text = json.dumps(serialize.certificate_to_json(cert), allow_nan=False)
    assert serialize.certificate_from_json(json.loads(text)) == cert


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


@pytest.mark.parametrize("argv", [
    ["--gallery", "ued_example", "--kind", "ued", "--alphas", "0.1,0.3,0.5", "--window", "0..40"],
    ["--gallery", "ed_example", "--kind", "ed", "--window", "0..20"],
])
def test_estimate_grid_csv_has_one_row_per_grid_point(tmp_path, argv):
    from dichotomy.cli import main

    report, csv = tmp_path / "e.json", tmp_path / "e.csv"
    main(["estimate", *argv, "--report", str(report), "--csv", str(csv)])
    grid = json.loads(report.read_text(encoding="utf-8"))["result"]["grid"]
    rows = csv.read_text(encoding="utf-8").splitlines()
    assert len(grid) > 1
    assert rows == ["index,value_logmag,value_sign"] + [
        f"{i},{point['log_n_full']},1" for i, point in enumerate(grid)
    ]


def test_mask_change_across_a_nonzero_factor_is_incompatible(tmp_path, capsys):
    from dichotomy.cli import main

    # coordinate 0 leaves P at 3, but its factor a(3) = 0.5 does not annihilate it
    text = system_file(DIAGONAL, "mask = 1,0\nmask@3 = 0,0")
    sys_, proj, _ = parse_system_file(text)
    assert [compatibility_defect(sys_, proj, n) for n in range(4)] == [0.0, 0.0, 0.5, 0.5]
    path = tmp_path / "moving.cfg"
    path.write_text(text, encoding="utf-8")
    argv = ["verify", "--system", str(path), "--cert", "UED:N=1,alpha=0.1", "--window", "0..5"]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "IncompatibleProjectionError"
    assert "at n=2 " in error["message"]


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


def test_a_run_too_large_for_memory_is_an_error(tmp_path):
    # numpy refuses the 6.94 EiB array of the family's parameters at once, so
    # nothing is allocated: exit status 2 and the error report, not the
    # traceback and exit status 1 of an uncaught exception
    proc = run_cli(
        "falsify", "--gallery", "ned_example", "--concept", "UED",
        "--schedule", "odd_after_even", "--k-max", "1000000000000000000",
        "--report", str(tmp_path / "e.json"),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = json.loads((tmp_path / "e.json").read_text())["error"]
    assert error["type"] == "RunTooLargeError"
    assert error["message"].startswith("out of memory: Unable to allocate 6.94 EiB")


def test_memory_error_in_a_kernel_is_an_error(tmp_path, capsys, monkeypatch):
    from dichotomy import datko
    from dichotomy.cli import main

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(datko, "_side_points", exhausted)
    report = tmp_path / "e.json"
    assert main(["datko", "--gallery", "ued_example", "--from-cert", "UED:N=1,alpha=0.5",
                 "--d", "0.25", "--window", "0..10", "--m-trunc", "20",
                 "--report", str(report)]) == 2
    assert capsys.readouterr().err == "error: RunTooLargeError: out of memory\n"
    assert json.loads(report.read_text())["error"] == {
        "type": "RunTooLargeError", "message": "out of memory"}


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


# a dense split system on the window 0..10 of the invalid-input rows
DENSE = system_file(
    "dim = 2\nsource = explicit\n" + "\n".join(f"A{k} = 0.5,0; 0,2" for k in range(11)),
    "matrix = 1,0; 0,0",
)
OVERFLOWING_RATES = [
    ["verify", "--cert", "ED:N=1,alpha=1e308,beta=1e308"],
    ["verify", "--cert", "ED:N=1,alpha=1e308,beta=1e308", "--triplet"],
    ["verify", "--cert", "ED:N=1,alpha=0.5,beta=1e308"],
    ["estimate", "--kind", "ued", "--alphas", "1e308"],
    ["estimate", "--kind", "ed", "--alphas", "0.5", "--betas", "1e308"],
    ["estimate", "--kind", "ned", "--alpha", "1e308"],
]


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
        # rates whose product with m_max + 1 overflows, diagonal and dense
        *(([*cmd, *source], "InvalidCertificateError")
          for cmd in OVERFLOWING_RATES for source in ([], ["--system", DENSE])),
        # negative tolerances, which would report a holding certificate violated
        (["verify", "--cert", "UED:N=1,alpha=0.5", "--tol", "-1"], "InvalidCertificateError"),
        (["verify", "--cert", "UED:N=1,alpha=0.5", "--tol=-1e-12", "--triplet"],
         "InvalidCertificateError"),
        # profiles whose log is +inf at some index, which every pair satisfies
        (["verify", "--cert", "NED:alpha=0.5,profile=const:inf"], "InvalidCertificateError"),
        (["verify", "--cert", "NED:alpha=0.5,profile=power:2:1e308"], "InvalidCertificateError"),
        (["falsify", "--concept", "NED", "--schedule", "odd_after_even", "--profile", "const:inf"],
         "InvalidCertificateError"),
        (["datko", "--form", "ned", "--s-profile", "const:inf", "--d", "0.1"],
         "InvalidCertificateError"),
        (["datko", "--form", "ned", "--s-profile", "power:2:1e308", "--d", "0.1"],
         "InvalidCertificateError"),
        # falsify trial rates whose product with a gap or an index overflows
        (["falsify", "--concept", "UED", "--schedule", "from_start", "--alpha", "1e308",
          "--k-max", "5"], "InvalidCertificateError"),
        (["falsify", "--concept", "ED", "--schedule", "odd_after_even", "--beta", "1e308",
          "--k-max", "3"], "InvalidCertificateError"),
        # a gallery parameter that is not finite
        (["verify", "--cert", "UED:N=1,alpha=0.5", "--system",
          "[system]\nsource = gallery\nname = ned_example\nc = inf\n"], "ParamOutOfRangeError"),
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


@pytest.mark.parametrize(
    "argv",
    [
        # outputs that cannot be written
        ["--report", "{dir}"],
        ["--csv", "{dir}"],
        # a failing analysis whose error report cannot be written
        ["--cert", "UED:N=1,alpha=1e308", "--report", "{dir}/missing/x.json"],
        # inputs that cannot be read
        ["--system", "{dir}"],
        ["--system", "{latin1}"],
    ],
)
def test_unusable_paths_are_configuration_errors(tmp_path, capsys, argv):
    # a PermissionError takes the same path, but cannot be provoked as root
    from dichotomy.cli import main

    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(system_file(DIAGONAL + "\n# \xe9").encode("latin-1"))
    argv = [a.format(dir=tmp_path, latin1=latin1) for a in argv]
    source = [] if "--system" in argv else ["--gallery", "ued_example"]
    cert = [] if "--cert" in argv else ["--cert", "UED:N=1,alpha=0.5"]
    assert main(["verify", *source, *cert, "--window", "0..5", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err
    if "missing" in argv[-1]:
        assert err.splitlines()[-1].startswith("error: InvalidCertificateError: ")


def test_overflowing_rates_leave_no_nan(tmp_path, capsys):
    from dichotomy.cli import main

    # rate * index overflows: verify rejects the rate, falsify refits the
    # slope on scaled logs; neither prints a numpy warning
    verify = ["verify", "--gallery", "ued_example", "--cert", "ED:N=1,alpha=1e308,beta=1e308",
              "--window", "0..5"]
    assert _error_report(tmp_path, verify) == "InvalidCertificateError"
    assert "Warning" not in capsys.readouterr().err
    report = tmp_path / "falsify.json"
    assert main(["falsify", "--gallery", "ued_example", "--concept", "UED", "--schedule",
                 "odd_after_even", "--alpha", "1e308", "--k-max", "5",
                 "--report", str(report)]) == 0
    assert capsys.readouterr().err == ""
    assert "NaN" not in report.read_text()
    assert json.loads(report.read_text())["result"]["log_slope"] == 0.0


def test_non_idempotent_projection_is_reported(tmp_path):
    path = tmp_path / "p.cfg"
    path.write_text(NON_IDEMPOTENT, encoding="utf-8")
    argv = ["verify", "--system", str(path), "--cert", "UED:N=10,alpha=0.1", "--window", "0..1"]
    assert _error_report(tmp_path, argv) == "InvalidProjectionError"
