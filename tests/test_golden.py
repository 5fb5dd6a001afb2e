"""Golden CLI reports: small diagonal runs compared byte for byte.

The determinism and round-trip tests compare a run only with itself; these
files pin the numbers, so a refactor that moves one fails here. Dense runs
are left out, because their last bits depend on the BLAS build.

Regenerate after a deliberate change of output with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import os
import sys
from pathlib import Path

import pytest

from dichotomy.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, exit status, writes a CSV)
CASES = {
    "ued-verify-holds": (
        ["verify", "--gallery", "ued_example", "--cert", "UED:N=1,alpha=0.5",
         "--window", "0..40"], 0, False),
    "ued-verify-violated": (
        ["verify", "--gallery", "ued_example", "--cert", "UED:N=1,alpha=2",
         "--window", "0..40"], 1, True),
    "sed-triplet-holds": (
        ["verify", "--gallery", "sed_example", "--cert", "SED:N=e^1,alpha=2,beta=1",
         "--window", "0..12", "--triplet"], 0, False),
    "sed-triplet-violated": (
        ["verify", "--gallery", "sed_example", "--cert", "UED:N=1,alpha=1",
         "--window", "0..12", "--triplet"], 1, True),
    "tower-triplet-holds": (
        ["verify", "--gallery", "ned_not_ed_example", "--cert", "NED:alpha=1,profile=tower",
         "--window", "0..10", "--triplet"], 0, False),
    "tower-triplet-violated": (
        ["verify", "--gallery", "ned_not_ed_example", "--cert", "ED:N=1,alpha=1,beta=1",
         "--window", "0..10", "--triplet"], 1, True),
    "tower-estimate-ned": (
        ["estimate", "--gallery", "ned_not_ed_example", "--kind", "ned", "--alpha", "1",
         "--window", "0..30"], 0, True),
    "tower-falsify": (
        ["falsify", "--gallery", "ned_not_ed_example", "--concept", "ED",
         "--schedule", "tower_expanding", "--k-max", "20"], 1, True),
    "ned-falsify": (
        ["falsify", "--gallery", "ned_example", "--concept", "UED",
         "--schedule", "odd_after_even", "--k-max", "12", "--alpha", "0.25"], 1, True),
    # generic schedules: touching ranges, and one start index for every pair
    "ned-falsify-adjacent": (
        ["falsify", "--gallery", "ned_example", "--concept", "UED",
         "--schedule", "adjacent", "--k-max", "12", "--alpha", "0.25"], 0, True),
    "ned-falsify-from-start": (
        ["falsify", "--gallery", "ned_example", "--concept", "UED",
         "--schedule", "from_start", "--k-max", "12"], 0, True),
    "tower-falsify-contracting": (
        ["falsify", "--gallery", "ned_not_ed_example", "--concept", "ED",
         "--schedule", "tower_contracting", "--k-max", "12"], 1, True),
    "ued-datko": (
        ["datko", "--gallery", "ued_example", "--window", "0..15", "--d", "0.1",
         "--from-cert", "UED:N=1,alpha=0.5", "--m-trunc", "40"], 0, False),
    "ned-datko": (
        ["datko", "--gallery", "ned_example", "--window", "0..15", "--d", "0.1",
         "--from-cert", "NED:alpha=0.6,profile=power:2:1", "--m-trunc", "40"], 0, False),
    # exact tower logs: the Q report at (0, 0, 0) prints the int log 0
    "tower-datko": (
        ["datko", "--gallery", "ned_not_ed_example", "--window", "0..10", "--d", "0.5",
         "--from-cert", "NED:alpha=1,profile=tower", "--m-trunc", "30"], 0, False),
    # no certificate: the P tail is unknown, so a passing check is inconclusive
    "ued-datko-inconclusive": (
        ["datko", "--gallery", "ued_example", "--form", "ued", "--D", "4", "--d", "0",
         "--window", "0..10", "--m-trunc", "30"], 3, False),
    # violated exponential forms: the P side reports (n, n, p), the Q side (m, n, n)
    "sed-datko-violated": (
        ["datko", "--gallery", "sed_example", "--form", "ed", "--D", "3", "--c-weight", "0.5",
         "--d", "0.25", "--window", "0..20", "--m-trunc", "100"], 1, False),
    # exact tower logs: prints the int log 0
    "tower-datko-ed-violated": (
        ["datko", "--gallery", "ned_not_ed_example", "--form", "ed", "--D", "2",
         "--c-weight", "0.5", "--d", "0.25", "--window", "0..10", "--m-trunc", "20"], 1, False),
    "ed-claims": (
        ["gallery-claims", "--name", "ed_example", "--window", "0..40"], 0, False),
    "ued-claims": (
        ["gallery-claims", "--name", "ued_example", "--window", "0..30"], 0, False),
    "ned-claims": (
        ["gallery-claims", "--name", "ned_example", "--window", "0..30"], 0, False),
    "sed-claims": (
        ["gallery-claims", "--name", "sed_example", "--window", "0..30"], 0, False),
    "tower-claims": (
        ["gallery-claims", "--name", "ned_not_ed_example", "--window", "0..30"], 0, False),
    "ned-verify-violated": (
        ["verify", "--gallery", "ned_example", "--cert", "UED:N=10,alpha=0.3",
         "--window", "0..20"], 1, True),
    "ned-triplet-violated": (
        ["verify", "--gallery", "ned_example", "--cert", "UED:N=10,alpha=0.3",
         "--window", "0..20", "--triplet"], 1, False),
    # zeros.cfg: zero factors, and a mask that changes across one
    "zeros-verify": (
        ["verify", "--system", "zeros.cfg", "--cert", "UED:N=5,alpha=0.1",
         "--window", "0..8"], 1, False),
    "zeros-triplet": (
        ["verify", "--system", "zeros.cfg", "--cert", "UED:N=5,alpha=0.1",
         "--window", "0..8", "--triplet"], 1, False),
    "zeros-estimate": (
        ["estimate", "--system", "zeros.cfg", "--kind", "ued", "--window", "0..8",
         "--alphas", "0.1,0.2"], 1, False),
    "zeros-falsify": (
        ["falsify", "--system", "zeros.cfg", "--concept", "UED", "--schedule", "adjacent",
         "--k-max", "7", "--coord", "1"], 0, True),
}


def _run(name: str, out: Path) -> int:
    """Run one case from inside ``GOLDEN`` (reports echo the system file
    path as given) and write its files to ``out``."""
    argv, _, csv = CASES[name]
    argv = [*argv, "--report", str(out / f"{name}.json")]
    if csv:
        argv += ["--csv", str(out / f"{name}.csv")]
    return main(argv)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert _run(name, tmp_path) == CASES[name][1]
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDEN.glob(f"{name}.*"))
    for file in written:
        assert (tmp_path / file).read_bytes() == (GOLDEN / file).read_bytes(), file


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for case in sorted(CASES):
        status = _run(case, GOLDEN)
        if status != CASES[case][1]:
            sys.exit(f"{case}: exit status {status}, expected {CASES[case][1]}")
