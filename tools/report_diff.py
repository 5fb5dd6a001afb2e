"""Check that two source trees write the same reports on the benchmark's jobs.

Run from a checkout of the repository:

    python tools/report_diff.py BASE HEAD [--seeds 1 2]

BASE and HEAD are checkouts of the repository (say, a ``git worktree`` of
the base commit and the working tree). For each seed the benchmark inputs
are written once with ``bench/inputs.py``. Then every job of
``bench/jobs.py`` (the three workloads and the dense rounding probe) runs
through each tree's own ``dichotomy.cli.main``, one child process per tree.
The job lists come from the ``bench/`` next to this script, which is only
read. Beside them run a few large-window dense pair verifies, holding and
violated, on fixtures built by ``bench/inputs.py::dense_fixture`` (``LARGE``):
windows where the dense kernel checks a few short pairs per row; and the
``datko`` runs of two gallery certificates on a large window
(``LARGE_DATKO``), which the diagonal summation pass takes; and runs at
sizes the benchmark never reaches (``LARGE_RUNS``): long witness families
and a window whose exact logs pass 2**16. The script lists every report,
CSV and exit status that differs between the trees and exits 1, or exits 0
when all are byte-identical. Under each differing file it names what moved:
each JSON path whose value differs, as ``reports[4].worst.n: 3 -> 0`` (a
job's exit status in ``status.json`` the same way), or a CSV's first
differing line numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent / "bench"
# the large-window dense fixtures: (name, dimension, window 0..W), and the
# certificates verified on each, one holding and one violated
LARGE = [("dense4-w400", 4, 400), ("dense16-w120", 16, 120)]
LARGE_CERTS = {"holds": "UED:N=1,alpha=0.05", "violated": "UED:N=1,alpha=0.3"}
# the large-window diagonal Datko runs: (gallery entry, certificate, d) on the
# window 0..400, truncated at 4000
LARGE_DATKO = [
    ("ned_example", "NED:alpha=0.6931471805599453,profile=power:2:1", 0.34657359027997264),
    ("ed_example", "ED:N=2.718281828459045,alpha=0.5,beta=1.0", 0.25),
]

# runs at sizes beyond the benchmark's: (name, argv, whether a CSV is
# written), with the CPU time of one run in process on a shared 2-CPU x86-64
# machine (the whole script, both trees and two seeds, takes about 12 s)
LARGE_RUNS = [
    # a falsify report of 100,001 members and its CSV: 0.4 s
    ("falsify-ned-k100000", ["falsify", "--gallery", "ned_example", "--concept", "UED",
                             "--schedule", "odd_after_even", "--alpha", "0.25",
                             "--k-max", "100000"], True),
    # 2,001 members over the tower's exact int logs (up to 1,200 digits): 0.05 s
    ("falsify-tower-k2000", ["falsify", "--gallery", "ned_not_ed_example", "--concept", "ED",
                             "--schedule", "tower_expanding", "--k-max", "2000"], True),
    # exact prefix log-sums past 2**16 (Fractions of a float and an int): 0.4 s
    ("verify-sed-w70000", ["verify", "--gallery", "sed_example",
                           "--cert", "SED:N=2.718281828459045,alpha=2.0,beta=1.0",
                           "--window", "0..70000"], False),
]


def write_large(directory: Path, seed: int) -> None:
    """Write the ``LARGE`` fixtures for ``seed`` as ``--system`` files."""
    import numpy as np

    import inputs

    for name, dim, w in LARGE:
        rng = np.random.default_rng([seed, dim, w])
        mats, proj, _, _ = inputs.dense_fixture(rng, dim, w, inputs.DENSE_C, inputs.DENSE_BIG_C)
        (directory / f"{name}.ini").write_text(inputs.explicit_system_text(mats, proj),
                                               encoding="utf-8")


def large_jobs(directory: Path) -> list[SimpleNamespace]:
    """The verify jobs of the ``LARGE`` fixtures written to ``directory``,
    the ``LARGE_DATKO`` runs and the ``LARGE_RUNS``."""
    verifies = [SimpleNamespace(name=f"{name}-{verdict}", csv=False,
                                argv=["verify", "--system", str(directory / f"{name}.ini"),
                                      "--cert", cert, "--window", f"0..{w}"])
                for name, _, w in LARGE for verdict, cert in LARGE_CERTS.items()]
    return verifies + [
        SimpleNamespace(name=f"datko-{name}-w400", csv=False,
                        argv=["datko", "--gallery", name, "--from-cert", cert, "--d", repr(d),
                              "--window", "0..400", "--m-trunc", "4000"])
        for name, cert, d in LARGE_DATKO] + [
        SimpleNamespace(name=name, argv=argv, csv=csv) for name, argv, csv in LARGE_RUNS]


def run_tree(tree: Path, label: str, work: Path, seeds: list[int]) -> None:
    """Run every job of every seed through the cli of ``tree``, writing the
    reports, CSVs and exit statuses under ``work/seed<seed>/<label>``."""
    sys.path[:0] = [str(tree / "src"), str(BENCH)]
    import jobs
    from dichotomy.cli import main

    for seed in seeds:
        manifest = json.loads((work / f"seed{seed}" / "inputs" / "manifest.json").read_text())
        lists = {name: build(manifest) for name, build in jobs.BUILDERS.items()}
        lists["probe"] = [jobs.probe_job(manifest)]
        lists["large"] = large_jobs(work / f"seed{seed}" / "inputs")
        out = work / f"seed{seed}" / label
        statuses = {}
        for workload, job_list in lists.items():
            (out / workload).mkdir(parents=True)
            for job in job_list:
                # paths relative to the output directory, so that no report
                # names its tree's own directory
                name = f"{workload}/{job.name}"
                argv = job.argv + ["--report", f"{name}.json"]
                argv += ["--csv", f"{name}.csv"] if job.csv else []
                os.chdir(out)
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        statuses[name] = main(argv)
                    except SystemExit as exc:
                        statuses[name] = exc.code
                    except Exception as exc:  # noqa: BLE001 - a raise is an outcome too
                        statuses[name] = f"raised {type(exc).__name__}: {exc}"
        (out / "status.json").write_text(json.dumps(statuses, indent=1, sort_keys=True))


# the moved JSON fields printed per file, the characters of a value printed,
# and the differing CSV line numbers printed per file
FIELD_LINES, VALUE_CHARS, CSV_LINES = 50, 60, 5
ABSENT = object()


def _text(value) -> str:
    """A JSON value on one line, cut to ``VALUE_CHARS`` characters."""
    if value is ABSENT:
        return "(absent)"
    text = json.dumps(value)
    return text if len(text) <= VALUE_CHARS else text[:VALUE_CHARS - 3] + "..."


def field_diff(base, head, path: str = "") -> list[str]:
    """``path: base -> head`` for each JSON path whose value differs between
    two parsed JSON values, in document order; a key or list entry on one
    side only reads ``(absent)`` on the other."""
    if isinstance(base, dict) and isinstance(head, dict):
        return [line for key in dict.fromkeys([*base, *head])
                for line in field_diff(base.get(key, ABSENT), head.get(key, ABSENT),
                                       f"{path}.{key}" if path else key)]
    if isinstance(base, list) and isinstance(head, list):
        return [line for i in range(max(len(base), len(head)))
                for line in field_diff(base[i] if i < len(base) else ABSENT,
                                       head[i] if i < len(head) else ABSENT, f"{path}[{i}]")]
    if base is not ABSENT and head is not ABSENT and json.dumps(base) == json.dumps(head):
        return []
    return [f"{path or '(root)'}: {_text(base)} -> {_text(head)}"]


def moved(a: Path, b: Path) -> list[str]:
    """What moved between two differing files of one name: the first
    differing lines of a CSV, else the fields of a JSON report or status
    file."""
    if a.suffix == ".csv":
        base, head = a.read_text().splitlines(), b.read_text().splitlines()
        lines = [k + 1 for k in range(max(len(base), len(head))) if base[k:k + 1] != head[k:k + 1]]
        shown = ", ".join(map(str, lines[:CSV_LINES]))
        more = f" and {len(lines) - CSV_LINES} more" if len(lines) > CSV_LINES else ""
        return [f"lines {shown}{more} (base {len(base)} lines, head {len(head)})"]
    fields = field_diff(json.loads(a.read_text()), json.loads(b.read_text()))
    if len(fields) > FIELD_LINES:
        fields[FIELD_LINES:] = [f"... and {len(fields) - FIELD_LINES} more fields"]
    return fields or ["no field moved (key order or number text)"]


def differences(base: Path, head: Path) -> list[str]:
    """The files below ``base`` and ``head`` that differ or exist in one only,
    one entry each, with what moved on indented lines below its name."""
    names = sorted({p.relative_to(root).as_posix() for root in (base, head)
                    for p in root.rglob("*") if p.is_file()})
    out = []
    for name in names:
        a, b = base / name, head / name
        if not (a.is_file() and b.is_file()):
            out.append(f"{name}: only in {'head' if b.is_file() else 'base'}")
        elif a.read_bytes() != b.read_bytes():
            out.append("\n    ".join([f"{name}: differs", *moved(a, b)]))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--run", nargs=2, metavar=("LABEL", "WORK"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:  # the child process of one tree, given as ``base``
        run_tree(args.base.resolve(), args.run[0], Path(args.run[1]), args.seeds)
        return 0

    sys.path.insert(0, str(BENCH))
    import inputs

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    seeds = [str(s) for s in args.seeds]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for seed in args.seeds:
            (work / f"seed{seed}" / "inputs").mkdir(parents=True)
            inputs.write_inputs(work / f"seed{seed}" / "inputs", seed)
            write_large(work / f"seed{seed}" / "inputs", seed)
        for label, tree in (("base", args.base), ("head", args.head)):
            subprocess.run([sys.executable, __file__, str(tree), str(tree), "--seeds", *seeds,
                            "--run", label, str(work)], check=True, env=env)
        found = [f"seed {seed}: {line}" for seed in args.seeds
                 for line in differences(work / f"seed{seed}" / "base",
                                         work / f"seed{seed}" / "head")]
        jobs = len(json.loads((work / f"seed{args.seeds[0]}" / "head" / "status.json").read_text()))
    for line in found:
        print(line)
    print(f"{len(found)} differences: {jobs} jobs, {len(args.seeds)} seed(s), two trees")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
