"""Check that two source trees write the same reports on the benchmark's jobs.

Run from a checkout of the repository:

    python tools/report_diff.py BASE HEAD [--seeds 1 2]

BASE and HEAD are checkouts of the repository (say, a ``git worktree`` of
the base commit and the working tree). For each seed the benchmark inputs
are written once with ``bench/inputs.py``. Then every job of
``bench/jobs.py`` (the three workloads and the dense rounding probe) runs
through each tree's own ``dichotomy.cli.main``, one child process per tree.
The job lists come from the ``bench/`` next to this script, which is only
read. The script lists every report, CSV and exit status that differs
between the trees and exits 1, or exits 0 when all are byte-identical.
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

BENCH = Path(__file__).resolve().parent.parent / "bench"


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


def differences(base: Path, head: Path) -> list[str]:
    """The files below ``base`` and ``head`` that differ or exist in one only."""
    names = sorted({p.relative_to(root).as_posix() for root in (base, head)
                    for p in root.rglob("*") if p.is_file()})
    out = []
    for name in names:
        a, b = base / name, head / name
        if not (a.is_file() and b.is_file()):
            out.append(f"{name}: only in {'head' if b.is_file() else 'base'}")
        elif a.read_bytes() != b.read_bytes():
            out.append(f"{name}: differs")
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
