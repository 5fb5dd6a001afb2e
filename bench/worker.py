"""Child process of the benchmark: one workload, or one set-up measurement.

``run.py`` starts this file in a fresh interpreter with BLAS pinned to one
thread. Modes:

* ``setup``: time ``import dichotomy`` (numpy included) plus the first build
  of every system the workload uses, and print the CPU seconds;
* ``run``: build the job list and its expected answers, run the untimed
  rounding probe and a warm-up pass, then measure ``--passes`` passes with
  the reference mix of ``reference.py`` timed before the first job and
  after every job (``--trace 0``), or run ``--passes`` untraced passes
  alternating with as many span passes, then a count and a memory pass
  (``--trace 1``). The last stdout line is a JSON summary.

Each job is one in-process ``dichotomy.cli.main(argv)`` call; every call
builds a fresh system, so caches start empty as in a real CLI run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path


def _use_checkout_source(root: Path) -> None:
    src = root / "src"
    sys.path.insert(0, str(src))
    import dichotomy

    if Path(dichotomy.__file__).resolve().parent != (src / "dichotomy").resolve():
        raise SystemExit(f"dichotomy imported from {dichotomy.__file__}, not from {src}")


def setup_mode(args) -> None:
    systems = json.loads(Path(args.systems).read_text(encoding="utf-8"))
    start = time.process_time()
    _use_checkout_source(Path(args.root))
    from dichotomy.config import parse_system_file
    from dichotomy.gallery import make_example

    for spec in systems:
        if "file" in spec:
            parse_system_file(Path(spec["file"]).read_text(encoding="utf-8"))
        else:
            make_example(spec["gallery"], spec["params"])
    print(json.dumps({"setup_s": time.process_time() - start}))


class Runner:
    """Runs jobs through the CLI and checks each answer."""

    def __init__(self, out_dir: Path):
        from dichotomy.cli import main

        self.main = main
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}  # job name -> first failure

    def run(self, job, wrap=None) -> tuple[float, float]:
        """Run one job; return its (CPU, wall) seconds. The answer check is not timed."""
        report = self.out_dir / f"{job.name}.json"
        csv = self.out_dir / f"{job.name}.csv"
        argv = job.argv + ["--report", str(report)] + (["--csv", str(csv)] if job.csv else [])
        for path in (report, csv):
            path.unlink(missing_ok=True)
        self.attempted += 1
        call = (lambda: self.main(argv)) if wrap is None else (lambda: wrap(job.name, argv))
        cpu, start = time.process_time(), time.perf_counter()
        try:
            rc = call()
        except SystemExit as exc:  # argparse rejects an argument
            rc = exc.code
        except Exception as exc:  # a job that raises is a failed operation
            rc = None
            self._fail(job, f"raised {type(exc).__name__}: {exc}")
        elapsed = (time.process_time() - cpu, time.perf_counter() - start)
        if rc is None:
            return elapsed
        errs = []
        if rc != job.expect_rc:
            errs.append(f"exit status {rc}, expected {job.expect_rc}")
        try:
            doc = json.loads(report.read_text(encoding="utf-8"))
            csv_text = csv.read_text(encoding="utf-8") if job.csv else None
            errs += job.check(doc, csv_text)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            errs.append(f"unreadable answer: {type(exc).__name__}: {exc}")
        if errs:
            self._fail(job, "; ".join(errs))
        return elapsed

    def _fail(self, job, message: str) -> None:
        self.failed += 1
        self.failures.setdefault(job.name, message)

    def run_pass(self, jobs, wrap=None) -> tuple[float, float]:
        """Run every job once; return the pass's summed (CPU, wall) seconds."""
        cpu = wall = 0.0
        for job in jobs:
            c, w = self.run(job, wrap)
            cpu, wall = cpu + c, wall + w
        return cpu, wall


def timed_passes(runner, jobs, passes: int) -> list[tuple[float, float, float]]:
    """(CPU, wall, reference CPU) seconds of each pass.

    The reference mix is timed before the first job and after every job, and
    each job's CPU time is divided by the geometric mean of the timings on
    either side of it. A pass's reference is the one that gives the pass the
    sum of its jobs' quotients: its CPU time over that sum.
    """
    import reference  # numpy: not imported before the set-up measurement

    reference.reference_cpu()  # warm-up
    before = reference.reference_cpu()
    times = []
    for _ in range(passes):
        cpu = wall = quotient = 0.0
        for job in jobs:
            c, w = runner.run(job)
            after = reference.reference_cpu()
            quotient += c / math.sqrt(before * after)
            before = after
            cpu, wall = cpu + c, wall + w
        times.append((cpu, wall, cpu / quotient))
    return times


def _median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def _provenance() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def traced_passes(runner, jobs, passes: int, spans_path: Path) -> dict:
    import layers

    begin = time.perf_counter()
    # untraced and span passes alternate, so a drift in CPU speed reaches both
    recorders, untraced, traced = [], [], []
    for index in range(passes):
        untraced.append(runner.run_pass(jobs))
        rec = layers.SpanRecorder(index)
        with rec.installed():
            traced.append(runner.run_pass(jobs, wrap=lambda name, argv: rec.run_job(
                name, lambda: runner.main(argv))))
        recorders.append(rec)
    counters = layers.Counters()
    with counters.installed():
        runner.run_pass(jobs)
    peaks: list[int] = []
    with layers.tracing_memory():
        runner.run_pass(jobs, wrap=lambda name, argv: layers.traced_peak(
            peaks, lambda: runner.main(argv)))
    with spans_path.open("w", encoding="utf-8") as fh:
        for rec in recorders:
            rec.dump(fh, begin)

    per_pass = [rec.self_times() for rec in recorders]

    def self_s(*names):
        return _median([sum(t.get(n, 0.0) for n in names) for t in per_pass])

    n = counters.n
    pairs = n["checkers.pairs"]
    metrics = {
        "checkers.scan_s": (self_s("checkers.scan"), "s"),
        "checkers.pairs": (pairs, "count"),
        "checkers.falsify_s": (self_s("checkers.falsify"), "s"),
        "system.diag_factor.calls": (n["system.diag_factor.calls"], "count"),
        "system.diag_factor_s": (self_s("system.diag_factor"), "s"),
        "system.diag_factor_per_pair": (
            n["system.diag_factor.calls"] / pairs if pairs else 0.0, "calls/pair"),
        "system.extremes.calls": (n["system.extremes.calls"], "count"),
        "system.extremes_s": (self_s("system.extremes"), "s"),
        "system.svd.calls": (n["system.svd.calls"], "count"),
        "system.svd_per_pair": (n["system.svd.calls"] / pairs if pairs else 0.0, "calls/pair"),
        "system.compat_s": (self_s("system.compat"), "s"),
        "system.traced_peak_mb": (max(peaks) / 2**20, "MB"),
        "logscalar.ladd.calls": (n["logscalar.ladd.calls"], "count"),
        "logscalar.logaddexp.calls": (n["logscalar.logaddexp.calls"], "count"),
        "logscalar.fraction_promotions": (n["logscalar.fraction_promotions"], "count"),
        "datko.sum_s": (self_s("datko.sum"), "s"),
        "datko.points": (n["datko.points"], "count"),
        "emit.json_s": (self_s("emit.json"), "s"),
        "emit.csv_s": (self_s("emit.csv"), "s"),
        "emit.bytes": (sum(p.stat().st_size for job in jobs
                           for p in runner.out_dir.glob(f"{job.name}.*")), "bytes"),
        "config.parse_s": (self_s("config.parse"), "s"),
        "gallery.build_s": (self_s("gallery.build"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "trace.overhead_frac": (
            _median([c for c, _ in traced]) / _median([c for c, _ in untraced]) - 1.0, "ratio"),
    }
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": {"untraced": len(untraced), "span": len(traced)},
        "spans": str(spans_path),
    }


def run_mode(args) -> None:
    root = Path(args.root)
    _use_checkout_source(root)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import jobs as jobs_mod

    inputs_dir = Path(args.inputs)
    manifest = json.loads((inputs_dir / "manifest.json").read_text(encoding="utf-8"))
    jobs = jobs_mod.BUILDERS[args.workload](manifest)
    probe = jobs_mod.probe_job(manifest)
    out_dir = inputs_dir / "reports"
    out_dir.mkdir()
    runner = Runner(out_dir)

    runner.run(probe)  # untimed; a known rounding defect makes it fail
    runner.run_pass(jobs)  # warm-up, checked but not timed
    if args.trace:
        spans_path = Path(args.spans)
        summary = traced_passes(runner, jobs, args.passes, spans_path)
    else:
        times = timed_passes(runner, jobs, args.passes)
        summary = {"pass_cpu": [c for c, _, _ in times], "pass_wall": [w for _, w, _ in times],
                   "pass_reference": [r for _, _, r in times]}
    import resource

    summary.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_jobs": runner.failures,
        "jobs": [j.name for j in jobs] + [probe.name],
        "timed_failed": sorted(set(runner.failures) - {probe.name}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": _provenance(),
    })
    print(json.dumps(summary))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--systems")
    parser.add_argument("--inputs")
    parser.add_argument("--workload")
    parser.add_argument("--passes", type=int, default=11)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    if args.mode == "setup":
        setup_mode(args)
    else:
        run_mode(args)


if __name__ == "__main__":
    main()
