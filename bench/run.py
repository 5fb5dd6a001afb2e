"""Benchmark of the dichotomy CLI: three workloads, checked answers, traced layers.

Run from the repository root:

    python3 bench/run.py --workload diag-scan --seed 1 --seconds 30 --trace 0

A single client runs a closed loop: one job at a time, each an in-process
``dichotomy.cli.main(argv)`` call, the next job starting only when the last
one has finished and its answer has been checked against a closed form.
One pass runs the workload's fixed job list once. A run makes a fixed
number of passes, sized so that it measures for about ``--seconds``; the
number of jobs attempted is therefore the same on every run.

Times are CPU seconds at reference speed: each job's (or set-up's) CPU time
is scaled by ``REFERENCE_S`` over the CPU time of the reference mix in
``reference.py``, timed on either side of it, which cancels the drift of a
shared machine's CPU speed.
Raw CPU and wall medians are printed for reference.

``--trace 0`` prints the end-to-end metrics:

* ``batch_s``       median time of one pass (answer checks excluded);
* ``batch_s_tail``  the highest percentile of pass time with ten or more
                    passes beyond it (percentile and pass count printed above
                    the summary line);
* ``setup_s``       median time over fresh processes of ``import dichotomy``
                    plus the first build of every system the workload uses;
* ``peak_rss_mb``   high-water RSS of the workload process;
* ``correct_frac``  share of the workload's jobs, the rounding probe
                    included, that never raised, exited with an unexpected
                    status or gave an answer that differs from the closed form.

``--trace 1`` prints the per-layer metrics of ``layers.py`` instead.

Each workload runs in its own fresh child process with
``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``; inputs are generated
from ``--seed`` and written before any timing starts. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; ``correct`` covers the
timed jobs, while the untimed dense rounding probe counts in ``failed`` and
``correct_frac`` only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402

SETUP_REPEATS = 20
MIN_PASSES = 11  # the tail needs ten passes beyond one percentile
MIN_TRACED_PASSES = 5  # per kind of pass in a traced run
DEADLINE_S = 170.0
# Wall seconds of one pass, answer checks and reference timings included, at
# the slow end of the 2-CPU machine the benchmark was built on.
PASS_S = {"diag-scan": 1.05, "dense-scan": 1.15, "sums-exact": 1.3}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    return env


def _child(argv: list[str], timeout: float) -> dict:
    """Run worker.py and return the JSON object on its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        env=_child_env(), capture_output=True, text=True, timeout=max(timeout, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[float, int]:
    """Highest percentile (whole percent) with at least ten samples above it."""
    ranked = sorted(times)
    count = len(ranked)
    pct = (100 * (count - 10)) // count
    # nearest-rank percentile: the smallest value with pct% of samples at or below it
    rank = max(1, -(-pct * count // 100))
    return ranked[rank - 1], pct


def at_reference_speed(cpu: float, reference_cpu: float) -> float:
    """CPU seconds scaled to the machine speed at which the reference mix takes REFERENCE_S."""
    return cpu * reference.REFERENCE_S / reference_cpu


def passes(workload: str, seconds: float, trace: int) -> int:
    """Passes of a run: timed passes, or pairs of untraced and span passes."""
    if trace:  # a pair takes about two passes' time; count and memory passes follow
        return max(MIN_TRACED_PASSES, round(0.4 * seconds / PASS_S[workload]))
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description="dichotomy CLI benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "dichotomy" / "__init__.py").is_file():
        print(f"error: no dichotomy sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        manifest = inputs.write_inputs(work, args.seed)
        systems = work / "systems.json"
        systems.write_text(json.dumps(inputs.systems_used(manifest, args.workload)),
                           encoding="utf-8")
        setup_argv = ["setup", "--root", str(root), "--systems", str(systems)]

        def measure_setup(count: int) -> list[float]:
            reference.reference_cpu()  # warm-up
            before, times = reference.reference_cpu(), []
            for _ in range(count):
                cpu = _child(setup_argv, DEADLINE_S - (time.perf_counter() - began))["setup_s"]
                after = reference.reference_cpu()
                times.append(at_reference_speed(cpu, math.sqrt(before * after)))
                before = after
            return times

        # half the set-up processes run before the workload process and half
        # after it, so that the median spans the run's changes in CPU speed
        setup = [] if args.trace else measure_setup(SETUP_REPEATS // 2)
        spans = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result = _child(
            ["run", "--root", str(root), "--inputs", str(work), "--workload", args.workload,
             "--passes", str(passes(args.workload, args.seconds, args.trace)),
             "--trace", str(args.trace), "--spans", str(spans)],
            DEADLINE_S - (time.perf_counter() - began),
        )
        if not args.trace:
            setup += measure_setup(SETUP_REPEATS - len(setup))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    provenance = {**result["provenance"], "nproc": os.cpu_count(),
                  "git_sha": _git_sha(root), "seed": args.seed,
                  "machine": platform.machine(), "workload": args.workload}
    print("provenance: " + json.dumps(provenance))
    for name, message in result["failed_jobs"].items():
        print(f"failed job {name}: {message}")

    if args.trace:
        metrics = result["metrics"]
        print(f"passes: {result['passes']}; spans written to {result['spans']}")
    else:
        times = [at_reference_speed(c, r)
                 for c, r in zip(result["pass_cpu"], result["pass_reference"])]
        tail_value, pct = tail(times)
        print(f"passes: {len(times)}; batch_s_tail is p{pct} of {len(times)} passes")
        for label, values in (("CPU", result["pass_cpu"]), ("wall", result["pass_wall"])):
            print(f"raw pass {label} time (s): median {statistics.median(values):.6g}, "
                  f"p{pct} {tail(values)[0]:.6g}")
        print(f"reference mix CPU time (s): median {statistics.median(result['pass_reference']):.6g}"
              f" (REFERENCE_S = {reference.REFERENCE_S})")
        metrics = {
            "batch_s": {"value": statistics.median(times), "unit": "s"},
            "batch_s_tail": {"value": tail_value, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "correct_frac": {"value": 1.0 - len(result["failed_jobs"]) / len(result["jobs"]),
                             "unit": "ratio"},
        }
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    record = {"provenance": provenance, "metrics": metrics, "failed_jobs": result["failed_jobs"]}
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not result["timed_failed"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
