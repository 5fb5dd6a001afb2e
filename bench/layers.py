"""Per-layer instrumentation, installed from outside the program.

Three kinds of pass share one job list:

* span passes wrap each layer's public entry points and record spans
  (name, start, end, parent, job) in memory; a layer's self time is its
  spans' duration minus what their child spans cover. The hottest leaf,
  ``SystemDescription.diag_factor``, is timed per call but aggregated into
  its parent span instead of getting a span of its own;
* a count pass wraps the same boundaries and the arithmetic helpers with
  plain counters, so counting never distorts a self time;
* a memory pass runs under ``tracemalloc`` and keeps the largest per-job
  peak.

Wrappers replace every reference a ``dichotomy`` module holds to the wrapped
function (modules import helpers by name) and are removed after the pass.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
import types
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from dichotomy import checkers, cli, config, datko, gallery, logscalar, system

SCAN_FUNCTIONS = (
    "verify_certificate", "verify_triplet_form", "estimate_ued", "estimate_ed",
    "minimal_ned_profile", "optimal_N_for_alpha", "default_alpha_grid",
)

# span name -> (module, attribute) entry points
SPAN_POINTS = {
    **{f"checkers.scan:{n}": (checkers, n) for n in SCAN_FUNCTIONS},
    "checkers.falsify": (checkers, "falsify"),
    "system.compat": (system, "check_compatibility"),
    "system.extremes:pair": (system, "restricted_extremes"),
    "system.extremes:ratio": (system, "restricted_ratio_extremes"),
    "datko.sum:ned": (datko, "verify_datko_ned"),
    "datko.sum:ued": (datko, "verify_datko_ued"),
    "datko.sum:ed": (datko, "verify_datko_ed"),
    "emit.csv": (cli, "emit_series"),
    "config.parse": (config, "parse_system_file"),
    "gallery.build": (gallery, "make_example"),
}


def _modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "dichotomy" or name.startswith("dichotomy."))]


@contextmanager
def _patched(replacements):
    """Swap each (owner, attr) for a wrapper; when the owner is a ``dichotomy``
    module, every module-level reference to the same object is swapped too."""
    undo = []
    try:
        for owner, attr, new in replacements:
            old = getattr(owner, attr)
            targets = _modules() if owner in _modules() else [owner]
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is old and (target is not owner or name == attr):
                        setattr(target, name, new)
                        undo.append((target, name, old))
        yield
    finally:
        for target, name, old in reversed(undo):
            setattr(target, name, old)


class SpanRecorder:
    """In-memory spans of one span pass."""

    def __init__(self, pass_index: int):
        self.pass_index = pass_index
        self.spans: list[list] = []  # [name, start, end, parent, job, child_time]
        self.stack: list[int] = []
        self.job = None
        self.leaf = {"system.diag_factor": [0, 0.0]}

    def open(self, name: str) -> tuple[int, int]:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.job, 0.0])
        self.stack.append(idx)
        return idx, parent

    def close(self, idx: int, parent: int, start: float, end: float) -> None:
        self.stack.pop()
        span = self.spans[idx]
        span[1], span[2] = start, end
        if parent >= 0:
            self.spans[parent][5] += end - start

    def wrap(self, name, fn):
        def spanned(*args, **kwargs):
            idx, parent = self.open(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx, parent, start, time.perf_counter())
        return spanned

    def wrap_leaf(self, name, fn):
        acc = self.leaf[name]
        spans, stack = self.spans, self.stack

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                acc[0] += 1
                acc[1] += dt
                if stack:
                    spans[stack[-1]][5] += dt
        return timed

    def run_job(self, job_name, call):
        self.job = job_name
        idx, parent = self.open("cli")
        start = time.perf_counter()
        try:
            return call()
        finally:
            self.close(idx, parent, start, time.perf_counter())

    @contextmanager
    def installed(self):
        reps = [(mod, attr, self.wrap(name.split(":")[0], getattr(mod, attr)))
                for name, (mod, attr) in SPAN_POINTS.items()]
        reps.append((system.SystemDescription, "diag_factor",
                     self.wrap_leaf("system.diag_factor", system.SystemDescription.diag_factor)))
        json_shim = types.SimpleNamespace(**vars(json))
        json_shim.dumps = self.wrap("emit.json", json.dumps)
        reps.append((cli, "json", json_shim))
        with _patched(reps):
            yield

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _, _, child in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child
        out["system.diag_factor"] = self.leaf["system.diag_factor"][1]
        return out

    def dump(self, fh, origin: float) -> None:
        for i, (name, start, end, parent, job, child) in enumerate(self.spans):
            fh.write(json.dumps({
                "pass": self.pass_index, "id": i, "name": name, "job": job,
                "parent": parent if parent >= 0 else None,
                "start": start - origin, "end": end - origin,
                "self": (end - start) - child,
            }) + "\n")


class Counters:
    """Call counts of one count pass."""

    NAMES = ("checkers.pairs", "system.diag_factor.calls", "system.extremes.calls",
             "system.svd.calls", "logscalar.ladd.calls", "logscalar.logaddexp.calls",
             "logscalar.fraction_promotions", "datko.points")

    def __init__(self):
        self.n = dict.fromkeys(self.NAMES, 0)

    def counting(self, fn, *names):
        n = self.n

        def counted(*args, **kwargs):
            for name in names:
                n[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _ladd(self, fn):
        n = self.n

        def ladd(a, b):
            n["logscalar.ladd.calls"] += 1
            out = fn(a, b)
            if type(out) is Fraction and (type(a) is float or type(b) is float):
                n["logscalar.fraction_promotions"] += 1
            return out
        return ladd

    def _datko(self, fn):
        n = self.n

        def summed(*args, **kwargs):
            reports = fn(*args, **kwargs)
            n["datko.points"] += sum(r.checked for r in reports)
            return reports
        return summed

    @contextmanager
    def installed(self):
        reps = [
            (logscalar, "ladd", self._ladd(logscalar.ladd)),
            (logscalar, "logaddexp_mag",
             self.counting(logscalar.logaddexp_mag, "logscalar.logaddexp.calls")),
            (system.SystemDescription, "diag_factor",
             self.counting(system.SystemDescription.diag_factor, "system.diag_factor.calls")),
            (system, "restricted_extremes",
             self.counting(system.restricted_extremes, "system.extremes.calls")),
            (system, "restricted_ratio_extremes",
             self.counting(system.restricted_ratio_extremes, "system.extremes.calls",
                           "checkers.pairs")),
            (checkers._PairExtremes, "logs",
             self.counting(checkers._PairExtremes.logs, "checkers.pairs")),
            (np.linalg, "svd", self.counting(np.linalg.svd, "system.svd.calls")),
        ]
        reps += [(datko, f, self._datko(getattr(datko, f)))
                 for f in ("verify_datko_ned", "verify_datko_ued", "verify_datko_ed")]
        with _patched(reps):
            yield


def traced_peak(peaks: list, call):
    """Run ``call`` with tracemalloc on and append its peak traced bytes."""
    tracemalloc.reset_peak()
    try:
        return call()
    finally:
        peaks.append(tracemalloc.get_traced_memory()[1])


@contextmanager
def tracing_memory():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
