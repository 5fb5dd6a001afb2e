"""Fixed reference work that tracks the CPU speed of the machine.

On a shared virtual machine the CPU time of fixed work drifts by up to 40%,
within a second and across minutes (frequency changes, other tenants on the
same cores and caches). The benchmark therefore times this reference mix
between every two measured jobs and reports each job at reference speed::

    job_s = job_cpu_s * REFERENCE_S / reference_cpu_s

The mix runs one small kernel for each kind of work the program does: a
Python float loop (the pair scans), exact ``Fraction`` arithmetic (the tower
logs), 16x16 SVDs (the dense extremes) and JSON encoding (the reports). It
is benchmark code only, so a change to the program does not move it.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import numpy as np

# CPU seconds the mix takes at reference speed (about its median on the
# 2-CPU x86_64 machine the benchmark was built on, Python 3.11, numpy 2.4).
REFERENCE_S = 0.01

_MATRIX = np.random.default_rng(0).standard_normal((16, 16))
_FLOATS = [k * 1.2345678901 for k in range(2700)]


def _float_loop() -> float:
    acc = 0.0
    for k in range(1, 13000):
        acc += math.log(k) * 0.5
    return acc


def _fractions() -> Fraction:
    acc = Fraction(0)
    for k in range(1, 700):
        acc += Fraction(1, k)
    return acc


def _svds() -> None:
    for _ in range(33):
        np.linalg.svd(_MATRIX)


def _encode() -> int:
    return len(json.dumps(_FLOATS))


def reference_cpu() -> float:
    """CPU seconds of one run of the reference mix."""
    start = time.process_time()
    _float_loop()
    _fractions()
    _svds()
    _encode()
    return time.process_time() - start
