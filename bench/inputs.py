"""Seeded benchmark inputs: gallery parameters and dense ``--system`` fixtures.

Everything here is a pure function of the workload seed. The parent process
writes the files before any timing starts; the program under test only ever
sees the generated files and command-line numbers, while the benchmark keeps
the scalars each fixture was built from in ``manifest.json`` for its oracles.

Dense fixtures are ``A(k) = F blockdiag(c_k U_k, C_k V_k) F^T`` with ``F``,
``U_k`` and ``V_k`` orthogonal and the projection ``P = F diag(1..1, 0..0) F^T``.
Every unit vector of range P(n) is then stretched by exactly ``prod c_k`` and
every unit vector of range Q(n) by exactly ``prod C_k``, so the restricted
extremes, and with them every verdict, have a closed form.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("diag-scan", "dense-scan", "sums-exact")

# Parameter ranges stay inside the ones README.md states for each entry and
# inside the region where the entry's claim certificates hold, so that every
# seed scans the same number of pairs.
GALLERY_RANGES = {
    "ned_example": {"b": (0.3, 0.7), "c": (0.5, 1.5)},
    # log c1 <= -3 and log c2 >= 1 keep the SED claim (alpha=2, N=e, beta=1)
    "sed_example": {"log_c1": (-5.0, -3.5), "log_c2": (1.5, 3.0)},
    # log c1 <= -1.5 and log c2 >= -0.5 keep the ED claim (alpha=1/2, N=e, beta=1)
    "ed_example": {"log_c1": (-2.5, -1.6), "log_c2": (0.0, 1.0)},
    "ned_not_ed_example": {"c": (0.2, 0.6)},
}

# Dense fixtures: sum over the window of log(C_k / c_k) stays near 15, so
# doubles still resolve growth_P next to the expanding block.
DENSE_C = (0.80, 0.85)
DENSE_BIG_C = (1.08, 1.20)
DENSE_WINDOW = 50
DENSE_SPAN = 60  # coefficients A0..A60: room for the Datko truncation

# The rounding probe keeps the parameters under which the dense path was seen
# to let rounding decide a verdict; its seed is fixed, not the workload seed.
PROBE_SEED = 11
PROBE_DIM = 4
PROBE_WINDOW = 40
PROBE_C = (0.4, 0.6)
PROBE_BIG_C = (1.6, 2.4)
PROBE_ALPHA = 0.4  # certificate UED with N = 1


def draw_gallery_params(rng: np.random.Generator) -> dict:
    params = {}
    for name, ranges in GALLERY_RANGES.items():
        drawn = {}
        for key, (lo, hi) in ranges.items():
            value = float(rng.uniform(lo, hi))
            if key.startswith("log_"):
                drawn[key[4:]] = math.exp(value)
            else:
                drawn[key] = value
        params[name] = drawn
    return params


def _orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def dense_fixture(rng, dim: int, span: int, c_range, big_c_range):
    """Coefficients A0..A_span, the projection matrix and the block scalars."""
    half = dim // 2
    frame = _orthogonal(rng, dim)
    mats, cs, big_cs = [], [], []
    for _ in range(span + 1):
        c = float(rng.uniform(*c_range))
        big_c = float(rng.uniform(*big_c_range))
        block = np.zeros((dim, dim))
        block[:half, :half] = c * _orthogonal(rng, half)
        block[half:, half:] = big_c * _orthogonal(rng, dim - half)
        mats.append(frame @ block @ frame.T)
        cs.append(c)
        big_cs.append(big_c)
    proj = frame @ np.diag([1.0] * half + [0.0] * (dim - half)) @ frame.T
    return mats, proj, cs, big_cs


def _rows(mat) -> str:
    return "; ".join(",".join(repr(float(x)) for x in row) for row in mat)


def explicit_system_text(mats, proj) -> str:
    lines = ["[system]", f"dim = {len(proj)}", "source = explicit"]
    lines += [f"A{k} = {_rows(m)}" for k, m in enumerate(mats)]
    lines += ["[projection]", f"matrix = {_rows(proj)}"]
    return "\n".join(lines) + "\n"


def gallery_system_text(name: str, params: dict) -> str:
    lines = ["[system]", "source = gallery", f"name = {name}"]
    lines += [f"{k} = {v!r}" for k, v in params.items()]
    return "\n".join(lines) + "\n"


def sed_dense(params: dict, span: int):
    """sed_example written as explicit 2x2 diagonal matrices.

    The diagonal entries are c1 a_n and c2 a_n with the entry's shared
    alternating step a_n = e^-n (n even) or e^(n+1) (n odd).
    """
    diag0, diag1 = [], []
    for n in range(span + 1):
        step = -n if n % 2 == 0 else n + 1
        diag0.append(math.exp(math.log(params["c1"]) + step))
        diag1.append(math.exp(math.log(params["c2"]) + step))
    mats = [np.diag([a, b]) for a, b in zip(diag0, diag1)]
    return mats, np.diag([1.0, 0.0]), diag0, diag1


def write_inputs(directory: Path, seed: int) -> dict:
    """Write every input file for ``seed`` and return the manifest."""
    rng = np.random.default_rng(seed)
    gallery = draw_gallery_params(rng)
    manifest = {"seed": seed, "gallery": gallery, "files": {}}

    def add(key, text, scalars):
        path = directory / f"{key}.ini"
        path.write_text(text, encoding="utf-8")
        manifest["files"][key] = {"path": str(path), **scalars}

    for name in ("ned_example", "sed_example", "ed_example", "ned_not_ed_example"):
        add(name, gallery_system_text(name, gallery[name]), {"params": gallery[name]})
    for key, dim in (("dense4", 4), ("dense16", 16)):
        mats, proj, cs, big_cs = dense_fixture(rng, dim, DENSE_SPAN, DENSE_C, DENSE_BIG_C)
        add(key, explicit_system_text(mats, proj), {"p_scalars": cs, "q_scalars": big_cs})
    mats, proj, d0, d1 = sed_dense(gallery["sed_example"], DENSE_WINDOW)
    add("sed_dense", explicit_system_text(mats, proj), {"p_scalars": d0, "q_scalars": d1})
    probe_rng = np.random.default_rng(PROBE_SEED)
    mats, proj, cs, big_cs = dense_fixture(
        probe_rng, PROBE_DIM, PROBE_WINDOW, PROBE_C, PROBE_BIG_C
    )
    add("probe", explicit_system_text(mats, proj), {"p_scalars": cs, "q_scalars": big_cs})
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest


def systems_used(manifest, workload: str) -> list[dict]:
    """Every system the workload's jobs build, for the set-up measurement."""
    files = {"diag-scan": ["ned_example", "sed_example", "ed_example"],
             "dense-scan": ["dense4", "dense16", "sed_dense"],
             "sums-exact": ["ned_example", "ed_example", "ned_not_ed_example"]}[workload]
    out = [{"file": manifest["files"][k]["path"]} for k in files]
    gallery = {"diag-scan": ["ued_example", "ed_example"],
               "dense-scan": [],
               "sums-exact": ["ued_example", "ned_not_ed_example"]}[workload]
    out += [{"gallery": g, "params": manifest["gallery"].get(g, {})} for g in gallery]
    return out
