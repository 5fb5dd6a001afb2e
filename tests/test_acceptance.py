"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v`` (the -v listing is the
per-criterion scoreboard; each test also prints its own line).
"""

import math
import time

import numpy as np

from dichotomy import (
    ConstantProfile,
    DichotomyCertificate,
    ExplicitSequence,
    Kind,
    ProjectionFamily,
    ShiftedPowerProfile,
    SystemDescription,
    TowerExponentProfile,
    WindowSpec,
    certificate_to_datko,
    closed_form_amn,
    estimate_ed,
    falsify,
    make_example,
    optimal_N_for_alpha,
    overall_verdict,
    raw_factor_log,
    restricted_extremes,
    verify_certificate,
    verify_datko_ed,
    verify_datko_ned,
    verify_datko_ued,
    verify_triplet_form,
)
from dichotomy.logscalar import LogScalar, lfloat, lsub
from dichotomy.system import DiagonalClosedForm

from oracles import evolution, smul

LN2 = math.log(2.0)
LOG_TOL = 1e-9
TAIL_LIMIT = math.log(1e-6)

QUAD_CERT = DichotomyCertificate(Kind.UED, alpha=0.5, n_const=1.0)
RIPPLE_CERT = DichotomyCertificate(Kind.NED, alpha=LN2, profile=ShiftedPowerProfile(2.0, 1.0))
ALT_STRONG_CERT = DichotomyCertificate(Kind.SED, alpha=2.0, n_const=math.e, beta=1.0)
ALT_PLAIN_CERT = DichotomyCertificate(Kind.ED, alpha=0.5, n_const=math.e, beta=1.0)
TOWER_CERT = DichotomyCertificate(Kind.NED, alpha=1.0, profile=TowerExponentProfile())


def _finish(num, label, checks):
    ok = all(flag for flag, _ in checks)
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {label}")
    failed = [msg for flag, msg in checks if not flag]
    assert ok, f"criterion {num}: {failed}"


def test_criterion_01_uniform_certificate_and_minimal_constant():
    entry = make_example("ued_example")
    start = time.perf_counter()
    out = verify_certificate(entry.system, entry.projection, QUAD_CERT, WindowSpec(0, 200))
    n_opt = optimal_N_for_alpha(entry.system, entry.projection, 0.5, WindowSpec(0, 200))
    elapsed = time.perf_counter() - start
    checks = [
        (out.holds, "certificate must hold on the window"),
        (out.min_slack >= -LOG_TOL, f"slack {out.min_slack} below tolerance"),
        (abs(n_opt.to_float() - 1.0) <= LOG_TOL, f"optimal constant {n_opt.to_float()} != 1"),
        (elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"),
    ]
    _finish(1, "uniform certificate (N=1, rate 1/2) on window 200, minimal N = 1", checks)


def test_criterion_02_nonuniform_certificate_and_uniform_falsification():
    entry = make_example("ned_example")
    start = time.perf_counter()
    out = verify_certificate(entry.system, entry.projection, RIPPLE_CERT, WindowSpec(0, 200))
    trial_alpha = 0.25
    rep = falsify(
        entry.system, entry.projection, Kind.UED, entry.schedule("odd_after_even"),
        range(51), alpha=trial_alpha,
    )
    elapsed = time.perf_counter() - start
    worst_gap = max(
        abs(w.required_constant.to_float() - math.exp(trial_alpha) * (q + 1.0))
        for q, w in enumerate(rep.witnesses)
    )
    checks = [
        (out.holds and out.min_slack >= -LOG_TOL, "nonuniform certificate must hold"),
        (rep.divergent, "uniform falsification must diverge"),
        (worst_gap <= 1e-9, f"required constants off by {worst_gap}"),
        (elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"),
    ]
    _finish(2, "nonuniform profile (n+2) verified, uniform concept falsified", checks)


def test_criterion_03_strong_certificate_and_uniform_falsification():
    entry = make_example("sed_example")
    out = verify_certificate(entry.system, entry.projection, ALT_STRONG_CERT, WindowSpec(0, 200))
    trial_alpha = 1.0
    rep = falsify(
        entry.system, entry.projection, Kind.UED, entry.schedule("odd_after_even"),
        range(51), alpha=trial_alpha,
    )
    log_c1 = math.log(entry.params["c1"])
    worst_gap = max(
        abs(lfloat(w.required_constant.logmag) - (trial_alpha + log_c1 + 2.0 * k + 2.0))
        for k, w in enumerate(rep.witnesses)
    )
    checks = [
        (out.holds and out.min_slack >= -LOG_TOL, "strong certificate must hold"),
        (rep.divergent, "uniform falsification must diverge"),
        (worst_gap <= LOG_TOL, f"required constants off by {worst_gap}"),
    ]
    _finish(3, "strong certificate (e, 2, 1) verified, uniform concept falsified", checks)


def test_criterion_04_plain_exponential_but_no_stable_strong_pair():
    entry = make_example("ed_example")
    out = verify_certificate(entry.system, entry.projection, ALT_PLAIN_CERT, WindowSpec(0, 200))
    est = estimate_ed(
        entry.system, entry.projection, WindowSpec(0, 200), strong=True
    )  # defaults: 32 log-spaced rates x 16 weights
    strong_rows = [row for row in est.table if row.beta < row.alpha]
    checks = [
        (out.holds and out.min_slack >= -LOG_TOL, "exponential certificate must hold"),
        (len(est.table) > 0 and len(strong_rows) == len(est.table), "grid must be strong"),
        (all(not row.stable for row in est.table), "a strong grid pair looked stable"),
    ]
    _finish(4, "exponential certificate (e, 1/2, 1) verified, no stable strong pair on 32x16 grid",
            checks)


def test_criterion_05_tower_profile_exact_and_exponential_falsified():
    entry = make_example("ned_not_ed_example")
    out = verify_certificate(entry.system, entry.projection, TOWER_CERT, WindowSpec(0, 25))
    trends = {}
    for name in ("tower_balanced", "tower_expanding", "tower_contracting"):
        rep = falsify(
            entry.system, entry.projection, Kind.ED, entry.schedule(name), range(9)
        )
        trends[name] = rep.trend
    checks = [
        (out.holds and out.min_slack >= -LOG_TOL, "tower profile must verify in log domain"),
        (all(t == "divergent" for t in trends.values()), f"trends: {trends}"),
    ]
    _finish(5, "tower-exponent profile verified on window 25, all three case schedules diverge",
            checks)


def test_criterion_06_summation_roundtrips():
    cases = [
        ("ued_example", QUAD_CERT),
        ("ned_example", RIPPLE_CERT),
        ("sed_example", ALT_STRONG_CERT),
        ("ed_example", ALT_PLAIN_CERT),
        ("ned_not_ed_example", TOWER_CERT),
    ]
    checks = []
    for name, cert in cases:
        entry = make_example(name)
        d = cert.alpha / 2.0
        constants = certificate_to_datko(cert, d)
        window = WindowSpec(0, 60)
        if constants.form == "nonuniform":
            reports = verify_datko_ned(
                entry.system, entry.projection, d, constants.s_profile, window, 200,
                cert=cert,
            )
        elif constants.form == "uniform":
            reports = verify_datko_ued(
                entry.system, entry.projection, d, constants.big_d, window, 200, cert=cert
            )
        else:
            # at d = alpha/2 the strong certificate maps to c = beta = d, so the
            # strong admissibility gate cannot be claimed; the inequality itself
            # is the same, so it is checked in its plain exponential form
            reports = verify_datko_ed(
                entry.system, entry.projection, d, constants.c, constants.big_d, window,
                200, cert=cert, strong=False,
            )
        verdict = overall_verdict(reports)
        tail = max(r.max_tail_rhs_log for r in reports)
        checks.append((verdict == "holds", f"{name}: verdict {verdict}"))
        checks.append((tail < TAIL_LIMIT, f"{name}: tail/rhs log {tail:.2f}"))
    _finish(6, "certificate-to-summation round trips hold with tails below 1e-6 of rhs", checks)


def _random_commuting_system(rng, dim, rank, steps):
    while True:
        frame = rng.uniform(-1.0, 1.0, size=(dim, dim))
        if abs(np.linalg.det(frame)) > 0.3:
            break
    inv = np.linalg.inv(frame)
    proj = ProjectionFamily(
        dim, matrix=frame @ np.diag([1.0] * rank + [0.0] * (dim - rank)) @ inv
    )
    mats = [np.eye(dim)]
    for _ in range(steps):
        block = np.zeros((dim, dim))
        block[:rank, :rank] = rng.uniform(-1.2, 1.2, size=(rank, rank))
        block[rank:, rank:] = rng.uniform(-1.2, 1.2, size=(dim - rank, dim - rank))
        block[np.diag_indices(dim)] += np.sign(block.diagonal()) * 0.7 + 0.1
        mats.append(frame @ block @ inv)
    return SystemDescription(dim, ExplicitSequence(mats)), proj


def test_criterion_07_reduction_matches_sphere_sampling():
    rng = np.random.default_rng(2026)
    alpha = 0.3
    gap_worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        rank = int(rng.integers(1, dim))
        sys_, proj = _random_commuting_system(rng, dim, rank, steps=5)
        p_mats = {n: proj.matrix(n) for n in range(6)}
        directions = rng.normal(size=(10_000, dim))
        for n in range(0, 5):
            for m in range(n, 6):
                ext = restricted_extremes(sys_, proj, m, n)
                gap = math.exp(alpha * (m - n))
                checker = max(gap * ext.growth_p.to_float(), gap / ext.min_gain_q.to_float())
                evo = evolution(sys_, m, n).to_dense()
                p = p_mats[n]
                cand = directions
                extras = [d for d in (ext.direction_p, ext.direction_q) if d]
                cand = np.vstack([cand, np.array(extras)])
                px = cand @ p.T
                qx = cand - px
                num = gap * (
                    np.linalg.norm(px @ evo.T, axis=1) + np.linalg.norm(qx, axis=1)
                )
                den = np.linalg.norm(px, axis=1) + np.linalg.norm(qx @ evo.T, axis=1)
                mask = den > 1e-12
                sampled = float(np.max(num[mask] / den[mask]))
                gap_worst = max(gap_worst, abs(sampled - checker) / checker)
    checks = [(gap_worst <= 1e-6, f"worst relative gap {gap_worst:.2e}")]
    _finish(7, "mediant reduction matches 10^4-direction sphere sampling within 1e-6", checks)


def test_criterion_08_closed_form_oracle():
    worst = 0.0
    for name in ("ued_example", "ned_example", "sed_example", "ed_example",
                 "ned_not_ed_example"):
        raw = SystemDescription(
            1,
            DiagonalClosedForm(
                [lambda n, name=name: LogScalar.from_log(raw_factor_log(name, None, n))]
            ),
        )
        for n in range(0, 31):
            for m in range(n, 31):
                table = closed_form_amn(name, None, m, n)
                product = evolution(raw, m, n).diag[0]
                worst = max(worst, abs(lfloat(lsub(table.logmag, product.logmag))))
    checks = [(worst <= LOG_TOL, f"worst log gap {worst:.2e}")]
    _finish(8, "closed-form product tables equal computed products up to m = 30", checks)


def test_criterion_09_implication_lattice_and_triplet_equivalence():
    checks = []
    quad = make_example("ued_example")
    for derived in (
        DichotomyCertificate(Kind.NED, alpha=0.5, profile=ConstantProfile(1.0)),
        DichotomyCertificate(Kind.ED, alpha=0.5, n_const=1.0, beta=0.0),
        DichotomyCertificate(Kind.SED, alpha=0.5, n_const=1.0, beta=0.0),
    ):
        out = verify_certificate(quad.system, quad.projection, derived, WindowSpec(0, 60))
        checks.append((out.holds, f"uniform implies {derived.kind.value}"))
    alt = make_example("sed_example")
    weakened = DichotomyCertificate(Kind.ED, alpha=2.0, n_const=math.e, beta=1.0)
    out = verify_certificate(alt.system, alt.projection, weakened, WindowSpec(0, 60))
    checks.append((out.holds, "strong implies plain exponential"))

    equivalence_cases = [
        ("ued_example", QUAD_CERT, 30),
        ("ned_example", RIPPLE_CERT, 30),
        ("ned_example", DichotomyCertificate(Kind.UED, alpha=0.3, n_const=5.0), 30),
        ("sed_example", ALT_STRONG_CERT, 30),
        ("ed_example", ALT_PLAIN_CERT, 30),
        ("ned_not_ed_example", TOWER_CERT, 14),
    ]
    for name, cert, span in equivalence_cases:
        entry = make_example(name)
        pair = verify_certificate(entry.system, entry.projection, cert, WindowSpec(0, span))
        trip = verify_triplet_form(
            entry.system, entry.projection, cert, WindowSpec(0, span, triplet=True)
        )
        checks.append(
            (pair.holds == trip.holds, f"{name}/{cert.kind.value}: pair {pair.holds} "
                                       f"vs triplet {trip.holds}")
        )
    _finish(9, "implication lattice and pair/triplet equivalence on the gallery", checks)


def test_criterion_10_cocycle_property():
    rng = np.random.default_rng(404)
    worst = 0.0
    for idx in range(50):
        dim = int(rng.integers(2, 5))
        if idx % 2 == 0:
            mats = [np.eye(dim)] + [
                rng.uniform(-1.0, 1.0, size=(dim, dim)) for _ in range(12)
            ]
            sys_ = SystemDescription(dim, ExplicitSequence(mats))
            for p in range(0, 13):
                for n in range(p, 13):
                    left_part = evolution(sys_, n, p).to_dense()
                    for m in range(n, 13):
                        left = evolution(sys_, m, n).to_dense() @ left_part
                        right = evolution(sys_, m, p).to_dense()
                        scale = max(1e-300, float(np.linalg.norm(right, 2)))
                        worst = max(
                            worst, float(np.linalg.norm(left - right, 2)) / scale
                        )
        else:
            logs = rng.uniform(-2.0, 2.0, size=(dim, 13))
            sys_ = SystemDescription(
                dim,
                DiagonalClosedForm(
                    [
                        (lambda i: lambda n: LogScalar.from_log(float(logs[i, min(n, 12)])))(i)
                        for i in range(dim)
                    ]
                ),
            )
            for p in range(0, 13):
                for n in range(p, 13):
                    for m in range(n, 13):
                        for i in range(dim):
                            combined = smul(
                                evolution(sys_, m, n).diag[i],
                                evolution(sys_, n, p).diag[i],
                            )
                            direct = evolution(sys_, m, p).diag[i]
                            worst = max(
                                worst, abs(lfloat(lsub(combined.logmag, direct.logmag)))
                            )
    checks = [(worst <= LOG_TOL, f"worst relative defect {worst:.2e}")]
    _finish(10, "cocycle law on 50 random systems, indices up to 12, within 1e-9", checks)
