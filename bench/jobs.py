"""The three workloads: fixed job lists, each job with its expected answer.

A job is one ``dichotomy`` command line. The runner appends ``--report`` (and
``--csv``) paths, runs it in-process through ``dichotomy.cli.main`` and
hands the written report to the job's check. All expected answers are
computed here, before any timing, by ``oracle``.

Sizes keep one pass near one second on a 2-CPU machine, so that a 30-second
run yields the 23 or more passes that a tail percentile with ten passes
beyond it needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import inputs
import oracle
from oracle import Cert, CoordLogs

# diag-scan windows
DIAG_VERIFY_W = 150
DIAG_ESTIMATE_W = 120
DIAG_CLAIMS_W = 100
# dense-scan windows (the fixtures hold A0..A60)
DENSE_W = inputs.DENSE_WINDOW
DENSE16_W = 40
DENSE_TRIPLET_W = 12
DENSE_DATKO_W, DENSE_DATKO_TRUNC = 10, 40
# sums-exact sizes
DATKO_W = 20
TOWER_W = 80
TOWER_TRIPLET_W = 24
FALSIFY_K = 5000
TOWER_FALSIFY_K = 200

SED_CERT = Cert("SED", 2.0, math.e, 1.0)  # the sed_example claim


@dataclass
class Job:
    name: str
    argv: list[str]
    expect_rc: int
    check: Callable[[dict, str | None], list[str]]
    csv: bool = False


def _result_check(fn):
    return lambda report, csv: fn(report["result"])


def _verify_job(name, source, logs, cert: Cert, w, triplet=False) -> Job:
    want = (oracle.verify_triplets if triplet else oracle.verify_pairs)(logs, cert, w)
    argv = ["verify", *source, "--cert", cert.spec(), "--window", f"0..{w}"]
    if triplet:
        argv.append("--triplet")
    return Job(name, argv, 0 if want.holds else 1,
               _result_check(lambda r: oracle.check_verify(r, want)))


def _claims_cert(cert) -> Cert:
    """Oracle form of a certificate declared by a gallery claim."""
    profile = ()
    if cert.profile is not None:
        desc = cert.profile.describe()
        if desc["form"] == "tower_exponent":
            profile = ("tower",)
        else:
            profile = ("power", desc["shift"], desc["power"])
    return Cert(cert.kind.value, cert.alpha, cert.n_const or 1.0, cert.beta or 0.0, profile)


def _claims_job(name, entry_name, params, w=None) -> Job:
    """gallery-claims; ``w`` overrides every claim window when given."""
    from dichotomy.gallery import CertificateClaim, FalsificationClaim, make_example

    def logs(window):
        return CoordLogs.gallery(entry_name, params, window, window)

    expected = []
    for claim in make_example(entry_name, params).claims:
        if isinstance(claim, CertificateClaim):
            cw = w if w is not None else claim.window_m_max
            want = oracle.verify_pairs(logs(cw), _claims_cert(claim.cert), cw)
            expected.append(("certificate", want.holds,
                             lambda d, want=want: oracle.check_verify(d, want)))
        elif isinstance(claim, FalsificationClaim):
            want = oracle.falsify(entry_name, params, claim.concept.value, claim.schedule,
                                  claim.k_max, claim.alpha, claim.beta)
            expected.append(("falsification", want.trend == "divergent",
                             lambda d, want=want: oracle.check_falsify(d, want)))
        else:
            cw = w if w is not None else claim.window_m_max
            table = logs(cw)
            alphas = oracle.default_alpha_grid(table, cw, claim.alpha_points)
            betas = oracle.default_beta_grid(max(alphas), claim.beta_points)
            want = oracle.estimate(table, cw, alphas, betas, strong=True)
            expected.append(("strong-instability", all(not row[4] for row in want.rows),
                             lambda d, want=want: oracle.check_estimate(d, want)))
    all_ok = all(ok for _, ok, _ in expected)

    def check(report, csv):
        claims = report["claims"]
        if [c["type"] for c in claims] != [t for t, _, _ in expected]:
            return [f"claim types {[c['type'] for c in claims]}"]
        for got, (kind, ok, detail_check) in zip(claims, expected):
            if got["reproduced"] != ok:
                return [f"{kind} claim reproduced={got['reproduced']}, expected {ok}"]
            errs = detail_check(got["detail"])
            if errs:
                return [f"{kind} claim: {e}" for e in errs]
        if report["all_reproduced"] != all_ok:
            return [f"all_reproduced {report['all_reproduced']} != {all_ok}"]
        return []

    argv = ["gallery-claims", "--name", entry_name]
    argv += [x for k, v in params.items() for x in (f"--{k}", repr(v))]
    if w is not None:
        argv += ["--window", f"0..{w}"]
    return Job(name, argv, 0 if all_ok else 1, check)


def _estimate_job(name, source, logs, w, kind, strong=False) -> Job:
    alphas = oracle.default_alpha_grid(logs, w)
    if kind == "ued":
        want = oracle.estimate(logs, w, alphas)
    else:
        want = oracle.estimate(logs, w, alphas, oracle.default_beta_grid(max(alphas)),
                               strong=strong)
    argv = ["estimate", *source, "--kind", kind, "--window", f"0..{w}"]
    if strong:
        argv.append("--strong")
    return Job(name, argv, 0 if want.best[3] else 1,
               _result_check(lambda r: oracle.check_estimate(r, want)))


def _ned_profile_job(name, source, logs, w, alpha) -> Job:
    values, uniform = oracle.ned_profile(logs, w, alpha)

    def check(report, csv):
        got = report["profile"]["values"]
        if len(got) != len(values):
            return [f"profile length {len(got)} != {len(values)}"]
        for i, (v, want) in enumerate(zip(got, values)):
            if not oracle.close(v["logmag"], want):
                return [f"profile at n={i}: {v['logmag']} != {want}"]
        if not oracle.close(report["optimal_uniform_N"]["logmag"], uniform):
            return [f"optimal N {report['optimal_uniform_N']} != {uniform}"]
        rows = csv.splitlines()
        if rows[0] != "index,value_logmag,value_sign" or len(rows) != len(values) + 1:
            return ["csv series does not list the profile"]
        if any(not oracle.close(float(r.split(",")[1]), v) for r, v in zip(rows[1:], values)):
            return ["csv series differs from the profile"]
        return []

    argv = ["estimate", *source, "--kind", "ned", "--alpha", repr(alpha), "--window", f"0..{w}"]
    return Job(name, argv, 0, check, csv=True)


def _falsify_job(name, source, entry, params, concept, schedule, k_max, alpha=None,
                 csv=False) -> Job:
    want = oracle.falsify(entry, params, concept, schedule, k_max, alpha)

    def check(report, csv_text):
        errs = oracle.check_falsify(report["result"], want)
        if not errs and csv_text is not None:
            rows = csv_text.splitlines()
            if len(rows) != k_max + 2:
                errs = [f"csv has {len(rows)} rows, expected {k_max + 2}"]
            elif not oracle.close(float(rows[-1].split(",")[1]), want.required[-1]):
                errs = ["csv series differs from the witnesses"]
        return errs

    argv = ["falsify", *source, "--concept", concept, "--schedule", schedule,
            "--k-max", str(k_max)]
    if alpha is not None:
        argv += ["--alpha", repr(alpha)]
    return Job(name, argv, 1 if want.trend == "divergent" else 0, check, csv=csv)


def _datko_job(name, source, logs, cert: Cert, d, w, m_trunc, p_dirs=1, q_dirs=1) -> Job:
    verdict, p_side, q_side = oracle.datko(logs, cert, d, w, m_trunc)
    argv = ["datko", *source, "--from-cert", cert.spec(), "--d", repr(d),
            "--window", f"0..{w}", "--m-trunc", str(m_trunc)]
    rc = {"holds": 0, "violated": 1, "inconclusive-tail": 3}[verdict]
    return Job(name, argv, rc,
               lambda r, csv: oracle.check_datko(r, verdict, p_side, q_side, p_dirs, q_dirs))


# -- workloads ------------------------------------------------------------------


def _file(manifest, key):
    return manifest["files"][key]


def _system(manifest, key):
    return ["--system", _file(manifest, key)["path"]]


def _dense_logs(manifest, key, n_max, m_max):
    f = _file(manifest, key)
    return CoordLogs.dense(f["p_scalars"], f["q_scalars"], n_max, m_max)


def diag_scan(manifest) -> list[Job]:
    gp = manifest["gallery"]
    ned, sed, ed = gp["ned_example"], gp["sed_example"], gp["ed_example"]
    ned_alpha = -math.log(ned["b"])
    ned_cert = Cert("NED", ned_alpha, profile=("power", 2.0, ned["c"]))
    w, we = DIAG_VERIFY_W, DIAG_ESTIMATE_W
    ued_logs = CoordLogs.gallery("ued_example", {}, w, w)
    ned_logs = CoordLogs.gallery("ned_example", ned, w, w)
    sed_logs = CoordLogs.gallery("sed_example", sed, w, w)
    ued = ["--gallery", "ued_example"]
    src_ned, src_sed = _system(manifest, "ned_example"), _system(manifest, "sed_example")
    return [
        _verify_job("verify-ued", ued, ued_logs, Cert("UED", 0.5), w),
        _verify_job("verify-ned", src_ned, ned_logs, ned_cert, w),
        _verify_job("verify-sed", src_sed, sed_logs, SED_CERT, w),
        _ned_profile_job("estimate-ned", src_ned, ned_logs, we, ned_alpha),
        _estimate_job("estimate-ed-strong", _system(manifest, "ed_example"),
                      CoordLogs.gallery("ed_example", ed, we, we), we, "ed", strong=True),
        _estimate_job("estimate-ued", src_sed, sed_logs, we, "ued"),
        _claims_job("claims-ed", "ed_example", ed, DIAG_CLAIMS_W),
        _verify_job("verify-ued-violated", ued, ued_logs, Cert("UED", 2.0), w),
        _falsify_job("falsify-sed", src_sed, "sed_example", sed, "UED", "odd_after_even", 50,
                     alpha=1.0),
    ]


def dense_scan(manifest) -> list[Job]:
    cert = Cert("UED", 0.05)
    d4 = _dense_logs(manifest, "dense4", DENSE_W, DENSE_W)
    d16 = _dense_logs(manifest, "dense16", DENSE16_W, DENSE16_W)
    src4, src16 = _system(manifest, "dense4"), _system(manifest, "dense16")
    return [
        _verify_job("dense4-verify", src4, d4, cert, DENSE_W),
        _estimate_job("dense4-estimate-ued", src4, d4, DENSE_W, "ued"),
        _verify_job("dense4-triplet", src4, d4, cert, DENSE_TRIPLET_W, triplet=True),
        _verify_job("dense16-verify", src16, d16, cert, DENSE16_W),
        _datko_job("dense16-datko", src16, d16, cert, 0.02, DENSE_DATKO_W, DENSE_DATKO_TRUNC,
                   p_dirs=8, q_dirs=8),
        _verify_job("sed-dense-verify", _system(manifest, "sed_dense"),
                    _dense_logs(manifest, "sed_dense", DENSE_W, DENSE_W), SED_CERT, DENSE_W),
        _verify_job("dense4-violated", src4, d4, Cert("UED", 0.3), DENSE_W),
    ]


def sums_exact(manifest) -> list[Job]:
    gp = manifest["gallery"]
    ned, ed, tower = gp["ned_example"], gp["ed_example"], gp["ned_not_ed_example"]
    ned_alpha = -math.log(ned["b"])
    tower_alpha = -math.log(tower["c"])
    ned_cert = Cert("NED", ned_alpha, profile=("power", 2.0, ned["c"]))
    tower_cert = Cert("NED", tower_alpha, profile=("tower",))
    tower_wrong = Cert("NED", tower_alpha, profile=("power", 2.0, 1.0))
    tower_logs = CoordLogs.gallery("ned_not_ed_example", tower, TOWER_W, TOWER_W)
    src_tower = _system(manifest, "ned_not_ed_example")
    return [
        _datko_job("datko-ued", ["--gallery", "ued_example"],
                   CoordLogs.gallery("ued_example", {}, DATKO_W, 1000), Cert("UED", 0.5), 0.25,
                   DATKO_W, 1000),
        _datko_job("datko-ned", _system(manifest, "ned_example"),
                   CoordLogs.gallery("ned_example", ned, DATKO_W, 1500), ned_cert,
                   ned_alpha / 2, DATKO_W, 1500),
        _datko_job("datko-ed", _system(manifest, "ed_example"),
                   CoordLogs.gallery("ed_example", ed, DATKO_W, 2000), Cert("ED", 0.5, math.e, 1.0),
                   0.25, DATKO_W, 2000),
        _verify_job("verify-tower", src_tower, tower_logs, tower_cert, TOWER_W),
        _verify_job("triplet-tower", src_tower, tower_logs, tower_cert, TOWER_TRIPLET_W,
                    triplet=True),
        _verify_job("verify-tower-violated", src_tower, tower_logs, tower_wrong, TOWER_W),
        _falsify_job("falsify-ned", _system(manifest, "ned_example"), "ned_example", ned,
                     "UED", "odd_after_even", FALSIFY_K, alpha=0.25, csv=True),
        _falsify_job("falsify-tower", src_tower, "ned_not_ed_example", tower, "ED",
                     "tower_expanding", TOWER_FALSIFY_K),
        _claims_job("claims-tower", "ned_not_ed_example", tower),
    ]


BUILDERS = {"diag-scan": diag_scan, "dense-scan": dense_scan, "sums-exact": sums_exact}


def probe_job(manifest) -> Job:
    """The dense rounding probe: closed form says holds with min_slack 0."""
    f = _file(manifest, "probe")
    w = inputs.PROBE_WINDOW
    logs = CoordLogs.dense(f["p_scalars"], f["q_scalars"], w, w)
    return _verify_job("dense-rounding-probe", ["--system", f["path"]], logs,
                       Cert("UED", inputs.PROBE_ALPHA), w)
