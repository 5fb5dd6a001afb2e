"""The dense pair plan against the O(W^2) pair loop.

``verify_certificate`` on a dense system checks only the pairs m - n < L of
each row when every block (k, k + L) of the window contracts on the P side
and expands on the Q side by more than its rounding bound
(``_dense_plan.short_pairs``). ``oracles.pair_loop`` checks every pair of
every dense row; the two must agree bit for bit, in verdict, witness,
count and least slack, and each short pair's logs must be those of its
row's full sweep.

Under a certified L the first violating pair is always short: with
nondecreasing weights, a longer pair (n, m) has at least the slack of
(n, m - L) on both sides. A first witness that is a longer pair is thus
reached only through the full scan.
"""

import json
import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
from test_cli import run_cli
from test_dense_kernel import certificates, commuting_system
from test_verify_rows import (
    assert_same_outcome,
    bits,
    overflowing_system,
    run,
    switching_system,
)

from dichotomy import (
    DenseOverflowError,
    DichotomyCertificate,
    ExplicitSequence,
    Kind,
    ProjectionFamily,
    SystemDescription,
    WindowSpec,
    verify_certificate,
)
from dichotomy._dense_plan import _Offsets, _step_norms, short_pairs
from dichotomy.logarray import LogArray
from dichotomy.system import _sweeps

from oracles import pair_loop

PLAN = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _frame(rng, dim):
    while True:
        frame = rng.uniform(-1.0, 1.0, size=(dim, dim))
        if abs(np.linalg.det(frame)) > 0.3:
            return frame, np.linalg.inv(frame)


def non_normal_system(seed, dim, rank, steps, rate, coupling):
    """Unipotent blocks with strictly upper coupling, the P block scaled by
    e^-rate and the Q block by e^rate, in a random oblique frame: the
    products grow like e^(-+rate L) times a polynomial in L, so a short
    block need not contract on P, or expand on Q, where a long one does."""
    rng = np.random.default_rng(seed)
    frame, inv = _frame(rng, dim)
    proj = ProjectionFamily(dim, matrix=frame @ np.diag([1.0] * rank + [0.0] * (dim - rank)) @ inv)
    mats = [np.eye(dim)]
    for _ in range(steps):
        block = np.zeros((dim, dim))
        for lo, hi, scale in ((0, rank, math.exp(-rate)), (rank, dim, math.exp(rate))):
            size = hi - lo
            upper = np.triu(rng.uniform(0.5, 1.0, size=(size, size)), 1)
            block[lo:hi, lo:hi] = scale * (np.eye(size) + coupling * upper)
        mats.append(frame @ block @ inv)
    return SystemDescription(dim, ExplicitSequence(mats)), proj


def singular_q_system(seed, dim, rank, steps, at):
    """A P block contracting by 0.6 and a Q block expanding by 1.8 in a
    random oblique frame, but the Q block at index ``at`` kills one
    direction: every pair across it has min_gain_Q 0."""
    frame, inv = _frame(np.random.default_rng(seed), dim)
    q = dim - rank
    mats = [np.eye(dim)] + [
        frame @ np.diag([0.6] * rank + ([0.0] + [1.8] * (q - 1) if k == at else [1.8] * q)) @ inv
        for k in range(1, steps + 1)]
    proj = ProjectionFamily(dim, matrix=frame @ np.diag([1.0] * rank + [0.0] * q) @ inv)
    return SystemDescription(dim, ExplicitSequence(mats)), proj


SHAPES = ["non_normal", "singular_q", "commuting", "switching", "overflow"]


@st.composite
def plan_cases(draw, shape):
    """(system, projection, window, certificate) of a ``shape``: non-normal
    blocks that need L > 1, a singular Q step, random commuting blocks
    (mostly no L), widths that change inside the window, or an overflow
    mid-window."""
    seed, dim = draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 4))
    n_min = draw(st.integers(0, 3))
    m_max = n_min + draw(st.integers(4 if shape == "non_normal" else 0, 24))
    if shape == "non_normal":
        rank = draw(st.integers(0, dim))
        sys_, proj = non_normal_system(seed, dim, rank, m_max, draw(st.floats(0.4, 1.2)),
                                       draw(st.floats(1.0, 2.5)))
    elif shape == "singular_q":
        rank = draw(st.integers(0, dim - 1))
        steps = max(1, m_max)
        sys_, proj = singular_q_system(seed, dim, rank, steps, draw(st.integers(1, steps)))
    elif shape == "commuting":
        sys_, proj = commuting_system(seed, dim, draw(st.integers(0, dim)), m_max)
    elif shape == "switching":
        sys_, proj = switching_system(seed, dim, m_max)
    else:
        rank = draw(st.integers(1, dim - 1))
        sys_, proj = overflowing_system(seed, dim, rank, m_max, draw(st.integers(1, m_max + 1)))
    window = WindowSpec(n_min, m_max)
    if shape == "non_normal":  # rates below the blocks' own, so that long blocks certify
        cert = DichotomyCertificate(Kind.UED, alpha=draw(st.floats(0.01, 0.15)),
                                    n_const=math.exp(draw(st.floats(0.0, 8.0))))
    else:
        cert = draw(certificates(window))
    return sys_, proj, window, cert


def plan(sys_, proj, cert, window, tol):
    """The window's kernel and its short pairs (None for the full scan)."""
    kernel = _sweeps(sys_, proj, window.n_min, window.m_max)
    weights = [cert.r_log(n) for n in range(window.n_min, window.m_max + 1)]
    return kernel, short_pairs(kernel, cert.alpha, weights, tol)


def assert_short_logs_are_the_rows(kernel, short):
    for n, m, g, h in zip(short.ns.tolist(), short.ms.tolist(), short.growth, short.gain):
        growth, gain = kernel.row(n).row_logs
        assert bits(g) == bits(growth[m - n]) and bits(h) == bits(gain[m - n])


@pytest.mark.parametrize("shape", SHAPES)
@PLAN
@given(data=st.data(), tol=st.sampled_from([1e-9, 0.0]))
def test_pruned_verify_is_the_pair_loop(shape, data, tol):
    sys_, proj, window, cert = data.draw(plan_cases(shape))
    got = run(verify_certificate, sys_, proj, cert, window, tol=tol)
    assert_same_outcome(got, run(pair_loop, sys_, proj, cert, window, tol=tol))
    try:
        kernel, short = plan(sys_, proj, cert, window, tol)
    except DenseOverflowError:  # the kernel raises as the full scan does
        return
    event("full scan" if short is None else f"L = {short.length}")
    if short is not None:
        size = window.m_max - window.n_min + 1
        assert len(short.ns) == sum(min(short.length, size - j) for j in range(size))
        assert_short_logs_are_the_rows(kernel, short)


def test_a_non_normal_oblique_system_certifies_at_a_longer_block():
    # the coupled blocks grow over one and two steps, and contract over four
    sys_, proj = non_normal_system(0, 4, 2, 40, 0.5, 1.5)
    window = WindowSpec(0, 40)
    cert = DichotomyCertificate(Kind.UED, alpha=0.05, n_const=150.0)
    kernel, short = plan(sys_, proj, cert, window, 1e-9)
    assert short.length == 4
    assert_short_logs_are_the_rows(kernel, short)
    got = verify_certificate(sys_, proj, cert, window)
    assert got.holds
    assert_same_outcome(got, pair_loop(sys_, proj, cert, window))


@pytest.mark.parametrize("tol", [1e-9, 0.0])
def test_a_singular_q_step_certifies_no_block(tol):
    sys_, proj = singular_q_system(5, 3, 1, 16, 9)
    window = WindowSpec(0, 16)
    cert = DichotomyCertificate(Kind.UED, alpha=0.05, n_const=2.0)
    assert plan(sys_, proj, cert, window, tol)[1] is None
    got = verify_certificate(sys_, proj, cert, window, tol=tol)
    assert (got.holds, got.witness.side) == (False, "Q")
    assert_same_outcome(got, pair_loop(sys_, proj, cert, window, tol=tol))


def _scalar_blocks(p_logs, q_logs):
    """Diagonal 2 x 2 steps with the given P and Q factor logs, in an
    oblique frame, with the matching projection."""
    frame = np.array([[1.0, 0.4], [0.2, 1.0]])
    inv = np.linalg.inv(frame)
    mats = [np.eye(2)] + [frame @ np.diag([math.exp(a), math.exp(b)]) @ inv
                          for a, b in zip(p_logs, q_logs)]
    proj = ProjectionFamily(2, matrix=frame @ np.diag([1.0, 0.0]) @ inv)
    return SystemDescription(2, ExplicitSequence(mats)), proj


@pytest.mark.parametrize("tol", [1e-9, 0.0])
def test_a_long_q_pair_in_an_earlier_row_is_the_first_witness(tol):
    # the Q factors grow by alpha + 0.05 per step, but by alpha - 0.3 at
    # index 5: the pair (0, 5) is the first to violate, on the Q side, four
    # rows before the one-step pair (4, 5), which as a block of length 1
    # sends the window to the full scan
    alpha = 0.1
    q_logs = [alpha + 0.05] * 12
    q_logs[4] = alpha - 0.3
    sys_, proj = _scalar_blocks([-1.0] * 12, q_logs)
    window = WindowSpec(0, 12)
    cert = DichotomyCertificate(Kind.UED, alpha=alpha, n_const=1.0)
    assert plan(sys_, proj, cert, window, tol)[1] is None
    got = verify_certificate(sys_, proj, cert, window, tol=tol)
    assert (got.witness.m, got.witness.n, got.witness.side) == (5, 0, "Q")
    assert_same_outcome(got, pair_loop(sys_, proj, cert, window, tol=tol))


def test_a_short_pair_that_violates_takes_the_full_scan(caplog):
    # the P block [[0.3, 1.5], [0, 0.3]] stretches by 1.57 over one step but
    # contracts over four: the blocks certify at L = 4, and every pair
    # (n, n + 1) violates a constant of e^0.2, which the Frobenius norm of
    # its image alone does not show
    step = np.zeros((3, 3))
    step[:2, :2] = [[0.3, 1.5], [0.0, 0.3]]
    step[2, 2] = 3.0
    sys_ = SystemDescription(3, ExplicitSequence([np.eye(3)] + [step] * 20))
    proj = ProjectionFamily(3, matrix=np.diag([1.0, 1.0, 0.0]))
    window = WindowSpec(0, 20)
    cert = DichotomyCertificate(Kind.UED, alpha=0.05, n_const=math.exp(0.2))
    assert plan(sys_, proj, cert, window, 1e-9)[1].length == 4
    with caplog.at_level(logging.DEBUG, logger="dichotomy"):
        got = verify_certificate(sys_, proj, cert, window)
    assert [r.getMessage() for r in caplog.records] == [
        "dense pair plan: full scan, a short pair violates"]
    assert (got.holds, got.witness.m, got.witness.n, got.witness.side) == (False, 1, 0, "P")
    assert_same_outcome(got, pair_loop(sys_, proj, cert, window))


def test_a_block_inside_its_rounding_bound_takes_the_full_scan(caplog):
    # the P factor is an ulp or two below e^-alpha, so every block's excess
    # alpha L + log growth_P is negative by less than its rounding bound
    alpha = 0.1
    p_log = math.log(np.nextafter(np.nextafter(math.exp(-alpha), 0.0), 0.0))
    sys_ = SystemDescription(2, ExplicitSequence(
        [np.eye(2)] + [np.diag([math.exp(p_log), 3.0])] * 16))
    proj = ProjectionFamily(2, matrix=np.diag([1.0, 0.0]))
    window = WindowSpec(0, 16)
    cert = DichotomyCertificate(Kind.UED, alpha=alpha, n_const=1.0)
    kernel = _sweeps(sys_, proj, 0, 16)
    weights = LogArray([0.0] * 17).floats()
    side = _Offsets(kernel, "P", *_step_norms(kernel)["P"])
    with np.errstate(invalid="ignore", divide="ignore"):
        excess, violated = side.blocks(alpha, 1, weights, 1e-9)
    assert (alpha + np.log(side.values[1][:16]) < 0).all()
    assert 0 < excess < 1e-13 and not violated
    with caplog.at_level(logging.DEBUG, logger="dichotomy"):
        got = verify_certificate(sys_, proj, cert, window)
    assert caplog.records[0].getMessage().startswith(
        "dense pair plan: full scan, no block length certifies")
    assert got.holds
    assert_same_outcome(got, pair_loop(sys_, proj, cert, window))


def test_q_images_that_overflow_take_the_full_scan_and_raise(caplog):
    # the blocks certify at L = 1 (P shrinks and Q grows every step), but
    # from index 4 on by 1e150: the Q images of the first rows overflow
    # before hi, the overflow guard sends the window to the full scan, and
    # it raises where the pair loop raises
    steps = [np.diag([0.5, 2.0])] * 3 + [np.diag([1e-150, 1e150])] * 7
    sys_ = SystemDescription(2, ExplicitSequence([np.eye(2)] + steps))
    proj = ProjectionFamily(2, matrix=np.diag([1.0, 0.0]))
    window = WindowSpec(0, 10)
    cert = DichotomyCertificate(Kind.UED, alpha=0.1, n_const=2.0)
    with caplog.at_level(logging.DEBUG, logger="dichotomy"):
        got = run(verify_certificate, sys_, proj, cert, window)
    assert [r.getMessage() for r in caplog.records] == [
        "dense pair plan: full scan, an image of the window could overflow"]
    assert got[0] is DenseOverflowError
    assert got == run(pair_loop, sys_, proj, cert, window)


def test_the_plan_logs_one_record_per_verify(caplog):
    sys_, proj = non_normal_system(0, 4, 2, 40, 0.5, 1.5)
    cert = DichotomyCertificate(Kind.UED, alpha=0.05, n_const=150.0)
    with caplog.at_level(logging.DEBUG, logger="dichotomy"):
        verify_certificate(sys_, proj, cert, WindowSpec(0, 40))
        verify_certificate(sys_, proj, DichotomyCertificate(Kind.UED, alpha=1.5, n_const=1.0),
                           WindowSpec(0, 40))
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("dichotomy", "DEBUG", "dense pair plan: block length 4 certifies; 158 short pairs swept"),
        ("dichotomy", "DEBUG", "dense pair plan: full scan, a pair (k, k + 1) violates"),
    ]


def test_the_plan_is_silent_by_default(tmp_path):
    # no logging configured: a dense verify writes its report and nothing else
    sys_, proj = non_normal_system(0, 4, 2, 40, 0.5, 1.5)
    lines = ["[system]", "dim = 4", "source = explicit"]
    lines += [f"A{k} = " + "; ".join(",".join(repr(float(x)) for x in row) for row in m)
              for k, m in enumerate(sys_.coefficients.matrices)]
    lines += ["[projection]", "matrix = " + "; ".join(
        ",".join(repr(float(x)) for x in row) for row in proj.matrix(0))]
    (tmp_path / "system.ini").write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = run_cli("verify", "--system", str(tmp_path / "system.ini"), "--cert",
                  "UED:N=150,alpha=0.05", "--window", "0..40", "--report",
                  str(tmp_path / "report.json"), check=0)
    assert out.stderr == ""
    assert json.loads((tmp_path / "report.json").read_text())["result"]["verdict"] == "holds"
