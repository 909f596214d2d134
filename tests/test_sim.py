import numpy as np
import pytest
import scipy.linalg

from poleplace.bench import gen_scaled_diagonal
from poleplace.errors import DivergedState
from poleplace.linalg import BITS32
from poleplace.placement import StateSpace, build_anchor_chain, gain_from_chain
from poleplace.sim import SimConfig, Trace, default_horizon, rk4_step, simulate, trace_diff

WORKED = StateSpace([[1, 3, 5], [7, 13, 17], [1, 1, 1]], [1, 1, 1])
POLES = [-1.0, -2.0, -3.0]


# ---------------------------------------------------------------------------
# rk4_step


def test_rk4_zero_derivative():
    x = np.array([1.0, -2.0])
    out = rk4_step(lambda t, x: np.zeros_like(x), 0.0, x, 0.1)
    assert np.array_equal(out, x)


def test_rk4_linear_decay_one_step():
    # dx/dt = -x, h = 0.1: the 4-stage update equals the degree-4 Taylor
    # polynomial of exp(-h): 1 - 0.1 + 0.005 - 1/6000 + 1/240000 = 0.9048375
    out = rk4_step(lambda t, x: -x, 0.0, np.array([1.0]), 0.1)
    assert out[0] == pytest.approx(0.9048375, abs=1e-15)


def test_rk4_fourth_order_convergence():
    def endpoint_error(h):
        x = np.array([1.0])
        steps = int(round(1.0 / h))
        for k in range(steps):
            x = rk4_step(lambda t, x: -x, k * h, x, h)
        return abs(x[0] - np.exp(-1.0))

    ratio = endpoint_error(0.1) / endpoint_error(0.05)
    assert 12.0 <= ratio <= 20.0


def test_rk4_integer_state_takes_a_float64_step():
    out = rk4_step(lambda t, x: -x, 0.0, [1, 2], 0.1)
    ref = rk4_step(lambda t, x: -x, 0.0, np.array([1.0, 2.0]), 0.1)
    assert out.tobytes() == ref.tobytes()
    assert out[0] == pytest.approx(0.9048375, abs=1e-15)


def test_rk4_rejects_nonfinite():
    with pytest.raises(DivergedState):
        rk4_step(lambda t, x: x * np.inf, 0.0, np.array([1.0]), 0.1)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_worked_example_settles():
    cfg = SimConfig(T=10.0, h=0.01, x0=[1.0, 2.0, 3.0], feedback="gain")
    trace = simulate(WORKED, POLES, cfg)
    assert np.linalg.norm(trace.states[-1]) <= 1e-3
    # analytic oracle: x(T) = expm((A - B K) T) x0
    K = gain_from_chain(build_anchor_chain(WORKED), poles=POLES)
    closed = WORKED.A - np.outer(WORKED.B, K)
    analytic = scipy.linalg.expm(closed * 10.0) @ np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(trace.states[-1], analytic, atol=1e-8)


def test_simulate_zero_initial_state():
    cfg = SimConfig(T=1.0, h=0.01, x0=[0.0, 0.0, 0.0], feedback="gain")
    trace = simulate(WORKED, POLES, cfg)
    assert np.max(np.abs(trace.states)) == 0.0


def test_simulate_decays_below_initial_within_envelope():
    T = default_horizon(POLES)  # 5 / |slowest real part| = 5
    assert T == pytest.approx(5.0)
    cfg = SimConfig(T=T, h=0.01, x0=[1.0, 2.0, 3.0], feedback="gain")
    trace = simulate(WORKED, POLES, cfg)
    assert np.linalg.norm(trace.states[-1]) < np.linalg.norm(trace.states[0])


def test_simulate_grid_shape():
    cfg = SimConfig(T=1.0, h=0.25, x0=[1.0, 2.0, 3.0], feedback="gain")
    trace = simulate(WORKED, POLES, cfg)
    np.testing.assert_allclose(trace.times, [0, 0.25, 0.5, 0.75, 1.0])
    assert trace.states.shape == (5, 3)
    assert np.all(np.diff(trace.times) > 0)


def test_simulate_diverged_state_guard():
    # placing the spectrum in the right half plane blows the trajectory up
    cfg = SimConfig(T=12.0, h=0.01, x0=[1.0, 2.0, 3.0], feedback="gain")
    with pytest.raises(DivergedState):
        simulate(WORKED, [3.0, 2.0, 1.0], cfg)


def test_simulate_rejects_foreign_chain():
    other = StateSpace([[0, 1, 0], [0, 0, 1], [-1, -2, -3]], [0, 0, 1])
    for mode in ("gain", "chain"):
        cfg = SimConfig(T=1.0, h=0.1, x0=[1.0, 2.0, 3.0], feedback=mode)
        with pytest.raises(ValueError, match="different system"):
            simulate(WORKED, POLES, cfg, chain=build_anchor_chain(other))
        with pytest.raises(ValueError, match="built at"):
            simulate(WORKED, POLES, cfg, chain=build_anchor_chain(WORKED, BITS32))
        with pytest.raises(ValueError, match="built at"):
            simulate(WORKED, POLES, cfg, chain=build_anchor_chain(WORKED), precision=BITS32)


def test_simulate_scaled_diagonal_32bit_both_modes():
    # the slow family shows a large transient before settling, so the
    # horizon has to cover several multiples of the slowest time constant
    sys = gen_scaled_diagonal(7, seed=341)
    poles = [-0.01 * (k + 1) for k in range(7)]
    chain = build_anchor_chain(sys, BITS32)
    traces = {}
    for mode in ("gain", "chain"):
        cfg = SimConfig(T=1000.0, h=0.25, x0=[float(k + 1) for k in range(7)],
                        feedback=mode)
        traces[mode] = simulate(sys, poles, cfg, chain=chain, precision=BITS32)
        assert (np.linalg.norm(traces[mode].states[-1])
                < np.linalg.norm(traces[mode].states[0]))
    diff = trace_diff(traces["gain"], traces["chain"])
    assert np.all(np.isfinite(diff.states))


# ---------------------------------------------------------------------------
# trace_diff


def test_trace_diff_identical_traces():
    cfg = SimConfig(T=1.0, h=0.1, x0=[1.0, 2.0, 3.0], feedback="gain")
    tr = simulate(WORKED, POLES, cfg)
    d = trace_diff(tr, tr)
    assert np.max(np.abs(d.states)) == 0.0


def test_trace_diff_gain_vs_chain_64bit():
    chain = build_anchor_chain(WORKED)
    traces = {}
    for mode in ("gain", "chain"):
        cfg = SimConfig(T=5.0, h=0.01, x0=[1.0, 2.0, 3.0], feedback=mode)
        traces[mode] = simulate(WORKED, POLES, cfg, chain=chain)
    d = trace_diff(traces["gain"], traces["chain"])
    peak = np.max(np.abs(traces["gain"].states))
    assert np.max(np.abs(d.states)) <= 1e-8 * peak


def test_trace_diff_32bit_n10_bounded():
    # qualitative: at 32 bits the two feedback realizations drift apart,
    # but the error trace stays finite and the loop stays stable
    sys = gen_scaled_diagonal(10, seed=341)
    poles = [-0.01 * (k + 1) for k in range(10)]
    chain = build_anchor_chain(sys, BITS32)
    traces = {}
    for mode in ("gain", "chain"):
        cfg = SimConfig(T=50.0, h=0.05, x0=[float(k + 1) for k in range(10)],
                        feedback=mode)
        traces[mode] = simulate(sys, poles, cfg, chain=chain, precision=BITS32)
    diff = trace_diff(traces["gain"], traces["chain"])
    assert np.all(np.isfinite(diff.states))
    assert np.max(np.abs(diff.states)) > 0.0


def test_trace_diff_grid_mismatch():
    a = Trace(np.array([0.0, 0.1]), np.zeros((2, 2)))
    b = Trace(np.array([0.0, 0.2]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        trace_diff(a, b)


def test_trace_csv_format():
    tr = Trace(np.array([0.0, 0.5]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    lines = tr.to_csv().strip().splitlines()
    assert lines[0] == "t,x1,x2"
    assert lines[1].startswith("0.0,")
    assert len(lines) == 3


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(T=0.0, h=0.01, x0=[1.0])
    with pytest.raises(ValueError):
        SimConfig(T=1.0, h=2.0, x0=[1.0])
    with pytest.raises(ValueError):
        SimConfig(T=1.0, h=0.1, x0=[1.0], feedback="other")
