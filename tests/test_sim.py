import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from poleplace import linalg
from poleplace.bench import gen_scaled_diagonal
from poleplace.errors import DivergedState
from poleplace.linalg import BITS32
from poleplace.placement import StateSpace, build_anchor_chain, gain_from_chain
from poleplace.sim import SimConfig, Trace, default_horizon, rk4_step, simulate, trace_diff

import _reference as ref
from _reference import assert_same_bits

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


@pytest.mark.parametrize("dt, big", [(np.float64, 1e308), (np.float32, 3e38)])
def test_rk4_finiteness_test_reads_each_entry(dt, big):
    # a state with an inf or a nan entry raises, a finite one whose sum
    # overflows does not, a 0-d state is read as one entry, and the test
    # itself warns of nothing
    def constant(value):
        return lambda t, x: np.asarray(value, dtype=dt)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([np.inf, 0.0], [0.0, np.nan], np.inf):
            x = np.zeros(np.shape(bad), dtype=dt)
            with pytest.raises(DivergedState):
                rk4_step(constant(bad), 0.0, x, 0.1)
        for x in (np.array([big, big], dtype=dt), dt(big)):
            out = rk4_step(constant(np.zeros_like(x)), 0.0, x, 0.1)
            assert out.dtype == dt and out.tobytes() == np.asarray(x).tobytes()


def test_rk4_step_bits_equal_reference():
    # float64, float32 (with a float32 and with a float64 derivative) and
    # integer states, linear, nonlinear and time-dependent derivatives,
    # constant float32 and integer ones, and a diverging one
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-6.0, -11.0, -6.0]]) / 3.0
    A32 = A.astype(np.float32)
    cases = []
    for t, x, h, M in ((0.0, np.array([1.0, -2.0, 0.5]), 0.1, A),
                       (np.float32(0.5), np.array([1.0, -2.0, 0.5], dtype=np.float32), 0.1, A32),
                       (np.float32(0.5), np.array([3e-3, 7.0, -1.5], dtype=np.float32), 0.25, A),
                       (0.25, np.array([1, -2, 3]), 0.1, A),
                       (0.25, [2, 0, -1], 0.3, A)):
        cases += [
            (lambda t, x, M=M: M.dot(x), t, x, h),
            (lambda t, x: np.sin(x) * t - x ** 3, t, x, h),
            (lambda t, x, M=M: np.cos(t) * M.dot(x) - x, t, x, h),
            (lambda t, x: np.float32([0.1, -3.0, 7e-3]), t, x, h),
            (lambda t, x: np.array([1, -2, 0]), t, x, h),
            (lambda t, x: x * np.inf, t, np.abs(x) + 1, h),
        ]
    outcomes = assert_same_bits(rk4_step, ref.KERNELS["rk4_step"], cases)
    assert sum(o[0] == "DivergedState" for o in outcomes) == 5


def test_rk4_writes_into_neither_the_state_nor_a_stage():
    # the update is formed in place, so it must start from a fresh array:
    # a derivative may hand back a buffer it keeps (one of four, each
    # written by np.dot(out=)) or the state it was given
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-6.0, -11.0, -6.0]])
    buffers = [np.empty(3) for _ in range(4)]
    returned = []

    def kept(t, x):
        k = np.dot(A, x, out=buffers[len(returned)])
        returned.append((k, k.copy()))
        return k

    def identity(t, x):
        returned.append((x, x.copy()))
        return x

    for derivative in (kept, identity):
        returned.clear()
        x = np.array([1.0, -2.0, 0.5])
        before = x.copy()
        out = rk4_step(derivative, 0.0, x, 0.1)
        assert x.tobytes() == before.tobytes()
        assert len(returned) == 4
        for k, at_return in returned:
            assert k.tobytes() == at_return.tobytes()
            assert out is not k


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


def test_simulate_checks_the_length_of_x0_first():
    # before the chain is built: the 32-bit cast of this system would
    # overflow, but the short x0 is the error
    big = StateSpace(WORKED.A * 1e39, WORKED.B)
    for sys in (WORKED, big):
        with pytest.raises(ValueError, match="^x0 needs 3 entries$"):
            simulate(sys, POLES, SimConfig(T=1.0, h=0.5, x0=[1.0, 2.0]), precision=BITS32)


def test_simulate_diverged_state_guard():
    # placing the spectrum in the right half plane blows the trajectory up
    cfg = SimConfig(T=12.0, h=0.01, x0=[1.0, 2.0, 3.0], feedback="gain")
    with pytest.raises(DivergedState):
        simulate(WORKED, [3.0, 2.0, 1.0], cfg)


def test_chain_simulate_checks_states_once_not_per_stage(monkeypatch):
    # x0 is checked in SimConfig and each step's output in rk4_step; the
    # four stages of a step go to the law unchecked
    calls = []
    real = linalg.as_vector

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("poleplace.") and getattr(module, "as_vector", None) is real:
            monkeypatch.setattr(module, "as_vector", counted)
    # the first simulate builds the system's chain, whose Householder
    # reflectors call as_vector: warm it before counting
    simulate(WORKED, POLES, SimConfig(T=0.01, h=0.01, x0=[1.0, 2.0, 3.0], feedback="chain"))
    counts = {}
    for steps in (5, 50):
        cfg = SimConfig(T=steps * 0.01, h=0.01, x0=[1.0, 2.0, 3.0], feedback="chain")
        calls.clear()
        trace = simulate(WORKED, POLES, cfg)
        assert len(trace.times) == steps + 1
        counts[steps] = len(calls)
    assert counts[50] == counts[5] <= 1


def test_simulate_scaled_diagonal_32bit_both_modes():
    # the slow family shows a large transient before settling, so the
    # horizon has to cover several multiples of the slowest time constant
    sys = gen_scaled_diagonal(7, seed=341)
    poles = [-0.01 * (k + 1) for k in range(7)]
    traces = {}
    for mode in ("gain", "chain"):
        cfg = SimConfig(T=1000.0, h=0.25, x0=[float(k + 1) for k in range(7)],
                        feedback=mode)
        traces[mode] = simulate(sys, poles, cfg, precision=BITS32)
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
    traces = {}
    for mode in ("gain", "chain"):
        cfg = SimConfig(T=5.0, h=0.01, x0=[1.0, 2.0, 3.0], feedback=mode)
        traces[mode] = simulate(WORKED, POLES, cfg)
    d = trace_diff(traces["gain"], traces["chain"])
    peak = np.max(np.abs(traces["gain"].states))
    assert np.max(np.abs(d.states)) <= 1e-8 * peak


def test_trace_diff_32bit_n10_bounded():
    # qualitative: at 32 bits the two feedback realizations drift apart,
    # but the error trace stays finite and the loop stays stable
    sys = gen_scaled_diagonal(10, seed=341)
    poles = [-0.01 * (k + 1) for k in range(10)]
    traces = {}
    for mode in ("gain", "chain"):
        cfg = SimConfig(T=50.0, h=0.05, x0=[float(k + 1) for k in range(10)],
                        feedback=mode)
        traces[mode] = simulate(sys, poles, cfg, precision=BITS32)
    diff = trace_diff(traces["gain"], traces["chain"])
    assert np.all(np.isfinite(diff.states))
    assert np.max(np.abs(diff.states)) > 0.0


def test_trace_diff_grid_mismatch():
    a = Trace(np.array([0.0, 0.1]), np.zeros((2, 2)))
    b = Trace(np.array([0.0, 0.2]), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="^traces are on different time grids$"):
        trace_diff(a, b)
    c = Trace(np.array([0.0, 0.1]), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="^traces have different state dimensions$"):
        trace_diff(a, c)


def test_trace_csv_format():
    tr = Trace(np.array([0.0, 0.5]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    lines = tr.to_csv().strip().splitlines()
    assert lines[0] == "t,x1,x2"
    assert lines[1].startswith("0.0,")
    assert len(lines) == 3


def test_trace_csv_bytes_equal_reference():
    # -0.0, subnormals, 1e+-300 and float32-rounded values, in float64 and
    # float32 arrays, and a simulated 32-bit trace
    f32 = np.array([0.1, -1 / 3, 3e38, 1e-40], dtype=np.float32)
    cfg = SimConfig(T=1.0, h=0.25, x0=[1.0, 2.0, 3.0], feedback="chain")
    simulated = simulate(WORKED, POLES, cfg, precision=BITS32)
    assert_same_bits(lambda t, x: Trace(t, x).to_csv(),
                     lambda t, x: ref.sim.Trace(t, x).to_csv(), [
        (np.array([0.0, 0.1, 0.30000000000000004]),
         np.array([[-0.0, 5e-324, 1e300], [-1e-300, 2.2250738585072014e-309, -1e300],
                   [1.0, -2.5, 7e22]])),
        (np.array([0.0, 0.25]), np.vstack([f32, -f32]).astype(np.float64)),
        (np.array([0.0, 0.25], dtype=np.float32), np.vstack([f32, -f32])),
        (np.array([1e-320]), np.array([[-0.0]])),
        (simulated.times, simulated.states),
    ])


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(T=0.0, h=0.01, x0=[1.0])
    with pytest.raises(ValueError):
        SimConfig(T=1.0, h=2.0, x0=[1.0])
    with pytest.raises(ValueError):
        SimConfig(T=1.0, h=0.1, x0=[1.0], feedback="other")
    for T, h in ((np.inf, 0.01), (np.inf, np.inf), (1e200, 1e-200)):
        with pytest.raises(ValueError, match="need a finite step count T / h"):
            SimConfig(T=T, h=h, x0=[1.0])
