"""Closed-loop simulation with the classical Runge-Kutta integrator.

Two feedback realizations are compared: the precomputed gain vector
(u = -K x) and the nested chain evaluation that computes the same
control without ever forming K.  Their trajectory difference is the
error signal studied in the precision experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergedState
from .linalg import BITS64, Precision, _precision_of, as_vector
from .placement import AnchorChain, ChainFeedback, StateSpace, build_anchor_chain
from .placement import feedback_eval  # noqa: F401 - perfbench's tracer test wraps sim.feedback_eval

OVERFLOW_GUARD = 1e12
HORIZON_TIME_CONSTANTS = 5.0  # default horizon, in slowest time constants


@dataclass(frozen=True)
class SimConfig:
    """Horizon, step, initial state, and feedback realization
    ('gain' or 'chain')."""

    T: float
    h: float
    x0: np.ndarray
    feedback: str = "gain"

    def __post_init__(self):
        if not (self.T > 0 and 0 < self.h <= self.T):
            raise ValueError("need T > 0 and 0 < h <= T")
        if self.feedback not in ("gain", "chain"):
            raise ValueError("feedback must be 'gain' or 'chain'")
        object.__setattr__(self, "x0", as_vector(self.x0))


@dataclass(frozen=True)
class Trace:
    """Sampled trajectory: times (strictly increasing) and one state row
    per time."""

    times: np.ndarray
    states: np.ndarray

    def to_csv(self) -> str:
        n = self.states.shape[1]
        lines = ["t," + ",".join(f"x{i+1}" for i in range(n))]
        for t, row in zip(self.times, self.states):
            lines.append(repr(float(t)) + "," + ",".join(repr(float(x)) for x in row))
        return "\n".join(lines) + "\n"


def rk4_step(derivative, t, x, h):
    """One classical 4-stage Runge-Kutta update, with h rounded to the
    state's format (float32 stays float32, all else float64)."""
    x = np.asarray(x)
    h = _precision_of(x).dtype(h)
    k1 = derivative(t, x)
    k2 = derivative(t + h / 2, x + k1 * (h / 2))
    k3 = derivative(t + h / 2, x + k2 * (h / 2))
    k4 = derivative(t + h, x + k3 * h)
    out = x + (k1 + 2.0 * k2 + 2.0 * k3 + k4) * (h / 6.0)
    if not np.all(np.isfinite(out)):
        raise DivergedState("derivative produced a non-finite state")
    return out


def default_horizon(poles) -> float:
    """HORIZON_TIME_CONSTANTS times the slowest closed-loop time constant."""
    slowest = min(abs(complex(p).real) for p in poles)
    if slowest == 0:
        raise ValueError("the default horizon needs poles with nonzero real part")
    return HORIZON_TIME_CONSTANTS / slowest


def simulate(sys: StateSpace, poles, cfg: SimConfig,
             chain: AnchorChain | None = None,
             precision: Precision = BITS64) -> Trace:
    """Integrate dx/dt = A x + B u with u = -K x under the selected
    feedback realization.

    The poles are bound once, before the step loop, into one
    :class:`ChainFeedback` law that both modes use: 'gain' forms K from it
    once and applies the dot product each step; 'chain' evaluates the
    nested feedback function at every stage, so each stage costs the
    chain recursion alone.  A given ``chain`` must have been built from
    this system at this precision.  The trajectory aborts with
    DivergedState if the state leaves the overflow guard region.
    """
    dt = precision.dtype
    if chain is None:
        chain = build_anchor_chain(sys, precision)
    elif chain.precision != precision:
        raise ValueError(f"chain was built at {chain.precision}, simulating at {precision}")
    elif not (np.array_equal(chain.system.A, sys.A)
              and np.array_equal(chain.system.B, sys.B)):
        raise ValueError("chain was built from a different system")
    A, B = chain.A, chain.B
    if cfg.x0.size != sys.n:
        raise ValueError("x0 dimension mismatch")
    law = ChainFeedback(chain, poles=poles)
    if cfg.feedback == "gain":
        K = law.gain()

        def control(x):
            return -(K @ x)
    else:
        def control(x):
            return dt(law(x))

    def derivative(t, x):
        return A @ x + B * control(x)

    steps = int(round(cfg.T / cfg.h))
    times = np.zeros(steps + 1)
    states = np.zeros((steps + 1, sys.n), dtype=dt)
    states[0] = cfg.x0.astype(dt)
    h = dt(cfg.h)
    for i in range(steps):
        times[i + 1] = times[i] + cfg.h
        states[i + 1] = rk4_step(derivative, dt(times[i]), states[i], h)
        if np.linalg.norm(states[i + 1].astype(np.float64)) > OVERFLOW_GUARD:
            raise DivergedState(
                f"state norm exceeded {OVERFLOW_GUARD:.0e} at t = {times[i + 1]:.3f}"
            )
    return Trace(times, states.astype(np.float64))


def trace_diff(a: Trace, b: Trace) -> Trace:
    """Pointwise state difference of two traces on the same grid."""
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise ValueError("traces are on different time grids")
    if a.states.shape != b.states.shape:
        raise ValueError("traces have different state dimensions")
    return Trace(a.times.copy(), a.states - b.states)
