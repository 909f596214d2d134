"""Closed-loop simulation with the classical Runge-Kutta integrator.

Two feedback realizations are compared: the precomputed gain vector
(u = -K x) and the nested chain evaluation that computes the same
control without ever forming K.  Their trajectory difference is the
error signal studied in the precision experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergedState
from .linalg import (BITS64, Precision, _all_finite, _complex_poles, _in_precision, _precision_of,
                     as_vector)
from .placement import ChainFeedback, StateSpace, _prepared, build_anchor_chain
from .placement import feedback_eval  # noqa: F401 - perfbench's tracer test wraps sim.feedback_eval

OVERFLOW_GUARD = 1e12
HORIZON_TIME_CONSTANTS = 5.0  # default horizon, in slowest time constants


@dataclass(frozen=True, eq=False)
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
        # also rules out an infinite T or h
        if not math.isfinite(float(self.T) / float(self.h)):
            raise ValueError(f"need a finite step count T / h, got T = {self.T}, h = {self.h}")
        if self.feedback not in ("gain", "chain"):
            raise ValueError("feedback must be 'gain' or 'chain'")
        object.__setattr__(self, "x0", as_vector(self.x0))
        # the trace holds steps + 1 float64 rows of n entries
        if (self.steps + 1) * self.x0.size * 8 > np.iinfo(np.intp).max:
            raise ValueError(f"step count T / h = {self.T / self.h:.3g} is too large "
                             f"for the trace, T = {self.T}, h = {self.h}")

    @property
    def steps(self) -> int:
        """The number of RK4 steps, T / h rounded."""
        return int(round(self.T / self.h))


@dataclass(frozen=True, eq=False)
class Trace:
    """Sampled trajectory: times (strictly increasing) and one state row
    per time."""

    times: np.ndarray
    states: np.ndarray

    def to_csv(self) -> str:
        n = self.states.shape[1]
        lines = ["t," + ",".join(f"x{i+1}" for i in range(n))]
        times = np.asarray(self.times, dtype=np.float64).tolist()
        states = np.asarray(self.states, dtype=np.float64).tolist()
        for t, row in zip(times, states):
            lines.append(repr(t) + "," + ",".join(map(repr, row)))
        return "\n".join(lines) + "\n"


def rk4_step(derivative, t, x, h):
    """One classical 4-stage Runge-Kutta update, with h rounded to the
    state's format (float32 stays float32, all else float64).

    The arithmetic is 1.0.0's, in its order: the stages at x + k h/2 and
    x + k h, then x + (k1 + 2 k2 + 2 k3 + k4) h/6: the sum accumulates
    in place on 2 k2, and x is added in place to its fresh product with
    h/6.  Addition and multiplication commute, so the bits are 1.0.0's
    unless k1, k3 or k4 comes back in a wider format than k2.  Neither
    ``x`` nor an array the derivative returns is written to.
    """
    x = np.asarray(x)
    h = _precision_of(x).dtype(h)
    h2 = h / 2
    k1 = derivative(t, x)
    k2 = derivative(t + h2, x + k1 * h2)
    k3 = derivative(t + h2, x + k2 * h2)
    k4 = derivative(t + h, x + k3 * h)
    ks = 2.0 * k2
    ks += k1
    ks += 2.0 * k3
    ks += k4
    out = ks * (h / 6.0)
    out += x
    if not _all_finite(out):
        raise DivergedState("derivative produced a non-finite state")
    return out


def default_horizon(poles) -> float:
    """HORIZON_TIME_CONSTANTS times the slowest closed-loop time constant."""
    slowest = min(abs(p.real) for p in _complex_poles(poles))
    if slowest == 0:
        raise ValueError("the default horizon needs poles with nonzero real part")
    return HORIZON_TIME_CONSTANTS / slowest


def simulate(sys: StateSpace, poles, cfg: SimConfig,
             precision: Precision = BITS64) -> Trace:
    """Integrate dx/dt = A x + B u with u = -K x under the selected
    feedback realization.

    The poles are bound once, before the step loop, into one
    :class:`ChainFeedback` law that both modes use: 'gain' forms K from it
    once and applies the dot product each step; 'chain' evaluates the
    nested feedback function at every stage, so each stage costs the
    chain recursion alone.  States are checked where they are made: x0
    once, in :class:`SimConfig`, and each step's output in
    :func:`rk4_step`; the stages in between run unchecked.  The law runs
    on the system's own anchor chain at this precision, built on its
    first use, so both modes of one system, and its placements, share it.
    The trajectory aborts with DivergedState if a step's output is not
    finite or leaves the overflow guard region.
    """
    if cfg.x0.size != sys.n:
        raise ValueError(f"x0 needs {sys.n} entries")
    dt = precision.dtype
    chain = _prepared(sys, precision, "chain", build_anchor_chain, sys, precision)
    A, B = chain.A, chain.B
    law = ChainFeedback(chain, poles=poles)
    if cfg.feedback == "gain":
        K = law.gain()

        def derivative(t, x):
            return A.dot(x) + B * -K.dot(x)
    else:
        control = law._apply

        def derivative(t, x):
            return A.dot(x) + B * control(x)

    times = np.zeros(cfg.steps + 1)
    states = np.zeros((cfg.steps + 1, sys.n), dtype=dt)
    states[0] = _in_precision(cfg.x0, precision, "x0 has entries")
    h = _in_precision(cfg.h, precision, "the step h is")[()]
    # the clock adds in float64, as times[i] + h would
    t, step = 0.0, float(cfg.h)
    # a stage that overflows ends in rk4_step's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.steps):
            states[i + 1] = rk4_step(derivative, dt(t), states[i], h)
            t += step
            times[i + 1] = t
            v = states[i + 1].astype(np.float64, copy=False)
            if math.sqrt(v.dot(v)) > OVERFLOW_GUARD:
                raise DivergedState(
                    f"state norm exceeded {OVERFLOW_GUARD:.0e} at t = {t:.3f}"
                )
    return Trace(times, states.astype(np.float64))


def trace_diff(a: Trace, b: Trace) -> Trace:
    """Pointwise state difference of two traces on the same grid."""
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise ValueError("traces are on different time grids")
    if a.states.shape != b.states.shape:
        raise ValueError("traces have different state dimensions")
    return Trace(a.times.copy(), a.states - b.states)
