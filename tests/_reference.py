"""poleplace 1.0.0, the bitwise reference of the tests.

``perfbench/reference/poleplace_ref`` is a frozen copy of poleplace 1.0.0
whose content ``perfbench/test_perfbench.py`` pins by SHA-256.  It is
imported here by path, as ``perfbench/run.py`` imports it, and without
writing bytecode next to it.  Tests compare the package with it through
:func:`assert_same_bits`; a test keeps a local reference only where the
behaviour changed on purpose since 1.0.0, with the reason beside it.

The adapters below bridge the 1.0.0 interfaces: its kernels take an
explicit precision, passed under today's dtype rule (float32 input stays
32-bit, all else is 64-bit); its ``_lu_factor`` also returns the swap
count; its chains take its own ``StateSpace``.

Only tests write system files, so the package has no writer: tests write
with 1.0.0's ``save_system`` and ``format_matrix_text``, whose text
today's reader parses back bit for bit.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np

from poleplace import linalg

_saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench" / "reference"))
try:
    from poleplace_ref import errors, exactring, placement, sim
    from poleplace_ref import linalg as ref_linalg
finally:
    sys.dont_write_bytecode = _saved


save_system = ref_linalg.save_system
format_matrix_text = ref_linalg.format_matrix_text


def precision(p):
    """The 1.0.0 ``Precision`` of today's ``p``."""
    return ref_linalg.Precision(p.bits)


def _own(x, p=None):
    return precision(p or linalg._precision_of(x))


def _lu_factor(A):
    lu, piv, _swaps, pivmin = ref_linalg._lu_factor(A)
    return lu, piv, pivmin


def _place_exact(A, B, charpoly):
    try:
        return exactring.place_exact(A, B, charpoly)
    except errors.UncontrollableSystem as exc:
        # 1.0.0 reports b = 0 at n = 1 from a scalar branch with its own
        # message; that branch was folded into the general sweep on purpose
        if str(exc) != "scalar system with b = 0":
            raise
        raise errors.UncontrollableSystem("exact denominator Ab.B is zero") from None


def _nullspace_row(v):
    try:
        return exactring.nullspace_row(v)
    except errors.ZeroVector as exc:
        # the zero vector is an argument error, a ValueError, on purpose:
        # 1.0.0's ZeroVector named no failure of a placement
        raise ValueError(str(exc)) from None


# today's name -> 1.0.0 called as today's kernel is
KERNELS = {
    "as_matrix": lambda M, p=None: ref_linalg.as_matrix(M, _own(M, p)),
    "as_vector": lambda v, p=None: ref_linalg.as_vector(v, _own(v, p)),
    "qr_decompose": lambda M: ref_linalg.qr_decompose(M, _own(M)),
    "solve_linear": lambda A, b: ref_linalg.solve_linear(A, b, _own(A)),
    "svd_decompose": lambda M: ref_linalg.svd_decompose(M, _own(M)),
    "eigenvalues": lambda A: ref_linalg.eigenvalues(A, _own(A)),
    "_lu_factor": _lu_factor,
    "_elmhes": ref_linalg._elmhes,
    "_hqr_eigenvalues": ref_linalg._hqr_eigenvalues,
    "mat_mul": exactring.mat_mul,
    "nullspace_row": _nullspace_row,
    "place_exact": _place_exact,
    # 1.0.0 rounds h to the state's own dtype, so an integer state took a
    # zero step; today's rule steps it in float64
    "rk4_step": lambda derivative, t, x, h: sim.rk4_step(
        derivative, t, np.asarray(x, dtype=linalg._precision_of(np.asarray(x)).dtype), h),
}


def state_space(system):
    """The 1.0.0 ``StateSpace`` of today's ``system``."""
    return placement.StateSpace(system.A, system.B)


def anchor_chain(system, p):
    """The 1.0.0 anchor chain of today's ``system`` at today's precision ``p``."""
    return placement.build_anchor_chain(state_space(system), precision(p))


def _bits(value):
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return [_bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (np.ndarray, np.generic, float)):
        a = np.asarray(value)
        return type(value).__name__, a.dtype.str, a.shape, a.tobytes()
    return value


def outcome(fn, *args):
    """Type, dtype, shape and bytes of each float or array ``fn(*args)``
    returns (tuples, lists and dataclasses element by element, anything
    else as it is), or the class name and message of what it raises:
    1.0.0 raises its own classes of the same names."""
    try:
        out = fn(*args)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc).__name__, str(exc)
    return _bits(out)


def assert_same_bits(new, ref, cases):
    """Assert that ``new`` and ``ref`` have the same :func:`outcome` on
    each tuple of arguments in ``cases``; return the reference outcomes."""
    outcomes = []
    for args in cases:
        want = outcome(ref, *args)
        same = outcome(new, *args) == want
        assert same, f"outcomes differ on arguments {args!r:.2000}"
        outcomes.append(want)
    assert outcomes, "no cases"
    return outcomes
