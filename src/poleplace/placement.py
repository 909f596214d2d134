"""Single-input pole placement algorithms.

Nine :data:`ALGORITHMS` entries (eight methods, ``algebroid1`` in two
variants) compute the same gain vector, each with its own numerical
personality:

* ``ackermann_direct`` / ``ackermann_factored`` -- the closed form and
  its one-eigenvalue-at-a-time factorization: one Horner product
  Phi(A) = (A - l_n I)...(A - l_1 I), the second run on A^T from the row side.
* ``place_determinantal`` / ``place_sliding`` -- the affine-hyperplane
  geometry: each requested real pole defines a hyperplane of gains, the
  gain is their intersection, found either by solving the assembled
  normal equations or by sliding projections from plane to plane.
* ``place_algebroid1`` -- quotienting into the hyperplanes: fix one pole
  per level with an orthogonally-anchored quotient, then pull the gain
  back up level by level.
* ``gain_from_chain`` (with :func:`build_anchor_chain`) -- the chain of
  anchors factorization of the last row of the inverse controllability
  matrix, driven by characteristic-polynomial coefficients;
  :class:`ChainFeedback` binds those coefficients once and evaluates
  u = -K x through the chain without forming K.
* ``place_miminis`` / ``place_varga`` -- the classical orthogonal
  reduction methods kept for comparison.

All gains follow one convention: ``eigenvalues(A - B K)`` equals the
requested spectrum.  Routines that internally mirror an A + BK
formulation negate before returning.

Every target, a pole list or a characteristic polynomial, passes one
check (:func:`_targets`) before the system is cast or its kept work is
fetched, and the one cast (:func:`_sys_arrays`) rejects B = 0; the Ackermann
routes take the poles one step at a time, a conjugate pair as one real
quadratic step (:func:`~poleplace.linalg.pole_steps`).  :data:`ALGORITHMS`
maps each method's name to its function, called as
``fn(sys, poles, precision)``, which casts the system once; the helpers
take A and B as arrays and compute in their format.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ComplexBlockUnsupported,
    DegenerateProjection,
    InvalidPoleSet,
    ParallelHyperplanes,
    PrecisionOverflow,
    SingularShift,
    SingularSystem,
    UncontrollableSystem,
    ZeroInputComponent,
)
from .linalg import (
    BITS64,
    THRESHOLDS,
    Precision,
    _all_finite,
    _back_substitute,
    _complex_poles,
    _guard,
    _identity,
    _in_precision,
    _lu_eliminate,
    _precision_of,
    as_matrix,
    as_vector,
    has_complex_eigenvalue,
    householder_annihilator,
    householder_reflector,
    pole_steps,
    poly_from_roots,
    qr_decompose,
    schur_decompose,
    solve_linear,
    svd_decompose,
)


@dataclass(frozen=True, eq=False)
class StateSpace:
    """A single-input pair (A, B), dx/dt = A x + B u.

    Immutable: it owns read-only float64 copies of A and B, and keeps, per
    precision, the work its placements derive from (A, B) alone or from
    (A, B) and one pole (:func:`_prepared`)."""

    A: np.ndarray
    B: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        A = as_matrix(self.A, BITS64).copy()
        B = as_vector(self.B, BITS64).copy()
        if A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if B.size != A.shape[0]:
            raise ValueError("B must have one entry per state")
        A.flags.writeable = B.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.B.size


def _prepared(sys: StateSpace, precision: Precision, key: str, build, *args):
    """``build(*args)``, the work ``key`` on ``sys`` at ``precision``, done
    once: the first call that returns is kept, and a call that raises keeps
    nothing, so it is done again and raises again.  The one reader and
    writer of the system's memo.  Keys: "crow" (e_n^T C^-1), "chain",
    "hessenberg", "schur", and "normals", a dict that
    :func:`_hyperplane_normals` fills pole by pole."""
    memo = sys._memo
    value = memo.get((precision.bits, key))
    if value is None:
        value = memo[precision.bits, key] = build(*args)
    return value


def _range_rule(fn):
    """``fn`` under ``np.errstate(over="raise", divide="raise", invalid="ignore")``, its
    ``FloatingPointError`` raised as :class:`PrecisionOverflow` with numpy's text, e.g.
    "ackermann_direct: overflow encountered in matmul".  Invalid is off: OpenBLAS's
    small float32 gemv can set it on a finite product (0.3.31, ~1 process in 350)."""
    @functools.wraps(fn)
    def ruled(*args, **kwargs):
        try:
            with np.errstate(over="raise", divide="raise", invalid="ignore"):
                return fn(*args, **kwargs)
        except FloatingPointError as exc:
            raise PrecisionOverflow(f"{fn.__qualname__}: {exc}") from exc
    return ruled


def _sys_arrays(sys: StateSpace, precision: Precision):
    """A and B in ``precision``, range-checked (:func:`_in_precision`), and the
    one zero-input rule: B = 0 once cast is :class:`UncontrollableSystem`, or
    :class:`PrecisionOverflow` if the float64 B was not 0 (lost in the cast)."""
    A = _in_precision(sys.A, precision, "A has entries")
    B = _in_precision(sys.B, precision, "B has entries")
    if not np.logical_or.reduce(B):
        if np.logical_or.reduce(sys.B):
            raise PrecisionOverflow("B underflowed to 0 in the 32-bit cast")
        raise UncontrollableSystem("B = 0")
    return A, B


def _targets(n: int, poles, charpoly=None, real: bool = False, coefficients: bool = False):
    """The one check of a placement's target.  A ``coefficients`` route
    (ackermann's entry, the chain law) takes exactly one of poles and
    charpoly, else ``ValueError``; any other fault is :class:`InvalidPoleSet`.
    A charpoly, finite and monic of length n+1, comes back as float64; n
    finite, conjugate-closed poles, all real when ``real``, as (roots, steps):
    the roots as floats when ``real``, else as complex, and their pole_steps."""
    if coefficients and (poles is None) == (charpoly is None):
        raise ValueError("give exactly one of poles or charpoly")
    if charpoly is not None:
        try:
            cp = np.asarray(charpoly, dtype=np.float64).ravel()
        except OverflowError as exc:
            raise InvalidPoleSet("charpoly has an integer beyond the float64 range") from exc
        if not _all_finite(cp):
            raise InvalidPoleSet(f"charpoly {cp.tolist()} is not finite")
        if cp.size != n + 1 or cp[0] != 1.0:
            raise InvalidPoleSet(f"charpoly {cp.tolist()} must be monic of length {n + 1}")
        return cp
    roots = _complex_poles(poles)
    steps = pole_steps(roots)
    if real:
        for z in roots:
            if z.imag != 0.0:
                raise InvalidPoleSet(f"this method handles real poles only, got {z}")
        roots = [z.real for z in roots]
    if len(roots) != n:
        raise InvalidPoleSet(f"expected {n} poles, got {len(roots)}")
    return roots, steps


def _coefficients(n: int, poles, charpoly=None) -> np.ndarray:
    """The chain law's target, checked (:func:`_targets`): the charpoly, or
    the poles' (:func:`~poleplace.linalg.poly_from_roots`), in float64."""
    cp = _targets(n, poles, charpoly, coefficients=True)
    return cp if charpoly is not None else poly_from_roots(cp[0])


def _check_targets(sys: StateSpace, poles, precision: Precision, real: bool = False,
                   charpoly=None, coefficients: bool = False):
    """The checks of a placement, in order: the target (:func:`_targets`),
    the one cast of ``sys`` to ``precision`` with its zero-input rule
    (:func:`_sys_arrays`), and the range of the pole factors cast there (a
    real pole, a pair's 2 Re l and |l|^2).  Returns (A, B, target), the
    target as :func:`_targets` returns it."""
    target = _targets(sys.n, poles, charpoly, real, coefficients)
    A, B = _sys_arrays(sys, precision)
    if charpoly is None:
        _in_precision([c for step in target[1] for c in step], precision, "pole list has entries")
    return A, B, target


# ---------------------------------------------------------------------------
# Ackermann


def controllability_matrix(A, B) -> np.ndarray:
    """[B, AB, ..., A^(n-1) B] in A's format (an overflowing column raises
    :class:`PrecisionOverflow` only inside a placement: the range rule)."""
    A, B = as_matrix(A), as_vector(B)
    cols = [B]
    for _ in range(B.size - 1):
        cols.append(A @ cols[-1])
    return np.array(cols).T


def inverse_ctrb_last_row(A, B) -> np.ndarray:
    """Last row of the inverse controllability matrix, e_n^T C^-1."""
    C = controllability_matrix(A, B)
    try:
        return solve_linear(C.T, _identity(C.shape[0], C.dtype)[-1])
    except SingularSystem as exc:
        raise UncontrollableSystem(
            f"controllability matrix numerically singular: {exc}"
        ) from exc


def _horner_steps(A, steps, X) -> np.ndarray:
    """Phi(A) X = (A - l_n I)...(A - l_1 I) X by the nested recursion, in A's format,
    from the poles' :func:`~poleplace.linalg.pole_steps`: a conjugate pair is one
    real quadratic step at its first member's slot, so all stays real."""
    for step in steps:
        if len(step) == 1:
            X = A @ X - A.dtype.type(step[0]) * X
        else:
            two_re, mag2 = (A.dtype.type(c) for c in step)
            AX = A @ X
            X = A @ AX - two_re * AX + mag2 * X
    return X


@_range_rule
def ackermann_direct(sys: StateSpace, poles=None, precision: Precision = BITS64,
                     charpoly=None) -> np.ndarray:
    """K = e_n^T C^-1 Phi(A), the closed-form placement gain."""
    A, B, target = _check_targets(sys, poles, precision, charpoly=charpoly, coefficients=True)
    crow = _prepared(sys, precision, "crow", inverse_ctrb_last_row, A, B)
    eye = _identity(sys.n, A.dtype)
    if charpoly is None:
        return crow @ _horner_steps(A, target[1], eye)
    Phi = eye
    for c in _in_precision(target[1:], precision, "charpoly has coefficients"):
        Phi = A @ Phi + c * eye
    return crow @ Phi


@_range_rule
def ackermann_factored(sys: StateSpace, poles,
                       precision: Precision = BITS64) -> np.ndarray:
    """Factorized Ackermann: K_0 = e_n^T C^-1, then K_i = K_{i-1} A - l_i K_{i-1},
    the Horner product on A^T, since K_i^T = (A^T - l_i I) K_{i-1}^T.

    The pole order is preserved; each conjugate pair is one real quadratic
    step (K A^2 - 2 Re(l) K A + |l|^2 K) at its first member's slot."""
    A, B, (_, steps) = _check_targets(sys, poles, precision)
    return _horner_steps(A.T, steps, _prepared(sys, precision, "crow", inverse_ctrb_last_row, A, B))


# ---------------------------------------------------------------------------
# Hyperplane geometry


def _hyperplane_points(A, B, roots, j: int) -> np.ndarray:
    """Row i is k = (a_j - l e_j) / b_j for the pole l = roots[i], a gain
    that assigns l (a_j is the 0-based row j of A), for arrays already
    checked: one elementwise expression for all the poles."""
    bj = float(B[j])
    _guard("placement_pivot", abs(bj), _precision_of(A), float(np.maximum.reduce(np.abs(B))),
           error=ZeroInputComponent,
           message=lambda: f"b[{j}] = {bj} is too small for the point formula")
    e_j = _identity(B.size, A.dtype)[j]
    return (A[j, :] - np.array(roots, dtype=A.dtype)[:, None] * e_j) / A.dtype.type(bj)


def _hyperplane_normals(A, B, roots, known: dict) -> list:
    """For each pole l in ``roots``, the normal n of its gain hyperplane
    {k : k . n = 1}, the solution of (A - l I) n = B, for arrays already
    checked.  ``known`` maps a pole's bit pattern (``float.hex``, so 0.0
    and -0.0 stay apart) to its normal in this format; the shifted
    matrices A - l I of the poles it lacks are eliminated as one stack
    (:func:`~poleplace.linalg._lu_eliminate`), a repeated pole once, and
    each normal found is added to it.  Poles are taken in order, and the
    first that fails raises what its solve would: :class:`SingularShift`
    from :class:`SingularSystem`, or for a zero normal ``ValueError`` when
    B = 0 and else :class:`PrecisionOverflow` (the normal underflowed).
    Inside a placement, an overflow anywhere in the stack raises
    :class:`PrecisionOverflow` first (the range rule)."""
    keys = [float(lam).hex() for lam in roots]
    lacking = list(dict.fromkeys(key for key in keys if key not in known))
    if lacking:
        shifts = np.array([float.fromhex(key) for key in lacking], dtype=A.dtype)
        shifted = A - shifts[:, None, None] * _identity(B.size, A.dtype)
        lu, pivmin = _lu_eliminate(shifted, B)
        scales = np.maximum.reduce(np.abs(shifted), axis=(1, 2))
    normals = []
    for key, lam in zip(keys, roots):
        if key not in known:
            s = lacking.index(key)
            try:
                normal = _back_substitute(lu[s], pivmin[s], scales[s])
            except SingularSystem as exc:
                raise SingularShift(f"A - ({lam}) I is numerically singular") from exc
            if not np.logical_or.reduce(normal):
                if not np.logical_or.reduce(B):
                    raise ValueError("hyperplane normal must be nonzero")
                raise PrecisionOverflow(f"hyperplane normal of pole {lam} underflowed to 0")
            known[key] = normal
        normals.append(known[key])
    return normals


@_range_rule
def place_determinantal(sys: StateSpace, poles,
                        precision: Precision = BITS64) -> np.ndarray:
    """Intersect the n pole hyperplanes directly.

    Assembles the normal equations N K^T = 1 (row i is the normal of the
    plane assigning pole i, scaled so the offset is 1) and solves.  A
    singular N means the planes are parallel, which is exactly the
    uncontrollable geometry.
    """
    A, B, (roots, _) = _check_targets(sys, poles, precision, real=True)
    N = np.array(_hyperplane_normals(A, B, roots, _prepared(sys, precision, "normals", dict)))
    ones = np.empty(sys.n, dtype=A.dtype)
    ones.fill(1.0)
    try:
        return solve_linear(N, ones)
    except SingularSystem as exc:
        raise ParallelHyperplanes(
            "hyperplane normals are linearly dependent (system uncontrollable)"
        ) from exc


@_range_rule
def place_sliding(sys: StateSpace, poles,
                  precision: Precision = BITS64) -> np.ndarray:
    """Successive sliding along the hyperplanes.

    Starting from a point on plane 1, slide perpendicular to the normals
    already visited until the next plane is reached; after the n-th
    slide the point is the intersection.  Seed points use the row with
    the largest |b_j|, which minimizes the 1/b_j amplification in the
    point formula.
    """
    A, B, (roots, _) = _check_targets(sys, poles, precision, real=True)
    return _slide(A, B, roots, _prepared(sys, precision, "normals", dict))[-1]


def _slide_denominator(base, direction, message: str) -> float:
    """base . direction, guarded; a failure says ``message``."""
    # a 1-d a @ b is a.dot(b) + 0.0, and a vector's np.linalg.norm is
    # np.sqrt(x.dot(x)), bit for bit, each without numpy's Python layer
    den = float(base.dot(direction) + 0.0)
    _guard("placement_pivot", abs(den), _precision_of(base),
           float(np.sqrt(base.dot(base)) * np.sqrt(direction.dot(direction))),
           error=DegenerateProjection,
           message=lambda: f"{message} (planes nearly parallel)")
    return den


def _slide(A, B, roots, known: dict) -> list:
    """The point reached on each plane in turn; the last is the gain.
    ``known`` is :func:`_hyperplane_normals`'s."""
    n = B.size
    normals = _hyperplane_normals(A, B, roots, known)
    seeds = _hyperplane_points(A, B, roots, int(np.abs(B).argmax()))
    steps = [seeds[0]]
    if n == 1:
        return steps
    # after stage k, proj[i] is normal i after min(i, k) oblique projections;
    # stage k + 1 and the slide onto plane k + 1 divide by normal k + 1 . proj[k]
    proj = list(normals)
    eye = _identity(n, A.dtype)
    den = _slide_denominator(normals[0], proj[0], "projection denominator vanished at stage 1")
    for k in range(1, n):
        P = eye - proj[k - 1][:, None] * normals[k - 1] / A.dtype.type(den)
        for i in range(k, n):
            proj[i] = P @ proj[i]
        den = _slide_denominator(normals[k], proj[k],
                                 f"projection denominator vanished at stage {k + 1}" if k < n - 1
                                 else f"slide denominator vanished at plane {n}")
        G = proj[k][:, None] * normals[k] / A.dtype.type(den)
        steps.append(steps[-1] - (steps[-1] - seeds[k]) @ G.T)
    return steps


# ---------------------------------------------------------------------------
# First algebroid method (quotienting into the hyperplanes)


def _descend_quotients(A, B, roots, variant: str):
    """The n - 1 stages as (anchor, k_o) pairs: orthonormal rows spanning the
    stage's hyperplane, and the gain component along its normal; then the
    terminal 1x1 pair (a, b) as scalars of A's format.  Each quotient pair
    only feeds the next stage, so none is kept."""
    if variant not in ("qr", "solve"):
        raise ValueError(f"unknown variant {variant!r}")
    n = B.size
    Ab, Bb = A, B
    stages = []
    precision = _precision_of(A)
    bmax = float(np.maximum.reduce(np.abs(B)))
    for i in range(n - 1):
        m = Ab.shape[0]
        lam = A.dtype.type(roots[i])
        shifted = Ab - lam * _identity(m, A.dtype)
        if variant == "qr":
            QT = householder_annihilator(Bb)
            qs, _ = qr_decompose((QT @ shifted).T)
            koh = qs[:, -1]
            k = (Bb / Bb.dot(Bb)) @ shifted
            ko = (k.dot(koh) + 0.0) * koh  # k @ koh
            anb = qs[:, :-1].T
        else:
            try:
                nvec = solve_linear(shifted, Bb)
            except SingularSystem as exc:
                raise SingularShift(
                    f"quotient shift by {float(lam)} is numerically singular"
                ) from exc
            if not np.logical_or.reduce(nvec):  # a zero normal is no vector to reflect
                raise PrecisionOverflow(f"quotient normal underflowed at level {i + 1}: "
                                        "its squared norm is 0")
            nsq = nvec.dot(nvec)
            anb = householder_annihilator(nvec)
            ko = nvec / nsq
        stages.append((anb, ko))
        Ab = anb @ Ab @ anb.T
        Bb = anb @ Bb
        _guard("placement_pivot", np.maximum.reduce(np.abs(Bb)), precision, bmax,
               error=UncontrollableSystem,
               message=lambda: f"quotient input vanished at level {i + 1}")
    return stages, Ab.ravel()[0], Bb.ravel()[0]


@_range_rule
def place_algebroid1(sys: StateSpace, poles, precision: Precision = BITS64,
                     variant: str = "qr") -> np.ndarray:
    """Quotient into the pole hyperplanes, one dimension at a time.

    Descending phase: for each pole, build an orthonormal basis of its
    gain hyperplane (``variant="qr"``: QR of the shifted map restricted
    to the complement of B; ``variant="solve"``: annihilate the plane
    normal obtained from a linear solve), keep it with the gain component
    along the plane normal, and reduce A, B to the quotient.  Ascending
    phase: K_i = k_{o,i} + K_{i+1} Q_i over the kept pairs, which carries
    the quotient gain back up while leaving the pole fixed at that level
    unchanged.

    The solve variant raises :class:`SingularShift` when a level's pole is
    an eigenvalue of that level's matrix, whatever the multiplicities: on
    the integer family at n = 5, whose A has the eigenvalue -1, it fails
    on -1,-1,-1,-1,-1 and -1,-1,-2,-2,-3 (the first level solves
    (A + I) n = B) and places -2,-1,-1,-2,-3 and -3,-2,-2,-1,-1.  The QR
    variant solves nothing and places all four.
    """
    A, B, (roots, _) = _check_targets(sys, poles, precision, real=True)
    stages, a, b = _descend_quotients(A, B, roots, variant)
    K = ((a - precision.dtype(roots[-1])) / b).reshape(1)
    for anchor, k_o in reversed(stages):
        K = k_o + K @ anchor
    return K


# ---------------------------------------------------------------------------
# Second algebroid method (chain of anchors)


@dataclass(frozen=True, eq=False)
class ChainLevel:
    """Level i of the forward sweep: anchor an_i, transfer A_{t,i} (the
    map making an_i ... an_1 A^i commute), and quotient input B_i."""

    anchor: np.ndarray
    transfer: np.ndarray
    quotient_input: np.ndarray


@dataclass(frozen=True, eq=False)
class AnchorChain:
    """Stored anchors and transfer maps of the forward sweep, with the
    arrays A, B it was swept from, in the chain's precision (at 64 bits,
    the system's own arrays), and its last product ``leading`` = A_{t,n-1} A
    (A when n = 1).  It holds no reference to the system, so a system that
    keeps its chain (:func:`_prepared`) is freed by reference counting."""

    A: np.ndarray
    B: np.ndarray
    levels: tuple
    leading: np.ndarray

    @property
    def precision(self) -> Precision:
        return _precision_of(self.A)


@_range_rule
def build_anchor_chain(sys: StateSpace, precision: Precision = BITS64) -> AnchorChain:
    """Forward sweep: an_i annihilates B_{i-1} (orthonormal rows, scaled
    by the left singular basis of the running transfer map), and

        A_{t,i} = an_i A_{t,i-1} A      B_i = A_{t,i} B

    Degeneracy shows up as a small B_i; it is reported by
    :func:`chain_controllability_report`, not raised here (B = 0 aside: the
    cast raises it); an overflowing level raises :class:`PrecisionOverflow`
    (the range rule), and so does a nonzero level input B_{i-1} whose squares
    underflow to a zero sum, leaving no anchor to annihilate it (the reflector's).
    """
    A, B = _sys_arrays(sys, precision)
    levels = []
    At, Bt = A, B
    for _ in range(sys.n - 1):
        ann = householder_annihilator(Bt)
        u, _, _ = svd_decompose(ann @ At)
        an_i = u.T @ ann
        transfer = an_i @ At
        Bt = transfer @ B
        At = transfer @ A
        levels.append(ChainLevel(an_i, transfer, Bt))
    return AnchorChain(A, B, tuple(levels), At)


@dataclass(frozen=True)
class ChainReport:
    controllable: bool
    first_vanishing_level: int | None
    min_quotient_input_norm: float


def chain_controllability_report(chain: AnchorChain) -> ChainReport:
    """Flag levels whose quotient input is at or below the ``chain_input``
    bound, 1e-9 ||A||^k ||B||, the norms taken in float64 of the chain's
    own A and B (at 32 bits, the rounded data the chain was swept from)."""
    anorm = float(np.linalg.norm(chain.A.astype(np.float64), 2))
    bnorm = float(np.linalg.norm(chain.B.astype(np.float64)))
    if not chain.levels:  # n == 1: the input vector itself decides
        return ChainReport(bnorm > 0.0, None if bnorm > 0.0 else 1, bnorm)
    first = None
    min_norm = np.inf
    for k, level in enumerate(chain.levels, start=1):
        norm_k = float(np.linalg.norm(level.quotient_input))
        min_norm = min(min_norm, norm_k)
        if first is None and norm_k <= THRESHOLDS["chain_input"](chain.precision, anorm, k, bnorm):
            first = k
    return ChainReport(first is None, first, min_norm)


class ChainFeedback:
    """The chain method's feedback law with its poles bound.

    Built once from a chain and a pole set (or a monic characteristic
    polynomial): the ascending coefficients and the (transfer, anchor,
    coefficient) steps of the recursion are computed, and the chain's final
    quotient input, the denominator, checked (B = 0 builds no chain), here.
    After that, :meth:`gain` and each call ``law(x)`` run the nested
    recursion alone, under the range rule (``simulate`` runs :meth:`_apply`).
    """

    @_range_rule
    def __init__(self, chain: AnchorChain, poles=None, charpoly=None):
        A, B = chain.A, chain.B
        self.precision = chain.precision
        self.n = B.size
        cp = _coefficients(self.n, poles, charpoly)
        # constant term first, [p_n, ..., p_1, 1]
        pp = _in_precision(cp[::-1], self.precision, "charpoly has coefficients")
        if self.n == 1:
            # (a + p)/b x rounds differently from the general p x + a x over b
            self._scalar = (A[0, 0] + pp[0]) / B[0]
            return
        self._scalar = None
        # each p_i a 0-d array (a copy): numpy multiplies an array by one
        # faster than by a scalar, to the same value
        self._pp0 = np.array(pp[0])
        self._steps = tuple((level.transfer, level.anchor, np.array(pp[i]))
                            for i, level in enumerate(chain.levels, start=1))
        self._last_A = chain.leading
        den = chain.levels[-1].quotient_input.ravel()[0]
        _guard("chain_denominator", abs(float(den)), self.precision, error=UncontrollableSystem,
               message=lambda: f"final quotient input B_(n-1) = {float(den):.3e} is zero")
        self._den = den

    @_range_rule
    def gain(self) -> np.ndarray:
        """K from the recursion K_i = A_{t,i} p_{n-i} + an_i K_{i-1},
        K_0 = p_n I, closed with the leading-power term A_{t,n-1} A and
        scaled by the last quotient input: the law applied to the identity."""
        return -self._apply(_identity(self.n, np.dtype(self.precision.dtype)))

    @_range_rule
    def __call__(self, x) -> float:
        """u = -K x through the same recursion applied to the state."""
        x = _in_precision(as_vector(x, BITS64), self.precision, "state has entries")
        if x.size != self.n:
            raise ValueError(f"state has {x.size} entries, system has n = {self.n}")
        return float(self._apply(x))

    def _apply(self, x):
        """The unchecked recursion: ``x`` is a 1-d state of length n in the
        law's format, and u comes back as a scalar of that format; an n x m
        block of states taken as columns gives a row of m controls.  Each
        ``.dot`` is the BLAS product that ``@`` calls, and each in-place
        update the same elementwise operation, so u has the bits of
        ``transfer @ x * p + anchor @ ut``."""
        if self._scalar is not None:
            return -self._scalar * x[0]
        ut = self._pp0 * x
        for transfer, anchor, p in self._steps:
            tx = transfer.dot(x)
            tx *= p
            ut = anchor.dot(ut)
            ut += tx
        ut += self._last_A.dot(x)
        return -ut[0] / self._den


def gain_from_chain(chain: AnchorChain, poles=None, charpoly=None) -> np.ndarray:
    """Construction phase of the chain method (see :class:`ChainFeedback`).

    Consumes only the characteristic polynomial, so the result is
    independent of pole ordering.
    """
    return ChainFeedback(chain, poles, charpoly).gain()


def feedback_eval(chain: AnchorChain, x, poles=None, charpoly=None) -> float:
    """u = -K x evaluated through the nested chain without forming K.

    Binds the poles for this one call; a caller that evaluates the law
    repeatedly binds them once in a :class:`ChainFeedback` and calls it,
    so that each evaluation costs the chain recursion alone.  More
    operations per control step than K x, better rounding behaviour.
    """
    return ChainFeedback(chain, poles, charpoly)(x)


def place_algebroid2(sys: StateSpace, poles=None, precision: Precision = BITS64,
                     charpoly=None) -> np.ndarray:
    """Chain-of-anchors placement from a pole list or a monic
    characteristic polynomial, as :func:`ackermann_direct` takes them: the
    construction phase (:func:`gain_from_chain`) on the system's chain,
    built once per precision, and only for a target that passed its check."""
    cp = _in_precision(_coefficients(sys.n, poles, charpoly), precision,
                       "charpoly has coefficients")
    chain = _prepared(sys, precision, "chain", build_anchor_chain, sys, precision)
    return gain_from_chain(chain, charpoly=cp)


# ---------------------------------------------------------------------------
# Miminis-Paige style Hessenberg deflation


def controller_hessenberg(A, B):
    """Orthogonal V with V^T B = alpha e_1 and V^T A V upper Hessenberg, a plain
    decomposition (B = 0 gives alpha = 0; a zero vector's reflector is the
    identity); a nonzero B or column whose squares underflow to a zero sum
    raises the reflector's :class:`PrecisionOverflow`."""
    A, B = as_matrix(A), as_vector(B)
    n = B.size
    V = householder_reflector(B)
    Ah = V @ A @ V
    for k in range(n - 2):
        P = _identity(n, A.dtype).copy()
        P[k + 1:, k + 1:] = householder_reflector(Ah[k + 1:, k])
        Ah = P @ Ah @ P
        V = V @ P
    return V, Ah


@_range_rule
def place_miminis(sys: StateSpace, poles, precision: Precision = BITS64) -> np.ndarray:
    """Hessenberg reduction plus per-pole RQ deflation.

    The pair is brought to controller Hessenberg form, the index order is
    reversed, and each pole is assigned from a QR factorization of the
    shifted transpose; the gain is accumulated back through the stored
    orthogonal factors and the reduction basis.
    """
    A, B, (roots, _) = _check_targets(sys, poles, precision, real=True)
    n = sys.n
    if n == 1:
        # the deflation threshold below scales with |a|, so the general path
        # would reject controllable scalars with a small |b|
        return np.array([(A[0, 0] - roots[0]) / B[0]], dtype=A.dtype)
    roots = roots[::-1]  # the deflation consumes the pole list reversed
    qc, Ah = _prepared(sys, precision, "hessenberg", controller_hessenberg, A, B)
    scale = float(np.maximum.reduce(np.abs(A), axis=None))
    # the least |subdiagonal entry|, NaN entries skipped by fmin: at or
    # below the bound exactly when some entry is
    _guard("placement_pivot", np.fmin.reduce(np.abs(Ah.diagonal(-1))), precision, scale,
           error=UncontrollableSystem,
           message=lambda: "staircase breakdown: Hessenberg subdiagonal vanished")
    Ai = (qc.T @ A @ qc)[::-1, ::-1]
    Bi = (qc.T @ B)[::-1]
    qis = []
    pph = np.zeros(n, dtype=A.dtype)
    for i in range(n - 1):
        m = n - i
        shifted = Ai.T - A.dtype.type(roots[i]) * _identity(m, A.dtype)
        qi, ri = qr_decompose(shifted)
        _guard("placement_pivot", abs(float(Bi[-1])), precision, scale, error=UncontrollableSystem,
               message=lambda: f"deflated input vanished at stage {i + 1}")
        pph[i] = ri[-1, -1] / Bi[-1]
        qis.append(qi)
        Ai = (qi.T @ Ai @ qi)[:-1, :-1]
        Bi = (qi.T @ Bi)[:-1]
    _guard("placement_pivot", abs(float(Bi[0])), precision, scale, error=UncontrollableSystem,
           message=lambda: "deflated input vanished at the last stage")
    pph[n - 1] = (Ai[0, 0] - A.dtype.type(roots[n - 1])) / Bi[0]
    # before step i, K[:n - 1 - i] is the gain carried up so far and
    # K[n - 1 - i] is pph[i]
    K = pph[::-1].copy()
    for i in range(n - 2, -1, -1):
        K[:n - i] = K[:n - i] @ qis[i].T
    return K[::-1] @ qc.T


# ---------------------------------------------------------------------------
# Varga pole shifting on the real Schur form


def _exchange_adjacent(As: np.ndarray, j: int):
    """Swap diagonal entries j-1, j of an upper triangular matrix by a
    permutation plus one Givens rotation; returns (new As, transform)."""
    n = As.shape[0]
    dt = As.dtype
    P = _identity(n, dt).copy()
    P[[j - 1, j], :] = P[[j, j - 1], :]
    H = P @ As @ P
    c = H[j - 1, j - 1] - H[j, j]
    s = H[j, j - 1]
    den = np.hypot(c, s)
    if den > 0:
        c = c / den
        s = s / den
        G = _identity(n, dt).copy()
        G[j - 1, j - 1] = c
        G[j - 1, j] = s
        G[j, j - 1] = -s
        G[j, j] = c
        H = G @ H @ G.T
        Q = G @ P
    else:
        # equal diagonal entries with zero coupling: the permutation alone swaps
        Q = P
    H[j, j - 1] = 0.0
    return H, Q


@_range_rule
def place_varga(sys: StateSpace, poles, precision: Precision = BITS64) -> np.ndarray:
    """Pole shifting on the real Schur form.

    Each pole replaces the trailing diagonal entry through the last
    component of the transformed input; Givens exchanges then cycle the
    diagonal so every remaining eigenvalue gets its turn at the trailing
    position.  Bookkeeping of the exchanges yields the gain, mapped back
    through the Schur basis.  The gain is complete once the last pole's
    row is added, so that pole's shift and exchanges are not made: n poles
    take (n - 1)^2 exchanges.  2x2 (complex-pair) Schur blocks of A are
    not supported.
    """
    A, B, (roots, _) = _check_targets(sys, poles, precision, real=True)
    n = sys.n
    # LAPACK's eigenvalues see a clear complex pair before scipy's Schur form
    # is loaded; a spectrum within rounding of real goes to the Schur form
    pair = has_complex_eigenvalue(np.linalg.eigvals(A))
    U, As = (None, None) if pair else _prepared(sys, precision, "schur", schur_decompose, A)
    if pair or np.logical_or.reduce(As.diagonal(-1) != 0.0):
        raise ComplexBlockUnsupported(
            "A has complex eigenvalues (2x2 Schur block); this method "
            "handles real-spectrum systems only"
        )
    Bsd = Bs = U.T @ B
    Qs = _identity(n, A.dtype)
    hh = np.zeros(n, dtype=A.dtype)
    scale = float(np.maximum.reduce(np.abs(Bsd)))
    for ii in range(n - 1, -1, -1):
        _guard("placement_pivot", abs(float(Bs[-1])), precision, scale, error=UncontrollableSystem,
               message=lambda: f"transformed input component vanished while placing pole {ii + 1}")
        k1 = (A.dtype.type(roots[ii]) - As[-1, -1]) / Bs[-1]
        kk = np.zeros(n, dtype=A.dtype)
        kk[-1] = k1
        hh = hh + kk @ Qs
        if ii == 0:
            return -(hh @ U.T)
        As = As + Bs[:, None] * kk  # np.outer's multiply
        for jj in range(1, n):
            As, Q = _exchange_adjacent(As, jj)
            Qs = Q @ Qs
        Bs = Qs @ Bsd


# ---------------------------------------------------------------------------
# Registry (shared by the benchmark harness and the CLI)


# Every entry is called as fn(sys, poles, precision) and returns the gain K
# with eigenvalues(A - B K) equal to the poles, or raises a PlacementError;
# ackermann and algebroid2 take charpoly= (monic, n+1 terms) for the poles.
ALGORITHMS = {
    "ackermann": ackermann_direct,
    "ackermann-factored": ackermann_factored,
    "determinantal": place_determinantal,
    "sliding": place_sliding,
    "algebroid1": place_algebroid1,
    "algebroid1-solve": functools.partial(place_algebroid1, variant="solve"),
    "algebroid2": place_algebroid2,
    "miminis": place_miminis,
    "varga": place_varga,
}
