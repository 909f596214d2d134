"""Dense real matrix kernels that compute in their input's format.

All algorithms in this package funnel their arithmetic through the
routines below.  Each kernel computes in the binary format of the arrays
it is given, which makes it possible to reproduce single-precision
behaviour on 64-bit hardware.  One rule reads that format, the default of
:func:`as_matrix` and :func:`as_vector`: a float32 array stays float32,
anything else (lists, ints, float64) becomes float64.

Conventions fixed here (they make every downstream fixture reproducible):

* ``qr_decompose`` returns a full orthogonal factor with the diagonal of
  R non-negative.
* ``svd_decompose`` flips singular-vector pairs so the largest-magnitude
  entry of each left singular vector is positive.
* ``eigenvalues`` computes through a stabilized elimination reduction to
  Hessenberg form followed by the classical double-shift QR iteration,
  and returns the spectrum sorted by (real, imag).
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import FactorizationError, InvalidPoleSet, PrecisionOverflow, SingularSystem


class Precision:
    """A binary floating-point mode: every arithmetic result is rounded
    to this format before reuse."""

    def __init__(self, bits: int):
        if bits not in (32, 64):
            raise ValueError("precision must be 32 or 64 bits")
        self.bits = bits
        self.dtype = np.float32 if bits == 32 else np.float64
        self.eps = float(np.finfo(self.dtype).eps)
        self.tiny = float(np.finfo(self.dtype).tiny)

    def __repr__(self):
        return f"Precision({self.bits})"

    def __eq__(self, other):
        return isinstance(other, Precision) and other.bits == self.bits

    def __hash__(self):
        return hash(self.bits)


BITS32 = Precision(32)
BITS64 = Precision(64)


def as_precision(mode) -> Precision:
    """Coerce 32/64/'32'/'64'/Precision to a Precision instance (for bits,
    the shared :data:`BITS32` or :data:`BITS64`)."""
    if isinstance(mode, Precision):
        return mode
    bits = int(mode)
    return BITS32 if bits == 32 else BITS64 if bits == 64 else Precision(bits)


_FLOAT32 = np.dtype(np.float32)


def _precision_of(x) -> Precision:
    """The one dtype rule: float32 arrays are 32-bit, all else 64-bit."""
    return BITS32 if getattr(x, "dtype", None) == _FLOAT32 else BITS64


@functools.lru_cache(maxsize=64)
def _identity(m: int, dtype) -> np.ndarray:
    """The read-only m x m identity in ``dtype``, built once per (m, dtype)
    (the 64 kept cover every size to 32 at both precisions; ``dtype`` is a
    ``np.dtype``, an array's ``.dtype``, since a scalar type such as
    ``np.float64`` hashes apart from it): a caller that writes into it
    takes a copy, a product or a shift ``A - l * I`` reads it as it is.
    The package's one way to make a float identity."""
    eye = np.eye(m, dtype=dtype)
    eye.flags.writeable = False
    return eye


def _all_finite(x) -> bool:
    """Whether every entry of ``x`` is finite: the reduction ``.all()``
    performs, without numpy's Python wrapper around it."""
    return np.logical_and.reduce(np.isfinite(x), axis=None)


def _in_precision(values, precision: Precision, what: str) -> np.ndarray:
    """Float64 ``values`` in ``precision``, checked where they are cast.

    A value not finite once cast (past the float32 range, or a float64
    charpoly coefficient or |l|^2 that overflowed) raises
    :class:`PrecisionOverflow`, "{what} beyond the {bits}-bit range", where
    numpy would warn and give inf; ``what`` names the values ("x0 has entries").
    """
    cast = np.asarray(values, dtype=np.float64)
    if precision.bits == 32:
        with np.errstate(over="ignore"):  # reported below
            cast = cast.astype(np.float32)
    if not _all_finite(cast):
        raise PrecisionOverflow(f"{what} beyond the {precision.bits}-bit range")
    return cast


def _as_array(x, precision: Precision | None, kind: str) -> np.ndarray:
    """``x`` as a checked "matrix" or "vector" (``kind``) in ``precision``,
    by default in its own format: first the shape, then the entries.  A
    non-finite entry raises ValueError; a finite one that a narrowing to
    float32 takes past its range is cast by :func:`_in_precision`, so it
    raises :class:`PrecisionOverflow` with no numpy warning."""
    dtype = (precision or _precision_of(x)).dtype
    narrow = dtype == _FLOAT32 and getattr(x, "dtype", None) != _FLOAT32
    try:
        A = np.asarray(x, dtype=np.float64 if narrow else dtype)
    except OverflowError as exc:  # an int beyond the float64 range
        raise ValueError(f"{kind} entries must be finite") from exc
    if kind == "vector":
        A = A.ravel()
        if A.size < 1:
            raise ValueError("expected a non-empty vector")
    elif A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {A.shape}")
    if not _all_finite(A):
        raise ValueError(f"{kind} entries must be finite")
    return _in_precision(A, BITS32, f"{kind} entries") if narrow else A


def as_matrix(M, precision: Precision | None = None) -> np.ndarray:
    """Validate and convert input to a 2-d array in ``precision``, by
    default in the input's own format (see the module docstring).

    Rejects empty and non-finite input up front so the factorizations
    never have to deal with NaN/Inf propagation.
    """
    return _as_array(M, precision, "matrix")


def as_vector(v, precision: Precision | None = None) -> np.ndarray:
    """The 1-d counterpart of :func:`as_matrix`."""
    return _as_array(v, precision, "vector")


# ---------------------------------------------------------------------------
# QR / SVD / Schur


def _checked_norm2(ss, what: str):
    """A Householder sum of squares, returned once checked: an overflow,
    which would make the reflector NaN, raises :class:`FactorizationError`
    (inside a placement, the range rule's :class:`PrecisionOverflow` first)."""
    if not math.isfinite(ss):
        raise FactorizationError(f"{what} overflowed: sum of squares is {ss}")
    return ss


def qr_decompose(M):
    """Full Householder QR factorization, M = Q R, in M's format.

    Q is square (rows x rows) and orthogonal, R is rows x cols upper
    triangular with non-negative diagonal entries; entries below the
    diagonal of R are exactly zero.  Raises :class:`FactorizationError`
    when a Householder sum of squares overflows.

    At n <= 12 the cost is numpy dispatch, so each step uses the cheapest
    call that performs the same IEEE operations: the rank-one updates
    write into views of R and Q, with ``u[:, None] * w`` for the multiply
    ``np.outer`` performs, and ``np.add.reduce`` is the pairwise sum that
    ``ndarray.sum`` reaches through numpy's Python wrapper.
    """
    M = as_matrix(M)
    m, k = M.shape
    R = M.copy()
    Q = _identity(m, R.dtype).copy()
    for c in range(min(m - 1, k)):
        x = R[c:, c]
        nx = np.sqrt(_checked_norm2(np.add.reduce(x * x), "QR column norm"))
        if nx == 0.0:
            continue
        u = x.copy()
        u[0] += (nx if x[0] >= 0 else -nx)
        beta = 2.0 / _checked_norm2(np.add.reduce(u * u), "QR reflector norm")
        Rc = R[c:, c:]
        Rc -= beta * (u[:, None] * (u @ Rc))
        Qc = Q[:, c:]
        Qc -= beta * ((Qc @ u)[:, None] * u)
    D = np.empty(m, dtype=R.dtype)
    D.fill(1.0)
    D[: min(m, k)] = np.sign(R.diagonal())
    D[D == 0] = 1.0
    Q *= D
    np.multiply(D[:, None], R, out=R)  # D * R, operands in the textbook's order
    for c in range(min(m - 1, k)):
        R[c + 1:, c] = 0.0
    return Q, R


def householder_reflector(v) -> np.ndarray:
    """The m x m Householder reflector taking v to a multiple of e_1, in
    v's format; the identity for v = 0.  Raises
    :class:`FactorizationError` when the norm of v overflows, and
    :class:`PrecisionOverflow` (``normal_square``) for a nonzero v whose
    squares underflow to a zero sum, which no reflector annihilates."""
    v = as_vector(v)
    m = v.size
    u = v.copy()
    s = np.sqrt(_checked_norm2(np.add.reduce(v * v), "reflected vector norm"))
    u[0] += (s if v[0] >= 0 else -s)
    uu = _checked_norm2(u.dot(u), "reflector norm")
    H = _identity(m, v.dtype).copy()
    if uu == 0.0:
        if np.logical_or.reduce(v):
            _guard("normal_square", uu, _precision_of(v), error=PrecisionOverflow,
                   message=lambda: f"reflected vector of length {m} is nonzero, "
                                   "but its squared norm underflowed to 0")
        return H
    H -= 2.0 * (u[:, None] * u) / uu
    return H


def householder_annihilator(v) -> np.ndarray:
    """Rows 2..m of :func:`householder_reflector`: orthonormal rows that
    annihilate v, the elementary anchor of the quotient constructions."""
    return householder_reflector(v)[1:, :]


def svd_decompose(M):
    """Singular value decomposition M = U diag(S) V^T, in M's format.

    S is sorted descending.  Sign convention: the largest-magnitude
    entry of each column of U is made positive (V adjusted to match).
    """
    M = as_matrix(M)
    try:
        U, S, Vt = np.linalg.svd(M)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"svd did not converge: {exc}") from exc
    V = Vt.T
    r = min(M.shape)
    # first index of each column's largest magnitude, as argmax breaks ties
    flip = U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])] < 0
    np.negative(U, out=U, where=flip)
    Vr = V[:, :r]
    np.negative(Vr, out=Vr, where=flip[:r])
    return U, S, V


def schur_decompose(A):
    """Real Schur decomposition A = U T U^T, in A's format.

    T is quasi upper triangular (1x1 and standardized 2x2 diagonal
    blocks, no two consecutive nonzero subdiagonal entries), U is
    orthogonal.  Computed by Hessenberg reduction followed by the
    shifted QR iteration.
    """
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("schur_decompose requires a square matrix")
    # the only scipy use in the package: importing it here keeps its
    # ~0.3 s import out of every process that never needs a Schur form
    import scipy.linalg

    try:
        T, U = scipy.linalg.schur(A, output="real")
    except Exception as exc:  # scipy raises LinAlgError on QR breakdown
        raise FactorizationError(f"schur iteration failed: {exc}") from exc
    return U, T


# ---------------------------------------------------------------------------
# Eigenvalues (elimination Hessenberg + double-shift QR)
#
# The kernel below is scalar Python on row lists of Python floats, on
# purpose: its sequence of IEEE operations is part of the contract, since
# the bifurcation counts near the integer family's conditioning cliff
# depend on the exact rounding, and numpy reductions, BLAS or LAPACK would
# reorder operations.  Python floats round as numpy float64 scalars do,
# without numpy's dispatch cost, and raise ZeroDivisionError where IEEE
# gives inf or nan: only once the iteration has overflowed, which no seeded
# search has seen on ``eigenvalues``' input, scaled into [1, 2).
# ``a[j] = a[j] - p * x`` is ``a[j] -= p * x`` without its stack shuffling.

# Iteration budget of the double-shift QR, in sweeps per matrix row.  An
# exceptional shift (EISPACK's formula) comes every ten sweeps since the
# last deflation, as in LAPACK's dlahqr: at sweeps 10 and 20 alone, the
# shifts can cycle (Day, 1996).
_HQR_SWEEPS_PER_ROW = 30


def _elmhes(a: list) -> list:
    """Reduce to upper Hessenberg form by stabilized elementary similarity
    transformations (pivoted Gaussian elimination), the classical
    companion of the double-shift QR iteration below.

    Works in place on a square matrix given as a list of row lists of
    floats, and returns it with zeros below the subdiagonal: no later step
    reads a multiplier, so none is stored.
    """
    n = len(a)
    for m in range(1, n - 1):
        x = 0.0
        i = m
        for j in range(m, n):
            if abs(a[j][m - 1]) > abs(x):
                x = a[j][m - 1]
                i = j
        if i != m:
            a[i][m - 1:], a[m][m - 1:] = a[m][m - 1:], a[i][m - 1:]
            for row in a:
                row[i], row[m] = row[m], row[i]
        if x != 0.0:
            am = a[m]
            for i in range(m + 1, n):
                ai = a[i]
                y = ai[m - 1]
                if y != 0.0:
                    y /= x
                    ai[m:] = [v - y * w for v, w in zip(ai[m:], am[m:])]
                    for row in a:
                        row[m] = row[m] + y * row[i]
    for i in range(2, n):
        a[i][: i - 1] = [0.0] * (i - 1)
    return a


def _hqr_eigenvalues(h: list) -> np.ndarray:
    """Eigenvalues of an upper Hessenberg matrix by the classical
    double-shift QR iteration with exceptional shifts.

    ``h`` is a list of row lists of floats; it is overwritten.
    """
    n = len(h)
    wr = [0.0] * n
    wi = [0.0] * n
    anorm = float(np.add.reduce(np.abs(np.array(h)), axis=None))
    nn = n - 1
    t = 0.0
    itn = _HQR_SWEEPS_PER_ROW * n
    while nn >= 0:
        its = 0
        while True:
            l = nn
            while l > 0:
                s = abs(h[l - 1][l - 1]) + abs(h[l][l])
                if s == 0.0:
                    s = anorm
                if abs(h[l][l - 1]) + s == s:
                    h[l][l - 1] = 0.0
                    break
                l -= 1
            hn = h[nn]
            x = hn[nn]
            if l == nn:
                wr[nn] = x + t
                wi[nn] = 0.0
                nn -= 1
                break
            hn1 = h[nn - 1]
            y = hn1[nn - 1]
            w = hn[nn - 1] * hn1[nn]
            if l == nn - 1:
                p = 0.5 * (y - x)
                q = p * p + w
                zz = math.sqrt(abs(q))
                x += t
                if q >= 0.0:
                    zz = p + (zz if p >= 0 else -zz)
                    wr[nn - 1] = wr[nn] = x + zz
                    if zz != 0.0:
                        wr[nn] = x - w / zz
                    wi[nn - 1] = wi[nn] = 0.0
                else:
                    wr[nn - 1] = wr[nn] = x + p
                    wi[nn - 1] = -zz
                    wi[nn] = zz
                nn -= 2
                break
            if itn == 0:
                raise FactorizationError("eigenvalue iteration did not converge")
            if its and its % 10 == 0:
                t += x
                for i in range(nn + 1):
                    h[i][i] -= x
                s = abs(hn[nn - 1]) + abs(hn1[nn - 2])
                y = x = 0.75 * s
                w = -0.4375 * s * s
            its += 1
            itn -= 1
            m = nn - 2
            while m >= l:
                hm = h[m]
                hm1 = h[m + 1]
                zz = hm[m]
                r = x - zz
                s = y - zz
                p = (r * s - w) / hm1[m] + hm[m + 1]
                q = hm1[m + 1] - zz - r - s
                r = h[m + 2][m + 1]
                s = abs(p) + abs(q) + abs(r)
                p /= s
                q /= s
                r /= s
                if m == l:
                    break
                u_ = abs(hm[m - 1]) * (abs(q) + abs(r))
                v_ = abs(p) * (abs(h[m - 1][m - 1]) + abs(zz) + abs(hm1[m + 1]))
                if u_ + v_ == v_:
                    break
                m -= 1
            for i in range(m + 2, nn + 1):
                h[i][i - 2] = 0.0
                if i > m + 2:
                    h[i][i - 3] = 0.0
            for k in range(m, nn):
                hk = h[k]
                hk1 = h[k + 1]
                if k != m:
                    p = hk[k - 1]
                    q = hk1[k - 1]
                    r = h[k + 2][k - 1] if k != nn - 1 else 0.0
                    x = abs(p) + abs(q) + abs(r)
                    if x == 0.0:
                        continue
                    p /= x
                    q /= x
                    r /= x
                s = math.sqrt(p * p + q * q + r * r)
                if p < 0:
                    s = -s
                if k == m:
                    if l != m:
                        hk[k - 1] = -hk[k - 1]
                else:
                    hk[k - 1] = -s * x
                p += s
                x = p / s
                y = q / s
                zz = r / s
                q /= p
                r /= p
                if k == nn - 1:
                    for j in range(k, nn + 1):
                        p = hk[j] + q * hk1[j]
                        hk[j] = hk[j] - p * x
                        hk1[j] = hk1[j] - p * y
                    for i in range(l, min(nn, k + 3) + 1):
                        hi = h[i]
                        p = x * hi[k] + y * hi[k + 1]
                        hi[k] = hi[k] - p
                        hi[k + 1] = hi[k + 1] - p * q
                else:
                    hk2 = h[k + 2]
                    for j in range(k, nn + 1):
                        p = hk[j] + q * hk1[j] + r * hk2[j]
                        hk[j] = hk[j] - p * x
                        hk1[j] = hk1[j] - p * y
                        hk2[j] = hk2[j] - p * zz
                    k1, k2 = k + 1, k + 2
                    for hi in h[l:min(nn, k + 3) + 1]:
                        p = x * hi[k] + y * hi[k1] + zz * hi[k2]
                        hi[k] = hi[k] - p
                        hi[k1] = hi[k1] - p * q
                        hi[k2] = hi[k2] - p * r
    wr = np.array(wr)
    wi = np.array(wi)
    order = np.lexsort((wi, wr))
    return wr[order] + 1j * wi[order]


def eigenvalues(A) -> np.ndarray:
    """All eigenvalues of a square real matrix, sorted by (real, imag).

    Complex eigenvalues come out in exact conjugate pairs (``bench`` takes
    the ``.tolist()`` as sorted).  Unlike the other kernels this one runs
    in 64-bit arithmetic whatever the input's format, on its entries
    widened exactly.  A non-finite entry raises ValueError, and a stalled
    iteration :class:`FactorizationError`.

    The iteration runs on the matrix scaled by the power of two 2^k that
    brings its largest entry into [1, 2), and the spectrum is scaled back
    by 2^-k.  Each step is homogeneous in the scale and a power of two
    scales a normal number exactly, so wherever the iteration's values stay
    normal the spectrum is that of the matrix as given, rounded once on the
    way back (inf only past the float64 range, with no warning), and the
    verifier's verdict does not depend on units.
    """
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("eigenvalues requires a square matrix")
    m = float(np.maximum.reduce(np.abs(A), axis=None))
    k = 1 - math.frexp(m)[1]
    # m = f 2^e, e in [-1073, 1024], so 2^-k = 2^(e - 1) is a double; a Python
    # float product by it overflows to inf without a warning
    back = 2.0 ** -k
    # ldexp widens float32 entries exactly
    spectrum = _hqr_eigenvalues(_elmhes(np.ldexp(A, k, dtype=np.float64).tolist()))
    return np.array([complex(z.real * back, z.imag * back) for z in spectrum.tolist()])


# ---------------------------------------------------------------------------
# Numerical-zero thresholds
#
# Every test in the package of whether a computed magnitude is numerically
# zero compares it with a bound from this table.  Each entry is named for
# the quantity it guards and maps the precision and the scale factors of
# that quantity to the bound at or below which it counts as zero.  Every
# such test that raises goes through :func:`_guard`, so the error carries
# the entry's name, the magnitude and the bound (``check``, ``value`` and
# ``bound`` of :class:`~poleplace.errors.PlacementError`).

THRESHOLDS = {
    # LU pivots of solve_linear, scaled by n and max|A|
    "lu_pivot": lambda precision, n, amax: precision.eps * n * amax,
    # the placement methods' input components, quotient and deflated
    # inputs, Hessenberg subdiagonals and projection denominators
    "placement_pivot": lambda precision, scale: 1e3 * precision.eps * max(1.0, scale),
    # level-k quotient input of an anchor chain: 1e-9 ||A||^k ||B||
    "chain_input": lambda precision, anorm, k, bnorm: 1e-9 * (anorm ** k) * bnorm,
    # final quotient input of the chain feedback law: weak controllability
    # is that method's home turf, so only an underflow-level zero is fatal
    "chain_denominator": lambda precision: 1e3 * precision.tiny,
    # squared norm of a nonzero vector to reflect (every anchor and the
    # Hessenberg reduction): only an underflow to exactly 0 leaves no reflector
    "normal_square": lambda precision: 0.0,
    # distance of a pole from the conjugate of its partner, scale |partner|
    "conjugate_match": lambda precision, scale: 1e-9 * max(1.0, scale),
    "orthonormality": lambda precision: 1e-10,  # of an orthogonal anchor
    "spectrum_pair": lambda precision: 1e-9,  # Im of a verified eigenvalue in a pair
    # |Im| of a LAPACK eigenvalue of A, scale max |eigenvalue|: a defective
    # real eigenvalue may come back split off the real axis by rounding
    "complex_eigenvalue": lambda precision, scale: math.sqrt(precision.eps) * max(1.0, scale),
}


def _guard(check: str, value, *scale, error, message) -> None:
    """Raise ``error(message())`` when ``value`` is at or below the bound
    ``THRESHOLDS[check](*scale)``, with the error's ``check``, ``value``
    and ``bound`` set; else return None.  A NaN value passes (the test is
    ``<=``), and ``message``, a zero-argument callable, is called only on
    a failure."""
    bound = THRESHOLDS[check](*scale)
    if value <= bound:
        exc = error(message())
        exc.check, exc.value, exc.bound = check, float(value), float(bound)
        raise exc


# ---------------------------------------------------------------------------
# Linear solves (partial-pivoting LU)


def _lu_eliminate(M: np.ndarray, rhs):
    """Partial-pivot elimination of a stack M of m n x n systems, with the
    right-hand sides ``rhs`` (broadcast to m x n) carried as column n, so
    that the elimination performs the forward substitution.  Returns
    (lu, pivmin): per system its factors beside its permuted,
    forward-substituted right-hand side (m x n x (n + 1)), and its
    smallest pivot magnitude (a NaN pivot does not count).

    The pivot search (first largest magnitude), the division and the
    rank-one update are each one elementwise operation over the stack, and
    rows are swapped only in systems whose pivot row moved, so each system
    gets the bits of its own elimination.  A system that meets an exact
    zero pivot has pivmin 0.0 and its remaining rows are zeroed and
    divided by 1, so the other systems see no warning; its factors past
    that pivot are undefined.  :func:`_back_substitute` decides what
    counts as singular.
    """
    m, n = M.shape[:2]
    lu = np.empty((m, n, n + 1), dtype=M.dtype)
    lu[..., :n] = M
    lu[..., n] = rhs
    for k in range(n):
        for s, p in enumerate(np.abs(lu[:, k:, k]).argmax(1).tolist()):
            if p:
                row = lu[s, k].copy()
                lu[s, k] = lu[s, k + p]
                lu[s, k + p] = row
        pivot = lu[:, k, k:k + 1]
        if 0.0 in lu[:, k, k].tolist():
            zero = pivot == 0.0
            lu[zero[:, 0], k:, k:] = 0.0
            pivot = pivot.copy()
            pivot[zero] = 1.0
        if k + 1 < n:
            col = lu[:, k + 1:, k]
            col /= pivot
            lu[:, k + 1:, k + 1:] -= col[:, :, None] * lu[:, k:k + 1, k + 1:]
    # min skips a NaN pivot: the first pivot, an entry of M, is finite
    return lu, [min(map(abs, d)) for d in lu.diagonal(0, 1, 2).tolist()]


def _back_substitute(lu: np.ndarray, pivmin: float, scale) -> np.ndarray:
    """The solution of one system of :func:`_lu_eliminate` (its slice of
    lu and its pivmin), one BLAS dot per row (``a.dot(b) + 0.0``, which has
    the bits of ``a @ b``: that adds the BLAS dot to +0.0).  Raises
    :class:`SingularSystem` first when pivmin is at or below the
    ``lu_pivot`` bound, eps * n * scale, scale being max|A| of the system."""
    n = lu.shape[0]
    _guard("lu_pivot", pivmin, _precision_of(lu), n, scale, error=SingularSystem,
           message=lambda: f"matrix numerically singular (pivot {pivmin:.3e}, scale {scale:.3e})")
    x = lu[:, n].copy()
    x[n - 1] /= lu[n - 1, n - 1]  # the empty dot of the last row is skipped
    for k in range(n - 2, -1, -1):
        x[k] = (x[k] - (lu[k, k + 1:n].dot(x[k + 1:]) + 0.0)) / lu[k, k]
    return x


def solve_linear(A, b) -> np.ndarray:
    """Solve A x = b in A's format by partial-pivoting Gaussian elimination.

    Raises :class:`SingularSystem` when a pivot is at or below the
    ``lu_pivot`` bound, eps * n * max|A| (scale-invariant singularity test).
    """
    A = as_matrix(A)
    precision = _precision_of(A)
    b = as_vector(b, precision)
    n = A.shape[0]
    if A.shape[1] != n or b.size != n:
        raise ValueError("solve_linear requires square A conformal with b")
    lu, pivmin = _lu_eliminate(A[None], b)
    return _back_substitute(lu[0], pivmin[0], np.maximum.reduce(np.abs(A), axis=None))


# ---------------------------------------------------------------------------
# Polynomials


def is_conjugate_pair(z: complex, w: complex) -> bool:
    """Whether w is the conjugate of z: imaginary parts of opposite signs,
    and w within the ``conjugate_match`` bound of conj(z)."""
    opposite = z.imag > 0.0 > w.imag or z.imag < 0.0 < w.imag
    return opposite and abs(w - z.conjugate()) <= THRESHOLDS["conjugate_match"](BITS64, abs(z))


def has_complex_eigenvalue(spectrum) -> bool:
    """Whether ``spectrum``, LAPACK's eigenvalues of a matrix in its format
    (``np.linalg.eigvals``), holds an eigenvalue whose |Im| exceeds the
    ``complex_eigenvalue`` bound, sqrt(eps) max(1, max |l|)."""
    scale = float(np.maximum.reduce(np.abs(spectrum)))
    bound = THRESHOLDS["complex_eigenvalue"](_precision_of(spectrum.real), scale)
    return bool(np.maximum.reduce(np.abs(spectrum.imag)) > bound)


def _complex_poles(roots) -> list:
    """The poles as Python complex numbers; :class:`InvalidPoleSet` for an
    integer beyond the float64 range or a list that is not of numbers."""
    try:
        return [complex(r) for r in roots]
    except OverflowError as exc:
        raise InvalidPoleSet("pole list has an integer beyond the float64 range") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidPoleSet(f"poles must be a sequence of numbers, got {roots!r}") from exc


def pole_steps(roots) -> list:
    """The real factor of each pole step, in the caller's order: ``(l,)``
    for a real pole (imaginary part exactly 0), ``(2 Re l, |l|^2)`` for a
    complex pole l once a later pole pairs with it
    (:func:`is_conjugate_pair`; the first open partner wins), in l's slot.

    Raises :class:`InvalidPoleSet` for a non-finite pole or a complex pole
    left without a partner.
    """
    steps, pending = [], []  # pending: (slot, pole) of unpaired complex poles
    for z in _complex_poles(roots):
        if not cmath.isfinite(z):
            raise InvalidPoleSet(f"pole {z} is not finite")
        if z.imag == 0.0:
            steps.append((z.real,))
            continue
        for i, (slot, w) in enumerate(pending):
            if is_conjugate_pair(w, z):
                del pending[i]
                steps[slot] = (2.0 * w.real, w.real * w.real + w.imag * w.imag)
                break
        else:
            pending.append((len(steps), z))
            steps.append(None)
    if pending:
        raise InvalidPoleSet(
            f"pole set not closed under conjugation: unmatched {pending[0][1]}"
        )
    return steps


def poly_from_roots(roots) -> np.ndarray:
    """Monic real polynomial with the given (conjugate-closed) roots.

    Returns float64 coefficients in degree-descending order [1, p1, ..., pn],
    the product of the real factors of :func:`pole_steps`.  The roots are
    sorted by (real, imag) first, so the result does not depend on how the
    caller ordered them.
    """
    p = np.array([1.0])
    for step in pole_steps(sorted(_complex_poles(roots), key=lambda z: (z.real, z.imag))):
        p = np.convolve(p, [1.0, -step[0]] if len(step) == 1 else [1.0, -step[0], step[1]])
    return p


def companion_matrix(coeffs) -> np.ndarray:
    """Companion matrix of a monic polynomial given degree-descending."""
    c = np.asarray(coeffs, dtype=np.float64).ravel()
    if c.size < 2 or c[0] != 1.0:
        raise ValueError("expected monic coefficients [1, p1, ..., pn]")
    n = c.size - 1
    C = np.zeros((n, n))
    C[0, :] = -c[1:]
    C[1:, :-1] = _identity(n - 1, C.dtype)
    return C
