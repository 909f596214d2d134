"""Commutators and anchors on matrix pairs.

Two families are implemented.  The orthogonal family splits the state
space with an orthonormal pair (q, Q) and modifies the matrix commutator
so that projecting with Q turns the bracket of ambient matrices into the
plain commutator of the projected ones; it is evaluated in float64.  The
oblique family does the same with a rank-one projector G built from a row
1-form and a column vector; it is evaluated in exact rational arithmetic
only, so its identities hold with zero residue and need no tolerance.
These are exactly the structural maps the pole-placement quotients
instantiate, exposed here with executable identity checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import BITS64, THRESHOLDS, _identity, as_matrix, as_vector


@dataclass(frozen=True, eq=False)
class OrthogonalAnchor:
    """Unit direction q plus an orthonormal basis Q of its complement.

    ``basis`` has shape (n-1) x n, rows orthonormal and orthogonal to q.
    """

    q: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        q = as_vector(self.q, BITS64)
        Q = as_matrix(self.basis, BITS64)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "basis", Q)
        n = q.size
        if Q.shape != (n - 1, n):
            raise ValueError(f"basis must be (n-1) x n, got {Q.shape}")
        tol = THRESHOLDS["orthonormality"](BITS64)
        if abs(np.linalg.norm(q) - 1.0) > tol:
            raise ValueError("q must have unit norm")
        if np.max(np.abs(Q @ q)) > tol:
            raise ValueError("basis rows must annihilate q")
        if np.max(np.abs(Q @ Q.T - _identity(n - 1, Q.dtype))) > tol:
            raise ValueError("basis rows must be orthonormal")

    @classmethod
    def from_qr_rows(cls, M):
        """Split the orthogonal factor of a QR decomposition by rows.

        Row 1 becomes q, rows 2..n the complement basis.  The raw LAPACK
        factor is used here (no sign normalization): interactive matrix
        environments split their qr output the same way, so fixture
        values computed in them stay reproducible.
        """
        M = as_matrix(M, BITS64)
        Q, _ = np.linalg.qr(M, mode="complete")
        return cls(Q[0, :].copy(), Q[1:, :].copy())


def orthogonal_bracket(A1, A2, anchor: OrthogonalAnchor) -> np.ndarray:
    """<A1, A2> = A1 A2 - A2 A1 + A2 q q^T A1 - A1 q q^T A2."""
    A1 = as_matrix(A1, BITS64)
    A2 = as_matrix(A2, BITS64)
    n = anchor.q.size
    if A1.shape != (n, n) or A2.shape != (n, n):
        raise ValueError("operands must be square and conformal with the anchor")
    P = np.outer(anchor.q, anchor.q)
    return A1 @ A2 - A2 @ A1 + A2 @ P @ A1 - A1 @ P @ A2


def project(anchor: OrthogonalAnchor, A) -> np.ndarray:
    """Quotient representative Q A Q^T of a square matrix."""
    A = as_matrix(A, BITS64)
    return anchor.basis @ A @ anchor.basis.T


# -- oblique family, exact-rational evaluation ------------------------------
#
# With integer (or rational) data the oblique identities hold exactly;
# evaluating them in Fraction arithmetic gives integer-exact values.
# Entries pass through tolist() first: a Fraction of a numpy int64 keeps
# int64 parts, whose products wrap around instead of growing.


def _frac_matrix(M):
    return np.array([[Fraction(x) for x in row] for row in np.atleast_2d(M).tolist()],
                    dtype=object)


def _exact_anchor(omega, g):
    """omega and g / (omega^T g) in Fractions: G = g omega^T / (omega^T g)
    is their outer product, applied as a rank-one update, never formed."""
    omega, g = (_frac_matrix(np.ravel(v))[0] for v in (omega, g))
    pairing = omega @ g
    if pairing == 0:
        raise ValueError("omega^T g = 0")
    return omega, g / pairing


def oblique_anchor_apply_exact(A, omega, g):
    """an_{omega,g}(A) = (I - G) A = A - g (omega^T A) / (omega^T g), in
    Fractions; omega^T an(A) = 0.  Raises ValueError for omega^T g = 0."""
    A = _frac_matrix(A)
    omega, g_d = _exact_anchor(omega, g)
    return A - np.outer(g_d, omega @ A)


def oblique_bracket_exact(A1, A2, omega, g):
    """{{A1, A2}} = A1 A2 - A2 A1 + A2 G A1 - A1 G A2, in Fractions."""
    A1, A2 = _frac_matrix(A1), _frac_matrix(A2)
    omega, g_d = _exact_anchor(omega, g)
    return (A1 @ A2 - A2 @ A1 + np.outer(A2 @ g_d, omega @ A1)
            - np.outer(A1 @ g_d, omega @ A2))
