"""The bracket identities behind the quotient constructions.

A modified commutator of ambient matrices, projected onto the complement
of a distinguished direction, equals the plain commutator of the
projected matrices.  The orthogonal version uses a unit vector q and an
orthonormal complement; the oblique version uses a 1-form / vector pair
through a rank-one projector.  With integer data the oblique identity is
exact in rational arithmetic.
"""

import numpy as np

from poleplace import algebroid

A1 = np.array([[1.0, 3, 5], [7, 13, 17], [1, 1, 1]])
A2 = np.array([[2.0, 4, 6], [13, 3, 1], [7, 5, 3]])

# --- orthogonal splitting taken from the QR factor of a fixed 3x3 matrix
anchor = algebroid.OrthogonalAnchor.from_qr_rows(
    np.array([[-21.0, -5, 5], [1, 38, 49], [-4, 12, 3]]))
bracket = algebroid.orthogonal_bracket(A1, A2, anchor)
lhs = algebroid.project(anchor, bracket)
p1 = algebroid.project(anchor, A1)
p2 = algebroid.project(anchor, A2)
rhs = p1 @ p2 - p2 @ p1

print("projected bracket  Q <A1,A2> Q^T =")
print(np.round(lhs, 4))
print("commutator of projections  [Q A1 Q^T, Q A2 Q^T] =")
print(np.round(rhs, 4))
print("max difference:", np.max(np.abs(lhs - rhs)))
print()

# --- oblique splitting: omega = (1,2,3), g = (14,-2,-3), omega.g = 1
omega = [1, 2, 3]
g = [14, -2, -3]
a1 = algebroid.oblique_anchor_apply_exact(A1.astype(int), omega, g)
a2 = algebroid.oblique_anchor_apply_exact(A2.astype(int), omega, g)
print("anchored A1 = (I - G) A1 =")
print(a1.astype(int))
print("anchored A2 =")
print(a2.astype(int))

# exact rational evaluation: the identity holds with zero residue
br = algebroid.oblique_bracket_exact(A1.astype(int), A2.astype(int), omega, g)
lhs_exact = algebroid.oblique_anchor_apply_exact(br, omega, g)
rhs_exact = a1 @ a2 - a2 @ a1
print()
print("an({{A1,A2}}) over the rationals:")
print(np.array([[int(x) for x in row] for row in lhs_exact]))
print("equal to [an(A1), an(A2)] exactly:", np.array_equal(lhs_exact, rhs_exact))
