import numpy as np
import pytest

from poleplace.algebroid import (
    OrthogonalAnchor,
    oblique_anchor_apply_exact,
    oblique_bracket_exact,
    orthogonal_bracket,
    project,
)
from poleplace.linalg import householder_annihilator

A1 = np.array([[1.0, 3, 5], [7, 13, 17], [1, 1, 1]])
A2 = np.array([[2.0, 4, 6], [13, 3, 1], [7, 5, 3]])
OMEGA = [1, 2, 3]
G = [14, -2, -3]


def anchor_on(v):
    """The anchor whose distinguished direction is v / ||v||."""
    v = np.asarray(v, dtype=np.float64)
    return OrthogonalAnchor(v / np.linalg.norm(v), householder_annihilator(v))


def random_anchor(rng, n):
    return anchor_on(rng.standard_normal(n))


# ---------------------------------------------------------------------------
# Orthogonal brackets


E3 = np.eye(3)


@pytest.mark.parametrize("call, message", [
    (lambda: OrthogonalAnchor(E3[0], E3), r"basis must be \(n-1\) x n, got \(3, 3\)"),
    (lambda: OrthogonalAnchor(2.0 * E3[0], E3[1:]), "q must have unit norm"),
    (lambda: OrthogonalAnchor(E3[0], E3[:2]), "basis rows must annihilate q"),
    (lambda: OrthogonalAnchor(E3[0], E3[[1, 1]]), "basis rows must be orthonormal"),
    (lambda: OrthogonalAnchor(np.zeros(2), householder_annihilator(np.zeros(2))),
     "q must have unit norm"),
    (lambda: orthogonal_bracket(np.eye(2), A2, anchor_on(OMEGA)),
     "operands must be square and conformal with the anchor"),
], ids=["basis-shape", "q-norm", "basis-meets-q", "basis-not-orthonormal", "zero-direction",
        "bracket-shape"])
def test_orthogonal_anchor_rejects_what_is_no_anchor(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_orthogonal_bracket_antisymmetric_on_equal_args():
    anchor = random_anchor(np.random.default_rng(0), 3)
    assert np.max(np.abs(orthogonal_bracket(A1, A1, anchor))) == 0.0


def test_worked_example_identity_and_values():
    # reference splitting: rows of the QR factor of the given 3x3 matrix
    anchor = OrthogonalAnchor.from_qr_rows(
        np.array([[-21.0, -5, 5], [1, 38, 49], [-4, 12, 3]]))
    lhs = project(anchor, orthogonal_bracket(A1, A2, anchor))
    r1, r2 = project(anchor, A1), project(anchor, A2)
    rhs = r1 @ r2 - r2 @ r1
    assert np.max(np.abs(lhs - rhs)) <= 1e-9
    ref = np.array([[16.7141, 89.8467], [83.5973, -16.7141]])
    # the basis is QR-convention dependent; compare magnitudes, then
    # record whether the signs happen to match this platform's factor
    np.testing.assert_allclose(np.abs(rhs), np.abs(ref), atol=5e-4)
    assert abs(rhs[0, 0] + rhs[1, 1]) <= 1e-9  # commutator trace is zero


def test_e1_anchor_identity_2x2():
    anchor = OrthogonalAnchor(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]))
    rng = np.random.default_rng(2)
    for _ in range(10):
        M1 = rng.standard_normal((2, 2))
        M2 = rng.standard_normal((2, 2))
        lhs = project(anchor, orthogonal_bracket(M1, M2, anchor))
        r1, r2 = project(anchor, M1), project(anchor, M2)
        assert np.max(np.abs(lhs - (r1 @ r2 - r2 @ r1))) <= 1e-10


# ---------------------------------------------------------------------------
# Oblique anchor and bracket (worked integer example)


def test_oblique_anchor_values():
    an1 = oblique_anchor_apply_exact(A1.astype(int), OMEGA, G)
    assert [[int(x) for x in row] for row in an1] == [
        [-251, -445, -583], [43, 77, 101], [55, 97, 127]]
    an2 = oblique_anchor_apply_exact(A2.astype(int), OMEGA, G)
    assert [[int(x) for x in row] for row in an2] == [
        [-684, -346, -232], [111, 53, 35], [154, 80, 54]]
    # anchored matrices are annihilated by omega
    assert not np.any(np.array(OMEGA) @ an1)


def test_oblique_anchor_annihilates_projector():
    # G = g omega^T / (omega^T g); omega^T g = 1 here
    projector = np.outer(G, OMEGA)
    assert not np.any(oblique_anchor_apply_exact(projector, OMEGA, G))


def test_oblique_bracket_exact_rational():
    bracket = oblique_bracket_exact(A1.astype(int), A2.astype(int), OMEGA, G)
    lhs = oblique_anchor_apply_exact(bracket, OMEGA, G)
    an1 = oblique_anchor_apply_exact(A1.astype(int), OMEGA, G)
    an2 = oblique_anchor_apply_exact(A2.astype(int), OMEGA, G)
    rhs = an1 @ an2 - an2 @ an1
    assert np.array_equal(lhs, rhs)
    ref = [[-111539, -238613, -323187], [18346, 39202, 53088], [24949, 53403, 72337]]
    assert [[int(x) for x in row] for row in lhs] == ref


def test_oblique_identity_exact_on_random_integers():
    rng = np.random.default_rng(9)
    done = 0
    while done < 10:
        M1 = rng.integers(-9, 10, (3, 3))
        M2 = rng.integers(-9, 10, (3, 3))
        w = rng.integers(-5, 6, 3)
        g = rng.integers(-5, 6, 3)
        if int(w @ g) == 0:
            continue
        done += 1
        lhs = oblique_anchor_apply_exact(
            oblique_bracket_exact(M1, M2, list(w), list(g)), list(w), list(g))
        a1 = oblique_anchor_apply_exact(M1, list(w), list(g))
        a2 = oblique_anchor_apply_exact(M2, list(w), list(g))
        assert np.array_equal(lhs, a1 @ a2 - a2 @ a1)


def test_oblique_equal_args_zero():
    assert not np.any(oblique_bracket_exact(A1.astype(int), A1.astype(int), OMEGA, G))


def test_degenerate_anchor_rejected():
    # decided exactly, on the arguments: a ValueError, as the orthogonal
    # family's zero direction is, not a failed placement
    eye = np.eye(2, dtype=int)
    for call in (lambda: oblique_anchor_apply_exact(eye, [1, 0], [0, 1]),
                 lambda: oblique_bracket_exact(eye, eye, [1, 0], [0, 1])):
        with pytest.raises(ValueError) as info:
            call()
        assert (type(info.value), str(info.value)) == (ValueError, "omega^T g = 0")


def test_oblique_exact_on_int64_arrays_does_not_wrap():
    # omega^T g = 2**64 wraps to 0 in int64 arithmetic
    big = np.array([2 ** 32])
    out = oblique_anchor_apply_exact(np.array([[1]]), big, big)
    assert out.tolist() == [[0]] and type(out[0, 0].numerator) is int


# ---------------------------------------------------------------------------
# Shared invariant sweep


def test_antisymmetry_all_brackets():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        M1 = rng.standard_normal((n, n))
        M2 = rng.standard_normal((n, n))
        anc = random_anchor(rng, n)
        scale = max(1.0, np.abs(M1).max() * np.abs(M2).max())
        assert np.max(np.abs(orthogonal_bracket(M1, M2, anc)
                             + orthogonal_bracket(M2, M1, anc))) <= 1e-10 * scale
        w = rng.integers(-5, 6, n)
        g = rng.integers(-5, 6, n)
        if int(w @ g) == 0:
            continue
        # float entries convert to Fractions exactly: antisymmetry is exact
        assert not np.any(oblique_bracket_exact(M1, M2, w, g) + oblique_bracket_exact(M2, M1, w, g))


def test_orthogonal_algebroid_property_random():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        M1 = rng.standard_normal((n, n))
        M2 = rng.standard_normal((n, n))
        anc = random_anchor(rng, n)
        lhs = project(anc, orthogonal_bracket(M1, M2, anc))
        r1, r2 = project(anc, M1), project(anc, M2)
        bound = 1e-9 * max(np.abs(M1).max(), np.abs(M2).max()) ** 2
        assert np.max(np.abs(lhs - (r1 @ r2 - r2 @ r1))) <= max(bound, 1e-12)


def test_projector_laws():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        M = rng.integers(-9, 10, (n, n))
        w = rng.integers(-5, 6, n)
        g = rng.integers(-5, 6, n)
        if int(w @ g) == 0:
            continue
        # the anchor map I - G is idempotent exactly when G is
        an = oblique_anchor_apply_exact(M, w, g)
        assert np.array_equal(oblique_anchor_apply_exact(an, w, g), an)
        # G g = g, i.e. (I - G) g = 0
        assert not np.any(oblique_anchor_apply_exact(g[:, None], w, g))
