import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poleplace import linalg
from poleplace.bench import gen_integer_example, gen_scaled_diagonal
from poleplace.errors import (
    FactorizationError,
    InvalidPoleSet,
    PlacementError,
    SingularSystem,
)
from poleplace.linalg import (
    BITS32,
    BITS64,
    companion_matrix,
    eigenvalues,
    is_conjugate_pair,
    pole_steps,
    poly_from_roots,
    qr_decompose,
    schur_decompose,
    solve_linear,
    svd_decompose,
)
from poleplace.placement import ALGORITHMS, horner_char_matrix

A_WORKED = np.array([[1.0, 3, 5], [7, 13, 17], [1, 1, 1]])
B_WORKED = np.array([1.0, 1, 1])


# ---------------------------------------------------------------------------
# QR


def test_qr_identity():
    Q, R = qr_decompose(np.eye(3))
    np.testing.assert_allclose(Q, np.eye(3))
    np.testing.assert_allclose(R, np.eye(3))


def test_qr_single_column():
    # hand Householder on (3, 4): reflected norm 5, direction (3/5, 4/5)
    Q, R = qr_decompose(np.array([[3.0], [4.0]]))
    assert R[0, 0] == pytest.approx(5.0, abs=1e-14)
    np.testing.assert_allclose(Q[:, 0], [0.6, 0.8], atol=1e-14)


def test_qr_reconstructs_worked_example():
    Q, R = qr_decompose(A_WORKED)
    assert np.max(np.abs(Q @ R - A_WORKED)) <= 1e-13


def test_qr_sign_convention_and_shape():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((5, 3))
    Q, R = qr_decompose(M)
    assert Q.shape == (5, 5) and R.shape == (5, 3)
    assert np.all(np.diag(R) >= 0)
    assert np.max(np.abs(np.tril(R, -1))) == 0.0


def test_householder_annihilator_kills_vector():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.standard_normal(rng.integers(2, 9))
        W = linalg.householder_annihilator(v)
        assert np.max(np.abs(W @ v)) <= 1e-12 * max(1.0, np.linalg.norm(v))
        np.testing.assert_allclose(W @ W.T, np.eye(v.size - 1), atol=1e-12)


def test_householder_reflector():
    rng = np.random.default_rng(11)
    for dt in (np.float32, np.float64):
        for _ in range(20):
            v = rng.standard_normal(rng.integers(1, 9)).astype(dt)
            H = linalg.householder_reflector(v)
            assert H.dtype == dt
            tol = 64 * np.finfo(dt).eps
            np.testing.assert_allclose(H, H.T, atol=tol)
            np.testing.assert_allclose(H @ H.T, np.eye(v.size), atol=tol)
            assert np.abs((H @ v)[1:]).max(initial=0.0) <= tol * np.linalg.norm(v)
            assert linalg.householder_annihilator(v).tobytes() == H[1:, :].tobytes()
        assert np.array_equal(linalg.householder_reflector(np.zeros(3, dtype=dt)), np.eye(3))


# ---------------------------------------------------------------------------
# SVD


def test_svd_diagonal():
    U, S, V = svd_decompose(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(S, [2.0, 1.0])


def test_svd_zero_matrix():
    U, S, V = svd_decompose(np.zeros((2, 2)))
    np.testing.assert_allclose(S, [0.0, 0.0])
    np.testing.assert_allclose(np.abs(U), np.eye(2))
    np.testing.assert_allclose(np.abs(V), np.eye(2))


def test_svd_permutation_has_unit_singular_values():
    U, S, V = svd_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(S, [1.0, 1.0], atol=1e-15)


def test_svd_sign_convention():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((4, 4))
    U, S, V = svd_decompose(M)
    for j in range(4):
        assert U[np.argmax(np.abs(U[:, j])), j] > 0
    assert np.max(np.abs(U @ np.diag(S) @ V.T - M)) <= 1e-13


# ---------------------------------------------------------------------------
# Schur


def test_schur_upper_triangular_input():
    T0 = np.triu(np.arange(1.0, 10.0).reshape(3, 3))
    U, T = schur_decompose(T0)
    np.testing.assert_allclose(sorted(np.diag(T)), sorted(np.diag(T0)), atol=1e-12)
    assert np.max(np.abs(U @ T @ U.T - T0)) <= 1e-12


def test_schur_rotation_block():
    # characteristic polynomial l^2 + 1: one 2x2 block, eigenvalues +/- i
    U, T = schur_decompose(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert T[1, 0] != 0.0
    ev = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    np.testing.assert_allclose(ev, [-1j, 1j], atol=1e-14)


def test_schur_matches_eigenvalues_on_worked_example():
    U, T = schur_decompose(A_WORKED)
    diag = np.sort(np.diag(T))
    ev = np.sort(eigenvalues(A_WORKED).real)
    np.testing.assert_allclose(diag, ev, atol=1e-10)


# ---------------------------------------------------------------------------
# Eigenvalues


def test_eigenvalues_worked_example_closed_loop():
    K = np.array([4.0, 7.5, 9.5])
    ev = eigenvalues(A_WORKED - np.outer(B_WORKED, K))
    np.testing.assert_allclose(ev.real, [-3, -2, -1], atol=1e-9)
    np.testing.assert_allclose(ev.imag, 0, atol=1e-12)


def test_eigenvalues_identity():
    ev = eigenvalues(np.eye(3))
    np.testing.assert_allclose(ev, [1, 1, 1])


def test_eigenvalues_k11_closed_loop():
    # the single-pole gain (2, 3, 5) leaves (l+1)(l-8)(l+2)
    k11 = np.array([2.0, 3.0, 5.0])
    ev = eigenvalues(A_WORKED - np.outer(B_WORKED, k11))
    np.testing.assert_allclose(ev.real, [-2, -1, 8], atol=1e-9)


def test_eigenvalues_sorted_and_conjugate():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        ev = eigenvalues(rng.standard_normal((n, n)))
        key = [(z.real, z.imag) for z in ev]
        assert key == sorted(key)
        np.testing.assert_allclose(sorted(ev.imag), sorted(-ev.imag), atol=0)


def test_eigenvalues_similarity_invariance():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 11))
        A = rng.standard_normal((n, n))
        P, _ = qr_decompose(rng.standard_normal((n, n)))
        e1 = eigenvalues(A)
        e2 = eigenvalues(P.T @ A @ P)
        np.testing.assert_allclose(e1, e2, atol=1e-8 * max(1.0, np.abs(A).max()))


# ---------------------------------------------------------------------------
# Eigen-kernel regression against the numpy-scalar reference
#
# _ref_elmhes and _ref_hqr_eigenvalues are the kernels of poleplace 1.0.0,
# verbatim, running on numpy float64 scalars.  linalg runs the same IEEE
# operations in the same order on Python floats, so the Hessenberg form
# and the spectrum must agree bit for bit.


def _ref_elmhes(Ain: np.ndarray) -> np.ndarray:
    """Reduce to upper Hessenberg form by stabilized elementary similarity
    transformations (pivoted Gaussian elimination), the classical
    companion of the double-shift QR iteration below."""
    a = Ain.copy()
    n = a.shape[0]
    for m in range(1, n - 1):
        x = 0.0
        i = m
        for j in range(m, n):
            if abs(a[j, m - 1]) > abs(x):
                x = a[j, m - 1]
                i = j
        if i != m:
            a[[i, m], m - 1:] = a[[m, i], m - 1:]
            a[:, [i, m]] = a[:, [m, i]]
        if x != 0.0:
            for i in range(m + 1, n):
                y = a[i, m - 1]
                if y != 0.0:
                    y /= x
                    a[i, m - 1] = y
                    a[i, m:] -= y * a[m, m:]
                    a[:, m] += y * a[:, i]
    for i in range(2, n):
        a[i, : i - 1] = 0.0
    return a


def _ref_hqr_eigenvalues(Hin: np.ndarray, maxiter_mult: int = 30) -> np.ndarray:
    """Eigenvalues of an upper Hessenberg matrix by the classical
    double-shift QR iteration with exceptional shifts."""
    h = Hin.copy()
    n = h.shape[0]
    wr = np.zeros(n)
    wi = np.zeros(n)
    anorm = np.sum(np.abs(h))
    nn = n - 1
    t = 0.0
    itn = maxiter_mult * n
    while nn >= 0:
        its = 0
        while True:
            l = nn
            while l > 0:
                s = abs(h[l - 1, l - 1]) + abs(h[l, l])
                if s == 0.0:
                    s = anorm
                if abs(h[l, l - 1]) + s == s:
                    h[l, l - 1] = 0.0
                    break
                l -= 1
            x = h[nn, nn]
            if l == nn:
                wr[nn] = x + t
                wi[nn] = 0.0
                nn -= 1
                break
            y = h[nn - 1, nn - 1]
            w = h[nn, nn - 1] * h[nn - 1, nn]
            if l == nn - 1:
                p = 0.5 * (y - x)
                q = p * p + w
                zz = np.sqrt(abs(q))
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
            if its == 10 or its == 20:
                t += x
                for i in range(nn + 1):
                    h[i, i] -= x
                s = abs(h[nn, nn - 1]) + abs(h[nn - 1, nn - 2])
                y = x = 0.75 * s
                w = -0.4375 * s * s
            its += 1
            itn -= 1
            m = nn - 2
            while m >= l:
                zz = h[m, m]
                r = x - zz
                s = y - zz
                p = (r * s - w) / h[m + 1, m] + h[m, m + 1]
                q = h[m + 1, m + 1] - zz - r - s
                r = h[m + 2, m + 1]
                s = abs(p) + abs(q) + abs(r)
                p /= s
                q /= s
                r /= s
                if m == l:
                    break
                u_ = abs(h[m, m - 1]) * (abs(q) + abs(r))
                v_ = abs(p) * (abs(h[m - 1, m - 1]) + abs(zz) + abs(h[m + 1, m + 1]))
                if u_ + v_ == v_:
                    break
                m -= 1
            for i in range(m + 2, nn + 1):
                h[i, i - 2] = 0.0
                if i > m + 2:
                    h[i, i - 3] = 0.0
            for k in range(m, nn):
                if k != m:
                    p = h[k, k - 1]
                    q = h[k + 1, k - 1]
                    r = h[k + 2, k - 1] if k != nn - 1 else 0.0
                    x = abs(p) + abs(q) + abs(r)
                    if x == 0.0:
                        continue
                    p /= x
                    q /= x
                    r /= x
                s = np.sqrt(p * p + q * q + r * r)
                if p < 0:
                    s = -s
                if k == m:
                    if l != m:
                        h[k, k - 1] = -h[k, k - 1]
                else:
                    h[k, k - 1] = -s * x
                p += s
                x = p / s
                y = q / s
                zz = r / s
                q /= p
                r /= p
                if k == nn - 1:
                    for j in range(k, nn + 1):
                        p = h[k, j] + q * h[k + 1, j]
                        h[k, j] -= p * x
                        h[k + 1, j] -= p * y
                    for i in range(l, min(nn, k + 3) + 1):
                        p = x * h[i, k] + y * h[i, k + 1]
                        h[i, k] -= p
                        h[i, k + 1] -= p * q
                else:
                    for j in range(k, nn + 1):
                        p = h[k, j] + q * h[k + 1, j] + r * h[k + 2, j]
                        h[k, j] -= p * x
                        h[k + 1, j] -= p * y
                        h[k + 2, j] -= p * zz
                    for i in range(l, min(nn, k + 3) + 1):
                        p = x * h[i, k] + y * h[i, k + 1] + zz * h[i, k + 2]
                        h[i, k] -= p
                        h[i, k + 1] -= p * q
                        h[i, k + 2] -= p * r
    order = np.lexsort((wi, wr))
    return wr[order] + 1j * wi[order]


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _integer_closed_loops():
    """A - B K for every gain the ALGORITHMS entries return on the
    integer family, n = 8..12, both precisions and both pole orders."""
    for n in range(8, 13):
        sys = gen_integer_example(n)
        poles = [-float(k) for k in range(1, n + 1)]
        for order in (poles, poles[::-1]):
            for fn in ALGORITHMS.values():
                for precision in (BITS32, BITS64):
                    try:
                        K = fn(sys, order, precision)
                    except PlacementError:
                        continue
                    yield sys.A - np.outer(sys.B, np.asarray(K, dtype=np.float64))


def _algebroid2_closed_loops():
    for n in range(12, 31):
        sys = gen_integer_example(n)
        K = ALGORITHMS["algebroid2"](sys, [-float(k) for k in range(1, n + 1)], BITS64)
        yield sys.A - np.outer(sys.B, K)


EIGEN_CORPUS = {
    "random": lambda: (np.random.default_rng(n).standard_normal((n, n))
                       for n in range(2, 51)),
    "integer-closed-loops": _integer_closed_loops,
    "algebroid2-closed-loops": _algebroid2_closed_loops,
    "scaled-diagonal": lambda: (gen_scaled_diagonal(n, 341).A for n in range(3, 13)),
    # the cyclic permutations take the its == 10 exceptional shift
    "special": lambda: [np.eye(4), np.zeros((4, 4)), np.array([[0.0, 1.0], [-1.0, 0.0]]),
                        np.array([[-2.5]])] + [np.roll(np.eye(n), 1, 0) for n in range(3, 7)],
}


@pytest.mark.parametrize("group", sorted(EIGEN_CORPUS))
def test_eigen_kernel_bitwise_matches_reference(group):
    count = 0
    for M in EIGEN_CORPUS[group]():
        H_ref = _ref_elmhes(M)
        H = linalg._elmhes(M.tolist())
        assert np.array_equal(_bits(H), _bits(H_ref))
        ev_ref = _ref_hqr_eigenvalues(H_ref)
        ev = linalg._hqr_eigenvalues(H)
        assert np.array_equal(_bits(ev.real), _bits(ev_ref.real))
        assert np.array_equal(_bits(ev.imag), _bits(ev_ref.imag))
        count += 1
    assert count > 0


def _outcome(fn, M):
    """The spectrum's bits, or the type and message of the exception."""
    try:
        ev = fn(M)
    except Exception as exc:  # the outcome is what is compared
        return type(exc), str(exc)
    return _bits(ev.real).tolist(), _bits(ev.imag).tolist()


def _ref_eigenvalues(M):
    return _ref_hqr_eigenvalues(_ref_elmhes(M))


def test_kernels_compute_in_their_input_format():
    M = np.random.default_rng(31).standard_normal((4, 4))
    for dt in (np.float32, np.float64):
        X = M.astype(dt)
        outputs = [*qr_decompose(X), *svd_decompose(X), *schur_decompose(X),
                   solve_linear(X, M[:, 0]), horner_char_matrix(X, [-1.0, -2.0]),
                   linalg.householder_reflector(X[:, 0]),
                   linalg.householder_annihilator(X[:, 0])]
        assert [out.dtype for out in outputs] == [np.dtype(dt)] * len(outputs)
    # anything but a float32 array computes in 64 bits
    assert qr_decompose(M.tolist())[0].dtype == np.float64
    assert solve_linear(np.eye(2, dtype=int), [1, 2]).dtype == np.float64
    assert linalg.householder_annihilator([3, 4]).dtype == np.float64
    # the verifier runs in 64 bits on the entries as given
    X = M.astype(np.float32)
    assert eigenvalues(X).tobytes() == eigenvalues(X.astype(np.float64)).tobytes()


def test_eigenvalues_32bit_rounds_input_then_runs_64bit():
    for n in range(2, 13):
        M = np.random.default_rng(n).standard_normal((n, n))
        expected = _outcome(_ref_eigenvalues, M.astype(np.float32).astype(np.float64))
        assert _outcome(lambda M: eigenvalues(M.astype(BITS32.dtype)), M) == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eigenvalues_extreme_scales_match_reference():
    # Python floats raise ZeroDivisionError where numpy scalars give inf
    # or nan; at every scale the outcome must stay that of the reference.
    seen = set()
    for scale in (1e150, 1e200, 1e300, 1e-300, 5e-324):
        for n in (3, 6, 10):
            M = np.random.default_rng(n).standard_normal((n, n)) * scale
            expected = _outcome(_ref_eigenvalues, M)
            assert _outcome(eigenvalues, M) == expected
            seen.add(expected[0] if expected[0] is FactorizationError else "spectrum")
    assert seen == {FactorizationError, "spectrum"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eigenvalues_zero_divisor_after_overflow_matches_reference():
    M = np.random.default_rng(0).uniform(-1.0, 1.0, (5, 5)) * 1e308
    with pytest.raises(ZeroDivisionError):
        linalg._hqr_eigenvalues(linalg._elmhes(M.tolist()))
    assert _outcome(eigenvalues, M) == _outcome(_ref_eigenvalues, M)


# ---------------------------------------------------------------------------
# Solve


def test_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    np.testing.assert_allclose(solve_linear(np.eye(3), b), b)


def test_solve_shifted_worked_example_residual():
    n1 = solve_linear(A_WORKED + np.eye(3), B_WORKED)
    assert np.linalg.norm((A_WORKED + np.eye(3)) @ n1 - B_WORKED) <= 1e-12


def test_solve_singular_raises():
    with pytest.raises(SingularSystem):
        solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))


def _ref_lu_factor(A: np.ndarray):
    """``linalg._lu_factor`` before its dispatch trim, verbatim: the
    bitwise reference for the kernel."""
    lu = A.copy()
    n = lu.shape[0]
    piv = np.arange(n)
    pivmin = np.inf
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if p != k:
            lu[[k, p], :] = lu[[p, k], :]
            piv[[k, p]] = piv[[p, k]]
        pivot = lu[k, k]
        pivmin = min(pivmin, abs(float(pivot)))
        if pivot == 0.0:
            return lu, piv, 0.0
        if k + 1 < n:
            lu[k + 1:, k] /= pivot
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, piv, pivmin


def _solves_on_integer_family():
    """Every matrix ``solve_linear`` factors for hyperplane_normal (through
    determinantal and sliding) and for algebroid1-solve on the integer
    family, n = 8..12, both precisions and both pole orders."""
    seen = []

    def record(A):
        seen.append(A.copy())
        return _ref_lu_factor(A)

    saved, linalg._lu_factor = linalg._lu_factor, record
    try:
        for n in range(8, 13):
            sys = gen_integer_example(n)
            poles = [-float(k) for k in range(1, n + 1)]
            for order in (poles, poles[::-1]):
                for name in ("determinantal", "sliding", "algebroid1-solve"):
                    for precision in (BITS32, BITS64):
                        try:
                            ALGORITHMS[name](sys, order, precision)
                        except PlacementError:
                            pass
    finally:
        linalg._lu_factor = saved
    return seen


LU_CORPUS = {
    "random": lambda: (np.random.default_rng(n).standard_normal((n, n)) * scale
                       for n in range(1, 31) for scale in (1e-5, 1e-2, 1.0, 1e2, 1e5)),
    "integer-family-solves": _solves_on_integer_family,
    # after one row swap the second pivot is an exact zero (early return)
    "zero-pivot": lambda: [np.array([[1.0, 1, 1], [2, 2, 5], [4, 4, 0]]),
                           np.array([[0.0, 1], [0.0, 2]]), np.zeros((3, 3))],
    # small integers: most columns have several entries of the largest |.|
    "tied-maxima": lambda: (np.random.default_rng(seed).integers(-2, 3, (n, n)) * 1.0
                            for n in range(2, 13) for seed in range(8)),
}


def _uint_bits(x: np.ndarray) -> tuple:
    return x.dtype.str, x.shape, x.view(np.uint32 if x.dtype == np.float32 else np.uint64).tolist()


def _lu_bits(lu, piv, pivmin) -> tuple:
    return (_uint_bits(lu), piv.dtype.str, piv.tolist(),
            type(pivmin), int(np.float64(pivmin).view(np.uint64)))


def _solve_outcome(A, b):
    """The solution's bits, or the singular-system message."""
    try:
        return _uint_bits(solve_linear(A, b))
    except SingularSystem as exc:
        return str(exc)


@pytest.mark.parametrize("group", sorted(LU_CORPUS))
def test_lu_kernel_bitwise_matches_reference(group, monkeypatch):
    cases = [M.astype(dt) for M in LU_CORPUS[group]() for dt in (np.float32, np.float64)]
    assert cases
    rhs = [np.linspace(-1.0, 2.0, M.shape[0]).astype(M.dtype) for M in cases]
    for M in cases:
        assert _lu_bits(*linalg._lu_factor(M)) == _lu_bits(*_ref_lu_factor(M))
    solved = [_solve_outcome(M, b) for M, b in zip(cases, rhs)]
    monkeypatch.setattr(linalg, "_lu_factor", _ref_lu_factor)
    assert solved == [_solve_outcome(M, b) for M, b in zip(cases, rhs)]


def test_lu_corpus_reaches_early_return_and_ties():
    assert all(_ref_lu_factor(M)[2] == 0.0 for M in LU_CORPUS["zero-pivot"]())
    swapped = _ref_lu_factor(LU_CORPUS["zero-pivot"]()[0])
    assert swapped[1].tolist() == [2, 1, 0] and swapped[0][1, 1] == 0.0
    tied = [np.abs(M[:, 0]) for M in LU_CORPUS["tied-maxima"]()]
    assert sum(np.count_nonzero(c == c.max()) > 1 for c in tied) > len(tied) // 2
    assert {M.dtype for M in LU_CORPUS["integer-family-solves"]()} == {
        np.dtype(np.float32), np.dtype(np.float64)}


# ---------------------------------------------------------------------------
# Factorization residual properties, both precision modes


@pytest.mark.parametrize("precision", [BITS64, BITS32])
def test_factorization_residuals(precision):
    rng = np.random.default_rng(29)
    eps = precision.eps
    for _ in range(500):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 13))
        M = rng.standard_normal((n, m))
        scale = max(1.0, np.abs(M).max())
        Q, R = qr_decompose(M.astype(precision.dtype))
        assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= 64 * eps * max(n, m)
        assert np.max(np.abs(Q @ R - M)) <= 64 * eps * max(n, m) * scale
        U, S, V = svd_decompose(M.astype(precision.dtype))
        assert np.max(np.abs(U.T @ U - np.eye(n))) <= 64 * eps * max(n, m)
        assert np.max(np.abs(V.T @ V - np.eye(m))) <= 64 * eps * max(n, m)
        assert np.max(np.abs(U[:, :S.size] @ np.diag(S) @ V[:, :S.size].T - M)) \
            <= 256 * eps * max(n, m) * scale
        assert np.all(np.diff(S) <= 0)
        if n == m and n > 1:
            Us, T = schur_decompose(M.astype(precision.dtype))
            assert np.max(np.abs(Us.T @ Us - np.eye(n))) <= 64 * eps * n
            assert np.max(np.abs(Us @ T @ Us.T - M)) <= 256 * eps * n * scale
            sub = np.diag(T, -1)
            assert not np.any((sub[:-1] != 0) & (sub[1:] != 0))


# ---------------------------------------------------------------------------
# Polynomials


def test_poly_from_roots_examples():
    np.testing.assert_allclose(poly_from_roots([-1, -2, -3]), [1, 6, 11, 6], atol=1e-13)
    np.testing.assert_allclose(poly_from_roots([0]), [1, 0], atol=0)
    # (l + 1 - i)(l + 1 + i) = l^2 + 2l + 2
    np.testing.assert_allclose(poly_from_roots([-1 + 1j, -1 - 1j]), [1, 2, 2], atol=1e-13)


def test_poly_from_roots_rejects_open_conjugates():
    with pytest.raises(InvalidPoleSet):
        poly_from_roots([-1 + 2j, -3])


def test_poly_from_roots_real_only_at_zero_imaginary_part():
    # a pole is real iff its imaginary part is exactly 0
    with pytest.raises(InvalidPoleSet, match="unmatched"):
        poly_from_roots([-1 + 1e-12j, -2, -3])
    np.testing.assert_allclose(poly_from_roots([-1 + 1e-12j, -1 - 1e-12j]), [1, 2, 1])


# The pole-pairing rule and the polynomial expansion as they were before
# pole_steps: a multiset closure check, a complex expansion whose imaginary
# residue was checked and dropped, and Ackermann steps that required each
# conjugate right after its partner.  Kept verbatim (the deleted helper and
# threshold inlined) as the references for the real-factor expansion.


def _ref_validate_conjugate_closed(roots):
    pending = []
    for z in (complex(r) for r in roots):
        if z.imag == 0.0:
            continue
        for i, w in enumerate(pending):
            if is_conjugate_pair(w, z):
                pending.pop(i)
                break
        else:
            pending.append(z)
    if pending:
        raise InvalidPoleSet(
            f"pole set not closed under conjugation: unmatched {pending[0]}"
        )


def _ref_poly_from_roots(roots) -> np.ndarray:
    roots = [complex(r) for r in roots]
    _ref_validate_conjugate_closed(roots)
    roots.sort(key=lambda z: (z.real, z.imag))
    p = np.array([1.0 + 0.0j])
    for r in roots:
        p = np.convolve(p, np.array([1.0, -r]))
    residue_bound = 1e-12 * max(1.0, np.max(np.abs(p.real)))
    if p.size > 1 and np.max(np.abs(p.imag)) > residue_bound:
        raise InvalidPoleSet("conjugate pairing left a complex residue")
    return p.real.copy()


def _ref_pole_steps(roots):
    roots = [complex(r) for r in roots]
    i = 0
    while i < len(roots):
        lam = roots[i]
        if lam.imag == 0.0:
            yield (lam.real,)
            i += 1
            continue
        if i + 1 >= len(roots) or not is_conjugate_pair(lam, roots[i + 1]):
            raise InvalidPoleSet(
                "complex pole must be immediately followed by its conjugate"
            )
        yield (2.0 * lam.real, lam.real * lam.real + lam.imag * lam.imag)
        i += 2


def _real_pole_sets():
    sets = []
    for n in range(1, 31):
        sets.append([-float(k) for k in range(1, n + 1)])
        sets.append([-0.01 * k for k in range(1, n + 1)])
    rng = np.random.default_rng(808)
    for n in range(1, 31):
        for scale in (1e-5, 1e-2, 1.0, 1e2, 1e5):
            for _ in range(4):
                sets.append(list(rng.standard_normal(n) * scale))
    sets += [[0.0], [-0.0], [0.0, -1.0, 2.0], [1.0, -0.0, 0.0, -3.0]]
    return sets


def _conjugate_pole_sets(seed, count, adjacent):
    """Seeded conjugate-closed sets of n = 2..12 poles at scales 1e-3..1e3,
    each conjugate right after its partner when ``adjacent``."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        n = int(rng.integers(2, 13))
        scale = 10.0 ** int(rng.integers(-3, 4))
        pairs = int(rng.integers(1, n // 2 + 1))
        blocks = [[complex(re, im), complex(re, -im)] for re, im in
                  zip(rng.standard_normal(pairs) * scale,
                      np.abs(rng.standard_normal(pairs)) * scale)]
        blocks += [[float(x)] for x in rng.standard_normal(n - 2 * pairs) * scale]
        rng.shuffle(blocks)
        roots = [z for block in blocks for z in block]
        if not adjacent:
            rng.shuffle(roots)
        sets.append(roots)
    return sets


def test_poly_from_roots_real_sets_match_reference_bytes():
    for roots in _real_pole_sets():
        got = poly_from_roots(roots)
        assert got.dtype == np.float64
        assert got.tobytes() == _ref_poly_from_roots(roots).tobytes(), roots


def test_pole_steps_match_reference_on_adjacent_pairs():
    for roots in _real_pole_sets() + _conjugate_pole_sets(909, 400, adjacent=True):
        assert pole_steps(roots) == list(_ref_pole_steps(roots)), roots


def test_poly_from_roots_complex_sets_within_ulp_bound():
    # Real quadratic factors round differently from the complex expansion.
    # Bound: n ulps of the matching coefficient of prod(s + |l|), which
    # bounds every partial sum of either expansion.  Largest gap seen on
    # these 400 sets: 5 such ulps (n = 11); the coefficients themselves
    # move by about one ulp where they do not cancel, e.g. p1 of
    # {-0.3 +- 0.7i, -1.1 +- 3.3i}.
    worst = 0.0
    for roots in _conjugate_pole_sets(707, 400, adjacent=False):
        got, ref = poly_from_roots(roots), _ref_poly_from_roots(roots)
        magnitude = np.poly([-abs(z) for z in roots])
        gap = np.max(np.abs(got - ref) / np.spacing(magnitude))
        assert gap <= len(roots), roots
        worst = max(worst, gap)
    assert worst <= 5.0
    quartic = [-0.3 + 0.7j, -0.3 - 0.7j, -1.1 + 3.3j, -1.1 - 3.3j]
    assert _ref_poly_from_roots(quartic)[1] == 2.8
    assert poly_from_roots(quartic)[1] == np.nextafter(2.8, 3.0)


def test_pole_steps_pairs_anywhere_at_first_slot():
    assert pole_steps([-1 + 1j, -2, -1 - 1j]) == [(-2.0, 2.0), (-2.0,)]
    assert pole_steps([-3.0, -1 - 2j, -1 + 2j]) == [(-3.0,), (-2.0, 5.0)]
    # the first open partner wins
    assert pole_steps([-1 + 1j, -2 + 1j, -2 - 1j, -1 - 1j]) == [(-2.0, 2.0), (-4.0, 5.0)]
    with pytest.raises(InvalidPoleSet, match="unmatched"):
        pole_steps([-1 + 1j, -2.0, -1 + 1j])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 complex(-1.0, float("nan")), complex(-1.0, float("inf"))])
def test_pole_steps_rejects_nonfinite(bad):
    with pytest.raises(InvalidPoleSet, match="not finite"):
        pole_steps([bad, -2.0, -3.0])
    with pytest.raises(InvalidPoleSet, match="not finite"):
        poly_from_roots([bad, -2.0, -3.0])


_PAIR = st.tuples(st.integers(-40, 40), st.integers(1, 40))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), pairs=st.lists(_PAIR, min_size=1, max_size=5, unique=True),
       reals=st.lists(st.integers(-40, 40), max_size=5),
       scale=st.sampled_from([1e-3, 0.37, 1.0, 11.0, 1e4]))
def test_pole_order_does_not_matter(data, pairs, reals, scale):
    roots = [complex(re * scale, s * im * scale) for re, im in pairs for s in (1, -1)]
    roots += [float(re * scale) for re in reals]
    shuffled = data.draw(st.permutations(roots))
    assert poly_from_roots(shuffled).tobytes() == poly_from_roots(roots).tobytes()
    assert sorted(pole_steps(shuffled)) == sorted(pole_steps(roots))


def test_poly_roots_roundtrip_via_companion():
    rng = np.random.default_rng(101)
    for _ in range(40):
        k = int(rng.integers(2, 9))
        roots = np.sort(rng.uniform(-12, -1, k))
        while np.min(np.diff(roots)) < 0.4:
            roots = np.sort(rng.uniform(-12, -1, k))
        coeffs = poly_from_roots(roots)
        rec = eigenvalues(companion_matrix(coeffs))
        np.testing.assert_allclose(np.sort(rec.real), roots, atol=1e-7)
        np.testing.assert_allclose(rec.imag, 0, atol=1e-7)


# ---------------------------------------------------------------------------
# File formats


def test_matrix_text_roundtrip_bit_identical():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((4, 7))
    back = linalg.parse_matrix_text(linalg.format_matrix_text(M))
    assert np.array_equal(back, M)


def test_matrix_json_parse():
    M = linalg.parse_matrix_text("[[1, 2], [3, 4]]")
    np.testing.assert_allclose(M, [[1, 2], [3, 4]])


def test_system_formats(tmp_path):
    path = tmp_path / "sys.txt"
    linalg.save_system(path, A_WORKED, B_WORKED)
    A, B = linalg.load_system(path)
    assert np.array_equal(A, A_WORKED) and np.array_equal(B, B_WORKED)
    jpath = tmp_path / "sys.json"
    jpath.write_text('{"A": [[1,3,5],[7,13,17],[1,1,1]], "B": [1,1,1]}')
    A2, B2 = linalg.load_system(jpath)
    assert np.array_equal(A2, A_WORKED) and np.array_equal(B2, B_WORKED)


def test_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.nan, 1.0], [0.0, 2.0]]))


def test_bad_matrix_body():
    with pytest.raises(ValueError):
        linalg.parse_matrix_text("2 2\n1 2 3")


# ---------------------------------------------------------------------------
# Numerical-zero thresholds


def test_threshold_table_values():
    # one input per entry, so that an edit of any bound shows up here
    pinned = {
        ("lu_pivot", BITS64, 3, 2.0): 1.3322676295501878e-15,
        ("placement_pivot", BITS32, 10.0): 0.0011920928955078125,
        ("chain_input", BITS64, 2.0, 3, 5.0): 4e-08,
        ("chain_denominator", BITS32): 1.1754943508222875e-35,
        ("conjugate_match", BITS64, 4.0): 4e-09,
        ("oblique_pairing", BITS64, 6.0): 1.3322676295501878e-12,
        ("orthonormality", BITS64): 1e-10,
        ("spectrum_pair", BITS64): 1e-09,
    }
    assert {key[0] for key in pinned} == set(linalg.THRESHOLDS)
    for (name, precision, *scale), bound in pinned.items():
        assert linalg.THRESHOLDS[name](precision, *scale) == bound, name


def test_conjugate_pair_predicate():
    assert linalg.is_conjugate_pair(-1 + 2j, -1 - 2j)
    assert linalg.is_conjugate_pair(-1 + 2j, -1 - 2j + 1e-9)
    assert not linalg.is_conjugate_pair(-1 + 2j, -1 - 2j + 1e-8)
    assert not linalg.is_conjugate_pair(-1 + 2j, -1 + 2j)
    # imaginary parts of opposite signs, however small
    z = -1 + 1e-10j
    assert not linalg.is_conjugate_pair(z, z)
    assert not linalg.is_conjugate_pair(z, -1.0)
    assert linalg.is_conjugate_pair(z, z.conjugate())
    assert linalg.is_conjugate_pair(-1 + 1e-200j, -1 - 1e-200j)
    with pytest.raises(InvalidPoleSet, match="not closed under conjugation"):
        pole_steps([z, z, -3.0])
    with pytest.raises(InvalidPoleSet):
        poly_from_roots([z, z, -3.0])
