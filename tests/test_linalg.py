import copy
import functools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from poleplace import algebroid, bench, cli, errors, linalg, placement
from poleplace.bench import ExampleFamily, gen_integer_example, gen_scaled_diagonal, run_suite
from poleplace.errors import (
    FactorizationError,
    InvalidPoleSet,
    PrecisionOverflow,
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
from poleplace.placement import ALGORITHMS, _horner_steps

import _reference as ref
from _reference import assert_same_bits

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


@pytest.mark.parametrize("dt, tiny", [(np.float64, 1e-200), (np.float32, 1e-25)])
def test_householder_reflector_rejects_a_vector_whose_squares_underflow(dt, tiny):
    # no reflector takes a nonzero v with a zero sum of squares to a
    # multiple of e_1, so neither kernel returns the identity's rows for it;
    # the zero vector still gets the identity
    v = np.array([tiny, tiny], dtype=dt)
    for kernel in (linalg.householder_reflector, linalg.householder_annihilator):
        with pytest.raises(PrecisionOverflow) as info:
            kernel(v)
        exc = info.value
        assert str(exc) == ("reflected vector of length 2 is nonzero, "
                            "but its squared norm underflowed to 0")
        assert (exc.check, exc.value, exc.bound) == ("normal_square", 0.0, 0.0)
    H = linalg.householder_reflector(np.zeros(2, dtype=dt))
    assert H.dtype == dt and np.array_equal(H, np.eye(2))


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


def test_cached_identity_is_read_only_and_returned_factors_are_copies():
    # the QR's Q and the reflector's H start from one cached identity per
    # (size, dtype); writing into a returned factor, the reflector's
    # identity for v = 0 included, must not reach a later call
    rng = np.random.default_rng(5)
    for dt in (np.float32, np.float64):
        eye = linalg._identity(4, np.dtype(dt))
        assert eye is linalg._identity(4, np.dtype(dt))
        assert not eye.flags.writeable and np.array_equal(eye, np.eye(4))
        with pytest.raises(ValueError, match="read-only"):
            eye[0, 0] = 2.0
        M = rng.standard_normal((4, 3)).astype(dt)
        v = rng.standard_normal(4).astype(dt)
        want = [f.tobytes() for f in (*qr_decompose(M), linalg.householder_reflector(v))]
        for outputs in (qr_decompose(M), (linalg.householder_reflector(v),),
                        (linalg.householder_reflector(np.zeros(4, dtype=dt)),)):
            for out in outputs:
                assert out.flags.writeable
                out[...] = 7.0
        got = [f.tobytes() for f in (*qr_decompose(M), linalg.householder_reflector(v))]
        assert got == want
        assert np.array_equal(linalg.householder_reflector(np.zeros(4, dtype=dt)), np.eye(4))
        assert np.array_equal(eye, np.eye(4))


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
# Eigen kernel against poleplace 1.0.0
#
# linalg runs 1.0.0's elmhes and hqr with the same IEEE operations in the
# same order, on Python floats, so the Hessenberg form and the spectrum
# agree bit for bit.


def _algebroid2_closed_loops():
    for n in range(12, 31):
        sys = gen_integer_example(n)
        K = ALGORITHMS["algebroid2"](sys, [-float(k) for k in range(1, n + 1)], BITS64)
        yield sys.A - np.outer(sys.B, K)


EIGEN_CORPUS = {
    "random": lambda: (np.random.default_rng(n).standard_normal((n, n))
                       for n in range(2, 51)),
    # A - B K for every gain of the integer-suite corpus (see below)
    "integer-closed-loops": lambda: (args[0] for _, args in _suite_calls("eigenvalues")),
    "algebroid2-closed-loops": _algebroid2_closed_loops,
    "scaled-diagonal": lambda: (gen_scaled_diagonal(n, 341).A for n in range(3, 13)),
    # the cyclic permutations take the its == 10 exceptional shift
    "special": lambda: [np.eye(4), np.zeros((4, 4)), np.array([[0.0, 1.0], [-1.0, 0.0]]),
                        np.array([[-2.5]])] + [np.roll(np.eye(n), 1, 0) for n in range(3, 7)],
}


@pytest.mark.parametrize("group", sorted(EIGEN_CORPUS))
def test_eigen_kernel_bitwise_matches_reference(group):
    cases = [(M,) for M in EIGEN_CORPUS[group]()]
    assert_same_bits(lambda M: np.array(linalg._elmhes(M.tolist())), ref.KERNELS["_elmhes"], cases)
    hessenberg = [(ref.KERNELS["_elmhes"](M),) for M, in cases]
    assert_same_bits(lambda H: linalg._hqr_eigenvalues(H.tolist()),
                     ref.KERNELS["_hqr_eigenvalues"], hessenberg)


def test_kernels_compute_in_their_input_format():
    M = np.random.default_rng(31).standard_normal((4, 4))
    for dt in (np.float32, np.float64):
        X = M.astype(dt)
        outputs = [*qr_decompose(X), *svd_decompose(X), *schur_decompose(X),
                   solve_linear(X, M[:, 0]),
                   _horner_steps(X, pole_steps([-1.0, -2.0]), np.eye(4, dtype=dt)),
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
    assert_same_bits(lambda M: eigenvalues(M.astype(np.float32)),
                     lambda M: ref.KERNELS["eigenvalues"](M.astype(np.float32).astype(np.float64)),
                     [(np.random.default_rng(n).standard_normal((n, n)),) for n in range(2, 13)])


def _stays_normal(values, k):
    """True when x * 2^k is a normal double for every nonzero x."""
    return all(-1021 <= math.frexp(x)[1] + k <= 1024 for x in values if x)


@pytest.mark.parametrize("group", sorted(EIGEN_CORPUS))
def test_eigenvalues_scale_with_a_power_of_two_bit_for_bit(group):
    # the iteration runs on the matrix scaled to [1, 2), so the spectrum of
    # M 2^k is the spectrum of M times 2^k, wherever both stay normal
    checked = 0
    for M in EIGEN_CORPUS[group]():
        spectrum = eigenvalues(M).tolist()
        parts = [p for z in spectrum for p in (z.real, z.imag)]
        for k in (300, -300, 600, -600, -1000, 900):
            if _stays_normal(M.ravel().tolist(), k) and _stays_normal(parts, k):
                want = np.array([complex(z.real * 2.0 ** k, z.imag * 2.0 ** k) for z in spectrum])
                assert eigenvalues(np.ldexp(M, k)).tobytes() == want.tobytes(), (M.shape, k)
                checked += 1
    assert checked


# a graded matrix found by a seeded search (np.random.default_rng(7), draw
# 9104).  Run as given, products of its entries underflowed and the
# iteration did not converge; scaled so that its largest entry, 8.8e-122,
# lies in [1, 2), it converges
GRADED = np.array(
    [[1.7734913755388392e-298, 0.0, -2.0398200701377026e-157, -4.0826166252803615e-255],
     [2.1601877860137897e-273, 0.0, 0.0, 0.0],
     [-4.7235127125265084e-284, -0.0, -7.602152803684753e-251, 8.784830813632341e-122],
     [4.524255959839835e-308, 2.522340033956918e-198, -1.8463542179787527e-272,
      2.0963116133470745e-228]])


def test_eigenvalues_of_a_graded_matrix_scale_bit_for_bit():
    # the values are not checked: 400-digit mpmath puts all four
    # eigenvalues at |l| = 9.9e-188, where this unbalanced iteration reads
    # about 1e-163 (see the README's numerical notes)
    want = eigenvalues(GRADED)
    assert want.shape == (4,) and np.isfinite(want).all()
    for k in (200, 400, 861):
        got = eigenvalues(np.ldexp(GRADED, k)).tolist()
        back = np.array([complex(z.real * 2.0 ** -k, z.imag * 2.0 ** -k) for z in got])
        assert back.tobytes() == want.tobytes(), k


def test_eigenvalues_return_a_spectrum_across_the_float64_range():
    # seeded matrices with entries anywhere in 2^-1070..2^1020, 30 % of them
    # with entries zeroed, each also scaled so that its largest entry lies
    # in [2^458, 2^459) and in [2^-459, 2^-458), the edges of LAPACK dgeev's
    # range: no exception and no warning (filterwarnings = error), since the
    # iteration runs on the matrix scaled into [1, 2)
    rng = np.random.default_rng(39)
    for _ in range(3000):
        n = int(rng.integers(2, 9))
        M = np.ldexp(rng.uniform(-1.0, 1.0, (n, n)), rng.integers(-1070, 1021, (n, n)))
        if rng.random() < 0.3:
            M[rng.random((n, n)) < 0.3] = 0.0
        e = math.frexp(np.abs(M).max())[1]
        for X in (M, np.ldexp(M, 459 - e), np.ldexp(M, -458 - e)):
            spectrum = eigenvalues(X)
            assert spectrum.shape == (n,) and not np.isnan(spectrum).any(), X.tolist()


def test_eigenvalues_of_a_matrix_whose_norm_overflows():
    # the eigenvalues are 0 and 2e308, past the float64 range: inf, with
    # no warning (the norm sum of the unscaled iteration overflowed)
    assert eigenvalues([[1e308, 1e308], [1e308, 1e308]]).tolist() == [0j, complex(math.inf, 0)]


@pytest.mark.parametrize("M, tol", [
    # Day's matrix ("How the QR algorithm fails to converge and how to fix
    # it", 1996): two pairs near +-1
    ([[0, 1, 0, 0], [1, 0, 1e-8, 0], [0, -1e-8, 0, 1], [0, 0, 1, 0]], 1e-15),
    # from the seeded search below; its double eigenvalues at 0 and 1 are
    # defective, so sqrt(eps) is all any backward-stable solver promises
    ([[0, -1, -1, 0], [-1, 1, 1, 1], [1, 1, 0, 0], [-1, -1, -1, 1]], 1e-7),
])
def test_eigenvalues_break_the_exceptional_shift_cycle(M, tol):
    # with exceptional shifts at sweeps 10 and 20 only, the iteration cycles
    # on both matrices and runs out of its budget; every ten sweeps, as in
    # LAPACK's dlahqr, it converges
    want = np.sort_complex(np.linalg.eigvals(np.array(M, dtype=float)))
    assert np.abs(eigenvalues(M) - want).max() < tol


def test_eigenvalues_converge_on_small_integer_matrices():
    # a seeded search over n x n matrices with entries in {-1, 0, 1}: draw
    # 11,575 stalled when exceptional shifts came at sweeps 10 and 20 only
    rng = np.random.default_rng(0)
    for _ in range(12000):
        n = int(rng.integers(3, 7))
        M = rng.integers(-1, 2, size=(n, n))
        assert np.isfinite(eigenvalues(M)).all(), M.tolist()


# ---------------------------------------------------------------------------
# Solve


def test_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    np.testing.assert_allclose(solve_linear(np.eye(3), b), b)


def test_solve_shifted_worked_example_residual():
    n1 = solve_linear(A_WORKED + np.eye(3), B_WORKED)
    assert np.linalg.norm((A_WORKED + np.eye(3)) @ n1 - B_WORKED) <= 1e-12


def test_solve_singular_raises():
    with pytest.raises(SingularSystem) as info:
        solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))
    # the guard's record: the pivot 0 at or below eps * n * max|A|
    assert (type(info.value), str(info.value)) == (
        SingularSystem, "matrix numerically singular (pivot 0.000e+00, scale 1.000e+00)")
    assert (info.value.check, info.value.value, info.value.bound) == (
        "lu_pivot", 0.0, 2 * BITS64.eps)


def test_guard_raises_at_or_below_its_bound_and_passes_nan():
    # the test is value <= bound, so a NaN passes as it did at every site,
    # and the message is built only on a failure (None is never called)
    bound = linalg.THRESHOLDS["lu_pivot"](BITS64, 2, 1.0)
    for value in (float("nan"), np.nextafter(bound, np.inf)):
        assert linalg._guard("lu_pivot", value, BITS64, 2, 1.0,
                             error=SingularSystem, message=None) is None
    with pytest.raises(SingularSystem, match="^at the bound$") as info:
        linalg._guard("lu_pivot", bound, BITS64, 2, 1.0,
                      error=SingularSystem, message=lambda: "at the bound")
    assert (info.value.check, info.value.value, info.value.bound) == ("lu_pivot", bound, bound)
    # an error raised without the guard carries no record
    unguarded = SingularSystem("unguarded")
    assert (unguarded.check, unguarded.value, unguarded.bound) == (None, None, None)


LU_CORPUS = {
    "random": lambda: (np.random.default_rng(n).standard_normal((n, n)) * scale
                       for n in range(1, 31) for scale in (1e-5, 1e-2, 1.0, 1e2, 1e5)),
    # every matrix the integer-suite corpus factors: solve_linear's, and
    # each shifted matrix A - l I of the hyperplane normals' stacks, which
    # a system eliminates once per pole and format; reversed too, as the
    # reversed pole order stacks them
    "integer-family-solves": lambda: [
        *(linalg.as_matrix(args[0]) for _, args in _suite_calls("solve_linear")),
        *(M for _, args in _suite_calls("_lu_eliminate") for M in args[0]),
        *(M for _, args in _suite_calls("_lu_eliminate") for M in args[0][::-1])],
    # after one row swap the second pivot is an exact zero (early return)
    "zero-pivot": lambda: [np.array([[1.0, 1, 1], [2, 2, 5], [4, 4, 0]]),
                           np.array([[0.0, 1], [0.0, 2]]), np.zeros((3, 3))],
    # small integers: most columns have several entries of the largest |.|
    "tied-maxima": lambda: (np.random.default_rng(seed).integers(-2, 3, (n, n)) * 1.0
                            for n in range(2, 13) for seed in range(8)),
}


def _ref_factors(M):
    """1.0.0's LU factors and pivmin of M.  Past an exact zero pivot the
    factorization is undefined: 1.0.0 stops there, and the stacked kernel
    zeroes the trailing block, which this does too."""
    lu, _, pivmin = ref.KERNELS["_lu_factor"](M)
    if pivmin == 0.0:
        k = int(np.flatnonzero(lu.diagonal() == 0.0)[0])
        lu[k:, k:] = 0.0
    return lu, pivmin


def _assert_stack_matches_reference(stack):
    """Eliminate the n x n matrices of ``stack`` (one format) as one stack
    and compare each system with 1.0.0: the factors (the first n columns)
    and pivmin with its ``_lu_factor``, the solution with its
    ``solve_linear``."""
    M = np.array(stack)
    n = M.shape[1]
    b = np.linspace(-1.0, 2.0, n).astype(M.dtype)
    lu, pivmin = linalg._lu_eliminate(M, b)
    assert len(pivmin) == len(stack)
    for A, lu_i, pivmin_i in zip(stack, lu, pivmin):
        assert ref._bits((lu_i[:, :n], pivmin_i)) == ref.outcome(_ref_factors, A)
        solution = ref.outcome(linalg._back_substitute, lu_i, pivmin_i, np.abs(A).max())
        assert solution == ref.outcome(ref.KERNELS["solve_linear"], A, b)


@pytest.mark.parametrize("group", sorted(LU_CORPUS))
def test_lu_kernel_bitwise_matches_reference(group):
    cases = [M.astype(dt) for M in LU_CORPUS[group]() for dt in (np.float32, np.float64)]
    stacks = {}
    for M in cases:
        _assert_stack_matches_reference([M])
        stacks.setdefault((M.shape, M.dtype), []).append(M)
    for stack in stacks.values():  # the whole corpus at once, by size and format
        _assert_stack_matches_reference(stack)
    assert_same_bits(solve_linear, ref.KERNELS["solve_linear"],
                     [(M, np.linspace(-1.0, 2.0, M.shape[0]).astype(M.dtype)) for M in cases])


@st.composite
def _lu_system(draw, n, dt):
    """A regular system, one of small integers whose columns tie in
    magnitude, or one with a zero column, which meets an exact zero pivot
    at that column's step of the elimination."""
    kind = draw(st.sampled_from(["regular", "tied", "zero-pivot"]))
    if kind == "tied":
        entries = st.integers(-2, 2).map(float)
    else:
        entries = st.floats(-1e3, 1e3, allow_subnormal=False, width=32)
    M = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)), dtype=dt).reshape(n, n)
    if kind == "zero-pivot":
        M[:, draw(st.integers(0, n - 1))] = 0.0
    return M


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), m=st.integers(1, 6),
       dt=st.sampled_from([np.float32, np.float64]))
def test_lu_stacks_bitwise_match_reference(data, n, m, dt):
    # under filterwarnings = error: no system warns because another one
    # met a zero pivot
    _assert_stack_matches_reference([data.draw(_lu_system(n, dt)) for _ in range(m)])


def test_lu_corpus_reaches_early_return_and_ties():
    lu_factor = ref.KERNELS["_lu_factor"]
    assert all(lu_factor(M)[2] == 0.0 for M in LU_CORPUS["zero-pivot"]())
    swapped = lu_factor(LU_CORPUS["zero-pivot"]()[0])
    assert swapped[1].tolist() == [2, 1, 0] and swapped[0][1, 1] == 0.0
    tied = [np.abs(M[:, 0]) for M in LU_CORPUS["tied-maxima"]()]
    assert sum(np.count_nonzero(c == c.max()) > 1 for c in tied) > len(tied) // 2
    assert {M.dtype for M in LU_CORPUS["integer-family-solves"]()} == {
        np.dtype(np.float32), np.dtype(np.float64)}
    # the shifted matrices of determinantal and sliding: n = 8..12, both
    # formats, each pole's once (the system keeps its normals)
    stacks = _suite_calls("_lu_eliminate")
    assert sum(len(args[0]) for _, args in stacks) == 2 * sum(range(8, 13))


# ---------------------------------------------------------------------------
# QR, reflector, solve and input checks against poleplace 1.0.0


# 1.0.0 has only the annihilator, this reflector's rows 2..m
def _ref_householder_reflector(v) -> np.ndarray:
    v = ref.KERNELS["as_vector"](v)
    m = v.size
    u = v.copy()
    s = np.sqrt(np.sum(v * v))
    u[0] += (s if v[0] >= 0 else -s)
    uu = np.dot(u, u)
    if uu == 0.0:
        return np.eye(m, dtype=v.dtype)
    return np.eye(m, dtype=v.dtype) - 2.0 * np.outer(u, u) / uu


REFERENCE_KERNELS = {name: ref.KERNELS[name] for name in
                     ("as_matrix", "as_vector", "qr_decompose", "solve_linear", "svd_decompose")}
REFERENCE_KERNELS["householder_reflector"] = _ref_householder_reflector


def _kernel_calls(matrices):
    """(kernel name, args) for each matrix in both formats: its QR, SVD
    and input check, the reflector and input check of every column, and a
    solve when it is square."""
    for M0 in matrices:
        for M in (M0.astype(np.float32), M0.astype(np.float64)):
            yield "as_matrix", (M,)
            yield "qr_decompose", (M,)
            yield "svd_decompose", (M,)
            for v in M.T:
                yield "as_vector", (v,)
                yield "householder_reflector", (v,)
            if M.shape[0] == M.shape[1]:
                yield "solve_linear", (M, np.linspace(-1.0, 2.0, M.shape[0]))


def _partly_zero(rng, m, k):
    M = rng.standard_normal((m, k))
    M[:, rng.random(k) < 0.4] = 0.0  # whole columns
    M[rng.integers(0, m):, rng.integers(0, k)] = 0.0  # a column's tail
    M[0, rng.integers(0, k)] = -0.0  # a sign tie at the pivot
    return M


def _integer_suite():
    return run_suite([ExampleFamily("integer", n) for n in range(8, 13)], list(ALGORITHMS),
                     [BITS32, BITS64], ["forward", "reversed"])


@functools.cache
def _integer_suite_corpus():
    """The integer-suite corpus, shared by every kernel test and recorded
    once per session: (kernel name, args) of every call of the five
    reference kernels, which ``_integer_suite`` runs on, of
    ``eigenvalues`` and of the stacked ``_lu_eliminate``, and that run's
    records."""
    calls = []

    def recorder(name, fn):
        def call(*args):
            calls.append((name, copy.deepcopy(args)))
            try:
                return fn(*args)
            except ref.errors.PlacementError as exc:  # as the package's class of that name
                raise getattr(errors, type(exc).__name__)(*exc.args) from None
        return call

    kernels = {**REFERENCE_KERNELS, "eigenvalues": linalg.eigenvalues,
               "_lu_eliminate": linalg._lu_eliminate}
    patch = pytest.MonkeyPatch()
    try:
        for module in (linalg, placement, algebroid, bench):
            for name, fn in kernels.items():
                if hasattr(module, name):
                    patch.setattr(module, name, recorder(name, fn))
        records = _integer_suite()
    finally:
        patch.undo()
    return calls, records


def _suite_calls(*names):
    return [(name, args) for name, args in _integer_suite_corpus()[0] if name in names]


KERNEL_CORPUS = {
    "random": lambda: _kernel_calls(
        np.random.default_rng(100 * m + k).standard_normal((m, k)) * scale
        for m in range(1, 16) for k in range(1, 16) for scale in (1e-5, 1.0, 1e5)),
    "zero-columns": lambda: _kernel_calls(
        [np.zeros((4, 3)), np.zeros((1, 1)), np.array([[0.0, 1], [0, 2]])]
        + [_partly_zero(np.random.default_rng(seed), m, k)
           for seed in range(4) for m in range(2, 13) for k in range(1, 13)]),
    "thin": lambda: _kernel_calls(
        np.random.default_rng(m).standard_normal(shape) * 10.0 ** (m % 7 - 3)
        for m in range(1, 16) for shape in ((1, m), (m, 1))),
    "integer-suite": lambda: _suite_calls(*REFERENCE_KERNELS),
    # U columns whose largest magnitude is reached more than once
    "tied-maxima": lambda: _kernel_calls(
        [scipy.linalg.hadamard(m) * 1.0 for m in (2, 4, 8, 16)]
        + [np.ones((m, k)) for m in range(1, 9) for k in range(1, 9)]
        + [np.kron(np.eye(k), scipy.linalg.hadamard(m)) for k in (1, 2, 3) for m in (2, 4)]),
}


@pytest.mark.parametrize("group", sorted(KERNEL_CORPUS))
def test_dense_kernels_bitwise_match_reference(group):
    calls = list(KERNEL_CORPUS[group]())
    for name, ref_fn in REFERENCE_KERNELS.items():
        assert_same_bits(getattr(linalg, name), ref_fn, [args for n, args in calls if n == name])


def test_svd_corpus_reaches_mixed_sign_ties():
    # a tie between entries of opposite signs is where the first index decides
    mixed = set()
    for name, args in KERNEL_CORPUS["tied-maxima"]():
        if name != "svd_decompose":
            continue
        for col in np.linalg.svd(args[0])[0].T:
            top = col[np.abs(col) == np.abs(col).max()]
            if top.min() < 0 < top.max():
                mixed.add(col.dtype)
    assert mixed == {np.dtype(np.float32), np.dtype(np.float64)}


def test_integer_suite_matches_reference_kernels():
    calls, records = _integer_suite_corpus()
    dtypes = {a.dtype for _, args in calls for a in args if isinstance(a, np.ndarray)}
    assert dtypes == {np.dtype(np.float32), np.dtype(np.float64)}
    same = repr(_integer_suite()) == repr(records)  # no diff: it would take minutes
    assert same


@pytest.mark.parametrize("value, message", [
    (np.ones(3), "expected a 2-d matrix, got shape (3,)"),
    (np.ones((2, 2, 2)), "expected a 2-d matrix, got shape (2, 2, 2)"),
    (np.ones((0, 3)), "expected a 2-d matrix, got shape (0, 3)"),
    (np.ones((3, 0)), "expected a 2-d matrix, got shape (3, 0)"),
    ([[1.0, np.nan]], "matrix entries must be finite"),
    ([[1.0], [np.inf]], "matrix entries must be finite"),
    (np.array([[-np.inf]], dtype=np.float32), "matrix entries must be finite"),
])
def test_as_matrix_rejects_like_reference(value, message):
    for fn in (linalg.as_matrix, ref.KERNELS["as_matrix"]):
        with pytest.raises(ValueError) as exc:
            fn(value)
        assert str(exc.value) == message


@pytest.mark.parametrize("value, message", [
    ([], "expected a non-empty vector"),
    (np.ones((0, 2)), "expected a non-empty vector"),
    ([1.0, np.nan], "vector entries must be finite"),
    ([[np.inf, 1.0]], "vector entries must be finite"),
    (np.array([2.0, -np.inf], dtype=np.float32), "vector entries must be finite"),
])
def test_as_vector_rejects_like_reference(value, message):
    for fn in (linalg.as_vector, ref.KERNELS["as_vector"]):
        with pytest.raises(ValueError) as exc:
            fn(value)
        assert str(exc.value) == message


@pytest.mark.parametrize("check, value, message", [
    (linalg.as_matrix, [[1.0, 10**400]], "matrix entries must be finite"),
    (linalg.as_matrix, [[-10**400]], "matrix entries must be finite"),
    (linalg.as_vector, [10**400, 1], "vector entries must be finite"),
], ids=["matrix", "matrix-negative", "vector"])
def test_input_checks_reject_an_integer_beyond_float64(check, value, message):
    # numpy's conversion raises OverflowError for such an int; the checks
    # state the documented reason instead
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(value)


@pytest.mark.parametrize("call, message", [
    (lambda: schur_decompose(np.ones((2, 3))), "schur_decompose requires a square matrix"),
    (lambda: eigenvalues(np.ones((2, 3))), "eigenvalues requires a square matrix"),
    (lambda: solve_linear(np.ones((2, 3)), np.ones(2)),
     "solve_linear requires square A conformal with b"),
    (lambda: solve_linear(np.eye(2), np.ones(3)),
     "solve_linear requires square A conformal with b"),
    (lambda: companion_matrix([2.0, 1.0]), r"expected monic coefficients \[1, p1, ..., pn\]"),
    (lambda: companion_matrix([1.0]), r"expected monic coefficients \[1, p1, ..., pn\]"),
], ids=["schur", "eigenvalues", "solve-A", "solve-b", "companion-not-monic", "companion-degree-0"])
def test_kernels_reject_a_shape_they_cannot_take(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_pole_checks_reject_an_integer_beyond_float64():
    for fn in (pole_steps, poly_from_roots):
        with pytest.raises(InvalidPoleSet, match="^pole list has an integer beyond the float64 range$"):
            fn([-1.0, 10**400])


@pytest.mark.parametrize("call, error, message", [
    (lambda: solve_linear(np.eye(2, dtype=np.float32), [1e39, 1.0]),
     PrecisionOverflow, "vector entries beyond the 32-bit range"),
    (lambda: linalg.as_vector(np.array([1.0, -1e39]), BITS32),
     PrecisionOverflow, "vector entries beyond the 32-bit range"),
    (lambda: linalg.as_matrix([[1.0], [3.5e38]], BITS32),
     PrecisionOverflow, "matrix entries beyond the 32-bit range"),
    (lambda: linalg.as_vector([1.0, np.inf], BITS32), ValueError, "vector entries must be finite"),
], ids=["solve-b", "vector", "matrix", "non-finite"])
def test_input_checks_narrowing_to_float32(call, error, message):
    # a finite entry beyond float32's range is a value past the format's
    # range, as _in_precision reports it, with no numpy cast warning (the
    # suite turns warnings into errors); a non-finite one stays ValueError
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_input_checks_keep_float32_and_widen_the_rest():
    m32 = np.ones((2, 2), dtype=np.float32)
    assert linalg.as_matrix(m32).dtype == np.float32
    assert linalg.as_vector(m32[0]).dtype == np.float32
    for value in ([[1, 2]], [[1.5, 2]], np.ones((1, 2), dtype=np.int64),
                  np.ones((1, 2), dtype=np.float16)):
        assert linalg.as_matrix(value).dtype == np.float64
        assert linalg.as_vector(value).dtype == np.float64
    assert linalg.as_vector(3).dtype == np.float64
    assert linalg.as_matrix(m32, BITS64).dtype == np.float64
    assert linalg.as_vector([1, 2], BITS32).dtype == np.float32


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("dt", [np.float32, np.float64])
def test_householder_norm_overflow_raises(dt):
    big = np.array([1.0, np.finfo(dt).max, 1.0], dtype=dt)
    with pytest.raises(FactorizationError, match="reflected vector norm overflowed"):
        linalg.householder_reflector(big)
    with pytest.raises(FactorizationError, match="QR column norm overflowed"):
        qr_decompose(np.column_stack([big, np.ones(3, dtype=dt)]))
    # below the overflow the bits are the reference's
    fine = big / dt(2) ** (np.finfo(dt).maxexp // 2 + 2)
    assert_same_bits(linalg.householder_reflector, _ref_householder_reflector, [(fine,)])


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
# threshold inlined) as the references for the real-factor expansion; 1.0.0
# paired poles within its own tolerance, which pole_steps also changed.


# the pairing check of the complex expansion, replaced on purpose by pole_steps
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


# the complex expansion, replaced on purpose by real quadratic factors
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


# the adjacent-pair Ackermann steps, replaced on purpose by first-slot pairing
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
# File formats: the system file, read by the CLI into float64 arrays


def _read(tmp_path, text):
    path = tmp_path / "sys.txt"
    path.write_text(text)
    return cli._read_system(path)


def test_matrix_text_roundtrip_bit_identical(tmp_path):
    # 1.0.0's text writer puts each entry with repr: it reads back bit for bit
    rng = np.random.default_rng(13)
    M = rng.standard_normal((4, 5))
    A, B = _read(tmp_path, ref.format_matrix_text(M))
    assert np.array_equal(A, M[:, :4]) and np.array_equal(B, M[:, 4])


def test_matrix_json_parse(tmp_path):
    # a JSON array-of-arrays holds the rows of [A | B]
    A, B = _read(tmp_path, "[[1, 2, 3], [4, 5, 6]]")
    assert (A.tolist(), B.tolist()) == ([[1.0, 2.0], [4.0, 5.0]], [3.0, 6.0])
    assert A.dtype == B.dtype == np.float64


def test_system_formats(tmp_path):
    path = tmp_path / "sys.txt"
    ref.save_system(path, A_WORKED, B_WORKED)
    A, B = cli._read_system(path)
    assert np.array_equal(A, A_WORKED) and np.array_equal(B, B_WORKED)
    A2, B2 = _read(tmp_path, '{"A": [[1,3,5],[7,13,17],[1,1,1]], "B": [1,1,1]}')
    assert np.array_equal(A2, A_WORKED) and np.array_equal(B2, B_WORKED)
    # a 1-d JSON array is one row of [A | B]
    A1, B1 = _read(tmp_path, "[5, 2]")
    assert (A1.tolist(), B1.tolist()) == ([[5.0]], [2.0])


def test_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.nan, 1.0], [0.0, 2.0]]))


def test_bad_matrix_body(tmp_path):
    with pytest.raises(ValueError, match="matrix body has 3 entries, expected 6"):
        _read(tmp_path, "2 3\n1 2 3")


# ---------------------------------------------------------------------------
# Numerical-zero thresholds


def test_threshold_table_values():
    # one input per entry, so that an edit of any bound shows up here
    pinned = {
        ("lu_pivot", BITS64, 3, 2.0): 1.3322676295501878e-15,
        ("placement_pivot", BITS32, 10.0): 0.0011920928955078125,
        ("chain_input", BITS64, 2.0, 3, 5.0): 4e-08,
        ("chain_denominator", BITS32): 1.1754943508222875e-35,
        ("normal_square", BITS64): 0.0,
        ("conjugate_match", BITS64, 4.0): 4e-09,
        ("orthonormality", BITS64): 1e-10,
        ("spectrum_pair", BITS64): 1e-09,
        ("complex_eigenvalue", BITS64, 4.0): 5.960464477539063e-08,
    }
    assert {key[0] for key in pinned} == set(linalg.THRESHOLDS)
    for (name, precision, *scale), bound in pinned.items():
        assert linalg.THRESHOLDS[name](precision, *scale) == bound, name


def test_complex_eigenvalue_predicate():
    # |Im l| against sqrt(eps) max(1, max |l|), eps of the spectrum's format
    assert not linalg.has_complex_eigenvalue(np.array([-1 + 1e-8j, -1 - 1e-8j, 1.0]))
    assert linalg.has_complex_eigenvalue(np.array([-1 + 2e-8j, -1 - 2e-8j, 1.0]))
    assert not linalg.has_complex_eigenvalue(np.array([-100 + 1e-6j, -100 - 1e-6j]))
    assert not linalg.has_complex_eigenvalue(np.array([-1 + 1e-4j, -1 - 1e-4j], dtype=np.complex64))
    assert linalg.has_complex_eigenvalue(np.array([-1 + 1e-3j, -1 - 1e-3j], dtype=np.complex64))
    # eigvals returns a real array for a real spectrum
    assert not linalg.has_complex_eigenvalue(np.linalg.eigvals(np.diag([1.0, 2.0])))


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


# ---------------------------------------------------------------------------
# numpy equivalences the kernels rely on
#
# At n <= 12 the kernels call ufuncs and ndarray methods instead of the
# Python wrappers around them, on the grounds that each pair below gives
# the same bytes.  A numpy or BLAS upgrade that breaks one fails here by
# name, before a fingerprint moves.  A 1-d a @ b adds the BLAS dot to
# +0.0, so where a.dot(b) is -0.0 it is +0.0: the kernels write
# a.dot(b) + 0.0 for it.

WRAPPER_FREE_FORMS = {
    "matmul": (lambda a, b: a.dot(b) + 0.0, lambda a, b: a @ b),
    "np.dot": (lambda a, b: a.dot(b), lambda a, b: np.dot(a, b)),
    "max": (lambda a, b: np.maximum.reduce(a, axis=None), lambda a, b: a.max()),
    "any": (lambda a, b: np.logical_or.reduce(a, axis=None), lambda a, b: np.any(a)),
    "all-finite": (lambda a, b: np.logical_and.reduce(np.isfinite(a), axis=None),
                   lambda a, b: np.isfinite(a).all()),
    "sum": (lambda a, b: np.add.reduce(a, axis=None), lambda a, b: np.sum(a)),
    "norm": (lambda a, b: np.sqrt(a.dot(a)), lambda a, b: np.linalg.norm(a)),
}


@st.composite
def _operands(draw, vector_only):
    """Two arrays of one format and shape: 0-d or of length 1..64, with
    NaN, +-0.0, infinities and subnormals among the entries."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    info = np.finfo(dtype)
    special = st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf, float(info.smallest_subnormal),
                               -float(info.smallest_subnormal)])
    entries = st.one_of(st.floats(width=info.bits), special)
    length = st.integers(1, 64).map(lambda n: (n,))
    shape = draw(length if vector_only else st.one_of(st.just(()), length))
    a, b = (draw(hnp.arrays(dtype, shape, elements=entries)) for _ in range(2))
    return a, b


@pytest.mark.parametrize("name", sorted(WRAPPER_FREE_FORMS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_wrapper_free_form_gives_the_wrappers_bytes(name, data):
    a, b = data.draw(_operands(vector_only=name in ("matmul", "np.dot")))
    used, wrapper = WRAPPER_FREE_FORMS[name]
    with np.errstate(all="ignore"):
        got, want = np.asarray(used(a, b)), np.asarray(wrapper(a, b))
    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
