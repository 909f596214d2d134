import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poleplace import exactring
from poleplace.errors import UncontrollableSystem
from poleplace.exactring import (
    ExactGain,
    controllability_det_exact,
    nullspace_row,
    place_exact,
    ratio,
)

import _reference as ref
from _reference import assert_same_bits

A_WORKED = [[1, 3, 5], [7, 13, 17], [1, 1, 1]]
B_WORKED = [1, 1, 1]


def int_poly(roots):
    """Expand prod (x - r) over the integers, degree-descending."""
    p = [1]
    for r in roots:
        p = [a - r * b for a, b in zip(p + [0], [0] + p)]
    return p


def gen_integer_family(n):
    A = [[0] * n for _ in range(n)]
    A[0] = list(range(1, n + 1))
    for i in range(1, n):
        A[i][i - 1] = 1
        A[i][n - 1] = 1
    for i in range(2, n):
        A[i][0] = -1
    return A, [1] * n


# ---------------------------------------------------------------------------
# Integer annihilator


def test_nullspace_row_annihilates_exactly():
    for v in ([1, 1, 1], [3, -7, 2, 9], [6, 4], [12, 8, 20, -16]):
        M = nullspace_row(v)
        assert len(M) == len(v) - 1
        for row in M:
            assert sum(r * x for r, x in zip(row, v)) == 0
        assert np.linalg.matrix_rank(np.array(M, dtype=float)) == len(v) - 1


def test_nullspace_row_zero_entry_branch():
    M = nullspace_row([0, 5, 0])
    assert M[0] == [1, 0, 0]  # unit row for the zero leading entry
    for row in M:
        assert sum(r * x for r, x in zip(row, [0, 5, 0])) == 0


def test_nullspace_row_pairwise_gcd_reduction():
    # gcd(6, 4) = 2; the pair row couples positions with B[k]/g and -B[j]/g
    assert nullspace_row([6, 4]) == [[2, -3]]


def test_nullspace_row_rejects_zero_vector():
    # an argument error, not a failed placement
    with pytest.raises(ValueError, match="^annihilator of the zero vector is ill-defined$"):
        nullspace_row([0, 0, 0])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.integers(-12, 12), st.integers(-2**70, 2**70)),
                max_size=12))
def test_nullspace_row_equals_reference(v):
    assert_same_bits(nullspace_row, ref.KERNELS["nullspace_row"], [(v,)])


def test_nullspace_row_reduction_on_intermediate_inputs():
    # inputs that arise while sweeping the worked 3x3 example
    A, B = A_WORKED, B_WORKED
    anb = nullspace_row(B)
    AB = [sum(a * b for a, b in zip(row, B)) for row in A]
    B1 = [row[0] for row in exactring.mat_mul(anb, [[x] for x in AB])]
    M2 = nullspace_row(B1)
    for row in M2:
        assert sum(r * x for r, x in zip(row, B1)) == 0
    g = math.gcd(abs(B1[1]), abs(B1[0]))
    assert M2[0] == [B1[1] // g, -B1[0] // g]


# ---------------------------------------------------------------------------
# Exact placement


def test_place_exact_worked_example():
    gain = place_exact(A_WORKED, B_WORKED, [1, 6, 11, 6])
    assert ratio(gain) == [Fraction(4), Fraction(15, 2), Fraction(19, 2)]


def test_place_exact_all_intermediates_integer():
    gain = place_exact(A_WORKED, B_WORKED, [1, 6, 11, 6])
    assert isinstance(gain.denominator, int)
    assert all(isinstance(x, int) for x in gain.numerator)


def test_place_exact_scalar_system():
    gain = place_exact([[2]], [1], [1, 1])  # pole at -1
    assert ratio(gain) == [Fraction(3)]


def test_place_exact_rejects_a_charpoly_that_is_not_monic_of_length_n_plus_1():
    for charpoly in ([2, 6, 11, 6], [1, 6, 11], [1, 6, 11, 6, 0]):
        with pytest.raises(ValueError, match="^charpoly must be monic of length n\\+1, degree-descending$"):
            place_exact(A_WORKED, B_WORKED, charpoly)


def test_place_exact_uncontrollable():
    with pytest.raises(UncontrollableSystem):
        place_exact([[6, 4, -9], [5, 2, -6], [0, 0, 1]], [1, 1, 1], [1, 6, 11, 6])


GOLDEN = {
    8: [
        Fraction(519515210277, 36638795621),
        Fraction(2078221618718, 36638795621),
        Fraction(9399790968804, 36638795621),
        Fraction(23883421055437, 36638795621),
        Fraction(27614625334253, 36638795621),
        Fraction(-3862903459832, 36638795621),
        Fraction(-36774234975734, 36638795621),
        Fraction(-21466161518325, 36638795621),
    ],
    11: [
        Fraction(7817883664811469804057, 297365203664055278341),
        Fraction(66347135266209260491107, 297365203664055278341),
        Fraction(715307440643594285832987, 297365203664055278341),
        Fraction(5108463570029711309325053, 297365203664055278341),
        Fraction(24279372098464306568093845, 297365203664055278341),
        Fraction(74798168434160582892384569, 297365203664055278341),
        Fraction(136845070738935394124936213, 297365203664055278341),
        Fraction(106617412978197400238773250, 297365203664055278341),
        Fraction(-69104192347823610988017594, 297365203664055278341),
        Fraction(-186582984738415277335631860, 297365203664055278341),
        Fraction(-92730562359273966067064439, 297365203664055278341),
    ],
    12: [
        Fraction(3140867001984180016036461, 100701343380251789934337),
        Fraction(32463700215024014546326491, 100701343380251789934337),
        Fraction(433968633546560213091669147, 100701343380251789934337),
        Fraction(3931398036873040592316764237, 100701343380251789934337),
        Fraction(24528600373899823370244217765, 100701343380251789934337),
        Fraction(104772649587412878088636414193, 100701343380251789934337),
        Fraction(295598922877646668386365328773, 100701343380251789934337),
        Fraction(499124346841391853303086344214, 100701343380251789934337),
        Fraction(344789964075341274989916614646, 100701343380251789934337),
        Fraction(-290515578148790898307469121652, 100701343380251789934337),
        Fraction(-665350044862049195830462375466, 100701343380251789934337),
        Fraction(-317341775875018592857093471849, 100701343380251789934337),
    ],
}


@pytest.mark.parametrize("n", [8, 11, 12])
def test_place_exact_golden_integer_family(n):
    A, B = gen_integer_family(n)
    gain = place_exact(A, B, int_poly([-(k + 1) for k in range(n)]))
    assert ratio(gain) == GOLDEN[n]


def test_exact_gain_magnitude_bounded():
    # GCD reduction keeps the n = 12 numerators near the printed sizes
    A, B = gen_integer_family(12)
    gain = place_exact(A, B, int_poly([-(k + 1) for k in range(12)]))
    assert max(abs(f.numerator) for f in ratio(gain)) < 10**33


def test_oracle_places_poles_in_float():
    for n in range(3, 9):
        A, B = gen_integer_family(n)
        gain = place_exact(A, B, int_poly([-(k + 1) for k in range(n)]))
        K = np.array([float(f) for f in ratio(gain)])
        Af = np.array(A, dtype=float)
        Bf = np.array(B, dtype=float)
        ev = np.sort(np.linalg.eigvals(Af - np.outer(Bf, K)).real)
        np.testing.assert_allclose(ev, [-(k + 1) for k in range(n)][::-1], atol=1e-6)


# ---------------------------------------------------------------------------
# Sparse row-combination product against poleplace 1.0.0's dense triple loop


BIG = 3**200 + 17  # 317 bits

MAT_MUL_CASES = [
    ([[1, 2, 3], [4, 5, 6]], [[1, 0, 2, -1], [0, 3, 0, 0], [7, 0, 0, 5]]),  # 2x3 . 3x4
    ([[-1, 0, 4, -9]], [[2], [0], [-3], [5]]),  # 1x4 . 4x1
    ([[2], [0], [-7]], [[3, -1, 0]]),  # 3x1 . 1x3
    ([], []),  # empty
    ([], [[1, 2], [3, 4]]),  # no rows in X
    ([[], []], []),  # X 2x0, Y 0x0
    ([[1, 2], [3, 4]], [[], []]),  # Y with zero columns
    ([[0, 0, 0], [1, -2, 0]], [[5, 6], [0, 0], [7, 8]]),  # zero rows in X and Y
    ([[0, 0], [0, 0]], [[0, 0], [0, 0]]),  # all zero
    ([[-3, -5], [-7, 0]], [[-2, 0], [0, -11]]),  # negative
    ([[BIG, -BIG, 1], [0, BIG**2, -1]], [[BIG, 0], [1, -BIG], [-BIG**3, 2]]),  # big ints
    (
        [[Fraction(1, 3), Fraction(0), Fraction(-5, 7)], [Fraction(2), Fraction(1, 2), 0]],
        [[Fraction(3, 4), 0], [Fraction(-1, 6), Fraction(9, 5)], [Fraction(0), 1]],
    ),
]


@pytest.mark.parametrize("X,Y", MAT_MUL_CASES)
def test_mat_mul_equals_dense_product(X, Y):
    got = exactring.mat_mul(X, Y)
    want = ref.KERNELS["mat_mul"](X, Y)
    assert got == want
    assert [len(row) for row in got] == [len(row) for row in want]
    for grow, wrow in zip(got, want):
        for g, w in zip(grow, wrow):
            assert type(g) is type(w) or g == w == 0


def test_mat_mul_random_integer_matrices():
    rng = random.Random(5)
    for _ in range(300):
        m, k, p = rng.randint(0, 6), rng.randint(1, 6), rng.randint(1, 6)
        bits = rng.choice([3, 64, 400])

        def entry():
            return rng.choice([0, 0, rng.randint(-(2**bits), 2**bits)])

        X = [[entry() for _ in range(k)] for _ in range(m)]
        Y = [[entry() for _ in range(p)] for _ in range(k)]
        assert exactring.mat_mul(X, Y) == ref.KERNELS["mat_mul"](X, Y)


@pytest.mark.parametrize("n", range(1, 31))
def test_place_exact_equals_dense_reference_integer_family(n):
    A, B = gen_integer_family(n)
    cp = int_poly([-(k + 1) for k in range(n)])
    assert_same_bits(place_exact, ref.KERNELS["place_exact"], [(A, B, cp)])


def test_place_exact_equals_dense_reference_random_systems():
    rng = random.Random(2024)
    cases = []
    for _ in range(240):
        n = rng.randint(1, 10)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        B = [rng.choice([0, rng.randint(-9, 9)]) for _ in range(n)]
        cp = [1] + [rng.randint(-50, 50) for _ in range(n)]
        cases.append((A, B, cp))
    outcomes = assert_same_bits(place_exact, ref.KERNELS["place_exact"], cases)
    kinds = {out[0] if isinstance(out[0], str) else "gain" for out in outcomes}
    assert kinds == {"gain", "UncontrollableSystem"}  # both branches were compared


def test_place_exact_equals_dense_reference_dense_systems():
    rng = random.Random(1116)
    cases = []
    for n in range(11, 21):
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        B = [rng.randint(1, 9) for _ in range(n)]
        cases.append((A, B, int_poly([-(k + 1) for k in range(n)])))
    outcomes = assert_same_bits(place_exact, ref.KERNELS["place_exact"], cases)
    assert all(isinstance(out, list) for out in outcomes)  # gains, no error


def _vanishing_at_level(rng, n, k):
    """(A, B) whose Krylov space [B, AB, ...] has dimension k - 1 < n, so
    the quotient input first vanishes at level k (at k = n, the
    denominator): B = e_1 feeds a shift block on the first k - 1 states
    that no other state reaches, and integer shears T = I + c e_i e_j^T
    then mix all states."""
    m = k - 1
    A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(m - 1):
            A[i][j] = int(i == j + 1)
        if i >= m > 0:
            A[i][m - 1] = 0
    B = [int(i == 0 < m) for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        A[i] = [x + c * y for x, y in zip(A[i], A[j])]  # T A
        B[i] += c * B[j]
        for row in A:  # (T A) T^-1
            row[j] -= c * row[i]
    return A, B


def test_place_exact_vanishing_level_equals_dense_reference():
    rng = random.Random(1117)
    cases, messages = [], []
    for n in range(2, 9):
        for k in range(1, n + 1):
            A, B = _vanishing_at_level(rng, n, k)
            cases.append((A, B, [1] + [rng.randint(-20, 20) for _ in range(n)]))
            messages.append(f"quotient input vanished exactly at level {k}" if k < n
                            else "exact denominator Ab.B is zero")
    outcomes = assert_same_bits(place_exact, ref.KERNELS["place_exact"], cases)
    assert outcomes == [("UncontrollableSystem", m) for m in messages]


@st.composite
def zero_run_systems(draw):
    """An integer (A, B, charpoly) with n = 1..10 and a sparse A.  B is a
    leading zero run, a middle part with inner zeros, then a trailing
    zero run, so every branch of the annihilator rule runs: a zero entry,
    a pair with the next nonzero entry, and a nonzero entry with none
    after it."""
    n = draw(st.integers(1, 10))
    sparse = st.one_of(st.just(0), st.integers(-9, 9))
    A = draw(st.lists(st.lists(sparse, min_size=n, max_size=n), min_size=n, max_size=n))
    lead = draw(st.integers(0, n - 1))
    trail = draw(st.integers(0, n - 1 - lead))
    middle = draw(st.lists(sparse, min_size=n - lead - trail, max_size=n - lead - trail))
    cp = [1] + draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    return A, [0] * lead + middle + [0] * trail, cp


@settings(derandomize=True, max_examples=200, deadline=None)
@given(zero_run_systems())
def test_place_exact_equals_reference_on_zero_runs(case):
    assert_same_bits(place_exact, ref.KERNELS["place_exact"], [case])


@pytest.mark.parametrize(
    "A,B,cp",
    [
        ([[6, 4, -9], [5, 2, -6], [0, 0, 1]], [1, 1, 1], [1, 6, 11, 6]),
        ([[1, 0], [0, 1]], [1, 1], [1, 3, 2]),
        (A_WORKED, [0, 0, 0], [1, 6, 11, 6]),
        ([[2]], [0], [1, 1]),
    ],
)
def test_place_exact_errors_equal_dense_reference(A, B, cp):
    [got] = assert_same_bits(place_exact, ref.KERNELS["place_exact"], [(A, B, cp)])
    assert got[0] == "UncontrollableSystem"


# ---------------------------------------------------------------------------
# ratio


def test_ratio_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        ratio(ExactGain(0, (1, 2)))


def test_ratio_normalizes_sign():
    # Fractions always carry a positive denominator
    g = ExactGain(-2, (4, -6))
    assert ratio(g) == [Fraction(-2), Fraction(3)]


# ---------------------------------------------------------------------------
# exact determinant helpers


def test_exact_determinant():
    assert exactring.exact_determinant([[2, 3, 5], [7, 14, 17], [1, 1, 2]]) == -4
    assert exactring.exact_determinant([[1, 1], [1, 1]]) == 0


def test_controllability_det_exact():
    assert controllability_det_exact(A_WORKED, B_WORKED) == 352
    assert controllability_det_exact([[6, 4, -9], [5, 2, -6], [0, 0, 1]], [1, 1, 1]) == 0
    for n in range(3, 13):
        A, B = gen_integer_family(n)
        assert controllability_det_exact(A, B) != 0


# ---------------------------------------------------------------------------
# integer input


NON_INTEGERS = [2.5, Fraction(5, 2), float("nan"), np.float64(-0.5), float("inf")]


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=["float", "fraction", "nan", "numpy", "inf"])
@pytest.mark.parametrize("call, what", [
    (lambda x: place_exact([[x, 0], [0, 1]], [1, 2], [1, 3, 2]), "A"),
    (lambda x: place_exact([[1, 0], [0, 2]], [1, x], [1, 3, 2]), "B"),
    (lambda x: place_exact([[1, 0], [0, 2]], [1, 1], [1, x, 2]), "charpoly"),
    (lambda x: controllability_det_exact([[x, 0], [0, 1]], [1, 2]), "A"),
    (lambda x: controllability_det_exact([[1, 0], [0, 2]], [1, x]), "B"),
    (lambda x: exactring.exact_determinant([[1, 0], [x, 1]]), "M"),
    (lambda x: nullspace_row([1, x, 3]), "v"),
    (lambda x: ExactGain(x, (1, 3)), "denominator"),
    (lambda x: ExactGain(2, (1, x)), "numerator"),
], ids=["place-A", "place-B", "place-charpoly", "det-A", "det-B", "determinant", "nullspace",
        "gain-denominator", "gain-numerator"])
def test_exact_oracle_rejects_a_non_integer_entry(call, what, bad):
    # int() alone would truncate 2.5 to 2: the conversion is checked
    with pytest.raises(ValueError, match=f"^{what} has a non-integer entry {re.escape(str(bad))}$"):
        call(bad)


def test_exact_oracle_no_longer_truncates():
    # truncated, A = [[2]] would give K = 3 and a closed loop at -0.5;
    # [[1.7, 0], [0, 1]] with B = [1, 1.2] would read as uncontrollable
    with pytest.raises(ValueError, match="^A has a non-integer entry 2.5$"):
        place_exact([[2.5]], [1], [1, 1])
    with pytest.raises(ValueError, match="^A has a non-integer entry 1.7$"):
        controllability_det_exact([[1.7, 0], [0, 1]], [1, 1.2])
    # truncated, ExactGain(2.5, (1, 3.7)) would read 2 and (1, 3)
    with pytest.raises(ValueError, match="^denominator has a non-integer entry 2.5$"):
        ExactGain(2.5, (1, 3.7))


def test_exact_oracle_takes_integer_valued_input_of_any_type():
    # integer floats, numpy integers and floats, and ints past int64 are
    # integers: the same gain as from plain ints
    expected = place_exact(A_WORKED, B_WORKED, [1, 6, 11, 6])
    for A, B in ((np.array(A_WORKED, dtype=float), np.array(B_WORKED, dtype=float)),
                 (np.array(A_WORKED), np.array(B_WORKED)),
                 ([[float(x) for x in row] for row in A_WORKED], [1.0, 1.0, 1.0])):
        assert place_exact(A, B, [1.0, 6.0, 11.0, 6.0]) == expected
        assert controllability_det_exact(A, B) == 352
    assert place_exact([[0, 1], [1e20, 0]], [0, 1], [1, 3, 2]).numerator == (10**20 + 2, 3)
    gain = ExactGain(np.int64(-2), (4.0, np.int32(-6), 2**70))
    assert gain == ExactGain(-2, (4, -6, 2**70))
    assert all(type(x) is int for x in (gain.denominator, *gain.numerator))
