import functools
import gc
import hashlib
import inspect
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poleplace import exactring, placement
from poleplace.bench import gen_integer_example, gen_random_controllable, gen_scaled_diagonal
from poleplace.errors import (
    ComplexBlockUnsupported,
    DegenerateProjection,
    InvalidPoleSet,
    ParallelHyperplanes,
    PlacementError,
    PrecisionOverflow,
    SingularShift,
    SingularSystem,
    UncontrollableSystem,
    ZeroInputComponent,
)
from poleplace.linalg import BITS32, BITS64, eigenvalues, pole_steps, poly_from_roots
from poleplace.placement import (
    ALGORITHMS,
    ChainFeedback,
    ChainReport,
    StateSpace,
    _descend_quotients,
    _horner_steps,
    _hyperplane_normals,
    _hyperplane_points,
    _slide,
    _sys_arrays,
    ackermann_direct,
    ackermann_factored,
    build_anchor_chain,
    chain_controllability_report,
    controllability_matrix,
    controller_hessenberg,
    feedback_eval,
    gain_from_chain,
    place_algebroid1,
    place_algebroid2,
    place_determinantal,
    place_miminis,
    place_sliding,
    place_varga,
)
from poleplace.sim import SimConfig, simulate

import _reference as ref
from _reference import assert_same_bits

WORKED = StateSpace([[1, 3, 5], [7, 13, 17], [1, 1, 1]], [1, 1, 1])
UNCTRL = StateSpace([[6, 4, -9], [5, 2, -6], [0, 0, 1]], [1, 1, 1])
POLES = [-1.0, -2.0, -3.0]
K_REF = np.array([4.0, 7.5, 9.5])


# what householder_reflector raises for a nonzero vector whose squares
# underflow to a zero sum, by the vector's length
UNDERFLOWED_VECTOR = ("reflected vector of length {} is nonzero, "
                      "but its squared norm underflowed to 0")


def spectrum_error(sys, K, targets):
    ev = eigenvalues(sys.A - np.outer(sys.B, np.asarray(K, dtype=np.float64)))
    return float(np.max(np.abs(np.sort_complex(ev)
                               - np.sort_complex(np.array(targets, dtype=complex)))))


def exact_gain(sys, poles):
    cp = [1]
    for r in poles:
        cp = [a - int(r) * b for a, b in zip(cp + [0], [0] + cp)]
    g = exactring.place_exact(sys.A.astype(int).tolist(),
                              sys.B.astype(int).tolist(), cp)
    return np.array([float(f) for f in exactring.ratio(g)])


def assert_guarded(exc, error, message, check):
    """``exc`` is ``error(message)`` as the guard raises it: its ``check``
    fired, with the guarded magnitude at or below the bound."""
    assert (type(exc), str(exc), exc.check) == (error, message, check)
    assert 0.0 <= exc.value <= exc.bound


# ---------------------------------------------------------------------------
# Controllability matrix


def test_ctrb_worked_example_det():
    C = controllability_matrix(WORKED.A, WORKED.B)
    assert abs(np.linalg.det(C) - 352.0) <= 1e-9


def test_ctrb_uncontrollable_det_zero():
    C = controllability_matrix(UNCTRL.A, UNCTRL.B)
    assert abs(np.linalg.det(C)) <= 1e-9


def test_ctrb_rank_one():
    sys = StateSpace(np.eye(3), [1, 0, 0])
    C = controllability_matrix(sys.A, sys.B)
    assert np.array_equal(C, np.column_stack([[1, 0, 0]] * 3))


# ---------------------------------------------------------------------------
# Ackermann


def test_ackermann_worked_example():
    K = ackermann_direct(WORKED, poles=POLES)
    np.testing.assert_allclose(K, K_REF, atol=1e-9)


def test_ackermann_charpoly_route():
    K = ackermann_direct(WORKED, charpoly=[1, 6, 11, 6])
    np.testing.assert_allclose(K, K_REF, atol=1e-9)


@pytest.mark.parametrize("charpoly, message", [
    ([1, np.nan, 11, 6], r"charpoly \[1.0, nan, 11.0, 6.0\] is not finite"),
    ([1, 6, -np.inf, 6], r"charpoly \[1.0, 6.0, -inf, 6.0\] is not finite"),
    ([2, 6, 11, 6], r"charpoly \[2.0, 6.0, 11.0, 6.0\] must be monic of length 4"),
    ([1, 6, 11], r"charpoly \[1.0, 6.0, 11.0\] must be monic of length 4"),
], ids=["nan", "-inf", "not-monic", "short"])
def test_nonfinite_charpoly_is_an_invalid_pole_set(charpoly, message):
    # NaN raises no floating-point error, so the range rule cannot see it
    with pytest.raises(InvalidPoleSet, match=f"^{message}$"):
        ackermann_direct(WORKED, charpoly=charpoly)
    with pytest.raises(InvalidPoleSet, match=f"^{message}$"):
        gain_from_chain(build_anchor_chain(WORKED), charpoly=charpoly)


@pytest.mark.parametrize("precision", [BITS32, BITS64], ids=["32", "64"])
def test_algebroid2_charpoly_route_is_gain_from_chain(precision):
    # a fresh system each time, so that the entry builds its chain itself
    sys = StateSpace(WORKED.A, WORKED.B)
    K = place_algebroid2(sys, precision=precision, charpoly=[1, 6, 11, 6])
    ref = gain_from_chain(build_anchor_chain(WORKED, precision), charpoly=[1, 6, 11, 6])
    assert K.dtype == ref.dtype == precision.dtype
    assert K.tobytes() == ref.tobytes()


def test_coefficient_entries_share_one_signature():
    assert inspect.signature(place_algebroid2) == inspect.signature(ackermann_direct)
    assert list(inspect.signature(place_algebroid2).parameters) == [
        "sys", "poles", "precision", "charpoly"]


def test_ackermann_zero_gain_when_spectrum_already_placed():
    sys = StateSpace(np.diag([-1.0, -2.0]), [1.0, 1.0])
    K = ackermann_direct(sys, poles=[-1.0, -2.0])
    np.testing.assert_allclose(K, 0, atol=1e-12)


def test_ackermann_uncontrollable():
    with pytest.raises(UncontrollableSystem) as info:
        ackermann_direct(UNCTRL, poles=POLES)
    singular = "matrix numerically singular (pivot 0.000e+00, scale 1.000e+00)"
    assert str(info.value) == f"controllability matrix numerically singular: {singular}"
    assert_guarded(info.value.__cause__, SingularSystem, singular, "lu_pivot")


def test_ackermann_matches_oracle_n5():
    sys = gen_integer_example(5)
    poles = [-1.0, -2.0, -3.0, -4.0, -5.0]
    Kex = exact_gain(sys, poles)
    K = ackermann_direct(sys, poles=poles)
    assert np.linalg.norm(K - Kex) / np.linalg.norm(Kex) <= 1e-8


def test_horner_single_root():
    out = _horner_steps(WORKED.A, pole_steps([-2.0]), np.eye(3))
    np.testing.assert_allclose(out, WORKED.A + 2.0 * np.eye(3), atol=0)


def test_horner_cayley_hamilton():
    ev = eigenvalues(WORKED.A)
    out = _horner_steps(WORKED.A, pole_steps(list(ev)), np.eye(3))
    assert np.max(np.abs(out)) <= 1e-9 * np.max(np.abs(WORKED.A)) ** 3


def test_horner_matches_direct_polynomial():
    A = WORKED.A
    direct = A @ A @ A + 6 * A @ A + 11 * A + 6 * np.eye(3)
    np.testing.assert_allclose(_horner_steps(A, pole_steps(POLES), np.eye(3)), direct, atol=1e-9)


def test_horner_complex_pair_is_real():
    out = _horner_steps(WORKED.A, pole_steps([-1 + 1j, -1 - 1j, -2.0]), np.eye(3))
    assert out.dtype == np.float64
    direct = (WORKED.A @ WORKED.A + 2 * WORKED.A + 2 * np.eye(3)) @ (WORKED.A + 2 * np.eye(3))
    np.testing.assert_allclose(out, direct, atol=1e-9)


def test_factored_worked_example():
    K = ackermann_factored(WORKED, POLES)
    np.testing.assert_allclose(K, K_REF, atol=1e-9)


def entry_cases():
    """(system, poles) in both orders: Gaussian systems with real and with
    conjugate-pair poles, the integer family, and the seeded scaled-diagonal
    family, whose real spectra take varga past its Schur-block check."""
    rng = np.random.default_rng(71)
    cases = []
    for n in range(1, 13):
        sys = StateSpace(rng.standard_normal((n, n)), rng.standard_normal(n))
        real = sorted(rng.uniform(-5.0, -0.1, n).tolist())
        pairs = [-0.5 - k for k in range(n % 2)] + [
            complex(-1.0 - k, s * (k + 1.0)) for k in range(n // 2) for s in (1, -1)]
        cases += [(sys, real), (sys, pairs)]
    cases += [(gen_integer_example(n), [-(k + 1.0) for k in range(n)]) for n in range(3, 15)]
    cases += [(gen_scaled_diagonal(n, 341), [-0.01 * (k + 1) for k in range(n)])
              for n in range(1, 13)]
    return [(sys, order) for sys, poles in cases for order in (poles, poles[::-1])]


# 32-bit sliding is left out: its gains became float32 on purpose, 1.0.0's
# were float64
@pytest.mark.parametrize("name, precision", [
    (name, precision) for name in ALGORITHMS for precision in (BITS32, BITS64)
    if (name, precision.bits) != ("sliding", 32)],
    ids=lambda v: str(getattr(v, "bits", v)))
def test_every_entry_bitwise_equal_to_reference(name, precision):
    # every entry gives 1.0.0's gain bits, or its error type and message
    assert_same_bits(lambda sys, poles: ALGORITHMS[name](sys, poles, precision),
                     lambda sys, poles: ref.placement.place(
                         ref.state_space(sys), poles, name, ref.precision(precision)),
                     entry_cases())


def test_sliding_32_bit_outcomes_are_pinned():
    # the pair the comparison above leaves out: a SHA-256 of every outcome
    # (gain bytes, or error type and message) over the same cases
    digest = hashlib.sha256()
    for sys, poles in entry_cases():
        digest.update(repr(ref.outcome(place_sliding, sys, poles, BITS32)).encode())
    assert digest.hexdigest() == "c3155bbd421a4892f92fbede7295e23a274446cc526afdaea7688ad2c53e0206"


def test_factored_complex_pair_places():
    rng = np.random.default_rng(23)
    targets = [-1 + 1j, -1 - 1j, -2.0]
    for _ in range(5):
        A = rng.integers(-4, 5, (3, 3)).astype(float)
        B = rng.integers(1, 4, 3).astype(float)
        sys = StateSpace(A, B)
        if abs(np.linalg.det(controllability_matrix(sys.A, sys.B))) < 1e-3:
            continue
        K = ackermann_factored(sys, targets)
        assert spectrum_error(sys, K, targets) <= 1e-7


def test_factored_scalar_system():
    sys = StateSpace([[2.0]], [4.0])
    K = ackermann_factored(sys, [-1.0])
    np.testing.assert_allclose(K, [(2.0 + 1.0) / 4.0])


def test_ackermann_routes_place_a_split_conjugate_pair():
    # a pair may sit anywhere in the list; it is stepped at its first
    # member's slot, so the gain is the one for the pair's adjacent order
    split, adjacent = [-1 + 1j, -2.0, -1 - 1j], [-1 + 1j, -1 - 1j, -2.0]
    for name in ("ackermann", "ackermann-factored"):
        for precision, bound in ((BITS64, 1e-9), (BITS32, 1e-3)):
            K = ALGORITHMS[name](WORKED, split, precision)
            assert K.tobytes() == ALGORITHMS[name](WORKED, adjacent, precision).tobytes()
            assert spectrum_error(WORKED, K, split) <= bound, (name, precision)
            with pytest.raises(InvalidPoleSet, match="unmatched"):
                ALGORITHMS[name](WORKED, [-1 + 1j, -2.0, -1 + 1j], precision)


# ---------------------------------------------------------------------------
# Hyperplanes


def test_hyperplane_points_worked_example():
    for j, point in enumerate(([2, 3, 5], [7, 14, 17], [1, 1, 2])):
        np.testing.assert_allclose(_hyperplane_points(WORKED.A, WORKED.B, [-1.0], j)[0], point,
                                   atol=1e-13)


def test_hyperplane_point_assigns_pole():
    for j in range(3):
        k = _hyperplane_points(WORKED.A, WORKED.B, [-1.0], j)[0]
        ev = eigenvalues(WORKED.A - np.outer(WORKED.B, k))
        assert np.min(np.abs(ev - (-1.0))) <= 1e-9


def test_hyperplane_point_zero_component():
    sys = StateSpace([[1.0, 0], [0, 2.0]], [1.0, 0.0])
    with pytest.raises(ZeroInputComponent) as info:
        _hyperplane_points(sys.A, sys.B, [-1.0], 1)[0]
    assert_guarded(info.value, ZeroInputComponent,
                   "b[1] = 0.0 is too small for the point formula", "placement_pivot")


def test_hyperplane_normals_worked_example():
    # reference plane equations, rescaled to normal . x = 1:
    #   -4 + 9x - 3y - z = 0,   32 + 16y - 16z = 0,   110 - 11x + 33y - 33z = 0
    refs = {
        -1.0: np.array([9.0, -3.0, -1.0]) / 4.0,
        -2.0: np.array([0.0, 16.0, -16.0]) / -32.0,
        -3.0: np.array([-11.0, 33.0, -33.0]) / -110.0,
    }
    for lam, ref in refs.items():
        normal = _hyperplane_normals(WORKED.A, WORKED.B, [lam], {})[0]
        np.testing.assert_allclose(normal, ref, atol=1e-11)
        # every construction point lies on the plane normal . x = 1
        for j in range(3):
            point = _hyperplane_points(WORKED.A, WORKED.B, [lam], j)[0]
            assert point @ normal == pytest.approx(1.0, abs=1e-10)


def test_hyperplane_normal_singular_shift():
    sys = StateSpace(np.diag([1.0, 2.0]), [1.0, 1.0])
    with pytest.raises(SingularShift, match=r"^A - \(1\.0\) I is numerically singular$") as info:
        _hyperplane_normals(sys.A, sys.B, [1.0], {})[0]  # shifting by an eigenvalue of A
    assert_guarded(info.value.__cause__, SingularSystem,
                   "matrix numerically singular (pivot 0.000e+00, scale 1.000e+00)", "lu_pivot")


def test_hyperplane_normal_residual_property():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal(n)
        lam = -float(rng.uniform(1, 5))
        normal = _hyperplane_normals(A, B, [lam], {})[0]
        res = np.linalg.norm((A - lam * np.eye(n)) @ normal - B)
        assert res <= 1e-11 * max(1.0, np.linalg.norm(B), np.linalg.norm(normal) * np.linalg.norm(A))


# ---------------------------------------------------------------------------
# Determinantal and sliding intersections


def test_determinantal_worked_example():
    K = place_determinantal(WORKED, POLES)
    np.testing.assert_allclose(K, K_REF, atol=1e-9)


def test_determinantal_uncontrollable():
    with pytest.raises(ParallelHyperplanes) as info:
        place_determinantal(UNCTRL, POLES)
    assert str(info.value) == "hyperplane normals are linearly dependent (system uncontrollable)"
    # the pivot is rounding noise of an exactly singular N, so only its form is pinned
    cause = info.value.__cause__
    assert str(cause).startswith("matrix numerically singular (pivot ")
    assert_guarded(cause, SingularSystem, str(cause), "lu_pivot")


def test_determinantal_agrees_with_ackermann_n2():
    sys = StateSpace(np.diag([0.0, 1.0]), [1.0, 1.0])
    K1 = place_determinantal(sys, [-1.0, -2.0])
    K2 = ackermann_direct(sys, poles=[-1.0, -2.0])
    np.testing.assert_allclose(K1, K2, atol=1e-10)


def test_sliding_worked_example():
    K = place_sliding(WORKED, POLES)
    np.testing.assert_allclose(K, K_REF, atol=1e-9)


def test_sliding_step_containment():
    steps = _slide(WORKED.A, WORKED.B, POLES, {})
    assert steps[-1].tobytes() == place_sliding(WORKED, POLES).tobytes()
    for k, gam in enumerate(steps):
        ev = eigenvalues(WORKED.A - np.outer(WORKED.B, gam))
        for lam in POLES[: k + 1]:
            assert np.min(np.abs(ev - lam)) <= 1e-7


def test_sliding_uncontrollable():
    with pytest.raises(DegenerateProjection) as info:
        place_sliding(UNCTRL, POLES)
    assert_guarded(info.value, DegenerateProjection,
                   "projection denominator vanished at stage 2 (planes nearly parallel)",
                   "placement_pivot")


# EIGEN_2 has the eigenvalue 2 and BIG the eigenvalue 2e38; at 32 bits,
# BIG + 1e38 I overflows, STEEP - 3 I is singular and the elimination of
# STEEP - I overflows
EIGEN_2 = StateSpace([[1.0, 1, 0], [0, 2, 1], [0, 0, 3]], [0.0, 0, 1])
BIG = StateSpace([[1e38, 1e38, 0], [0, 2e38, 1e38], [0, 0, 3e38]], [0.0, 0, 1])
STEEP = StateSpace([[2.0, 3e38], [1, -3e38]], [1.0, 1])
SHIFT_2 = ("SingularShift", "A - (2.0) I is numerically singular", "SingularSystem",
           "matrix numerically singular (pivot 0.000e+00, scale 1.000e+00)")
SHIFT_2E38 = ("SingularShift", "A - (2e+38) I is numerically singular", "SingularSystem",
              "matrix numerically singular (pivot 0.000e+00, scale 1.000e+38)")
# {fn} is the placement's name
OVERFLOW = ("PrecisionOverflow", "{fn}: overflow encountered in subtract", "FloatingPointError",
            "overflow encountered in subtract")


@pytest.mark.parametrize("fn", [place_determinantal, place_sliding])
@pytest.mark.parametrize("sys, poles, precision, expected", [
    (EIGEN_2, [-1.0, 2.0, -3.0], BITS32, SHIFT_2),
    (EIGEN_2, [-1.0, 2.0, -3.0], BITS64, SHIFT_2),
    (BIG, [-1.0, 2e38, -1e38], BITS32, OVERFLOW),  # an overflow comes before any pole
    (BIG, [-1.0, -1e38, 2e38], BITS32, OVERFLOW),
    (BIG, [-1.0, -1e38, 2e38], BITS64, SHIFT_2E38),  # no overflow at 64 bits
    (STEEP, [3.0, 1.0], BITS32, OVERFLOW),
    (STEEP, [1.0, 3.0], BITS32, OVERFLOW),  # the elimination overflows, then 1.0 is singular
], ids=["eigenvalue-32", "eigenvalue-64", "eigenvalue-then-overflow-32",
        "overflow-then-eigenvalue-32", "overflow-then-eigenvalue-64",
        "singular-then-overflowing-elimination-32", "steep-1-3-32"])
def test_hyperplane_errors_come_in_pole_order(fn, sys, poles, precision, expected):
    # a range overflow anywhere in the stacked elimination is reported
    # first (the range rule); otherwise the first pole that fails decides,
    # as it did when each pole had its own solve: its class, its message
    # and the message of its cause (under filterwarnings = error, a
    # warning would fail this too)
    with pytest.raises(Exception) as info:
        fn(sys, poles, precision)
    cause = info.value.__cause__
    assert (type(info.value).__name__, str(info.value),
            cause and type(cause).__name__, cause and str(cause)) == \
        tuple(e and e.format(fn=fn.__name__) for e in expected)


def test_hyperplane_normals_and_points_bitwise_equal_to_reference():
    # one elimination of all the shifted matrices gives each pole the bits
    # of its own 1.0.0 solve, and the points those of 1.0.0's formula
    rng = np.random.default_rng(59)
    cases = [(gen_integer_example(n), [-(k + 1.0) for k in range(n)]) for n in range(3, 13)]
    cases += [(StateSpace(rng.standard_normal((n, n)), rng.standard_normal(n)),
               list(rng.uniform(-5.0, 5.0, n))) for n in range(1, 9)]
    cases += [(WORKED, POLES), (UNCTRL, POLES), (EIGEN_2, [-1.0, 2.0, -3.0]),
              (StateSpace(3.0 * np.eye(2), [0.0, 0.0]), [-1.0, -2.0])]
    for precision in (BITS32, BITS64):
        dt, ref_precision = precision.dtype, ref.precision(precision)
        for sys, poles in cases:
            A, B = _sys_arrays(sys, precision)
            ref_sys = ref.state_space(sys)
            j = int(np.argmax(np.abs(B)))
            for order in (poles, poles[::-1]):
                assert ref.outcome(placement._hyperplane_normals, A, B, order, {}) == ref.outcome(
                    lambda: [ref.placement.hyperplane_normal(ref_sys, lam, ref_precision)
                             .normal.astype(dt) for lam in order])
                assert ref.outcome(lambda: list(placement._hyperplane_points(A, B, order, j))) \
                    == ref.outcome(lambda: [ref.placement.hyperplane_point(
                        ref_sys, lam, j, ref_precision) for lam in order])
                if B.any():
                    assert_same_bits(place_determinantal, lambda sys, poles, p: ref.placement
                                     .place_determinantal(ref_sys, poles, ref_precision),
                                     [(sys, order, precision)])


# ---------------------------------------------------------------------------
# First algebroid method


def test_algebroid1_worked_example_both_variants():
    for variant in ("qr", "solve"):
        K = place_algebroid1(WORKED, POLES, variant=variant)
        np.testing.assert_allclose(K, K_REF, atol=1e-9)


@pytest.mark.parametrize("sys, poles", [(StateSpace([[5.0]], [2.0]), [-3.0]), (WORKED, POLES)],
                         ids=["n1", "n3"])
def test_algebroid1_rejects_an_unknown_variant_at_every_n(sys, poles):
    # at n = 1 there is no quotient level, so the name is checked before
    # the descent, not inside it
    with pytest.raises(ValueError, match="^unknown variant 'bogus'$"):
        place_algebroid1(sys, poles, variant="bogus")


def quotient_pairs(A, B, stages):
    """The quotient pair (A_i, B_i) that each descending stage starts from,
    rebuilt from the stages' anchors with _descend_quotients' own products."""
    pairs = [(A, B)]
    for anchor, _ in stages[:-1]:
        Ab, Bb = pairs[-1]
        pairs.append((anchor @ Ab @ anchor.T, anchor @ Bb))
    return pairs


def test_algebroid1_first_level_trace_values():
    stages, _, _ = _descend_quotients(WORKED.A, WORKED.B, POLES, "qr")
    ko1 = stages[0][1]
    np.testing.assert_allclose(ko1, [0.3956, -0.1319, -0.0440], atol=5e-5)
    ev = eigenvalues(WORKED.A - np.outer(WORKED.B, ko1))
    np.testing.assert_allclose(np.sort(ev.real), [-1.0, -0.3087, 16.0889], atol=5e-5)
    assert np.min(np.abs(ev - (-1.0))) <= 1e-9


def test_algebroid1_quotient_values_up_to_basis_sign():
    stages, _, _ = _descend_quotients(WORKED.A, WORKED.B, POLES, "qr")
    Ab, Bb = quotient_pairs(WORKED.A, WORKED.B, stages)[1]
    ref_A = np.array([[17.2209, -1.2808], [15.4917, -1.4406]])
    ref_B = np.array([-1.6429, -0.1614])
    np.testing.assert_allclose(np.abs(Ab), np.abs(ref_A), atol=5e-4)
    np.testing.assert_allclose(np.sort(np.abs(Bb)), np.sort(np.abs(ref_B)), atol=5e-5)
    # basis-independent invariants: trace and determinant of the quotient
    assert np.trace(Ab) == pytest.approx(17.2209 - 1.4406, abs=1e-3)
    assert np.linalg.det(Ab) == pytest.approx(np.linalg.det(ref_A), rel=1e-3)


def test_algebroid1_second_level_places_next_pole():
    stages, _, _ = _descend_quotients(WORKED.A, WORKED.B, POLES, "qr")
    Ab, Bb = quotient_pairs(WORKED.A, WORKED.B, stages)[1]
    ev = eigenvalues(Ab - np.outer(Bb, stages[1][1]))
    assert np.min(np.abs(ev - (-2.0))) <= 1e-9


def test_algebroid1_scalar_case():
    sys = StateSpace([[5.0]], [2.0])
    K = place_algebroid1(sys, [-3.0])
    np.testing.assert_allclose(K, [(5.0 + 3.0) / 2.0])


def test_algebroid1_pull_preserves_eigenvalues():
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 10:
        out = gen_random_controllable(rng, int(rng.integers(3, 6)))
        if out is None:
            continue
        sys, poles = out
        checked += 1
        stages, terminal_a, terminal_b = _descend_quotients(sys.A, sys.B, poles, "qr")
        pairs = quotient_pairs(sys.A, sys.B, stages)
        n = sys.n
        partial = np.array([(terminal_a - poles[n - 1]) / terminal_b])
        for i in range(n - 2, -1, -1):
            anchor, k_o = stages[i]
            partial = k_o + partial @ anchor
            Ab, Bb = pairs[i]
            ev = eigenvalues(Ab - np.outer(Bb, partial))
            for lam in poles[i:]:
                assert np.min(np.abs(ev - lam)) <= 1e-7 * max(1.0, abs(lam))


# ---------------------------------------------------------------------------
# Anchor chain (second algebroid method)


def test_chain_worked_example_level_magnitudes():
    chain = build_anchor_chain(WORKED)
    np.testing.assert_allclose(np.abs(chain.levels[0].quotient_input),
                               [25.6571, 0.6172], atol=5e-5)
    np.testing.assert_allclose(np.abs(chain.levels[1].quotient_input),
                               [7.9186], atol=5e-5)


def test_chain_commutation_identity():
    chain = build_anchor_chain(WORKED)
    A = WORKED.A
    acc = np.eye(3)
    power = np.eye(3)
    for k, lvl in enumerate(chain.levels, start=1):
        acc = lvl.anchor @ acc
        power = power @ A
        lhs = acc @ power
        assert np.max(np.abs(lhs - lvl.transfer)) <= 1e-9 * np.max(np.abs(power))


def test_chain_annihilation_diagram():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        sys = StateSpace(rng.standard_normal((n, n)), rng.standard_normal(n))
        chain = build_anchor_chain(sys)
        acc = np.eye(n)
        power_b = sys.B.copy()
        scale = max(1.0, np.max(np.abs(sys.A))) ** n
        for lvl in chain.levels:
            acc = lvl.anchor @ acc
            # an_k ... an_1 A^(k-1) B = 0
            assert np.max(np.abs(acc @ power_b)) <= 1e-9 * scale
            power_b = sys.A @ power_b
            np.testing.assert_allclose(lvl.quotient_input, lvl.transfer @ sys.B,
                                       atol=1e-9 * scale)


def test_chain_report_worked_example():
    rep = chain_controllability_report(build_anchor_chain(WORKED))
    assert rep.controllable and rep.first_vanishing_level is None
    assert 0.5 <= rep.min_quotient_input_norm <= 30.0


def test_chain_report_uncontrollable():
    rep = chain_controllability_report(build_anchor_chain(UNCTRL))
    assert not rep.controllable
    assert rep.first_vanishing_level is not None
    assert rep.first_vanishing_level <= UNCTRL.n - 1


def test_chain_report_zero_input():
    rep = chain_controllability_report(
        build_anchor_chain(StateSpace(np.eye(3), [0.0, 0.0, 0.0])))
    assert rep.first_vanishing_level == 1


def test_chain_report_64bit_equal_to_reference():
    # at 64 bits the chain's A and B are the system's own arrays, so the
    # report is 1.0.0's, which read them from the system
    for sys in (WORKED, UNCTRL, *(gen_integer_example(n) for n in range(3, 15))):
        chain = build_anchor_chain(sys)
        assert chain.A is sys.A and chain.B is sys.B
        assert_same_bits(
            chain_controllability_report,
            lambda _: ref.placement.chain_controllability_report(ref.anchor_chain(sys, BITS64)),
            [(chain,)])


def test_chain_report_32bit_scalar_norm_in_float64():
    # changed since 1.0.0 on purpose: a 32-bit report judges the chain's own rounded
    # B, not the float64 system's, so |b| reads |fl32(b)|; its norm is taken in
    # float64, where a float32 norm of b = 2e19 would overflow (b^2 > 3.4e38)
    chain = build_anchor_chain(StateSpace([[1.0]], [2e19]), BITS32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = chain_controllability_report(chain)
    assert rep == ChainReport(True, None, float(np.float32(2e19)))


def test_chain_dimension_monotonicity_on_controllable_systems():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 10:
        out = gen_random_controllable(rng, int(rng.integers(2, 7)))
        if out is None:
            continue
        checked += 1
        sys, _ = out
        rep = chain_controllability_report(build_anchor_chain(sys))
        assert rep.controllable


def test_gain_from_chain_worked_example():
    chain = build_anchor_chain(WORKED)
    K = gain_from_chain(chain, poles=POLES)
    np.testing.assert_allclose(K, K_REF, atol=1e-9)
    K2 = gain_from_chain(chain, charpoly=[1, 6, 11, 6])
    np.testing.assert_allclose(K2, K_REF, atol=1e-9)


def test_gain_from_chain_cayley_hamilton():
    chain = build_anchor_chain(WORKED)
    cp = poly_from_roots(eigenvalues(WORKED.A))
    K = gain_from_chain(chain, charpoly=cp)
    assert np.max(np.abs(K)) <= 1e-9 * np.max(np.abs(WORKED.A)) ** 3


def test_gain_from_chain_integer_family_n10():
    sys = gen_integer_example(10)
    poles = [-(k + 1.0) for k in range(10)]
    K = gain_from_chain(build_anchor_chain(sys), poles=poles)
    ev = eigenvalues(sys.A - np.outer(sys.B, K))
    np.testing.assert_allclose(np.sort(ev.real), np.sort(poles), atol=1e-3)
    assert np.max(np.abs(ev.imag)) == 0.0


def test_gain_from_chain_uncontrollable():
    chain = build_anchor_chain(UNCTRL)
    with pytest.raises(UncontrollableSystem) as info:
        gain_from_chain(chain, poles=POLES)
    assert_guarded(info.value, UncontrollableSystem,
                   "final quotient input B_(n-1) = 0.000e+00 is zero", "chain_denominator")


def test_chain_scalar_system():
    sys = StateSpace([[2.0]], [4.0])
    chain = build_anchor_chain(sys)
    np.testing.assert_allclose(gain_from_chain(chain, poles=[-1.0]), [0.75])
    rep = chain_controllability_report(chain)
    assert rep.controllable and rep.min_quotient_input_norm == 4.0


# ---------------------------------------------------------------------------
# Nested feedback evaluation


def test_feedback_eval_zero_state():
    chain = build_anchor_chain(WORKED)
    assert feedback_eval(chain, [0.0, 0.0, 0.0], poles=POLES) == 0.0


def test_feedback_eval_reference_state():
    chain = build_anchor_chain(WORKED)
    u = feedback_eval(chain, [1.0, 1.0, 1.0], poles=POLES)
    assert u == pytest.approx(-21.0, abs=1e-9)


def test_an_integer_beyond_float64_is_a_typed_input_error():
    # numpy and complex() raise OverflowError for such an int; each input
    # check states what is true of it instead
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        StateSpace([[10**400]], [1.0])
    with pytest.raises(ValueError, match="^vector entries must be finite$"):
        feedback_eval(build_anchor_chain(WORKED), [10**400, 1, 1], poles=POLES)
    for name, fn in ALGORITHMS.items():
        with pytest.raises(InvalidPoleSet, match="^pole list has an integer beyond the float64 range$"):
            fn(WORKED, [10**400, -2, -3])
    for fn in (ALGORITHMS["ackermann"], ALGORITHMS["algebroid2"]):
        with pytest.raises(InvalidPoleSet, match="^charpoly has an integer beyond the float64 range$"):
            fn(WORKED, charpoly=[1, 10**400, 11, 6])


def test_feedback_law_rejects_wrong_state_length():
    scalar = StateSpace([[2.0]], [4.0])
    with pytest.raises(ValueError, match="state has 3 entries, system has n = 1"):
        feedback_eval(build_anchor_chain(scalar), [1.0, 5.0, 7.0], poles=[-1.0])
    law = ChainFeedback(build_anchor_chain(WORKED), poles=POLES)
    for x in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
        with pytest.raises(ValueError, match=f"state has {len(x)} entries, system has n = 3"):
            law(x)


@pytest.mark.parametrize("precision, x, message", [
    (BITS64, [1e307] * 3, "ChainFeedback.__call__: overflow encountered in dot"),
    # the state is cast once, checked as simulate checks x0
    (BITS32, [1e39, 1.0, 1.0], "state has entries beyond the 32-bit range"),
], ids=["dot-64", "cast-32"])
def test_chain_law_call_is_under_the_range_rule(precision, x, message):
    # one typed error where the state or the recursion leaves the range,
    # not numpy warnings (errors under filterwarnings = error) and a nan
    chain = build_anchor_chain(WORKED, precision)
    with pytest.raises(PrecisionOverflow) as info:
        feedback_eval(chain, x, poles=POLES)
    assert str(info.value) == message


def test_feedback_eval_consistent_with_gain():
    chain = build_anchor_chain(WORKED)
    K = gain_from_chain(chain, poles=POLES)
    rng = np.random.default_rng(47)
    bound = 1e-9 * np.linalg.norm(K)
    for _ in range(100):
        x = rng.standard_normal(3) * rng.uniform(0.1, 10)
        u = feedback_eval(chain, x, poles=POLES)
        assert abs(u - (-K @ x)) <= bound * np.linalg.norm(x)


# ---------------------------------------------------------------------------
# Bound chain law against poleplace 1.0.0
#
# ChainFeedback binds the poles once; the anchor chain, the gain, every
# control and every simulated step must keep 1.0.0's per-call bits.


# (system, precision, pole or charpoly keywords, horizon, step)
CHAIN_CASES = {
    "worked": (WORKED, BITS64, dict(poles=POLES), 2.0, 0.01),
    "worked-32": (WORKED, BITS32, dict(poles=POLES), 2.0, 0.01),
    "integer-10": (gen_integer_example(10), BITS64,
                   dict(poles=[-(k + 1.0) for k in range(10)]), 0.5, 0.01),
    "diag7-32": (gen_scaled_diagonal(7, 341), BITS32,
                 dict(poles=[-0.01 * (k + 1) for k in range(7)]), 12.5, 0.25),
    "conjugate": (WORKED, BITS64, dict(poles=[-1 + 2j, -1 - 2j, -3.0]), 2.0, 0.01),
    "conjugate-32": (gen_integer_example(6), BITS32,
                     dict(poles=[-1 + 1j, -1 - 1j, -2 + 0.5j, -2 - 0.5j, -3.0, -4.0]),
                     1.0, 0.01),
    "charpoly": (WORKED, BITS64, dict(charpoly=[1, 6, 11, 6]), None, None),
    "charpoly-32": (gen_scaled_diagonal(7, 341), BITS32,
                    dict(charpoly=[1.0, 0.3, 2.7, 1.1, 0.05, 1e-3, 7e-5, 2e-6]), None, None),
    "scalar": (StateSpace([[2.0]], [4.0]), BITS64, dict(poles=[-1.0]), 2.0, 0.01),
    "scalar-32": (StateSpace([[2.0]], [3.0]), BITS32, dict(poles=[-0.7]), 2.0, 0.01),
}


def _levels(chain):
    """The arrays of every level of an anchor chain."""
    return [(lvl.anchor, lvl.transfer, lvl.quotient_input) for lvl in chain.levels]


@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_chain_law_bitwise_equal_to_reference(case):
    sys, precision, spec, T, h = CHAIN_CASES[case]
    chain, ref_chain = build_anchor_chain(sys, precision), ref.anchor_chain(sys, precision)
    assert ref.outcome(_levels, chain) == ref.outcome(_levels, ref_chain)
    law = ChainFeedback(chain, **spec)
    gain = functools.partial(ref.placement.gain_from_chain, ref_chain, **spec)
    assert_same_bits(law.gain, gain, [()])
    assert_same_bits(functools.partial(gain_from_chain, chain, **spec), gain, [()])
    rng = np.random.default_rng(2023)
    states = [(np.zeros(sys.n),)] + [(rng.standard_normal(sys.n) * 10.0 ** rng.uniform(-3, 3),)
                                     for _ in range(20)]
    control = functools.partial(ref.placement.feedback_eval, ref_chain, **spec)
    assert_same_bits(law, control, states)
    assert_same_bits(functools.partial(feedback_eval, chain, **spec), control, states)
    if T is None:
        return  # simulate takes poles only
    x0 = [float(k + 1) for k in range(sys.n)]
    for mode in ("gain", "chain"):
        assert_same_bits(
            lambda: simulate(sys, spec["poles"], SimConfig(T=T, h=h, x0=x0, feedback=mode),
                             precision=precision),
            lambda: ref.sim.simulate(ref.state_space(sys), spec["poles"],
                                     ref.sim.SimConfig(T=T, h=h, x0=x0, feedback=mode),
                                     chain=ref_chain, precision=ref.precision(precision)),
            [()])


@pytest.mark.parametrize("n", range(8, 13))
@pytest.mark.parametrize("precision", [BITS32, BITS64], ids=["32", "64"])
def test_gain_from_chain_integer_family_bitwise(n, precision):
    sys = gen_integer_example(n)
    chain, ref_chain = build_anchor_chain(sys, precision), ref.anchor_chain(sys, precision)
    assert ref.outcome(_levels, chain) == ref.outcome(_levels, ref_chain)
    poles = [-(k + 1.0) for k in range(n)]
    assert_same_bits(lambda order: gain_from_chain(chain, poles=order),
                     lambda order: ref.placement.gain_from_chain(ref_chain, poles=order),
                     [(poles,), (poles[::-1],)])


@pytest.mark.parametrize("precision", [BITS32, BITS64], ids=["32", "64"])
def test_chain_law_and_simulate_sweep_bitwise_equal_to_reference(precision):
    # seeded Gaussian systems, n = 1..12: the law's checked entry and both
    # simulated modes keep 1.0.0's bits, whatever the state's scale
    rng = np.random.default_rng(1414)
    simulated = 0
    for n in range(1, 13):
        sys = StateSpace(rng.standard_normal((n, n)), rng.standard_normal(n))
        poles = [-0.5 - k for k in range(n % 2)] + [
            complex(-1.0 - k, s * (k + 1.0)) for k in range(n // 2) for s in (1, -1)]
        chain, ref_chain = build_anchor_chain(sys, precision), ref.anchor_chain(sys, precision)
        assert ref.outcome(_levels, chain) == ref.outcome(_levels, ref_chain)
        states = [(rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 4),) for _ in range(5)]
        assert_same_bits(ChainFeedback(chain, poles=poles),
                         functools.partial(ref.placement.feedback_eval, ref_chain, poles=poles),
                         states + [(np.zeros(n),), (-np.zeros(n),)])
        x0 = rng.standard_normal(n).tolist()
        for mode in ("gain", "chain"):
            out, = assert_same_bits(
                lambda: simulate(sys, poles, SimConfig(T=1.0, h=0.1, x0=x0, feedback=mode),
                                 precision=precision),
                lambda: ref.sim.simulate(ref.state_space(sys), poles,
                                         ref.sim.SimConfig(T=1.0, h=0.1, x0=x0, feedback=mode),
                                         chain=ref_chain, precision=ref.precision(precision)),
                [()])
            simulated += not isinstance(out, tuple)
    assert simulated == 24  # no case hides behind an equal exception


def test_chain_law_uncontrollable_raises_when_bound():
    for sys in (UNCTRL, StateSpace([[2.0]], [0.0])):
        chain = build_anchor_chain(sys)
        poles = POLES[:sys.n]
        with pytest.raises(ref.errors.UncontrollableSystem):
            ref.placement.feedback_eval(ref.anchor_chain(sys, BITS64), np.ones(sys.n), poles=poles)
        with pytest.raises(UncontrollableSystem):
            ChainFeedback(chain, poles=poles)
        with pytest.raises(UncontrollableSystem):
            feedback_eval(chain, np.ones(sys.n), poles=poles)


# ---------------------------------------------------------------------------
# Miminis-Paige style deflation


def test_miminis_worked_example():
    K = place_miminis(WORKED, POLES)
    np.testing.assert_allclose(K, K_REF, atol=1e-8)


def test_miminis_integer_family_n10():
    sys = gen_integer_example(10)
    poles = [-(k + 1.0) for k in range(10)]
    K = place_miminis(sys, poles)
    ev = eigenvalues(sys.A - np.outer(sys.B, K))
    np.testing.assert_allclose(np.sort(ev.real), np.sort(poles), atol=1e-3)


def test_miminis_scalar():
    K = place_miminis(StateSpace([[3.0]], [2.0]), [-1.0])
    np.testing.assert_allclose(K, [2.0])


def test_miminis_uncontrollable():
    with pytest.raises(UncontrollableSystem) as info:
        place_miminis(UNCTRL, POLES)
    assert_guarded(info.value, UncontrollableSystem,
                   "staircase breakdown: Hessenberg subdiagonal vanished", "placement_pivot")


# ---------------------------------------------------------------------------
# Varga pole shifting


def test_varga_worked_example():
    K = place_varga(WORKED, POLES)
    np.testing.assert_allclose(K, K_REF, atol=1e-8)


def test_varga_symmetric_random():
    rng = np.random.default_rng(53)
    for _ in range(5):
        M = rng.standard_normal((5, 5))
        A = 0.5 * (M + M.T)
        B = rng.uniform(0.5, 2.0, 5)
        sys = StateSpace(A, B)
        offset = float(rng.uniform(0, 2))
        poles = [-(k + 1.0) - offset for k in range(5)]
        K = place_varga(sys, poles)
        assert spectrum_error(sys, K, poles) <= 1e-8


def test_varga_zero_gain_for_own_spectrum():
    rng = np.random.default_rng(59)
    M = rng.standard_normal((4, 4))
    A = 0.5 * (M + M.T)
    sys = StateSpace(A, np.ones(4))
    poles = sorted(eigenvalues(A).real)
    K = place_varga(sys, poles)
    assert np.max(np.abs(K)) <= 1e-8 * max(1.0, np.max(np.abs(A)))


def test_varga_rejects_complex_schur_blocks():
    sys = StateSpace([[0.0, 2.0], [-2.0, 0.0]], [1.0, 1.0])
    with pytest.raises(ComplexBlockUnsupported):
        place_varga(sys, [-1.0, -2.0])


def spy_exchanges(monkeypatch):
    """Make _exchange_adjacent record, for each call, the diagonal entries
    j - 1 and j of its input and their coupling; return that record."""
    calls = []
    exchange = placement._exchange_adjacent

    def spy(As, j):
        calls.append((As[j - 1, j - 1], As[j, j], As[j - 1, j]))
        return exchange(As, j)

    monkeypatch.setattr(placement, "_exchange_adjacent", spy)
    return calls


def test_varga_makes_no_exchanges_after_the_last_pole(monkeypatch):
    # the gain is complete once the last pole is placed, so its n - 1
    # exchanges are not made: n - 1 sweeps of n - 1
    calls = spy_exchanges(monkeypatch)
    for n in range(1, 8):
        calls.clear()
        place_varga(gen_scaled_diagonal(n, 341), [-0.01 * (k + 1) for k in range(n)])
        assert len(calls) == (n - 1) ** 2, n


def test_varga_swaps_equal_diagonal_entries_by_the_permutation_alone(monkeypatch):
    # an exactly uncontrollable pair: the eigenvalue 3 is double with one
    # input, so it stays; placing it among the poles takes the exchange to
    # two equal diagonal entries with zero coupling
    sys = StateSpace(np.diag([-1.0, -3.0, 3.0, 3.0]), [2.0, 1.0, 1.0, 2.0])
    poles = [2.0, -3.0, -3.0, 3.0]
    calls = spy_exchanges(monkeypatch)
    K = place_varga(sys, poles)
    assert any(a == b and coupling == 0.0 for a, b, coupling in calls)
    assert K.tolist() == [0.75, -0.0, 1.5, -0.0]
    assert ref.outcome(place_varga, sys, poles) == ref.outcome(
        ref.placement.place_varga, ref.state_space(sys), poles)
    assert spectrum_error(sys, K, poles) <= 1e-8


# ---------------------------------------------------------------------------
# Guarded failures


# B misses state 2: sliding's slide onto plane 2, the first quotient input
# and varga's transformed input are exactly 0
DIAG_12 = StateSpace(np.diag([1.0, 2.0]), [1.0, 0.0])
HESS_2 = np.array([[0.0, 1.0], [-2.0, -3.0]])


# the guarded checks that no test above provokes: (algorithm, sys, poles),
# the error and message raised, the message of its cause for a re-raised
# SingularSystem, and the check that fired
@pytest.mark.parametrize("algorithm, sys, poles, error, message, cause, check", [
    ("sliding", DIAG_12, [-1.0, -2.0], DegenerateProjection,
     "slide denominator vanished at plane 2 (planes nearly parallel)", None, "placement_pivot"),
    ("algebroid1", DIAG_12, [-1.0, -2.0], UncontrollableSystem,
     "quotient input vanished at level 1", None, "placement_pivot"),
    # the pole 1.0 is an eigenvalue of A
    ("algebroid1-solve", StateSpace(np.diag([1.0, 2.0]), [1.0, 1.0]), [1.0, -1.0], SingularShift,
     "quotient shift by 1.0 is numerically singular",
     "matrix numerically singular (pivot 0.000e+00, scale 1.000e+00)", "lu_pivot"),
    # |b| = 1e-20 is far below the deflation bound, which scales with max|A|
    ("miminis", StateSpace(HESS_2, [0.0, 1e-20]), [-1.0, -2.0], UncontrollableSystem,
     "deflated input vanished at stage 1", None, "placement_pivot"),
    # the shift by -1e20 leaves the last deflated input at about 1e-20
    ("miminis", StateSpace(HESS_2, [0.0, 1.0]), [-1.0, -1e20], UncontrollableSystem,
     "deflated input vanished at the last stage", None, "placement_pivot"),
    ("varga", DIAG_12, [-1.0, -2.0], UncontrollableSystem,
     "transformed input component vanished while placing pole 2", None, "placement_pivot"),
], ids=["sliding-plane", "algebroid1-quotient", "algebroid1-solve-shift", "miminis-stage",
        "miminis-last-stage", "varga"])
def test_guarded_failure_carries_check_value_and_bound(algorithm, sys, poles, error, message,
                                                       cause, check):
    with pytest.raises(error) as info:
        ALGORITHMS[algorithm](sys, poles)
    if cause is None:
        assert_guarded(info.value, error, message, check)
    else:
        assert (type(info.value), str(info.value)) == (error, message)
        assert_guarded(info.value.__cause__, SingularSystem, cause, check)


def test_solve_variant_reports_an_underflowed_quotient_normal():
    # on the integer family at n = 3, a pole of -1e37 (32 bits), -1e200 or
    # a second pole of -2e160 (64 bits) makes a normal whose squared norm
    # underflows to 0, which the level's reflector cannot annihilate; at
    # smaller magnitudes the quotient input vanishes first, and small
    # poles still place (or vanish at level 2, at 32 bits)
    sys = gen_integer_example(3)
    vanished = "quotient input vanished at level {}"
    cases = [((-1e37, -1e37, -3.0), BITS32, UNDERFLOWED_VECTOR.format(3)),
             ((-1e160, -2e160, -3.0), BITS64, UNDERFLOWED_VECTOR.format(2)),
             ((-1e200, -2e200, -3.0), BITS64, UNDERFLOWED_VECTOR.format(3)),
             ((-1e18, -2e18, -3.0), BITS32, vanished.format(1)),
             ((-1e20, -2e20, -3.0), BITS32, vanished.format(1)),
             ((-1e100, -2e100, -3.0), BITS64, vanished.format(1)),
             ((-1e150, -2e150, -3.0), BITS64, vanished.format(1)),
             ((-1e3, -2e3, -3.0), BITS32, vanished.format(2)),
             ((-1e3, -2e3, -3.0), BITS64, None)]
    for poles, precision, message in cases:
        if message is None:
            K = ALGORITHMS["algebroid1-solve"](sys, poles, precision)
            assert spectrum_error(sys, K, poles) < 1e-6
            continue
        with pytest.raises(PlacementError) as info:
            ALGORITHMS["algebroid1-solve"](sys, poles, precision)
        if message.startswith("reflected vector"):
            assert_guarded(info.value, PrecisionOverflow, message, "normal_square")
            assert info.value.value == info.value.bound == 0.0
        else:
            assert_guarded(info.value, UncontrollableSystem, message, "placement_pivot")
    # a normal that underflows to 0 itself is no vector to reflect: the
    # solve gives 1e-330, past the smallest subnormal
    tiny = StateSpace(np.diag([1e300, 1e300]), [1e-30, 1e-30])
    with pytest.raises(PrecisionOverflow,
                       match="^quotient normal underflowed at level 1: its squared norm is 0$"):
        ALGORITHMS["algebroid1-solve"](tiny, [-1.0, -2.0])


def test_solve_variant_fails_where_a_first_pole_is_an_eigenvalue():
    # -1 is an eigenvalue of the integer family's A at n = 5, and the solve
    # variant's first level solves (A + I) n = B: repeated poles are not
    # the cause, the two sets that start at -1 fail and the two that
    # start elsewhere place
    sys = gen_integer_example(5)
    assert np.min(np.abs(eigenvalues(sys.A) + 1.0)) < 1e-12
    for poles in ([-1.0] * 5, [-1.0, -1.0, -2.0, -2.0, -3.0]):
        with pytest.raises(SingularShift, match=r"^quotient shift by -1\.0 is numerically singular$"):
            ALGORITHMS["algebroid1-solve"](sys, poles)
    for poles in ([-2.0, -1.0, -1.0, -2.0, -3.0], [-3.0, -2.0, -2.0, -1.0, -1.0]):
        K = ALGORITHMS["algebroid1-solve"](sys, poles)
        assert spectrum_error(sys, K, poles) < 1e-6


# ---------------------------------------------------------------------------
# Cross-algorithm invariants


def test_every_algorithm_rejects_zero_input():
    # an input of 1e-50 is zero once rounded to 32 bits: not B = 0, but a
    # B the cast lost
    for n in (1, 3):
        for b, precisions, error, message in (
                (0.0, (BITS32, BITS64), UncontrollableSystem, "^B = 0$"),
                (1e-50, (BITS32,), PrecisionOverflow, "^B underflowed to 0 in the 32-bit cast$")):
            sys = StateSpace(WORKED.A[:n, :n], np.full(n, b))
            for name, fn in ALGORITHMS.items():
                for precision in precisions:
                    with pytest.raises(error, match=message):
                        fn(sys, POLES[:n], precision)


def test_every_algorithm_rejects_wrong_pole_count():
    for name in ALGORITHMS:
        for poles in (POLES[:2], POLES + [-4.0]):
            with pytest.raises(InvalidPoleSet, match=f"expected 3 poles, got {len(poles)}"):
                ALGORITHMS[name](WORKED, poles)


def test_every_algorithm_rejects_a_near_real_pole():
    # a pole is real iff its imaginary part is exactly 0, so -1 + 1e-12 i
    # is complex and has no conjugate partner; -1 + 1e-10 i twice is
    # within the conjugate_match bound of its own conjugate, but two
    # poles in the upper half plane are not a pair
    for poles in ([-1 + 1e-12j, -2.0, -3.0], [-1 + 1e-10j, -1 + 1e-10j, -3.0]):
        for name, fn in ALGORITHMS.items():
            for precision in (BITS32, BITS64):
                with pytest.raises(InvalidPoleSet):
                    fn(WORKED, poles, precision)


def test_every_algorithm_gives_one_message_per_bad_set():
    # the conjugation check runs before the real-only test, so the five
    # real-pole methods name the same fault as the other four
    for poles, msg in (([-1 + 2j, -2.0, -3.0], "not closed under conjugation"),
                       ([float("nan"), -2.0, -3.0], "not finite"),
                       ([-1.0, complex(-2.0, float("inf")), -3.0], "not finite")):
        for name, fn in ALGORITHMS.items():
            for precision in (BITS32, BITS64):
                with pytest.raises(InvalidPoleSet, match=msg):
                    fn(WORKED, poles, precision)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_every_algorithm_takes_a_sequence_of_numbers(name):
    # None is "no poles" to the two entries that also take a charpoly; to
    # the others, as a scalar or a string is to all nine, it is no pole list
    fn = ALGORITHMS[name]
    if name in ("ackermann", "algebroid2"):
        with pytest.raises(ValueError, match="^give exactly one of poles or charpoly$"):
            fn(WORKED, None)
    else:
        with pytest.raises(InvalidPoleSet, match="^poles must be a sequence of numbers, got None$"):
            fn(WORKED, None)
    for poles in (-1.0, [-1.0, None, -3.0], "-1,-2,-3"):
        with pytest.raises(InvalidPoleSet,
                           match=re.escape(f"poles must be a sequence of numbers, got {poles!r}")):
            fn(WORKED, poles)


def test_every_entry_returns_a_finite_gain_or_a_placement_error():
    # systems and poles drawn across the float64 exponent range: each entry,
    # at each precision, returns a finite gain of shape (n,) in the format's
    # dtype or raises a PlacementError; any other exception fails, and so
    # does a numpy warning (filterwarnings = error)
    rng = np.random.default_rng(2026)
    returned = set()
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        sys = StateSpace(rng.standard_normal((n, n)) * 10.0 ** int(rng.integers(-300, 300)),
                         rng.standard_normal(n) * 10.0 ** int(rng.integers(-300, 300)))
        poles = (-np.abs(rng.standard_normal(n)) * 10.0 ** int(rng.integers(-5, 5))).tolist()
        for name, fn in ALGORITHMS.items():
            for precision in (BITS32, BITS64):
                try:
                    K = fn(sys, poles, precision)
                except PlacementError:
                    continue
                assert (K.shape, K.dtype, np.isfinite(K).all()) == \
                    ((n,), precision.dtype, True), (name, precision.bits, sys.A, sys.B, poles)
                returned.add(name)
    assert returned == set(ALGORITHMS)


def test_an_underflowed_hyperplane_normal_is_a_precision_overflow():
    # (A + I) n = B has the normal 1e-340, past the smallest subnormal, and
    # the exact gain, about -1e340, is past the float64 range too
    sys = StateSpace([[1e40, 0], [0, 2e40]], [1e-300, 1e-300])
    for fn in (place_determinantal, place_sliding):
        with pytest.raises(PrecisionOverflow,
                           match=r"^hyperplane normal of pole -1\.0 underflowed to 0$"):
            fn(sys, [-1.0, -2.0])
    # a normal whose squared norm underflows, but not the normal, still places
    tiny = StateSpace(np.diag([1.0, 2.0]), [1e-300, 1e-300])
    K = place_determinantal(tiny, [-1.0, -2.0])
    assert spectrum_error(tiny, K, [-1.0, -2.0]) == 0.0
    # B = 0, which no placement passes down, stays the helper's ValueError
    with pytest.raises(ValueError, match="^hyperplane normal must be nonzero$") as info:
        _hyperplane_normals(3.0 * np.eye(2), np.zeros(2), [-1.0], {})
    assert type(info.value) is ValueError


def test_an_underflowed_input_norm_is_no_zero_input():
    # B's squares underflow to a zero sum, so the Hessenberg reduction has
    # no reflector and the anchor chain no anchor that annihilates B; B is
    # not 0, and ackermann places the system
    sys = StateSpace([[1, 2], [3, 4]], [1e-165, 2e-165])
    message = UNDERFLOWED_VECTOR.format(2)
    with pytest.raises(PrecisionOverflow) as info:
        place_miminis(sys, [-1.0, -2.0])
    assert_guarded(info.value, PrecisionOverflow, message, "normal_square")
    with pytest.raises(PrecisionOverflow, match=f"^{message}$"):
        controller_hessenberg(sys.A, sys.B)
    assert spectrum_error(sys, ackermann_direct(sys, [-1.0, -2.0]), [-1.0, -2.0]) <= 1e-12
    # the chain, and algebroid2 and simulate on it, raise at both
    # precisions where they would miss by O(1); n = 1 forms no anchor, so
    # a 1x1 system with that B still places
    cfg = SimConfig(T=0.05, h=0.01, x0=np.ones(2))
    for precision, b in ((BITS64, 1e-165), (BITS32, 1e-25)):
        sys = StateSpace([[1, 2], [3, 4]], [b, 2 * b])
        with pytest.raises(PrecisionOverflow) as info:
            build_anchor_chain(sys, precision)
        assert_guarded(info.value, PrecisionOverflow, message, "normal_square")
        for run in (lambda: place_algebroid2(sys, [-1.0, -2.0], precision),
                    lambda: simulate(sys, [-1.0, -2.0], cfg, precision)):
            with pytest.raises(PrecisionOverflow, match=f"^{message}$"):
                run()
        scalar = StateSpace([[2.0]], [b])
        assert spectrum_error(scalar, place_algebroid2(scalar, [-1.0], precision), [-1.0]) <= 1e-6


def test_every_anchor_level_meets_the_reflector_check():
    # at 32 bits, the diagonal family's chain hands a deeper level a
    # nonzero input whose squares underflow: n = 15..18 returned gains off
    # by 11.9, 3.91, 2.2e4 and 1.8e6, and n = 19, 20 reported a zero final
    # quotient input; the level's reflector now raises, for the entry and
    # for simulate, which runs on the same chain
    for n, length in zip(range(15, 21), (2, 3, 4, 5, 5, 6)):
        sys = gen_scaled_diagonal(n, 341)
        poles = [-0.01 * (k + 1) for k in range(n)]
        cfg = SimConfig(T=0.02, h=0.01, x0=np.ones(n))
        for run in (lambda: place_algebroid2(sys, poles, BITS32),
                    lambda: simulate(sys, poles, cfg, BITS32)):
            with pytest.raises(PrecisionOverflow) as info:
                run()
            assert_guarded(info.value, PrecisionOverflow, UNDERFLOWED_VECTOR.format(length),
                           "normal_square")
    # a draw of the robustness gate (seed 2026) whose 64-bit gain missed by
    # 4.4e14: B's squares do not underflow, a deeper level's input's do
    sys = StateSpace([[1.018585659854947e-13, -5.2548462522551435e-14, -1.0428652310301836e-13],
                      [5.0024898529536135e-14, -1.1430817057891935e-13, 5.19690169030552e-14],
                      [1.1549786302651375e-13, -5.316246411112066e-14, 9.94892904045781e-14]],
                     [-9.680150233160544e-151, 4.2523718044781e-151, 3.185308960549196e-151])
    with pytest.raises(PrecisionOverflow) as info:
        place_algebroid2(sys, [-0.02568685813377568, -0.8057938612404753, -0.4738037972513215])
    assert_guarded(info.value, PrecisionOverflow, UNDERFLOWED_VECTOR.format(2), "normal_square")


def test_a_hessenberg_column_whose_squares_underflow_is_no_zero_column():
    # the first column holds 1e-170 twice from the subdiagonal down: it is
    # not 0, so it is reduced, and its reflector raises; skipped as a zero
    # sum of squares, it read as a vanished subdiagonal
    sys = StateSpace([[0, 0, 0], [1e-170, 0, 0], [1e-170, 1, 0]], [1, 0, 0])
    with pytest.raises(PrecisionOverflow) as info:
        place_miminis(sys, [-1.0, -2.0, -3.0])
    assert_guarded(info.value, PrecisionOverflow, UNDERFLOWED_VECTOR.format(2), "normal_square")


# finite at 64 bits, past the 32-bit range: every check of the target
# comes before the cast, so each entry and simulate name the target's fault
BIG_39 = StateSpace([[1e39, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1])


@pytest.mark.parametrize("poles, message", [
    ([-1.0, -2.0], "expected 3 poles, got 2"),
    ([-1.0, float("nan"), -3.0], "pole (nan+0j) is not finite"),
    ([-1.0, 1j, -3.0], "pole set not closed under conjugation: unmatched 1j"),
], ids=["count", "nan", "unpaired"])
def test_every_entry_checks_its_target_before_the_cast(poles, message):
    match = f"^{re.escape(message)}$"
    for name, fn in ALGORITHMS.items():
        with pytest.raises(InvalidPoleSet, match=match):
            fn(BIG_39, poles, BITS32)
    for mode in ("gain", "chain"):
        with pytest.raises(InvalidPoleSet, match=match):
            simulate(BIG_39, poles, SimConfig(T=0.05, h=0.01, x0=np.ones(3), feedback=mode),
                     BITS32)
    for fn in (ackermann_direct, place_algebroid2):
        with pytest.raises(InvalidPoleSet, match=r"^charpoly \[1\.0, 6\.0\] must be monic"):
            fn(BIG_39, precision=BITS32, charpoly=[1, 6])


def test_a_rejected_target_leaves_the_system_without_kept_work():
    # a fresh system each time: a target that fails its check builds and
    # keeps nothing (no crow, chain, normals, Hessenberg or Schur form)
    cfg = SimConfig(T=0.05, h=0.01, x0=np.ones(3))
    runs = [(name, functools.partial(fn, poles=[-1.0, -2.0])) for name, fn in ALGORITHMS.items()]
    runs += [("ackermann charpoly", functools.partial(ackermann_direct, charpoly=[1, 6])),
             ("algebroid2 charpoly", functools.partial(place_algebroid2, charpoly=[1, 6])),
             ("simulate", functools.partial(simulate, poles=[-1.0, -2.0], cfg=cfg))]
    for name, run in runs:
        for precision in (BITS32, BITS64):
            sys = StateSpace(WORKED.A, WORKED.B)
            with pytest.raises(InvalidPoleSet):
                run(sys, precision=precision)
            assert sys._memo == {}, (name, precision.bits)


def _float32_intermediates(sys, poles):
    """Every exposed intermediate of the methods at 32 bits, skipping the
    ones a typed error stops."""
    chain = build_anchor_chain(sys, BITS32)
    A, B = chain.A, chain.B
    out = [a for level in chain.levels for a in (level.anchor, level.transfer,
                                                 level.quotient_input)]
    out += controller_hessenberg(A, B)
    try:
        law = ChainFeedback(chain, poles)
    except PlacementError:
        pass
    else:
        if law._scalar is not None:
            out.append(law._scalar)
        else:
            out += [law._pp0, law._last_A, law._den]
            out += [a for step in law._steps for a in step]
    for variant in ("qr", "solve"):
        try:
            stages, terminal_a, terminal_b = _descend_quotients(A, B, poles, variant)
        except PlacementError:
            continue
        out += [a for stage in stages for a in stage]
        out += [terminal_a, terminal_b]
    try:
        out += _slide(A, B, poles, {})
    except PlacementError:
        pass
    return out


def test_intermediates_stay_float32_on_the_integer_family():
    for n in range(3, 7):
        poles = [-(k + 1.0) for k in range(n)]
        for order in (poles, poles[::-1]):
            for a in _float32_intermediates(gen_integer_example(n), order):
                assert a.dtype == np.float32, n


@st.composite
def random_controllable(draw, max_n=8):
    """(system, real poles) from gen_random_controllable, n <= max_n; the
    conditioning filter is off, since only formats are checked."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while (out := gen_random_controllable(rng, n, cond_limit=np.inf)) is None:
        pass
    return out


@settings(derandomize=True, max_examples=40, deadline=None)
@given(random_controllable())
def test_intermediates_stay_float32_on_random_systems(case):
    sys, poles = case
    for a in _float32_intermediates(sys, poles):
        assert a.dtype == np.float32


def test_controller_hessenberg_bitwise_equal_to_reference():
    rng = np.random.default_rng(83)
    systems = [WORKED, UNCTRL, StateSpace(np.triu(np.ones((4, 4))), [1.0, 0, 0, 0])]
    systems += [gen_integer_example(n) for n in range(3, 13)]
    systems += [StateSpace(rng.standard_normal((n, n)), rng.standard_normal(n))
                for n in range(1, 9)]
    for precision in (BITS32, BITS64):
        assert_same_bits(lambda sys: controller_hessenberg(*_sys_arrays(sys, precision)),
                         lambda sys: ref.placement.controller_hessenberg(
                             ref.state_space(sys), ref.precision(precision)),
                         [(sys,) for sys in systems])
        for sys in systems:
            V, Ah = controller_hessenberg(*_sys_arrays(sys, precision))
            assert V.dtype == Ah.dtype == precision.dtype
    with pytest.raises(UncontrollableSystem, match="^B = 0$"):
        controller_hessenberg(WORKED.A, [0.0, 0, 0])


def test_every_algorithm_returns_float32_at_32_bits():
    cases = [(WORKED, POLES)]
    for n in range(3, 7):
        poles = [-(k + 1.0) for k in range(n)]
        cases += [(gen_integer_example(n), poles), (gen_integer_example(n), poles[::-1])]
    returned = set()
    for sys, poles in cases:
        for name, fn in ALGORITHMS.items():
            try:
                K = fn(sys, poles, BITS32)
            except PlacementError:
                continue
            assert K.dtype == np.float32, (name, sys.n)
            returned.add(name)
    assert returned == set(ALGORITHMS)
    assert _hyperplane_normals(*_sys_arrays(WORKED, BITS32), [-1.0], {})[0].dtype == np.float32


def test_algorithms_take_sys_poles_precision():
    for name, fn in ALGORITHMS.items():
        for precision in (BITS32, BITS64):
            K = fn(WORKED, POLES, precision)
            np.testing.assert_allclose(K, K_REF, rtol=1e-3, err_msg=name)
    np.testing.assert_array_equal(ALGORITHMS["algebroid1-solve"](WORKED, POLES, BITS32),
                                  place_algebroid1(WORKED, POLES, BITS32, variant="solve"))


def test_every_placement_casts_its_system_once(monkeypatch):
    # the cast happens where a system meets a precision; the helpers below
    # share its arrays (read-only here: none may write into them), and a
    # typed failure after the cast counts as well.  Each call places on a
    # fresh system, since a repeat may find its work kept (algebroid2's
    # chain holds the cast arrays) and then casts at most once
    casts = []
    cast = placement._sys_arrays

    def counting(sys, precision):
        casts.append(precision.bits)
        arrays = cast(sys, precision)
        for M in arrays:
            M.flags.writeable = False
        return arrays

    monkeypatch.setattr(placement, "_sys_arrays", counting)
    fresh_worked = functools.partial(StateSpace, WORKED.A, WORKED.B)
    calls = [(name, fn, make, n) for name, fn in ALGORITHMS.items()
             for make, n in ((fresh_worked, 3), (functools.partial(gen_integer_example, 8), 8),
                             (functools.partial(gen_integer_example, 12), 12))]
    calls.append(("ackermann charpoly",
                  lambda sys, poles, precision: ackermann_direct(
                      sys, charpoly=poly_from_roots(poles), precision=precision),
                  fresh_worked, 3))
    failures = 0
    for name, fn, make, n in calls:
        for precision in (BITS32, BITS64):
            sys = make()
            for repeat in (False, True):
                casts.clear()
                try:
                    fn(sys, [-(k + 1.0) for k in range(n)], precision)
                except PlacementError:
                    failures += 1
                assert casts == [precision.bits] or repeat and casts == [], \
                    (name, n, precision, repeat)
    assert failures > 0


def test_scalar_algebroid1_stays_in_requested_precision():
    rng = np.random.default_rng(71)
    f = np.float32
    for _ in range(200):
        a, b, p = rng.standard_normal(3)
        expected = np.array([(f(a) - f(p)) / f(b)], dtype=f)
        for variant in ("qr", "solve"):
            K = place_algebroid1(StateSpace([[a]], [b]), [p], BITS32, variant=variant)
            assert K.dtype == f and K.tobytes() == expected.tobytes()


def test_placement_soundness_and_oracle_agreement():
    rng = np.random.default_rng(61)
    checked = 0
    while checked < 40:
        out = gen_random_controllable(rng, int(rng.integers(2, 7)))
        if out is None:
            continue
        checked += 1
        sys, poles = out
        Kex = exact_gain(sys, poles)
        scale = max(1.0, np.linalg.norm(Kex))
        for name, fn in ALGORITHMS.items():
            K = fn(sys, poles, BITS64)
            assert np.linalg.norm(K - Kex) / scale <= 1e-6, name
            assert spectrum_error(sys, K, poles) <= 1e-6, name


def test_integer_family_oracle_gap():
    # On the ill-conditioned integer family the robust algorithms stay
    # within 1e-6 of the exact gain up to n = 10.  The sliding method is
    # excluded: its oblique projections intrinsically amplify the
    # near-parallel hyperplane geometry of this family (loss of all
    # digits by n = 10), and the Schur route is inapplicable because the
    # family's open-loop spectrum is complex from n = 4 on.
    applicable = ["ackermann", "ackermann-factored", "determinantal",
                  "algebroid1", "algebroid1-solve", "algebroid2", "miminis"]
    for n in (6, 8, 10):
        sys = gen_integer_example(n)
        poles = [-(k + 1.0) for k in range(n)]
        Kex = exact_gain(sys, poles)
        scale = np.linalg.norm(Kex)
        for name in applicable:
            K = ALGORITHMS[name](sys, poles, BITS64)
            assert np.linalg.norm(K - Kex) / scale <= 1e-6, (name, n)


def test_gain_lies_on_every_hyperplane():
    rng = np.random.default_rng(67)
    checked = 0
    while checked < 15:
        out = gen_random_controllable(rng, int(rng.integers(2, 6)))
        if out is None:
            continue
        checked += 1
        sys, poles = out
        K = ackermann_direct(sys, poles=poles)
        for lam in poles:
            assert abs(K @ _hyperplane_normals(sys.A, sys.B, [lam], {})[0] - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# Work kept on a system


def test_state_space_owns_read_only_copies():
    A, B = np.array(WORKED.A), np.array(WORKED.B)
    sys = StateSpace(A, B)
    for M in (sys.A, sys.B):
        with pytest.raises(ValueError, match="read-only"):
            M[0] = 2.0
    A[0, 0], B[0] = 99.0, 99.0
    assert sys.A[0, 0] == sys.B[0] == 1.0
    assert "_memo" not in repr(sys)


def test_state_space_compares_and_hashes_by_identity():
    # arrays have no truth value: an element-wise == would raise
    sys, twin = StateSpace(WORKED.A, WORKED.B), StateSpace(WORKED.A, WORKED.B)
    assert sys == sys and sys != twin
    assert sys in [twin, sys] and twin not in [sys]
    assert hash(sys) != hash(twin) and {sys: 1}[sys] == 1


def test_sliding_guards_each_denominator_once(monkeypatch):
    # plane k + 1's slide reuses the denominator that projection stage
    # k + 1 guarded; only plane n's is guarded in the slide loop
    calls = []
    guard = placement._guard

    def spy(check, value, *scale, error, message):
        calls.append((check, error, message()))
        return guard(check, value, *scale, error=error, message=message)

    monkeypatch.setattr(placement, "_guard", spy)
    for n in (3, 8, 9):
        calls.clear()
        try:
            place_sliding(gen_integer_example(n), [-(k + 1.0) for k in range(n)])
        except DegenerateProjection as exc:  # the last guard fires
            assert (n, str(exc)) == (9, calls[-1][2])
        assert [(check, error) for check, error, _ in calls] == \
            [("placement_pivot", ZeroInputComponent)] + [("placement_pivot", DegenerateProjection)] * n
        assert [message for _, _, message in calls[1:]] == [
            *(f"projection denominator vanished at stage {k} (planes nearly parallel)"
              for k in range(1, n)),
            f"slide denominator vanished at plane {n} (planes nearly parallel)"]


def _kept_outcome(fn, *args):
    """ref.outcome of ``fn(*args)``, and of an error also its check, value
    and bound, and those of its cause."""
    try:
        return ref._bits(fn(*args))
    except Exception as exc:  # the exception is the outcome compared
        return [(type(e).__name__, str(e), getattr(e, "check", None), getattr(e, "value", None),
                 getattr(e, "bound", None)) for e in (exc, exc.__cause__) if e is not None]


# A holds -0.0 entries, and the normals of the poles 0.0 and -0.0 differ
# in the sign of a zero
SIGNED_ZEROS = StateSpace([[-0.0, -1, 0, 1], [-0.0, -0.0, -1, 0], [0, 1, -0.0, 1], [1, 1, 1, 0]],
                          [0.0, -0.0, 1, 0])


def _kept_cases():
    """(system, pole lists): the integer family, seeded random systems and
    the systems whose placements fail in the hyperplane normals, each
    forward, reversed and with its first pole repeated; SIGNED_ZEROS with
    the poles 0.0 and -0.0."""
    rng = np.random.default_rng(101)
    cases = [(gen_integer_example(n), [-(k + 1.0) for k in range(n)]) for n in range(3, 13)]
    while len(cases) < 18:
        if (out := gen_random_controllable(rng, int(rng.integers(2, 8)))) is not None:
            cases.append(out)
    cases += [(EIGEN_2, [-1.0, 2.0, -3.0]), (BIG, [-1.0, -1e38, 2e38]), (STEEP, [1.0, 3.0]),
              (StateSpace(WORKED.A, [1e200] * 3), POLES)]
    out = [(sys, [poles, poles[::-1], [poles[0], *poles[:-1]]]) for sys, poles in cases]
    tail = [-1.0, -2.0, -3.0]
    out.append((SIGNED_ZEROS, [[0.0, *tail], [-0.0, *tail], [*tail, -0.0], [*tail, 0.0]]))
    return out


def test_kept_work_is_invisible():
    # every placement made on one system, in the suite's order, has the
    # outcome it has on a fresh copy of that system: the same gain bits,
    # or the same error with the same check, value and bound
    sims = 0
    for sys, pole_lists in _kept_cases():
        kept = []
        for poles in pole_lists:
            for name, fn in ALGORITHMS.items():
                for precision in (BITS32, BITS64):
                    kept.append(((name, poles, precision),
                                 _kept_outcome(fn, sys, poles, precision)))
        for (name, poles, precision), outcome in kept:
            fresh = StateSpace(sys.A, sys.B)
            assert _kept_outcome(ALGORITHMS[name], fresh, poles, precision) == outcome, \
                (name, sys.n, poles, precision)
        # simulate's own chain is the one algebroid2 kept
        cfg = SimConfig(T=0.05, h=0.01, x0=np.arange(1.0, sys.n + 1), feedback="chain")
        for precision in (BITS32, BITS64):
            run = functools.partial(simulate, poles=pole_lists[0], cfg=cfg, precision=precision)
            outcome = _kept_outcome(run, sys)
            assert _kept_outcome(run, StateSpace(sys.A, sys.B)) == outcome
            sims += outcome[0][0] == "ndarray"
    assert sims > 0


@pytest.mark.parametrize("precision", [BITS32, BITS64], ids=["32", "64"])
def test_system_is_freed_by_reference_counting(precision):
    # a kept chain holds no reference to its system, so no cycle keeps a
    # system alive until the cyclic collector runs
    poles = [-(k + 1.0) for k in range(8)]
    cfg = {mode: SimConfig(T=0.05, h=0.01, x0=np.arange(1.0, 9.0), feedback=mode)
           for mode in ("gain", "chain")}
    runs = {
        "ackermann": lambda sys: ALGORITHMS["ackermann"](sys, poles, precision),
        "algebroid2": lambda sys: ALGORITHMS["algebroid2"](sys, poles, precision),
        "simulate gain": lambda sys: simulate(sys, poles, cfg["gain"], precision),
        "simulate chain": lambda sys: simulate(sys, poles, cfg["chain"], precision),
    }
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, run in runs.items():
            sys = gen_integer_example(8)
            alive = weakref.ref(sys)
            run(sys)
            del sys
            assert alive() is None, name
    finally:
        if enabled:
            gc.enable()


def test_kept_normals_keep_signed_zero_poles_apart():
    for precision in (BITS32, BITS64):
        A, B = _sys_arrays(SIGNED_ZEROS, precision)
        fresh = [ref._bits(_hyperplane_normals(A, B, [lam], {})) for lam in (0.0, -0.0)]
        assert fresh[0] != fresh[1]
        known = {}
        assert [ref._bits(_hyperplane_normals(A, B, [lam], known)) for lam in (0.0, -0.0)] == fresh
        assert ref._bits(_hyperplane_normals(A, B, [-0.0, 0.0, -0.0], known)) == \
            [fresh[1][0], fresh[0][0], fresh[1][0]]
