import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poleplace import bench
from poleplace.bench import (
    BenchRecord,
    ExampleFamily,
    count_complex_pairs,
    evaluate_placement,
    gen_integer_example,
    gen_scaled_diagonal,
    render_csv,
    render_table,
    run_suite,
)
from poleplace.errors import FactorizationError
from poleplace.linalg import BITS32, BITS64, companion_matrix, eigenvalues
from poleplace.placement import ALGORITHMS, StateSpace, place_algebroid1, place_algebroid2


def fwd_poles(n):
    return [-(k + 1.0) for k in range(n)]


# ---------------------------------------------------------------------------
# Generators


def test_integer_example_n3():
    sys = gen_integer_example(3)
    np.testing.assert_array_equal(sys.A, [[1, 2, 3], [1, 0, 1], [-1, 1, 1]])
    np.testing.assert_array_equal(sys.B, [1, 1, 1])


def test_integer_example_entries_are_integer():
    for n in (3, 7, 12):
        sys = gen_integer_example(n)
        assert np.array_equal(sys.A, np.round(sys.A))
        assert np.array_equal(sys.B, np.ones(n))


def test_integer_example_requires_n3():
    with pytest.raises(ValueError):
        gen_integer_example(2)


def test_example_family_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="^kind must be 'integer' or 'diag'$"):
        ExampleFamily("random", 5)


def test_scaled_diagonal_unrotated():
    sys = gen_scaled_diagonal(3)
    np.testing.assert_allclose(sys.A, np.diag([1.0, 0.25, 1.0 / 9.0]))
    np.testing.assert_array_equal(sys.B, np.ones(3))


def test_scaled_diagonal_similarity_preserves_spectrum():
    for seed in (0, 341):
        sys = gen_scaled_diagonal(6, seed=seed)
        ev = np.sort(eigenvalues(sys.A).real)
        np.testing.assert_allclose(ev, np.sort(1.0 / np.arange(1, 7) ** 2), atol=1e-10)
        # orthogonal similarity preserves the input norm
        assert np.linalg.norm(sys.B) == pytest.approx(np.sqrt(6), abs=1e-12)


def test_scaled_diagonal_deterministic_per_seed():
    a = gen_scaled_diagonal(5, seed=7)
    b = gen_scaled_diagonal(5, seed=7)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)


# ---------------------------------------------------------------------------
# evaluate_placement


def test_evaluate_worked_example_reference_gain():
    sys = ExampleFamily("integer", 3).make()
    sys = type(sys)(np.array([[1.0, 3, 5], [7, 13, 17], [1, 1, 1]]), np.ones(3))
    rec = evaluate_placement(sys, [-1, -2, -3], [4.0, 7.5, 9.5])
    assert rec.max_abs_error <= 1e-9
    assert rec.complex_pair_count == 0


def test_evaluate_detects_corrupted_gain():
    sys = gen_integer_example(4)
    K = place_algebroid2(sys, fwd_poles(4))
    rec = evaluate_placement(sys, fwd_poles(4), np.asarray(K) + 1e3)
    assert rec.max_abs_error > 1.0


def test_evaluate_reports_nan_for_a_nonfinite_closed_loop():
    # the gain is finite, about 2e300, but B K overflows: the record has n
    # NaN eigenvalues, a NaN error and no pair, with no numpy warning
    # (filterwarnings = error)
    sys = StateSpace([[0, 1e-310], [0, 0]], [0, 1e10])
    K = place_algebroid2(sys, [-1.0, -2.0])
    assert np.isfinite(K).all()
    rec = evaluate_placement(sys, [-1.0, -2.0], K)
    assert len(rec.achieved) == 2
    assert all(cmath.isnan(z.real) and cmath.isnan(z.imag) for z in rec.achieved)
    assert np.isnan(rec.max_abs_error) and rec.complex_pair_count == 0
    assert rec.gain == tuple(K.tolist())


# a finite closed loop on which the eigenvalue iteration does not converge
UNCONVERGED = StateSpace(
    [[1.3309487011076512e+299, 8.142003994377372e+298, -1.4481976373557106e+299],
     [9.450851545591335e+297, -1.765628163485951e+299, -1.829211865336894e+299],
     [6.592513054303655e+298, 7.764908350698212e+297, -6.871101922447804e+298]],
    [-2.0874470808711684e+288, -1.2689320356978226e+288, 1.6219609552294485e+287])
UNCONVERGED_POLES = [-689.7000916003353, -1523.3949195362834, -339.25652229700984]


def test_evaluate_reports_nan_for_an_unconverged_eigenvalue_iteration():
    # the entry returns a gain, and its verification is a NaN record, as
    # for a closed loop that is not finite, not a FactorizationError
    K = ALGORITHMS["algebroid1-solve"](UNCONVERGED, UNCONVERGED_POLES)
    closed = UNCONVERGED.A - UNCONVERGED.B[:, None] * K
    assert np.isfinite(closed).all()
    with pytest.raises(FactorizationError, match="^eigenvalue iteration did not converge$"):
        eigenvalues(closed)
    rec = evaluate_placement(UNCONVERGED, UNCONVERGED_POLES, K)
    assert len(rec.achieved) == 3
    assert all(cmath.isnan(z.real) and cmath.isnan(z.imag) for z in rec.achieved)
    assert np.isnan(rec.max_abs_error) and rec.complex_pair_count == 0
    assert rec.gain == tuple(K.tolist())


def test_suite_runs_on_past_an_unconverged_verification(monkeypatch):
    # one cell whose verification does not converge is a NaN row, and the
    # study goes on to the next
    def unconverged(A):
        raise FactorizationError("eigenvalue iteration did not converge")

    monkeypatch.setattr(bench, "eigenvalues", unconverged)
    records = run_suite([ExampleFamily("integer", 3)], ["ackermann", "miminis"], [BITS64],
                        ["forward"])
    assert [(r.algorithm, r.failure) for r in records] == [("ackermann", None), ("miminis", None)]
    assert all(np.isnan(r.max_abs_error) for r in records)


def test_evaluate_forms_the_closed_loop_as_numpy_does():
    # A - B K on Python floats: per entry the product and the difference
    # numpy's broadcast makes, so the spectrum keeps its bits
    for n in range(3, 11):
        sys = gen_integer_example(n)
        for algorithm in ("algebroid1", "algebroid2"):
            K = ALGORITHMS[algorithm](sys, fwd_poles(n))
            rec = evaluate_placement(sys, fwd_poles(n), K)
            assert rec.achieved == tuple(eigenvalues(sys.A - sys.B[:, None] * K).tolist())
    with pytest.raises(ValueError):
        evaluate_placement(sys, fwd_poles(n), K[:-1])


def test_evaluate_n12_bifurcation_band():
    sys = gen_integer_example(12)
    K = place_algebroid1(sys, fwd_poles(12))
    rec = evaluate_placement(sys, fwd_poles(12), K)
    assert 2 <= rec.complex_pair_count <= 4


def _sorted(spectrum):
    """A spectrum as _match_error takes it: Python complexes in (real, imag) order."""
    return sorted(map(complex, spectrum), key=lambda z: (z.real, z.imag))


def test_match_error_is_nan_for_a_nonfinite_eigenvalue():
    targets = [-3.0 + 0j, -2.0 + 0j, -1.0 + 0j]
    finite = [-2.5 - 0.5j, -2.5 + 0.5j, -1.0 + 0j]
    assert bench._match_error(finite, targets) == abs(-2.5 + 0.5j + 3.0)
    for bad in (complex(np.nan, np.nan), complex(np.inf, 0.0), complex(-1.0, np.nan)):
        assert np.isnan(bench._match_error([bad, -3.0 + 0j, -2.0 + 0j], targets))
        assert np.isnan(bench._match_error([-3.0 + 0j, -2.0 + 0j, bad], targets))


def _match_error_on_numpy_scalars(achieved, targets):
    # the matching as it was written on numpy complex scalars: the first
    # index of the least distance, by min over indices
    if not np.isfinite(achieved).all():
        return float("nan")
    remaining = sorted(targets, key=lambda z: (z.real, z.imag))
    worst = 0.0
    for z in sorted(achieved, key=lambda z: (z.real, z.imag)):
        best = min(range(len(remaining)), key=lambda i: abs(z - remaining[i]))
        worst = max(worst, abs(z - remaining.pop(best)))
    return worst


def test_match_error_takes_the_first_of_tied_targets():
    # 0 is 1 away from -1 and from 1 (and from -1j and 1j): it takes the
    # first in (real, imag) order, which leaves the far one to 5 (or 5j)
    for achieved, targets, want in (([0.0, 5.0], [1.0, -1.0], 4.0),
                                    ([0.0, 5.0], [-1.0, 1.0], 4.0),
                                    ([0.0, 5j], [1j, -1j], 4.0)):
        achieved, targets = np.array(achieved, dtype=complex), np.array(targets, dtype=complex)
        got = bench._match_error(_sorted(achieved), _sorted(targets))
        assert got == want == _match_error_on_numpy_scalars(achieved, targets)
    # and on spectra near their targets, bit for bit
    rng = np.random.default_rng(3)
    for n in (1, 4, 12):
        targets = np.array(fwd_poles(n), dtype=complex)
        noise = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-12, 0, size=(2, n))
        achieved = np.sort_complex(targets + noise[0] + 1j * noise[1])
        got = bench._match_error(achieved.tolist(), _sorted(targets))
        assert type(got) is float
        assert got == _match_error_on_numpy_scalars(achieved, targets)


def _in_key_order(spectrum):
    """True when a list of Python complexes is its own stable sort by
    (real, imag): the sort returns the very same objects in the same order."""
    return all(a is b for a, b in zip(spectrum, sorted(spectrum, key=lambda z: (z.real, z.imag))))


@pytest.fixture(scope="module")
def study_records():
    # the conditioning study: integer family, n = 8..12, every entry, both
    # precisions and both pole orders
    return run_suite([ExampleFamily("integer", n) for n in range(8, 13)], list(ALGORITHMS),
                     [BITS32, BITS64], ["forward", "reversed"])


def test_eigenvalues_come_in_match_error_order_on_the_study(study_records):
    # _match_error takes the spectrum as given: eigenvalues' own order must
    # be the (real, imag) sort that it used to redo
    verified = [r for r in study_records if r.failure is None]
    assert len(verified) == 100
    for rec in verified:
        assert all(map(cmath.isfinite, rec.achieved)), rec
        assert _in_key_order(list(rec.achieved)), rec


def _block(a, b):
    return [[a]] if b is None else [[a, b], [-b, a]]


@st.composite
def tied_spectra(draw):
    """Block-diagonal matrices, rows and columns permuted, from a small
    alphabet: real 1x1 blocks and rotation blocks [[a, b], [-b, a]] share
    real parts, repeat eigenvalues and hold -0.0 and 0.0 entries, so the
    spectrum has ties in its real and its imaginary parts."""
    values = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0])
    blocks = draw(st.lists(st.builds(_block, values, st.sampled_from([None, None, 0.5, 2.0])),
                           min_size=1, max_size=6))
    n = sum(len(b) for b in blocks)
    M = np.zeros((n, n))
    at = 0
    for b in blocks:
        M[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    perm = draw(st.permutations(range(n)))
    return M[np.ix_(perm, perm)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(tied_spectra())
def test_eigenvalues_come_in_match_error_order_on_tied_spectra(M):
    spectrum = eigenvalues(M).tolist()
    assert all(map(cmath.isfinite, spectrum))
    assert _in_key_order(spectrum)


def test_eigenvalues_order_on_crafted_ties():
    # a zero matrix and a -0.0 one (all eigenvalues tied at zero), a
    # repeated real eigenvalue beside a pair with the same real part, and
    # two pairs with one real part
    for M in (np.zeros((3, 3)), np.array([[-0.0]]), np.full((2, 2), -0.0),
              np.array([[-1.0, 0, 0], [0, -1.0, 1.0], [0, -1.0, -1.0]]),
              np.array([[0.0, 2.0, 0, 0], [-2.0, 0.0, 0, 0], [0, 0, -0.0, 0.5], [0, 0, -0.5, -0.0]])):
        spectrum = eigenvalues(M).tolist()
        assert _in_key_order(spectrum), spectrum


finite_parts = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]) | st.floats(-4, 4)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.builds(complex, finite_parts, finite_parts), min_size=1, max_size=8),
       st.data())
def test_match_error_on_sorted_lists_is_the_numpy_scalar_matching(achieved, data):
    # on any spectrum given in (real, imag) order, ties and signed zeros
    # included, matching without a re-sort gives the reference's bits
    achieved = _sorted(achieved)
    targets = data.draw(st.lists(st.builds(complex, finite_parts, finite_parts),
                                 min_size=len(achieved), max_size=len(achieved)))
    got = bench._match_error(achieved, _sorted(targets))
    assert type(got) is float
    assert got == _match_error_on_numpy_scalars(np.array(achieved), np.array(targets))


def test_records_hold_plain_python_values(study_records):
    # one conversion per cell: achieved is Python complex and gain Python
    # float, in run_suite's records and evaluate_placement's
    system = gen_integer_example(4)
    charpoly = [1.0, 10.0, 35.0, 50.0, 24.0]
    targets = eigenvalues(companion_matrix(charpoly))  # numpy complex targets, as place --charpoly
    records = [r for r in study_records if r.failure is None] + [
        evaluate_placement(system, fwd_poles(4), place_algebroid2(system, fwd_poles(4))),
        evaluate_placement(system, targets, place_algebroid2(system, charpoly=charpoly)),
    ]
    for rec in records:
        assert {type(z) for z in rec.achieved} == {complex}, rec
        assert {type(g) for g in rec.gain} == {float}, rec
        assert type(rec.max_abs_error) is float and type(rec.complex_pair_count) is int


def test_count_complex_pairs():
    assert count_complex_pairs([1 + 0j, 2 + 0j]) == 0
    assert count_complex_pairs([1 + 2j, 1 - 2j, 3 + 0j]) == 1


# ---------------------------------------------------------------------------
# run_suite


def test_suite_integer_family_structure():
    fams = [ExampleFamily("integer", n) for n in (10, 11, 12)]
    records = run_suite(fams, ["algebroid1", "algebroid2"], [BITS64], ["forward"])
    by_key = {(r.n, r.algorithm): r for r in records}
    assert by_key[(10, "algebroid1")].complex_pair_count == 0
    assert by_key[(10, "algebroid2")].complex_pair_count == 0
    assert by_key[(10, "algebroid1")].max_abs_error <= 1e-3
    assert by_key[(12, "algebroid1")].complex_pair_count >= 2
    assert by_key[(12, "algebroid2")].complex_pair_count >= 2


def test_suite_order_sensitivity_n11():
    fams = [ExampleFamily("integer", 11)]
    records = run_suite(fams, ["algebroid1", "algebroid2"], [BITS64],
                        ["forward", "reversed"])
    by_key = {(r.algorithm, r.pole_order): r for r in records}
    assert by_key[("algebroid1", "forward")].complex_pair_count == 0
    assert by_key[("algebroid1", "reversed")].complex_pair_count >= 1
    # the chain method consumes only the polynomial: records identical bitwise
    f = by_key[("algebroid2", "forward")]
    r = by_key[("algebroid2", "reversed")]
    assert f.gain == r.gain
    assert f.achieved == r.achieved
    # any other order label is refused, not run reversed under that label
    with pytest.raises(ValueError, match="pole orders must be 'forward' or 'reversed'"):
        run_suite(fams, ["algebroid2"], [BITS64], ["forward", "reverse"])


def test_suite_determinism():
    fams = [ExampleFamily("integer", 8), ExampleFamily("diag", 4, seed=341)]
    a = run_suite(fams, ["algebroid2", "miminis"], [BITS64], ["forward"])
    b = run_suite(fams, ["algebroid2", "miminis"], [BITS64], ["forward"])
    assert a == b


def test_suite_records_failures_per_row():
    # the integer family has complex eigenvalues at n = 10, so the Schur
    # pole-shifting route must fail gracefully inside the suite
    records = run_suite([ExampleFamily("integer", 10)],
                        ["varga", "algebroid2"], [BITS64], ["forward"])
    by_alg = {r.algorithm: r for r in records}
    assert by_alg["varga"].failure is not None
    assert "ComplexBlockUnsupported" in by_alg["varga"].failure
    assert by_alg["algebroid2"].failure is None


@pytest.mark.parametrize("families, algorithms, precisions, message", [
    ([ExampleFamily("integer", 5)], ["ackermann", "nosuch"], [BITS64], "unknown algorithm 'nosuch'"),
    ([ExampleFamily("integer", 5)], ["ackermann"], [64, 16], "precision must be 32 or 64 bits"),
    ([ExampleFamily("integer", 5), ExampleFamily("integer", 2)], ["ackermann"], [BITS64],
     "integer example needs n >= 3"),
], ids=["algorithm", "precision", "family-size"])
def test_suite_checks_its_arguments_before_the_first_placement(monkeypatch, families, algorithms,
                                                               precisions, message):
    placed = []
    monkeypatch.setitem(bench.ALGORITHMS, "ackermann", lambda *args: placed.append(args))
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_suite(families, algorithms, precisions)
    assert placed == []


def test_32bit_degradation_at_n8():
    fams = [ExampleFamily("integer", 8)]
    recs32 = run_suite(fams, ["algebroid1", "algebroid2"], [BITS32], ["forward"])
    recs64 = run_suite(fams, ["algebroid1", "algebroid2"], [BITS64], ["forward"])
    assert max(r.complex_pair_count for r in recs32) >= 1
    assert all(r.complex_pair_count == 0 for r in recs64)


# ---------------------------------------------------------------------------
# Rendering


def test_render_table_and_csv_agree():
    records = run_suite([ExampleFamily("integer", 6)],
                        ["ackermann", "algebroid2"], [BITS64], ["forward"])
    table = render_table(records)
    csv = render_csv(records)
    assert "ackermann" in table and "algebroid2" in table
    lines = csv.strip().splitlines()
    assert len(lines) == 1 + len(records)
    for rec, line in zip(records, lines[1:]):
        fields = line.split(",")
        assert fields[1] == str(rec.n)
        assert float(fields[5]) == rec.max_abs_error
        assert int(fields[6]) == rec.complex_pair_count
        achieved = [complex(z) for z in fields[9].split(";")]
        assert achieved == list(rec.achieved)


def test_bench_record_is_plain_data():
    rec = BenchRecord("a", "integer", 3, 64, "forward", (), 0.0, 0, ())
    assert rec.failure is None


def test_reference_spectra_fixture_shape():
    from poleplace.bench import REFERENCE_COMMERCIAL_SPECTRA

    for n, spectrum in REFERENCE_COMMERCIAL_SPECTRA.items():
        assert len(spectrum) == n
    # the reference tool bifurcated twice at n = 11 and four times at n = 12
    assert count_complex_pairs([complex(z) for z in REFERENCE_COMMERCIAL_SPECTRA[11]]) == 2
    assert count_complex_pairs([complex(z) for z in REFERENCE_COMMERCIAL_SPECTRA[12]]) == 4
