import numpy as np
import pytest

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
from poleplace.linalg import BITS32, BITS64, eigenvalues
from poleplace.placement import place_algebroid1, place_algebroid2


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


def test_evaluate_n12_bifurcation_band():
    sys = gen_integer_example(12)
    K = place_algebroid1(sys, fwd_poles(12))
    rec = evaluate_placement(sys, fwd_poles(12), K)
    assert 2 <= rec.complex_pair_count <= 4


def test_match_error_is_nan_for_a_nonfinite_eigenvalue():
    targets = np.array([-1.0, -2.0, -3.0], dtype=complex)
    finite = np.array([-1.0, -2.5 + 0.5j, -2.5 - 0.5j])
    assert bench._match_error(finite, targets) == abs(-2.5 + 0.5j + 3.0)
    for bad in (complex(np.nan, np.nan), complex(np.inf, 0.0), complex(-1.0, np.nan)):
        assert np.isnan(bench._match_error(np.array([bad, -2.0, -3.0]), targets))
        assert np.isnan(bench._match_error(np.array([-1.0, -2.0, bad]), targets))


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
        got = bench._match_error(achieved, targets)
        assert got == want == _match_error_on_numpy_scalars(achieved, targets)
    # and on spectra near their targets, bit for bit
    rng = np.random.default_rng(3)
    for n in (1, 4, 12):
        targets = np.array(fwd_poles(n), dtype=complex)
        noise = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-12, 0, size=(2, n))
        achieved = np.sort_complex(targets + noise[0] + 1j * noise[1])
        got = bench._match_error(achieved, targets)
        assert type(got) is float
        assert got == _match_error_on_numpy_scalars(achieved, targets)


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
