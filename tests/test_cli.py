import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from poleplace import bench, cli, linalg, placement

WORKED_TEXT = """3 4
1 3 5 1
7 13 17 1
1 1 1 1
"""

UNCTRL_TEXT = """3 4
6 4 -9 1
5 2 -6 1
0 0 1 1
"""


@pytest.fixture
def worked_system(tmp_path):
    path = tmp_path / "worked.txt"
    path.write_text(WORKED_TEXT)
    return str(path)


@pytest.fixture
def unctrl_system(tmp_path):
    path = tmp_path / "unctrl.txt"
    path.write_text(UNCTRL_TEXT)
    return str(path)


# ---------------------------------------------------------------------------
# Pole list parsing


def test_parse_pole_list_forms():
    assert cli.parse_pole_list("-1,-2,-3") == [-1, -2, -3]
    assert cli.parse_pole_list("-1..-4") == [-1, -2, -3, -4]
    assert cli.parse_pole_list("-1+2i,-1-2i") == [complex(-1, 2), complex(-1, -2)]


def test_parse_pole_list_bad_literal():
    with pytest.raises(cli.UsageError):
        cli.parse_pole_list("-1,bogus")


@pytest.mark.parametrize("text", ["nan,-2,-3", "-1,1e400,-3", "-1+nani,-2", "-1-1e400i,-2"])
def test_parse_pole_list_rejects_nonfinite(text):
    with pytest.raises(cli.UsageError, match="not finite"):
        cli.parse_pole_list(text)


def test_nonfinite_pole_is_usage_error_for_every_command(worked_system, capsys):
    for cmd in (["place", "--algo", "ackermann"], ["simulate"], ["exact"]):
        for poles in ("nan,-2,-3", "1e400,-2,-3"):
            code = cli.main(cmd + ["--system", worked_system, "--poles", poles])
            assert code == 1, (cmd, poles)
            assert capsys.readouterr().err.startswith("error: pole ")


# ---------------------------------------------------------------------------
# place


def test_place_routes_to_chain_method(worked_system, capsys):
    code = cli.main(["place", "--algo", "algebroid2", "--system", worked_system,
                     "--poles", "-1,-2,-3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "K = 4  7.5  9.5" in out
    assert "complex pairs = 0" in out


def test_place_json_schema(worked_system, capsys):
    code = cli.main(["place", "--algo", "miminis", "--system", worked_system,
                     "--poles", "-1,-2,-3", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"algorithm", "precision", "gain", "achieved",
                            "max_abs_error", "complex_pair_count"}
    np.testing.assert_allclose(payload["gain"], [4.0, 7.5, 9.5], atol=1e-8)
    assert payload["max_abs_error"] <= 1e-9


def test_place_nonconjugate_poles_is_usage_error(worked_system, capsys):
    code = cli.main(["place", "--algo", "ackermann", "--system", worked_system,
                     "--poles", "-1+2i,-3"])
    assert code == 1
    assert "conjugation" in capsys.readouterr().err


def test_place_near_real_pole_is_usage_error_for_every_algorithm(worked_system, capsys):
    for poles in ("-1+0.000000000001i,-2,-3", "-1+0.0000000001i,-1+0.0000000001i,-3"):
        for algo in sorted(placement.ALGORITHMS):
            code = cli.main(["place", "--algo", algo, "--system", worked_system,
                             "--poles", poles])
            assert code == 1, (algo, poles)
            assert "not closed under conjugation" in capsys.readouterr().err


def test_place_split_conjugate_pair(worked_system, capsys):
    for algo in ("ackermann", "ackermann-factored", "algebroid2"):
        code = cli.main(["place", "--algo", algo, "--system", worked_system,
                         "--poles", "-1+2i,-3,-1-2i"])
        assert code == 0, algo
        assert "complex pairs = 1" in capsys.readouterr().out


def test_place_uncontrollable_exits_2(unctrl_system, capsys):
    code = cli.main(["place", "--algo", "determinantal", "--system", unctrl_system,
                     "--poles", "-1,-2,-3"])
    assert code == 2
    assert "ParallelHyperplanes" in capsys.readouterr().err


def test_place_zero_input_exits_2(tmp_path, capsys):
    path = tmp_path / "zero_b.txt"
    path.write_text(WORKED_TEXT.replace(" 1\n", " 0\n"))
    code = cli.main(["place", "--algo", "determinantal", "--system", str(path),
                     "--poles", "-1,-2,-3"])
    assert code == 2
    assert "UncontrollableSystem: B = 0" in capsys.readouterr().err


# numpy reports the 64-bit overflow on the way; the placement then fails typed
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_place_overflowing_input_norm_exits_typed(tmp_path, capsys):
    big_a, big_b = tmp_path / "big_a.txt", tmp_path / "big_b.txt"
    big_a.write_text(WORKED_TEXT.replace("1 3 5 1", "1e200 3 5 1"))
    big_b.write_text("3 4\n1 2 3 1e200\n1 0 0 1e200\n0 1 0 1e200\n")
    for algo in sorted(placement.ALGORITHMS):
        code = cli.main(["place", "--algo", algo, "--system", str(big_b),
                         "--poles", "-1,-2,-3"])
        err = capsys.readouterr().err
        assert code in (0, 2), (algo, err)
        if algo in ("algebroid1", "algebroid1-solve", "algebroid2", "miminis"):
            assert err == "FactorizationError: reflected vector norm overflowed: " \
                          "sum of squares is inf\n", algo
        # finite in 64 bits, beyond the 32-bit range: no warning, one typed line
        for path, matrix in ((big_a, "A"), (big_b, "B")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(["place", "--algo", algo, "--system", str(path),
                                 "--poles", "-1,-2,-3", "--precision", "32"])
            assert (code, capsys.readouterr().err) == (
                2, f"PrecisionOverflow: {matrix} has entries beyond the 32-bit range\n"), algo
    system = placement.StateSpace(*linalg.load_system(big_a))
    family = SimpleNamespace(kind="big-a", n=3, make=lambda: system,
                             default_poles=lambda: [-1.0, -2.0, -3.0])
    records = bench.run_suite([family], list(placement.ALGORITHMS), [linalg.BITS32])
    assert [r.failure for r in records] == \
        ["PrecisionOverflow: A has entries beyond the 32-bit range"] * len(placement.ALGORITHMS)


def test_place_overflowing_krylov_column_exits_typed(tmp_path, capsys):
    big_a = tmp_path / "big_a.txt"
    big_a.write_text(WORKED_TEXT.replace("1 3 5 1", "1e200 3 5 1"))
    for algo in ("ackermann", "ackermann-factored"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["place", "--algo", algo, "--system", str(big_a),
                             "--poles", "-1,-2,-3"])
        assert (code, capsys.readouterr().err) == (
            2, "PrecisionOverflow: Krylov column A^2 B is beyond the 64-bit range\n"), algo


def test_place_reports_nan_error_for_nonfinite_spectrum(tmp_path, capsys):
    big_a = tmp_path / "big_a.txt"
    big_a.write_text(WORKED_TEXT.replace("1 3 5 1", "1e200 3 5 1"))
    code = cli.main(["place", "--algo", "varga", "--system", str(big_a),
                     "--poles", "-1,-2,-3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("+nan +nanj") == 2  # the spectrum the verifier is given
    assert "max |error| = nan\n" in out


def test_place_json_is_strict_json_for_a_nonfinite_spectrum(tmp_path, capsys):
    big_a = tmp_path / "big_a.txt"
    big_a.write_text(WORKED_TEXT.replace("1 3 5 1", "1e200 3 5 1"))
    code = cli.main(["place", "--algo", "varga", "--system", str(big_a),
                     "--poles", "-1,-2,-3", "--format", "json"])
    assert code == 0

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    payload = json.loads(capsys.readouterr().out, parse_constant=no_constant)
    assert payload["max_abs_error"] is None
    assert payload["achieved"].count([None, None]) == 2
    assert payload["gain"] == [1e200, 3.000000000000001, 5.000000000000001]


def test_place_and_simulate_share_pole_checks(worked_system, capsys):
    for cmd in (["place", "--algo", "ackermann"], ["simulate"]):
        for poles, msg in (("-1,-2", "system has n=3, got 2 poles"),
                           ("-1+1i,-2,-3", "not closed under conjugation")):
            code = cli.main(cmd + ["--system", worked_system, "--poles", poles])
            assert code == 1
            assert msg in capsys.readouterr().err


def test_package_import_binds_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", "import poleplace; print(poleplace.cli.main)"],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_module_entry_point_runs_without_warning():
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "poleplace", "--help"],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stderr == ""
    assert "usage: poleplace" in out.stdout


def test_place_unknown_flag_is_usage_error(worked_system):
    code = cli.main(["place", "--algo", "ackermann", "--system", worked_system,
                     "--poles", "-1,-2,-3", "--bogus"])
    assert code == 1


def test_place_malformed_system_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 2 3\n")
    code = cli.main(["place", "--algo", "ackermann", "--system", str(path),
                     "--poles", "-1,-2"])
    assert code == 1
    assert "cannot read system" in capsys.readouterr().err


def test_place_charpoly_route(worked_system, capsys):
    code = cli.main(["place", "--algo", "algebroid2", "--system", worked_system,
                     "--charpoly", "1,6,11,6"])
    assert code == 0
    assert "K = 4  7.5  9.5" in capsys.readouterr().out


def test_place_reverse_poles(worked_system, capsys):
    code = cli.main(["place", "--algo", "algebroid1", "--system", worked_system,
                     "--poles", "-1,-2,-3", "--reverse-poles"])
    assert code == 0
    assert "K = 4  7.5  9.5" in capsys.readouterr().out


def test_place_32bit_mode(worked_system, capsys):
    code = cli.main(["place", "--algo", "algebroid2", "--system", worked_system,
                     "--poles", "-1,-2,-3", "--precision", "32",
                     "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["precision"] == 32
    np.testing.assert_allclose(payload["gain"], [4.0, 7.5, 9.5], atol=1e-4)


# ---------------------------------------------------------------------------
# exact


def test_exact_prints_reduced_rationals(worked_system, capsys):
    code = cli.main(["exact", "--system", worked_system, "--poles", "-1,-2,-3"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["4", "15/2", "19/2"]


def test_exact_range_syntax(tmp_path, capsys):
    from poleplace.bench import gen_integer_example
    sys10 = gen_integer_example(10)
    path = tmp_path / "int10.txt"
    linalg.save_system(path, sys10.A, sys10.B)
    code = cli.main(["exact", "--system", str(path), "--poles", "-1..-10"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    assert all("/" in line or line.lstrip("-").isdigit() for line in lines)


def test_exact_negative_digits_is_usage_error(worked_system, capsys):
    code = cli.main(["exact", "--system", worked_system, "--poles", "-1,-2,-3",
                     "--digits", "-3"])
    assert (code, capsys.readouterr().err) == (1, "error: --digits must be >= 0, got -3\n")


def test_exact_rejects_noninteger(worked_system, capsys):
    code = cli.main(["exact", "--system", worked_system, "--poles", "-1.5,-2,-3"])
    assert code == 1


# ---------------------------------------------------------------------------
# bench / simulate / check-commutators


def test_bench_csv_output(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = cli.main(["bench", "--family", "integer", "--n-range", "10..10",
                     "--algos", "algebroid1,algebroid2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("family,n,algorithm")
    for line in lines[1:]:
        assert float(line.split(",")[5]) <= 1e-3


def test_bench_unknown_algorithm(capsys):
    code = cli.main(["bench", "--family", "integer", "--n-range", "5..5",
                     "--algos", "nosuch"])
    assert code == 1


def test_simulate_writes_trace(tmp_path, capsys):
    src = tmp_path / "worked.txt"
    src.write_text(WORKED_TEXT)
    out = tmp_path / "trace.csv"
    code = cli.main(["simulate", "--system", str(src), "--poles", "-1,-2,-3",
                     "--mode", "both", "--T", "2.0", "--h", "0.01",
                     "--x0", "1,2,3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,x3"
    assert len(lines) == 202
    err = capsys.readouterr().err
    assert "max |gain - chain|" in err


def test_simulate_casts_its_system_once(worked_system, monkeypatch, capsys):
    # the chain built for both modes holds the system's arrays
    casts = []
    cast = placement._sys_arrays
    monkeypatch.setattr(placement, "_sys_arrays",
                        lambda sys, precision: casts.append(precision.bits) or cast(sys, precision))
    for bits in ("32", "64"):
        casts.clear()
        code = cli.main(["simulate", "--system", worked_system, "--poles", "-1,-2,-3",
                         "--mode", "both", "--T", "0.1", "--h", "0.05", "--precision", bits])
        assert (code, casts) == (0, [int(bits)])
    capsys.readouterr()


@pytest.mark.parametrize("flags, poles, message", [
    (["--T", "-1"], "-1,-2,-3", "need T > 0 and 0 < h <= T"),
    (["--h", "0"], "-1,-2,-3", "need T > 0 and 0 < h <= T"),
    (["--h", "5", "--T", "1"], "-1,-2,-3", "need T > 0 and 0 < h <= T"),
    (["--T", "0"], "-1,-2,-3", "need T > 0 and 0 < h <= T"),
    ([], "1i,-1i,-3", "the default horizon needs poles with nonzero real part"),
    (["--x0", "nan,1,2", "--T", "1"], "-1,-2,-3", "vector entries must be finite"),
], ids=["negative-T", "zero-h", "h-above-T", "zero-T", "imaginary-axis-pole", "nonfinite-x0"])
def test_simulate_bad_horizon_or_step_is_usage_error(worked_system, flags, poles, message,
                                                     capsys):
    code = cli.main(["simulate", "--system", worked_system, "--poles", poles] + flags)
    assert (code, capsys.readouterr()) == (1, ("", f"error: {message}\n"))


def test_simulate_family_route(tmp_path):
    out = tmp_path / "trace.csv"
    code = cli.main(["simulate", "--family", "diag", "--n", "4", "--seed", "341",
                     "--poles", "-0.5,-1,-1.5,-2", "--T", "3.0", "--h", "0.05",
                     "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("t,x1,x2,x3,x4")


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--family", "integer", "--n", "2", "--poles", "-1,-2"],
     "integer example needs n >= 3"),
    (["bench", "--family", "integer", "--n-range", "2..2"],
     "integer example needs n >= 3"),
    (["bench", "--family", "diag", "--n-range", "0..0"],
     "scaled-diagonal example needs n >= 1"),
])
def test_family_size_the_family_cannot_build_exits_1(argv, message, capsys):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_commutators_passes(capsys):
    code = cli.main(["check-commutators"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


# ---------------------------------------------------------------------------
# Round-trip invariant


def test_system_write_read_bit_identical(tmp_path):
    rng = np.random.default_rng(77)
    A = rng.standard_normal((5, 5))
    B = rng.standard_normal(5)
    path = tmp_path / "sys.txt"
    linalg.save_system(path, A, B)
    A2, B2 = linalg.load_system(path)
    assert np.array_equal(A, A2) and np.array_equal(B, B2)


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0
    assert cli.main(["place", "--help"]) == 0


# ---------------------------------------------------------------------------
# One parser per process


def _mixed_argv(system):
    """One call of each kind: argparse errors, help, every subcommand."""
    place = ["place", "--algo", "ackermann", "--system", system]
    return [
        place + ["--poles", "-1,-2,-3", "--bogus"],  # unknown flag: exit 1
        ["--help"],
        place,  # neither --poles nor --charpoly
        ["place", "--algo", "algebroid2", "--system", system, "--charpoly", "1,6,11,6"],
        place + ["--poles", "-1,-2,-3", "--format", "json"],
        ["bench", "--family", "integer", "--n-range", "3..4", "--algos", "ackermann",
         "--precision", "both", "--format", "csv"],
        ["exact", "--system", system, "--poles", "-1..-3"],
        ["simulate", "--system", system, "--poles", "-1,-2,-3", "--mode", "both",
         "--T", "0.1", "--h", "0.05"],
    ]


def test_main_builds_its_parser_once_per_process(worked_system, monkeypatch, capsys):
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        argvs = _mixed_argv(worked_system)
        argvs += [["check-commutators"], ["place", "--help"]]
        codes = [cli.main(argv) for argv in argvs]
    finally:
        cli.build_parser.cache_clear()
    capsys.readouterr()
    assert codes == [1, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    # the top-level parser once, and each of its five subcommand parsers once
    assert built.count("poleplace") == 1
    assert sorted(built) == sorted(["poleplace"] + [f"poleplace {c}" for c in (
        "place", "bench", "simulate", "exact", "check-commutators")])


def test_shared_parser_carries_no_state_between_calls(worked_system, capsys):
    def run(fresh):
        outcomes = []
        for argv in _mixed_argv(worked_system):
            if fresh:
                cli.build_parser.cache_clear()
            code = cli.main(argv)
            out, err = capsys.readouterr()
            outcomes.append((code, out, err))
        return outcomes

    shared = run(fresh=False)
    assert [code for code, _, _ in shared] == [1, 0, 1, 0, 0, 0, 0, 0]
    assert shared == run(fresh=True)


def test_bench_renders_only_what_it_writes(monkeypatch, capsys):
    def no_table(records):
        raise AssertionError("render_table called for CSV on stdout")

    monkeypatch.setattr(cli.bench, "render_table", no_table)
    code = cli.main(["bench", "--family", "integer", "--n-range", "3..3",
                     "--algos", "ackermann", "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out.startswith("family,n,algorithm")
