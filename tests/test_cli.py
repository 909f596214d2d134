import contextlib
import decimal
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poleplace import bench, cli, errors, exactring, linalg, placement

from _reference import save_system

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
    assert cli.parse_pole_list("-1,-2,-3", 3) == [-1, -2, -3]
    assert cli.parse_pole_list("-1..-4", 4) == [-1, -2, -3, -4]
    assert cli.parse_pole_list("-1+2i,-1-2i", 2) == [complex(-1, 2), complex(-1, -2)]


def test_parse_pole_list_bad_literal():
    with pytest.raises(cli.UsageError):
        cli.parse_pole_list("-1,bogus", 2)


@pytest.mark.parametrize("text", ["nan,-2,-3", "-1,1e400,-3", "-1+nani,-2", "-1-1e400i,-2"])
def test_parse_pole_list_rejects_nonfinite(text):
    with pytest.raises(cli.UsageError, match="not finite"):
        cli.parse_pole_list(text, text.count(",") + 1)


def test_pole_range_is_counted_before_it_is_expanded(worked_system, capsys):
    # a trillion poles would not fit in memory: the count alone decides
    for cmd in (["place", "--algo", "ackermann"], ["simulate"], ["exact"]):
        code = cli.main(cmd + ["--system", worked_system, "--poles", "-1..-1000000000000"])
        assert (code, capsys.readouterr()) == (
            1, ("", "error: system has n=3, got 1000000000000 poles\n")), cmd


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
                     "--poles", "-1+2i,-3,-4"])
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
    # a charpoly target meets the same check, for both its entries and at n = 1
    scalar = tmp_path / "zero_b1.txt"
    scalar.write_text("1 2\n2 0\n")
    for system, charpoly in ((path, "1,6,11,6"), (scalar, "1,3")):
        for algo in ("ackermann", "algebroid2"):
            code = cli.main(["place", "--algo", algo, "--system", str(system),
                             "--charpoly", charpoly])
            assert code == 2, (algo, charpoly)
            assert "UncontrollableSystem: B = 0" in capsys.readouterr().err, (algo, charpoly)


# at 64 bits, a method whose arithmetic overflows on B = 1e200 fails with
# one typed line (the range rule); the others place or fail as usual
BIG_B_OUTCOMES = {
    "ackermann": (0, ""),
    "ackermann-factored": (0, ""),
    "algebroid1": (2, "PrecisionOverflow: place_algebroid1: overflow encountered in multiply\n"),
    "algebroid1-solve": (2, "PrecisionOverflow: place_algebroid1: overflow encountered in dot\n"),
    "algebroid2": (2, "PrecisionOverflow: build_anchor_chain: overflow encountered in multiply\n"),
    "determinantal": (0, ""),
    "miminis": (2, "PrecisionOverflow: place_miminis: overflow encountered in multiply\n"),
    "sliding": (2, "PrecisionOverflow: place_sliding: overflow encountered in dot\n"),
    "varga": (2, "ComplexBlockUnsupported: A has complex eigenvalues (2x2 Schur block); "
                 "this method handles real-spectrum systems only\n"),
}


def test_place_overflowing_input_norm_exits_typed(tmp_path, capsys):
    big_a, big_b = tmp_path / "big_a.txt", tmp_path / "big_b.txt"
    big_a.write_text(WORKED_TEXT.replace("1 3 5 1", "1e200 3 5 1"))
    big_b.write_text("3 4\n1 2 3 1e200\n1 0 0 1e200\n0 1 0 1e200\n")
    assert sorted(BIG_B_OUTCOMES) == sorted(placement.ALGORITHMS)
    for algo in sorted(placement.ALGORITHMS):
        code = cli.main(["place", "--algo", algo, "--system", str(big_b),
                         "--poles", "-1,-2,-3"])
        assert (code, capsys.readouterr().err) == BIG_B_OUTCOMES[algo], algo
        # finite in 64 bits, beyond the 32-bit range: no warning, one typed line
        for path, matrix in ((big_a, "A"), (big_b, "B")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(["place", "--algo", algo, "--system", str(path),
                                 "--poles", "-1,-2,-3", "--precision", "32"])
            assert (code, capsys.readouterr().err) == (
                2, f"PrecisionOverflow: {matrix} has entries beyond the 32-bit range\n"), algo
    system = cli._load_system(str(big_a))
    family = SimpleNamespace(kind="big-a", n=3, make=lambda: system,
                             default_poles=lambda: [-1.0, -2.0, -3.0])
    records = bench.run_suite([family], list(placement.ALGORITHMS), [linalg.BITS32])
    assert [r.failure for r in records] == \
        ["PrecisionOverflow: A has entries beyond the 32-bit range"] * len(placement.ALGORITHMS)


def test_place_overflowing_krylov_column_exits_typed(tmp_path, capsys):
    # A^2 B overflows in the Krylov matrix
    big_a = tmp_path / "big_a.txt"
    big_a.write_text(WORKED_TEXT.replace("1 3 5 1", "1e200 3 5 1"))
    for algo, fn in (("ackermann", "ackermann_direct"), ("ackermann-factored", "ackermann_factored")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["place", "--algo", algo, "--system", str(big_a),
                             "--poles", "-1,-2,-3"])
        assert (code, capsys.readouterr().err) == (
            2, f"PrecisionOverflow: {fn}: overflow encountered in matmul\n"), algo


# finite in float32, but a level's product is not (the transfer map
# A_(t,1) A, or the quotient input B_(1)); unchecked, the first and the
# last case ended in a ValueError traceback, the second in K = 0
@pytest.mark.parametrize("text", [
    "2 3\n0 1e30 0\n-1e30 0 1\n",
    "2 3\n0 0 1e18\n1e30 0 0\n",
    "3 4\n0 0 0 1e18\n1e30 0 0 0\n0 1 0 0\n",
], ids=["transfer-map", "last-quotient-input", "inner-quotient-input"])
def test_chain_level_beyond_the_32bit_range_exits_typed(tmp_path, text, capsys):
    path = tmp_path / "chain.txt"
    path.write_text(text)
    poles = ",".join(str(-k) for k in range(1, int(text[0]) + 1))
    for command in (["place", "--algo", "algebroid2"], ["simulate"]):
        code = cli.main(command + ["--system", str(path), "--poles", poles,
                                   "--precision", "32"])
        assert (code, capsys.readouterr()) == (
            2, ("", "PrecisionOverflow: build_anchor_chain: overflow encountered in matmul\n"))


def test_place_reports_nan_error_for_nonfinite_spectrum(tmp_path, capsys):
    # K is about 2e300, and A - B K is not finite
    path = tmp_path / "system.json"
    path.write_text(CORPUS["nonfinite-loop"])
    code = cli.main(["place", "--algo", "algebroid2", "--system", str(path), "--poles=-1,-2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("+nan +nanj") == 2
    assert "max |error| = nan\n" in out


def test_place_json_is_strict_json_for_a_nonfinite_spectrum(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(CORPUS["nonfinite-loop"])
    code = cli.main(["place", "--algo", "algebroid2", "--system", str(path), "--poles=-1,-2",
                     "--format", "json"])
    assert code == 0

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    payload = json.loads(capsys.readouterr().out, parse_constant=no_constant)
    assert payload["max_abs_error"] is None
    assert payload["achieved"] == [[None, None]] * 2
    assert payload["gain"] == [2.0000000000000064e+300, 3e-10]


def test_place_verifies_a_gain_of_1e200_on_a_finite_spectrum(tmp_path, capsys):
    # A - B K has entries from 1e200 down to 9e-16: the verifier scales it
    # into [1, 2) and reports the spectrum the iteration finds there.
    # LAPACK, which balances first, finds +-4.2e92 and -2; either way the
    # gain misses its poles by far more than the matrix's rounding
    big_a = tmp_path / "big_a.txt"
    big_a.write_text(WORKED_TEXT.replace("1 3 5 1", "1e200 3 5 1"))
    code = cli.main(["place", "--algo", "varga", "--system", str(big_a),
                     "--poles", "-1,-2,-3", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gain"] == [1e200, 3.000000000000001, 5.000000000000001]
    assert payload["achieved"] == [[-4.249103942534137e+183, -4.032665874351993e+191],
                                   [-4.249103942534137e+183, 4.032665874351993e+191], [0.0, 0.0]]
    assert payload["max_abs_error"] == 4.032665874351993e+191
    assert payload["complex_pair_count"] == 1


UNDERFLOWED_B = ("PrecisionOverflow: reflected vector of length 2 is nonzero, "
                 "but its squared norm underflowed to 0\n")


@pytest.mark.parametrize("name, algo, outcome", [
    # the normal of pole -1 is about 1e-340, and the exact gain about -1e340
    ("underflowed-normal", "determinantal",
     (2, "PrecisionOverflow: hyperplane normal of pole -1.0 underflowed to 0\n")),
    ("underflowed-normal", "sliding",
     (2, "PrecisionOverflow: hyperplane normal of pole -1.0 underflowed to 0\n")),
    # B's squares underflow to 0, and B is not 0: no reflector takes it to
    # a multiple of e_1
    ("underflowed-input-norm", "miminis", (2, UNDERFLOWED_B)),
    ("underflowed-input-norm", "ackermann", (0, "")),
    # and no anchor annihilates it
    ("underflowed-input-norm", "algebroid2", (2, UNDERFLOWED_B)),
    # K is about 2e300, and A - B K is not finite: a NaN record
    ("nonfinite-loop", "algebroid2", (0, "")),
], ids=["determinantal", "sliding", "miminis", "ackermann", "algebroid2-input-norm", "algebroid2"])
def test_place_past_the_float64_range_ends_in_one_line_or_a_nan_record(tmp_path, name, algo,
                                                                      outcome, capsys):
    path = tmp_path / "system.json"
    path.write_text(CORPUS[name])
    code = cli.main(["place", "--algo", algo, "--system", str(path), "--poles=-1,-2",
                     "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == outcome
    if name == "nonfinite-loop":
        payload = json.loads(out)
        assert payload["achieved"] == [[None, None]] * 2 and payload["max_abs_error"] is None
        assert payload["complex_pair_count"] == 0 and 1e300 < max(map(abs, payload["gain"]))


def test_place_reports_an_unconverged_verification_as_a_nan_record(worked_system, monkeypatch,
                                                                   capsys):
    # the entry returns K; when the eigenvalue iteration on A - B K does not
    # converge, place prints a NaN record, as for a closed loop that is not
    # finite.  No placed gain that seeded searches found leaves such a
    # closed loop, so the iteration's failure is forced here
    def unconverged(A):
        raise errors.FactorizationError("eigenvalue iteration did not converge")

    monkeypatch.setattr(bench, "eigenvalues", unconverged)
    code = cli.main(["place", "--algo", "algebroid1-solve", "--system", worked_system,
                     "--poles", "-1,-2,-3", "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["achieved"] == [[None, None]] * 3 and payload["max_abs_error"] is None
    assert payload["complex_pair_count"] == 0 and all(map(math.isfinite, payload["gain"]))


def test_a_b_lost_in_the_32_bit_cast_is_one_typed_line(tmp_path, capsys):
    # every entry and simulate name the cast, not "B = 0"; at 64 bits the
    # system places
    path = tmp_path / "system.json"
    path.write_text(CORPUS["cast-lost-input"])
    line = "PrecisionOverflow: B underflowed to 0 in the 32-bit cast\n"
    cmds = [["place", "--algo", algo] for algo in placement.ALGORITHMS]
    for cmd in cmds + [["simulate", "--T", "0.05"]]:
        code = cli.main(cmd + ["--system", str(path), "--poles=-1,-2", "--precision", "32"])
        assert (code, capsys.readouterr().err) == (2, line), cmd
    code = cli.main(["place", "--algo", "ackermann", "--system", str(path), "--poles=-1,-2"])
    out = capsys.readouterr().out
    assert code == 0 and float(out.split("max |error| = ")[1].split()[0]) <= 1e-12


def test_place_and_simulate_share_pole_checks(worked_system, capsys):
    for cmd in (["place", "--algo", "ackermann"], ["simulate"]):
        for poles, msg in (("-1,-2", "system has n=3, got 2 poles"),
                           ("-1+1i,-2,-3", "not closed under conjugation")):
            code = cli.main(cmd + ["--system", worked_system, "--poles", poles])
            assert code == 1
            assert msg in capsys.readouterr().err


def _fresh_python(*args):
    """Run a new interpreter on this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)


def test_package_import_binds_cli():
    out = _fresh_python("-c", "import poleplace; print(poleplace.cli.main)")
    assert out.returncode == 0, out.stderr


def test_package_import_leaves_scipy_unloaded():
    # scipy serves only the real Schur form: a command that never needs
    # one does not pay for its import
    out = _fresh_python("-c", "import sys, poleplace, poleplace.cli; "
                        "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])")
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr


def test_varga_entry_point_imports_scipy_on_first_schur(worked_system, capsys):
    argv = ["place", "--algo", "varga", "--system", worked_system, "--poles", "-1,-2,-3"]
    assert cli.main(argv) == 0
    in_process = capsys.readouterr().out
    # -X importtime lists every import on stderr, and nothing else may be there
    out = _fresh_python("-W", "error", "-X", "importtime", "-m", "poleplace", *argv)
    assert out.returncode == 0, out.stderr
    assert out.stdout == in_process
    imports = out.stderr.splitlines()
    assert all(line.startswith("import time:") for line in imports), out.stderr
    assert "scipy.linalg" in {line.rpartition("|")[2].strip() for line in imports}


def test_module_entry_point_runs_without_warning():
    # python3 -m poleplace runs __main__.py, which imports the CLI once:
    # runpy's RuntimeWarning about a module found in sys.modules before
    # its execution would be an error here
    out = _fresh_python("-W", "error", "-m", "poleplace", "--help")
    assert (out.returncode, out.stderr) == (0, ""), out.stderr
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
    # the pole list states the order; there is no flag that reverses it
    code = cli.main(["place", "--algo", "algebroid1", "--system", worked_system,
                     "--poles", "-3,-2,-1"])
    assert code == 0
    assert "K = 4  7.5  9.5" in capsys.readouterr().out
    assert cli.main(["place", "--algo", "algebroid1", "--system", worked_system,
                     "--poles", "-1,-2,-3", "--reverse-poles"]) == 1
    assert "unrecognized arguments: --reverse-poles" in capsys.readouterr().err


@pytest.mark.parametrize("algo", sorted(placement.ALGORITHMS))
def test_place_empty_pole_list_is_usage_error(worked_system, algo, capsys):
    code = cli.main(["place", "--algo", algo, "--system", worked_system, "--poles="])
    assert (code, capsys.readouterr()) == (1, ("", "error: empty pole list\n"))


def test_place_charpoly_with_a_pole_only_algorithm_is_usage_error(worked_system, capsys):
    code = cli.main(["place", "--algo", "miminis", "--system", worked_system,
                     "--charpoly", "1,6,11,6"])
    assert (code, capsys.readouterr()) == (
        1, ("", "error: --charpoly works with ackermann or algebroid2, not miminis\n"))


BIG = "1" + "0" * 400
UNPAIRED = "pole set not closed under conjugation: unmatched (-1+2j)"


@pytest.mark.parametrize("algo, flag, value, message", [
    ("ackermann", "--poles", "-1+2i,-2,-3", UNPAIRED),
    ("algebroid2", "--poles", "-1+2i,-2,-3", UNPAIRED),
    ("ackermann", "--charpoly", "1,nan,11,6", "charpoly [1.0, nan, 11.0, 6.0] is not finite"),
    ("algebroid2", "--charpoly", "2,6,11,6",
     "charpoly [2.0, 6.0, 11.0, 6.0] must be monic of length 4"),
    ("ackermann", "--charpoly", "1,6,11", "charpoly [1.0, 6.0, 11.0] must be monic of length 4"),
    *[(algo, "--poles", "-1+2i,-1-2i,-3", "this method handles real poles only, got (-1+2j)")
      for algo in ("determinantal", "sliding", "algebroid1", "algebroid1-solve", "miminis",
                   "varga")],
    *[(algo, "--poles", f"{BIG}..{BIG},-2,-3", "pole list has an integer beyond the float64 range")
      for algo in ("ackermann", "algebroid2", "varga")],
], ids=["unpaired", "unpaired-algebroid2", "charpoly-not-finite", "charpoly-not-monic",
        "charpoly-too-short", "pair-determinantal", "pair-sliding", "pair-algebroid1",
        "pair-algebroid1-solve", "pair-miminis", "pair-varga", "400-digit-ackermann",
        "400-digit-algebroid2", "400-digit-varga"])
def test_place_reports_the_entrys_own_error_for_a_malformed_target_set(
        worked_system, algo, flag, value, message, capsys):
    # the ALGORITHMS entry alone checks the targets; the CLI reports its
    # InvalidPoleSet as a usage error, word for word
    sys_ = cli._load_system(worked_system)
    given = ({"poles": cli.parse_pole_list(value, 3)} if flag == "--poles"
             else {"charpoly": cli.parse_float_list(value)})
    with pytest.raises(errors.InvalidPoleSet) as raised:
        placement.ALGORITHMS[algo](sys_, **given)
    assert str(raised.value) == message
    code = cli.main(["place", "--algo", algo, "--system", worked_system, flag, value])
    assert (code, capsys.readouterr()) == (1, ("", f"error: {message}\n"))


def test_a_400_digit_range_pole_reaches_the_library_in_every_command(worked_system, capsys):
    # a range's poles stay ints: the placement rejects one past the float64
    # range (a bare OverflowError before), and the exact oracle takes it
    poles = ["--poles", f"{BIG}..{BIG},-2,-3"]
    code = cli.main(["simulate", "--system", worked_system] + poles)
    assert (code, capsys.readouterr()) == (
        1, ("", "error: pole list has an integer beyond the float64 range\n"))
    assert cli.main(["exact", "--system", worked_system] + poles) == 0
    big = 10**400  # (s - big)(s + 2)(s + 3)
    charpoly = [1, 5 - big, 6 - 5 * big, -6 * big]
    expected = exactring.ratio(exactring.place_exact(
        [[1, 3, 5], [7, 13, 17], [1, 1, 1]], [1, 1, 1], charpoly))
    assert capsys.readouterr() == ("".join(f"{f}\n" for f in expected), "")


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
    save_system(path, sys10.A, sys10.B)
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


def test_exact_digits_renders_each_entry_in_decimals(worked_system, capsys):
    # the README's example
    code = cli.main(["exact", "--system", worked_system, "--poles", "-1,-2,-3", "--digits", "8"])
    assert (code, capsys.readouterr()) == (
        0, ("4  ~  4.00000000\n15/2  ~  7.50000000\n19/2  ~  9.50000000\n", ""))


def test_exact_digits_are_the_exactly_rounded_decimals(tmp_path, capsys):
    # entries of 7 integer digits: each decimal is its rational rounded to
    # 8 places, ties to even, and the decimal context is left as it was
    path = tmp_path / "int12.txt"
    system = bench.gen_integer_example(12)
    save_system(path, system.A, system.B)
    code = cli.main(["exact", "--system", str(path), "--poles", "-1..-12", "--digits", "8"])
    assert (code, decimal.getcontext().prec) == (0, decimal.DefaultContext.prec)
    lines = capsys.readouterr().out.splitlines()
    assert lines[9].endswith("  ~  -2884922.56803163")
    for line in lines:
        f = Fraction(line.split()[0])
        q = round(abs(f) * 10**8)  # Fraction rounds exactly, ties to even
        assert line.split()[-1] == f"{'-' * (f < 0)}{q // 10**8}.{q % 10**8:08d}", line


def test_exact_digits_past_python_int_string_limit(worked_system, capsys):
    # str() refuses an int of more than 4300 digits; the decimals do not pass through one
    code = cli.main(["exact", "--system", worked_system, "--poles", "-1,-2,-3",
                     "--digits", "5000"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1] == "15/2  ~  7.5" + "0" * 4999


def test_exact_on_a_non_integer_system_prints_the_oracles_error(tmp_path, capsys):
    # the oracle's own check: it converts each entry with int() and
    # rejects one that int() would truncate
    path = tmp_path / "half.txt"
    path.write_text("2 3\n0 1 0\n2.5 0 1\n")
    code = cli.main(["exact", "--system", str(path), "--poles", "-1,-2"])
    assert (code, capsys.readouterr()) == (1, ("", "error: A has a non-integer entry 2.5\n"))


def test_exact_takes_integers_past_int64(tmp_path, capsys):
    # 1e20 is an integer beyond 2**63, where an int64 cast wraps around
    path = tmp_path / "big.txt"
    path.write_text("2 3\n0 1 0\n1e20 0 1\n")
    code = cli.main(["exact", "--system", str(path), "--poles", "-1,-2"])
    assert (code, capsys.readouterr()) == (0, ("100000000000000000002\n3\n", ""))


@pytest.mark.parametrize("text, fault", [
    ("2 3\n0 1 0\ninf 0 1\n", "matrix entries must be finite"),
    ("2", "matrix header '2' is not two non-negative integers"),
    ("-1 -1\n5\n", "matrix header '-1 -1' is not two non-negative integers"),
    ('{"A": [[1, 2]], "B": [1]}', "A must be square"),
    ('{"A": [[1, 2], [3, 4]], "B": [1]}', "B must have one entry per state"),
    ("2 2\n1 2\n3 4\n", "system matrix must be n x (n+1) ([A | B]); got (2, 2)"),
    (" \n", "empty matrix input"),
    ('{"B": [1]}', "system object has no 'A' entry"),
    ('{"A": [[1]]}', "system object has no 'B' entry"),
    ('{"A": {"x": 1}, "B": [1]}', "A must be a JSON array, got dict"),
    ('{"A": [[1]], "B": {"a": 1}}', "B must be a JSON array, got dict"),
    ('[{"a": 1}]', 'matrix must hold only numbers, got {"a": 1}'),
    ('{"A": [[1' + "0" * 400 + ']], "B": [1]}',
     "A has an integer beyond the float64 range: int too large to convert to float"),
    ('{"A": [["2"]], "B": ["1"]}', 'A must hold only numbers, got "2"'),
    ('{"A": [[2]], "B": [true]}', "B must hold only numbers, got true"),
    ('{"A": [[null]], "B": [1]}', "A must hold only numbers, got null"),
    ("[" * 100000 + "]" * 100000,
     "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
], ids=["infinite", "one-token-header", "negative-header", "not-square", "B-length",
        "not-augmented", "empty", "no-A", "no-B", "A-object", "B-object", "array-of-objects",
        "400-digit-integer", "strings", "boolean", "null", "nested-past-the-recursion-limit"])
def test_system_file_the_system_rejects_is_usage_error(tmp_path, text, fault, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    for cmd in (["exact", "--poles", "-1,-2"], ["place", "--algo", "ackermann", "--poles", "-1,-2"],
                ["simulate", "--poles", "-1,-2"]):
        assert cli.main(cmd + ["--system", str(path)]) == 1, cmd
        assert capsys.readouterr().err == f"error: cannot read system file {path}: {fault}\n"


def test_unwritable_out_is_usage_error_for_every_command(worked_system, tmp_path, capsys):
    out = str(tmp_path / "missing" / "x")
    for cmd in (["place", "--system", worked_system, "--algo", "ackermann", "--poles", "-1,-2,-3"],
                ["bench", "--family", "integer", "--n-range", "3..3", "--algos", "ackermann"],
                ["simulate", "--system", worked_system, "--poles", "-1,-2,-3"],
                ["exact", "--system", worked_system, "--poles", "-1,-2,-3"]):
        assert cli.main(cmd + ["--out", out]) == 1, cmd
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: "), cmd


# ---------------------------------------------------------------------------
# bench / simulate


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
    assert (code, capsys.readouterr()) == (1, ("", "error: unknown algorithm 'nosuch'\n"))


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
    (["--T", "inf"], "-1,-2,-3", "need a finite step count T / h, got T = inf, h = 0.01"),
    (["--T", "inf", "--h", "inf"], "-1,-2,-3",
     "need a finite step count T / h, got T = inf, h = inf"),
    (["--T", "1e200", "--h", "1e-200"], "-1,-2,-3",
     "need a finite step count T / h, got T = 1e+200, h = 1e-200"),
    # counts past what the trace can index, rejected before any allocation
    (["--T", "1e300", "--h", "1"], "-1,-2,-3",
     "step count T / h = 1e+300 is too large for the trace, T = 1e+300, h = 1.0"),
    (["--T", "1e20", "--h", "1e-10"], "-1,-2,-3",
     "step count T / h = 1e+30 is too large for the trace, T = 1e+20, h = 1e-10"),
], ids=["negative-T", "zero-h", "h-above-T", "zero-T", "imaginary-axis-pole", "nonfinite-x0",
        "infinite-T", "infinite-T-and-h", "overflowing-T-over-h", "huge-step-count",
        "step-count-past-the-index-range"])
def test_simulate_bad_horizon_or_step_is_usage_error(worked_system, flags, poles, message,
                                                     capsys):
    code = cli.main(["simulate", "--system", worked_system, "--poles", poles] + flags)
    assert (code, capsys.readouterr()) == (1, ("", f"error: {message}\n"))


@pytest.mark.parametrize("algo", sorted(placement.ALGORITHMS))
def test_place_poles_beyond_the_32bit_range_exit_typed(worked_system, algo, capsys):
    # finite poles whose float32 cast overflows: one typed line, no numpy
    # warning (the suite turns warnings into errors); algebroid2 casts the
    # characteristic polynomial instead of the poles
    code = cli.main(["place", "--algo", algo, "--system", worked_system,
                     "--poles", "-1e39,-2,-3", "--precision", "32"])
    what = "charpoly has coefficients" if algo == "algebroid2" else "pole list has entries"
    assert (code, capsys.readouterr()) == (
        2, ("", f"PrecisionOverflow: {what} beyond the 32-bit range\n"))


@pytest.mark.parametrize("algo, flag, value", [
    ("ackermann", "--charpoly", "1,6,11,1e39"),
    ("algebroid2", "--charpoly", "1,6,11,1e39"),
    # each pole fits float32, the coefficient 1e40 + 6e20 does not
    ("algebroid2", "--poles", "-1e20,-1e20,-3"),
    # each pole fits float32, the pair's |l|^2 = 2e40 does not
    ("ackermann-factored", "--poles", "-1e20+1e20i,-1e20-1e20i,-3"),
])
def test_place_coefficients_beyond_the_32bit_range_exit_typed(worked_system, algo, flag,
                                                             value, capsys):
    code = cli.main(["place", "--algo", algo, "--system", worked_system, flag, value,
                     "--precision", "32"])
    what = "pole list has entries" if algo == "ackermann-factored" else "charpoly has coefficients"
    assert (code, capsys.readouterr()) == (
        2, ("", f"PrecisionOverflow: {what} beyond the 32-bit range\n"))
    # the same input fits the 64-bit range
    code = cli.main(["place", "--algo", algo, "--system", worked_system, flag, value])
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    # each pole fits float32, a product of the placement does not
    (["place", "--algo", "ackermann", "--poles", "-1e37,-1e37,-3", "--precision", "32"],
     "ackermann_direct: overflow encountered in multiply"),
    (["place", "--algo", "ackermann-factored", "--poles", "-1e37,-1e37,-3", "--precision", "32"],
     "ackermann_factored: overflow encountered in multiply"),
    (["place", "--algo", "miminis", "--poles", "-1e37,-1e37,-3", "--precision", "32"],
     "place_miminis: overflow encountered in multiply"),
    # the same at 64 bits; the coefficient 2e400 of the charpoly is past the range
    (["place", "--algo", "ackermann", "--poles", "-1e200,-2e200,-3"],
     "ackermann_direct: overflow encountered in multiply"),
    (["place", "--algo", "algebroid2", "--poles", "-1e200,-2e200,-3"],
     "charpoly has coefficients beyond the 64-bit range"),
    # the pair's |l|^2 = 2e400 is past the 64-bit range
    (["place", "--algo", "ackermann", "--poles", "-1e200+1e200i,-1e200-1e200i,-3"],
     "pole list has entries beyond the 64-bit range"),
    (["place", "--algo", "ackermann-factored", "--poles", "-1e200+1e200i,-1e200-1e200i,-3"],
     "pole list has entries beyond the 64-bit range"),
    (["place", "--algo", "algebroid2", "--poles", "-1e200+1e200i,-1e200-1e200i,-3"],
     "charpoly has coefficients beyond the 64-bit range"),
    (["simulate", "--mode", "gain", "--poles", "-1e200,-2e200,-3"],
     "charpoly has coefficients beyond the 64-bit range"),
    (["simulate", "--mode", "chain", "--poles", "-1e200,-2e200,-3"],
     "charpoly has coefficients beyond the 64-bit range"),
], ids=["ackermann-32", "ackermann-factored-32", "miminis-32", "ackermann-64", "algebroid2-64",
        "ackermann-pair-64", "ackermann-factored-pair-64", "algebroid2-pair-64",
        "simulate-gain-64", "simulate-chain-64"])
def test_place_arithmetic_overflow_exits_typed(worked_system, argv, message, capsys):
    # finite poles, and an overflow in the arithmetic rather than in a cast:
    # one typed line and no numpy warning (the suite turns warnings into errors)
    code = cli.main(argv + ["--system", worked_system])
    assert (code, capsys.readouterr()) == (2, ("", f"PrecisionOverflow: {message}\n"))


@pytest.mark.parametrize("algo, charpoly, message", [
    ("ackermann", "1,nan,11,6", "charpoly [1.0, nan, 11.0, 6.0] is not finite"),
    ("algebroid2", "1,inf,11,6", "charpoly [1.0, inf, 11.0, 6.0] is not finite"),
    ("ackermann", "2,6,11,6", "charpoly [2.0, 6.0, 11.0, 6.0] must be monic of length 4"),
    ("algebroid2", "1,6,11", "charpoly [1.0, 6.0, 11.0] must be monic of length 4"),
], ids=["ackermann-nan", "algebroid2-inf", "ackermann-not-monic", "algebroid2-short"])
def test_place_nonfinite_charpoly_is_usage_error(worked_system, algo, charpoly, message,
                                                 capsys):
    code = cli.main(["place", "--algo", algo, "--system", worked_system,
                     "--charpoly", charpoly])
    assert (code, capsys.readouterr()) == (1, ("", f"error: {message}\n"))


@pytest.mark.parametrize("flags, what", [
    (["--x0", "1e39,1,2", "--T", "1"], "x0 has entries"),
    (["--T", "1e39", "--h", "1e39"], "the step h is"),
], ids=["x0", "h"])
@pytest.mark.parametrize("mode", ["gain", "chain", "both"])
def test_simulate_values_beyond_the_32bit_range_exit_typed(worked_system, flags, what, mode,
                                                           capsys):
    code = cli.main(["simulate", "--system", worked_system, "--poles", "-1,-2,-3",
                     "--precision", "32", "--mode", mode] + flags)
    assert (code, capsys.readouterr()) == (
        2, ("", f"PrecisionOverflow: {what} beyond the 32-bit range\n"))


@pytest.mark.parametrize("mode, message", [
    ("gain", "state norm exceeded 1e+12 at t = 0.500"),
    ("chain", "derivative produced a non-finite state"),
    ("both", "state norm exceeded 1e+12 at t = 0.500"),
], ids=["gain", "chain", "both"])
def test_simulate_32bit_divergence_exits_typed(tmp_path, mode, message, capsys):
    # the chain-mode stages overflow inside the first step, the gain-mode
    # state passes the guard after it: each ends in one typed line
    path = tmp_path / "fast.txt"
    path.write_text("2 3\n0 1e13 0\n-1e13 0 1\n")
    code = cli.main(["simulate", "--system", str(path), "--poles", "-1,-2", "--T", "1",
                     "--h", "0.5", "--precision", "32", "--mode", mode])
    assert (code, capsys.readouterr()) == (2, ("", f"DivergedState: {message}\n"))


@pytest.mark.parametrize("argv, message", [
    (["--poles", "-1,-2,-3"], "give --system or --family"),
    (["--family", "integer", "--poles", "-1,-2,-3"], "--family integer requires --n"),
    (["--system", "@worked", "--poles", "-1,-2,-3", "--x0", "1,2"], "x0 needs 3 entries"),
], ids=["no-system", "family-without-n", "short-x0"])
def test_simulate_incomplete_input_is_usage_error(worked_system, argv, message, capsys):
    argv = [worked_system if tok == "@worked" else tok for tok in argv]
    assert (cli.main(["simulate"] + argv), capsys.readouterr()) == (1, ("", f"error: {message}\n"))


def test_simulate_family_route(tmp_path):
    out = tmp_path / "trace.csv"
    code = cli.main(["simulate", "--family", "diag", "--n", "4", "--seed", "341",
                     "--poles", "-0.5,-1,-1.5,-2", "--T", "3.0", "--h", "0.05",
                     "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("t,x1,x2,x3,x4")


def test_simulate_family_seed_defaults_to_benchs(capsys):
    # simulate and bench build the same family: behind the seed-341 rotation
    argv = ["simulate", "--family", "diag", "--n", "4", "--poles", "-0.5,-1,-1.5,-2",
            "--T", "0.5", "--h", "0.05"]
    assert cli.main(argv) == 0
    default = capsys.readouterr()
    assert cli.main(argv + ["--seed", str(cli.DEFAULT_SEED)]) == 0
    assert capsys.readouterr() == default
    assert cli.main(argv + ["--seed", "0"]) == 0
    assert capsys.readouterr().out != default.out


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


@pytest.mark.parametrize("n_range, message", [
    ("3..x", "bad --n-range '3..x'"),
    ("5..3", "bad --n-range '5..3': 5 > 3"),
], ids=["not-an-integer", "descending"])
def test_bench_bad_n_range_exits_1(n_range, message, capsys):
    assert cli.main(["bench", "--family", "integer", "--n-range", n_range]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_check_commutators_is_no_subcommand(capsys):
    # the bracket identities are checked by criterion 6 and
    # tests/test_algebroid.py, and printed by demo 02
    assert cli.main(["check-commutators"]) == 1
    # Python versions differ in whether argparse quotes the choices
    last = capsys.readouterr().err.splitlines()[-1].replace("'", "")
    assert last == ("poleplace: error: argument command: invalid choice: check-commutators "
                    "(choose from place, bench, simulate, exact)")


# ---------------------------------------------------------------------------
# Round-trip invariant


def test_system_write_read_bit_identical(tmp_path):
    rng = np.random.default_rng(77)
    A = rng.standard_normal((5, 5))
    B = rng.standard_normal(5)
    path = tmp_path / "sys.txt"
    save_system(path, A, B)
    read = cli._load_system(str(path))
    assert np.array_equal(A, read.A) and np.array_equal(B, read.B)


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
        argvs += [["place", "--help"]]
        codes = [cli.main(argv) for argv in argvs]
    finally:
        cli.build_parser.cache_clear()
    capsys.readouterr()
    assert codes == [1, 0, 1, 0, 0, 0, 0, 0, 0]
    # the top-level parser once, and each of its four subcommand parsers once
    assert built.count("poleplace") == 1
    assert sorted(built) == sorted(["poleplace"] + [f"poleplace {c}" for c in (
        "place", "bench", "simulate", "exact")])


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


def test_bench_checks_its_out_path_before_the_suite_runs(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli.bench, "run_suite", lambda *args: calls.append(args))
    out = str(tmp_path / "missing" / "x")
    code = cli.main(["bench", "--family", "integer", "--n-range", "3..3",
                     "--algos", "ackermann", "--out", out])
    assert (code, len(calls)) == (1, 0)
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_bench_renders_only_what_it_writes(monkeypatch, capsys):
    def no_table(records):
        raise AssertionError("render_table called for CSV on stdout")

    monkeypatch.setattr(cli.bench, "render_table", no_table)
    code = cli.main(["bench", "--family", "integer", "--n-range", "3..3",
                     "--algos", "ackermann", "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out.startswith("family,n,algorithm")


# ---------------------------------------------------------------------------
# Every argv ends in exit 0, 1 or 2


CORPUS = {
    "worked": WORKED_TEXT,
    "unctrl": UNCTRL_TEXT,
    "json": '{"A": [[1, 3, 5], [7, 13, 17], [1, 1, 1]], "B": [1, 1, 1]}',
    "scalar": "[[2, 4]]",
    "zero-b": "2 3\n0 1 0\n1 0 0\n",
    "one-token": "2",
    "negative-header": "-1 -1\n5\n",
    "huge": "3 4\n1e300 3 5 1\n7 13 17 1\n1 1 1 1\n",
    "nan": "1 2\nnan 1\n",
    "ragged": "[[1, 2], [3]]",
    "empty": "",
    "big-integer": '{"A": [[1' + "0" * 400 + ']], "B": [1]}',
    "strings": '{"A": [["2"]], "B": ["1"]}',
    "boolean": '{"A": [[true]], "B": [1]}',
    "deep": "[" * 100000 + "]" * 100000,
    # finite systems whose arithmetic leaves the float64 range (see
    # test_place_past_the_float64_range_ends_in_one_line_or_a_nan_record)
    "underflowed-normal": '{"A": [[1e40, 0], [0, 2e40]], "B": [1e-300, 1e-300]}',
    "nonfinite-loop": '{"A": [[0, 1e-310], [0, 0]], "B": [0, 1e10]}',
    "underflowed-input-norm": '{"A": [[1, 2], [3, 4]], "B": [1e-165, 2e-165]}',
    "underflowed-input-norm-32": '{"A": [[1, 2], [3, 4]], "B": [1e-25, 2e-25]}',
    "cast-lost-input": '{"A": [[1, 2], [3, 4]], "B": [1e-50, 2e-50]}',
    # a placed gain whose closed loop, near 1e299, the verifier scales into
    # [1, 2)
    "scaled-verification": json.dumps({
        "A": [[1.3309487011076512e+299, 8.142003994377372e+298, -1.4481976373557106e+299],
              [9.450851545591335e+297, -1.765628163485951e+299, -1.829211865336894e+299],
              [6.592513054303655e+298, 7.764908350698212e+297, -6.871101922447804e+298]],
        "B": [-2.0874470808711684e+288, -1.2689320356978226e+288, 1.6219609552294485e+287]}),
}
SCALED_POLES = "--poles=-689.7000916003353,-1523.3949195362834,-339.25652229700984"

PLACEMENT_ERRORS = {name for name, cls in vars(errors).items()
                    if isinstance(cls, type) and issubclass(cls, errors.PlacementError)}


def _opt(flag, *values):
    """No flag, or the flag with one of ``values``."""
    return st.one_of(st.just([]), _req(flag, *values))


def _req(flag, *values):
    """The flag with one of ``values``."""
    return st.sampled_from(values).map(lambda v: [flag, v])


def _argv(*parts):
    """The concatenation of the argv pieces that ``parts`` draw."""
    return st.tuples(*parts).map(lambda parts: [tok for part in parts for tok in part])


# well-formed argv lists for 3-state systems, valid and boundary values
_SYSTEM = _req("--system", "@worked", "@unctrl", "@json", "@huge")
_POLES = _req("--poles", "-1,-2,-3", "-3..-1", "-1+2i,-1-2i,-3", "0,0,0")
_OUT = _opt("--out", "@out")
_COMMANDS = [
    _argv(st.just(["place"]), st.one_of(
        _argv(_req("--algo", *sorted(placement.ALGORITHMS)), _POLES),
        _argv(_req("--algo", "ackermann", "algebroid2"),
              _req("--charpoly", "1,6,11,6", "1,0,0,0", "1,-6,11,-6"))),
          _SYSTEM, _opt("--precision", "32", "64"), _opt("--format", "text", "json"), _OUT),
    _argv(st.just(["bench"]), _req("--family", "integer", "diag"),
          _req("--n-range", "3..3", "4", "3..4"),
          _opt("--algos", "ackermann", "algebroid2,varga", "sliding,miminis,determinantal"),
          _opt("--precision", "32", "64", "both"), _opt("--order", "fwd", "rev", "both"),
          _opt("--seed", "0", "341"), _opt("--format", "text", "csv"), _OUT),
    _argv(st.just(["simulate"]),
          st.one_of(_SYSTEM, _argv(_req("--family", "integer", "diag"), st.just(["--n", "3"]),
                                   _opt("--seed", "0", "341"))),
          _POLES, _opt("--mode", "gain", "chain", "both"), _opt("--T", "0.05", "0.1"),
          _opt("--h", "0.01", "0.05"), _opt("--x0", "1,2,3", "0,0,0"),
          _opt("--precision", "32", "64"), _OUT),
    _argv(st.just(["exact"]), _SYSTEM, _req("--poles", "-1,-2,-3", "-3..-1", "0,0,0"),
          _opt("--digits", "0", "5"), _OUT),
]
WELL_FORMED = st.sampled_from(_COMMANDS).flatmap(lambda argv: argv)
# what a malformed argv puts in place of a token, or between two
MALFORMED = ["", "x", "nan", "inf", "-1", "0", "1e400", "-1+2i", "a..b", "--bogus",
             "@missing", "@missing/x"] + [f"@{name}" for name in CORPUS]


@st.composite
def argvs(draw):
    """A well-formed argv, as it is or with one token replaced, dropped or
    inserted."""
    argv = draw(WELL_FORMED)
    i = draw(st.integers(1, len(argv)))
    mutation = draw(st.sampled_from(["none", "none", "replace", "drop", "insert"]))
    if mutation == "insert":
        argv.insert(i, draw(st.sampled_from(MALFORMED)))
    elif mutation != "none" and i < len(argv):
        argv[i:i + 1] = [draw(st.sampled_from(MALFORMED))] if mutation == "replace" else []
    return argv


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for name, text in CORPUS.items():
        (root / name).write_text(text)
    return root


@settings(derandomize=True, max_examples=200, deadline=None)
@given(argvs())
@example(["place", "--algo", "ackermann", "--system", "@worked", "--poles="])
@example(["place", "--algo", "ackermann", "--system", "@big-integer", "--poles", "-1"])
@example(["place", "--algo", "ackermann", "--system", "@one-token", "--poles", "-1"])
@example(["exact", "--system", "@big-integer", "--poles", "-1"])
@example(["simulate", "--system", "@big-integer", "--poles", "-1", "--T", "0.05"])
@example(["exact", "--system", "@worked", "--poles", "-1,-2,-3", "--digits", "5"])
@example(["place", "--algo", "determinantal", "--system", "@underflowed-normal", "--poles=-1,-2"])
@example(["place", "--algo", "algebroid2", "--system", "@nonfinite-loop", "--poles=-1,-2"])
@example(["place", "--algo", "miminis", "--system", "@underflowed-input-norm", "--poles=-1,-2"])
@example(["place", "--algo", "algebroid2", "--system", "@underflowed-input-norm-32",
          "--poles=-1,-2", "--precision", "32"])
@example(["simulate", "--system", "@cast-lost-input", "--poles=-1,-2", "--precision", "32",
          "--T", "0.05"])
@example(["place", "--algo", "algebroid1-solve", "--system", "@scaled-verification",
          SCALED_POLES])
def test_main_ends_every_argv_in_exit_0_1_or_2(corpus, argv):
    # "@name" is the file name in the corpus directory; a RuntimeWarning
    # fails here too (filterwarnings = error)
    argv = [str(corpus / tok[1:]) if tok.startswith("@") else tok for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    # a malformed token can be a relative --out path: write it in a new
    # directory each time; and main runs in a fresh decimal context and
    # numpy error state, so an argv that changes either fails on every replay
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as cwd, decimal.localcontext(), np.errstate():
        found = decimal.getcontext().prec, np.geterr()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(home)
        left = decimal.getcontext().prec, np.geterr()
    assert left == found  # main leaves the process as it found it
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code == 2:
        assert len(lines) == 1 and lines[0].split(":")[0] in PLACEMENT_ERRORS, lines
    if code == 1:
        # argparse prints its usage line before its error line
        assert lines and "error:" in lines[-1], lines
