"""Command-line interface.

Subcommands: place, bench, simulate, exact, check-commutators.
Exit codes: 0 success, 1 usage error (bad flags, malformed files or pole
lists), 2 algorithmic failure (uncontrollable system, singular shift,
parallel hyperplanes, ...).  Diagnostics go to stderr, results to stdout
or --out.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import json
import math
import sys as _sys

import numpy as np

from . import algebroid, bench, exactring, linalg, placement, sim
from .errors import InvalidPoleSet, PlacementError
from .linalg import as_precision

DEFAULT_SEED = 341


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _usage_error(errors, prefix: str = ""):
    """Raise an exception of type ``errors`` from the block as a UsageError:
    ``prefix`` and then the exception's own message."""
    try:
        yield
    except errors as exc:
        raise UsageError(f"{prefix}{exc}") from exc


def parse_pole_list(text: str, n: int):
    """Parse the n poles of an n-state system: comma-separated finite reals,
    complex literals with a trailing i (e.g. -1+2i), and inclusive integer
    ranges a..b, each counted before it is expanded."""
    parts, count = [], 0
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            lo_s, hi_s = token.split("..", 1)
            with _usage_error(ValueError, f"bad range {token!r}: "):
                lo, hi = int(lo_s), int(hi_s)
            step = 1 if hi >= lo else -1
            parts.append(range(lo, hi + step, step))
            count += abs(hi - lo) + 1
            continue
        try:
            z = complex(token.replace("i", "j"))
        except ValueError as exc:
            raise UsageError(f"bad pole literal {token!r}") from exc
        if not cmath.isfinite(z):
            raise UsageError(f"pole {token!r} is not finite")
        parts.append((z,))
        count += 1
    if not count:
        raise UsageError("empty pole list")
    if count != n:
        raise UsageError(f"system has n={n}, got {count} poles")
    return [complex(v) for part in parts for v in part]


def _parse_poles(text: str, n: int):
    """Parse a --poles value for an n-state system: conjugate-closed,
    one pole per state."""
    poles = parse_pole_list(text, n)
    with _usage_error(InvalidPoleSet):
        linalg.pole_steps(poles)
    return poles


def parse_float_list(text: str):
    with _usage_error(ValueError, f"bad number list {text!r}: "):
        return [float(tok) for tok in text.replace(",", " ").split()]


def _load_system(path):
    # a json.JSONDecodeError is a ValueError; JSON nested past the
    # interpreter's recursion limit raises RecursionError
    with _usage_error((OSError, ValueError, RecursionError), f"cannot read system file {path}: "):
        return placement.StateSpace(*linalg.load_system(path))


def _family(kind: str, n: int, seed):
    """A family instance and its system; a size it cannot build is a usage error."""
    family = bench.ExampleFamily(kind, n, seed)
    with _usage_error(ValueError):
        return family, family.make()


def _json_number(x):
    """x as a float, or None (JSON null) when it is not finite: JSON has
    no NaN or Infinity."""
    x = float(x)
    return x if math.isfinite(x) else None


def _emit(text: str, out_path):
    """Write text to out_path, or to stdout when no path is given."""
    if out_path:
        with _usage_error(OSError, f"cannot write {out_path}: "):
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
    else:
        _sys.stdout.write(text)


# ---------------------------------------------------------------------------
# place


def _cmd_place(args) -> int:
    sys_ = _load_system(args.system)
    precision = as_precision(args.precision)
    if args.poles is not None:
        targets = _parse_poles(args.poles, sys_.n)
        given = {"poles": targets}
    elif args.algo not in ("ackermann", "algebroid2"):
        raise UsageError(f"--charpoly works with ackermann or algebroid2, not {args.algo}")
    else:
        with _usage_error(InvalidPoleSet):
            cp = placement.given_charpoly(sys_.n, None, parse_float_list(args.charpoly))
        given = {"charpoly": cp}
        targets = linalg.eigenvalues(linalg.companion_matrix(cp))
    K = placement.ALGORITHMS[args.algo](sys_, precision=precision, **given)
    rec = bench.evaluate_placement(sys_, targets, K, algorithm=args.algo,
                                   precision=precision)
    if args.format == "json":
        payload = {
            "algorithm": args.algo,
            "precision": precision.bits,
            "gain": [_json_number(g) for g in K],
            "achieved": [[_json_number(z.real), _json_number(z.imag)] for z in rec.achieved],
            "max_abs_error": _json_number(rec.max_abs_error),
            "complex_pair_count": rec.complex_pair_count,
        }
        _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.out)
    else:
        lines = ["K = " + "  ".join(f"{g:.12g}" for g in K), "",
                 "achieved eigenvalues:"]
        for z, t in zip(rec.achieved,
                        sorted(targets, key=lambda z: (complex(z).real, complex(z).imag))):
            lines.append(f"  {z.real:+.12e} {z.imag:+.12e}j   (target {complex(t)})")
        lines.append(f"max |error| = {rec.max_abs_error:.3e}")
        lines.append(f"complex pairs = {rec.complex_pair_count}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# bench


def _cmd_bench(args) -> int:
    lo_s, _, hi_s = args.n_range.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s or lo_s)
    except ValueError as exc:
        raise UsageError(f"bad --n-range {args.n_range!r}") from exc
    if lo > hi:
        raise UsageError(f"bad --n-range {args.n_range!r}: {lo} > {hi}")
    families = [_family(args.family, n, args.seed)[0] for n in range(lo, hi + 1)]
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for a in algos:
        if a not in placement.ALGORITHMS:
            raise UsageError(f"unknown algorithm {a!r}")
    precisions = {"32": [32], "64": [64], "both": [32, 64]}[args.precision]
    orders = {"fwd": ["forward"], "rev": ["reversed"],
              "both": ["forward", "reversed"]}[args.order]
    if args.out:
        _emit("", args.out)  # an unwritable path fails before the suite runs
    records = bench.run_suite(families, algos, precisions, orders)
    # render only what is written
    if args.out:
        as_csv = args.out.endswith(".csv") or args.format == "csv"
        table = bench.render_table(records)
        _emit(bench.render_csv(records) if as_csv else table, args.out)
        _sys.stdout.write(table)
    else:
        _sys.stdout.write(bench.render_csv(records) if args.format == "csv"
                          else bench.render_table(records))
    return 0


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    precision = as_precision(args.precision)
    if args.system:
        sys_ = _load_system(args.system)
    elif args.family:
        if args.n is None:
            raise UsageError(f"--family {args.family} requires --n")
        _, sys_ = _family(args.family, args.n, args.seed)
    else:
        raise UsageError("give --system or --family")
    poles = _parse_poles(args.poles, sys_.n)
    x0 = (parse_float_list(args.x0) if args.x0
          else [float(k) for k in range(1, sys_.n + 1)])
    if len(x0) != sys_.n:
        raise UsageError(f"x0 needs {sys_.n} entries")
    modes = ["gain", "chain"] if args.mode == "both" else [args.mode]
    with _usage_error(ValueError):
        T = sim.default_horizon(poles) if args.T is None else args.T
        configs = {mode: sim.SimConfig(T=T, h=args.h, x0=x0, feedback=mode) for mode in modes}
    traces = {mode: sim.simulate(sys_, poles, cfg, precision=precision)
              for mode, cfg in configs.items()}
    primary = traces[modes[0]]
    _emit(primary.to_csv(), args.out)
    if len(modes) == 2:
        diff = sim.trace_diff(traces["gain"], traces["chain"])
        sup = float(np.max(np.abs(diff.states)))
        _sys.stderr.write(f"max |gain - chain| over the trajectory: {sup:.6e}\n")
    endpoint = float(np.linalg.norm(primary.states[-1]))
    _sys.stderr.write(f"||x(T)|| = {endpoint:.6e} at T = {T}\n")
    return 0


# ---------------------------------------------------------------------------
# exact


def _cmd_exact(args) -> int:
    if args.digits < 0:
        raise UsageError(f"--digits must be >= 0, got {args.digits}")
    sys_ = _load_system(args.system)
    A = sys_.A
    B = sys_.B
    if not (np.all(A == np.round(A)) and np.all(B == np.round(B))):
        raise UsageError("exact placement requires integer A and B")
    poles = parse_pole_list(args.poles, sys_.n)
    if any(z.imag != 0 or z.real != int(z.real) for z in poles):
        raise UsageError("exact placement requires integer poles")
    ints = [int(z.real) for z in poles]
    cp = [1]
    for r in ints:
        cp = [a - r * b for a, b in zip(cp + [0], [0] + cp)]
    # place_exact takes each entry with int(), exact for any integer-valued
    # float; an int64 cast would wrap at 2**63
    gain = exactring.place_exact(A.tolist(), B.tolist(), cp)
    fractions = exactring.ratio(gain)
    lines = [str(f) for f in fractions]
    if args.digits:
        from decimal import Decimal, getcontext
        getcontext().prec = args.digits + 5
        lines = [
            f"{f}  ~  {Decimal(f.numerator) / Decimal(f.denominator):.{args.digits}f}"
            for f in fractions
        ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# check-commutators


def _cmd_check_commutators(args) -> int:
    with _usage_error(ValueError):
        rng = np.random.default_rng(args.seed)
    results = []

    A1 = np.array([[1.0, 3, 5], [7, 13, 17], [1, 1, 1]])
    A2 = np.array([[2.0, 4, 6], [13, 3, 1], [7, 5, 3]])

    anchor = algebroid.OrthogonalAnchor.from_qr_rows(
        np.array([[-21.0, -5, 5], [1, 38, 49], [-4, 12, 3]]))
    lhs = algebroid.project(anchor, algebroid.orthogonal_bracket(A1, A2, anchor))
    r1 = algebroid.project(anchor, A1)
    r2 = algebroid.project(anchor, A2)
    rhs = r1 @ r2 - r2 @ r1
    err = float(np.max(np.abs(lhs - rhs)))
    results.append(("orthogonal 3x3 identity", err <= 1e-9, f"max err {err:.2e}"))
    ref = np.array([[16.7141, 89.8467], [83.5973, -16.7141]])
    val_err = float(np.max(np.abs(np.abs(rhs) - np.abs(ref))))
    signs_match = bool(np.max(np.abs(rhs - ref)) <= 5e-4)
    results.append(("orthogonal 3x3 reference values",
                    val_err <= 5e-4,
                    "exact basis match" if signs_match else "match up to basis signs"))

    omega = [1, 2, 3]
    g = [14, -2, -3]
    an1 = algebroid.oblique_anchor_apply_exact(A1.astype(int), omega, g)
    an1_ref = np.array([[-251, -445, -583], [43, 77, 101], [55, 97, 127]])
    results.append(("oblique anchor of A1", np.array_equal(an1.astype(object), an1_ref.astype(object)),
                    "integer-exact"))
    an2 = algebroid.oblique_anchor_apply_exact(A2.astype(int), omega, g)
    an2_ref = np.array([[-684, -346, -232], [111, 53, 35], [154, 80, 54]])
    results.append(("oblique anchor of A2", np.array_equal(an2.astype(object), an2_ref.astype(object)),
                    "integer-exact"))
    bracket = algebroid.oblique_bracket_exact(A1.astype(int), A2.astype(int), omega, g)
    anchored = algebroid.oblique_anchor_apply_exact(bracket, omega, g)
    commut = an1 @ an2 - an2 @ an1
    ref_b = np.array([[-111539, -238613, -323187],
                      [18346, 39202, 53088],
                      [24949, 53403, 72337]])
    ok = (np.array_equal(anchored, commut)
          and np.array_equal(anchored.astype(object), ref_b.astype(object)))
    results.append(("oblique algebroid identity", ok, "integer-exact"))

    worst_anti = worst_orth = 0.0
    oblique_ok = projector_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 7))
        N1 = rng.integers(-9, 10, (n, n))
        N2 = rng.integers(-9, 10, (n, n))
        M1, M2 = N1.astype(float), N2.astype(float)
        anc = algebroid.OrthogonalAnchor.from_direction(rng.standard_normal(n))
        br = algebroid.orthogonal_bracket(M1, M2, anc)
        worst_anti = max(worst_anti, float(np.max(np.abs(
            br + algebroid.orthogonal_bracket(M2, M1, anc)))))
        p1 = algebroid.project(anc, M1)
        p2 = algebroid.project(anc, M2)
        worst_orth = max(worst_orth, float(np.max(np.abs(
            algebroid.project(anc, br) - (p1 @ p2 - p2 @ p1)))))
        w = rng.integers(-5, 6, n)
        gg = rng.integers(-5, 6, n)
        if int(w @ gg) == 0:
            continue
        lhs_o = algebroid.oblique_anchor_apply_exact(
            algebroid.oblique_bracket_exact(N1, N2, w, gg), w, gg)
        a1 = algebroid.oblique_anchor_apply_exact(N1, w, gg)
        a2 = algebroid.oblique_anchor_apply_exact(N2, w, gg)
        oblique_ok &= np.array_equal(lhs_o, a1 @ a2 - a2 @ a1)
        # G^2 = G exactly when the anchor map I - G is idempotent
        projector_ok &= np.array_equal(algebroid.oblique_anchor_apply_exact(a1, w, gg), a1)
    results.append(("random antisymmetry", worst_anti <= 1e-9, f"max {worst_anti:.2e}"))
    results.append(("random orthogonal identity", worst_orth <= 1e-9, f"max {worst_orth:.2e}"))
    results.append(("random oblique identity", oblique_ok, "integer-exact"))
    results.append(("projector law G^2 = G", projector_ok, "integer-exact"))

    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, ok, detail in results:
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name.ljust(width)}  {detail}")
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later
    call in the process (a build costs over ten parses)."""
    p = argparse.ArgumentParser(
        prog="poleplace",
        description="Single-input pole placement: nine float algorithm "
                    "variants, an exact rational oracle, benchmarks, and simulation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("place", help="compute a feedback gain")
    sp.add_argument("--algo", required=True, choices=sorted(placement.ALGORITHMS))
    sp.add_argument("--system", required=True, help="system file ([A|B] or JSON)")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--poles", help="e.g. '-1,-2,-3' or '-1..-10' or '-1+2i,-1-2i'")
    g.add_argument("--charpoly", help="monic coefficients '1,6,11,6'")
    sp.add_argument("--precision", choices=["32", "64"], default="64")
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_place)

    sb = sub.add_parser("bench", help="run the comparison suite")
    sb.add_argument("--family", required=True, choices=["integer", "diag"])
    sb.add_argument("--n-range", required=True, help="e.g. 10..12")
    sb.add_argument("--algos", default="algebroid1,algebroid2")
    sb.add_argument("--precision", choices=["32", "64", "both"], default="64")
    sb.add_argument("--order", choices=["fwd", "rev", "both"], default="fwd")
    sb.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sb.add_argument("--format", choices=["text", "csv"], default="text")
    sb.add_argument("--out")
    sb.set_defaults(fn=_cmd_bench)

    ss = sub.add_parser("simulate", help="closed-loop RK4 run")
    ss.add_argument("--system")
    ss.add_argument("--family", choices=["integer", "diag"])
    ss.add_argument("--n", type=int)
    ss.add_argument("--seed", type=int, default=None)
    ss.add_argument("--poles", required=True)
    ss.add_argument("--mode", choices=["gain", "chain", "both"], default="gain")
    ss.add_argument("--T", type=float, default=None)
    ss.add_argument("--h", type=float, default=0.01)
    ss.add_argument("--x0", help="comma-separated initial state (default 1..n)")
    ss.add_argument("--precision", choices=["32", "64"], default="64")
    ss.add_argument("--out")
    ss.set_defaults(fn=_cmd_simulate)

    se = sub.add_parser("exact", help="exact rational gain for integer systems")
    se.add_argument("--system", required=True)
    se.add_argument("--poles", required=True, help="integer poles, e.g. '-1..-10'")
    se.add_argument("--digits", type=int, default=0,
                    help="also render each entry with this many decimals")
    se.add_argument("--out")
    se.set_defaults(fn=_cmd_exact)

    sc = sub.add_parser("check-commutators",
                        help="verify the bracket identities and reference values")
    sc.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sc.set_defaults(fn=_cmd_check_commutators)

    return p


def _join_value_flags(argv):
    """Merge '--poles -1,-2' into '--poles=-1,-2' so argparse does not
    mistake leading-dash values for option names."""
    joined = []
    i = 0
    value_flags = {"--poles", "--charpoly", "--x0", "--n-range"}
    while i < len(argv):
        tok = argv[i]
        if tok in value_flags and i + 1 < len(argv):
            joined.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            joined.append(tok)
            i += 1
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = _sys.argv[1:]
    argv = _join_value_flags(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; keep 0 for --help
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except PlacementError as exc:
        print(f"{type(exc).__name__}: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
