"""Command-line interface.

Subcommands: place, bench, simulate, exact.
Exit codes: 0 success, 1 usage error (bad flags, malformed files, or input
the library rejects, such as a target set the method cannot take), 2
algorithmic failure (uncontrollable system, singular shift, parallel
hyperplanes, ...).  Each input is checked by the library function that
uses it.  Diagnostics go to stderr, results to stdout or --out.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import json
import math
import sys as _sys
from decimal import Decimal

import numpy as np

from . import bench, exactring, linalg, placement, sim
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
    ranges a..b, each counted before it is expanded; a range's poles stay
    ints, exact however large, for the method that takes them to check."""
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
    return [v for part in parts for v in part]


def parse_float_list(text: str):
    with _usage_error(ValueError, f"bad number list {text!r}: "):
        return [float(tok) for tok in text.replace(",", " ").split()]


def _json_floats(data, what: str) -> np.ndarray:
    """A parsed JSON value as a float64 array; ValueError names a value that
    is no array of numbers (numpy would take a string, boolean or null)."""
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a JSON array, got {type(data).__name__}")
    entries = list(data)
    for x in entries:  # each nested list is appended, and walked in turn
        if isinstance(x, list):
            entries += x
        elif type(x) not in (int, float):
            raise ValueError(f"{what} must hold only numbers, got {json.dumps(x)}")
    try:
        return np.asarray(data, dtype=np.float64)
    except OverflowError as exc:
        raise ValueError(f"{what} has an integer beyond the float64 range: {exc}") from exc


def _read_system(path):
    """The float64 (A, B) of a system file: the n x (n+1) block [A | B] as
    a line "rows cols" and then the row-major entries, or as a JSON
    array-of-arrays (a flat array is one row); or a JSON object
    {"A": [[...]], "B": [...]}.  ValueError names what is malformed."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read().strip()
    if not text:
        raise ValueError("empty matrix input")
    if text[0] == "{":
        data = json.loads(text)
        for key in ("A", "B"):
            if key not in data:
                raise ValueError(f"system object has no {key!r} entry")
        return _json_floats(data["A"], "A"), _json_floats(data["B"], "B")
    if text[0] == "[":
        M = _json_floats(json.loads(text), "matrix")
        M = M[None, :] if M.ndim == 1 else M
    else:
        tokens = text.split()
        try:
            rows, cols = map(int, tokens[:2])
        except ValueError:
            rows = cols = -1
        if min(rows, cols) < 0:
            raise ValueError(f"matrix header {' '.join(tokens[:2])!r} is not two non-negative integers")
        vals = [float(tok) for tok in tokens[2:]]
        if len(vals) != rows * cols:
            raise ValueError(f"matrix body has {len(vals)} entries, expected {rows * cols}")
        M = np.array(vals, dtype=np.float64).reshape(rows, cols)
    n = M.shape[0]
    if M.shape[1] != n + 1:
        raise ValueError(f"system matrix must be n x (n+1) ([A | B]); got {M.shape}")
    return M[:, :n], M[:, n]


def _load_system(path):
    # a json.JSONDecodeError is a ValueError; JSON nested past the
    # interpreter's recursion limit raises RecursionError
    with _usage_error((OSError, ValueError, RecursionError), f"cannot read system file {path}: "):
        return placement.StateSpace(*_read_system(path))


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
        given = {"poles": parse_pole_list(args.poles, sys_.n)}
    elif args.algo not in ("ackermann", "algebroid2"):
        raise UsageError(f"--charpoly works with ackermann or algebroid2, not {args.algo}")
    else:
        given = {"charpoly": parse_float_list(args.charpoly)}
    K = placement.ALGORITHMS[args.algo](sys_, precision=precision, **given)
    # the entry has checked the targets: a charpoly's poles are found after it
    targets = given.get("poles") or linalg.eigenvalues(linalg.companion_matrix(given["charpoly"]))
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
    families = [bench.ExampleFamily(args.family, n, args.seed) for n in range(lo, hi + 1)]
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    precisions = {"32": [32], "64": [64], "both": [32, 64]}[args.precision]
    orders = {"fwd": ["forward"], "rev": ["reversed"],
              "both": ["forward", "reversed"]}[args.order]
    if args.out:
        _emit("", args.out)  # an unwritable path fails before the suite runs
    with _usage_error(ValueError):  # an unknown algorithm, a size the family cannot build
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
        with _usage_error(ValueError):  # a size the family cannot build
            sys_ = bench.ExampleFamily(args.family, args.n, args.seed).make()
    else:
        raise UsageError("give --system or --family")
    poles = parse_pole_list(args.poles, sys_.n)
    x0 = (parse_float_list(args.x0) if args.x0
          else [float(k) for k in range(1, sys_.n + 1)])
    modes = ["gain", "chain"] if args.mode == "both" else [args.mode]
    with _usage_error(ValueError):  # a horizon, step or x0 the simulation rejects
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


def _decimals(f, digits: int) -> str:
    """The rational ``f`` rounded to ``digits`` places, ties to even, in
    decimal: exact, and independent of the ``decimal`` context.  The
    rounded int goes through ``Decimal``, which, unlike ``str``, renders
    an int of any number of digits."""
    q, r = divmod(abs(f.numerator) * 10**digits, f.denominator)
    if 2 * r > f.denominator or (2 * r == f.denominator and q % 2):  # ties to even
        q += 1
    return f"{Decimal((int(f < 0), Decimal(q).as_tuple().digits, -digits)):f}"


def _cmd_exact(args) -> int:
    if args.digits < 0:
        raise UsageError(f"--digits must be >= 0, got {args.digits}")
    sys_ = _load_system(args.system)
    poles = parse_pole_list(args.poles, sys_.n)
    if any(z.imag != 0 or z.real != int(z.real) for z in poles):
        raise UsageError("exact placement requires integer poles")
    ints = [int(z.real) for z in poles]
    cp = [1]
    for r in ints:
        cp = [a - r * b for a, b in zip(cp + [0], [0] + cp)]
    # place_exact converts each entry with int() and rejects a non-integer
    # one; a float list keeps an integer past 2**63, where an int64 cast wraps
    with _usage_error(ValueError):
        gain = exactring.place_exact(sys_.A.tolist(), sys_.B.tolist(), cp)
    lines = [f"{f}  ~  {_decimals(f, args.digits)}" if args.digits else str(f)
             for f in exactring.ratio(gain)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


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
    ss.add_argument("--seed", type=int, default=DEFAULT_SEED)
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
    except (UsageError, InvalidPoleSet) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except PlacementError as exc:
        print(f"{type(exc).__name__}: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
