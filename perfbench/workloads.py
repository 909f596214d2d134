"""The three benchmark workloads: their items, and the checks on each output.

An item is one closed-loop request: one or two ``poleplace`` CLI
invocations that run back to back through ``poleplace.cli.main(argv)``
in this process.  Every item has a stable key; the order in which a pass
issues its items is the only thing the ``--seed`` changes, so the
outputs, and hence the fingerprint, are the same for every seed.

Nothing here imports numpy or poleplace at module level, so the runner
can pin the BLAS thread count before the first numpy import.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass
from fractions import Fraction

# The nine ALGORITHMS entries of the package, fixed here so that a rename or
# removal in the program shows as failing items instead of a smaller workload.
ALGORITHMS = (
    "ackermann", "ackermann-factored", "determinantal", "sliding",
    "algebroid1", "algebroid1-solve", "algebroid2", "miminis", "varga",
)

STUDY_N = range(8, 13)
ORACLE_N = range(12, 31)
SIM_CASES = {
    # integer family, n = 10, 64-bit, 50 RK4 steps per mode
    "int10": ("--family", "integer", "--n", "10", "--poles", "-1..-10",
              "--T", "0.5", "--h", "0.01"),
    # the slow scaled-diagonal case of demo 05 at 32 bits, 50 steps per mode
    "diag7": ("--family", "diag", "--n", "7", "--seed", "341",
              "--poles", ",".join(f"-0.0{k}" for k in range(1, 8)),
              "--T", "12.5", "--h", "0.25", "--precision", "32"),
}
SIM_STEPS = 50
SIM_REPEATS = 10  # items of each case per pass

# Exit codes of the CLI: 0 success, 1 usage error, 2 typed PlacementError.
EXIT_OK, EXIT_TYPED = 0, 2
CRASH = -1


@dataclass(frozen=True)
class Item:
    key: str
    commands: tuple  # argv tuples, run in order as one item
    n: int = 0       # system dimension, where the item has one


@dataclass(frozen=True)
class Outcome:
    """Exit code, stdout and stderr of one CLI invocation."""

    rc: int
    out: str
    err: str


def run_item(main, item: Item) -> tuple:
    """Run every command of an item through ``main`` with captured output.

    An exception escaping ``main`` is a crash of the program: it is
    recorded as exit code ``CRASH`` with its traceback, and the next item
    still runs.
    """
    outcomes = []
    for argv in item.commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(list(argv))
            except Exception:  # noqa: BLE001 - the benchmark must keep running
                rc = CRASH
                err.write(traceback.format_exc())
        outcomes.append(Outcome(rc, out.getvalue(), err.getvalue()))
    return tuple(outcomes)


def item_digest(key: str, outcomes) -> str:
    h = hashlib.sha256(key.encode())
    for o in outcomes:
        for part in (str(o.rc), o.out, o.err):
            data = part.encode()
            h.update(len(data).to_bytes(8, "little"))
            h.update(data)
    return h.hexdigest()


def pass_fingerprint(digests: dict) -> str:
    """SHA-256 over one pass, items taken in key order (seed-independent)."""
    h = hashlib.sha256()
    for key in sorted(digests):
        h.update(f"{key}:{digests[key]}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Exact check of a rational gain


def _int_solve(M, b):
    """Fraction-free solve of the integer system M x = b.

    Returns (d, y) with d = det(M) and y = d x, both integral (Cramer),
    or (0, None) when M is singular.  Bareiss elimination keeps every
    intermediate an exact integer minor.
    """
    n = len(M)
    a = [list(row) + [bi] for row, bi in zip(M, b)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        rk, p = a[k], a[k][k]
        for i in range(k + 1, n):
            ri, f = a[i], a[i][k]
            for j in range(k + 1, n + 1):
                ri[j] = (p * ri[j] - f * rk[j]) // prev
            ri[k] = 0
        prev = p
    det = a[n - 1][n - 1]
    y = [0] * n
    for i in range(n - 1, -1, -1):
        s = det * a[i][n] - sum(a[i][j] * y[j] for j in range(i + 1, n))
        y[i] = s // a[i][i]
    return sign * det, [sign * v for v in y]


def exact_gain_error(A, B, gain, poles):
    """None if ``gain`` places every pole exactly, else a message.

    For each requested lambda outside the spectrum of A, a gain K assigns
    it iff K (A - lambda I)^-1 B = 1.  A, B and the poles are integers and
    K is rational, so the test runs in exact integer arithmetic.
    """
    n = len(B)
    den = math.lcm(*(f.denominator for f in gain))
    num = [f.numerator * (den // f.denominator) for f in gain]
    for lam in poles:
        M = [[A[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
        d, y = _int_solve(M, B)
        if y is None:
            return f"pole {lam} is an eigenvalue of A; cannot check"
        if sum(k * v for k, v in zip(num, y)) != den * d:
            return f"K (A - ({lam}) I)^-1 B != 1"
    return None


# ---------------------------------------------------------------------------
# Workloads


def _finite_floats(text: str, expected: int):
    vals = [float(v) for v in text.split(";")] if text else []
    return len(vals) == expected and all(math.isfinite(v) for v in vals)


def _complex(text: str) -> complex:
    # Under numpy 2 the CSV writes each real part as "np.float64(<repr>)",
    # the repr of a numpy scalar; read through it, the value is intact.
    if text.startswith("np.float64("):
        real, imag = text[len("np.float64("):].split(")", 1)
        return complex(float(real), float(imag.rstrip("j")))
    return complex(text)


def _finite_complexes(text: str, expected: int):
    vals = [_complex(v) for v in text.split(";")] if text else []
    return len(vals) == expected and all(
        math.isfinite(z.real) and math.isfinite(z.imag) for z in vals)


def integer_family(n):
    """The package's all-integer stress family (``bench.gen_integer_example``)
    as integer lists: first row 1..n, ones on the subdiagonal and down the
    last column, -1 down the first column from the third row; B = ones."""
    A = [[0] * n for _ in range(n)]
    A[0] = list(range(1, n + 1))
    for i in range(1, n):
        A[i][i - 1] = 1
        A[i][n - 1] = 1
        if i >= 2:
            A[i][0] = -1
    return A, [1] * n


def integer_charpoly(roots):
    """Monic integer coefficients, degree-descending, of prod (s - r)."""
    cp = [1]
    for r in roots:
        cp = [a - r * b for a, b in zip(cp + [0], [0] + cp)]
    return cp


def gain_bits(gain) -> int:
    """Largest bit length of an unsimplified exact gain's integers."""
    return max(abs(gain.denominator).bit_length(),
               *(abs(v).bit_length() for v in gain.numerator))


class Workload:
    name = ""

    def typed_errors(self, outcomes) -> int:
        """Typed PlacementError outcomes among one item's commands."""
        return sum(1 for o in outcomes if o.rc == EXIT_TYPED)

    def gain_bits(self) -> int:
        return 0


class StudyInteger(Workload):
    """``bench`` on one (n, algorithm) cell of the integer-family study."""

    name = "study-integer"

    def prepare(self, workdir):
        return [
            Item(f"n={n:02d} {algo}",
                 (("bench", "--family", "integer", "--n-range", f"{n}..{n}",
                   "--algos", algo, "--precision", "both", "--order", "both",
                   "--format", "csv"),), n)
            for n in STUDY_N for algo in ALGORITHMS
        ]

    def check(self, item, outcomes):
        (o,) = outcomes
        if o.rc != EXIT_OK:
            return f"exit {o.rc}: {o.err.strip()[-200:]}"
        n = item.n
        algo = item.key.split()[1]
        rows = list(csv.DictReader(io.StringIO(o.out)))
        if len(rows) != 4:
            return f"{len(rows)} CSV rows, expected 4"
        combos = set()
        for r in rows:
            if (r["family"], r["n"], r["algorithm"]) != ("integer", str(n), algo):
                return f"row for {r['family']} n={r['n']} {r['algorithm']}"
            combos.add((r["precision"], r["pole_order"]))
            if r["failure"]:
                continue
            if not (_finite_floats(r["gain"], n)
                    and _finite_complexes(r["achieved"], n)
                    and math.isfinite(float(r["max_abs_error"]))):
                return f"non-finite or missing gain/spectrum at {r['precision']} bits"
        if combos != {(p, o) for p in ("32", "64") for o in ("forward", "reversed")}:
            return f"precision/order cells {sorted(combos)}"
        return None

    def typed_errors(self, outcomes):
        rows = csv.DictReader(io.StringIO(outcomes[0].out))
        return sum(1 for r in rows if r["failure"])


class OracleDrift(Workload):
    """``exact`` then ``place --algo algebroid2`` on the integer family."""

    name = "oracle-drift"

    def prepare(self, workdir):
        items = []
        for n in ORACLE_N:
            A, B = integer_family(n)
            path = os.path.join(workdir, f"integer-{n}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"{n} {n + 1}\n")
                fh.writelines(" ".join(map(str, row + [b])) + "\n"
                              for row, b in zip(A, B))
            poles = f"-1..-{n}"
            items.append(Item(f"n={n:02d}", (
                ("exact", "--system", path, "--poles", poles),
                ("place", "--algo", "algebroid2", "--system", path,
                 "--poles", poles, "--format", "json"),
            ), n))
        return items

    def check(self, item, outcomes):
        exact, place = outcomes
        n = item.n
        if exact.rc == EXIT_OK:
            try:
                gain = [Fraction(line) for line in exact.out.split()]
            except ValueError:
                return "exact printed a non-rational"
            if len(gain) != n:
                return f"exact printed {len(gain)} entries, expected {n}"
            A, B = integer_family(n)
            msg = exact_gain_error(A, B, gain, range(-1, -n - 1, -1))
            if msg:
                return f"exact gain wrong: {msg}"
        elif exact.rc != EXIT_TYPED:
            return f"exact exit {exact.rc}: {exact.err.strip()[-200:]}"
        if place.rc == EXIT_OK:
            try:
                rec = json.loads(place.out)
            except json.JSONDecodeError:
                return "place printed invalid JSON"
            gain, achieved = rec.get("gain", []), rec.get("achieved", [])
            if not (len(gain) == n and all(math.isfinite(g) for g in gain)
                    and len(achieved) == n
                    and all(math.isfinite(v) for z in achieved for v in z)):
                return "place gain or spectrum missing or non-finite"
        elif place.rc != EXIT_TYPED:
            return f"place exit {place.rc}: {place.err.strip()[-200:]}"
        return None

    def gain_bits(self):
        """Largest bit length in the unsimplified exact gains of the workload."""
        from poleplace import exactring

        return max(gain_bits(exactring.place_exact(
            *integer_family(n), integer_charpoly(range(-1, -n - 1, -1))))
            for n in ORACLE_N)


class ClosedLoop(Workload):
    """``simulate --mode both`` on two fixed cases, mixed in equal parts."""

    name = "closed-loop"

    def prepare(self, workdir):
        return [Item(f"{case} #{r:02d}", (("simulate", *args, "--mode", "both"),))
                for case, args in SIM_CASES.items()
                for r in range(1, SIM_REPEATS + 1)]

    def check(self, item, outcomes):
        (o,) = outcomes
        if o.rc != EXIT_OK:
            return f"exit {o.rc}: {o.err.strip()[-200:]}"
        lines = o.out.splitlines()
        if len(lines) != SIM_STEPS + 2:
            return f"trace has {len(lines) - 1} rows, expected {SIM_STEPS + 1}"
        try:
            vals = [float(v) for line in lines[1:] for v in line.split(",")]
        except ValueError:
            return "trace holds a non-number"
        if not all(math.isfinite(v) for v in vals):
            return "trace holds a non-finite value"
        diff = [line for line in o.err.splitlines()
                if line.startswith("max |gain - chain| over the trajectory:")]
        if len(diff) != 1 or not math.isfinite(float(diff[0].rsplit(":", 1)[1])):
            return "max |gain - chain| line missing or non-finite"
        return None


WORKLOADS = {w.name: w for w in (StudyInteger(), OracleDrift(), ClosedLoop())}
