"""Example families, placement evaluation, and comparison tables.

The two structured families here drive the conditioning studies: an
all-integer family whose controllability matrix degrades quickly with
dimension, and a scaled-diagonal family hidden behind a random
orthogonal similarity.  ``run_suite`` reproduces the comparison tables
(algorithm x dimension x precision x pole order) and records
"bifurcations": intended real closed-loop eigenvalues that collapse
into complex conjugate pairs through rounding.
"""

from __future__ import annotations

import cmath
import io
from dataclasses import dataclass

import numpy as np

from .errors import FactorizationError, PlacementError
from .exactring import controllability_det_exact
from .linalg import (
    BITS64,
    THRESHOLDS,
    Precision,
    _all_finite,
    _identity,
    as_precision,
    eigenvalues,
    qr_decompose,
)
from .placement import ALGORITHMS, StateSpace


def gen_integer_example(n: int) -> StateSpace:
    """The all-integer family: first row 1..n, shifted identity with a
    ones column, -1 entries down the first column from row 3; B = ones.

    Controllable for every n here, but with a rapidly worsening
    controllability matrix, which makes it the standard stress case.
    """
    if n < 3:
        raise ValueError("integer example needs n >= 3")
    A = np.zeros((n, n))
    A[0, :] = np.arange(1, n + 1)
    A[1:, : n - 1] = _identity(n - 1, A.dtype)
    A[1:, -1] = 1.0
    A[2:, 0] = -1.0
    return StateSpace(A, np.ones(n))


def gen_scaled_diagonal(n: int, seed: int | None = None) -> StateSpace:
    """diag(1, 2^-2, ..., n^-2) with B = ones, optionally conjugated by
    a seeded random orthogonal similarity (QR of a standard-normal
    matrix under this package's sign convention)."""
    if n < 1:
        raise ValueError("scaled-diagonal example needs n >= 1")
    Abar = np.diag(1.0 / np.arange(1, n + 1) ** 2)
    Bbar = np.ones(n)
    if seed is None:
        return StateSpace(Abar, Bbar)
    rng = np.random.default_rng(seed)
    Q, _ = qr_decompose(rng.standard_normal((n, n)))
    return StateSpace(Q.T @ Abar @ Q, Q.T @ Bbar)


def gen_random_controllable(rng, n: int, cond_limit: float = 1e4):
    """A random controllable integer system with an all-real spectrum.

    Built as S T S^-1 with T integer upper triangular (distinct diagonal)
    and S a product of integer shears E(i, j, c) (det 1), its inverse the
    reversed product of the E(i, j, -c), so A stays integer while every
    eigenvalue is a known integer.  Draws are rejected until the
    pole-hyperplane normals are well conditioned (cond <= cond_limit):
    this keeps oracle-equivalence checks away from the conditioning
    regime that the integer family studies on purpose.

    Returns (StateSpace, poles) or None when the draw was rejected.
    """
    diag = rng.choice(np.arange(-4, 5), size=n, replace=False).astype(np.int64)
    T = np.diag(diag)
    for i in range(n):
        for j in range(i + 1, n):
            T[i, j] = rng.integers(-3, 4)
    S = np.eye(n, dtype=np.int64)
    Sinv = np.eye(n, dtype=np.int64)
    for _ in range(n):
        i, j = rng.integers(0, n, 2)
        if i == j:
            continue
        c = rng.integers(-1, 2)
        S[:, j] += c * S[:, i]  # S E(i, j, c)
        Sinv[i] -= c * Sinv[j]  # E(i, j, -c) Sinv
    A = S @ T @ Sinv
    if np.max(np.abs(A)) > 99:
        return None
    B = rng.integers(-3, 4, size=n)
    if np.all(B == 0):
        return None
    if controllability_det_exact(A, B) == 0:
        return None
    # integer poles disjoint from the (integer) spectrum of A
    offset = int(rng.integers(0, 3))
    poles = []
    cand = -1 - offset
    spectrum = set(int(d) for d in diag)
    while len(poles) < n:
        if cand not in spectrum:
            poles.append(cand)
        cand -= 1
    Af = A.astype(float)
    Bf = B.astype(float)
    try:
        normals = np.array(
            [np.linalg.solve(Af - lam * _identity(n, Af.dtype), Bf) for lam in poles]
        )
    except np.linalg.LinAlgError:
        return None
    if np.linalg.cond(normals) > cond_limit:
        return None
    return StateSpace(Af, Bf), [float(p) for p in poles]


@dataclass(frozen=True)
class ExampleFamily:
    """A named system family instance: kind 'integer' or 'diag'."""

    kind: str
    n: int
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("integer", "diag"):
            raise ValueError("kind must be 'integer' or 'diag'")

    def make(self) -> StateSpace:
        if self.kind == "integer":
            return gen_integer_example(self.n)
        return gen_scaled_diagonal(self.n, self.seed)

    def default_poles(self):
        if self.kind == "integer":
            return [-float(k) for k in range(1, self.n + 1)]
        return [-0.01 * k for k in range(1, self.n + 1)]


@dataclass(frozen=True)
class BenchRecord:
    algorithm: str
    family: str
    n: int
    precision: int
    pole_order: str
    achieved: tuple
    max_abs_error: float
    complex_pair_count: int
    gain: tuple
    failure: str | None = None


def _match_error(achieved: list, targets: list) -> float:
    """Greedy nearest-pair matching between two spectra, each a list of
    Python complex values sorted by (real, imag): each achieved eigenvalue
    takes the first nearest remaining target.  nan when an achieved
    eigenvalue is not finite (``max`` and ``min`` would drop its nan
    distances).  Python complex ``abs`` is the same ``hypot`` as numpy's,
    without numpy's per-scalar dispatch."""
    if not all(map(cmath.isfinite, achieved)):
        return float("nan")
    remaining = list(targets)
    worst = 0.0
    for z in achieved:
        dist = [abs(z - w) for w in remaining]
        best = dist.index(min(dist))
        worst = max(worst, dist[best])
        del remaining[best]
    return worst


def count_complex_pairs(spectrum) -> int:
    """Eigenvalues with an imaginary part above the ``spectrum_pair`` bound."""
    tol = THRESHOLDS["spectrum_pair"](BITS64)
    return sum(1 for z in spectrum if z.imag > tol)


def evaluate_placement(sys: StateSpace, poles, gain,
                       algorithm: str = "", family: str = "",
                       precision: Precision = BITS64,
                       pole_order: str = "forward") -> BenchRecord:
    """Closed-loop verification record for a computed gain.

    The achieved spectrum is always computed in 64-bit arithmetic, no
    matter what precision produced the gain (a 32-bit gain evaluated
    with 64-bit eigenvalues isolates the gain's own representability).
    The record holds plain Python values: ``achieved`` is a tuple of
    complex in :func:`~poleplace.linalg.eigenvalues`' (real, imag) order,
    and ``gain`` a tuple of float.  A - B K is formed on Python floats,
    the same two IEEE operations per entry as numpy's without its
    overflow warning; when it is not finite, or its eigenvalue iteration
    does not converge, ``achieved`` is n NaN eigenvalues, so
    ``max_abs_error`` is NaN and no pair is counted.
    """
    gain = np.asarray(gain, dtype=np.float64).ravel()
    k = gain.tolist()
    closed = np.array([a - b * kj for row, b in zip(sys.A.tolist(), sys.B.tolist())
                       for a, kj in zip(row, k, strict=True)]).reshape(sys.n, sys.n)
    achieved = [complex(cmath.nan, cmath.nan)] * sys.n
    if _all_finite(closed):
        try:
            achieved = eigenvalues(closed).tolist()
        except FactorizationError:  # eigenvalues' one failure: no convergence
            pass
    targets = sorted(map(complex, poles), key=lambda z: (z.real, z.imag))
    return BenchRecord(
        algorithm=algorithm,
        family=family,
        n=sys.n,
        precision=precision.bits,
        pole_order=pole_order,
        achieved=tuple(achieved),
        max_abs_error=_match_error(achieved, targets),
        complex_pair_count=count_complex_pairs(achieved),
        gain=tuple(k),
    )


# Closed-loop spectra reported for the same integer-family runs by a
# widely used commercial placement routine; kept as static comparison
# context only (that implementation is not reproducible here).
REFERENCE_COMMERCIAL_SPECTRA = {
    10: [-10.000164107737568, -8.999371863648731, -8.000964166915645,
         -6.999242490281093, -6.000322564954156, -4.999928035624746,
         -4.000007539812596, -2.999999713947878, -2.000000002108917,
         -0.999999999951879],
    11: [complex(-11.121510720787899, 0.0),
         complex(-9.620049837351161, 0.579008846167512),
         complex(-9.620049837351161, -0.579008846167512),
         complex(-7.375497284454621, 0.511289713821731),
         complex(-7.375497284454621, -0.511289713821731),
         complex(-5.860721968875364, 0.0),
         complex(-5.028671908237159, 0.0),
         complex(-3.997965809156488, 0.0),
         complex(-3.000056435717809, 0.0),
         complex(-1.999999711062670, 0.0),
         complex(-0.999999998825601, 0.0)],
    12: [complex(-12.7647, 1.5577), complex(-12.7647, -1.5577),
         complex(-9.4596, 2.7072), complex(-9.4596, -2.7072),
         complex(-6.7149, 1.7711), complex(-6.7149, -1.7711),
         complex(-5.0730, 0.5385), complex(-5.0730, -0.5385),
         complex(-3.9703, 0.0), complex(-3.0006, 0.0),
         complex(-2.0000, 0.0), complex(-1.0000, 0.0)],
}


def run_suite(families, algorithms, precisions=(BITS64,),
              orders=("forward",)):
    """Run every (family, algorithm, precision, order) combination.

    The algorithm names, precisions and orders are checked, and every
    family's system built, before the first placement (``ValueError``).
    Individual algorithm failures become records with ``failure`` set
    rather than aborting the suite.  Returns the list of records.
    """
    if not set(orders) <= {"forward", "reversed"}:
        raise ValueError(f"pole orders must be 'forward' or 'reversed', got {list(orders)}")
    for name in algorithms:
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {name!r}")
    precisions = [as_precision(prec) for prec in precisions]
    systems = [fam.make() for fam in families]
    records = []
    for fam, sys in zip(families, systems):
        base_poles = fam.default_poles()
        for order in orders:
            poles = list(base_poles) if order == "forward" else list(base_poles)[::-1]
            for name in algorithms:
                fn = ALGORITHMS[name]
                for prec in precisions:
                    try:
                        K = fn(sys, poles, prec)
                    except PlacementError as exc:
                        records.append(BenchRecord(
                            algorithm=name, family=fam.kind, n=fam.n,
                            precision=prec.bits, pole_order=order,
                            achieved=(), max_abs_error=float("nan"),
                            complex_pair_count=-1, gain=(),
                            failure=f"{type(exc).__name__}: {exc}",
                        ))
                        continue
                    rec = evaluate_placement(
                        sys, poles, K, algorithm=name, family=fam.kind,
                        precision=prec, pole_order=order,
                    )
                    records.append(rec)
    return records


def render_table(records) -> str:
    """Aligned text table of benchmark records."""
    header = ["family", "n", "algorithm", "bits", "order",
              "max_abs_error", "pairs", "status"]
    rows = [header]
    for r in records:
        rows.append([
            r.family, str(r.n), r.algorithm, str(r.precision), r.pole_order,
            "-" if r.failure else f"{r.max_abs_error:.3e}",
            "-" if r.failure else str(r.complex_pair_count),
            r.failure or "ok",
        ])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for k, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def render_csv(records) -> str:
    """CSV rendering with the same numbers as the text table."""
    out = io.StringIO()
    out.write("family,n,algorithm,precision,pole_order,max_abs_error,"
              "complex_pair_count,failure,gain,achieved\n")
    for r in records:
        gain = ";".join(repr(g) for g in r.gain)
        achieved = ";".join(f"{z.real!r}{z.imag:+}j" for z in r.achieved)
        failure = (r.failure or "").replace(",", ";")
        out.write(f"{r.family},{r.n},{r.algorithm},{r.precision},"
                  f"{r.pole_order},{r.max_abs_error!r},{r.complex_pair_count},"
                  f"{failure},{gain},{achieved}\n")
    return out.getvalue()
