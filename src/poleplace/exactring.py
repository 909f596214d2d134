"""Exact pole placement over the integers.

Given an integer pair (A, B) and an integer characteristic polynomial,
the placement gain is computed using only ring operations (+, *) plus
GCD-based reduction, so the result is an exact rational row vector.
It serves as the ground truth against which every floating-point
algorithm in this package is validated.

Everything here works on plain Python ints (arbitrary precision) in
list-of-lists form; :func:`ratio` converts the result to
``fractions.Fraction`` values at the very end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _gcd

from .errors import UncontrollableSystem, ZeroVector


def _annihilator_terms(v) -> list:
    """The n-1 rows of :func:`nullspace_row` for a nonzero integer list
    ``v`` of length n >= 2, each as its nonzero terms: ``((k, 1),)`` for a
    unit row e_k, or ``((j, c_j), (k, c_k))`` for c_j e_j + c_k e_k.

    Row j is e_j when v[j] is zero; otherwise it couples j with the next
    nonzero entry k, as (v[k] e_j - v[j] e_k) / gcd(v[j], v[k]); if no later
    entry is nonzero, it is e_(n-1).
    """
    n = len(v)
    rows = []
    for j in range(n - 1):
        if v[j] == 0:
            rows.append(((j, 1),))
            continue
        k = j + 1
        while v[k] == 0 and k < n - 1:
            k += 1
        if v[k] != 0:
            g = _gcd(v[k], v[j])
            rows.append(((j, v[k] // g), (k, -v[j] // g)))
        else:
            rows.append(((k, 1),))
    return rows


def nullspace_row(v) -> list:
    """Integer annihilator of a single nonzero integer vector.

    Returns an (n-1) x n integer matrix M with M v = 0 exactly and rank
    n-1.  Rows are built pairwise: row j couples entry j with the next
    nonzero entry, divided by their GCD; a zero entry j yields the unit
    row e_j.  This sequential construction (rather than a general
    Hermite-form kernel) keeps entry growth bounded by the pairwise GCDs.
    Each row has at most two nonzeros; this is the dense form of
    :func:`_annihilator_terms`.
    """
    v = [int(x) for x in v]
    n = len(v)
    if all(x == 0 for x in v):
        raise ZeroVector("annihilator of the zero vector is ill-defined")
    if n < 2:
        raise ValueError("need at least two entries")
    rows = []
    for terms in _annihilator_terms(v):
        lit = [0] * n
        for k, c in terms:
            lit[k] = c
        rows.append(lit)
    return rows


# -- small exact matrix helpers (any ring with +, *) ------------------------


def _nonzeros(M):
    """Each row of M as the (column, value) pairs of its nonzero entries."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in M]


def _combine(acc, row, Ynz):
    """Add sum_k row[k] * Y[k] into ``acc`` over the nonzero row[k] and the
    nonzeros ``Ynz`` of Y's rows; return ``acc``."""
    for a, terms in zip(row, Ynz):
        if a:
            for j, b in terms:
                acc[j] += a * b
    return acc


def mat_mul(X, Y):
    """Product X Y as row combinations: row i is the sum of X[i][k] * Y[k].

    Only nonzero X[i][k] and the nonzero entries of each Y[k] take part,
    so a sparse factor costs its nonzeros.  Ring addition is exact, so
    every entry equals the dense sum; an entry with no nonzero term is
    the int 0.
    """
    width = len(Y[0]) if Y else 0
    Ynz = _nonzeros(Y)
    return [_combine([0] * width, row, Ynz) for row in X]


def _krylov_rows(A, b):
    """Rows of the controllability matrix [b, Ab, ..., A^(n-1) b]; each
    column A v is the row combination sum_j v[j] (A^T)[j]."""
    ATnz = _nonzeros(zip(*A))
    cols = [b]
    for _ in range(len(b) - 1):
        cols.append(_combine([0] * len(b), cols[-1], ATnz))
    return [list(row) for row in zip(*cols)]


def exact_determinant(M) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    a = [[int(x) for x in row] for row in M]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for p in range(k + 1, n):
                if a[p][k] != 0:
                    a[k], a[p] = a[p], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def controllability_det_exact(A, B) -> int:
    """Exact determinant of [B, AB, ..., A^(n-1) B] for integer input."""
    A = [[int(x) for x in row] for row in A]
    return exact_determinant(_krylov_rows(A, [int(x) for x in B]))


# -- the placement oracle ----------------------------------------------------


@dataclass(frozen=True)
class ExactGain:
    """Row gain as an integer numerator vector over a common denominator.

    ``denominator`` is the scalar quotient input of the last level; the
    reduced rationals come out of :func:`ratio` under the convention
    that eigenvalues(A - B K) are the requested poles.
    """

    denominator: int
    numerator: tuple

    def __post_init__(self):
        object.__setattr__(self, "numerator", tuple(int(x) for x in self.numerator))
        object.__setattr__(self, "denominator", int(self.denominator))


def place_exact(A, B, charpoly) -> ExactGain:
    """Exact single-input pole placement over the integers.

    Parameters
    ----------
    A, B : integer matrix (n x n) and vector (n)
    charpoly : monic integer coefficients, degree-descending
        [1, p1, ..., pn] of phi.

    The quotient sweep cancels the current input vector with an integer
    annihilator ``anb_s`` (:func:`nullspace_row`); only ring operations
    and GCDs occur, so every intermediate stays an integer.  Each row of
    ``anb_s`` has at most two nonzeros, so it is kept as its terms
    (:func:`_annihilator_terms`): a row of ``anb_s Y`` is c_j Y[j] + c_k Y[k]
    or a copy of Y[k], and the row ``P`` is carried back through the same
    terms.  With
    ``P_s = anb_s ... anb_1``, level s's reduced matrix is ``P_s A^s`` and
    its gain numerator is ``P_s phi_s(A)``, phi_s being phi's terms of
    degree at most s.  So the annihilators sweep the controllability
    matrix alone: ``Y_0 = [B, AB, ..., A^(n-1) B]`` and ``Y_s`` is
    ``anb_s Y_(s-1)`` without its first column.  Level s's input is
    ``Y_(s-1)``'s first column, the denominator is the 1 x 1 ``Y_(n-1)``,
    and the numerator is the row ``P_(n-1)`` times phi(A), by Horner.
    """
    A = [[int(x) for x in row] for row in A]
    B = [int(x) for x in B]
    n = len(B)
    pp = [int(c) for c in charpoly]
    if len(pp) != n + 1 or pp[0] != 1:
        raise ValueError("charpoly must be monic of length n+1, degree-descending")
    Y = _krylov_rows(A, B)
    anbs = []
    for step in range(1, n):
        Bb = [row[0] for row in Y]
        if all(x == 0 for x in Bb):
            raise UncontrollableSystem(
                f"quotient input vanished exactly at level {step}"
            )
        anbs.append(_annihilator_terms(Bb))
        rest = [row[1:] for row in Y]
        Y = []
        for terms in anbs[-1]:
            if len(terms) == 1:  # a unit row e_k selects row k
                Y.append(rest[terms[0][0]])
            else:
                (j, cj), (k, ck) = terms
                Y.append([cj * a + ck * b for a, b in zip(rest[j], rest[k])])
    den = Y[0][0]
    if den == 0:
        raise UncontrollableSystem("exact denominator Ab.B is zero")
    P = [1]
    for anb in reversed(anbs):  # P = P anb, one stored term at a time
        prev, P = P, [0] * (len(anb) + 1)
        for p, terms in zip(prev, anb):
            for k, c in terms:
                P[k] += p * c
    Anz = _nonzeros(A)
    num = P
    for c in pp[1:]:  # phi(A) = (...(A + p1 I) A + ...) A + pn I
        num = _combine([c * x for x in P], num, Anz)
    return ExactGain(den, num)


def ratio(g: ExactGain):
    """Reduced rational gain entries num_i / den (canonical A - BK sign)."""
    if g.denominator == 0:
        raise ZeroDivisionError("exact gain has zero denominator")
    return [Fraction(x, g.denominator) for x in g.numerator]
