"""Exception hierarchy shared by all numerical routines.

Everything derives from :class:`PlacementError` so callers (and the CLI)
can distinguish algorithmic failures from ordinary usage errors.  Each
subclass names one cause, and each is raised on a placement, kernel or
simulation path; an argument that a kernel or utility cannot take (a
wrong shape, a non-finite or non-integer entry, a zero vector, a
degenerate anchor) is a :class:`ValueError`.
"""


class PlacementError(Exception):
    """Base class for failures of the numerical algorithms.

    A failure decided by a numerical-zero bound of ``linalg.THRESHOLDS``
    (raised by ``linalg._guard``) carries the bound's name in ``check``,
    the magnitude found at or below it in ``value`` and the bound itself
    in ``bound``; on any other failure the three are None.
    """

    check = None
    value = None
    bound = None


class SingularSystem(PlacementError):
    """A linear system was numerically singular: its smallest LU pivot is
    at or below the ``lu_pivot`` bound."""


class SingularShift(PlacementError):
    """A shifted matrix A - lambda*I was numerically singular."""


class UncontrollableSystem(PlacementError):
    """The single-input pair (A, B) is not controllable: B = 0, an exact
    zero, a singular controllability matrix (its cause a
    :class:`SingularSystem`), or a quotient, deflated or transformed input
    or a Hessenberg subdiagonal at or below the ``placement_pivot`` bound,
    or the chain's final quotient input at or below ``chain_denominator``."""


class ParallelHyperplanes(PlacementError):
    """The pole hyperplanes do not intersect (uncontrollable geometry)."""


class DegenerateProjection(PlacementError):
    """A sliding projection denominator is at or below the
    ``placement_pivot`` bound."""


class ZeroInputComponent(PlacementError):
    """The b_j entry that the hyperplane point formula divides by is at or
    below the ``placement_pivot`` bound."""


class ComplexBlockUnsupported(PlacementError):
    """The real Schur form has a 2x2 block the pole-shifting method rejects."""


class InvalidPoleSet(PlacementError):
    """A pole specification is malformed (e.g. not conjugate-closed)."""


class DivergedState(PlacementError):
    """A simulated trajectory left the overflow guard region."""


class PrecisionOverflow(PlacementError):
    """A value past the range of the requested precision: a finite input
    entry where it is cast, an overflow or a division by zero in a
    placement (the range rule of :mod:`poleplace.placement`), or a nonzero
    quantity that underflowed to 0: a divisor or the input's squared norm
    (the ``normal_square`` bound), or a hyperplane normal."""


class FactorizationError(PlacementError):
    """A factorization failed: an iteration did not converge, or a
    Householder norm overflowed."""
