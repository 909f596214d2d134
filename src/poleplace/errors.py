"""Exception hierarchy shared by all numerical routines.

Everything derives from :class:`PlacementError` so callers (and the CLI)
can distinguish algorithmic failures from ordinary usage errors.
"""


class PlacementError(Exception):
    """Base class for failures of the numerical algorithms."""


class SingularSystem(PlacementError):
    """A linear system was numerically singular (pivot below threshold)."""


class SingularShift(PlacementError):
    """A shifted matrix A - lambda*I was numerically singular."""


class UncontrollableSystem(PlacementError):
    """The single-input pair (A, B) is not controllable."""


class ParallelHyperplanes(PlacementError):
    """The pole hyperplanes do not intersect (uncontrollable geometry)."""


class DegenerateProjection(PlacementError):
    """A sliding projection denominator fell below the safe threshold."""


class ZeroInputComponent(PlacementError):
    """A b_j entry required by the hyperplane point formula is zero."""


class ComplexBlockUnsupported(PlacementError):
    """The real Schur form has a 2x2 block the pole-shifting method rejects."""


class DegenerateAnchor(PlacementError):
    """The oblique anchor pairing omega^T g is too close to zero."""


class InvalidPoleSet(PlacementError):
    """A pole specification is malformed (e.g. not conjugate-closed)."""


class ZeroVector(PlacementError):
    """An all-zero vector where a nonzero one is required."""


class DivergedState(PlacementError):
    """A simulated trajectory left the overflow guard region."""


class PrecisionOverflow(PlacementError):
    """A value past the range of the requested precision: a finite input
    entry where it is cast, or an overflow or a division by zero in a
    placement (the range rule of :mod:`poleplace.placement`)."""


class FactorizationError(PlacementError):
    """A factorization failed: an iteration did not converge, or a
    Householder norm overflowed."""
