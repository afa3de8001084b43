"""Domain errors shared across the package.

Every error carries a stable ``code`` (the class name) so the CLI can
report failures as machine-readable JSON without string matching.
"""


class DomainError(Exception):
    """Base class for all domain-level failures."""

    @property
    def code(self):
        return type(self).__name__


class NotSymmetric(DomainError):
    """A partition required to equal its conjugate does not."""


class ShapeOutOfBox(DomainError):
    """A partition does not fit inside the stated rectangle."""


class SkewInputNotSupported(DomainError):
    """An operation defined for straight shapes received a skew one."""


class ShapeNotSymmetric(DomainError):
    """A shape (partition or skew) lacks the required diagonal symmetry."""


class IncompatiblePair(DomainError):
    """The difference of the two partitions is not a corner-linked
    chain of rectangles."""


class AmbientMismatch(DomainError):
    """Two classes living in different ambient rectangles were combined."""


class DegreeOutOfRange(DomainError):
    """A Chern-class index outside the valid range was requested."""


class LeviDoesNotFit(DomainError):
    """The requested block subgroup does not embed in the ambient group."""


class AmbientNotSquare(DomainError):
    """A construction needing a square ambient rectangle got a non-square."""


class TrivialPairExcluded(DomainError):
    """The degenerate full-window pair is outside this criterion's scope."""


class BoundExceeded(DomainError):
    """A degree bound required by a classification was exceeded."""


class InvariantViolated(DomainError):
    """A classification the paper proves exhaustive failed to hold."""
