"""Domain errors shared across the package, and its integer and window rules.

Every error carries a stable ``code`` (the class name) so the CLI can
report failures as machine-readable JSON without string matching.

Every layer reads the integers it is given (a part, a side, a rank, a
tableau entry, a coefficient) through _integers, which refuses a value
int() would change with ValueError.  Every window or box it is given
(rows, cols) is read through _window, which also refuses a negative
side with ValueError.
"""


def _integers(values, what):
    # the values as a tuple of ints: each must be an int, or a number of
    # integer value such as 2.0; any other value, such as 2.5, "3", None,
    # NaN or infinity, raises ValueError, as int() would truncate or parse it
    values = tuple(values)
    try:
        ints = tuple(map(int, values))
    except (TypeError, OverflowError, ValueError) as err:
        # only NaN is unequal to itself; a string int() cannot parse keeps int()'s message
        if isinstance(err, ValueError) and all(v == v for v in values):
            raise
        ints = None
    # 2.0 == 2, but 2.5 != 2 and "3" != 3
    if ints != values:
        raise ValueError("%s must be integers, got %r" % (what, values))
    return ints


def _window(ambient):
    # the two sides of a window or box as ints, by _integers' rule, each
    # refused with ValueError unless nonnegative
    p, q = _integers(ambient, "window sides")
    if p < 0 or q < 0:
        raise ValueError("window sides must be nonnegative: %dx%d" % (p, q))
    return p, q


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


class InputTooLarge(DomainError):
    """An input too deep or too large for the computation to finish."""
