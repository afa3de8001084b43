"""Integer partitions bounded by a rectangle.

Partitions are tuples of weakly decreasing positive integers; () is the
empty partition.  Rectangles are (rows, cols) pairs.  Text form is a
comma list like "5,3,3,2" (empty string for ()), and "AxB" for boxes.

All functions assume canonical tuples (no trailing zeros); use
partition() to normalize untrusted input.  The trust rule the library
keeps: a public function normalizes each shape its caller passes in,
once, with partition(), and canonical tuples travel inward from there.
A shape built from canonical shapes is canonical and is not checked
again: complement, plus_part, minus_part, bar_closure and
check_reduction return their shapes through _trim, which drops trailing
zeros and checks nothing, and from_plus_part and from_minus_part build
theirs from positive hook lengths.
"""

import math

from .errors import AmbientNotSquare, NotSymmetric, ShapeOutOfBox, _integers, _window


def _trim(parts):
    # the tuple less its trailing zeros, with nothing else checked
    n = len(parts)
    while n and parts[n - 1] == 0:
        n -= 1
    return parts[:n]


def partition(parts):
    """Normalize to a canonical partition tuple, validating monotonicity.

    Each part must be an integer: an int, or a float of integer value
    such as 2.0.  Any other part, such as 2.5, "3", None or infinity,
    raises ValueError; int() would truncate or parse it."""
    parts = _trim(_integers(parts, "parts"))
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError("parts must be weakly decreasing: %r" % (parts,))
    if parts and parts[-1] < 0:
        raise ValueError("parts must be nonnegative: %r" % (parts,))
    return parts


def parse_partition(text):
    """Parse "5,3,3,2"; the empty string means the empty partition."""
    text = text.strip()
    if not text:
        return ()
    return partition(tuple(map(int, text.split(","))))


def format_partition(lam):
    return ",".join(str(p) for p in lam)


def parse_box(text):
    """Parse "AxB" into (rows, cols), both at least 1."""
    rows, sep, cols = text.strip().partition("x")
    if not sep:
        raise ValueError("expected AxB, got %r" % text)
    rows, cols = int(rows), int(cols)
    if rows < 1 or cols < 1:
        raise ValueError("rectangle sides must be positive")
    return rows, cols


def format_box(box):
    return "%dx%d" % box


def rect(rows, cols):
    """The full rectangle as a partition: cols repeated rows times."""
    return ((cols,) * rows) if cols else ()


def staircase(n):
    """(n, n-1, ..., 1); the empty partition for n <= 0."""
    return tuple(range(n, 0, -1))


def weight(lam):
    return sum(lam)


def conjugate(lam):
    """Transpose the diagram.

    One pass down the rows: column j's length is the last row i with
    lam_i >= j, and that row only moves up as j grows.
    """
    if not lam:
        return ()
    out = []
    i = len(lam)
    for j in range(1, lam[0] + 1):
        while lam[i - 1] < j:
            i -= 1
        out.append(i)
    return tuple(out)


def contains(inner, outer):
    """True when inner's diagram sits inside outer's."""
    if len(inner) > len(outer):
        return False
    return all(i <= o for i, o in zip(inner, outer))


def fits(lam, rows, cols):
    return len(lam) <= rows and (not lam or lam[0] <= cols)


def _inside(lam, rows, cols):
    # lam, refused unless it fits in rows x cols
    if not fits(lam, rows, cols):
        raise ShapeOutOfBox("%r does not fit in %dx%d" % (lam, rows, cols))
    return lam


def _require_square(ambient):
    # the side of a square window; any other window is refused
    if ambient[0] != ambient[1]:
        raise AmbientNotSquare("%dx%d" % ambient)
    return ambient[0]


def complement(lam, rows, cols):
    """Rotate the complement of lam inside rows x cols by a half turn."""
    padded = _inside(lam, rows, cols) + (0,) * (rows - len(lam))
    return _trim(tuple(cols - padded[rows - 1 - i] for i in range(rows)))


def is_symmetric(lam):
    return lam == conjugate(lam)


def is_strict(lam):
    return all(a > b for a, b in zip(lam, lam[1:]))


def diagonal_length(lam):
    """Number of cells on the main diagonal."""
    return sum(1 for i, p in enumerate(lam, start=1) if p >= i)


def plus_part(lam):
    """Strict partition of diagonal hook arms, rows included: row i
    contributes max(0, lam_i - i + 1).  Defined for symmetric lam only."""
    if not is_symmetric(lam):
        raise NotSymmetric("%r is not symmetric" % (lam,))
    return _trim(tuple(max(0, p - i) for i, p in enumerate(lam)))


def minus_part(lam):
    """Strict partition of diagonal arm lengths: row i contributes
    max(0, lam_i - i).  Defined for symmetric lam only."""
    if not is_symmetric(lam):
        raise NotSymmetric("%r is not symmetric" % (lam,))
    return _trim(tuple(max(0, p - i) for i, p in enumerate(lam, start=1)))


def bar_closure(lam):
    """Grow a symmetric lam by one cell in every row meeting the diagonal."""
    if not is_symmetric(lam):
        raise NotSymmetric("%r is not symmetric" % (lam,))
    return _trim(tuple(p + 1 if p >= i else p for i, p in enumerate(lam, start=1)))


def check_reduction(lam):
    """Shrink a symmetric lam by one cell in every row meeting the diagonal."""
    if not is_symmetric(lam):
        raise NotSymmetric("%r is not symmetric" % (lam,))
    return _trim(tuple(p - 1 if p >= i else p for i, p in enumerate(lam, start=1)))


def _from_diagonal_hooks(strict, arm):
    # rebuild a symmetric diagram from hook lengths along the diagonal;
    # arm is the number of cells each hook extends past the diagonal cell
    if not is_strict(strict) or any(p <= 0 for p in strict):
        raise ValueError("expected a strict partition, got %r" % (strict,))
    # row i runs to the end of hook i's arm, and the rows below the
    # diagonal hold only the hooks' legs, so they are read off the columns
    top = tuple(i + arm(p) for i, p in enumerate(strict))
    return top + conjugate(top)[len(top) :]


def from_plus_part(strict):
    """The unique symmetric partition whose plus_part is the given
    strict partition."""
    return _from_diagonal_hooks(strict, lambda p: p)


def from_minus_part(strict):
    """The unique symmetric partition whose minus_part is the given
    strict partition and whose diagonal has exactly len(strict) cells."""
    return _from_diagonal_hooks(strict, lambda p: p + 1)


def sort_key(lam):
    # graded order, then larger first parts first within a degree
    return (sum(lam), tuple(-p for p in lam))


def _shapes_under(highs, lows=()):
    # every partition with part i between lows[i] and highs[i], lows a
    # partition, built row by row: last holds the shapes with exactly as
    # many rows as bounds read, kept once they have a row for each low
    out, last = [] if lows else [()], [()]
    for i, h in enumerate(highs):
        lo = lows[i] if i < len(lows) else 1
        last = [lam + (v,) for lam in last for v in range(lo, min(h, lam[-1] if lam else h) + 1)]
        if i >= len(lows) - 1:
            out += last
    return out


def enumerate_in_rectangle(rows, cols, weight=None, symmetric_only=False):
    """All partitions inside rows x cols in graded order, built row by row.

    Optional filters: exact weight, or symmetric shapes only.  The 2^m
    symmetric shapes, m = min(rows, cols), are built directly: one with
    first part a is a hook of a cells across and a cells down wrapped
    around a symmetric shape inside (a-1) x (a-1).
    """
    rows, cols = _window((rows, cols))
    if symmetric_only:
        out = [()]
        for a in range(1, min(rows, cols) + 1):
            out += [(a,) + tuple(p + 1 for p in mu) + (1,) * (a - 1 - len(mu)) for mu in out]
    else:
        out = _shapes_under((cols,) * rows)
    if weight is not None:
        out = (lam for lam in out if sum(lam) == weight)
    return sorted(out, key=sort_key)


def count_in_rectangle(rows, cols):
    """Closed-form count of partitions inside rows x cols."""
    rows, cols = _window((rows, cols))
    return math.comb(rows + cols, rows)
