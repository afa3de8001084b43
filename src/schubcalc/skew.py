"""Skew diagrams and corner-linked rectangle chains.

A skew shape is outer/inner with inner contained in outer.  Cells are
1-indexed (row, col) pairs, row 1 on top.  The decomposition recognized
here is the strict one: consecutive rectangles must share exactly one
corner point, with the first rectangle at the top right.  It is read in
one pass down the rows: a block is a run of rows with the same inner and
outer ends, each block must end where the one above it starts, and no
empty row may fall between two nonempty ones.
"""

from itertools import zip_longest
from typing import NamedTuple

from .errors import IncompatiblePair, ShapeNotSymmetric
from .partition import (
    contains,
    conjugate,
    format_partition,
    is_symmetric,
    parse_partition,
    partition,
)


class SkewShape(NamedTuple):
    outer: tuple
    inner: tuple


def skew(outer, inner=()):
    outer, inner = partition(outer), partition(inner)
    if not contains(inner, outer):
        raise ValueError("inner %r not contained in outer %r" % (inner, outer))
    return SkewShape(outer, inner)


def parse_skew(text):
    """Parse "OUTER/INNER"; the inner part may be omitted."""
    outer, _, inner = text.strip().partition("/")
    return skew(parse_partition(outer), parse_partition(inner))


def format_skew(s):
    return format_partition(s.outer) + "/" + format_partition(s.inner)


def _padded_inner(s):
    return s.inner + (0,) * (len(s.outer) - len(s.inner))


def cells(s):
    """All cells in row-major order."""
    pad = _padded_inner(s)
    return [
        (i, j)
        for i in range(1, len(s.outer) + 1)
        for j in range(pad[i - 1] + 1, s.outer[i - 1] + 1)
    ]


def size(s):
    return sum(s.outer) - sum(s.inner)


def conjugate_skew(s):
    return SkewShape(conjugate(s.outer), conjugate(s.inner))


def reverse_numbering(s):
    """Cells ordered right to left within each row, top row first."""
    pad = _padded_inner(s)
    return [
        (i, j)
        for i in range(1, len(s.outer) + 1)
        for j in range(s.outer[i - 1], pad[i - 1], -1)
    ]


def rectangle_decomposition(s):
    """Rectangle sizes (rows, cols) of the chain, top right first; None
    when the shape is not such a chain.  The empty shape gives the empty
    chain.

    One pass down the rows: a row with the same inner and outer ends as
    the row above grows the open block, and any other nonempty row closes
    it, appending its size, and opens a new one, which must end at the
    column where the closed block starts.  The first empty row after a
    block closes it for good: a nonempty row below it is a gap.
    """
    rows_left = zip_longest(s.outer, s.inner, fillvalue=0)
    chain, rows, lo, hi = [], 0, 0, 0
    for b, a in rows_left:
        if b <= a:
            # after a block, the rest of the rows, read here, must be empty
            if rows and any(b > a for b, a in rows_left):
                return None
        elif rows and a == lo and b == hi:
            rows += 1
        elif rows and b != lo:
            return None
        else:
            if rows:
                chain.append((rows, hi - lo))
            rows, lo, hi = 1, a, b
    if rows:
        chain.append((rows, hi - lo))
    return chain


def is_chain(s):
    return rectangle_decomposition(s) is not None


def concat(factors):
    """Stack the factors corner to corner, first factor top right.

    Each factor is a partition; empty factors are dropped.  The result
    is the unique chain skew shape whose blocks read back the factors.
    """
    factors = [partition(f) for f in factors]
    factors = [f for f in factors if f]
    outer, inner = [], []
    for i, f in enumerate(factors):
        shift = sum(g[0] for g in factors[i + 1 :])
        outer.extend(p + shift for p in f)
        inner.extend([shift] * len(f))
    return SkewShape(partition(outer), partition(inner))


def _diagonal_split(chain):
    # (center, flanks) of a symmetric skew's chain.  Transposing the skew
    # fixes it and takes block i, a x b, to block n-1-i, b x a.  So only a
    # block that goes to itself, an odd chain's middle one, meets the
    # diagonal, as a square on it; the first n // 2 blocks are the flanks.
    n = len(chain)
    return (chain[n // 2][0] if n % 2 else 0), chain[: n // 2]


def symmetric_chain_split(s):
    """Split a symmetric chain about the diagonal.

    Returns (center, flanks): the side of the diagonal block (0 when
    absent) and the (rows, cols) sizes of the strictly-above-diagonal
    blocks, top right first.  Below-diagonal blocks are their mirrors.
    It halves the chain, as shimura.levi_shape halves each pair's pair.chain.
    """
    if not (is_symmetric(s.outer) and is_symmetric(s.inner)):
        raise ShapeNotSymmetric("skew %s is not symmetric" % (format_skew(s),))
    chain = rectangle_decomposition(s)
    if chain is None:
        raise IncompatiblePair("skew %s is not a rectangle chain" % (format_skew(s),))
    return _diagonal_split(chain)
