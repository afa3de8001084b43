"""Skew diagrams and corner-linked rectangle chains.

A skew shape is outer/inner with inner contained in outer.  Cells are
1-indexed (row, col) pairs, row 1 on top.  The decomposition recognized
here is the strict one: consecutive rectangles must share exactly one
corner point, with the first rectangle at the top right.
"""

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


class _Run(NamedTuple):
    top: int
    bottom: int
    lo: int  # columns occupied are lo+1 .. hi
    hi: int


def _runs(s):
    # maximal groups of consecutive rows with identical column support;
    # None when the nonempty rows are interrupted or fail corner contact
    # a run is closed when the next nonempty row changes (lo, hi), and
    # that row must end where the closed run starts (corner contact)
    runs = []
    top = last = lo = hi = None
    for i, (a, b) in enumerate(zip(_padded_inner(s), s.outer), 1):
        if b <= a:
            continue
        if last is not None and i != last + 1:
            return None
        if a != lo or b != hi:
            if last is not None:
                if b != lo:
                    return None
                runs.append(_Run(top, last, lo, hi))
            top, lo, hi = i, a, b
        last = i
    if last is not None:
        runs.append(_Run(top, last, lo, hi))
    return runs


def rectangle_decomposition(s):
    """Rectangle sizes of the chain, top right first; None when the
    shape is not such a chain.  The empty shape gives the empty chain."""
    runs = _runs(s)
    if runs is None:
        return None
    return [(r.bottom - r.top + 1, r.hi - r.lo) for r in runs]


def is_chain(s):
    return _runs(s) is not None


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
