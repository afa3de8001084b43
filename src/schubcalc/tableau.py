"""Semistandard tableaux, insertion, sliding, and ballot fillings.

A tableau stores its skew shape plus the entries of each row.  Text
form writes one row per "/" segment with "." for missing inner cells,
so "..1/.1/2" is a filling of (3,2,1)/(2,1).

ballot_fillings is the one ballot-filling engine: it fills the cells in
reverse-numbering order by backtracking over flat lists (each cell's
entry and the index of the cell above and to its right), and yields
each filling with its letter counts, as two reused lists.  The content
is given as per-letter caps, exact when they total the size of the
skew.  lr.lr_coefficient counts the fillings of one content, lr's
products tally the fillings of a skew by their counts, and
enumerate_lr_fillings turns them into tableaux.

The neighbour indices come from the row bounds alone.  Row r holds
columns inner_r+1 .. outer_r, numbered right to left from start_r, so
cell (r, j) has index start_r + outer_r - j.  The cell above it is in
the skew when inner_{r-1} < j <= outer_{r-1}, and the cell to its right
when j < outer_r, in which case it is the previous index.
"""

from bisect import bisect_right
from typing import NamedTuple

from .errors import SkewInputNotSupported, _integers
from .partition import partition
from .skew import SkewShape, _padded_inner, skew


class Tableau(NamedTuple):
    outer: tuple
    inner: tuple
    rows: tuple  # row i holds entries for columns inner_i+1 .. outer_i

    @property
    def shape(self):
        return SkewShape(self.outer, self.inner)


def tableau(shape, rows):
    """Build and validate a semistandard tableau on the given shape."""
    shape = skew(*shape)
    pad = _padded_inner(shape)
    rows = tuple(_integers(r, "entries") for r in rows)
    if len(rows) != len(shape.outer):
        raise ValueError("expected %d rows" % len(shape.outer))
    grid = {}
    for i, row in enumerate(rows, start=1):
        if len(row) != shape.outer[i - 1] - pad[i - 1]:
            raise ValueError("row %d has wrong length" % i)
        for j, v in zip(range(pad[i - 1] + 1, shape.outer[i - 1] + 1), row):
            if v < 1:
                raise ValueError("entries must be positive")
            grid[(i, j)] = v
    for (i, j), v in grid.items():
        if (i, j + 1) in grid and grid[(i, j + 1)] < v:
            raise ValueError("row %d not weakly increasing" % i)
        if (i + 1, j) in grid and grid[(i + 1, j)] <= v:
            raise ValueError("column %d not strictly increasing" % j)
    return Tableau(shape.outer, shape.inner, rows)


def superstandard(lam):
    """The straight tableau whose row i is filled with the letter i."""
    lam = partition(lam)
    return Tableau(lam, (), tuple((i,) * p for i, p in enumerate(lam, start=1)))


def content(t):
    """Multiplicity vector of the letters 1..max."""
    counts = {}
    for row in t.rows:
        for v in row:
            counts[v] = counts.get(v, 0) + 1
    if not counts:
        return ()
    return tuple(counts.get(v, 0) for v in range(1, max(counts) + 1))


def row_word(t):
    """Row reading word: bottom row first, each row left to right."""
    return [v for row in reversed(t.rows) for v in row]


def reverse_word(t):
    """Word in reverse-numbering order: top row first, right to left."""
    return [v for row in t.rows for v in reversed(row)]


def is_ballot(word):
    """Every prefix has at least as many copies of v as of v+1."""
    counts = {}
    for v in word:
        counts[v] = counts.get(v, 0) + 1
        if v != 1 and counts[v] > counts.get(v - 1, 0):
            return False
    return True


def _insert(rows, x):
    # Schensted row insertion on a list of lists
    for row in rows:
        k = bisect_right(row, x)
        if k == len(row):
            row.append(x)
            return
        row[k], x = x, row[k]
    rows.append([x])


def insertion_tableau(word):
    rows = []
    for x in word:
        _insert(rows, x)
    return tableau((partition(len(r) for r in rows), ()), rows)


def product(t1, t2):
    """Insert t2's row word into t1.  Straight shapes only."""
    if t1.inner or t2.inner:
        raise SkewInputNotSupported("product needs straight shapes")
    rows = [list(r) for r in t1.rows]
    for x in row_word(t2):
        _insert(rows, x)
    return tableau((partition(len(r) for r in rows), ()), rows)


def _inner_corner_rows(inner, nrows):
    return [
        i
        for i in range(1, nrows + 1)
        if inner[i - 1] > 0 and (i == nrows or inner[i] < inner[i - 1])
    ]


def rectify(t, corner_picker=max):
    """Jeu de taquin rectification.

    The result does not depend on the slide order; corner_picker only
    chooses which inner corner row to empty next (kept injectable so
    tests can exercise different orders).
    """
    nrows = len(t.outer)
    outer = list(t.outer)
    inner = list(t.inner) + [0] * (nrows - len(t.inner))
    grid = {}
    for i, row in enumerate(t.rows, start=1):
        for j, v in zip(range(inner[i - 1] + 1, outer[i - 1] + 1), row):
            grid[(i, j)] = v
    while any(inner):
        i = corner_picker(_inner_corner_rows(inner, nrows))
        r, c = i, inner[i - 1]
        while True:
            south = grid.get((r + 1, c))
            east = grid.get((r, c + 1))
            if south is None and east is None:
                break
            # ties slide the south entry up to keep columns strict
            if east is None or (south is not None and south <= east):
                grid[(r, c)] = south
                del grid[(r + 1, c)]
                r += 1
            else:
                grid[(r, c)] = east
                del grid[(r, c + 1)]
                c += 1
        outer[r - 1] -= 1
        inner[i - 1] -= 1
    shape = partition(outer)
    rows = tuple(
        tuple(grid[(i, j)] for j in range(1, shape[i - 1] + 1))
        for i in range(1, len(shape) + 1)
    )
    return tableau((shape, ()), rows)


def ballot_fillings(s, caps):
    """Yield (vals, counts) for each ballot filling of s with at most
    caps[v-1] copies of each letter v.

    vals holds the entries in reverse_numbering(s) order and counts[v]
    the copies of letter v (counts[0] is a sentinel).  Both lists are
    reused and overwritten from one filling to the next, so copy them
    to keep them.  Caps that total the size of s are the exact content.
    Letters are tried smallest first, so fillings appear in lexicographic
    order of their reverse-numbering words.  Caps totalling less than
    the size of s raise ValueError on the first step.
    """
    caps = _integers(caps, "letter caps")
    # neighbours placed before each cell, -1 where they lie outside the
    # skew, from the row bounds (see the module docstring)
    above, right = [], []
    start = prev_start = prev_o = prev_i = 0
    for o, i in zip(s.outer, _padded_inner(s)):
        for j in range(o, i, -1):
            above.append(prev_start + prev_o - j if prev_i < j <= prev_o else -1)
            right.append(len(right) - 1 if j < o else -1)
        prev_start, prev_o, prev_i = start, o, i
        start += o - i
    if sum(caps) < start:
        raise ValueError("letter caps must total at least the shape size")
    n, nletters = start, len(caps)
    cap = (n + 1,) + caps  # cap[v]: copies of v allowed
    counts = [n + 1] + [0] * nletters  # counts[0] never stops the letter 1
    vals = [0] * n
    if not n:
        yield vals, counts
        return
    # backtracking without recursion: k is the cell being placed and v
    # the next letter to try there
    k, v = 0, 1
    while True:
        r = right[k]
        hi = vals[r] if r >= 0 else nletters
        while v <= hi and (counts[v] >= cap[v] or counts[v] >= counts[v - 1]):
            v += 1
        if v <= hi:
            vals[k] = v
            counts[v] += 1
            k += 1
            if k < n:
                a = above[k]
                v = vals[a] + 1 if a >= 0 else 1
                continue
            yield vals, counts
        if not k:
            return
        k -= 1
        v = vals[k]
        counts[v] -= 1
        v += 1


def enumerate_lr_fillings(s, cont):
    """All ballot fillings of s with the given content, as tableaux."""
    lengths = [o - p for o, p in zip(s.outer, _padded_inner(s))]
    if sum(cont) != sum(lengths):
        raise ValueError("content weight must match the shape size")
    out = []
    for vals, _ in ballot_fillings(s, cont):
        rows, end = [], 0
        for length in lengths:
            rows.append(vals[end : end + length][::-1])
            end += length
        out.append(tableau(s, rows))
    return out


def enumerate_ssyt(shape, max_entry):
    """All semistandard fillings of the shape with entries <= max_entry."""
    shape = skew(*shape)
    pad = _padded_inner(shape)
    order = [
        (i, j)
        for i in range(1, len(shape.outer) + 1)
        for j in range(pad[i - 1] + 1, shape.outer[i - 1] + 1)
    ]
    grid = {}
    out = []

    def place(k):
        if k == len(order):
            rows = tuple(
                tuple(grid[(i, j)] for j in range(pad[i - 1] + 1, shape.outer[i - 1] + 1))
                for i in range(1, len(shape.outer) + 1)
            )
            out.append(Tableau(shape.outer, shape.inner, rows))
            return
        i, j = order[k]
        lo = max(grid.get((i, j - 1), 1), grid.get((i - 1, j), 0) + 1)
        for v in range(lo, max_entry + 1):
            grid[(i, j)] = v
            place(k + 1)
            del grid[(i, j)]

    place(0)
    return out


def format_tableau(t):
    pad = _padded_inner(t)
    return "/".join(
        "." * pad[i - 1] + "".join(str(v) for v in row)
        for i, row in enumerate(t.rows, start=1)
    )


def parse_tableau(text):
    outer, inner, rows = [], [], []
    for part in text.strip().split("/"):
        dots = len(part) - len(part.lstrip("."))
        inner.append(dots)
        outer.append(len(part))
        rows.append([int(ch) for ch in part[dots:]])
    return tableau((partition(outer), partition(inner)), rows)
