"""Independent combinatorics for generating and checking benchmark inputs.

Nothing here imports schubcalc: the benchmark builds its inputs and
checks the program's answers with this code only, so a defect in the
program cannot hide itself by also breaking the check.
"""

from math import comb, prod


def partitions_in_box(rows, cols):
    """Every partition inside rows x cols, as tuples, in a fixed order."""
    out = []

    def rec(prefix, cap, left):
        out.append(tuple(prefix))
        if left == 0:
            return
        for part in range(1, cap + 1):
            prefix.append(part)
            rec(prefix, part, left - 1)
            prefix.pop()

    rec([], cols, rows)
    return out


def partitions_of(n, max_len, max_part):
    """Partitions of n with at most max_len parts, each at most max_part."""
    out = []

    def rec(prefix, left, cap):
        if left == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_len:
            return
        for part in range(min(cap, left), 0, -1):
            prefix.append(part)
            rec(prefix, left - part, part)
            prefix.pop()

    rec([], n, max_part)
    return out


def conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def contained(inner, outer):
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


def fits(lam, rows, cols):
    return len(lam) <= rows and (not lam or lam[0] <= cols)


def is_partition(lam):
    return all(p > 0 for p in lam) and all(a >= b for a, b in zip(lam, lam[1:]))


def chain_blocks(outer, inner):
    """Rectangle sizes of outer/inner read top right first, or None when
    the skew shape is not a chain of rectangles meeting corner to corner."""
    pad = tuple(inner) + (0,) * (len(outer) - len(inner))
    rows = [(i, pad[i], outer[i]) for i in range(len(outer)) if outer[i] > pad[i]]
    runs = []  # [first row, last row, lo, hi]
    for i, lo, hi in rows:
        if runs and runs[-1][1] != i - 1:
            return None
        if runs and (runs[-1][2], runs[-1][3]) == (lo, hi):
            runs[-1][1] = i
        else:
            runs.append([i, i, lo, hi])
    for a, b in zip(runs, runs[1:]):
        if b[3] != a[2]:
            return None
    return [(last - first + 1, hi - lo) for first, last, lo, hi in runs]


def chain_pairs(rows, cols):
    """Every (lam, mu) in the window with lam strictly inside mu and mu/lam
    a chain of rectangles, built row by row rather than filtered.

    The chain occupies consecutive rows.  Its first row may hold any
    nonempty piece that keeps mu a partition; each later row either
    extends the current rectangle (same lam part, same mu part) or starts
    the next one, whose right edge is the previous rectangle's left edge.
    """
    out = []
    for lam in partitions_in_box(rows, cols):
        pad = lam + (0,) * (rows - len(lam))
        for r0 in range(rows):
            cap = cols if r0 == 0 else pad[r0 - 1]
            for top in range(pad[r0] + 1, cap + 1):
                mu = list(pad)
                mu[r0] = top
                _grow_chain(pad, mu, r0, out)
    return out


def _grow_chain(pad, mu, i, out):
    out.append((tuple(p for p in pad if p), tuple(p for p in mu if p)))
    j = i + 1
    if j == len(pad):
        return
    if pad[j] == pad[i]:  # extend the rectangle down one row
        mu[j] = mu[i]
        _grow_chain(pad, mu, j, out)
        mu[j] = pad[j]
    if pad[j] < pad[i]:  # start the next rectangle at the corner
        mu[j] = pad[i]
        _grow_chain(pad, mu, j, out)
        mu[j] = pad[j]


def hook_content_dim(lam, n):
    """s_lam(1^n), the number of semistandard tableaux of shape lam with
    entries at most n, by Stanley's hook-content formula (exact)."""
    if len(lam) > n:
        return 0
    conj = conjugate(lam)
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    num = prod(n + j - i for i, j in cells)
    den = prod((lam[i] - j - 1) + (conj[j] - i - 1) + 1 for i, j in cells)
    return num // den


def expansion_identity_holds(lam, nu, terms, n):
    """Check sum_mu c_mu s_mu(1^n) == s_lam(1^n) s_nu(1^n) for a product
    expansion given as {mu: c_mu}."""
    lhs = sum(c * hook_content_dim(mu, n) for mu, c in terms.items())
    return lhs == hook_content_dim(lam, n) * hook_content_dim(nu, n)


def window_candidates(rows, cols):
    """Number of (lam, mu) candidates a generate-and-filter pass over the
    window visits: one per ordered pair of shapes in the box."""
    return comb(rows + cols, rows) ** 2
