"""Compatible nested pairs and stable restriction criteria.

A compatible pair is two nested partitions in a window whose difference
is a corner-linked chain of rectangles.  The functions here answer when
cohomology classes attached to such pairs survive restriction to the
subgroups the chain describes, classify the low-degree picture, and
enumerate holomorphic families for the two square-window types.

A CompatiblePair from make_pair or iter_pairs is trusted: its lam and
mu are canonical and already checked, so the criteria pass them straight
to lr's private cores and normalize only the other shapes their callers
pass in, once each.  A pair built by hand must hold canonical shapes and
its chain: the criteria read the pair's blocks off pair.chain, not its skew.
"""

import itertools
from typing import NamedTuple

from .cohomology import (
    LeviShape,
    _check_blocks,
    _levi_support,
    _Record,
    _set_field,
    _unitary_blocks,
)
from .errors import (
    BoundExceeded,
    IncompatiblePair,
    InputTooLarge,
    InvariantViolated,
    LeviDoesNotFit,
    ShapeOutOfBox,
    TrivialPairExcluded,
    _integers,
    _window,
)
from .lr import _inscribes_diagonal, _multi_coefficient, _symmetric, _witness
from .lr import inscribes  # noqa: F401 (shimura.inscribes stays bound: perfbench's tracer test reads it)
from .partition import (
    _inside,
    _require_square,
    complement,
    contains,
    enumerate_in_rectangle,
    fits,
    minus_part,
    partition,
    plus_part,
    rect,
    staircase,
    weight,
)
from .skew import SkewShape, _diagonal_split, rectangle_decomposition, skew

FLAVORS = ("unitary", "symplectic", "orthogonal")
MAX_PAIR_ROWS = 900  # a 900 x 1 or 1 x 900 window holds 406,351 pairs, 0.74 GB as JSON
# the diagonal reduction of each square flavor
_REDUCTIONS = {"symplectic": plus_part, "orthogonal": minus_part}


class CompatiblePair(_Record):
    # chain: rectangle sizes of mu/lam, top right first
    __slots__ = ("lam", "mu", "ambient", "flavor", "chain")

    def __init__(self, lam, mu, ambient, flavor, chain):
        _set_lam(self, lam)
        _set_mu(self, mu)
        _set_ambient(self, ambient)
        _set_flavor(self, flavor)
        _set_chain(self, chain)

    @property
    def skew(self):
        return SkewShape(self.mu, self.lam)


# each slot's own setter, bound once: pairs are built by the ten thousand
_set_lam, _set_mu, _set_ambient, _set_flavor, _set_chain = (
    vars(CompatiblePair)[field].__set__ for field in CompatiblePair.__slots__
)


def _check_flavor(ambient, flavor):
    # the window's sides as ints; a square flavor needs a square window
    if flavor not in FLAVORS:
        raise ValueError("unknown flavor %r" % flavor)
    ambient = _window(ambient)
    if flavor != "unitary":
        _require_square(ambient)
    return ambient


def make_pair(lam, mu, ambient, flavor="unitary"):
    """Validate a user-supplied pair and read off its chain."""
    lam, mu = partition(lam), partition(mu)
    ambient = _check_flavor(ambient, flavor)
    if flavor != "unitary":
        for shape in (lam, mu):
            _symmetric(shape, shape)
    _inside(mu, *ambient)
    if not contains(lam, mu):
        raise IncompatiblePair("%r not contained in %r" % (lam, mu))
    chain = rectangle_decomposition(SkewShape(mu, lam))
    if chain is None:
        raise IncompatiblePair("%r / %r is not a rectangle chain" % (mu, lam))
    return CompatiblePair(lam, mu, ambient, flavor, tuple(chain))


def _chains_below(mu, least, most):
    """Every (area, lam, chain) with mu/lam a corner-linked rectangle
    chain of area in least..most, in no set order.

    A rectangle starting at row t runs down to the last row b of mu's
    block of parts equal to mu_t, since a row of that block left out
    would need a rectangle with the same right edge.  Its inner edge lo
    is at least mu_{b+1}, and the chain can go on below b only from the
    corner where lo == mu_{b+1} > 0; otherwise the rows below b are full.
    The area only grows down a chain, so one too large is not walked on.
    """
    parts = mu + (0,)
    out = [(0, mu, ())] if least <= 0 <= most else []
    # the chains still to extend, each (start row, rows above, chain, area)
    todo = [(t, mu[:t], (), 0) for t in range(len(mu))]
    while todo:
        t, above, chain, area = todo.pop()
        b = t
        while parts[b + 1] == parts[t]:
            b += 1
        rows, below = b - t + 1, parts[b + 1]
        for lo in range(below, parts[t]):
            size = area + rows * (parts[t] - lo)
            if size > most:
                continue  # not break: the area falls as lo rises
            inner = above + (lo,) * rows if lo else above
            step = chain + ((rows, parts[t] - lo),)
            if size >= least:
                out.append((size, inner + mu[b + 1 :], step))
            if lo == below > 0:
                todo.append((b + 1, inner, step, size))
    return out


def iter_pairs(ambient, flavor="unitary", bidegree=None):
    """All compatible pairs in the window, graded on mu then lam, built
    as they are read; the arguments are checked up front.

    Each mu of the window (symmetric ones only for the square flavors)
    gets its lam, with their chains and areas, from _chains_below, so
    nothing is tested and rejected; a unitary bidegree (i, j) builds
    only the chains of area |mu| - i.  The lam of one mu are put in graded
    order by sorting on the chain area.  A window with rows and columns,
    over MAX_PAIR_ROWS of either, or a square-flavor one of side over 15,
    raises InputTooLarge on the first read.
    """
    ambient = _check_flavor(ambient, flavor)
    if bidegree is not None:
        bidegree = tuple(bidegree)
        if len(bidegree) != 2:
            raise ValueError("bidegree must be a pair, got %r" % (bidegree,))
    return _walk(ambient, flavor, bidegree, 0)


def _walk(ambient, flavor, bidegree, least):
    # iter_pairs, less the pairs whose chain area is below least
    if min(ambient) > 0 and max(ambient) > MAX_PAIR_ROWS:
        raise InputTooLarge("%dx%d has more than %d rows or columns" % (*ambient, MAX_PAIR_ROWS))
    square = flavor != "unitary"
    # square-flavor pairs: 2^(p-1) (p+2) in p x p, against (m+1) (m+2) / 2 in m x 1
    if square and 2 ** ambient[0] * (ambient[0] + 2) > (MAX_PAIR_ROWS + 1) * (MAX_PAIR_ROWS + 2):
        raise InputTooLarge("%dx%d holds more pairs than %dx1" % (*ambient, MAX_PAIR_ROWS))
    shapes = enumerate_in_rectangle(*ambient, symmetric_only=square)
    # the window's own tuple for each lam; None for a square flavor's non-symmetric lam
    shared = {shape: shape for shape in shapes}
    for mu in shapes:
        low, high = least, sum(mu)
        if bidegree is not None:
            if _codegree(mu, ambient, flavor) != bidegree[1]:
                continue
            if not square:
                low = high = high - bidegree[0]
        if low > high:
            continue
        # |lam| = |mu| - area; equal-weight lam are never prefixes: sort_key order
        for _, lam, chain in sorted(_chains_below(mu, low, high), reverse=True):
            lam = shared.get(lam)
            if lam is None or square and bidegree is not None and _degree(lam, flavor) != bidegree[0]:
                continue
            yield CompatiblePair(lam, mu, ambient, flavor, chain)


def enumerate_pairs(ambient, flavor="unitary", bidegree=None):
    """The list of iter_pairs(ambient, flavor, bidegree)."""
    return list(iter_pairs(ambient, flavor, bidegree))


def mu_hat(pair):
    return complement(pair.mu, *pair.ambient)


def _degree(shape, flavor):
    if flavor == "unitary":
        return weight(shape)
    return weight(_REDUCTIONS[flavor](shape))


def _codegree(mu, ambient, flavor):
    if flavor == "unitary":
        return ambient[0] * ambient[1] - weight(mu)
    return _degree(complement(mu, *ambient), flavor)


def vz_bidegree(pair):
    """Bidegree of the pair's base class, by flavor: one degree from lam,
    one from the complement of mu."""
    return (_degree(pair.lam, pair.flavor), _codegree(pair.mu, pair.ambient, pair.flavor))


def levi_shape(pair):
    """The block subgroup the chain of the pair cuts out."""
    if pair.flavor == "unitary":
        return LeviShape(tuple(pair.chain), None)
    center, flanks = _diagonal_split(pair.chain)
    return LeviShape(tuple(flanks), center)


def chern_action_nonzero(nu, pair):
    """Witness that the class of nu acts on the pair's window, or None.

    Unitary windows use plain inscription; square flavors inscribe the
    diagonal reduction, trying both orientations of target and center.
    """
    nu = partition(nu)
    if pair.flavor == "unitary":
        mu_prime = _witness(nu, pair.lam, pair.mu)
        if mu_prime is None:
            return None
        return {"mu_prime": mu_prime}
    levi = levi_shape(pair)
    w = _inscribes_diagonal(_symmetric(nu, nu), levi.center, levi.rects, _REDUCTIONS[pair.flavor])
    if w is None:
        return None
    return {"orientation": w.orientation, "center": w.center, "gammas": w.gammas}


def injectivity_unitary(pair, levi):
    """Stable injectivity test: some support shape of the Levi's full
    blocks must leave room for its complement inside the pair's window.

    The Levi is checked on every call; its support, with each shape's
    complement, is built once per window and blocks and kept for the run.
    Every support shape has area sum(a_i b_i), so every complement has
    pq - sum(a_i b_i) cells; when that is more than the skew mu/lam
    holds, the answer is no and nothing is searched.

    Returns (answer, witness shape or None).
    """
    if pair.flavor != "unitary":
        raise ValueError("unitary pairs only")
    rects = _unitary_blocks(pair.ambient, levi)
    p, q = pair.ambient
    if p * q - sum(a * b for a, b in rects) > sum(pair.mu) - sum(pair.lam):
        return False, None
    for nu, top, _ in _levi_support((p, q), rects):
        if _witness(top, pair.lam, pair.mu) is not None:
            return True, nu
    return False, None


def fat_hook(ambient, r, s):
    """The partition with r full rows and width s below them."""
    p, q = _window(ambient)
    r, s = _integers((r, s), "corners")
    if not (0 <= r <= p and 0 <= s <= q):
        raise ValueError("corner (%d,%d) outside %dx%d" % (r, s, p, q))
    return partition((q,) * r + (s,) * (p - r))


def fat_hook_labels(ambient):
    """Canonical (r, s) labels, one per distinct fat hook."""
    p, q = _window(ambient)
    return [(r, s) for r in range(p) for s in range(q)] + [(p, 0)]


def injectivity_holomorphic_u(ambient, r, s, levi):
    """Closed-form answer for fat-hook pairs (full window above)."""
    p, q = _window(ambient)
    r, s = _integers((r, s), "corners")
    if not (0 <= r <= p and 0 <= s <= q):
        raise ValueError("corner (%d,%d) outside %dx%d" % (r, s, p, q))
    rects = _unitary_blocks((p, q), levi)
    if not rects:
        return False
    rows, cols = zip(*rects)
    full_p = sum(rows) == p and r == 0 and s <= min(cols)
    return full_p or (sum(cols) == q and s == 0 and r <= min(rows))


def gsp_stable_criterion(lam, mu, p):
    """Shared inscription test for the symplectic-type stable line."""
    (p,) = _integers((p,), "ranks")
    nu = staircase(p - 1)
    s = skew(mu, lam)
    return _witness(nu, s.inner, s.outer) is not None


def injectivity_gsp(pair):
    """Stable injectivity for a symplectic-flavor pair."""
    if pair.flavor != "symplectic":
        raise ValueError("symplectic pairs only")
    # gsp_stable_criterion on the pair's own shapes, which need no check
    return _witness(staircase(pair.ambient[0] - 1), pair.lam, pair.mu) is not None


def symmetric_fat_hook(p, r):
    """The self-conjugate hook family (r full rows, r full columns)."""
    p, r = _integers((p, r), "ranks and indices")
    if not 0 <= r <= p:
        raise ValueError("r=%d outside 0..%d" % (r, p))
    return partition((p,) * r + (r,) * (p - r))


def gsp_holomorphic(p, r, block_rows):
    """Closed form on the symplectic holomorphic family.

    Returns (injective, constant): the r = 0 member is the constant
    class, reported separately rather than through the main formula.
    """
    p, r = _integers((p, r), "ranks and indices")
    if not 0 <= r <= p:
        raise ValueError("r=%d outside 0..%d" % (r, p))
    block_rows = _integers(block_rows, "block rows")
    if any(b < 1 for b in block_rows) or sum(block_rows) > p:
        raise LeviDoesNotFit("blocks %r do not fit rank %d" % (block_rows, p))
    if r == 0:
        return False, True
    return (sum(block_rows) == p and r == 1), False


def kunneth_vanishing(pair, factor_pairs):
    """Whether the product of blockwise multiplicities is forced to zero.

    factor_pairs lists (box, lam_i, mu_i) per block; the second factor
    uses the complements of the mu_i inside their own boxes.  The boxes
    are Levi blocks: positive sides, side by side in the ambient window.
    """
    if pair.flavor != "unitary":
        raise ValueError("unitary pairs only")
    boxes = _check_blocks([box for box, _, _ in factor_pairs], *pair.ambient)
    lams, tops = [], []
    for box, (_, l, m) in zip(boxes, factor_pairs):
        l, m = partition(l), partition(m)
        if not fits(m, *box) or not contains(l, m):
            raise ShapeOutOfBox("pair %r/%r outside %dx%d" % (m, l, *box))
        lams.append(l)
        tops.append(complement(m, *box))
    # the pair's shapes and the blockwise ones are canonical by now
    left = _multi_coefficient(pair.lam, lams)
    right = _multi_coefficient(mu_hat(pair), tops)
    return left * right == 0


def vanishing_criterion(pair, a, side):
    """Degree bound forcing vanishing when the chain fills one side."""
    if pair.flavor != "unitary":
        raise ValueError("unitary pairs only")
    (a,) = _integers((a,), "bounds")
    if a < 1:
        raise ValueError("block side bound must be at least 1")
    if side not in ("P", "Q"):
        raise ValueError("side must be P or Q")
    p, q = pair.ambient
    if not pair.lam and pair.mu == rect(p, q):
        raise TrivialPairExcluded("the full-window pair is out of scope")
    # the chain fills side Q with its widths (P with its heights) and
    # each of its blocks is at least a long the other way
    k, n = (1, q) if side == "Q" else (0, p)
    return (
        sum(r[k] for r in pair.chain) == n
        and all(r[1 - k] >= a for r in pair.chain)
        and sum(vz_bidegree(pair)) < p * q - a * n
    )


def low_degree_bound(ambient):
    p, q = _window(ambient)
    return 3 * p - 2 if p == q else p + q - 1


def low_degree_structure(pair):
    """Coarse shape of the chain: FullP, FullQ, SquareStaircase, Other.

    Below the window's low-degree bound the three named cases are
    exhaustive, and this function checks that as it classifies.
    """
    p, q = pair.ambient
    if sum(x for x, _ in pair.chain) == p:
        return "FullP"
    if sum(b for _, b in pair.chain) == q:
        return "FullQ"
    if p == q and len(pair.chain) == 1 and pair.chain[0] == (p - 1, p - 1):
        return "SquareStaircase"
    degree = sum(vz_bidegree(pair))
    if degree < low_degree_bound(pair.ambient):
        raise InvariantViolated("unclassified pair %r in low degree" % (pair,))
    return "Other"


def arthur_cover(ambient, max_degree):
    """Pairs of degree at most max_degree with a subgroup suggestion
    whose own criterion confirms injectivity.

    Only defined below the window's low-degree bound.  A unitary pair's
    degree is pq minus its chain's area, so only the pairs of area at
    least pq - max_degree, the ones kept, are built.
    """
    p, q = _window(ambient)
    (max_degree,) = _integers((max_degree,), "degrees")
    bound = low_degree_bound((p, q))
    if max_degree >= bound:
        raise BoundExceeded("max degree %d not below bound %d" % (max_degree, bound))
    out = []
    for pair in _walk((p, q), "unitary", None, p * q - max_degree):
        label = low_degree_structure(pair)
        if label in ("FullP", "FullQ"):
            a, b = (p, q - 1) if label == "FullP" else (p - 1, q)
            suggestion = ("U", a, b)
            ok, _ = injectivity_unitary(pair, LeviShape(((a, b),) if a > 0 and b > 0 else (), None))
        else:
            suggestion = ("GSp", p)
            ok = gsp_stable_criterion(pair.lam, pair.mu, p)
        if not ok:
            raise InvariantViolated(
                "suggested subgroup fails its own criterion for %r" % (pair,)
            )
        out.append((pair, label, suggestion))
    return out


def partha_decomposition(ambient, degree):
    """Window sizes (a, b) whose classes land in the given codegree;
    the top codegree is carried by the point stratum (0, 0)."""
    p, q = _window(ambient)
    (degree,) = _integers((degree,), "degrees")
    if not 0 <= degree <= p * q:
        raise ValueError("degree %d outside 0..%d" % (degree, p * q))
    if degree == p * q:
        return [(0, 0)]
    return [(a, b) for a in range(1, p + 1) for b in range(1, q + 1) if p * q - a * b == degree]


class VZComponent(_Record):
    # indices: one partition per chain block (flanks for square flavors)
    __slots__ = ("pair", "indices", "center", "bidegree")

    def __init__(self, pair, indices, center=None, bidegree=None):
        _set_field(self, "pair", pair)
        _set_field(self, "indices", indices)
        _set_field(self, "center", center)
        _set_field(self, "bidegree", bidegree)


def enumerate_components(pair):
    """Index data of the pair's packet pieces.

    Unitary pairs get one piece per choice of partition in each chain
    block, with bidegree shifted diagonally by the total size.  Square
    flavors carry a symmetric center index as well and no bidegree
    bookkeeping.
    """
    levi = levi_shape(pair)
    choices = [enumerate_in_rectangle(a, b) for a, b in levi.rects]
    out = []
    if pair.flavor == "unitary":
        i0, j0 = vz_bidegree(pair)
        for nus in itertools.product(*choices):
            shift = sum(weight(nu) for nu in nus)
            out.append(VZComponent(pair, nus, None, (i0 + shift, j0 + shift)))
        return out
    for nu0 in enumerate_in_rectangle(levi.center, levi.center, symmetric_only=True):
        for nus in itertools.product(*choices):
            out.append(VZComponent(pair, nus, nu0, None))
    return out


def count_components(pair, bidegree=None):
    if bidegree is None:
        return len(enumerate_components(pair))
    bidegree = tuple(bidegree)
    return sum(1 for c in enumerate_components(pair) if c.bidegree == bidegree)


class OstarComponent(NamedTuple):
    family: str  # "R" or "S"
    param: int
    shape: tuple  # the symmetric partition of the component
    label: tuple  # its strict diagonal-arm reduction
    degree: int


def _ostar_shapes(p):
    for r in range(p + 1):
        yield "R", r, symmetric_fat_hook(p, r)
    for s in range(p):
        yield "S", s, partition((p,) * s + (p - 1,) * (p - s - 1) + (s,))


def ostar_holomorphic_components(p):
    """The two holomorphic families of the quaternionic window."""
    (p,) = _integers((p,), "ranks")
    if p < 2:
        raise ValueError("rank must be at least 2")
    out = []
    for family, param, shape in _ostar_shapes(p):
        label = minus_part(shape)
        out.append(OstarComponent(family, param, shape, label, weight(label)))
    return out


def ostar_identifications(p):
    """Groups of holomorphic components sharing a label (hence a class)."""
    groups = {}
    for comp in ostar_holomorphic_components(p):
        groups.setdefault(comp.label, []).append((comp.family, comp.param))
    return [{"label": k, "members": m} for k, m in sorted(groups.items()) if len(m) > 1]
