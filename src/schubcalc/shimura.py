"""Compatible nested pairs and stable restriction criteria.

A compatible pair is two nested partitions in a window whose difference
is a corner-linked chain of rectangles.  The functions here answer when
cohomology classes attached to such pairs survive restriction to the
subgroups the chain describes, classify the low-degree picture, and
enumerate holomorphic families for the two square-window types.
"""

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .cohomology import LeviShape, check_levi_unitary
from .errors import (
    AmbientNotSquare,
    BoundExceeded,
    IncompatiblePair,
    InvariantViolated,
    LeviDoesNotFit,
    ShapeNotSymmetric,
    ShapeOutOfBox,
    TrivialPairExcluded,
)
from .lr import (
    inscribes,
    inscribes_antisymmetric,
    inscribes_symmetric,
    inscribes_witness,
    multi_lr_coefficient,
    partitions_by_weight,
)
from .partition import (
    complement,
    contains,
    enumerate_in_rectangle,
    fits,
    is_symmetric,
    minus_part,
    partition,
    plus_part,
    rect,
    staircase,
    weight,
)
from .skew import SkewShape, rectangle_decomposition, skew, symmetric_chain_split

FLAVORS = ("unitary", "symplectic", "orthogonal")


@dataclass(frozen=True)
class CompatiblePair:
    lam: tuple
    mu: tuple
    ambient: tuple
    flavor: str
    chain: tuple  # rectangle sizes of mu/lam, top right first

    @property
    def skew(self):
        return SkewShape(self.mu, self.lam)


def _check_flavor(ambient, flavor):
    if flavor not in FLAVORS:
        raise ValueError("unknown flavor %r" % flavor)
    if flavor != "unitary" and ambient[0] != ambient[1]:
        raise AmbientNotSquare("%dx%d" % ambient)


def make_pair(lam, mu, ambient, flavor="unitary"):
    """Validate a user-supplied pair and read off its chain."""
    lam, mu, ambient = partition(lam), partition(mu), tuple(ambient)
    _check_flavor(ambient, flavor)
    if flavor != "unitary":
        for shape in (lam, mu):
            if not is_symmetric(shape):
                raise ShapeNotSymmetric("%r is not symmetric" % (shape,))
    if not fits(mu, *ambient):
        raise ShapeOutOfBox("%r outside %dx%d" % (mu, *ambient))
    if not contains(lam, mu):
        raise IncompatiblePair("%r not contained in %r" % (lam, mu))
    chain = rectangle_decomposition(SkewShape(mu, lam))
    if chain is None:
        raise IncompatiblePair("%r / %r is not a rectangle chain" % (mu, lam))
    return CompatiblePair(lam, mu, ambient, flavor, tuple(chain))


def _chains_below(mu):
    """Every (lam, chain) with mu/lam a corner-linked rectangle chain.

    A rectangle starting at row t runs down to the last row b of mu's
    block of parts equal to mu_t, since a row of that block left out
    would need a rectangle with the same right edge.  Its inner edge lo
    is at least mu_{b+1}, and the chain can go on below b only from the
    corner where lo == mu_{b+1} > 0; otherwise the rows below b are full.
    """
    parts = mu + (0,)
    out = [(mu, ())]

    def walk(t, above, chain):
        b = t
        while parts[b + 1] == parts[t]:
            b += 1
        rows, below = b - t + 1, parts[b + 1]
        for lo in range(below, parts[t]):
            inner = above + (lo,) * rows if lo else above
            step = chain + ((rows, parts[t] - lo),)
            out.append((inner + mu[b + 1 :], step))
            if lo == below > 0:
                walk(b + 1, inner, step)

    for t in range(len(mu)):
        walk(t, mu[:t], ())
    return out


def enumerate_pairs(ambient, flavor="unitary", bidegree=None):
    """All compatible pairs in the window, graded on mu then lam.

    Each mu of the window (symmetric ones only for the square flavors)
    gets its inner shapes by walking the rectangle chains down from the
    top right: a rectangle spans a whole block of mu's equal parts below
    its first row, and the chain goes on into the next block only from
    the corner where the rectangle's inner edge meets that block.  The
    walk builds each lam with its chain, so nothing is tested and
    rejected; the lam of one mu are then put in graded order.
    """
    ambient = tuple(ambient)
    _check_flavor(ambient, flavor)
    square = flavor != "unitary"
    if bidegree is not None:
        bidegree = tuple(bidegree)
        if len(bidegree) != 2:
            raise ValueError("bidegree must be a pair, got %r" % (bidegree,))
    shapes = enumerate_in_rectangle(*ambient, symmetric_only=square)
    # Positions in the graded list order each mu's lam, let all pairs
    # share one tuple per shape, and leave out the non-symmetric lam of
    # the square flavors.
    rank = {shape: i for i, shape in enumerate(shapes)}
    out = []
    for mu in shapes:
        if bidegree is not None and _degree(complement(mu, *ambient), flavor) != bidegree[1]:
            continue
        found = sorted((rank[lam], chain) for lam, chain in _chains_below(mu) if lam in rank)
        for i, chain in found:
            lam = shapes[i]
            if bidegree is not None and _degree(lam, flavor) != bidegree[0]:
                continue
            out.append(CompatiblePair(lam, mu, ambient, flavor, chain))
    return out


def mu_hat(pair):
    return complement(pair.mu, *pair.ambient)


def _degree(shape, flavor):
    if flavor == "unitary":
        return weight(shape)
    if flavor == "symplectic":
        return weight(plus_part(shape))
    return weight(minus_part(shape))


def vz_bidegree(pair):
    """Bidegree of the pair's base class, by flavor: one degree from lam,
    one from the complement of mu."""
    return (_degree(pair.lam, pair.flavor), _degree(mu_hat(pair), pair.flavor))


def levi_shape(pair):
    """The block subgroup the chain of the pair cuts out."""
    if pair.flavor == "unitary":
        return LeviShape(tuple(pair.chain), None)
    center, flanks = symmetric_chain_split(pair.skew)
    return LeviShape(tuple(flanks), center)


def chern_action_nonzero(nu, pair):
    """Witness that the class of nu acts on the pair's window, or None.

    Unitary windows use plain inscription; square flavors inscribe the
    diagonal reduction, trying both orientations of target and center.
    """
    nu = partition(nu)
    if pair.flavor == "unitary":
        mu_prime = inscribes_witness(nu, pair.skew)
        if mu_prime is None:
            return None
        return {"mu_prime": mu_prime}
    fn = inscribes_symmetric if pair.flavor == "symplectic" else inscribes_antisymmetric
    w = fn(nu, pair.skew)
    if w is None:
        return None
    return {"orientation": w.orientation, "center": w.center, "gammas": w.gammas}


def injectivity_unitary(pair, levi):
    """Stable injectivity test: some support shape of the Levi's full
    blocks must leave room for its complement inside the pair's window.

    Returns (answer, witness shape or None).
    """
    if pair.flavor != "unitary":
        raise ValueError("unitary pairs only")
    check_levi_unitary(pair.ambient, levi)
    full = [rect(a, b) for a, b in levi.rects]
    degree = sum(a * b for a, b in levi.rects)
    for nu in partitions_by_weight(*pair.ambient).get(degree, ()):
        if multi_lr_coefficient(nu, full) and inscribes(
            complement(nu, *pair.ambient), pair.skew
        ):
            return True, nu
    return False, None


def fat_hook(ambient, r, s):
    """The partition with r full rows and width s below them."""
    p, q = ambient
    if not (0 <= r <= p and 0 <= s <= q):
        raise ValueError("corner (%d,%d) outside %dx%d" % (r, s, p, q))
    return partition((q,) * r + (s,) * (p - r))


def fat_hook_labels(ambient):
    """Canonical (r, s) labels, one per distinct fat hook."""
    p, q = ambient
    out = [(r, s) for r in range(p) for s in range(q)]
    out.append((p, 0))
    return out


def injectivity_holomorphic_u(ambient, r, s, levi):
    """Closed-form answer for fat-hook pairs (full window above)."""
    p, q = ambient
    if not (0 <= r <= p and 0 <= s <= q):
        raise ValueError("corner (%d,%d) outside %dx%d" % (r, s, p, q))
    check_levi_unitary(ambient, levi)
    if not levi.rects:
        return False
    rows = [a for a, _ in levi.rects]
    cols = [b for _, b in levi.rects]
    if sum(rows) == p and r == 0 and s <= min(cols):
        return True
    if sum(cols) == q and s == 0 and r <= min(rows):
        return True
    return False


def gsp_stable_criterion(lam, mu, p):
    """Shared inscription test for the symplectic-type stable line."""
    return inscribes(staircase(p - 1), skew(mu, lam))


def injectivity_gsp(pair):
    """Stable injectivity for a symplectic-flavor pair."""
    if pair.flavor != "symplectic":
        raise ValueError("symplectic pairs only")
    return gsp_stable_criterion(pair.lam, pair.mu, pair.ambient[0])


def symmetric_fat_hook(p, r):
    """The self-conjugate hook family (r full rows, r full columns)."""
    if not 0 <= r <= p:
        raise ValueError("r=%d outside 0..%d" % (r, p))
    return partition((p,) * r + (r,) * (p - r))


def gsp_holomorphic(p, r, block_rows):
    """Closed form on the symplectic holomorphic family.

    Returns (injective, constant): the r = 0 member is the constant
    class, reported separately rather than through the main formula.
    """
    if not 0 <= r <= p:
        raise ValueError("r=%d outside 0..%d" % (r, p))
    block_rows = [int(b) for b in block_rows]
    if any(b < 1 for b in block_rows) or sum(block_rows) > p:
        raise LeviDoesNotFit("blocks %r do not fit rank %d" % (block_rows, p))
    if r == 0:
        return False, True
    return (sum(block_rows) == p and r == 1), False


def kunneth_vanishing(pair, factor_pairs):
    """Whether the product of blockwise multiplicities is forced to zero.

    factor_pairs lists (box, lam_i, mu_i) per block; the second factor
    uses the complements of the mu_i inside their own boxes.
    """
    if pair.flavor != "unitary":
        raise ValueError("unitary pairs only")
    boxes = [tuple(box) for box, _, _ in factor_pairs]
    if sum(a for a, _ in boxes) > pair.ambient[0] or sum(b for _, b in boxes) > pair.ambient[1]:
        raise LeviDoesNotFit("blocks exceed the ambient window")
    lams, tops = [], []
    for box, l, m in factor_pairs:
        l, m = partition(l), partition(m)
        if not fits(m, *box) or not contains(l, m):
            raise ShapeOutOfBox("pair %r/%r outside %dx%d" % (m, l, *box))
        lams.append(l)
        tops.append(complement(m, *box))
    left = multi_lr_coefficient(pair.lam, lams)
    right = multi_lr_coefficient(mu_hat(pair), tops)
    return left * right == 0


def vanishing_criterion(pair, a, side):
    """Degree bound forcing vanishing when the chain fills one side."""
    if pair.flavor != "unitary":
        raise ValueError("unitary pairs only")
    if a < 1:
        raise ValueError("block side bound must be at least 1")
    if side not in ("P", "Q"):
        raise ValueError("side must be P or Q")
    p, q = pair.ambient
    if not pair.lam and pair.mu == rect(p, q):
        raise TrivialPairExcluded("the full-window pair is out of scope")
    degree = sum(vz_bidegree(pair))
    if side == "Q":
        return (
            sum(b for _, b in pair.chain) == q
            and all(x >= a for x, _ in pair.chain)
            and degree < p * q - a * q
        )
    return (
        sum(x for x, _ in pair.chain) == p
        and all(b >= a for _, b in pair.chain)
        and degree < p * q - a * p
    )


def low_degree_bound(ambient):
    p, q = ambient
    if p < 0 or q < 0:
        raise ValueError("window sides must be nonnegative: %dx%d" % (p, q))
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

    Only defined below the window's low-degree bound.
    """
    p, q = ambient
    if max_degree >= low_degree_bound(ambient):
        raise BoundExceeded(
            "max degree %d not below bound %d" % (max_degree, low_degree_bound(ambient))
        )
    out = []
    for pair in enumerate_pairs(ambient):
        degree = sum(vz_bidegree(pair))
        if degree > max_degree:
            continue
        label = low_degree_structure(pair)
        if label == "FullP":
            suggestion = ("U", p, q - 1)
            levi = LeviShape(((p, q - 1),) if q > 1 else (), None)
            ok, _ = injectivity_unitary(pair, levi)
        elif label == "FullQ":
            suggestion = ("U", p - 1, q)
            levi = LeviShape(((p - 1, q),) if p > 1 else (), None)
            ok, _ = injectivity_unitary(pair, levi)
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
    p, q = ambient
    if not 0 <= degree <= p * q:
        raise ValueError("degree %d outside 0..%d" % (degree, p * q))
    if degree == p * q:
        return [(0, 0)]
    return [
        (a, b)
        for a in range(1, p + 1)
        for b in range(1, q + 1)
        if p * q - a * b == degree
    ]


@dataclass(frozen=True)
class VZComponent:
    pair: CompatiblePair
    indices: tuple  # one partition per chain block (flanks for square flavors)
    center: Optional[tuple] = None
    bidegree: Optional[tuple] = None


def enumerate_components(pair):
    """Index data of the pair's packet pieces.

    Unitary pairs get one piece per choice of partition in each chain
    block, with bidegree shifted diagonally by the total size.  Square
    flavors carry a symmetric center index as well and no bidegree
    bookkeeping.
    """
    out = []
    if pair.flavor == "unitary":
        i0, j0 = vz_bidegree(pair)
        choices = [enumerate_in_rectangle(a, b) for a, b in pair.chain]
        for nus in itertools.product(*choices):
            shift = sum(weight(nu) for nu in nus)
            out.append(VZComponent(pair, nus, None, (i0 + shift, j0 + shift)))
        return out
    center, flanks = symmetric_chain_split(pair.skew)
    centers = enumerate_in_rectangle(center, center, symmetric_only=True)
    choices = [enumerate_in_rectangle(a, b) for a, b in flanks]
    for nu0 in centers:
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
        yield "R", r, partition((p,) * r + (r,) * (p - r))
    for s in range(p):
        yield "S", s, partition((p,) * s + (p - 1,) * (p - s - 1) + (s,))


def ostar_holomorphic_components(p):
    """The two holomorphic families of the quaternionic window."""
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
    return [
        {"label": label, "members": members}
        for label, members in sorted(groups.items(), key=lambda kv: kv[0])
        if len(members) > 1
    ]
