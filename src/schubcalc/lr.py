"""Littlewood-Richardson numbers and inscription predicates.

Every answer comes from the ballot method: products, witnesses and
splits from tableau.ballot_fillings, the one ballot-filling search, and a
single coefficient from tableau.ballot_count, which counts the same
fillings by row states without listing them.  count_images and the
tableau product and rectification are kept only as independent
cross-checks.

Each public function normalizes the shapes it is given with partition(),
once, and each box (rows, cols) with errors._window.  The private cores
below them (_expand, _product, _coproduct, _multi_coefficient, _witness
and _inscribes_diagonal) take canonical tuples, check nothing, and
return canonical keys, which callers trust in turn.  The cohomology and
shimura layers call the cores directly with the shapes of pairs from
make_pair or iter_pairs and of classes from the cohomology
constructors, which are canonical already.

A two-shape product is one ballot search over the disconnected skew
nu*lam, as s_lam s_nu = s_{nu*lam} (Macdonald, Symmetric Functions and
Hall Polynomials, I.5): the heavier shape at the top right, its filling
forced (row i holds only i's), and the lighter one at the bottom left.
With the content left free, each filling of content mu adds 1 to
c^mu_{lam,nu}; keeping the product inside an outer shape caps letter v
at outer_v copies and the letters at len(outer).  A product with the
empty shape needs no search: the skew is then the other shape alone,
straight, and its one filling is forced.

Products of more than two shapes are iterated two at a time, with every
partial product kept inside an optional outer shape: expand_product
takes a box, and a multi-factor coefficient is read off the product
kept inside its own target, as every shape on a chain ending at the
target lies inside it.  Multi-factor coefficients have no memo of their
own.

A target's splits into block shapes are read top-down, from
s_lam(x, y) = sum_alpha s_alpha(x) s_{lam/alpha}(y) and
s_{lam/alpha} = sum_mu c^lam_{alpha,mu} s_mu (Macdonald, I.5).
_coproduct(lam, inner, boxes) splits the skew lam/inner in one loop
over {shape still to split: {block shapes so far: coefficient}}, which
starts from lam/inner expanded inside the rectangle all the boxes span.
Each shape mu still to split and each alpha inside both mu and the next
box give one ballot search over mu/alpha, its letters capped by the
rectangle R x C the later boxes span, but only an alpha whose rest has
rows of at most C cells and columns of at most R is built: a column of
the rest takes distinct letters, so each s_nu in s_{mu/alpha} has a row
per cell of its longest column, and, by conjugation, nu_1 is at least
its longest row; so alpha_i >= mu_i - C and alpha_i >= mu_{i+R}.  No
search is run for alpha = mu or alpha = (), as a skew with no cells and
a straight shape have one ballot filling each (row i holds only i's).
Every shape visited lies under lam, and nothing recurses.  The memoized
terms are sorted once, into the graded order of each alpha_i in turn,
for both callers: the Levi restriction (inner empty) and the diagonal
search (a target over a center).  Multi-factor coefficients stay on the
bottom-up products, so the tests' oracles, which count through
multi_lr_coefficient, do not share the walk.

Each memoized helper (_coefficient, _expand_pair, _coproduct and
_centers, the diagonal search's symmetric centers, keyed by side and
square flavor) keeps its own functools.cache table, which cache_clear()
empties and cache_info() counts.  A hit returns the table's own dict or
tuple, shared by every caller, so callers must not mutate it; the
tuples let searches running at the same time share them.

A single coefficient, lr_coefficient, is the same in four orientations:
swap the two lower shapes, or conjugate all three.  _coefficient and
the cache file are keyed by the least of the four keys, but a miss
counts the fillings by row states in the cheapest orientation: the
lighter lower shape as the content, so the skew has the fewer cells,
then all three conjugated if that content has more rows than columns,
so the fillings use fewer letters.  _coefficient holds counted values
only, keyed by the canonical key alone, so a coefficient is counted at
most once per process.

lr_coefficient alone touches the plain-text cache file named by the
SCHUBERT_CACHE_DIR environment variable (a directory gets a
lr-cache.txt inside it; anything else is taken as the file itself);
products never read or write it.  Each line is "OUTER;INNER;CONTENT
VALUE" with the key in canonical form, as _key_text writes it.  The
file is read into one index from key text to value, without parsing
any shape: a line is matched by its exact canonical text, the first
line whose value is a run of ASCII digits wins, and any other line,
such as one with a signed value or a non-canonical key, is ignored.  A
key the index misses takes its value from _coefficient, appended to
the file in canonical form and put in the index, so each key is
appended at most once per process.  _read_index holds one file's index
at a time, so a value read from a file answers only while
SCHUBERT_CACHE_DIR names that file.  Appends use O_APPEND and stay
atomic only for lines shorter than PIPE_BUF.  Reads are plain dict
lookups, so sharing the tables across threads is safe; writers append
whole lines only.
"""

import functools
import os
from collections import Counter
from typing import NamedTuple, Optional

from .errors import ShapeNotSymmetric, _window
from .partition import (
    _shapes_under,
    _trim,
    conjugate,
    contains,
    enumerate_in_rectangle,
    format_partition,
    is_symmetric,
    minus_part,
    partition,
    plus_part,
    rect,
    sort_key,
)
from .skew import SkewShape, reverse_numbering, symmetric_chain_split
from .tableau import ballot_count, ballot_fillings


class LRKey(NamedTuple):
    outer: tuple
    inner: tuple
    content: tuple


def _cache_path():
    root = os.environ.get("SCHUBERT_CACHE_DIR")
    if not root:
        return None
    if os.path.isdir(root):
        return os.path.join(root, "lr-cache.txt")
    return root


def _key_text(key):
    # the OUTER;INNER;CONTENT text a cache line holds before its value
    return "%s;%s;%s" % (
        format_partition(key.outer),
        format_partition(key.inner),
        format_partition(key.content),
    )


@functools.lru_cache(maxsize=1)
def _read_index(path):
    # {key text: value} of the file at path, without parsing any shape;
    # the first line whose value is a run of ASCII digits wins, anything
    # else is skipped; one file's index is kept at a time
    index = {}
    try:
        with open(path) as fh:
            for line in fh:
                text, _, tail = line.strip().rpartition(" ")
                if text and text not in index and tail.isascii() and tail.isdigit():
                    index[text] = int(tail)
    except OSError:
        pass
    return index


def _persist(path, text, value):
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, ("%s %d\n" % (text, value)).encode())
        finally:
            os.close(fd)
    except OSError:
        pass


def _orientations(outer, inner, content):
    # the four keys reached by swapping the lower shapes and by
    # conjugating all three; one coefficient belongs to all of them
    o, i, c = conjugate(outer), conjugate(inner), conjugate(content)
    return (
        LRKey(outer, inner, content),
        LRKey(outer, content, inner),
        LRKey(o, i, c),
        LRKey(o, c, i),
    )


def _canonical_key(outer, inner, content):
    # the least of the four keys; cache file lines are keyed by it
    return min(_orientations(outer, inner, content))


def lr_coefficient(outer, inner, content):
    """Multiplicity of outer in the product of inner and content."""
    outer, inner, content = partition(outer), partition(inner), partition(content)
    if not contains(inner, outer) or not contains(content, outer):
        return 0
    if sum(outer) != sum(inner) + sum(content):
        return 0
    key = _canonical_key(outer, inner, content)
    path = _cache_path()
    if not path:
        return _coefficient(key)
    index, text = _read_index(path), _key_text(key)
    value = index.get(text)
    if value is None:
        value = index[text] = _coefficient(key)
        _persist(path, text, value)
    return value


@functools.cache
def _coefficient(key):
    # the counted coefficient of a canonical key whose lower shapes both
    # lie inside its outer one, in the cheapest orientation (see the
    # module docstring)
    keys = _orientations(*key)
    k = 1 if sum(key.content) > sum(key.inner) else 0
    light = keys[k].content
    if light and len(light) > light[0]:
        k += 2
    o, i, c = keys[k]
    return ballot_count(SkewShape(o, i), c)


def _skew_terms(s, caps):
    # {mu: c^outer_{inner,mu}} over the mu whose part v is at most
    # caps[v-1]: one ballot search over s, each filling adding 1 to the
    # term of its content (s_{outer/inner} = sum_mu c^outer_{inner,mu} s_mu);
    # ballot counts fall weakly after the positive sentinel, so zeros trail
    tally = Counter(tuple(counts) for _, counts in ballot_fillings(s, caps))
    return {counts[1 : len(counts) - counts.count(0)]: c for counts, c in tally.items()}


def _expand(lam, nu, outer):
    # both orders of the factors share one memo entry
    return _expand_pair(lam, nu, outer) if lam <= nu else _expand_pair(nu, lam, outer)


@functools.cache
def _expand_pair(lam, nu, outer):
    # {mu: coefficient} over the shapes inside outer (every shape when
    # outer is None), in graded order, with lam <= nu; every mu has the
    # one weight |lam| + |nu|, so graded order is reverse tuple order
    bot, top = sorted((lam, nu), key=sum)  # the heavier shape's filling is forced
    n = sum(top) + sum(bot)
    if outer is not None and not (n <= sum(outer) and contains(top, outer) and contains(bot, outer)):
        terms = {}
    elif not bot:
        # a straight shape's one ballot filling puts only i's in row i
        terms = {top: 1}
    else:
        # one search over the skew top*bot (see the module docstring)
        b = bot[0]
        s = SkewShape(tuple(t + b for t in top) + bot, (b,) * len(top))
        caps = (n,) * (len(top) + len(bot)) if outer is None else outer
        terms = _skew_terms(s, caps)
    return dict(sorted(terms.items(), reverse=True))


def _skew_under(lam, alpha, rows, cols):
    # _skew_terms of lam/alpha with its letters capped by the rows x cols
    # rectangle; {} if alpha is not inside lam or the rest has too many
    # cells (_coproduct's bounds already keep its rows and columns in the
    # rectangle); a skew with no cells, or a straight shape, whose one
    # ballot filling puts only i's in row i, is answered without a search
    if alpha == lam:
        return {(): 1}
    if not alpha:
        return {lam: 1} if len(lam) <= rows and lam[0] <= cols else {}
    if sum(lam) - sum(alpha) > rows * cols or not contains(alpha, lam):
        return {}
    return _skew_terms(SkewShape(lam, alpha), (cols,) * rows)


@functools.cache
def _coproduct(lam, inner, boxes):
    # {(alpha_1, ..., alpha_k): c^{lam/inner}_{alpha_1...alpha_k}} with
    # alpha_i inside boxes[i], in the graded order of each alpha_i in
    # turn (see the module docstring)
    rows_left, cols_left = sum(a for a, _ in boxes), sum(b for _, b in boxes)
    # {shape still to split: {alphas so far: coefficient}}
    level = {mu: {(): c} for mu, c in _skew_under(lam, inner, rows_left, cols_left).items()}
    for rows, cols in boxes:
        rows_left, cols_left = rows_left - rows, cols_left - cols
        nxt = {}
        for mu, heads in level.items():
            # alpha_i >= mu_i - cols_left, mu_{i+rows_left}: see the docstring
            below = mu[rows_left:] + (0,) * rows_left
            lows = _trim(tuple(max(p - cols_left, q) for p, q in zip(mu, below)))
            for alpha in _shapes_under([min(cols, p) for p in mu[:rows]], lows):
                for rest, c in _skew_under(mu, alpha, rows_left, cols_left).items():
                    acc = nxt.setdefault(rest, {})
                    for head, c0 in heads.items():
                        key = head + (alpha,)
                        acc[key] = acc.get(key, 0) + c0 * c
        level = nxt
    terms = level.get((), {})
    return dict(sorted(terms.items(), key=lambda kv: tuple(map(sort_key, kv[0]))))


def _product(factors, outer):
    # iterated product of straight shapes, kept inside outer
    acc = {(): 1}
    for f in factors:
        nxt = {}
        for mu, c in acc.items():
            for mu2, c2 in _expand(mu, f, outer).items():
                nxt[mu2] = nxt.get(mu2, 0) + c * c2
        acc = nxt
    return acc


def schur_expand(lam, nu, box=None):
    """Expand the product of two straight shapes: {mu: coefficient}.

    With box = (rows, cols), the search keeps each letter's count inside
    that window, so the result is the full product restricted to the
    window; a product of degree above rows * cols is empty at once.
    """
    outer = None if box is None else rect(*_window(box))
    return dict(_expand(partition(lam), partition(nu), outer))


def expand_product(factors, box=None):
    """Iterated expansion of a list of straight shapes, in graded order.

    With box = (rows, cols), every partial product is kept inside that
    window, as in schur_expand, so the result is the full product
    restricted to the window.
    """
    outer = None if box is None else rect(*_window(box))
    acc = _product([partition(f) for f in factors], outer)
    # every term has the factors' total weight: reverse tuple order is graded
    return dict(sorted(acc.items(), reverse=True))


def multi_lr_coefficient(target, factors):
    """Multiplicity of target in the product of all the factors."""
    return _multi_coefficient(partition(target), [partition(f) for f in factors])


def _multi_coefficient(target, factors):
    # multi_lr_coefficient of a canonical target and canonical factors;
    # largest first: the order picks which products are built and memoized
    factors = sorted((f for f in factors if f), key=sort_key, reverse=True)
    if sum(target) != sum(sum(f) for f in factors):
        return 0
    # every partial product on a chain ending at target lies inside it,
    # so the product kept inside target holds the full coefficient
    return _product(factors, target).get(target, 0)


def _nw(a, b):
    return a != b and a[0] <= b[0] and a[1] <= b[1]


def count_images(nu, s):
    """Order-compatible relabelings of nu's diagram onto the skew cells.

    Counts bijections from the cells of the straight shape nu to the
    cells of s preserving the reverse-numbering order on northwest-
    comparable pairs in both directions.
    """
    nu = partition(nu)
    src = reverse_numbering(SkewShape(nu, ()))
    dst = reverse_numbering(s)
    if len(src) != len(dst):
        return 0
    chosen = []  # chosen[j] = index into dst for source cell j
    used = set()

    def ok(k, t):
        for j, tj in enumerate(chosen):
            if _nw(src[j], src[k]) and tj > t:
                return False
            if _nw(src[k], src[j]) and tj < t:
                return False
            # source order is fixed, so a later source cell must not land
            # northwest of an earlier one
            if _nw(dst[t], dst[tj]):
                return False
        return True

    def rec(k):
        if k == len(src):
            return 1
        total = 0
        for t in range(len(dst)):
            if t in used or not ok(k, t):
                continue
            chosen.append(t)
            used.add(t)
            total += rec(k + 1)
            used.discard(t)
            chosen.pop()
        return total

    return rec(0)


def inscribes_witness(nu, s):
    """The least shape, in graded order, between s.inner and s.outer
    reached from s.inner by nu, or None: the first term of the memoized
    product of s.inner and nu kept inside s.outer."""
    return _witness(partition(nu), partition(s.inner), partition(s.outer))


def _witness(nu, inner, outer):
    # inscribes_witness of canonical shapes, inner inside outer
    return next(iter(_expand(inner, nu, outer)), None)


def inscribes(nu, s):
    """Whether nu can be drawn inside the skew window s."""
    return inscribes_witness(nu, s) is not None


class SymWitness(NamedTuple):
    orientation: tuple  # ("id"|"conj" for the target, same for the center or None)
    center: Optional[tuple]
    gammas: tuple


def _oriented(strict):
    # a strict shape and its transpose, deduplicated, with labels
    flip = conjugate(strict)
    if flip == strict:
        return (("id", strict),)
    return (("id", strict), ("conj", flip))


# the diagonal reduction of each square flavor
_REDUCTIONS = {"symplectic": plus_part, "orthogonal": minus_part}


@functools.cache
def _centers(side, flavor):
    # ((nu0, oriented reduction of nu0), ...) over the symmetric shapes
    # inside side x side, () alone for side 0
    shapes = enumerate_in_rectangle(side, side, symmetric_only=True)
    return tuple((nu0, _oriented(_REDUCTIONS[flavor](nu0))) for nu0 in shapes)


def diagonal_splits(nu, center_side, boxes, flavor):
    """SymWitness records of the ways to reach the symmetric shape nu
    from a symmetric center inside center_side x center_side and one
    shape per box, through _REDUCTIONS[flavor] (KeyError unless flavor
    is "symplectic" or "orthogonal"): both orientations of nu's
    reduction, then each center, both orientations of its reduction,
    then the splits of the rest inside the oriented target, the keys of
    _coproduct(target, center, boxes), in the graded order of each
    block shape in turn.  With center_side 0 there is no center factor,
    and the center and its orientation are None.  The centers of each
    (center_side, flavor) have their own functools.cache table, and the
    splits share _coproduct's with the Levi restriction, so a repeated
    search runs no ballot search; the witnesses come out in the same
    order either way."""
    boxes = tuple(map(tuple, boxes))
    for t_label, tgt in _oriented(_REDUCTIONS[flavor](nu)):
        for nu0, oriented in _centers(center_side, flavor):
            for t0_label, ctr in oriented:
                for gammas in _coproduct(tgt, ctr, boxes):
                    yield SymWitness(
                        (t_label, t0_label if center_side else None),
                        nu0 if center_side else None,
                        gammas,
                    )


def _symmetric(nu, given):
    # a canonical nu, refused unless symmetric; given is nu as the caller
    # passed it, for the error
    if not is_symmetric(nu):
        raise ShapeNotSymmetric("%r is not symmetric" % (given,))
    return nu


def _inscribes_diagonal(nu, center_side, flanks, flavor):
    # the first diagonal witness of a canonical symmetric nu in the
    # symmetric chain split into center_side and flanks
    boxes = [(b, a) for a, b in flanks]  # factor for an a x b flank lives in b x a
    return next(diagonal_splits(nu, center_side, boxes, flavor), None)


def inscribes_symmetric(nu, s):
    """Diagonal-symmetric inscription through the hook-arm reduction.

    nu and s must both be symmetric; nu is checked first.  Returns a
    witness (center shape, flank shapes, orientations) or None.
    """
    return _inscribes_diagonal(_symmetric(partition(nu), nu), *symmetric_chain_split(s), "symplectic")


def inscribes_antisymmetric(nu, s):
    """Like inscribes_symmetric but through the strict-arm reduction."""
    return _inscribes_diagonal(_symmetric(partition(nu), nu), *symmetric_chain_split(s), "orthogonal")
