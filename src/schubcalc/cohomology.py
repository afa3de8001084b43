"""Schubert-basis cohomology of rectangle Grassmannians.

Classes are finite integer combinations of basis elements indexed by
partitions inside the ambient rectangle; products build and count only
the shapes inside the window, as the classes vanishing outside it are
never formed.  Grading is by number of cells (complex codimension).

The constructors (cohom_class, schubert_class, tensor_class) normalize
and check every shape they are given.  A class they build, or one an
operation here returns, is trusted: its keys are canonical shapes inside
their boxes, so cup, cup_tensor, restrict_levi and dual_class_unitary
build their results straight from the canonical keys of lr's private
cores, with no second check.  A class built by hand must keep the same
rule: canonical keys, each inside its box, with int coefficients.  The
constructors read coefficients by the parts' rule, errors._integers:
0.5, "1" or NaN is refused with ValueError, and 2.0 becomes an int.
Windows and boxes are read by errors._window, which also refuses a
negative side.  _levi_support is the one builder of a type-A Levi's
support, the product of its full blocks inside the window, with each
shape's complement.  It is a functools.cache table keyed by the window
and the checked blocks, kept for the run, so a repeated
dual_class_unitary or injectivity_unitary (arthur_cover's too) builds
no product; both check the Levi on every call, before the lookup, so a
refused Levi is refused every time.
"""

import functools
from operator import attrgetter

from .errors import AmbientMismatch, DegreeOutOfRange, LeviDoesNotFit, _integers, _window
from .lr import _coproduct, _expand, _product, _symmetric, diagonal_splits
from .partition import (
    _inside,
    _require_square,
    complement,
    conjugate,
    from_plus_part,
    is_strict,
    partition,
    plus_part,
    rect,
    sort_key,
    staircase,
)


def _normalize_terms(terms, sortfn):
    # int() before the zeros go, so no class keeps a zero-valued term
    clean = [(k, c) for k, c in zip(terms, map(int, terms.values())) if c]
    return dict(sorted(clean, key=sortfn))


# bound once: looking up object.__setattr__ for every field made a
# CompatiblePair 10-20% slower to build.  A class built in bulk can go
# further and bind each slot's member descriptor setter once after its
# class statement, vars(cls)[name].__set__, as shimura.CompatiblePair
# does; that skips the name lookup of object.__setattr__ altogether.
_set_field = object.__setattr__


class _Record:
    """Immutable value with named fields, equal by class and fields.

    A subclass lists its fields in __slots__ and sets each one in its
    own __init__ through _set_field (or its slots' own setters), past
    the blocked __setattr__."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        cls._values = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self.__slots__)
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __reduce__(self):
        # rebuilt through __init__, as __setattr__ blocks the slot restore
        return type(self), self._values(self)


class CohomClass(_Record):
    __slots__ = ("ambient", "terms")

    def __init__(self, ambient, terms=None):
        _set_field(self, "ambient", ambient)
        _set_field(self, "terms", {} if terms is None else terms)

    def coefficient(self, lam):
        return self.terms.get(partition(lam), 0)


class TensorClass(_Record):
    __slots__ = ("factors", "terms")  # factors: (rows, cols) per component

    def __init__(self, factors, terms=None):
        _set_field(self, "factors", factors)
        _set_field(self, "terms", {} if terms is None else terms)

    def coefficient(self, lams):
        return self.terms.get(tuple(partition(l) for l in lams), 0)


class IsotropicClass(_Record):
    __slots__ = ("rank", "flavor", "terms")  # flavor: "lagrangian" or "orthogonal"

    def __init__(self, rank, flavor, terms=None):
        _set_field(self, "rank", rank)
        _set_field(self, "flavor", flavor)
        _set_field(self, "terms", {} if terms is None else terms)

    def coefficient(self, key):
        return self.terms.get(partition(key), 0)


class LeviShape(_Record):
    # rects: (rows, cols) blocks; center: side of the diagonal block,
    # None for type-A Levis
    __slots__ = ("rects", "center")

    def __init__(self, rects, center=None):
        _set_field(self, "rects", rects)
        _set_field(self, "center", center)


def cohom_class(ambient, terms):
    ambient = _window(ambient)
    out = {}
    for lam, c in terms.items():
        lam = _inside(partition(lam), *ambient)
        out[lam] = out.get(lam, 0) + _integers((c,), "coefficients")[0]
    return CohomClass(ambient, _normalize_terms(out, lambda kv: sort_key(kv[0])))


def schubert_class(ambient, lam):
    ambient = _window(ambient)
    return CohomClass(ambient, {_inside(partition(lam), *ambient): 1})


def unit(ambient):
    return schubert_class(ambient, ())


def tensor_class(factors, terms):
    factors = tuple(map(_window, factors))
    out = {}
    for lams, c in terms.items():
        lams = tuple(partition(l) for l in lams)
        if len(lams) != len(factors):
            raise ValueError("expected %d components" % len(factors))
        for l, box in zip(lams, factors):
            _inside(l, *box)
        out[lams] = out.get(lams, 0) + _integers((c,), "coefficients")[0]
    key = lambda kv: tuple(sort_key(l) for l in kv[0])
    return TensorClass(factors, _normalize_terms(out, key))


def cup(x, y):
    """Product in the ambient window; only shapes inside it are built."""
    if x.ambient != y.ambient:
        raise AmbientMismatch("%r vs %r" % (x.ambient, y.ambient))
    # _expand's keys are canonical shapes inside the window: no cohom_class check
    out = {}
    for lam, c1 in x.terms.items():
        for nu, c2 in y.terms.items():
            for mu, c in _expand(lam, nu, rect(*x.ambient)).items():
                out[mu] = out.get(mu, 0) + c1 * c2 * c
    return CohomClass(tuple(x.ambient), _normalize_terms(out, lambda kv: sort_key(kv[0])))


def cup_tensor(x, y):
    """Componentwise product of tensor classes over matching blocks."""
    if x.factors != y.factors:
        raise AmbientMismatch("%r vs %r" % (x.factors, y.factors))
    # _expand's keys are canonical shapes inside each block: no tensor_class check
    out = {}
    for lams, c1 in x.terms.items():
        for nus, c2 in y.terms.items():
            partial = [((), 1)]
            for lam, nu, box in zip(lams, nus, x.factors):
                grown = []
                for prefix, c in partial:
                    for mu, cc in _expand(lam, nu, rect(*box)).items():
                        grown.append((prefix + (mu,), c * cc))
                partial = grown
            for keys, c in partial:
                out[keys] = out.get(keys, 0) + c1 * c2 * c
    factors = tuple(tuple(b) for b in x.factors)
    return TensorClass(factors, _normalize_terms(out, lambda kv: tuple(map(sort_key, kv[0]))))


def chern_t(ambient, k):
    """k-th Chern class of the tautological bundle side: a column shape."""
    ambient = _window(ambient)
    (k,) = _integers((k,), "degrees")
    if not 1 <= k <= ambient[0]:
        raise DegreeOutOfRange("k=%d outside 1..%d" % (k, ambient[0]))
    return schubert_class(ambient, (1,) * k)


def chern_q(ambient, k):
    """k-th Chern class of the quotient side: a row shape."""
    ambient = _window(ambient)
    (k,) = _integers((k,), "degrees")
    if not 1 <= k <= ambient[1]:
        raise DegreeOutOfRange("k=%d outside 1..%d" % (k, ambient[1]))
    return schubert_class(ambient, (k,))


def poincare_pair(x, y):
    """Coefficient of the full-window class in the product."""
    return cup(x, y).terms.get(rect(*x.ambient), 0)


def _check_blocks(rects, rows, cols):
    # the blocks as pairs of int sides, refused unless each side is a
    # positive integer and the blocks fit side by side in rows x cols
    ints = []
    for box in rects:
        a, b = _integers(box, "block sides")
        if a < 1 or b < 1:
            raise LeviDoesNotFit("blocks need positive sides")
        ints.append((a, b))
    rects = tuple(ints)
    if sum(a for a, _ in rects) > rows:
        raise LeviDoesNotFit("row sides exceed the ambient")
    if sum(b for _, b in rects) > cols:
        raise LeviDoesNotFit("column sides exceed the ambient")
    return rects


def check_levi_unitary(ambient, levi):
    """The Levi with int sides, refused unless its blocks fit side by side
    in the ambient and it has no diagonal block."""
    return LeviShape(_unitary_blocks(_window(ambient), levi))


def _unitary_blocks(ambient, levi):
    # check_levi_unitary's blocks, in an ambient of int sides already read
    if levi.center is not None:
        raise LeviDoesNotFit("a type-A Levi has no diagonal block")
    return _check_blocks(levi.rects, *ambient)


def restrict_levi(x, levi):
    """Restriction to a product of block factors, one per Levi rectangle."""
    rects = _unitary_blocks(x.ambient, levi)
    # _coproduct builds each block shape inside its box, so the terms
    # skip tensor_class's checks
    out = {}
    for lam, c in x.terms.items():
        for alphas, m in _coproduct(lam, (), rects).items():
            out[alphas] = out.get(alphas, 0) + c * m
    return TensorClass(rects, _normalize_terms(out, lambda kv: tuple(map(sort_key, kv[0]))))


def dual_class_unitary(ambient, levi):
    """Class carried by the Levi orbit: one basis term per complemented
    support shape, normalized so the orbit itself appears with weight 1."""
    ambient = _window(ambient)
    # complements of canonical shapes in the window: no cohom_class check
    terms = {top: m for _, top, m in _levi_support(ambient, _unitary_blocks(ambient, levi))}
    return CohomClass(ambient, _normalize_terms(terms, lambda kv: sort_key(kv[0])))


@functools.cache
def _levi_support(ambient, rects):
    # ((nu, complement of nu in the window, multiplicity), ...) over the
    # product of the full blocks kept inside the window, in nu's graded
    # order; ambient holds int sides already read and rects the blocks
    # _unitary_blocks checked.  A hit returns the table's own tuple
    support = _product([rect(a, b) for a, b in rects], rect(*ambient))
    return tuple((nu, complement(nu, *ambient), support[nu]) for nu in sorted(support, key=sort_key))


def _restrict_isotropic(x, p, flavor, qualifies, key_of):
    # each basis shape that qualifies, or else whose transpose does, is
    # kept under key_of of the one that qualifies; the rest are dropped
    out = {}
    for lam, c in x.terms.items():
        if not qualifies(lam):
            lam = conjugate(lam)
            if not qualifies(lam):
                continue
        key = key_of(lam)
        out[key] = out.get(key, 0) + c
    return IsotropicClass(p, flavor, _normalize_terms(out, lambda kv: sort_key(kv[0])))


def restrict_to_lagrangian(x):
    """Push a square-window class to the symmetric-form fixed locus.

    A basis shape survives when it or its transpose is strict; the
    image is keyed by the symmetric shape with those diagonal hooks.
    """
    return _restrict_isotropic(x, _require_square(x.ambient), "lagrangian", is_strict, from_plus_part)


def restrict_to_orthogonal(x):
    """Like restrict_to_lagrangian for the alternating-form locus; a
    shape survives when it or its transpose is strict and at most p-1
    wide, and the image is keyed by that strict shape."""
    p = _require_square(x.ambient)

    def qualifies(lam):
        return is_strict(lam) and (not lam or lam[0] <= p - 1)

    return _restrict_isotropic(x, p, "orthogonal", qualifies, lambda lam: lam)


def dual_class_gsp(p):
    """Dual of the symplectic-type orbit in the p x p window."""
    (p,) = _integers((p,), "ranks")
    return schubert_class((p, p), staircase(p - 1))


def dual_class_ostar(p):
    """Dual of the quaternionic-type orbit in the p x p window."""
    (p,) = _integers((p,), "ranks")
    return schubert_class((p, p), staircase(p))


def check_levi_square(p, levi):
    """The Levi with int sides, refused unless it has a diagonal block of
    nonnegative side and its blocks fit beside it in the p x p window."""
    (p,) = _integers((p,), "ranks")
    if levi.center is None:
        raise LeviDoesNotFit("this Levi needs a diagonal block")
    (center,) = _integers((levi.center,), "diagonal block sides")
    if center < 0:
        raise LeviDoesNotFit("diagonal block side must be nonnegative")
    return LeviShape(_check_blocks(levi.rects, p - center, p - center), center)


def restrict_symplectic_levi_support(nu, levi, p):
    """Index pairs (center shape, block shapes) that can appear in the
    restriction of the class of nu to a diagonal-block Levi."""
    nu = partition(nu)
    (p,) = _integers((p,), "ranks")
    nu = _inside(_symmetric(nu, nu), p, p)
    levi = check_levi_square(p, levi)
    splits = diagonal_splits(plus_part(nu), levi.center, levi.rects, plus_part)
    found = {(() if w.center is None else w.center, w.gammas) for w in splits}
    return sorted(found, key=lambda pair: (sort_key(pair[0]), tuple(map(sort_key, pair[1]))))
