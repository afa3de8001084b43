"""The trust rule: each public function normalizes the shapes its caller
passes in once, with partition(), and trusts the canonical shapes the
library builds, pairs from make_pair and classes from the cohomology
constructors.

The bodies these functions had while every layer re-normalized its
shapes are kept here as oracles (_*_renormalizing); tests/deep runs them
exhaustively.  So are the bodies from before a symmetric chain's split
about the diagonal was read off the chain (*_mirroring): they pair the
runs above the diagonal with the mirrors of those below, and re-split
each pair's skew.
"""

import itertools
import sys
from collections import Counter

import pytest

import schubcalc.lr as lr_mod
from schubcalc.cohomology import (
    CohomClass,
    LeviShape,
    TensorClass,
    check_levi_unitary,
    cohom_class,
    cup,
    cup_tensor,
    dual_class_unitary,
    poincare_pair,
    restrict_levi,
    schubert_class,
    tensor_class,
)
from schubcalc.errors import (
    AmbientMismatch,
    IncompatiblePair,
    LeviDoesNotFit,
    NotSymmetric,
    ShapeNotSymmetric,
    ShapeOutOfBox,
)
from schubcalc.lr import (
    expand_product,
    inscribes,
    inscribes_antisymmetric,
    inscribes_symmetric,
    inscribes_witness,
    multi_lr_coefficient,
    schur_expand,
)
from schubcalc.partition import (
    bar_closure,
    check_reduction,
    complement,
    contains,
    enumerate_in_rectangle,
    fits,
    from_minus_part,
    from_plus_part,
    is_strict,
    is_symmetric,
    minus_part,
    partition,
    plus_part,
    rect,
    staircase,
    weight,
)
from schubcalc.shimura import (
    VZComponent,
    chern_action_nonzero,
    count_components,
    enumerate_components,
    gsp_stable_criterion,
    injectivity_gsp,
    injectivity_unitary,
    kunneth_vanishing,
    enumerate_pairs,
    levi_shape,
    make_pair,
    mu_hat,
    vz_bidegree,
)
from schubcalc.skew import SkewShape, _Run, format_skew, skew, symmetric_chain_split
from test_skew import _runs_by_row_extension

# ------------------------------------------------------------- oracles


def complement_renormalizing(lam, rows, cols):
    if not fits(lam, rows, cols):
        raise ShapeOutOfBox("%r does not fit in %dx%d" % (lam, rows, cols))
    padded = lam + (0,) * (rows - len(lam))
    return partition(cols - padded[rows - 1 - i] for i in range(rows))


def plus_part_renormalizing(lam):
    if not is_symmetric(lam):
        raise NotSymmetric("%r is not symmetric" % (lam,))
    return partition(max(0, p - i) for i, p in enumerate(lam))


def minus_part_renormalizing(lam):
    if not is_symmetric(lam):
        raise NotSymmetric("%r is not symmetric" % (lam,))
    return partition(max(0, p - i) for i, p in enumerate(lam, start=1))


def bar_closure_renormalizing(lam):
    if not is_symmetric(lam):
        raise NotSymmetric("%r is not symmetric" % (lam,))
    return partition(p + 1 if p >= i else p for i, p in enumerate(lam, start=1))


def check_reduction_renormalizing(lam):
    if not is_symmetric(lam):
        raise NotSymmetric("%r is not symmetric" % (lam,))
    return partition(p - 1 if p >= i else p for i, p in enumerate(lam, start=1))


def _from_diagonal_hooks_renormalizing(strict, arm):
    if not is_strict(strict) or any(p <= 0 for p in strict):
        raise ValueError("expected a strict partition, got %r" % (strict,))
    cells = set()
    for i, p in enumerate(strict, start=1):
        for j in range(i, i + arm(p)):
            cells.add((i, j))
            cells.add((j, i))
    if not cells:
        return ()
    nrows = max(r for r, _ in cells)
    return partition(sum(1 for r, _ in cells if r == i) for i in range(1, nrows + 1))


def from_plus_part_renormalizing(strict):
    return _from_diagonal_hooks_renormalizing(strict, lambda p: p)


def from_minus_part_renormalizing(strict):
    return _from_diagonal_hooks_renormalizing(strict, lambda p: p + 1)


def expand_product_renormalizing(factors, box=None):
    outer = None if box is None else rect(*box)
    acc = lr_mod._product([partition(f) for f in factors], outer)
    return dict(sorted(acc.items(), key=lambda kv: lr_mod.sort_key(kv[0])))


def multi_lr_coefficient_renormalizing(target, factors):
    target = partition(target)
    cleaned = [partition(f) for f in factors]
    factors = sorted((f for f in cleaned if f), key=lr_mod.sort_key, reverse=True)
    if sum(target) != sum(sum(f) for f in factors):
        return 0
    return lr_mod._product(factors, target).get(target, 0)


def inscribes_witness_renormalizing(nu, s):
    terms = lr_mod._expand(partition(s.inner), partition(nu), partition(s.outer))
    return next(iter(terms), None)


def _inscribes_diagonal_renormalizing(nu, s, reduce_map):
    center_side, flanks = symmetric_chain_split_mirroring(s)
    boxes = [(b, a) for a, b in flanks]
    splits = lr_mod.diagonal_splits(reduce_map(partition(nu)), center_side, boxes, reduce_map)
    return next(splits, None)


def inscribes_symmetric_renormalizing(nu, s):
    if not is_symmetric(partition(nu)):
        raise ShapeNotSymmetric("%r is not symmetric" % (nu,))
    return _inscribes_diagonal_renormalizing(nu, s, plus_part)


def inscribes_antisymmetric_renormalizing(nu, s):
    if not is_symmetric(partition(nu)):
        raise ShapeNotSymmetric("%r is not symmetric" % (nu,))
    return _inscribes_diagonal_renormalizing(nu, s, minus_part)


def schubert_class_renormalizing(ambient, lam):
    return cohom_class(ambient, {partition(lam): 1})


def cup_renormalizing(x, y):
    if x.ambient != y.ambient:
        raise AmbientMismatch("%r vs %r" % (x.ambient, y.ambient))
    out = {}
    for lam, c1 in x.terms.items():
        for nu, c2 in y.terms.items():
            for mu, c in schur_expand(lam, nu, x.ambient).items():
                out[mu] = out.get(mu, 0) + c1 * c2 * c
    return cohom_class(x.ambient, out)


def cup_tensor_renormalizing(x, y):
    if x.factors != y.factors:
        raise AmbientMismatch("%r vs %r" % (x.factors, y.factors))
    out = {}
    for lams, c1 in x.terms.items():
        for nus, c2 in y.terms.items():
            partial = [((), 1)]
            for lam, nu, box in zip(lams, nus, x.factors):
                grown = []
                for prefix, c in partial:
                    for mu, cc in schur_expand(lam, nu, box).items():
                        grown.append((prefix + (mu,), c * cc))
                partial = grown
            for keys, c in partial:
                out[keys] = out.get(keys, 0) + c1 * c2 * c
    return tensor_class(x.factors, out)


def poincare_pair_renormalizing(x, y):
    return cup_renormalizing(x, y).coefficient(rect(*x.ambient))


def dual_class_unitary_renormalizing(ambient, levi):
    check_levi_unitary(ambient, levi)
    full = [rect(a, b) for a, b in levi.rects]
    support = expand_product_renormalizing(full, ambient)
    return cohom_class(ambient, {complement_renormalizing(nu, *ambient): m for nu, m in support.items()})


def chern_action_nonzero_renormalizing(nu, pair):
    nu = partition(nu)
    if pair.flavor == "unitary":
        mu_prime = inscribes_witness_renormalizing(nu, pair.skew)
        if mu_prime is None:
            return None
        return {"mu_prime": mu_prime}
    if pair.flavor == "symplectic":
        fn = inscribes_symmetric_renormalizing
    else:
        fn = inscribes_antisymmetric_renormalizing
    w = fn(nu, pair.skew)
    if w is None:
        return None
    return {"orientation": w.orientation, "center": w.center, "gammas": w.gammas}


def _inscribes_renormalizing(nu, s):
    return inscribes_witness_renormalizing(nu, s) is not None


def injectivity_unitary_renormalizing(pair, levi):
    if pair.flavor != "unitary":
        raise ValueError("unitary pairs only")
    check_levi_unitary(pair.ambient, levi)
    full = [rect(a, b) for a, b in levi.rects]
    for nu in expand_product_renormalizing(full, pair.ambient):
        if _inscribes_renormalizing(complement_renormalizing(nu, *pair.ambient), pair.skew):
            return True, nu
    return False, None


def gsp_stable_criterion_renormalizing(lam, mu, p):
    return _inscribes_renormalizing(staircase(p - 1), skew(mu, lam))


def injectivity_gsp_renormalizing(pair):
    if pair.flavor != "symplectic":
        raise ValueError("symplectic pairs only")
    return gsp_stable_criterion_renormalizing(pair.lam, pair.mu, pair.ambient[0])


def kunneth_vanishing_renormalizing(pair, factor_pairs):
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
        tops.append(complement_renormalizing(m, *box))
    left = multi_lr_coefficient_renormalizing(pair.lam, lams)
    right = multi_lr_coefficient_renormalizing(complement_renormalizing(pair.mu, *pair.ambient), tops)
    return left * right == 0


def symmetric_chain_split_mirroring(s):
    # its runs come from the row-extension oracle, not from skew._runs
    if not (is_symmetric(s.outer) and is_symmetric(s.inner)):
        raise ShapeNotSymmetric("skew %s is not symmetric" % (format_skew(s),))
    runs = _runs_by_row_extension(s)
    if runs is None:
        raise IncompatiblePair("skew %s is not a rectangle chain" % (format_skew(s),))
    center = 0
    above, below = [], []
    for r in runs:
        if r.top == r.lo + 1 and r.bottom == r.hi:
            center = r.bottom - r.top + 1
        elif r.lo + 1 > r.bottom:
            above.append(r)
        else:
            below.append(r)
    mirrored = [_Run(r.lo + 1, r.hi, r.top - 1, r.bottom) for r in reversed(below)]
    if above != mirrored:
        raise ShapeNotSymmetric("blocks of %s are not mirror paired" % (format_skew(s),))
    return center, [(r.bottom - r.top + 1, r.hi - r.lo) for r in above]


def levi_shape_mirroring(pair):
    if pair.flavor == "unitary":
        return LeviShape(tuple(pair.chain), None)
    center, flanks = symmetric_chain_split_mirroring(pair.skew)
    return LeviShape(tuple(flanks), center)


def enumerate_components_mirroring(pair):
    out = []
    if pair.flavor == "unitary":
        i0, j0 = vz_bidegree(pair)
        choices = [enumerate_in_rectangle(a, b) for a, b in pair.chain]
        for nus in itertools.product(*choices):
            shift = sum(weight(nu) for nu in nus)
            out.append(VZComponent(pair, nus, None, (i0 + shift, j0 + shift)))
        return out
    center, flanks = symmetric_chain_split_mirroring(pair.skew)
    centers = enumerate_in_rectangle(center, center, symmetric_only=True)
    choices = [enumerate_in_rectangle(a, b) for a, b in flanks]
    for nu0 in centers:
        for nus in itertools.product(*choices):
            out.append(VZComponent(pair, nus, nu0, None))
    return out


def count_components_mirroring(pair, bidegree=None):
    if bidegree is None:
        return len(enumerate_components_mirroring(pair))
    bidegree = tuple(bidegree)
    return sum(1 for c in enumerate_components_mirroring(pair) if c.bidegree == bidegree)


def outcome(fn, *args):
    """The result, or the exception's type and message."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # noqa: BLE001 (the type and message are compared)
        return type(exc), str(exc)


def same_outcome(fn, oracle, *args):
    """Assert equal outcomes of fn and its oracle; return fn's."""
    got, want = outcome(fn, *args), outcome(oracle, *args)
    # repr too, so that a float where the oracle has an int shows
    assert (got, repr(got)) == (want, repr(want)), (fn.__name__, args)
    return got


# ------------------------------------------------- normalizations per call


@pytest.fixture
def partition_calls(monkeypatch):
    """Wrap partition in every schubcalc namespace that binds it; the
    fixture's list gets one entry per call."""
    calls = []

    def counting(parts):
        calls.append(parts)
        return partition(parts)

    for name, mod in list(sys.modules.items()):
        if (name == "schubcalc" or name.startswith("schubcalc.")) and vars(mod).get("partition") is partition:
            monkeypatch.setitem(vars(mod), "partition", counting)
    return calls


def _calls(calls, fn, *args):
    del calls[:]
    fn(*args)
    return len(calls)


def test_partition_is_bound_where_the_layers_use_it(partition_calls):
    # the fixture reaches each layer that normalizes input
    for layer in ("partition", "skew", "lr", "cohomology", "shimura"):
        assert vars(sys.modules["schubcalc." + layer])["partition"] is not partition


def test_each_call_normalizes_only_its_callers_shapes(partition_calls):
    calls = partition_calls
    unitary = make_pair((1, 1, 1), (4, 4, 4, 1), (4, 4))
    symplectic = make_pair((3, 1, 1), (4, 3, 3, 1), (4, 4), "symplectic")
    orthogonal = make_pair((3, 1, 1), (4, 3, 3, 1), (4, 4), "orthogonal")
    x, y = schubert_class((4, 4), (2, 1)), schubert_class((4, 4), (2,))
    levi = LeviShape(((1, 3), (3, 1)))
    s = skew((5, 4, 3, 2, 1), (4, 3, 2, 1))
    # derived shapes are trusted
    assert _calls(calls, complement, (3, 1), 4, 4) == 0
    assert _calls(calls, plus_part, (3, 1, 1)) == 0
    assert _calls(calls, minus_part, (3, 1, 1)) == 0
    assert _calls(calls, bar_closure, (3, 1, 1)) == 0
    assert _calls(calls, check_reduction, (3, 1, 1)) == 0
    assert _calls(calls, from_plus_part, (3, 1)) == 0
    assert _calls(calls, from_minus_part, (3, 1)) == 0
    # a public entry point normalizes each shape it is given once
    assert _calls(calls, schubert_class, (4, 4), (2, 1)) == 1
    assert _calls(calls, inscribes_symmetric, (2, 2), s) == 1
    assert _calls(calls, inscribes_antisymmetric, (2, 2), s) == 1
    assert _calls(calls, inscribes_witness, (1,), s) == 3
    assert _calls(calls, gsp_stable_criterion, (1,), (2, 1), 2) == 2
    assert _calls(calls, expand_product, [(2,), (1, 1), (1,)], (4, 4)) == 3
    assert _calls(calls, multi_lr_coefficient, (2, 1), [(1,), (1,), (1,)]) == 4
    # classes from the constructors and pairs from make_pair are trusted
    assert _calls(calls, cup, x, y) == 0
    assert _calls(calls, poincare_pair, x, y) == 0
    t = restrict_levi(schubert_class((4, 4), (3, 2, 1)), LeviShape(((2, 2), (2, 2))))
    assert _calls(calls, cup_tensor, t, t) == 0
    assert _calls(calls, dual_class_unitary, (4, 4), levi) == 0
    assert _calls(calls, injectivity_unitary, unitary, levi) == 0
    assert _calls(calls, injectivity_gsp, symplectic) == 0
    for pair in (unitary, symplectic, orthogonal):
        assert _calls(calls, chern_action_nonzero, (1,), pair) == 1
    # only the blockwise shapes, two per block
    blocks = [((2, 2), (1,), (2, 2)), ((2, 2), (), (2, 1))]
    assert _calls(calls, kunneth_vanishing, unitary, blocks) == 4


# ------------------------------------------------- non-canonical input

# lists, trailing zeros, increasing parts, negative parts, non-integers
ODD_SHAPES = [
    [2, 1],
    [],
    (2, 1, 0, 0),
    (0,),
    (1, 2),
    (2, 1, 3),
    (2, -1),
    (-1,),
    (2.5, 1),
    (2.0, 1.0),
    ("2", "1"),
    ("x",),
]
# the same kinds around symmetric shapes
ODD_SYMMETRIC = [[2, 1], [1], (1, 0), (2, 1, 0), (3, 1, 1, 0), (1, 2), (-1,), (2, -1), (1.5,), (2.0, 1.0), ("1",)]
CANONICAL = [(), (1,), (2,), (1, 1), (2, 1), (3, 1, 1), (2, 2), (4, 3, 3, 1)]


def test_derived_shapes_match_the_renormalizing_oracles_on_odd_input():
    # plus_part and the others check symmetry first, and a tuple equal to
    # its conjugate is canonical, so odd input fails there as before
    for lam in ODD_SHAPES + ODD_SYMMETRIC + CANONICAL:
        for fn, oracle in (
            (plus_part, plus_part_renormalizing),
            (minus_part, minus_part_renormalizing),
            (bar_closure, bar_closure_renormalizing),
            (check_reduction, check_reduction_renormalizing),
        ):
            same_outcome(fn, oracle, lam)
    # from_plus_part and from_minus_part check for a strict shape first
    for strict in ODD_SHAPES + [(3, 1), (4, 2, 1), (1,), ()]:
        same_outcome(from_plus_part, from_plus_part_renormalizing, strict)
        same_outcome(from_minus_part, from_minus_part_renormalizing, strict)


def test_complement_matches_the_renormalizing_oracle():
    # complement takes canonical shapes, the partition module's rule, and
    # no longer checks what it builds from them: an increasing, negative
    # or non-integer part is no longer caught; lists and trailing zeros
    # still come out as before
    for lam in [[2, 1], [], (2, 1, 0), (0,), (1, 0, 0)] + CANONICAL:
        for rows, cols in ((3, 3), (4, 4), (2, 5)):
            same_outcome(complement, complement_renormalizing, lam, rows, cols)
            same_outcome(complement, complement_renormalizing, rect(rows, cols), rows, cols)


def test_lr_entry_points_match_the_renormalizing_oracles_on_odd_input():
    s = skew((5, 4, 3, 2, 1), (4, 3, 2, 1))
    wide = SkewShape((4, 3, 3, 1), (2, 1))
    for lam in ODD_SHAPES + ODD_SYMMETRIC + CANONICAL:
        same_outcome(inscribes_symmetric, inscribes_symmetric_renormalizing, lam, s)
        same_outcome(inscribes_antisymmetric, inscribes_antisymmetric_renormalizing, lam, s)
        same_outcome(inscribes_witness, inscribes_witness_renormalizing, lam, wide)
        same_outcome(inscribes, lambda nu, s: inscribes_witness_renormalizing(nu, s) is not None, lam, wide)
        # an odd shape in either place of the skew window
        same_outcome(inscribes_witness, inscribes_witness_renormalizing, (1,), SkewShape(lam, ()))
        same_outcome(inscribes_witness, inscribes_witness_renormalizing, (1,), SkewShape((4, 4, 4), lam))
        same_outcome(expand_product, expand_product_renormalizing, [lam, (1,)], (4, 4))
        same_outcome(expand_product, expand_product_renormalizing, [(2,), lam], None)
        same_outcome(multi_lr_coefficient, multi_lr_coefficient_renormalizing, lam, [(1,), (1,), (1,)])
        same_outcome(multi_lr_coefficient, multi_lr_coefficient_renormalizing, (3, 2, 1), [lam, (2, 1)])


def test_cohomology_entry_points_match_the_renormalizing_oracles_on_odd_input():
    for lam in ODD_SHAPES + ODD_SYMMETRIC + CANONICAL:
        for ambient in ((4, 4), [4, 4], (2, 3)):
            same_outcome(schubert_class, schubert_class_renormalizing, ambient, lam)
    for ambient in ((4, 4), [4, 4], (3, 5)):
        for rects in (((1, 3), (3, 1)), [[2, 2]], (), ((2, 6),)):
            same_outcome(dual_class_unitary, dual_class_unitary_renormalizing, ambient, LeviShape(rects))


def test_hand_built_classes_with_canonical_keys_multiply_as_before():
    # a list ambient, unsorted terms, a zero, a float, a negative
    # coefficient and a key outside the window
    x = CohomClass([3, 3], {(2, 1): 2, (1,): 0, (): 1.0, (3, 3, 3, 1): 5})
    y = CohomClass([3, 3], {(1, 1): -1, (2,): 3})
    z = schubert_class((3, 3), (1,))
    for a, b in ((x, y), (y, x), (x, x), (y, z), (z, y), (x, CohomClass([3, 3])), (x, z)):
        same_outcome(cup, cup_renormalizing, a, b)
        same_outcome(poincare_pair, poincare_pair_renormalizing, a, b)
    t = TensorClass([[2, 2], (1, 3)], {((1,), (2,)): 2, ((), ()): 1, ((2, 2), (3,)): -1})
    u = tensor_class([(2, 2), (1, 3)], {((1,), (1,)): 1})
    for a, b in ((t, t), (t, TensorClass([[2, 2], (1, 3)], {})), (u, u), (u, TensorClass([[2, 2], [1, 3]], u.terms))):
        same_outcome(cup_tensor, cup_tensor_renormalizing, a, b)


def test_shimura_entry_points_match_the_renormalizing_oracles_on_odd_input():
    unitary = make_pair([1, 1, 1], (4, 4, 4, 1, 0), [4, 4])
    symplectic = make_pair((3, 1, 1), (4, 3, 3, 1), (4, 4), "symplectic")
    orthogonal = make_pair((3, 1, 1), (4, 3, 3, 1), (4, 4), "orthogonal")
    for lam in ODD_SHAPES + ODD_SYMMETRIC + CANONICAL:
        for pair in (unitary, symplectic, orthogonal):
            same_outcome(chern_action_nonzero, chern_action_nonzero_renormalizing, lam, pair)
        same_outcome(gsp_stable_criterion, gsp_stable_criterion_renormalizing, lam, (4, 3, 3, 1), 4)
        same_outcome(gsp_stable_criterion, gsp_stable_criterion_renormalizing, (1,), lam, 3)
        for blocks in ([((2, 2), lam, (2, 2))], [((2, 2), (), lam), ((1, 2), (1,), [2])]):
            same_outcome(kunneth_vanishing, kunneth_vanishing_renormalizing, unitary, blocks)
    for pair in (unitary, symplectic, orthogonal):
        same_outcome(injectivity_gsp, injectivity_gsp_renormalizing, pair)
        for rects in (((1, 3), (3, 1)), [[2, 2]], (), ((5, 1),)):
            same_outcome(injectivity_unitary, injectivity_unitary_renormalizing, pair, LeviShape(rects))
    assert mu_hat(unitary) == complement_renormalizing(unitary.mu, *unitary.ambient)


def test_kunneth_vanishing_matches_the_renormalizing_oracle_3x3():
    nested = [(l, m) for m in CANONICAL if fits(m, 2, 2) for l in CANONICAL if contains(l, m)]
    for pair in enumerate_pairs((3, 3)):
        for l, m in nested:
            for blocks in ([((2, 2), l, m)], [((1, 1), (), (1,)), ((2, 2), l, m)]):
                same_outcome(kunneth_vanishing, kunneth_vanishing_renormalizing, pair, blocks)


# ------------------------------------------ the split about the diagonal


def test_symmetric_chain_split_matches_the_mirroring_oracle_6x6():
    shapes = enumerate_in_rectangle(6, 6)
    seen = Counter()
    for outer in shapes:
        for inner in shapes:
            if contains(inner, outer):
                s = SkewShape(outer, inner)
                got, want = outcome(symmetric_chain_split, s), outcome(symmetric_chain_split_mirroring, s)
                assert (got, repr(got)) == (want, repr(want)), s
                seen[got[0]] += 1
    # symmetric chains, symmetric non-chains and asymmetric skews
    assert set(seen) == {"returned", IncompatiblePair, ShapeNotSymmetric}, seen


def _component_checks(pair):
    same_outcome(levi_shape, levi_shape_mirroring, pair)
    same_outcome(enumerate_components, enumerate_components_mirroring, pair)
    same_outcome(count_components, count_components_mirroring, pair)
    # every bidegree the pair's pieces have, as a list too, and one they lack
    bidegrees = {c.bidegree for c in enumerate_components_mirroring(pair)} - {None}
    for bidegree in sorted(bidegrees) + [[0, 0], (-1, -1)]:
        same_outcome(count_components, count_components_mirroring, pair, bidegree)


@pytest.mark.parametrize("flavor", ["symplectic", "orthogonal"])
def test_square_flavor_criteria_match_the_mirroring_oracles_5x5(flavor):
    for n in range(1, 6):
        nus = enumerate_in_rectangle(n, n, symmetric_only=True)
        for pair in enumerate_pairs((n, n), flavor):
            _component_checks(pair)
            for nu in nus:
                same_outcome(chern_action_nonzero, chern_action_nonzero_renormalizing, nu, pair)


def test_unitary_components_match_the_mirroring_oracles_4x4():
    for p in range(1, 5):
        for q in range(1, 5):
            for pair in enumerate_pairs((p, q)):
                _component_checks(pair)
