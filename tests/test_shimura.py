import dataclasses
import functools
import hashlib
import itertools
import math
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import schubcalc
from schubcalc import shimura
from schubcalc.cohomology import LeviShape
from schubcalc.errors import (
    AmbientNotSquare,
    BoundExceeded,
    IncompatiblePair,
    InputTooLarge,
    LeviDoesNotFit,
    ShapeNotSymmetric,
    ShapeOutOfBox,
    TrivialPairExcluded,
)
from schubcalc.partition import (
    _box_weights,
    complement,
    contains,
    enumerate_in_rectangle,
    minus_part,
    rect,
    weight,
)
from schubcalc.shimura import (
    FLAVORS,
    CompatiblePair,
    OstarComponent,
    VZComponent,
    arthur_cover,
    chern_action_nonzero,
    count_components,
    enumerate_components,
    enumerate_pairs,
    fat_hook,
    fat_hook_labels,
    gsp_holomorphic,
    injectivity_gsp,
    injectivity_holomorphic_u,
    injectivity_unitary,
    iter_pairs,
    kunneth_vanishing,
    levi_shape,
    low_degree_bound,
    low_degree_structure,
    make_pair,
    mu_hat,
    ostar_holomorphic_components,
    ostar_identifications,
    partha_decomposition,
    symmetric_fat_hook,
    vanishing_criterion,
    vz_bidegree,
)
from test_cohomology import check_value_type


_PAIR = make_pair((1,), (2, 1), (2, 2))
_PAIR_TEXT = "CompatiblePair(lam=(1,), mu=(2, 1), ambient=(2, 2), flavor='unitary', chain=((1, 1), (1, 1)))"
# (value, its fields in order, its repr) for each value type here
_VALUES = [
    (_PAIR, ("lam", "mu", "ambient", "flavor", "chain"), _PAIR_TEXT),
    (
        VZComponent(_PAIR, ((), ()), None, (1, 1)),
        ("pair", "indices", "center", "bidegree"),
        "VZComponent(pair=%s, indices=((), ()), center=None, bidegree=(1, 1))" % _PAIR_TEXT,
    ),
    (
        enumerate_components(make_pair((), (1,), (2, 2), "symplectic"))[1],
        ("pair", "indices", "center", "bidegree"),
        "VZComponent(pair=CompatiblePair(lam=(), mu=(1,), ambient=(2, 2), flavor='symplectic', chain=((1, 1),)),"
        " indices=(), center=(1,), bidegree=None)",
    ),
]
_VALUE_IDS = ["pair", "component", "component-center"]


@pytest.mark.parametrize("x, fields, text", _VALUES, ids=_VALUE_IDS)
def test_value_type_contract(x, fields, text):
    check_value_type(x, fields, text)


@pytest.mark.parametrize("x, fields, text", _VALUES, ids=_VALUE_IDS)
def test_value_types_are_plain_slotted_classes(x, fields, text):
    assert not isinstance(x, tuple)
    assert not dataclasses.is_dataclass(x)


def test_value_types_take_keywords_and_defaults():
    fields = dict(lam=(1,), mu=(2, 1), ambient=(2, 2), flavor="unitary", chain=((1, 1), (1, 1)))
    assert CompatiblePair(**fields) == _PAIR
    assert CompatiblePair(**fields).skew == _PAIR.skew
    comp = VZComponent(pair=_PAIR, indices=((), ()))
    assert comp.center is None and comp.bidegree is None
    assert comp == VZComponent(_PAIR, ((), ()), None, None)
    assert VZComponent(_PAIR, (), center=(1,)) == VZComponent(_PAIR, (), (1,), None)
    with pytest.raises(TypeError):
        CompatiblePair((1,), (2, 1), (2, 2), "unitary")
    with pytest.raises(TypeError):
        VZComponent(pair=_PAIR)


def test_make_pair_validation():
    with pytest.raises(ValueError):
        make_pair((), (1,), (1, 1), flavor="special")
    with pytest.raises(AmbientNotSquare):
        make_pair((), (1,), (2, 3), flavor="symplectic")
    with pytest.raises(ShapeNotSymmetric):
        make_pair((1, 1), (2, 2), (2, 2), flavor="symplectic")
    with pytest.raises(ShapeOutOfBox):
        make_pair((), (3,), (2, 2))
    with pytest.raises(IncompatiblePair):
        make_pair((2,), (1, 1), (2, 2))
    with pytest.raises(IncompatiblePair):
        make_pair((1,), (2, 2), (2, 2))  # skew has a column-contact overlap


def test_enumerate_pairs_1x1():
    pairs = enumerate_pairs((1, 1))
    assert [(p.lam, p.mu) for p in pairs] == [((), ()), ((), (1,)), ((1,), (1,))]


def test_enumerate_pairs_bidegree_filter():
    for amb in ((2, 2), (2, 3)):
        found = enumerate_pairs(amb, bidegree=(0, 0))
        assert [(p.lam, p.mu) for p in found] == [((), rect(*amb))]


def test_enumerate_pairs_symplectic_symmetry():
    sym = enumerate_pairs((2, 2), flavor="symplectic")
    uni = enumerate_pairs((2, 2))
    want = [
        (p.lam, p.mu)
        for p in uni
        if p.lam == tuple(sorted(p.lam, reverse=True))
        and p.lam == _conj(p.lam)
        and p.mu == _conj(p.mu)
    ]
    assert [(p.lam, p.mu) for p in sym] == want


def _conj(lam):
    out = []
    j = 1
    while True:
        n = sum(1 for v in lam if v >= j)
        if not n:
            return tuple(out)
        out.append(n)
        j += 1


def _generate_and_reject(ambient, flavor="unitary"):
    # The enumeration the chain walk replaced: try every nested pair of
    # window shapes and keep what make_pair accepts.  make_pair refuses
    # non-symmetric shapes for the square flavors, so only symmetric
    # candidates are tried there.
    out = []
    shapes = enumerate_in_rectangle(*ambient, symmetric_only=flavor != "unitary")
    for mu in shapes:
        for lam in shapes:
            if not contains(lam, mu):
                continue
            try:
                pair = make_pair(lam, mu, ambient, flavor)
            except (IncompatiblePair, ShapeNotSymmetric):
                continue
            out.append(pair)
    return out


def _walk_and_rank(ambient, flavor="unitary"):
    # The ordering iter_pairs replaced: walk the chains below each mu,
    # then sort its lam by their positions in the graded list of window
    # shapes, which also leaves out the non-symmetric lam of the square
    # flavors and gives every pair the window's one tuple per shape.
    shapes = enumerate_in_rectangle(*ambient, symmetric_only=flavor != "unitary")
    rank = {shape: i for i, shape in enumerate(shapes)}
    out = []
    for mu in shapes:
        walked = shimura._chains_below(mu, 0, weight(mu))
        found = sorted((rank[lam], chain) for _, lam, chain in walked if lam in rank)
        out += [CompatiblePair(shapes[i], mu, ambient, flavor, chain) for i, chain in found]
    return out


def _chains_below_recursive(mu, least, most):
    # _chains_below as it walked before it kept its open chains in a
    # list: one nested call per chain block, kept as an oracle.
    parts = mu + (0,)
    out = [(0, mu, ())] if least <= 0 <= most else []

    def walk(t, above, chain, area):
        b = t
        while parts[b + 1] == parts[t]:
            b += 1
        rows, below = b - t + 1, parts[b + 1]
        for lo in range(below, parts[t]):
            size = area + rows * (parts[t] - lo)
            if size > most:
                continue
            inner = above + (lo,) * rows if lo else above
            step = chain + ((rows, parts[t] - lo),)
            if size >= least:
                out.append((size, inner + mu[b + 1 :], step))
            if lo == below > 0:
                walk(b + 1, inner, step, size)

    for t in range(len(mu)):
        walk(t, mu[:t], (), 0)
    return out


def test_chains_below_matches_recursive_oracle():
    # every mu of the 6x6 box, over a grid of area bounds around 0 and |mu|
    for mu in enumerate_in_rectangle(6, 6):
        w = weight(mu)
        for least in (-1, 0, 1, w // 2, w):
            for most in (0, w // 2, w - 1, w, w + 1):
                got = sorted(shimura._chains_below(mu, least, most))
                assert got == sorted(_chains_below_recursive(mu, least, most)), (mu, least, most)


def _windows(limit):
    for p in range(limit + 1):
        for q in range(limit + 1):
            for flavor in FLAVORS:
                if flavor == "unitary" or p == q:
                    yield (p, q), flavor


def test_enumerate_pairs_matches_generate_and_reject():
    cases = list(_windows(5)) + [((6, 6), "symplectic"), ((6, 6), "orthogonal")]
    for ambient, flavor in cases:
        assert enumerate_pairs(ambient, flavor) == _generate_and_reject(ambient, flavor), (
            ambient,
            flavor,
        )


def test_enumerate_pairs_bidegree_filter_matches_generate_and_reject():
    for ambient in ((2, 3), (3, 3), (3, 4), (4, 5)):
        size = ambient[0] * ambient[1]
        for flavor in FLAVORS if ambient[0] == ambient[1] else ("unitary",):
            by_bidegree = {}
            for pair in _generate_and_reject(ambient, flavor):
                by_bidegree.setdefault(vz_bidegree(pair), []).append(pair)
            for i in range(size + 2):
                for j in range(size + 2 - i):
                    want = by_bidegree.get((i, j), [])
                    assert enumerate_pairs(ambient, flavor, (i, j)) == want, (ambient, flavor, i, j)


def test_streamed_pairs_match_walk_and_rank():
    for ambient, flavor in _windows(6):
        want = _walk_and_rank(ambient, flavor)
        assert enumerate_pairs(ambient, flavor) == want, (ambient, flavor)
        assert list(iter_pairs(ambient, flavor)) == want, (ambient, flavor)


def test_pairs_share_one_tuple_per_lam():
    # the peak memory of a pass rests on this: a lam reached under many
    # mu is one tuple, not one copy per pair
    for ambient, flavor in (((6, 6), "unitary"), ((6, 6), "symplectic"), ((5, 5), "orthogonal")):
        pairs = enumerate_pairs(ambient, flavor)
        first = {}
        for pair in pairs:
            assert first.setdefault(pair.lam, pair.lam) is pair.lam
            assert first.setdefault(pair.mu, pair.mu) is pair.mu
        assert len(first) < len(pairs)


def test_iter_pairs_is_a_stream_checked_up_front():
    stream = iter_pairs((3, 3), "symplectic")
    assert iter(stream) is stream
    assert next(stream) == enumerate_pairs((3, 3), "symplectic")[0]
    # bad arguments raise on the call, before anything is read
    with pytest.raises(AmbientNotSquare):
        iter_pairs((2, 3), flavor="orthogonal")
    with pytest.raises(ValueError):
        iter_pairs((2, 2), bidegree=(1, 2, 3))


# SHA-256 of repr([(lam, mu, chain), ...]) for the 6x6 unitary window, as
# the generate-and-reject enumeration produced it.
GENERATE_AND_REJECT_6X6 = "f05831657e5bc63035b4428ca8e30c7fb49d0219cbe45b1e9acb398acb73f2fa"


def test_enumerate_pairs_6x6_unitary_digest():
    pairs = enumerate_pairs((6, 6))
    assert len(pairs) == 17556
    rows = repr([(p.lam, p.mu, p.chain) for p in pairs]).encode()
    assert hashlib.sha256(rows).hexdigest() == GENERATE_AND_REJECT_6X6


def test_pair_counts_match_closed_form():
    # the chains below mu that start at row t number mu_t, so mu has
    # 1 + |mu| of them, and a window sum(1 + |mu|) = C(p+q, p)(pq + 2)/2
    # unitary pairs; the square flavors have 2^(p-1)(p + 2)
    for p in range(7):
        for q in range(7):
            want = math.comb(p + q, p) * (p * q + 2) // 2
            assert len(enumerate_pairs((p, q))) == want, (p, q)
        for flavor in FLAVORS[1:]:
            assert len(enumerate_pairs((p, p), flavor)) == 2**p * (p + 2) // 2, (p, flavor)


def test_pair_windows_over_the_pair_budget_are_refused(monkeypatch):
    # the budget counts pairs by the closed forms, not rows: m x 1 holds
    # (m+1)(m+2)/2 pairs, so 998 x 1 (499,500) is admitted and 999 x 1
    # (500,500) is not; only the first pairs of an admitted window are read
    assert shimura.MAX_PAIRS == 500_000
    assert [(p.lam, p.mu) for p in itertools.islice(iter_pairs((900, 1)), 2)] == [((), ()), ((), (1,))]
    assert [(p.lam, p.mu) for p in itertools.islice(iter_pairs((1, 900)), 2)] == [((), ()), ((), (1,))]
    assert [(p.lam, p.mu) for p in itertools.islice(iter_pairs((998, 1)), 1)] == [((), ())]
    # a window with no rows or no columns holds one pair, whatever its size
    assert [(p.lam, p.mu) for p in enumerate_pairs((2000, 0))] == [((), ())]
    assert [(p.lam, p.mu) for p in enumerate_pairs((0, 2000))] == [((), ())]
    # refused before a shape is listed, the 10^18 sides included
    monkeypatch.setattr(shimura, "enumerate_in_rectangle", lambda *a, **k: pytest.fail("shapes were listed"))
    huge = 10**18
    for ambient, flavor in (
        ((999, 1), "unitary"),
        ((1, 999), "unitary"),
        ((9, 9), "unitary"),
        ((2, 900), "unitary"),
        ((huge, huge), "unitary"),
        ((huge, huge), "symplectic"),
        ((901, 901), "symplectic"),
        ((901, 901), "orthogonal"),
    ):
        with pytest.raises(InputTooLarge):
            next(iter_pairs(ambient, flavor))
    for ambient in ((999, 1), (1, 999), (9, 9)):
        with pytest.raises(InputTooLarge):
            arthur_cover(ambient, 5)


def test_enumerate_pairs_validates_up_front():
    with pytest.raises(ValueError):
        enumerate_pairs((2, 2), flavor="special")
    with pytest.raises(AmbientNotSquare):
        enumerate_pairs((2, 3), flavor="orthogonal")
    with pytest.raises(ValueError):
        enumerate_pairs((-1, 2))
    assert [(p.lam, p.mu) for p in enumerate_pairs((0, 3))] == [((), ())]


_cached_pairs = functools.lru_cache(maxsize=None)(enumerate_pairs)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.sampled_from(FLAVORS), st.data())
def test_emitted_pairs_pass_make_pair_unchanged(p, q, flavor, data):
    if flavor != "unitary":
        q = p
    pair = data.draw(st.sampled_from(_cached_pairs((p, q), flavor)))
    assert make_pair(pair.lam, pair.mu, pair.ambient, pair.flavor) == pair


def test_vz_bidegree():
    assert vz_bidegree(make_pair((1,), (1,), (1, 1))) == (1, 0)
    assert vz_bidegree(make_pair((), (), (1, 1))) == (0, 1)
    triv = make_pair((), (2, 2), (2, 2), flavor="symplectic")
    assert vz_bidegree(triv) == (0, 0)
    orth = make_pair((), (2, 2), (2, 2), flavor="orthogonal")
    assert vz_bidegree(orth) == (0, 0)


def test_levi_shape():
    big = make_pair((4, 4, 4, 2, 2), (8, 8, 8, 4, 4, 2), (6, 8))
    assert levi_shape(big) == LeviShape(((3, 4), (2, 2), (1, 2)), None)
    empty = make_pair((1,), (1,), (1, 1))
    assert levi_shape(empty) == LeviShape((), None)
    triv = make_pair((), (2, 2), (2, 2), flavor="symplectic")
    assert levi_shape(triv) == LeviShape((), 2)


def test_chern_action_single_block():
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            pair = make_pair((), rect(a, b), (a, b))
            for nu in enumerate_in_rectangle(3, 3):
                if weight(nu) > a * b:
                    continue
                hit = chern_action_nonzero(nu, pair)
                fits_block = len(nu) <= a and (not nu or nu[0] <= b)
                assert (hit is not None) == fits_block
                if hit:
                    assert "mu_prime" in hit


def test_chern_action_unit_and_antitone():
    shapes = enumerate_in_rectangle(3, 3)
    for pair in enumerate_pairs((2, 2)):
        assert chern_action_nonzero((), pair) is not None
        hits = {nu for nu in shapes if chern_action_nonzero(nu, pair)}
        for nu in hits:
            for sub in shapes:
                if all(
                    (sub[i] if i < len(sub) else 0) <= (nu[i] if i < len(nu) else 0)
                    for i in range(len(sub))
                ):
                    assert sub in hits


def test_chern_action_square_flavors():
    triv = make_pair((), (2, 2), (2, 2), flavor="symplectic")
    w = chern_action_nonzero((1,), triv)
    assert w is not None and set(w) == {"orientation", "center", "gammas"}
    orth = make_pair((), (2, 2), (2, 2), flavor="orthogonal")
    assert chern_action_nonzero((2, 1), orth) is not None
    with pytest.raises(ShapeNotSymmetric):
        chern_action_nonzero((2,), triv)


def test_overlapping_window_is_rejected_but_cousin_works():
    # the window (3,2,1)/(2,2) has the same inscription behavior as
    # (3,2,1)/(2,1,1) (see the lr tests) but no chain, so only the
    # cousin forms a pair
    with pytest.raises(IncompatiblePair):
        make_pair((2, 2), (3, 2, 1), (3, 3))
    pair = make_pair((2, 1, 1), (3, 2, 1), (3, 3))
    assert pair.chain == ((1, 1), (1, 1))


def test_injectivity_unitary_frozen():
    pair = make_pair((1, 1), (2, 2), (2, 2))
    ok, witness = injectivity_unitary(pair, LeviShape(((2, 1),), None))
    assert ok and witness == (1, 1)
    # an empty levi sees only the full-window pair
    for p in enumerate_pairs((2, 2)):
        ok, _ = injectivity_unitary(p, LeviShape((), None))
        assert ok == (p.lam == () and p.mu == (2, 2))


def test_fat_hooks():
    amb = (2, 3)
    assert fat_hook(amb, 0, 1) == (1, 1)
    assert fat_hook(amb, 1, 2) == (3, 2)
    assert fat_hook(amb, 2, 0) == (3, 3)
    labels = fat_hook_labels(amb)
    assert len(labels) == 2 * 3 + 1
    hooks = [fat_hook(amb, r, s) for r, s in labels]
    assert len(set(hooks)) == len(hooks)
    # above r = p the s parameter is invisible
    assert fat_hook(amb, 2, 2) == fat_hook(amb, 2, 0)
    with pytest.raises(ValueError):
        fat_hook(amb, 3, 0)


def test_holomorphic_closed_form_frozen():
    amb = (2, 2)
    levi = LeviShape(((1, 1), (1, 1)), None)
    assert injectivity_holomorphic_u(amb, 0, 1, levi)
    assert not injectivity_holomorphic_u(amb, 1, 1, levi)
    assert injectivity_holomorphic_u(amb, 0, 0, levi)
    assert not injectivity_holomorphic_u(amb, 0, 0, LeviShape(((1, 1),), None))
    assert not injectivity_holomorphic_u(amb, 0, 0, LeviShape((), None))


def test_holomorphic_closed_form_matches_branch_oracle():
    # the closed form as first written, one branch per full side
    def branches(ambient, r, s, levi):
        p, q = ambient
        if not levi.rects:
            return False
        rows = [a for a, _ in levi.rects]
        cols = [b for _, b in levi.rects]
        if sum(rows) == p and r == 0 and s <= min(cols):
            return True
        return sum(cols) == q and s == 0 and r <= min(rows)

    for p in range(1, 4):
        for q in range(1, 4):
            rects = [(a, b) for a in range(1, p + 1) for b in range(1, q + 1)]
            levis = [()] + [(x,) for x in rects] + [(x, y) for x in rects for y in rects]
            for blocks in levis:
                if sum(a for a, _ in blocks) > p or sum(b for _, b in blocks) > q:
                    continue
                levi = LeviShape(blocks, None)
                for r in range(p + 1):
                    for s in range(q + 1):
                        want = branches((p, q), r, s, levi)
                        assert injectivity_holomorphic_u((p, q), r, s, levi) is want


def test_holomorphic_closed_form_matches_pipeline_2x2():
    # proper levis and nonempty fat hooks only; the excluded corners are
    # pinned in the acceptance suite
    amb = (2, 2)
    levis = [
        LeviShape(((1, 1),), None),
        LeviShape(((1, 2),), None),
        LeviShape(((2, 1),), None),
        LeviShape(((1, 1), (1, 1)), None),
    ]
    for levi in levis:
        for r, s in fat_hook_labels(amb):
            if (r, s) == (0, 0):
                continue
            lam = fat_hook(amb, r, s)
            pair = make_pair(lam, rect(*amb), amb)
            ok, _ = injectivity_unitary(pair, levi)
            assert ok == injectivity_holomorphic_u(amb, r, s, levi)


def test_gsp_criterion():
    for p in (2, 3, 4):
        triv = make_pair((), rect(p, p), (p, p), flavor="symplectic")
        assert injectivity_gsp(triv)
    cell = make_pair((2, 1), (2, 2), (2, 2), flavor="symplectic")
    assert injectivity_gsp(cell)
    small = make_pair((1,), (2, 1), (3, 3), flavor="symplectic")
    assert not injectivity_gsp(small)  # staircase needs three cells
    with pytest.raises(ValueError):
        injectivity_gsp(make_pair((), (1,), (1, 1)))


def test_gsp_holomorphic():
    assert gsp_holomorphic(3, 1, [2, 1]) == (True, False)
    assert gsp_holomorphic(3, 1, [2]) == (False, False)
    assert gsp_holomorphic(3, 2, [2, 1]) == (False, False)
    assert gsp_holomorphic(3, 0, [2, 1]) == (False, True)
    with pytest.raises(ValueError):
        gsp_holomorphic(3, 4, [1])
    with pytest.raises(LeviDoesNotFit):
        gsp_holomorphic(3, 1, [2, 2])
    with pytest.raises(LeviDoesNotFit):
        gsp_holomorphic(3, 1, [0])


def test_block_sizes_that_are_not_integers_are_refused():
    # int() truncated [1.5, 1.5] to [1, 1], which fit rank 3
    with pytest.raises(ValueError, match="block rows must be integers"):
        gsp_holomorphic(3, 1, [1.5, 1.5])
    with pytest.raises(ValueError, match="block rows must be integers"):
        gsp_holomorphic(3, 1, ["2", "1"])
    assert gsp_holomorphic(3, 1, [2.0, 1]) == (True, False)
    pair = make_pair((1,), (2, 1), (2, 2))
    with pytest.raises(ValueError, match="block sides must be integers"):
        kunneth_vanishing(pair, [((2, 1.5), (1,), (2, 1))])
    assert not kunneth_vanishing(pair, [((2.0, 2.0), (1,), (2, 1))])


def test_symmetric_fat_hook():
    assert symmetric_fat_hook(3, 0) == ()
    assert symmetric_fat_hook(3, 1) == (3, 1, 1)
    assert symmetric_fat_hook(3, 3) == (3, 3, 3)
    with pytest.raises(ValueError):
        symmetric_fat_hook(3, 4)


def test_kunneth_vanishing():
    pair = make_pair((2, 2), (4, 4), (3, 4))
    factors = [((1, 2), (2,), (2,)), ((2, 1), (1, 1), (1, 1))]
    assert kunneth_vanishing(pair, factors)  # (2,2) is not in (2)x(1,1)
    same = make_pair((1,), (2, 1), (2, 2))
    assert not kunneth_vanishing(same, [((2, 2), (1,), (2, 1))])
    short = make_pair((1,), (2, 1), (2, 2))
    assert kunneth_vanishing(short, [((2, 2), (), (2, 1))])  # weight mismatch
    with pytest.raises(LeviDoesNotFit):
        kunneth_vanishing(pair, [((3, 2), (), ()), ((1, 1), (), ())])
    with pytest.raises(ShapeOutOfBox):
        kunneth_vanishing(pair, [((1, 1), (2,), (2,))])
    with pytest.raises(ValueError, match="unitary pairs only"):
        kunneth_vanishing(make_pair((1,), (2, 1), (2, 2), "symplectic"), [((1, 1), (), ())])


def test_kunneth_vanishing_builds_the_second_product_only_after_a_nonzero_first(monkeypatch):
    products = []

    def counted(target, factors):
        products.append(target)
        return multi(target, factors)

    multi = shimura._multi_coefficient
    monkeypatch.setattr(shimura, "_multi_coefficient", counted)
    pair = make_pair((2, 2), (4, 4), (3, 4))
    assert kunneth_vanishing(pair, [((1, 2), (2,), (2,)), ((2, 1), (1, 1), (1, 1))])
    assert products == [(2, 2)]
    same = make_pair((1,), (2, 1), (2, 2))
    assert not kunneth_vanishing(same, [((2, 2), (1,), (2, 1))])
    assert products == [(2, 2), (1,), mu_hat(same)]


def test_kunneth_vanishing_checks_its_blocks_like_a_levi():
    # one block rule for every Levi entry: positive sides, then rows and
    # columns that fit the ambient window
    pair = make_pair((2, 2), (4, 4, 2, 2), (4, 4))
    for box in ((0, 2), (2, 0), (-1, 2)):
        with pytest.raises(LeviDoesNotFit, match="blocks need positive sides"):
            kunneth_vanishing(pair, [(box, (), ())])
    with pytest.raises(LeviDoesNotFit, match="row sides exceed the ambient"):
        kunneth_vanishing(pair, [((3, 2), (), ()), ((2, 2), (), ())])
    with pytest.raises(LeviDoesNotFit, match="column sides exceed the ambient"):
        kunneth_vanishing(pair, [((2, 3), (), ()), ((2, 2), (), ())])


def test_vanishing_criterion():
    narrow = make_pair((3,), (3, 3), (2, 3))
    assert not vanishing_criterion(narrow, 1, "Q")  # degree not low enough
    off = make_pair((1,), (2, 1), (2, 3))
    assert not vanishing_criterion(off, 1, "Q")  # chain misses a column
    good = make_pair((1, 1), (3, 3, 1), (3, 3))
    assert vanishing_criterion(good, 1, "Q")
    with pytest.raises(TrivialPairExcluded):
        vanishing_criterion(make_pair((), (3, 3), (2, 3)), 1, "Q")
    with pytest.raises(ValueError):
        vanishing_criterion(narrow, 0, "Q")
    with pytest.raises(ValueError):
        vanishing_criterion(narrow, 1, "X")
    with pytest.raises(ValueError, match="unitary pairs only"):
        vanishing_criterion(make_pair((1,), (2, 1), (2, 2), "symplectic"), 1, "Q")


def _vanishing_per_side(pair, a, side):
    # the criterion as written one side at a time, kept as an oracle
    p, q = pair.ambient
    degree = sum(vz_bidegree(pair))
    if side == "Q":
        fills = sum(b for _, b in pair.chain) == q and all(x >= a for x, _ in pair.chain)
        return fills and degree < p * q - a * q
    fills = sum(x for x, _ in pair.chain) == p and all(b >= a for _, b in pair.chain)
    return fills and degree < p * q - a * p


def test_vanishing_criterion_matches_per_side_oracle():
    seen = set()
    for p in range(1, 5):
        for q in range(1, 5):
            for pair in enumerate_pairs((p, q)):
                if not pair.lam and pair.mu == rect(p, q):
                    continue
                for a in range(1, 5):
                    for side in "PQ":
                        want = _vanishing_per_side(pair, a, side)
                        assert vanishing_criterion(pair, a, side) is want, (pair, a, side)
                        seen.add((side, want))
    assert len(seen) == 4


def test_low_degree_structure_frozen():
    stair = make_pair((3, 1, 1), (3, 3, 3), (3, 3))
    assert low_degree_structure(stair) == "SquareStaircase"
    full = make_pair((), (3, 3, 3), (3, 3))
    assert low_degree_structure(full) == "FullP"  # priority over FullQ
    # one cell: neither side filled, and degree 8 is past the bound 7
    assert low_degree_structure(make_pair((), (1,), (3, 3))) == "Other"
    assert low_degree_bound((3, 3)) == 7
    assert low_degree_bound((2, 4)) == 5


def test_arthur_cover():
    with pytest.raises(BoundExceeded):
        arthur_cover((2, 3), 4)
    rows = arthur_cover((1, 4), 2)
    assert rows
    assert all(label == "FullP" and sug == ("U", 1, 3) for _, label, sug in rows)
    got = arthur_cover((3, 3), 6)
    trivial = [r for r in got if r[0].lam == () and r[0].mu == (3, 3, 3)]
    assert trivial and trivial[0][1] == "FullP"
    stairs = [r for r in got if r[1] == "SquareStaircase"]
    assert stairs and all(sug == ("GSp", 3) for _, _, sug in stairs)


def test_arthur_cover_rejects_negative_window():
    with pytest.raises(ValueError):
        arthur_cover((-1, 2), 0)


def test_arthur_cover_keeps_pairs_by_vz_degree():
    # vz_bidegree reads a unitary pair's degrees off the two weights; they
    # must be the weights of lam and of the complement of mu, and the
    # pairs arthur_cover keeps those whose degrees sum within range
    for p in range(7):
        for q in range(7):
            pairs = enumerate_pairs((p, q))
            assert [vz_bidegree(pair) for pair in pairs] == [
                (weight(pair.lam), weight(mu_hat(pair))) for pair in pairs
            ]
            degrees = [sum(vz_bidegree(pair)) for pair in pairs]
            top = low_degree_bound((p, q)) - 1
            for max_degree in range(top + 1):
                kept = [pair for pair, _, _ in arthur_cover((p, q), max_degree)]
                assert kept == [pair for pair, d in zip(pairs, degrees) if d <= max_degree]


def test_arthur_cover_builds_only_the_pairs_it_keeps(monkeypatch):
    built = []
    init = CompatiblePair.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(CompatiblePair, "__init__", counting)
    rows = arthur_cover((6, 6), 15)
    assert len(rows) == 31
    assert len(built) == len(rows)


def test_square_flavor_pairs_walk_no_chains(monkeypatch):
    # a symmetric mu's symmetric lam are built directly, so listing them
    # walks no chain below mu and drops no lam
    want = _walk_and_rank((6, 6), "symplectic")
    bidegree_want = [p for p in _walk_and_rank((5, 5), "orthogonal") if vz_bidegree(p) == (3, 4)]
    assert len(want) == 256 and bidegree_want

    def walk(*args):
        raise AssertionError("walked the chains below %r" % (args[0],))

    monkeypatch.setattr(shimura, "_chains_below", walk)
    assert list(iter_pairs((6, 6), "symplectic")) == want
    assert list(iter_pairs((5, 5), "orthogonal", (3, 4))) == bidegree_want


_OPTIMIZED_CHECKS = {
    # A bound no pair reaches sends a 3x3 "Other" pair into the branch
    # that must not fire below the bound.
    "low_degree_structure": """
        shimura.low_degree_bound = lambda ambient: 100
        shimura.low_degree_structure(shimura.make_pair((), (1,), (3, 3)))
    """,
    # Every staircase pair in 3x3 is suggested GSp_3; a criterion that
    # always says no makes the suggestion fail its own check.
    "arthur_cover": """
        shimura.gsp_stable_criterion = lambda lam, mu, p: False
        shimura.arthur_cover((3, 3), 6)
    """,
}


@pytest.mark.parametrize("name", sorted(_OPTIMIZED_CHECKS))
def test_invariants_raise_under_optimize(name):
    script = textwrap.dedent(
        """
        import sys
        from schubcalc import shimura
        from schubcalc.errors import InvariantViolated
        assert False, "asserts must be stripped"
        try:
        %s
        except InvariantViolated:
            sys.exit(0)
        sys.exit(3)
        """
    ) % textwrap.indent(textwrap.dedent(_OPTIMIZED_CHECKS[name]).strip(), "    ")
    src = str(Path(schubcalc.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def _partha_by_scan(ambient, degree):
    # partha_decomposition as it was before it read the windows off the
    # divisors of pq - degree: every a x b in the window, kept as an oracle
    p, q = ambient
    if degree == p * q:
        return [(0, 0)]
    return [(a, b) for a in range(1, p + 1) for b in range(1, q + 1) if p * q - a * b == degree]


def test_partha_windows_match_the_full_scan():
    for p in range(13):
        for q in range(13):
            for degree in range(p * q + 1):
                assert partha_decomposition((p, q), degree) == _partha_by_scan((p, q), degree), (p, q, degree)
    # the scan would try 10^12 windows here
    assert partha_decomposition((10**6, 10**6), 10**6) == [(999999, 1000000), (1000000, 999999)]


def test_partha_scans_only_the_shorter_side():
    # 10^10 = 2^10 5^10 has 121 divisors, each the a of one window; the
    # scan of the longer side would try 10^10 values
    n = 10**10
    divisors = sorted(2**i * 5**j for i in range(11) for j in range(11))
    assert partha_decomposition((n, n), n * n - n) == [(a, n // a) for a in divisors]
    assert partha_decomposition((10**5, n), n * 10**5 - n) == [(a, n // a) for a in divisors if a <= 10**5]


def test_partha_refuses_more_than_ten_million_shorter_sides():
    # the shorter side s of a window with n cells runs over
    # ceil(n / max(p, q)) .. min(isqrt(n), p, q); these are refused
    # before any s is tried, so none of them runs
    big = 10**20
    for (p, q), n, sides in (
        ((10**9, 10**9), 10**17, math.isqrt(10**17) - 10**8 + 1),
        ((big, big), (10**7 + 1) ** 2, 10**7 + 1),
        ((10**7 + 1, big), big, 10**7 + 1),
    ):
        with pytest.raises(InputTooLarge, match="^%d shorter sides to try for %d cells, over 10\\^7$" % (sides, n)):
            partha_decomposition((p, q), p * q - n)


def test_partha_decomposition():
    amb = (2, 3)
    support = {l for l in range(7) if partha_decomposition(amb, l)}
    assert support == {0, 2, 3, 4, 5, 6}
    assert partha_decomposition(amb, 6) == [(0, 0)]
    assert partha_decomposition(amb, 1) == []
    assert partha_decomposition(amb, 2) == [(2, 2)]
    assert partha_decomposition(amb, 0) == [(2, 3)]
    with pytest.raises(ValueError):
        partha_decomposition(amb, 7)
    # a negative side is refused, even where the degree range is not empty
    for window in ((-2, -2), (2, -1), (-1, 0)):
        with pytest.raises(ValueError, match="nonnegative"):
            partha_decomposition(window, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        partha_decomposition((-2, -2), 1)


def test_components_unitary():
    pair = make_pair((), (1,), (1, 1))
    comps = enumerate_components(pair)
    assert [(c.indices, c.bidegree) for c in comps] == [
        (((),), (0, 0)),
        (((1,),), (1, 1)),
    ]
    assert count_components(pair) == 2
    assert count_components(pair, (1, 1)) == 1


def test_count_components_lists_no_component(monkeypatch):
    # counted from the block sizes, so enumerate_components never runs
    pairs = [p for f in FLAVORS for n in range(1, 4) for p in enumerate_pairs((n, n), f)] + enumerate_pairs((2, 3))
    want = {}
    for pair in pairs:
        comps = enumerate_components(pair)
        want[pair] = (len(comps), Counter(c.bidegree for c in comps if c.bidegree is not None))
    monkeypatch.setattr(shimura, "enumerate_components", lambda pair: pytest.fail("components were listed"))
    for pair in pairs:
        total, by_bidegree = want[pair]
        assert count_components(pair) == total, pair
        assert {b: count_components(pair, b) for b in by_bidegree} == by_bidegree, pair
        assert count_components(pair, (-1, -1)) == 0
    # C(20, 10) pieces, p(10) = 42 of them with 10 cells
    full = make_pair((), rect(10, 10), (10, 10))
    assert count_components(full) == 184756
    assert count_components(full, (10, 10)) == count_components(full, [10, 10.0]) == 42
    assert count_components(full, (10, 11)) == count_components(full, (10, 10, 0)) == 0
    # square-flavor pieces carry no bidegree
    symplectic = make_pair((), (2, 2), (2, 2), "symplectic")
    assert count_components(symplectic) == 4
    assert count_components(symplectic, vz_bidegree(symplectic)) == 0


def test_count_components_by_bidegree_reads_the_uncut_weights():
    # one weight, built to degree min(k, area - k) by palindromy, is the
    # k-th of the whole product for every unitary pair up to 5x5
    for p in range(1, 6):
        for q in range(1, 6):
            for pair in enumerate_pairs((p, q)):
                rects = levi_shape(pair).rects
                whole = _box_weights(rects)
                assert whole == whole[::-1], pair
                for top in range(len(whole)):
                    assert _box_weights(rects, top) == whole[: top + 1], (pair, top)
                i0, j0 = vz_bidegree(pair)
                got = [count_components(pair, (i0 + k, j0 + k)) for k in range(len(whole))]
                assert got == whole, pair
                assert count_components(pair, (i0 + len(whole), j0 + len(whole))) == 0
    # the 200x200 full pair's weight at 100 cells builds 101 entries
    full = make_pair((), rect(200, 200), (200, 200))
    assert count_components(full, (100, 100)) == count_components(full, (39900, 39900)) == 190569292
    assert count_components(full, (100.5, 100.5)) == count_components(full, ("a", "b")) == 0


def test_enumerate_components_refuses_a_packet_over_the_budget(monkeypatch):
    # counted before a block's shapes are listed: C(24, 12) = 2,704,156
    # pieces for the 12x12 full pair, 2^19 = 524,288 for the symplectic
    # 19x19 one, whose chain is all center
    monkeypatch.setattr(shimura, "enumerate_in_rectangle", lambda *a, **k: pytest.fail("shapes were listed"))
    for n, flavor, count in ((12, "unitary", 2704156), (19, "symplectic", 524288)):
        full = make_pair((), rect(n, n), (n, n), flavor)
        assert count_components(full) == count > shimura.MAX_PAIRS
        with pytest.raises(InputTooLarge):
            enumerate_components(full)


def test_components_bidegree_totals_transpose_symmetric():
    totals = {}
    for pair in enumerate_pairs((2, 2)):
        for c in enumerate_components(pair):
            totals[c.bidegree] = totals.get(c.bidegree, 0) + 1
    for (i, j), n in totals.items():
        assert totals.get((j, i), 0) == n


def test_components_square_flavor():
    triv = make_pair((), (2, 2), (2, 2), flavor="symplectic")
    comps = enumerate_components(triv)
    assert {c.center for c in comps} == {(), (1,), (2, 1), (2, 2)}
    assert all(c.indices == () and c.bidegree is None for c in comps)


def test_lefschetz_full_side_blocks_are_determined():
    # a pair whose window is one block spanning all rows or all columns
    # is pinned down by its bidegree plus its chern-action answer set
    shapes = enumerate_in_rectangle(3, 3)
    pairs = enumerate_pairs((3, 3))
    profile = {
        id(p): (
            vz_bidegree(p),
            frozenset(nu for nu in shapes if chern_action_nonzero(nu, p)),
        )
        for p in pairs
    }
    for p in pairs:
        if len(p.chain) != 1:
            continue
        a, b = p.chain[0]
        if a != 3 and b != 3:
            continue
        matches = [q for q in pairs if profile[id(q)] == profile[id(p)]]
        assert matches == [p]


def test_ostar_components_p2():
    comps = ostar_holomorphic_components(2)
    degrees = {(c.family, c.param): c.degree for c in comps}
    assert degrees == {
        ("R", 0): 0,
        ("R", 1): 1,
        ("R", 2): 1,
        ("S", 0): 0,
        ("S", 1): 1,
    }
    assert all(isinstance(c, OstarComponent) for c in comps)
    with pytest.raises(ValueError):
        ostar_holomorphic_components(1)


def test_ostar_identifications_exact():
    for p in range(2, 9):
        groups = ostar_identifications(p)
        members = [set(g["members"]) for g in groups]
        assert {frozenset(m) for m in members} == {
            frozenset({("R", p - 2), ("S", p - 2)}),
            frozenset({("R", p - 1), ("R", p), ("S", p - 1)}),
        }
        # the stated degree identity behind the big group
        comps = {(c.family, c.param): c for c in ostar_holomorphic_components(p)}
        assert (
            comps[("R", p - 1)].degree
            == (p - 1) * (p - 2) // 2 + (p - 1)
            == comps[("S", p - 1)].degree
        )


def test_ostar_degree_collision_without_identification():
    # at p=4 the R1 and S0 components share a degree but not a label,
    # so they stay distinct
    comps = {(c.family, c.param): c for c in ostar_holomorphic_components(4)}
    assert comps[("R", 1)].degree == comps[("S", 0)].degree == 3
    assert comps[("R", 1)].label != comps[("S", 0)].label
