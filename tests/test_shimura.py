import functools
import hashlib
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import schubcalc
from schubcalc.cohomology import LeviShape
from schubcalc.errors import (
    AmbientNotSquare,
    BoundExceeded,
    IncompatiblePair,
    LeviDoesNotFit,
    ShapeNotSymmetric,
    ShapeOutOfBox,
    TrivialPairExcluded,
)
from schubcalc.partition import (
    complement,
    contains,
    enumerate_in_rectangle,
    minus_part,
    rect,
    weight,
)
from schubcalc.shimura import (
    FLAVORS,
    OstarComponent,
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


# SHA-256 of repr([(lam, mu, chain), ...]) for the 6x6 unitary window, as
# the generate-and-reject enumeration produced it.
GENERATE_AND_REJECT_6X6 = "f05831657e5bc63035b4428ca8e30c7fb49d0219cbe45b1e9acb398acb73f2fa"


def test_enumerate_pairs_6x6_unitary_digest():
    pairs = enumerate_pairs((6, 6))
    assert len(pairs) == 17556
    rows = repr([(p.lam, p.mu, p.chain) for p in pairs]).encode()
    assert hashlib.sha256(rows).hexdigest() == GENERATE_AND_REJECT_6X6


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


def test_low_degree_structure_frozen():
    stair = make_pair((3, 1, 1), (3, 3, 3), (3, 3))
    assert low_degree_structure(stair) == "SquareStaircase"
    full = make_pair((), (3, 3, 3), (3, 3))
    assert low_degree_structure(full) == "FullP"  # priority over FullQ
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


def test_components_unitary():
    pair = make_pair((), (1,), (1, 1))
    comps = enumerate_components(pair)
    assert [(c.indices, c.bidegree) for c in comps] == [
        (((),), (0, 0)),
        (((1,),), (1, 1)),
    ]
    assert count_components(pair) == 2
    assert count_components(pair, (1, 1)) == 1


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
