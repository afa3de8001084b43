import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import schubcalc.cohomology as cohom_mod
import schubcalc.lr as lr_mod
from schubcalc.cohomology import (
    CohomClass,
    LeviShape,
    cohom_class,
    dual_class_unitary,
    restrict_levi,
    restrict_symplectic_levi_support,
    schubert_class,
)
from schubcalc.errors import IncompatiblePair, LeviDoesNotFit, ShapeNotSymmetric
from schubcalc.lr import (
    SymWitness,
    count_images,
    diagonal_splits,
    expand_product,
    inscribes,
    inscribes_antisymmetric,
    inscribes_symmetric,
    inscribes_witness,
    lr_coefficient,
    multi_lr_coefficient,
    schur_expand,
)
from schubcalc.partition import (
    complement,
    conjugate,
    contains,
    enumerate_in_rectangle,
    fits,
    minus_part,
    parse_partition,
    partition,
    plus_part,
    rect,
    sort_key,
)
from schubcalc.shimura import enumerate_pairs, injectivity_unitary, make_pair
from schubcalc.skew import (
    SkewShape,
    concat,
    rectangle_decomposition,
    reverse_numbering,
    size,
    skew,
    symmetric_chain_split,
)
from schubcalc.tableau import ballot_fillings

SHAPES_3x3 = enumerate_in_rectangle(3, 3)
SHAPES_4x4 = enumerate_in_rectangle(4, 4)

# every memoized helper of lr, each with its own functools.cache table,
# and the cache file's index
MEMOIZED = (lr_mod._coefficient, lr_mod._expand_pair, lr_mod._coproduct, lr_mod._centers, lr_mod._read_index)


def _clear_memo():
    # lr's tables and cohomology's support of each (window, Levi blocks)
    for helper in MEMOIZED + (cohom_mod._levi_support,):
        helper.cache_clear()


@pytest.fixture
def cold_memo():
    # every memo table empty before the test and again after it, since
    # cache_clear() cannot restore what the test found; call the fixture
    # to empty them once more inside the test
    _clear_memo()
    yield _clear_memo
    _clear_memo()


@functools.lru_cache(maxsize=None)
def partitions_by_weight(rows, cols):
    """Partitions inside rows x cols, grouped by weight: the full-box
    table the weight splits scanned before they were bounded by a
    target, kept as an oracle."""
    groups = {}
    for lam in enumerate_in_rectangle(rows, cols):
        groups.setdefault(sum(lam), []).append(lam)
    return {w: tuple(v) for w, v in groups.items()}


def test_coefficient_frozen_examples():
    assert lr_coefficient((2,), (1,), (1,)) == 1
    assert lr_coefficient((1, 1), (1,), (1,)) == 1
    assert lr_coefficient((2, 2), (1,), (2, 1)) == 1
    # the classic multiplicity-two coefficient
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
    # 40 cells deep, far past any filling the other tests reach
    staircase = (10, 9, 8, 7, 6, 5, 4, 3, 2, 1)
    assert lr_coefficient(staircase, (5, 4, 3, 2, 1), (7, 7, 6, 5, 5, 4, 3, 2, 1)) == 1608


def _count_fillings(outer, inner, cont):
    # The counter the shared ballot_fillings engine replaced: the same
    # ballot recursion over a dict of placed cells, kept as an oracle.
    order = reverse_numbering(SkewShape(outer, inner))
    nletters = len(cont)
    counts = [0] * (nletters + 1)
    val = {}

    def rec(k):
        if k == len(order):
            return 1
        i, j = order[k]
        above = val.get((i - 1, j), 0)
        right = val.get((i, j + 1))
        hi = nletters if right is None else min(nletters, right)
        total = 0
        for v in range(above + 1, hi + 1):
            if counts[v] >= cont[v - 1]:
                continue
            if v != 1 and counts[v] >= counts[v - 1]:
                continue
            val[(i, j)] = v
            counts[v] += 1
            total += rec(k + 1)
            counts[v] -= 1
            del val[(i, j)]
        return total

    return rec(0)


def test_coefficient_matches_reference_counter_4x4():
    checked = 0
    for mu in SHAPES_4x4:
        for lam in SHAPES_4x4:
            if not contains(lam, mu):
                continue
            for nu in SHAPES_4x4:
                if sum(mu) == sum(lam) + sum(nu):
                    assert lr_coefficient(mu, lam, nu) == _count_fillings(mu, lam, nu), (mu, lam, nu)
                    checked += 1
    assert checked == 8084


@pytest.mark.parametrize(
    "outer, inner",
    [
        # these two fit in 4x4, but the 4x4 oracle test only ever counts
        # them through a memo hit on a conjugate or swapped variant
        ((4, 2, 2), (2, 2, 1)),  # empty middle row
        ((3, 3, 3), (3, 3)),  # two empty top rows
        ((5, 3, 3, 1), (3, 3, 1)),  # empty middle row
        ((5, 5, 2, 2), (5, 2, 2)),  # empty top row
        ((6, 4, 4, 2, 2, 1), (4, 4, 2, 2, 1)),  # three pieces
    ],
)
def test_ballot_fillings_match_reference_counter_on_broken_skews(outer, inner):
    # the neighbour indices come from row bounds, so rows with no cells
    # and pieces that share no column must not shift them
    n = sum(outer) - sum(inner)
    counts = []
    for nu in enumerate_in_rectangle(n, n, weight=n):
        got = sum(1 for _ in ballot_fillings(SkewShape(outer, inner), nu))
        assert got == _count_fillings(outer, inner, nu), nu
        counts.append(got)
    assert any(counts)


def _canonical_key_six_conjugates(outer, inner, content):
    # The key loop _canonical_key replaced, kept as an oracle: it
    # conjugates outer once for each order of the lower shapes.
    best = None
    for i, c in ((inner, content), (content, inner)):
        for k in (lr_mod.LRKey(outer, i, c), lr_mod.LRKey(conjugate(outer), conjugate(i), conjugate(c))):
            if best is None or k < best:
                best = k
    return best


def test_canonical_key_matches_reference_4x4():
    checked = 0
    for mu in SHAPES_4x4:
        for lam in SHAPES_4x4:
            if not contains(lam, mu):
                continue
            for nu in SHAPES_4x4:
                if sum(mu) != sum(lam) + sum(nu):
                    continue
                key = lr_mod._canonical_key(mu, lam, nu)
                assert key == _canonical_key_six_conjugates(mu, lam, nu), (mu, lam, nu)
                mu_c, lam_c, nu_c = conjugate(mu), conjugate(lam), conjugate(nu)
                assert key == lr_mod._canonical_key(mu, nu, lam)
                assert key == lr_mod._canonical_key(mu_c, lam_c, nu_c)
                assert key == lr_mod._canonical_key(mu_c, nu_c, lam_c)
                checked += 1
    assert checked == 8084


def test_cache_lines_from_older_versions_still_match(tmp_path, monkeypatch, cold_memo):
    # lines as earlier versions wrote them, with made-up values so that
    # only a key match can return them
    target = tmp_path / "lr-cache.txt"
    target.write_text(
        "5,4,4,3,3,2,1,1;3,2,2,1;4,4,3,2,1,1 9011\n"
        "4,4,4,2,2,2;2,2,2;4,4,4 9001\n"
        "3,2,2,1,1;2,1;3,2,1 9002\n"
    )
    monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(target))
    assert lr_coefficient((8, 6, 5, 3, 1), (4, 3, 1), (6, 4, 3, 2)) == 9011
    assert lr_coefficient((6, 6, 3, 3), (3, 3, 3, 3), (3, 3)) == 9001
    assert lr_coefficient((5, 3, 1), (2, 1), (3, 2, 1)) == 9002


def test_coefficient_trivial_inner():
    for mu in SHAPES_3x3:
        for nu in SHAPES_3x3:
            assert lr_coefficient(mu, (), nu) == (1 if mu == nu else 0)


def test_coefficient_zero_guards():
    assert lr_coefficient((2,), (1,), (2,)) == 0  # weight mismatch
    assert lr_coefficient((2,), (3,), (1,)) == 0  # inner not contained
    assert lr_coefficient((3,), (1,), (1, 1)) == 0  # content taller than outer
    # content no taller and no wider than outer, yet not inside it: the
    # swapped orientation (3,1)/(2,2) is no skew shape at all
    assert lr_coefficient((3, 1), (), (2, 2)) == 0
    assert lr_coefficient((2, 1, 1), (), (2, 2)) == 0


def _count(outer, inner, content):
    return sum(1 for _ in ballot_fillings(SkewShape(outer, inner), content))


def test_orientations_count_alike_4x4():
    # c(mu; lam, nu) = c(mu; nu, lam) = c(mu'; lam', nu'): every
    # orientation that is a skew shape counts the same fillings, and
    # the coefficient is 0 unless both lower shapes fit inside mu
    checked = 0
    for mu in SHAPES_4x4:
        for lam in SHAPES_4x4:
            for nu in SHAPES_4x4:
                if sum(mu) != sum(lam) + sum(nu):
                    continue
                value = lr_coefficient(mu, lam, nu)
                mu_c, lam_c, nu_c = conjugate(mu), conjugate(lam), conjugate(nu)
                counts = set()
                if contains(lam, mu):
                    counts |= {_count(mu, lam, nu), _count(mu_c, lam_c, nu_c)}
                if contains(nu, mu):
                    counts |= {_count(mu, nu, lam), _count(mu_c, nu_c, lam_c)}
                if not (contains(lam, mu) and contains(nu, mu)):
                    assert value == 0, (mu, lam, nu)
                    counts.add(0)
                assert counts == {value}, (mu, lam, nu)
                checked += 1
    assert checked == 9666


# the 34-40 cell coefficients of the lr-expand benchmark workload
BIG_LR = (
    ((10, 9, 8, 7, 6, 5, 4, 3, 2, 1), (5, 4, 3, 2, 1), (7, 7, 6, 5, 5, 4, 3, 2, 1), 1608),
    ((10, 9, 8, 7, 6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1), (7, 7, 6, 4, 4, 2, 2, 2), 5790),
    ((10, 9, 8, 7, 6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1), (8, 5, 5, 5, 4, 3, 2, 2), 4961),
    ((10, 9, 8, 7, 6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1), (7, 6, 6, 5, 5, 2, 1, 1, 1), 3888),
)


@pytest.mark.parametrize("outer, inner, content, value", BIG_LR)
def test_big_coefficients_frozen(outer, inner, content, value, monkeypatch, cold_memo):
    monkeypatch.delenv("SCHUBERT_CACHE_DIR", raising=False)
    for args in ((outer, inner, content), (outer, content, inner)):
        cold_memo()
        assert lr_coefficient(*args) == value
    # the orientation the call names, counted without the orientation choice
    assert _count(outer, inner, content) == value


def test_rectangle_duality_small():
    # inside an a x b box the only partner of lam is its complement
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            box = rect(a, b)
            shapes = enumerate_in_rectangle(a, b)
            for lam in shapes:
                for mu in shapes:
                    if sum(lam) + sum(mu) != a * b:
                        continue
                    want = 1 if mu == complement(lam, a, b) else 0
                    assert lr_coefficient(box, lam, mu) == want


def _pieri_row(lam, k):
    # horizontal-strip additions of k cells, coefficient 1 each
    out = {}
    rows = len(lam) + 1
    padded = list(lam) + [0]

    def rec(i, rem, acc):
        if i == rows:
            if rem == 0:
                mu = tuple(v for v in acc if v)
                out[mu] = 1
            return
        low = padded[i]
        high = padded[i - 1] if i else low + rem
        for v in range(low, min(high, low + rem) + 1):
            rec(i + 1, rem - (v - low), acc + [v])

    rec(0, k, [])
    return out


def test_schur_expand_matches_pieri():
    for lam in SHAPES_3x3:
        for k in (1, 2, 3):
            assert schur_expand(lam, (k,)) == _pieri_row(lam, k)
            # column rule via conjugation
            want = {conjugate(mu): 1 for mu in _pieri_row(conjugate(lam), k)}
            assert schur_expand(lam, (1,) * k) == want


def test_schur_expand_frozen_examples():
    assert schur_expand((2,), (2,)) == {(4,): 1, (3, 1): 1, (2, 2): 1}
    assert schur_expand((1,), (1, 1)) == {(2, 1): 1, (1, 1, 1): 1}
    assert schur_expand((3, 1), ()) == {(3, 1): 1}
    assert schur_expand((2, 1), (2, 1)) == {
        (4, 2): 1,
        (4, 1, 1): 1,
        (3, 3): 1,
        (3, 2, 1): 2,
        (3, 1, 1, 1): 1,
        (2, 2, 2): 1,
        (2, 2, 1, 1): 1,
    }


def _schur_at_ones(lam, n):
    # s_lam(1^n) by the hook-content formula, in exact integers
    conj = conjugate(lam)
    num = den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= (row - j - 1) + (conj[j] - i - 1) + 1
    return num // den


def test_schur_expand_dimension_identity():
    # sum_nu c^nu_{lam,mu} s_nu(1^n) == s_lam(1^n) s_mu(1^n), which also
    # catches any shape missing from the expansion's candidates
    for lam in SHAPES_3x3:
        for mu in SHAPES_3x3:
            expansion = schur_expand(lam, mu)
            for n in (len(lam) + len(mu), len(lam) + len(mu) + 3):
                got = sum(c * _schur_at_ones(nu, n) for nu, c in expansion.items())
                assert got == _schur_at_ones(lam, n) * _schur_at_ones(mu, n), (lam, mu, n)


@given(
    st.sampled_from(SHAPES_4x4),
    st.sampled_from(SHAPES_4x4),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_schur_expand_dimension_identity_4x4(lam, mu, extra):
    n = len(lam) + len(mu) + extra
    got = sum(c * _schur_at_ones(nu, n) for nu, c in schur_expand(lam, mu).items())
    assert got == _schur_at_ones(lam, n) * _schur_at_ones(mu, n)


def test_expand_keys_graded():
    keys = list(expand_product([(2, 1), (2, 1)]))
    assert keys == sorted(keys, key=sort_key)


def _expand_in_box(lam, mu, box):
    # the product restricted to the box, counted over the box's own
    # shapes of the right weight, without the candidate enumerator
    out = {}
    for nu in partitions_by_weight(*box).get(sum(lam) + sum(mu), ()):
        c = lr_coefficient(nu, lam, mu)
        if c:
            out[nu] = c
    return sorted(out.items(), key=lambda kv: sort_key(kv[0]))


def _full_box(lam, mu):
    # the box every shape of the product of lam and mu fits in
    return len(lam) + len(mu), (lam[0] if lam else 0) + (mu[0] if mu else 0)


def test_unbounded_expansion_matches_full_box_oracle_3x3():
    for lam in SHAPES_3x3:
        for mu in SHAPES_3x3:
            got = schur_expand(lam, mu)
            assert list(got.items()) == _expand_in_box(lam, mu, _full_box(lam, mu)), (lam, mu)


@given(st.sampled_from(SHAPES_4x4), st.sampled_from(SHAPES_4x4))
@settings(max_examples=100, deadline=None)
def test_expansion_commutes_with_conjugation(lam, mu):
    flipped = schur_expand(conjugate(lam), conjugate(mu))
    assert flipped == {conjugate(nu): c for nu, c in schur_expand(lam, mu).items()}


def test_bounded_expansion_matches_window_oracle():
    for rows in range(5):
        for cols in range(5):
            shapes = enumerate_in_rectangle(rows, cols)
            for lam in shapes:
                for mu in shapes:
                    got = schur_expand(lam, mu, (rows, cols))
                    assert list(got.items()) == _expand_in_box(lam, mu, (rows, cols)), (lam, mu, rows, cols)


# the windows beyond 4x4 whose products criteria-mix asks for
_LARGE_WINDOWS = [(4, 5), (5, 5), (4, 6), (5, 6), (6, 6)]


@st.composite
def _window_pairs(draw):
    box = draw(st.sampled_from(_LARGE_WINDOWS))
    shapes = enumerate_in_rectangle(*box)
    return box, draw(st.sampled_from(shapes)), draw(st.sampled_from(shapes))


@given(_window_pairs())
@settings(max_examples=100, deadline=None)
def test_bounded_expansion_matches_window_oracle_large(case):
    box, lam, mu = case
    assert list(schur_expand(lam, mu, box).items()) == _expand_in_box(lam, mu, box)


def test_list_and_tuple_boxes_expand_alike():
    assert schur_expand((2, 1), (2, 1), [3, 3]) == schur_expand((2, 1), (2, 1), (3, 3))
    assert expand_product([(2, 1), (1,), (1,)], [2, 3]) == expand_product([(2, 1), (1,), (1,)], (2, 3))


def test_bounded_and_full_expansions_are_memoized_apart(cold_memo):
    full = {(4, 2): 1, (4, 1, 1): 1, (3, 3): 1, (3, 2, 1): 2, (3, 1, 1, 1): 1, (2, 2, 2): 1, (2, 2, 1, 1): 1}
    inside = {(3, 3): 1, (3, 2, 1): 2, (2, 2, 2): 1}
    assert schur_expand((2, 1), (2, 1), (3, 3)) == inside
    assert schur_expand((2, 1), (2, 1)) == full
    assert schur_expand((2, 1), (2, 1), (3, 3)) == inside
    # a degree above the window's area leaves nothing to build
    assert schur_expand((2, 1), (2, 1), (2, 2)) == {}
    assert schur_expand((2, 1), (2, 1)) == full


@st.composite
def _triples(draw):
    mu = draw(st.sampled_from(SHAPES_4x4))
    lam = draw(st.sampled_from([l for l in SHAPES_4x4 if contains(l, mu)]))
    rem = sum(mu) - sum(lam)
    nu = draw(st.sampled_from([n for n in SHAPES_4x4 if sum(n) == rem]))
    return mu, lam, nu


@given(_triples())
@settings(max_examples=150, deadline=None)
def test_coefficient_symmetries(triple):
    mu, lam, nu = triple
    c = lr_coefficient(mu, lam, nu)
    assert c == lr_coefficient(mu, nu, lam)
    assert c == lr_coefficient(conjugate(mu), conjugate(lam), conjugate(nu))


def all_skews(rows, cols, max_size):
    shapes = enumerate_in_rectangle(rows, cols)
    return [
        skew(mu, lam)
        for mu in shapes
        for lam in shapes
        if contains(lam, mu) and sum(mu) - sum(lam) <= max_size
    ]


def test_images_agree_with_fillings():
    # independent bijection enumerator against the production count
    for s in all_skews(3, 3, 5):
        n = sum(s.outer) - sum(s.inner)
        for nu in SHAPES_4x4:
            if sum(nu) != n:
                continue
            assert count_images(nu, s) == lr_coefficient(s.outer, s.inner, nu)


def test_images_frozen_examples():
    assert count_images((3, 1), concat([(2,), (2,)])) == 1
    assert count_images((2, 2), concat([(2,), (2,)])) == 1
    assert count_images((4,), concat([(2,), (2,)])) == 1
    assert count_images((2, 1, 1), concat([(2,), (2,)])) == 0
    for mu in SHAPES_3x3:
        assert count_images(mu, skew(mu)) == 1  # identity relabeling


def test_multi_frozen_examples():
    assert multi_lr_coefficient((3, 1), [(2,), (2,)]) == 1
    assert multi_lr_coefficient((), []) == 1
    assert multi_lr_coefficient((1,), []) == 0
    assert multi_lr_coefficient((2, 1), [(2, 1)]) == 1
    assert multi_lr_coefficient((3,), [(2, 1)]) == 0
    assert multi_lr_coefficient((2,), [(), (2,)]) == 1  # empty factors drop out
    assert multi_lr_coefficient((1,), [(1,), (1,)]) == 0  # weight mismatch


def test_multi_matches_iterated_expansion():
    # the full product against the product kept inside each target
    pool = [(1,), (2,), (1, 1), (2, 1), (2, 2)]
    for m in (1, 2, 3):
        for factors in itertools.combinations_with_replacement(pool, m):
            if sum(sum(f) for f in factors) > 6:
                continue
            table = expand_product(list(factors))
            for nu, c in table.items():
                assert multi_lr_coefficient(nu, list(factors)) == c
            # and zero off the support, spot-checked at the right weight
            w = sum(sum(f) for f in factors)
            for nu in enumerate_in_rectangle(4, 6, weight=w):
                if nu not in table:
                    assert multi_lr_coefficient(nu, list(factors)) == 0


@functools.lru_cache(maxsize=None)
def _box_scan(target, factors):
    head, rest = factors[0], factors[1:]
    if not rest:
        return int(target == head)
    rows = sum(len(f) for f in rest)
    cols = sum(f[0] for f in rest)
    total = 0
    for beta in partitions_by_weight(rows, cols).get(sum(target) - sum(head), ()):
        c = lr_coefficient(target, beta, head)
        if c:
            total += c * _box_scan(beta, rest)
    return total


def _multi_by_box_scan(target, factors):
    # the recursion multi_lr_coefficient used before it read bounded
    # products: peel off the largest factor and sum over every shape of
    # the remaining weight in the box the other factors span
    target = partition(target)
    factors = tuple(sorted((partition(f) for f in factors if f), key=sort_key, reverse=True))
    if sum(target) != sum(sum(f) for f in factors):
        return 0
    if not factors:
        return 1
    return _box_scan(target, factors)


_NONEMPTY_2x2 = [lam for lam in enumerate_in_rectangle(2, 2) if lam]


def test_multi_matches_box_scan_oracle():
    # every target a product of 2-4 shapes of the 2x2 box can reach
    for m in (2, 3, 4):
        for factors in itertools.combinations_with_replacement(_NONEMPTY_2x2, m):
            rows = sum(len(f) for f in factors)
            cols = sum(f[0] for f in factors)
            for nu in partitions_by_weight(rows, cols)[sum(map(sum, factors))]:
                assert multi_lr_coefficient(nu, factors) == _multi_by_box_scan(nu, factors), (nu, factors)


def test_multi_conjugation_symmetry():
    # conjugating the target and every factor keeps the coefficient; the
    # two orientations build their own bounded products
    for m in (2, 3):
        for factors in itertools.product(_NONEMPTY_2x2, repeat=m):
            rows = sum(len(f) for f in factors)
            cols = sum(f[0] for f in factors)
            flipped = [conjugate(f) for f in factors]
            for nu in partitions_by_weight(rows, cols)[sum(map(sum, factors))]:
                assert multi_lr_coefficient(nu, factors) == multi_lr_coefficient(
                    conjugate(nu), flipped
                ), (nu, factors)


def test_multi_dimension_identity():
    # sum_nu c^nu_{f1 f2 f3} s_nu(1^n) == s_f1(1^n) s_f2(1^n) s_f3(1^n),
    # with no oracle: a support shape left out makes the left side short
    for factors in itertools.combinations_with_replacement(_NONEMPTY_2x2, 3):
        rows = sum(len(f) for f in factors)
        cols = sum(f[0] for f in factors)
        support = partitions_by_weight(rows, cols)[sum(map(sum, factors))]
        for n in (rows, rows + 2):
            got = sum(multi_lr_coefficient(nu, factors) * _schur_at_ones(nu, n) for nu in support)
            want = 1
            for f in factors:
                want *= _schur_at_ones(f, n)
            assert got == want, (factors, n)


def _levis_up_to_two_blocks(p, q):
    blocks = [(a, b) for a in range(1, p + 1) for b in range(1, q + 1)]
    out = [LeviShape(())] + [LeviShape((r,)) for r in blocks]
    out += [
        LeviShape((r1, r2))
        for r1 in blocks
        for r2 in blocks
        if r1[0] + r2[0] <= p and r1[1] + r2[1] <= q
    ]
    return out


def _levi_support_by_window_scan(ambient, levi):
    # the window's shapes of the Levi's degree, in graded order, that
    # the product of its full blocks reaches, with their coefficients
    full = [rect(a, b) for a, b in levi.rects]
    degree = sum(a * b for a, b in levi.rects)
    out = []
    for nu in partitions_by_weight(*ambient).get(degree, ()):
        m = _multi_by_box_scan(nu, full)
        if m:
            out.append((nu, m))
    return out


def test_dual_class_unitary_matches_window_scan():
    for p in range(1, 5):
        for q in range(1, 5):
            for levi in _levis_up_to_two_blocks(p, q):
                support = _levi_support_by_window_scan((p, q), levi)
                want = cohom_class((p, q), {complement(nu, p, q): m for nu, m in support})
                assert dual_class_unitary((p, q), levi) == want, (p, q, levi)


def test_injectivity_unitary_matches_window_scan():
    for p in range(1, 4):
        for q in range(1, 5):
            levis = _levis_up_to_two_blocks(p, q)
            supports = [_levi_support_by_window_scan((p, q), levi) for levi in levis]
            for pair in enumerate_pairs((p, q)):
                for levi, support in zip(levis, supports):
                    want = next(
                        ((True, nu) for nu, _ in support if inscribes(complement(nu, p, q), pair.skew)),
                        (False, None),
                    )
                    assert injectivity_unitary(pair, levi) == want, (pair, levi)


def test_stacked_rectangles_have_positive_coefficient():
    rects = [rect(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]
    for m in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(rects, m):
            for perm in set(itertools.permutations(combo)):
                stacked = tuple(
                    r[0] for r in perm for _ in range(len(r))
                )
                if any(
                    stacked[i] < stacked[i + 1] for i in range(len(stacked) - 1)
                ):
                    continue  # not a partition in this stacking order
                assert multi_lr_coefficient(stacked, list(perm)) >= 1


def test_rectangle_support_bounds():
    # images of a rectangle list cannot be too tall, and the row just
    # below the guaranteed height is capped by the narrowest block
    rects = [rect(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]
    for m in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(rects, m):
            P = sum(len(r) for r in combo)
            Q = sum(r[0] for r in combo)
            narrow = min(r[0] for r in combo)
            for nu in expand_product(list(combo)):
                assert len(nu) <= P
                row = nu[P - 1] if len(nu) >= P else 0
                assert row <= narrow
                if m >= 2 and row:
                    # full-height images of two or more blocks lose width
                    assert nu[0] < Q


def test_single_block_saturates_width_bound():
    # one rectangle alone is its own only image, and it touches both the
    # height and width caps at once; the strict width bound above needs
    # at least two factors
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            block = rect(p, q)
            assert expand_product([block]) == {block: 1}
            assert block[p - 1] == q  # not < Q: the m = 1 boundary case


def test_inscribes_trivial_and_blocks():
    for s in all_skews(3, 3, 9):
        if sum(s.outer) - sum(s.inner) > 0:
            assert inscribes((1,), s)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            block = skew(rect(a, b))
            for nu in SHAPES_4x4:
                if sum(nu) > a * b:
                    continue
                assert inscribes(nu, block) == fits(nu, a, b)
            assert not inscribes((b + 1,), block)


def test_inscribes_monotone():
    small = [s for s in all_skews(3, 3, 8) if sum(s.outer) - sum(s.inner) >= 1]
    for s in small:
        good = [nu for nu in SHAPES_3x3 if inscribes(nu, s)]
        for nu in good:
            for sub in SHAPES_3x3:
                if contains(sub, nu):
                    assert inscribes(sub, s), (sub, nu, s)


def test_inscribes_witness_is_real():
    s = skew((3, 2, 1), (1,))
    mu = inscribes_witness((2, 1), s)
    assert mu is not None
    assert contains(s.inner, mu) and contains(mu, s.outer)
    assert lr_coefficient(mu, s.inner, (2, 1)) > 0


def sub_skews(s, extra):
    # The enumerator inscribes_witness walked before it shared the
    # bounded LR candidates, kept as an oracle: the partitions between
    # s.inner and s.outer with extra more cells than s.inner, in graded
    # order.
    if extra < 0 or sum(s.inner) + extra > sum(s.outer):
        return []
    pad = s.inner + (0,) * (len(s.outer) - len(s.inner))
    found = []

    def rec(i, prefix, left):
        if i == len(s.outer):
            if left == 0:
                found.append(partition(prefix))
            return
        top = s.outer[i] if not prefix else min(s.outer[i], prefix[-1])
        for v in range(pad[i], top + 1):
            if v - pad[i] <= left:
                rec(i + 1, prefix + [v], left - (v - pad[i]))

    rec(0, [], extra)
    return sorted(found, key=sort_key)


def test_sub_skews_frozen_example():
    assert sub_skews(skew((2, 2), (1,)), 1) == [(2,), (1, 1)]


def test_sub_skews_are_exactly_the_intermediate_shapes():
    for s in all_skews(3, 3, 9):
        for extra in range(size(s) + 1):
            got = set(sub_skews(s, extra))
            want = {
                mu
                for mu in SHAPES_3x3
                if contains(s.inner, mu)
                and contains(mu, s.outer)
                and sum(mu) == sum(s.inner) + extra
            }
            assert got == want


def _first_witness(nu, s):
    for mu in sub_skews(s, sum(nu)):
        if lr_coefficient(mu, s.inner, nu):
            return mu
    return None


def _inscription_queries(rows, cols):
    # every (nu, skew) of the window with nu no larger than the skew
    shapes = enumerate_in_rectangle(rows, cols)
    return [
        (nu, s)
        for s in all_skews(rows, cols, rows * cols)
        for nu in shapes
        if sum(nu) <= size(s)
    ]


def test_inscribes_witness_matches_sub_skews_oracle_3x4():
    queries = _inscription_queries(3, 4)
    assert len(queries) == 5281
    for nu, s in queries:
        assert inscribes_witness(nu, s) == _first_witness(nu, s), (nu, s)


@given(st.sampled_from(_inscription_queries(4, 4)))
@settings(max_examples=500, deadline=None)
def test_inscribes_witness_matches_sub_skews_oracle_4x4(query):
    nu, s = query
    assert inscribes_witness(nu, s) == _first_witness(nu, s)


def test_windows_with_equal_inscription_sets():
    # two different inner shapes under the same outer shape can admit
    # exactly the same inscriptions, so no inscription-based criterion
    # separates them; note the first window is not even a chain
    s1 = skew((3, 2, 1), (2, 2))
    s2 = skew((3, 2, 1), (2, 1, 1))
    assert rectangle_decomposition(s1) is None
    sets = []
    for s in (s1, s2):
        sets.append({nu for nu in SHAPES_3x3 if sum(nu) <= 2 and inscribes(nu, s)})
    assert sets[0] == sets[1] == {(), (1,), (2,), (1, 1)}


def test_symmetric_inscription_examples():
    w = inscribes_symmetric((1,), concat([(1,)]))
    assert w is not None and w.center == (1,)
    assert inscribes_symmetric((), concat([(1,)])) is not None
    # staircase into the full square, any p up to 4
    for p in (2, 3, 4):
        stair = tuple(range(p - 1, 0, -1))
        assert inscribes_symmetric(stair, skew(rect(p, p))) is not None
    with pytest.raises(ShapeNotSymmetric):
        inscribes_symmetric((2,), concat([(1,)]))


def test_antisymmetric_inscription_examples():
    w = inscribes_antisymmetric((2, 1), skew(rect(2, 2)))
    assert w is not None and w.center == (2, 1)
    # (1) reduces to the empty shape and rides on any center
    assert inscribes_antisymmetric((1,), skew(rect(2, 2))) is not None
    assert inscribes_antisymmetric((), skew(rect(2, 2))) is not None
    with pytest.raises(ShapeNotSymmetric):
        inscribes_antisymmetric((1, 1), skew(rect(2, 2)))


def _full_box_split(boxes, total):
    # the weight split before it was bounded by a target: every tuple of
    # full-box shapes of the total weight, graded block by block
    if total < 0:
        return
    if not boxes:
        if total == 0:
            yield ()
        return
    for w, group in sorted(partitions_by_weight(*boxes[0]).items()):
        if w > total:
            break
        for lam in group:
            for rest in _full_box_split(boxes[1:], total - w):
                yield (lam,) + rest


def test_shapes_under_a_row_bound_are_the_filtered_rectangle():
    for h in SHAPES_4x4:
        got = lr_mod._shapes_under(h)
        assert len(got) == len(set(got)), h
        assert set(got) == {lam for lam in enumerate_in_rectangle(len(h), h[0] if h else 0) if contains(lam, h)}, h
    # with lows as well: the shapes between them, none when lows are not
    # under highs
    for h in SHAPES_4x4:
        under = [lam for lam in SHAPES_4x4 if contains(lam, h)]
        for lo in SHAPES_4x4:
            got = lr_mod._shapes_under(h, lo)
            assert len(got) == len(set(got)), (lo, h)
            assert set(got) == {lam for lam in under if contains(lo, lam)}, (lo, h)
            if not contains(lo, h):
                assert got == [], (lo, h)
    # a thousand-row bound is listed without a per-row recursion
    assert len(lr_mod._shapes_under((1,) * 1100)) == 1101


def _block_tuples(rows, cols, most, least=1):
    # ordered tuples of least..most blocks with positive sides that fit
    # side by side in rows x cols
    out = []

    def rec(prefix, r, c):
        if len(prefix) >= least:
            out.append(tuple(prefix))
        if len(prefix) == most:
            return
        for a in range(1, r + 1):
            for b in range(1, c + 1):
                rec(prefix + [(a, b)], r - a, c - b)

    rec([], rows, cols)
    return out


def _restrict_by_full_box_scan(lam, rects):
    out = {}
    for alphas in _full_box_split(rects, sum(lam)):
        m = multi_lr_coefficient(lam, alphas)
        if m:
            out[alphas] = m
    return list(out.items())


def test_restrict_levi_matches_full_box_scan():
    # terms and their order, for every class of every window up to 4x4
    # and every Levi of one to three blocks
    for p in range(1, 5):
        for q in range(1, 5):
            for rects in _block_tuples(p, q, 3):
                for lam in enumerate_in_rectangle(p, q):
                    got = restrict_levi(schubert_class((p, q), lam), LeviShape(rects))
                    assert list(got.terms.items()) == _restrict_by_full_box_scan(lam, rects), (p, q, rects, lam)


@st.composite
def _levi_restrictions(draw):
    p, q = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rects = draw(st.sampled_from(_block_tuples(p, q, 3)))
    return (p, q), rects, draw(st.sampled_from(enumerate_in_rectangle(p, q)))


@given(_levi_restrictions())
@settings(max_examples=200, deadline=None)
def test_restrict_levi_matches_full_box_scan_5x5(case):
    # windows up to 5x5; every case beyond 4x4 is too slow for each run
    ambient, rects, lam = case
    got = restrict_levi(schubert_class(ambient, lam), LeviShape(rects))
    assert list(got.terms.items()) == _restrict_by_full_box_scan(lam, rects)


def test_warm_restrictions_search_only_the_centers(monkeypatch, cold_memo):
    calls = []

    def counting(s, caps):
        calls.append(s)
        return ballot_fillings(s, caps)

    monkeypatch.setattr(lr_mod, "ballot_fillings", counting)
    x, levi = schubert_class((6, 6), (5, 4, 3, 2, 1)), LeviShape(((3, 3), (3, 3)))
    first = restrict_levi(x, levi)
    assert calls
    calls.clear()
    assert restrict_levi(x, levi) == first
    assert calls == []
    s = skew((5, 4, 3, 2, 1), (4, 3, 2, 1))
    first = inscribes_symmetric((2, 2), s)
    calls.clear()
    assert inscribes_symmetric((2, 2), s) == first
    # the centers are memoized, and the splits of each target/center
    # are _coproduct's, so the warm call searches nothing
    assert calls == []


def _split_rest_recursive(lam, alpha, boxes):
    # _split_rest and _coproduct as they were before _coproduct took the
    # boxes off in one loop: each called the other once per Levi block.
    # Kept as an oracle; _split_rest gave the diagonal search its splits.
    rows, cols = sum(a for a, _ in boxes), sum(b for _, b in boxes)
    out = {}
    if sum(lam) - sum(alpha) <= rows * cols and contains(alpha, lam):
        for mu, c in lr_mod._skew_terms(SkewShape(lam, alpha), (cols,) * rows).items():
            for gammas, c2 in _coproduct_recursive(mu, boxes).items():
                out[gammas] = out.get(gammas, 0) + c * c2
    return out


@functools.cache
def _coproduct_recursive(lam, boxes):
    if not boxes:
        return {} if lam else {(): 1}
    (rows, cols), rest = boxes[0], boxes[1:]
    terms = {}
    for alpha in lr_mod._shapes_under([min(cols, p) for p in lam[:rows]]):
        for gammas, c in _split_rest_recursive(lam, alpha, rest).items():
            terms[(alpha,) + gammas] = c
    return dict(sorted(terms.items(), key=lambda kv: tuple(map(sort_key, kv[0]))))


def test_coproduct_matches_recursive_oracle(cold_memo):
    # every 4x4 class and every Levi of one to three blocks, then a
    # seeded sample of the 5x5 ones, terms in order
    cases = [(lam, rects) for rects in _block_tuples(4, 4, 3) for lam in SHAPES_4x4]
    shapes = enumerate_in_rectangle(5, 5)
    cases += random.Random(20).sample([(lam, rects) for rects in _block_tuples(5, 5, 3) for lam in shapes], 1000)
    for lam, rects in cases:
        want = list(_coproduct_recursive(lam, rects).items())
        assert list(lr_mod._coproduct(lam, (), rects).items()) == want, (lam, rects)
        # the splits of the skew lam/alpha over the rest
        alpha = lam[: rects[0][0]]
        splits = sorted(_split_rest_recursive(lam, alpha, rects[1:]), key=lambda g: tuple(map(sort_key, g)))
        assert list(lr_mod._coproduct(lam, alpha, rects[1:])) == splits, (lam, rects)


def test_coproduct_searches_no_empty_or_straight_skew(monkeypatch, cold_memo):
    # a skew with no cells and a straight shape each have one ballot
    # filling, row i holding only i's, so neither is searched, in the
    # coproduct walk or in a product with an empty factor
    searched = []

    def counting(s, caps):
        searched.append(s)
        return ballot_fillings(s, caps)

    monkeypatch.setattr(lr_mod, "ballot_fillings", counting)
    for rects in _block_tuples(4, 4, 3):
        for lam in SHAPES_4x4:
            lr_mod._coproduct(lam, (), rects)
    # the diagonal searches of the hash-seed CI commands
    center_side, flanks = symmetric_chain_split(skew((5, 4, 3, 2, 1), (4, 3, 2, 1)))
    for reduce_map in (plus_part, minus_part):
        assert list(diagonal_splits(reduce_map((2, 2)), center_side, [(b, a) for a, b in flanks], reduce_map))
    # products start from the empty shape, and a window may have no inner
    # shape; the answers are pinned, as no filling is counted for them
    assert expand_product([(2, 1), (1,), (1,)], (3, 3)) == {(3, 2): 2, (3, 1, 1): 2, (2, 2, 1): 2}
    assert expand_product([(), (2,)]) == {(2,): 1}
    assert multi_lr_coefficient((3, 2, 1), [(2, 1), (1, 1), (1,)]) == 3
    assert multi_lr_coefficient((2, 1), [(2, 1)]) == 1
    assert inscribes_witness((2, 1), skew((3, 2))) == (2, 1)
    assert inscribes_witness((), skew((2, 1))) == ()
    assert searched
    assert all(any(s.inner) and size(s) for s in searched)
    for lam in SHAPES_4x4:
        assert lr_mod._coproduct(lam, lam, ()) == {(): 1}
        assert lr_mod._coproduct(lam, (), ()) == ({} if lam else {(): 1})
    # a class that does not fit the union of the blocks restricts to 0
    assert lr_mod._coproduct((3,), (), ((1, 1), (1, 1))) == {}
    assert restrict_levi(schubert_class((4, 4), (3,)), LeviShape(((1, 1), (1, 1)))).terms == {}
    assert restrict_levi(schubert_class((4, 4), (1, 1, 1)), LeviShape(((1, 2), (1, 1)))).terms == {}


def test_coproduct_builds_only_alphas_whose_rest_fits(monkeypatch, cold_memo):
    # every nonempty alpha the walk passes to _skew_under leaves a rest
    # mu/alpha whose rows and columns fit the later blocks' rectangle, so
    # no search is spent on a rest that no term of it can fit
    calls = []
    skew_under = lr_mod._skew_under

    def recording(mu, alpha, rows, cols):
        if alpha:
            calls.append((mu, alpha, rows, cols))
        return skew_under(mu, alpha, rows, cols)

    monkeypatch.setattr(lr_mod, "_skew_under", recording)
    for rects in _block_tuples(4, 4, 3):
        for lam in SHAPES_4x4:
            lr_mod._coproduct(lam, (), rects)
    assert len(calls) == 3720
    for mu, alpha, rows, cols in calls:
        assert contains(alpha, mu), (mu, alpha)
        a = alpha + (0,) * (len(mu) - len(alpha))
        assert all(p - q <= cols for p, q in zip(mu, a)), (mu, alpha, rows, cols)
        c = conjugate(alpha) + (0,) * mu[0]
        assert all(p - q <= rows for p, q in zip(conjugate(mu), c)), (mu, alpha, rows, cols)


def _memo_counts():
    return {h.__name__: (h.cache_info().hits, h.cache_info().misses) for h in MEMOIZED}


def _counts(**nonzero):
    # (hits, misses) of every table, (0, 0) unless named
    return {h.__name__: nonzero.get(h.__name__[1:], (0, 0)) for h in MEMOIZED}


_LEVI_CASE = (schubert_class((4, 4), (3, 2, 1)), LeviShape(((2, 2), (2, 2))))


@pytest.mark.parametrize(
    "cold_call, warm_call, cold, warm",
    [
        # the warm product names its factors in the other order
        (
            lambda: schur_expand((2, 1), (1,)),
            lambda: schur_expand((1,), (2, 1)),
            _counts(expand_pair=(0, 1)),
            _counts(expand_pair=(1, 1)),
        ),
        (
            lambda: restrict_levi(*_LEVI_CASE),
            lambda: restrict_levi(*_LEVI_CASE),
            _counts(coproduct=(0, 1)),
            _counts(coproduct=(1, 1)),
        ),
        (
            lambda: list(diagonal_splits((2, 1), 1, ((1, 1), (2, 1)), plus_part)),
            lambda: list(diagonal_splits((2, 1), 1, ((1, 1), (2, 1)), plus_part)),
            _counts(coproduct=(0, 2), centers=(0, 1)),
            _counts(coproduct=(2, 2), centers=(1, 1)),
        ),
        (
            lambda: lr_coefficient((3, 2, 1), (2, 1), (2, 1)),
            lambda: lr_coefficient((3, 2, 1), (2, 1), (2, 1)),
            _counts(coefficient=(0, 1)),
            _counts(coefficient=(1, 1)),
        ),
    ],
    ids=["schur_expand", "restrict_levi", "diagonal_splits", "lr_coefficient"],
)
def test_memo_tables_count_hits_and_misses(cold_call, warm_call, cold, warm, monkeypatch, cold_memo):
    # MEMOIZED names every functools.cache table of lr
    assert {f for f in vars(lr_mod).values() if hasattr(f, "cache_info")} == set(MEMOIZED)
    monkeypatch.delenv("SCHUBERT_CACHE_DIR", raising=False)
    for _ in range(2):
        cold_memo()
        first = cold_call()
        assert _memo_counts() == cold
        assert warm_call() == first
        assert _memo_counts() == warm
    for name, (hits, misses) in warm.items():
        assert misses == cold[name][1] and hits >= cold[name][0]
    assert sum(h for h, _ in warm.values()) > sum(h for h, _ in cold.values())


# a 4x4 pair whose skew (4,4,4,1)/(1,1,1) holds 10 cells
_PAIR = make_pair((1, 1, 1), (4, 4, 4, 1), (4, 4))


@pytest.mark.parametrize(
    "call, again",
    [
        # the warm call names the same blocks as lists
        (
            lambda: injectivity_unitary(_PAIR, LeviShape(((1, 3), (3, 1)))),
            lambda: injectivity_unitary(_PAIR, LeviShape([[1, 3], [3, 1]])),
        ),
        (
            lambda: dual_class_unitary((5, 5), LeviShape(((2, 3), (3, 2)))),
            lambda: dual_class_unitary([5, 5], LeviShape([[2, 3], [3, 2]])),
        ),
    ],
    ids=["injectivity_unitary", "dual_class_unitary"],
)
def test_levi_support_is_built_once_per_window_and_blocks(call, again, cold_memo):
    first = call()
    assert cohom_mod._levi_support.cache_info()[:2] == (0, 1)
    expanded = lr_mod._expand_pair.cache_info()
    for hits in (1, 2):
        assert again() == first
        assert cohom_mod._levi_support.cache_info()[:2] == (hits, 1)
    # the warm calls build no product: the table holds the support
    assert lr_mod._expand_pair.cache_info().misses == expanded.misses


@pytest.mark.parametrize(
    "pair, rects",
    [
        # complements of 16 - 4 = 12 cells against a skew of 4
        (make_pair((2, 2), (4, 4), (4, 4)), ((2, 2),)),
        # 16 - 8 = 8 cells against a skew of 7
        (make_pair((1, 1), (4, 4, 1), (4, 4)), ((2, 2), (2, 2))),
    ],
    ids=["one block", "two blocks"],
)
def test_an_injectivity_test_empty_by_size_searches_nothing(pair, rects, cold_memo):
    p, q = pair.ambient
    assert p * q - sum(a * b for a, b in rects) > sum(pair.mu) - sum(pair.lam)
    assert injectivity_unitary(pair, LeviShape(rects)) == (False, None)
    # no product was built, neither of the blocks nor of a complement
    assert lr_mod._expand_pair.cache_info().currsize == 0
    assert cohom_mod._levi_support.cache_info().currsize == 0
    # the search it skipped finds nothing
    support = cohom_mod._levi_support(pair.ambient, rects)
    assert support and all(lr_mod._witness(top, pair.lam, pair.mu) is None for _, top, _ in support)


@pytest.mark.parametrize(
    "bad, error, message",
    [
        (((3, 1), (2, 1)), LeviDoesNotFit, "row sides exceed the ambient"),
        (((2.5, 1),), ValueError, "block sides must be integers"),
    ],
    ids=["too wide", "side of 2.5"],
)
@pytest.mark.parametrize(
    "call",
    [
        # the full 4x4 pair, which no Levi leaves empty by size
        lambda rects: injectivity_unitary(make_pair((), (4, 4, 4, 4), (4, 4)), LeviShape(rects)),
        lambda rects: dual_class_unitary((4, 4), LeviShape(rects)),
    ],
    ids=["injectivity_unitary", "dual_class_unitary"],
)
def test_a_refused_levi_stays_refused_after_a_valid_one_is_cached(bad, error, message, call, cold_memo):
    call(((2, 1),))
    call(((3, 1), (1, 1)))
    assert cohom_mod._levi_support.cache_info().currsize == 2
    for _ in range(2):
        with pytest.raises(error, match=message):
            call(bad)
    assert cohom_mod._levi_support.cache_info().currsize == 2


def _restrict_levi_sorting(x, levi):
    # The Levi restriction before _coproduct kept its terms in graded
    # order, kept as an oracle: every class's terms summed, then sorted.
    rects = tuple(map(tuple, levi.rects))
    out = {}
    for lam, c in x.terms.items():
        for alphas, m in lr_mod._coproduct(lam, (), rects).items():
            out[alphas] = out.get(alphas, 0) + c * m
    clean = {k: c for k, c in out.items() if c}
    return list(sorted(clean.items(), key=lambda kv: tuple(map(sort_key, kv[0]))))


def test_restrict_levi_matches_sorting_oracle_5x5(cold_memo):
    # every class of the 5x5 box, and per Levi one class of many terms
    # and one term with coefficient 0, restricted to every Levi of one to
    # three blocks, terms in order
    shapes = enumerate_in_rectangle(5, 5)
    many = cohom_class((5, 5), {lam: 1 + i % 3 for i, lam in enumerate(shapes) if sum(lam) == 6})
    cases = []
    for rects in _block_tuples(5, 5, 3):
        levi = LeviShape(rects)
        cases += [(schubert_class((5, 5), lam), levi) for lam in shapes]
        cases += [(many, levi), (CohomClass((5, 5), {(2, 1): 0}), levi)]
    assert len(cases) == 225 * 254
    for x, levi in cases:
        # a cold memo for this case alone, then the same call warm
        cold_memo()
        got = restrict_levi(x, levi)
        assert list(restrict_levi(x, levi).terms.items()) == list(got.terms.items())
        assert list(got.terms.items()) == _restrict_levi_sorting(x, levi), (x, levi)
    # one memo for every case, then warm
    cold_memo()
    for _ in range(2):
        for x, levi in cases:
            assert list(restrict_levi(x, levi).terms.items()) == _restrict_levi_sorting(x, levi), (x, levi)


def test_restrict_levi_dimension_identity():
    # blocks of a_1, a_2, ... rows (summing to p), each q wide: for lam
    # inside p x q, s_lam(1^p) is the sum over the terms of
    # c * s_alpha_1(1^a_1) * s_alpha_2(1^a_2) * ..., with no LR oracle
    for p in range(1, 6):
        for q in range(1, 5):
            heights = [(a, p - a) for a in range(1, p)]
            if p <= 4 and q <= 3:
                heights += [(a, b, p - a - b) for a in range(1, p) for b in range(1, p - a)]
            for rows in heights:
                rects = tuple((a, q) for a in rows)
                ambient = (p, q * len(rects))
                for lam in enumerate_in_rectangle(p, q):
                    terms = restrict_levi(schubert_class(ambient, lam), LeviShape(rects)).terms
                    got = 0
                    for alphas, c in terms.items():
                        for alpha, a in zip(alphas, rows):
                            c *= _schur_at_ones(alpha, a)
                        got += c
                    assert got == _schur_at_ones(lam, p), (p, q, rows, lam)


def _both_ways(strict):
    return [strict] if conjugate(strict) == strict else [strict, conjugate(strict)]


def _support_by_full_box_scan(nu, levi):
    targets = _both_ways(plus_part(nu))
    out = []
    for nu0 in enumerate_in_rectangle(levi.center, levi.center, symmetric_only=True):
        heads = _both_ways(plus_part(nu0))
        for alphas in _full_box_split(levi.rects, sum(targets[0]) - sum(heads[0])):
            if any(multi_lr_coefficient(t, (h,) + alphas) for t in targets for h in heads):
                out.append((nu0, alphas))
    return out


def test_symplectic_support_matches_full_box_scan():
    # every diagonal-block Levi with up to three other blocks, p <= 4
    for p in range(1, 5):
        sym = enumerate_in_rectangle(p, p, symmetric_only=True)
        for center in range(p + 1):
            for rects in _block_tuples(p - center, p - center, 3, least=0):
                levi = LeviShape(rects, center)
                for nu in sym:
                    want = _support_by_full_box_scan(nu, levi)
                    assert restrict_symplectic_levi_support(nu, levi, p) == want, (p, levi, nu)


def _diagonal_by_full_box_scan(nu, s, reduce_map):
    # the first witness of the center/orientation search over full-box
    # flank shapes
    center_side, flanks = symmetric_chain_split(s)
    boxes = [(b, a) for a, b in flanks]
    if center_side:
        centers = enumerate_in_rectangle(center_side, center_side, symmetric_only=True)
    else:
        centers = [()]
    labels = ("id", "conj")
    for t_label, tgt in zip(labels, _both_ways(reduce_map(nu))):
        for nu0 in centers:
            for t0_label, ctr in zip(labels, _both_ways(reduce_map(nu0))):
                head = (ctr,) if center_side else ()
                for gammas in _full_box_split(boxes, sum(tgt) - sum(ctr)):
                    if multi_lr_coefficient(tgt, head + gammas):
                        if not center_side:
                            return SymWitness((t_label, None), None, gammas)
                        return SymWitness((t_label, t0_label), nu0, gammas)
    return None


def test_diagonal_witnesses_match_full_box_scan():
    # every symmetric shape into every symmetric chain of a p x p
    # window, p <= 5, both reductions
    for p in range(1, 6):
        sym = enumerate_in_rectangle(p, p, symmetric_only=True)
        for mu in sym:
            for lam in sym:
                if not contains(lam, mu):
                    continue
                s = skew(mu, lam)
                try:
                    symmetric_chain_split(s)
                except IncompatiblePair:
                    continue
                for nu in sym:
                    assert inscribes_symmetric(nu, s) == _diagonal_by_full_box_scan(nu, s, plus_part), (nu, s)
                    assert inscribes_antisymmetric(nu, s) == _diagonal_by_full_box_scan(nu, s, minus_part), (nu, s)


def _diagonal_splits_unmemoized(base, center_side, boxes, reduce_map):
    # The diagonal search before its centers and ordered splits were
    # memoized, kept as an oracle: the centers rebuilt and every
    # target/center expanded and sorted on each call.
    boxes = tuple(map(tuple, boxes))
    if center_side:
        centers = enumerate_in_rectangle(center_side, center_side, symmetric_only=True)
    else:
        centers = [()]
    for t_label, tgt in lr_mod._oriented(base):
        for nu0 in centers:
            for t0_label, ctr in lr_mod._oriented(reduce_map(nu0)):
                for gammas in sorted(_split_rest_recursive(tgt, ctr, boxes), key=lambda g: tuple(map(sort_key, g))):
                    yield SymWitness(
                        (t_label, t0_label if center_side else None),
                        nu0 if center_side else None,
                        gammas,
                    )


def _diagonal_cases(most):
    # diagonal_splits arguments for every symmetric nu into every
    # symmetric chain of a p x p window, p <= most, both reductions
    cases = []
    for p in range(1, most + 1):
        sym = enumerate_in_rectangle(p, p, symmetric_only=True)
        for mu in sym:
            for lam in sym:
                if not contains(lam, mu):
                    continue
                try:
                    center_side, flanks = symmetric_chain_split(skew(mu, lam))
                except IncompatiblePair:
                    continue
                boxes = tuple((b, a) for a, b in flanks)
                for nu in sym:
                    for reduce_map in (plus_part, minus_part):
                        cases.append((reduce_map(nu), center_side, boxes, reduce_map))
    return cases


def test_diagonal_splits_match_unmemoized_oracle(cold_memo):
    # plus the one target/center of the p <= 6 windows, (2, 1) over (1),
    # whose expansion does not come out in graded order
    cases = _diagonal_cases(4) + [((2, 1), 1, ((1, 1), (2, 1)), plus_part)]
    want = [list(_diagonal_splits_unmemoized(*case)) for case in cases]
    assert any(len(w) > 1 for w in want)
    for case, w in zip(cases, want):
        # a cold memo for this case alone, then the same call warm
        cold_memo()
        assert list(diagonal_splits(*case)) == w, case
        assert list(diagonal_splits(*case)) == w, case
    # one memo for every case, as cold_memo leaves it, then warm
    cold_memo()
    assert [list(diagonal_splits(*case)) for case in cases] == want
    assert [list(diagonal_splits(*case)) for case in cases] == want


def test_interleaved_diagonal_searches_agree(cold_memo):
    # two generators on one key, stepped in turn from a cold memo: the
    # first fills the memo entries the second then reads
    for case in _diagonal_cases(4):
        cold_memo()
        pairs = list(itertools.zip_longest(diagonal_splits(*case), diagonal_splits(*case)))
        got_first, got_second = [a for a, _ in pairs], [b for _, b in pairs]
        assert got_first == got_second == list(_diagonal_splits_unmemoized(*case)), case


def test_symplectic_support_matches_unmemoized_oracle(cold_memo):
    # all 1,842 support lists of p <= 4 on one shared memo
    count = 0
    for p in range(1, 5):
        sym = enumerate_in_rectangle(p, p, symmetric_only=True)
        for center in range(p + 1):
            for rects in _block_tuples(p - center, p - center, 3, least=0):
                levi = LeviShape(rects, center)
                for nu in sym:
                    splits = _diagonal_splits_unmemoized(plus_part(nu), center, rects, plus_part)
                    found = {(() if w.center is None else w.center, w.gammas) for w in splits}
                    want = sorted(found, key=lambda pair: (sort_key(pair[0]), tuple(map(sort_key, pair[1]))))
                    assert restrict_symplectic_levi_support(nu, levi, p) == want, (p, levi, nu)
                    count += 1
    assert count == 1842


def _parse_line(line):
    # The shape-parsing reader of the loader that the text index
    # replaced, kept as an oracle.
    head, _, tail = line.strip().rpartition(" ")
    parts = head.split(";")
    if len(parts) != 3:
        raise ValueError(line)
    return lr_mod.LRKey(*(parse_partition(p) for p in parts)), int(tail)


def _eager_table(path):
    # The old eager loader: every line parsed, the first valid one wins.
    table = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                key, value = _parse_line(line)
            except (ValueError, IndexError):
                continue
            table.setdefault(key, value)
    return table


def test_cache_file_created_and_parseable(tmp_path, monkeypatch, cold_memo):
    monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path))
    value = lr_coefficient((7, 5, 2), (4, 1), (5, 3, 1))
    path = tmp_path / "lr-cache.txt"
    assert path.exists()
    lines = [l for l in path.read_text().splitlines() if l.strip()]
    parsed = dict(_parse_line(l) for l in lines)
    key = lr_mod._canonical_key((7, 5, 2), (4, 1), (5, 3, 1))
    assert parsed[key] == value


def test_cache_preload_wins_and_skips_garbage(tmp_path, monkeypatch, cold_memo):
    target = tmp_path / "seeded.txt"
    key = lr_mod._canonical_key((5, 4, 3, 2, 1), (2, 1), (4, 4, 2, 2))
    target.write_text(
        "not a cache line\n"
        "a;b 1\n"
        "1,1;;1,1 x\n"
        + lr_mod._key_text(key)
        + " 7777\n"
    )
    monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(target))
    # the preloaded value is trusted over a fresh count
    assert lr_coefficient((5, 4, 3, 2, 1), (2, 1), (4, 4, 2, 2)) == 7777


def test_cache_env_can_name_a_file(tmp_path, monkeypatch, cold_memo):
    target = tmp_path / "mycache.txt"
    monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(target))
    lr_coefficient((7, 6, 2), (4, 1), (5, 3, 2))
    assert target.exists()
    line = target.read_text().splitlines()[-1]
    k, v = _parse_line(line)
    assert v == lr_coefficient((7, 6, 2), (4, 1), (5, 3, 2))


def test_cache_index_matches_eager_loader(tmp_path, monkeypatch, cold_memo):
    target = tmp_path / "lr-cache.txt"
    monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(target))
    for lam in SHAPES_3x3:
        for mu in SHAPES_3x3:
            _expand_in_box(lam, mu, _full_box(lam, mu))
    written = target.read_text()
    text = lr_mod._key_text
    bad_first = lr_mod._canonical_key((3, 2, 1), (2, 1), (2, 1))
    two_values = lr_mod._canonical_key((3, 3, 2), (2, 1), (3, 2))
    no_newline = lr_mod._canonical_key((5, 4, 3, 2, 1), (3, 2), (4, 3, 2, 1))
    assert text(bad_first) in written and text(two_values) in written
    assert text(no_newline) not in written
    target.write_text(
        "\n"
        "not a cache line\n"
        + text(bad_first) + " x\n"
        + text(bad_first) + " 4242\n"
        "   \n"
        + text(two_values) + " 111\n"
        + text(two_values) + " 222\n"
        + written
        + "\n"
        + text(no_newline) + " 333"
    )
    table = _eager_table(target)
    assert table[bad_first] == 4242
    assert table[two_values] == 111
    assert table[no_newline] == 333
    before = target.read_bytes()
    cold_memo()
    checked = 0
    for key, value in table.items():
        if key == lr_mod._canonical_key(*key):
            assert lr_coefficient(*key) == value, key
            checked += 1
    assert checked == len(table) > 1000
    # every answer came from the file, so nothing was appended
    assert target.read_bytes() == before


def test_cache_ignores_non_canonical_lines(tmp_path, monkeypatch, cold_memo):
    # the one change from the eager loader: a line the program would not
    # have written is not trusted, and the count is appended instead
    args = (5, 4, 3, 2, 1), (2, 1), (4, 4, 2, 2)
    monkeypatch.delenv("SCHUBERT_CACHE_DIR", raising=False)
    true_value = lr_coefficient(*args)
    key = lr_mod._canonical_key(*args)
    padded = lr_mod._key_text(key).replace(";", ",0;", 1) + " 7777"
    spaced = lr_mod._key_text(key).replace(",", ", ").replace(";", " ;") + " 7777"
    for line in (padded, spaced):
        target = tmp_path / ("cache-%d.txt" % len(line))
        target.write_text(line + "\n")
        assert _eager_table(target) == {key: 7777}
        cold_memo()
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(target))
        assert lr_coefficient(*args) == true_value != 7777
        assert target.read_text().splitlines() == [
            line,
            "%s %d" % (lr_mod._key_text(key), true_value),
        ]


def test_cache_values_must_be_digit_runs(tmp_path, monkeypatch, cold_memo):
    # int() takes a sign and underscores, which the program never writes:
    # such a value is not trusted, and the count is appended instead
    cases = [
        (((2, 1), (1,), (1, 1)), "-7"),
        (((3, 1), (2,), (1, 1)), "+3"),
        (((3, 2, 1), (2, 1), (2, 1)), "1_0"),
    ]
    monkeypatch.delenv("SCHUBERT_CACHE_DIR", raising=False)
    true_values = [lr_coefficient(*args) for args, _ in cases]
    texts = [lr_mod._key_text(lr_mod._canonical_key(*args)) for args, _ in cases]
    assert texts[0] == "2,1;1;1,1"
    lines = ["%s %s" % (text, bad) for text, (_, bad) in zip(texts, cases)]
    target = tmp_path / "lr-cache.txt"
    target.write_text("\n".join(lines) + "\n")
    cold_memo()
    monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(target))
    assert [lr_coefficient(*args) for args, _ in cases] == true_values == [1, 1, 2]
    assert target.read_text().splitlines() == lines + [
        "%s %d" % (text, value) for text, value in zip(texts, true_values)
    ]


def test_cache_index_dropped_with_its_path(tmp_path, monkeypatch, cold_memo):
    args = (5, 4, 3, 2, 1), (2, 1), (4, 4, 2, 2)
    key = lr_mod._canonical_key(*args)
    old = tmp_path / "old.txt"
    old.write_text(lr_mod._key_text(key) + " 7777\n")

    def load_old():
        # read the old file's index through a miss on another key
        cold_memo()
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(old))
        assert lr_coefficient((2,), (1,), (1,)) == 1
        # the old file's index is the one held: asking for it again is a hit
        hits = lr_mod._read_index.cache_info().hits
        lr_mod._read_index(str(old))
        assert lr_mod._read_index.cache_info().hits == hits + 1

    # a new SCHUBERT_CACHE_DIR
    load_old()
    new_dir = tmp_path / "new"
    new_dir.mkdir()
    monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(new_dir))
    true_value = lr_coefficient(*args)
    assert true_value != 7777
    assert (new_dir / "lr-cache.txt").read_text().splitlines() == [
        "%s %d" % (lr_mod._key_text(key), true_value)
    ]

    # a reset of the loaded state with the variable unset
    load_old()
    before = old.read_text()
    monkeypatch.delenv("SCHUBERT_CACHE_DIR")
    lr_mod._read_index.cache_clear()
    assert lr_coefficient(*args) == true_value
    assert old.read_text() == before


def test_value_read_from_a_cache_file_answers_only_while_it_is_named(tmp_path, monkeypatch, cold_memo):
    # a value read from one file must not keep answering once the
    # variable names another file or none
    args = (2, 1), (1,), (1, 1)
    seeded = tmp_path / "seeded.txt"
    seeded.write_text("2,1;1;1,1 9999\n")
    assert lr_mod._key_text(lr_mod._canonical_key(*args)) == "2,1;1;1,1"
    monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(seeded))
    assert lr_coefficient(*args) == 9999
    assert lr_coefficient(*args) == 9999
    fresh = tmp_path / "fresh.txt"
    monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(fresh))
    assert lr_coefficient(*args) == 1
    assert fresh.read_text() == "2,1;1;1,1 1\n"
    monkeypatch.delenv("SCHUBERT_CACHE_DIR")
    assert lr_coefficient(*args) == 1
    monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(seeded))
    assert lr_coefficient(*args) == 9999


def test_a_coefficient_is_counted_once_whatever_file_is_named(tmp_path, monkeypatch, cold_memo):
    # the memo holds counted values only, keyed by the coefficient alone:
    # naming another file, or none, counts nothing again, and each file
    # still gets its one line
    args = (5, 4, 3, 2, 1), (2, 1), (4, 4, 2, 2)
    line = "5,4,3,2,1;2,1;4,4,2,2 2\n"

    def named(path):
        if path is None:
            monkeypatch.delenv("SCHUBERT_CACHE_DIR", raising=False)
        else:
            monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(path))
        return lr_coefficient(*args)

    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert [named(path) for path in (a, b, None, a)] == [2, 2, 2, 2]
    assert lr_mod._coefficient.cache_info().misses == 1
    assert a.read_text() == b.read_text() == line
    # a value seeded in a file answers only while that file is named
    seeded = tmp_path / "seeded.txt"
    seeded.write_text("5,4,3,2,1;2,1;4,4,2,2 9999\n")
    assert [named(path) for path in (seeded, b, None, seeded)] == [9999, 2, 2, 9999]
    assert lr_mod._coefficient.cache_info().misses == 1
    assert b.read_text() == line
    assert seeded.read_text() == "5,4,3,2,1;2,1;4,4,2,2 9999\n"
