import random

import pytest
from hypothesis import given, settings, strategies as st

from schubcalc.errors import SkewInputNotSupported
from schubcalc.partition import contains, enumerate_in_rectangle
from schubcalc.skew import skew, size
from schubcalc.tableau import (
    ballot_fillings,
    content,
    enumerate_lr_fillings,
    enumerate_ssyt,
    format_tableau,
    insertion_tableau,
    is_ballot,
    parse_tableau,
    product,
    rectify,
    reverse_word,
    row_word,
    superstandard,
    tableau,
)


def small_skews():
    shapes = enumerate_in_rectangle(3, 3)
    return [
        skew(mu, lam)
        for mu in shapes
        for lam in shapes
        if contains(lam, mu) and size(skew(mu, lam)) > 0
    ]


small_tableaux = st.builds(
    lambda shape, seed: random.Random(seed).choice(enumerate_ssyt((shape, ()), 4)),
    st.sampled_from(enumerate_in_rectangle(3, 3)),
    st.integers(0, 10**6),
)


def test_superstandard():
    t = superstandard((3, 2))
    assert t.rows == ((1, 1, 1), (2, 2))
    assert content(t) == (3, 2)
    assert superstandard(()).rows == ()


def test_text_round_trip():
    t = parse_tableau("..1/.1/2")
    assert t.outer == (3, 2, 1) and t.inner == (2, 1)
    assert format_tableau(t) == "..1/.1/2"


def test_tableau_validates():
    with pytest.raises(ValueError):
        tableau(((2,), ()), [(2, 1)])  # row decreases
    with pytest.raises(ValueError):
        tableau(((1, 1), ()), [(1,), (1,)])  # column repeats
    with pytest.raises(ValueError, match="expected 2 rows"):
        tableau(((2, 1), ()), [(1, 1)])
    with pytest.raises(ValueError, match="row 1 has wrong length"):
        tableau(((2,), ()), [(1,)])
    with pytest.raises(ValueError, match="entries must be positive"):
        tableau(((2,), ()), [(0, 1)])


def test_tableau_entries_that_are_not_integers_are_refused():
    # int() would truncate 1.5 and parse "1"
    for rows in ([[1.5, 2]], [["1", "2"]], [[None, 2]]):
        with pytest.raises(ValueError, match="entries must be integers"):
            tableau(((2,), ()), rows)
    assert tableau(((2,), ()), [[1.0, 2]]).rows == ((1, 2),)


def test_product_needs_straight_shapes():
    s = parse_tableau(".1/2")
    with pytest.raises(SkewInputNotSupported):
        product(s, superstandard((1,)))
    with pytest.raises(SkewInputNotSupported):
        product(superstandard((1,)), s)


def test_product_small_hand_example():
    # inserting a single 1 into the superstandard hook bumps nothing new
    t = product(superstandard((2, 1)), superstandard((1,)))
    assert t.rows == ((1, 1, 1), (2,))


def test_row_word_reads_bottom_up():
    assert row_word(superstandard((2, 1))) == [2, 1, 1]
    assert reverse_word(parse_tableau("12/23")) == [2, 1, 3, 2]


@given(small_tableaux, small_tableaux, small_tableaux)
@settings(max_examples=60, deadline=None)
def test_product_is_associative(a, b, c):
    left = product(product(a, b), c)
    right = product(a, product(b, c))
    assert left == right


@given(small_tableaux, small_tableaux)
@settings(max_examples=60, deadline=None)
def test_product_preserves_content(a, b):
    combined = {}
    for t in (a, b):
        for v, m in enumerate(content(t), start=1):
            combined[v] = combined.get(v, 0) + m
    got = content(product(a, b))
    assert {v: m for v, m in enumerate(got, start=1) if m} == {
        v: m for v, m in combined.items() if m
    }


def seeded_picker(seed):
    rng = random.Random(seed)

    def pick(rows):
        return rng.choice(list(rows))

    return pick


def all_fillings_of_small_skews(max_entry=3, cap=40):
    for s in small_skews():
        fillings = enumerate_ssyt(s, max_entry)
        yield from fillings[:cap]


def test_rectify_is_slide_order_independent():
    for t in all_fillings_of_small_skews():
        base = rectify(t)
        assert rectify(t, corner_picker=min) == base
        assert rectify(t, corner_picker=seeded_picker(7)) == base
        assert rectify(t, corner_picker=seeded_picker(99)) == base


def test_rectify_preserves_content_and_is_ssyt():
    for t in all_fillings_of_small_skews():
        r = rectify(t)
        assert r.inner == ()
        assert content(r) == content(t)
        tableau((r.outer, ()), r.rows)  # revalidates semistandardness


def test_rectify_matches_insertion_of_row_word():
    for t in all_fillings_of_small_skews():
        assert rectify(t) == insertion_tableau(row_word(t))


def test_rectify_frozen_example():
    assert rectify(parse_tableau(".1/12")).rows == ((1, 1), (2,))


def test_lr_fillings_frozen_examples():
    assert len(enumerate_lr_fillings(skew((2, 1), (1,)), (1, 1))) == 1
    assert len(enumerate_lr_fillings(skew((2, 2), (1,)), (2, 1))) == 1
    got = enumerate_lr_fillings(skew((2, 2), (1,)), (2, 1))[0]
    assert format_tableau(got) == ".1/12"


def test_ballot_fillings_reuse_one_list_in_reverse_numbering_order():
    s = skew((3, 2, 1), (2, 1))
    seen = []
    for vals, counts in ballot_fillings(s, (2, 1)):
        seen.append((vals, list(vals), counts, list(counts)))
    assert len({id(vals) for vals, _, _, _ in seen}) == 1
    assert len({id(counts) for _, _, counts, _ in seen}) == 1
    assert [copy for _, copy, _, _ in seen] == [reverse_word(t) for t in enumerate_lr_fillings(s, (2, 1))]
    assert [copy[1:] for _, _, _, copy in seen] == [[2, 1]] * len(seen)
    assert [(list(v), c[1:]) for v, c in ballot_fillings(skew((), ()), ())] == [([], [])]


def test_lr_fillings_weight_mismatch_rejected():
    for cont in ((1, 1), (2, 2)):
        with pytest.raises(ValueError):
            enumerate_lr_fillings(skew((2, 2), (1,)), cont)
    # the generator raises on its first step, not when it is called
    fillings = ballot_fillings(skew((2, 2), (1,)), (1, 1))
    with pytest.raises(ValueError):
        next(fillings)


def test_lr_fillings_rectify_to_superstandard():
    # the defining contract: every ballot filling straightens to the
    # superstandard tableau of its content
    for s in small_skews():
        for nu in enumerate_in_rectangle(3, 3, weight=size(s)):
            for t in enumerate_lr_fillings(s, nu):
                assert is_ballot(reverse_word(t))
                assert rectify(t) == superstandard(nu)


def test_lr_fillings_are_exactly_the_ballot_ssyt():
    for s in small_skews():
        for nu in enumerate_in_rectangle(3, 3, weight=size(s)):
            got = {t.rows for t in enumerate_lr_fillings(s, nu)}
            want = {
                t.rows
                for t in enumerate_ssyt(s, len(nu))
                if content(t) == nu and is_ballot(reverse_word(t))
            }
            assert got == want


def test_lr_fillings_emitted_in_reverse_word_lex_order():
    for s in small_skews():
        for nu in enumerate_in_rectangle(3, 3, weight=size(s)):
            words = [reverse_word(t) for t in enumerate_lr_fillings(s, nu)]
            assert words == sorted(words)


def test_first_row_of_ballot_filling_is_all_ones():
    for s in small_skews():
        for nu in enumerate_in_rectangle(3, 3, weight=size(s)):
            for t in enumerate_lr_fillings(s, nu):
                if t.rows and t.rows[0]:
                    assert set(t.rows[0]) == {1}


def test_characterization_against_product_count():
    # fillings of mu/lam with content nu match the tableaux T of shape
    # lam whose product with the superstandard of nu straightens to mu
    shapes = [m for m in enumerate_in_rectangle(3, 3) if sum(m) <= 6]
    for mu in shapes:
        for lam in enumerate_in_rectangle(3, 3):
            if not contains(lam, mu):
                continue
            for nu in enumerate_in_rectangle(3, 3, weight=sum(mu) - sum(lam)):
                direct = len(enumerate_lr_fillings(skew(mu, lam), nu))
                via_product = sum(
                    1
                    for t in enumerate_ssyt((lam, ()), len(mu) if mu else 1)
                    if product(t, superstandard(nu)) == superstandard(mu)
                )
                assert direct == via_product, (mu, lam, nu)
