import math

import pytest
from hypothesis import given, strategies as st

from schubcalc.cohomology import schubert_class
from schubcalc.errors import NotSymmetric, ShapeOutOfBox
from schubcalc.partition import (
    bar_closure,
    check_reduction,
    complement,
    conjugate,
    contains,
    count_in_rectangle,
    diagonal_length,
    enumerate_in_rectangle,
    fits,
    format_partition,
    from_minus_part,
    from_plus_part,
    is_strict,
    is_symmetric,
    minus_part,
    parse_box,
    parse_partition,
    partition,
    plus_part,
    rect,
    sort_key,
    staircase,
)


def boxed_partitions(rows, cols):
    return st.sampled_from(enumerate_in_rectangle(rows, cols))


def test_canonicalization():
    assert partition([3, 2, 0, 0]) == (3, 2)
    assert partition(()) == ()
    with pytest.raises(ValueError):
        partition((1, 2))


def _partition_by_generator(parts):
    # The normalizer partition replaced, kept as an oracle: the same
    # checks over a tuple built by a generator expression.
    parts = tuple(int(x) for x in parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError("parts must be weakly decreasing: %r" % (parts,))
    if parts and parts[-1] < 0:
        raise ValueError("parts must be nonnegative: %r" % (parts,))
    return parts


def _outcome(fn, parts):
    try:
        return "ok", fn(parts)
    except Exception as exc:
        return type(exc), str(exc)


def test_partition_matches_generator_oracle():
    inputs = [
        [3, 2, 2],
        " 3",
        (5, 3, 0, 0),
        [0, 0],
        (),
        "",
        [2, -1],
        (-1,),
        [1, 2],
        ["3", "x"],
        ["3 1"],
        5,
        [2.0, 1.0],
    ]
    inputs += enumerate_in_rectangle(5, 5)
    inputs += [lam + (0,) for lam in enumerate_in_rectangle(5, 5)]
    for parts in inputs:
        assert _outcome(partition, parts) == _outcome(_partition_by_generator, parts), parts


def test_parts_that_are_not_integers_are_refused():
    # int() would truncate a fractional part and parse a string one
    for parts in (
        [2.5, 1.9],
        [2.0, 1.5],
        ["3", "1"],
        ["4", " 3", "1 "],
        "321",
        ["3", "5"],
        [None],
        [float("inf")],
        [float("-inf")],
        [float("nan")],
    ):
        with pytest.raises(ValueError):
            partition(parts)
    with pytest.raises(ValueError):
        schubert_class((4, 4), (2.5,))
    # an int, or a float of integer value, is still a part
    assert partition([2.0, 1, 0.0]) == (2, 1)
    assert parse_partition(" 5, 3,3 ,2") == (5, 3, 3, 2)


def test_parse_format_round_trip():
    assert parse_partition("5,3,3,2") == (5, 3, 3, 2)
    assert parse_partition("") == ()
    assert format_partition((5, 3, 3, 2)) == "5,3,3,2"
    assert format_partition(()) == ""
    assert parse_box("5x5") == (5, 5)
    with pytest.raises(ValueError):
        parse_box("5,5")


def test_conjugate_frozen_example():
    assert conjugate((5, 3, 3, 2)) == (4, 4, 3, 1, 1)


def _conjugate_by_column_counts(lam):
    # The definition conjugate replaced, kept as an oracle: column j's
    # length counts the parts of at least j.
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def test_conjugate_matches_column_counts_7x7():
    shapes = enumerate_in_rectangle(7, 7)
    assert len(shapes) == 3432
    for lam in shapes:
        assert conjugate(lam) == _conjugate_by_column_counts(lam), lam


def test_complement_frozen_example():
    assert complement((5, 3, 3, 2), 5, 5) == (5, 3, 2, 2)


def test_complement_requires_fit():
    with pytest.raises(ShapeOutOfBox):
        complement((5, 3, 3, 2), 3, 5)


@given(boxed_partitions(5, 5))
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


@given(boxed_partitions(4, 5))
def test_complement_involution(lam):
    assert complement(complement(lam, 4, 5), 4, 5) == lam


@given(boxed_partitions(4, 5))
def test_conjugate_commutes_with_complement(lam):
    # transposing the window swaps the two operations' order
    assert conjugate(complement(lam, 4, 5)) == complement(conjugate(lam), 5, 4)


def test_diagonal_maps_frozen_examples():
    assert plus_part((3, 1, 1)) == (3,)
    assert plus_part((2, 1)) == (2,)
    assert minus_part((3, 1, 1)) == (2,)
    assert minus_part((3, 2, 1)) == (2,)
    assert bar_closure((2, 1)) == (3, 1)
    assert bar_closure((1,)) == (2,)
    assert bar_closure((3, 2, 1)) == (4, 3, 1)
    assert check_reduction((3, 2, 1)) == (2, 1, 1)
    assert check_reduction((1,)) == ()
    assert check_reduction((2, 1)) == (1, 1)


def test_diagonal_maps_need_symmetry():
    for fn in (plus_part, minus_part, bar_closure, check_reduction):
        with pytest.raises(NotSymmetric):
            fn((3, 1))


def test_weight_identities_on_symmetric_shapes():
    # growing by the diagonal rows doubles the arm count; shrinking mirrors it
    for lam in enumerate_in_rectangle(5, 5, symmetric_only=True):
        grown = bar_closure(lam)
        shrunk = check_reduction(lam)
        assert sum(grown) == sum(lam) + diagonal_length(lam)
        assert sum(grown) == 2 * sum(plus_part(lam))
        assert sum(shrunk) == sum(lam) - diagonal_length(lam)
        assert sum(shrunk) == 2 * sum(minus_part(lam))


def test_plus_part_round_trip():
    for lam in enumerate_in_rectangle(5, 5, symmetric_only=True):
        strict = plus_part(lam)
        assert is_strict(strict)
        assert from_plus_part(strict) == lam


def test_minus_part_round_trip_counts_diagonal():
    # minus is not injective; the preimage with full diagonal inverts it
    for lam in enumerate_in_rectangle(5, 5, symmetric_only=True):
        strict = minus_part(lam)
        back = from_minus_part(strict)
        assert minus_part(back) == strict
        assert diagonal_length(back) == len(strict)
    assert from_minus_part((1,)) == (2, 1)
    assert from_minus_part((2,)) == (3, 1, 1)


def test_minus_part_collisions():
    assert minus_part((2, 1)) == minus_part((2, 2)) == (1,)


def test_enumeration_order_2x2():
    assert enumerate_in_rectangle(2, 2) == [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]


def test_enumeration_single_row_by_weight():
    for q in range(1, 6):
        for k in range(1, q + 1):
            assert enumerate_in_rectangle(1, q, weight=k) == [(k,)]


def test_enumeration_counts_match_closed_form():
    for a in range(5):
        for b in range(5):
            if a and b:
                assert len(enumerate_in_rectangle(a, b)) == count_in_rectangle(a, b)
            assert count_in_rectangle(a + 1, b + 1) == math.comb(a + b + 2, a + 1)


def test_enumeration_rejects_negative_sides():
    for rows, cols in ((-1, 2), (2, -1), (-1, -1)):
        with pytest.raises(ValueError):
            enumerate_in_rectangle(rows, cols)
    assert enumerate_in_rectangle(0, 3) == enumerate_in_rectangle(3, 0) == [()]


def _listed_by_recursion(rows, cols):
    # the recursive listing enumerate_in_rectangle used before it built
    # its shapes row by row, kept as an oracle
    def gen(maxpart, rowsleft):
        yield ()
        if rowsleft == 0:
            return
        for first in range(1, maxpart + 1):
            for tail in gen(first, rowsleft - 1):
                yield (first,) + tail

    return sorted(gen(cols, rows), key=sort_key)


def test_enumeration_matches_recursive_oracle_7x7():
    for rows in range(8):
        for cols in range(8):
            oracle = _listed_by_recursion(rows, cols)
            assert enumerate_in_rectangle(rows, cols) == oracle, (rows, cols)
            for w in range(rows * cols + 2):
                got = enumerate_in_rectangle(rows, cols, weight=w)
                assert got == [lam for lam in oracle if sum(lam) == w], (rows, cols, w)


def test_enumeration_lists_1100_rows():
    shapes = enumerate_in_rectangle(1100, 1)
    assert len(shapes) == 1101
    assert shapes[-1] == (1,) * 1100


def test_symmetric_count_3x3():
    assert len(enumerate_in_rectangle(3, 3, symmetric_only=True)) == 8


def test_symmetric_shapes_match_filter_oracle_7x7():
    # the oracle is the symmetric enumeration before it built the shapes
    # directly: every shape of the rectangle, filtered
    for rows in range(8):
        for cols in range(8):
            oracle = [lam for lam in enumerate_in_rectangle(rows, cols) if is_symmetric(lam)]
            got = enumerate_in_rectangle(rows, cols, symmetric_only=True)
            assert got == oracle, (rows, cols)
            assert len(got) == 2 ** min(rows, cols)
            for w in range(rows * cols + 2):
                got = enumerate_in_rectangle(rows, cols, weight=w, symmetric_only=True)
                assert got == [lam for lam in oracle if sum(lam) == w], (rows, cols, w)


@given(boxed_partitions(5, 5), boxed_partitions(5, 5))
def test_containment_is_cellwise(lam, mu):
    padded = mu + (0,) * len(lam)
    assert contains(lam, mu) == all(l <= m for l, m in zip(lam, padded))


def test_staircase_and_rect():
    assert staircase(3) == (3, 2, 1)
    assert staircase(0) == ()
    assert rect(2, 3) == (3, 3)
    assert fits(rect(2, 3), 2, 3)
    assert not fits(rect(2, 3), 1, 3)


def test_strict_iff_plus_image():
    # strict shapes are exactly the diagonal reductions of symmetric ones
    symmetric_images = {plus_part(l) for l in enumerate_in_rectangle(5, 5, symmetric_only=True)}
    strict_in_box = {l for l in enumerate_in_rectangle(5, 5) if is_strict(l)}
    assert symmetric_images == strict_in_box


def test_minus_images_are_bounded_strict():
    # in a p x p window the shrunk diagonals are the strict shapes at most p-1 wide
    p = 4
    images = {minus_part(l) for l in enumerate_in_rectangle(p, p, symmetric_only=True)}
    expected = {
        l
        for l in enumerate_in_rectangle(p, p)
        if is_strict(l) and (not l or l[0] <= p - 1)
    }
    assert images == expected


def test_self_conjugate_strict_pairs_are_staircases():
    for lam in enumerate_in_rectangle(5, 5):
        both = is_strict(lam) and is_strict(conjugate(lam))
        assert both == (lam == staircase(len(lam)))
