import itertools
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from schubcalc.errors import ShapeNotSymmetric
from schubcalc.partition import conjugate, contains, enumerate_in_rectangle, rect
from schubcalc.skew import (
    SkewShape,
    _padded_inner,
    cells,
    concat,
    conjugate_skew,
    format_skew,
    is_chain,
    parse_skew,
    rectangle_decomposition,
    reverse_numbering,
    size,
    skew,
    symmetric_chain_split,
)


def all_skews(rows, cols):
    shapes = enumerate_in_rectangle(rows, cols)
    return [
        skew(mu, lam) for mu in shapes for lam in shapes if contains(lam, mu)
    ]


def test_cells_frozen_example():
    assert cells(skew((2, 1), (1,))) == [(1, 2), (2, 1)]


def test_parse_and_format():
    s = parse_skew("2,2/1")
    assert s == SkewShape((2, 2), (1,))
    assert format_skew(s) == "2,2/1"
    assert parse_skew("2,1") == SkewShape((2, 1), ())
    with pytest.raises(ValueError):
        parse_skew("1/2")


def test_decomposition_frozen_examples():
    assert rectangle_decomposition(skew((8, 8, 8, 4, 4, 2), (4, 4, 4, 2, 2))) == [
        (3, 4),
        (2, 2),
        (1, 2),
    ]
    assert size(skew((8, 8, 8, 4, 4, 2), (4, 4, 4, 2, 2))) == 18
    assert rectangle_decomposition(skew((2, 1), ())) is None
    assert rectangle_decomposition(skew((2, 2), (1,))) is None
    assert rectangle_decomposition(skew((2, 2), (2, 2))) == []


def test_concat_frozen_examples():
    assert concat([(2,), (2,)]) == SkewShape((4, 2), (2,))
    assert concat([(1,), (1,)]) == SkewShape((2, 1), (1,))
    assert concat([]) == SkewShape((), ())


def test_concat_reads_back_rectangles():
    # chains decompose back to their factors exactly when all factors are rectangles
    factor_pool = [(2,), (1, 1), (2, 2), (2, 1), (3,)]
    for k in (1, 2, 3):
        for factors in itertools.product(factor_pool, repeat=k):
            s = concat(factors)
            chain = rectangle_decomposition(s)
            rectangular = all(len(set(f)) == 1 for f in factors)
            if rectangular:
                assert chain == [(len(f), f[0]) for f in factors]
            else:
                assert chain is None


def test_reverse_numbering_frozen_example():
    assert reverse_numbering(skew((5, 4, 3, 2), (3, 3, 1))) == [
        (1, 5),
        (1, 4),
        (2, 4),
        (3, 3),
        (3, 2),
        (4, 2),
        (4, 1),
    ]


def test_reverse_numbering_is_a_bijection():
    for s in all_skews(3, 3):
        seq = reverse_numbering(s)
        assert sorted(seq) == sorted(cells(s))
        assert len(set(seq)) == len(seq) == size(s)


def test_chain_tiling_is_exact():
    # the chain cells tile the skew: sizes add up and blocks are disjoint
    for s in all_skews(4, 4):
        chain = rectangle_decomposition(s)
        if chain is None:
            continue
        assert sum(a * b for a, b in chain) == size(s)


def test_compatibility_is_conjugation_invariant():
    # transposing keeps chains chains; blocks transpose and the reading
    # order flips since the top-right block lands at the bottom left
    for s in all_skews(4, 4):
        chain = rectangle_decomposition(s)
        flipped = rectangle_decomposition(conjugate_skew(s))
        if chain is None:
            assert flipped is None
        else:
            assert flipped == [(b, a) for a, b in reversed(chain)]


class _Run(NamedTuple):
    top: int
    bottom: int
    lo: int  # columns occupied are lo+1 .. hi
    hi: int


def _runs_by_row_extension(s):
    # The run builder that extended the last run once per row, kept as
    # an oracle: _Run records of the blocks, or None for a non-chain.
    pad = _padded_inner(s)
    rows = [
        (i, pad[i - 1], s.outer[i - 1])
        for i in range(1, len(s.outer) + 1)
        if s.outer[i - 1] > pad[i - 1]
    ]
    runs = []
    prev_i = None
    for i, lo, hi in rows:
        if prev_i is not None and i != prev_i + 1:
            return None
        prev_i = i
        if runs and runs[-1].bottom == i - 1 and (runs[-1].lo, runs[-1].hi) == (lo, hi):
            runs[-1] = runs[-1]._replace(bottom=i)
        else:
            runs.append(_Run(i, i, lo, hi))
    for a, b in zip(runs, runs[1:]):
        if b.hi != a.lo:
            return None
    return runs


def test_runs_match_row_extension_oracle_5x5():
    # the one-pass reader against the oracle's blocks on every 5x5 skew
    skews = all_skews(5, 5)
    chains = 0
    for s in skews:
        want = _runs_by_row_extension(s)
        if want is not None:
            want = [(r.bottom - r.top + 1, r.hi - r.lo) for r in want]
            chains += 1
        assert rectangle_decomposition(s) == want, s
    # chains and non-chains alike
    assert 0 < chains < len(skews)


def test_empty_skew_is_a_chain():
    assert is_chain(skew((2, 1), (2, 1)))
    assert rectangle_decomposition(skew((), ())) == []


@given(st.lists(st.sampled_from([(2,), (1, 1), (2, 2), (1,), (3, 3)]), max_size=3))
def test_concat_size_is_factor_sum(factors):
    assert size(concat(factors)) == sum(sum(f) for f in factors)


def test_symmetric_split_center_only():
    assert symmetric_chain_split(concat([(1,)])) == (1, [])
    assert symmetric_chain_split(concat([(2, 2)])) == (2, [])
    assert symmetric_chain_split(skew(rect(3, 3), ())) == (3, [])


def test_symmetric_split_with_flanks():
    # one 1x2 flank above the diagonal, its mirror below, 2x2 center
    s = concat([(2,), (2, 2), (1, 1)])
    assert s == SkewShape((5, 3, 3, 1, 1), (3, 1, 1))
    assert symmetric_chain_split(s) == (2, [(1, 2)])
    # no diagonal block at all
    assert symmetric_chain_split(concat([(1,), (1,)])) == (0, [(1, 1)])


def test_symmetric_split_rejects_asymmetric():
    with pytest.raises(ShapeNotSymmetric):
        symmetric_chain_split(skew((2,), ()))


def test_concat_placement_independence():
    # sliding a factor farther away must not change sizes or cell counts
    # of the blocks; compare against a manually separated placement
    s = concat([(2,), (2,)])
    apart = skew((5, 2), (3,))  # same two 1x2 blocks, no corner contact
    assert size(s) == size(apart)
    assert rectangle_decomposition(s) == [(1, 2), (1, 2)]
    assert rectangle_decomposition(apart) is None
