"""The row-state counter tableau.ballot_count against the ballot search
it replaced in lr._coefficient, sum(1 for _ in ballot_fillings(...)), on
every canonical coefficient key in the 5x5 box and on each of the four
orientations of the 34-40 cell coefficients of the lr-expand benchmark
workload.  Run on its own:

    PYTHONPATH=src python -m pytest -q tests/deep
"""

import pytest

from schubcalc import lr
from schubcalc.partition import contains, enumerate_in_rectangle
from schubcalc.skew import SkewShape
from schubcalc.tableau import ballot_count, ballot_fillings

BIG_LR = (
    ((10, 9, 8, 7, 6, 5, 4, 3, 2, 1), (5, 4, 3, 2, 1), (7, 7, 6, 5, 5, 4, 3, 2, 1), 1608),
    ((10, 9, 8, 7, 6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1), (7, 7, 6, 4, 4, 2, 2, 2), 5790),
    ((10, 9, 8, 7, 6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1), (8, 5, 5, 5, 4, 3, 2, 2), 4961),
    ((10, 9, 8, 7, 6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1), (7, 6, 6, 5, 5, 2, 1, 1, 1), 3888),
)


def _search(key):
    return sum(1 for _ in ballot_fillings(SkewShape(key.outer, key.inner), key.content))


def _canonical_keys(side):
    shapes = enumerate_in_rectangle(side, side)
    keys = set()
    for outer in shapes:
        for inner in shapes:
            if not contains(inner, outer):
                continue
            for content in enumerate_in_rectangle(side, side, weight=sum(outer) - sum(inner)):
                if contains(content, outer):
                    keys.add(lr._canonical_key(outer, inner, content))
    return sorted(keys)


def test_row_counter_matches_the_search_on_every_5x5_key():
    keys = _canonical_keys(5)
    assert len(keys) == 42321
    for key in keys:
        assert ballot_count(SkewShape(key.outer, key.inner), key.content) == _search(key), key


@pytest.mark.parametrize("outer, inner, content, value", BIG_LR)
def test_row_counter_matches_the_search_in_every_orientation(outer, inner, content, value):
    for key in lr._orientations(outer, inner, content):
        s = SkewShape(key.outer, key.inner)
        assert ballot_count(s, key.content) == _search(key) == value, key
