"""The pair counts of every window up to 8x8 against their closed forms,
two sizes above tier-1's test_pair_counts_match_closed_form, which stops
at 6 rows and columns; each count is read off the stream without keeping
a list.  Run on its own:

    PYTHONPATH=src python -m pytest -q tests/deep
"""

import math

import pytest

from schubcalc.shimura import FLAVORS, iter_pairs

SIDES = range(9)


def _count(ambient, flavor="unitary"):
    return sum(1 for _ in iter_pairs(ambient, flavor))


@pytest.mark.parametrize("p", SIDES)
def test_unitary_pair_counts_up_to_8x8(p):
    # mu has 1 + |mu| chains below it, and a window
    # sum(1 + |mu|) = C(p+q, p)(pq + 2)/2 pairs
    for q in SIDES:
        assert _count((p, q)) == math.comb(p + q, p) * (p * q + 2) // 2, (p, q)


@pytest.mark.parametrize("flavor", FLAVORS[1:])
def test_square_flavor_pair_counts_up_to_8x8(flavor):
    # 2^(p-1)(p + 2), written so that p = 0 stays an integer
    for p in SIDES:
        assert _count((p, p), flavor) == 2**p * (p + 2) // 2, (p, flavor)
