"""The closed forms that replaced a product, a listing and a scan,
against what they replaced, on every case up to a size tier-1 does not
reach: poincare_pair against the top coefficient of cup, count_components
against the length of enumerate_components, and partha_decomposition
against the scan of every a from ceil(n/q) to min(p, n).  Run on its own:

    PYTHONPATH=src python -m pytest -q tests/deep
"""

import random

import pytest

from schubcalc.cohomology import cohom_class, cup, poincare_pair, schubert_class
from schubcalc.partition import enumerate_in_rectangle, rect
from schubcalc.shimura import FLAVORS, count_components, enumerate_components, enumerate_pairs, partha_decomposition

WINDOWS = [(p, q) for p in range(1, 6) for q in range(1, 6)]


@pytest.mark.parametrize("ambient", WINDOWS, ids="{0[0]}x{0[1]}".format)
def test_poincare_pair_is_the_top_coefficient_of_cup(ambient):
    top = rect(*ambient)
    shapes = enumerate_in_rectangle(*ambient)
    basis = [schubert_class(ambient, lam) for lam in shapes]
    for x in basis:
        for y in basis:
            assert poincare_pair(x, y) == cup(x, y).coefficient(top)
    # classes of up to six terms, with negative and zero coefficients
    rng = random.Random(34)
    for _ in range(200):
        x, y = (
            cohom_class(ambient, {lam: rng.randint(-3, 3) for lam in rng.sample(shapes, min(6, len(shapes)))})
            for _ in range(2)
        )
        assert poincare_pair(x, y) == cup(x, y).coefficient(top)


def _cases():
    for flavor in FLAVORS:
        for p, q in WINDOWS:
            if flavor == "unitary" or p == q:
                yield flavor, (p, q)


@pytest.mark.parametrize("flavor, ambient", list(_cases()), ids=lambda v: v if isinstance(v, str) else "%dx%d" % v)
def test_count_components_is_the_length_of_the_listing(flavor, ambient):
    for pair in enumerate_pairs(ambient, flavor):
        comps = enumerate_components(pair)
        assert count_components(pair) == len(comps)
        present = {c.bidegree for c in comps} - {None}
        # every bidegree present, as a tuple, a list and with a float,
        # and ones no piece has: shifted off the diagonal, or 3 long
        for i, j in sorted(present) + [(-1, -1), (0, 1)]:
            want = sum(1 for c in comps if c.bidegree == (i, j))
            assert count_components(pair, (i, j)) == count_components(pair, [i, float(j)]) == want, (pair, i, j)
            assert count_components(pair, (i, j, 0)) == 0


def _partha_by_scan(ambient, degree):
    # partha_decomposition as it was before it scanned the shorter side
    # only: every a from ceil(n/q) to min(p, n) that divides n
    p, q = ambient
    if degree == p * q:
        return [(0, 0)]
    n = p * q - degree
    return [(a, n // a) for a in range(-(-n // q), min(p, n) + 1) if n % a == 0]


@pytest.mark.parametrize("p", range(25))
def test_partha_matches_the_scan_up_to_24x24(p):
    for q in range(25):
        for degree in range(p * q + 1):
            assert partha_decomposition((p, q), degree) == _partha_by_scan((p, q), degree), (p, q, degree)


def test_partha_answers_ten_million_shorter_sides():
    # the most the scan is allowed: s from 1 to isqrt(10^14) = 10^7, where
    # every one of the 225 divisors of 10^14 is the a of one window
    big, n = 10**20, 10**14
    divisors = sorted(2**i * 5**j for i in range(15) for j in range(15))
    assert partha_decomposition((big, big), big * big - n) == [(a, n // a) for a in divisors]
