"""The pair counts of every window against their closed forms, above
tier-1's test_pair_counts_match_closed_form, which stops at 6 rows and
columns: every unitary window up to 8x8 and every square-flavor window up
to side 15, the largest one iter_pairs answers.  Each count is read off
the stream without keeping a list.  The square flavors' lam are built
straight from mu's diagonal rows, so their pairs are also checked against
the chains walked below each mu (tests/test_shimura.py::_walk_and_rank)
and their listings against pinned bytes.  Run on its own:

    PYTHONPATH=src python -m pytest -q tests/deep
"""

import hashlib
import math
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pytest  # noqa: E402

from schubcalc.cli import main  # noqa: E402
from schubcalc.partition import diagonal_length, enumerate_in_rectangle  # noqa: E402
from schubcalc.shimura import FLAVORS, iter_pairs  # noqa: E402
from test_shimura import _walk_and_rank  # noqa: E402

SIDES = range(9)
SQUARE_FLAVORS = FLAVORS[1:]


def _count(ambient, flavor="unitary"):
    return sum(1 for _ in iter_pairs(ambient, flavor))


@pytest.mark.parametrize("p", SIDES)
def test_unitary_pair_counts_up_to_8x8(p):
    # mu has 1 + |mu| chains below it, and a window
    # sum(1 + |mu|) = C(p+q, p)(pq + 2)/2 pairs
    for q in SIDES:
        assert _count((p, q)) == math.comb(p + q, p) * (p * q + 2) // 2, (p, q)


@pytest.mark.parametrize("flavor", SQUARE_FLAVORS)
def test_square_flavor_pair_counts_up_to_side_15(flavor):
    # 2^(p-1)(p + 2), written so that p = 0 stays an integer
    for p in range(16):
        assert _count((p, p), flavor) == 2**p * (p + 2) // 2, (p, flavor)


@pytest.mark.parametrize("flavor", SQUARE_FLAVORS)
def test_each_symmetric_mu_has_one_lam_per_diagonal_cell_and_itself(flavor):
    for p in range(11):
        per_mu = Counter(pair.mu for pair in iter_pairs((p, p), flavor))
        shapes = enumerate_in_rectangle(p, p, symmetric_only=True)
        assert per_mu == {mu: diagonal_length(mu) + 1 for mu in shapes}, (p, flavor)


@pytest.mark.parametrize("flavor", SQUARE_FLAVORS)
def test_square_flavor_pairs_match_walk_and_rank_up_to_side_12(flavor):
    for p in range(13):
        assert list(iter_pairs((p, p), flavor)) == _walk_and_rank((p, p), flavor), (p, flavor)


# bytes and SHA-256 of `schubcalc shimura pairs --type FLAVOR --p n --q n`,
# the same for both square flavors
SQUARE_LISTINGS = {
    12: (2005988, "3cfaf3912dc93b35b6dff7d594a0c61149797a7a1fe8f5a78e90926a59fda050"),
    15: (24426479, "57b598ab744a970e6c9c4a0337da59e1029148432dd19f19f2fadd8caa956015"),
}


@pytest.mark.parametrize("flavor", SQUARE_FLAVORS)
@pytest.mark.parametrize("side", sorted(SQUARE_LISTINGS))
def test_square_flavor_listing_bytes(capsysbinary, side, flavor):
    assert main(["shimura", "pairs", "--type", flavor, "--p", str(side), "--q", str(side)]) == 0
    out = capsysbinary.readouterr().out
    assert (len(out), hashlib.sha256(out).hexdigest()) == SQUARE_LISTINGS[side]
