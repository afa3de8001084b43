"""The split of a symmetric chain about the diagonal, read off the chain
by halving it, checked on every symmetric skew of each n x n window up to
8x8 against the run-mirroring oracle in tests/test_trust.py, together
with the transpose property the halving rests on.  Run on its own:

    PYTHONPATH=src python -m pytest -q tests/deep
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from schubcalc.partition import contains, enumerate_in_rectangle  # noqa: E402
from schubcalc.shimura import enumerate_pairs, levi_shape  # noqa: E402
from schubcalc.skew import SkewShape, rectangle_decomposition, symmetric_chain_split  # noqa: E402
from test_trust import levi_shape_mirroring, same_outcome, symmetric_chain_split_mirroring  # noqa: E402


def test_symmetric_chain_split_on_every_symmetric_skew_up_to_8x8():
    chains = 0
    for n in range(9):
        shapes = enumerate_in_rectangle(n, n, symmetric_only=True)
        for outer in shapes:
            for inner in shapes:
                if not contains(inner, outer):
                    continue
                s = SkewShape(outer, inner)
                same_outcome(symmetric_chain_split, symmetric_chain_split_mirroring, s)
                chain = rectangle_decomposition(s)
                if chain is not None:
                    # transposing s fixes it and takes block i to block n-1-i
                    assert chain == [(b, a) for a, b in reversed(chain)], s
                    chains += 1
    assert chains == 2304


def test_levi_shape_reads_every_square_pair_chain_up_to_8x8():
    for n in range(1, 9):
        for flavor in ("symplectic", "orthogonal"):
            for pair in enumerate_pairs((n, n), flavor):
                assert levi_shape(pair) == levi_shape_mirroring(pair), pair
