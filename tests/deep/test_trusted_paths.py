"""The criteria that pass canonical shapes straight to lr's private cores,
checked exhaustively against the bodies they had when every layer
re-normalized its shapes (the oracles in tests/test_trust.py).  Run on
its own:

    PYTHONPATH=src python -m pytest -q tests/deep
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pytest  # noqa: E402

from schubcalc.cohomology import LeviShape, cup, dual_class_unitary, schubert_class  # noqa: E402
from schubcalc.partition import enumerate_in_rectangle  # noqa: E402
from schubcalc.shimura import (  # noqa: E402
    chern_action_nonzero,
    enumerate_pairs,
    injectivity_gsp,
    injectivity_unitary,
)
from test_lr import _block_tuples  # noqa: E402
from test_trust import (  # noqa: E402
    chern_action_nonzero_renormalizing,
    cup_renormalizing,
    dual_class_unitary_renormalizing,
    injectivity_gsp_renormalizing,
    injectivity_unitary_renormalizing,
    same_outcome,
)

SIDES = range(1, 5)


def _windows(flavor):
    if flavor == "unitary":
        return [(p, q) for p in SIDES for q in SIDES]
    return [(p, p) for p in SIDES]


@pytest.mark.parametrize("flavor", ["unitary", "symplectic", "orthogonal"])
def test_chern_action_on_every_pair_and_shape_up_to_4x4(flavor):
    # a square flavor refuses a shape that is not symmetric, as before
    for ambient in _windows(flavor):
        shapes = enumerate_in_rectangle(*ambient)
        for pair in enumerate_pairs(ambient, flavor):
            for nu in shapes:
                same_outcome(chern_action_nonzero, chern_action_nonzero_renormalizing, nu, pair)


def test_injectivity_unitary_on_every_pair_and_levi_up_to_4x4():
    for ambient in _windows("unitary"):
        levis = [LeviShape(rects) for rects in _block_tuples(*ambient, 2)]
        for pair in enumerate_pairs(ambient):
            for levi in levis:
                same_outcome(injectivity_unitary, injectivity_unitary_renormalizing, pair, levi)


def test_injectivity_unitary_on_every_pair_and_one_block_levi_with_a_side_of_5():
    # the windows up to 5x5 that the sweep above leaves out, each pair
    # with every Levi of one block
    cases = yes_5x5 = 0
    for ambient in [(p, q) for p in range(1, 6) for q in range(1, 6) if max(p, q) == 5]:
        levis = [LeviShape(rects) for rects in _block_tuples(*ambient, 1)]
        for pair in enumerate_pairs(ambient):
            for levi in levis:
                got = same_outcome(injectivity_unitary, injectivity_unitary_renormalizing, pair, levi)
                yes_5x5 += ambient == (5, 5) and got[1][0]
            cases += len(levis)
    assert cases == 157_500
    assert yes_5x5 == 3_908


def test_injectivity_unitary_on_every_5x5_pair_and_two_block_levi():
    # the size check and the support table kept for the run, against the
    # oracle, which builds every support and searches every complement;
    # the one-block Levis of 5x5 are in the sweep above
    levis = [LeviShape(rects) for rects in _block_tuples(5, 5, 2, least=2)]
    pairs = enumerate_pairs((5, 5))
    yes = 0
    for pair in pairs:
        for levi in levis:
            got = same_outcome(injectivity_unitary, injectivity_unitary_renormalizing, pair, levi)
            yes += got[1][0]
    assert len(pairs) * len(levis) == 340_200
    assert yes == 460


def test_injectivity_gsp_on_every_symplectic_pair_up_to_6x6():
    for p in range(1, 7):
        for pair in enumerate_pairs((p, p), "symplectic"):
            same_outcome(injectivity_gsp, injectivity_gsp_renormalizing, pair)


def test_cup_on_every_pair_of_classes_in_4x4():
    classes = [schubert_class((4, 4), lam) for lam in enumerate_in_rectangle(4, 4)]
    for x in classes:
        for y in classes:
            same_outcome(cup, cup_renormalizing, x, y)


def test_dual_class_unitary_on_every_levi_up_to_5x5():
    for p in range(1, 6):
        for q in range(1, 6):
            for rects in _block_tuples(p, q, 2):
                same_outcome(dual_class_unitary, dual_class_unitary_renormalizing, (p, q), LeviShape(rects))
