"""Exhaustive versions of tier-1's sampled checks, kept out of the
tier-1 run (pyproject.toml's norecursedirs) and run on their own:

    PYTHONPATH=src python -m pytest -q tests/deep

The oracles are tier-1's own, imported from tests/test_lr.py.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import schubcalc.lr as lr_mod  # noqa: E402
from schubcalc.partition import enumerate_in_rectangle, sort_key  # noqa: E402
from schubcalc.skew import size  # noqa: E402
from schubcalc.tableau import ballot_fillings  # noqa: E402
from test_lr import (  # noqa: E402
    _block_tuples,
    _coproduct_recursive,
    _split_rest_recursive,
    cold_memo,  # noqa: F401 (a fixture)
)

# every 5x5 class and every Levi of one to three blocks
CASES = [(lam, rects) for rects in _block_tuples(5, 5, 3) for lam in enumerate_in_rectangle(5, 5)]


def test_coproduct_sweep_searches_5x5(monkeypatch, cold_memo):  # noqa: F811
    # the whole sweep on one memo runs 26,779 ballot searches, none of
    # them over a skew with no cells or with no inner shape
    searched = []

    def counting(s, caps):
        searched.append(s)
        return ballot_fillings(s, caps)

    monkeypatch.setattr(lr_mod, "ballot_fillings", counting)
    assert len(CASES) == 56700
    for lam, rects in CASES:
        lr_mod._coproduct(lam, (), rects)
    assert len(searched) == 26779
    assert all(any(s.inner) and size(s) for s in searched)


def test_coproduct_matches_recursive_oracle_5x5(cold_memo):  # noqa: F811
    # terms in order, and each case's skew lam/alpha split over the
    # blocks after the first
    for lam, rects in CASES:
        want = list(_coproduct_recursive(lam, rects).items())
        assert list(lr_mod._coproduct(lam, (), rects).items()) == want, (lam, rects)
        alpha = lam[: rects[0][0]]
        splits = sorted(_split_rest_recursive(lam, alpha, rects[1:]), key=lambda g: tuple(map(sort_key, g)))
        assert list(lr_mod._coproduct(lam, alpha, rects[1:])) == splits, (lam, rects)
