"""The paper's closed form for fat-hook pairs, injectivity_holomorphic_u,
against the search injectivity_unitary, in every window up to 5x5.
Tier-1 compares them only up to 3x3 and two blocks
(test_criterion_07_holomorphic_closed_form_matches_pipeline).  Run on
its own:

    PYTHONPATH=src python -m pytest -q tests/deep
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from schubcalc.cohomology import LeviShape  # noqa: E402
from schubcalc.partition import rect  # noqa: E402
from schubcalc.shimura import (  # noqa: E402
    fat_hook,
    fat_hook_labels,
    injectivity_holomorphic_u,
    injectivity_unitary,
    make_pair,
)
from test_lr import _block_tuples  # noqa: E402

WINDOWS = [(p, q) for p in range(1, 6) for q in range(1, 6)]


def test_closed_form_matches_the_search_on_every_fat_hook_pair_up_to_5x5():
    # every fat-hook pair and every Levi of one to three blocks; the two
    # corners tier-1 excludes, the empty hook and the Levi that is the
    # whole window, make the search succeed trivially, so they are only
    # checked to do so
    failures = []
    cases = corners = 0
    for amb in WINDOWS:
        full = rect(*amb)
        for rects in _block_tuples(*amb, 3):
            levi = LeviShape(rects)
            for r, s in fat_hook_labels(amb):
                ok, _ = injectivity_unitary(make_pair(fat_hook(amb, r, s), full, amb), levi)
                if (r, s) == (0, 0) or rects == (amb,):
                    corners += 1
                    if not ok:
                        failures.append(("corner", amb, rects, r, s))
                    continue
                cases += 1
                if ok != injectivity_holomorphic_u(amb, r, s, levi):
                    failures.append((amb, rects, r, s, ok))
    assert (cases, corners) == (14786, 1075)
    assert failures == []
