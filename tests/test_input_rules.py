"""The input rules each kept in one place: a shape fits its box, a
window side, rank, index or coefficient is an integer, a window side is
nonnegative, and a square flavor's pair window is small enough to list."""

import re
from fractions import Fraction

import pytest

from schubcalc.cohomology import (
    LeviShape,
    check_levi_square,
    check_levi_unitary,
    chern_q,
    chern_t,
    cohom_class,
    dual_class_gsp,
    dual_class_ostar,
    dual_class_unitary,
    restrict_symplectic_levi_support,
    schubert_class,
    tensor_class,
)
from schubcalc.errors import InputTooLarge, ShapeOutOfBox
from schubcalc.lr import expand_product, schur_expand
from schubcalc.partition import complement, count_in_rectangle, enumerate_in_rectangle, partition
from schubcalc.shimura import (
    arthur_cover,
    enumerate_pairs,
    fat_hook,
    fat_hook_labels,
    gsp_holomorphic,
    gsp_stable_criterion,
    injectivity_holomorphic_u,
    iter_pairs,
    low_degree_bound,
    make_pair,
    ostar_holomorphic_components,
    partha_decomposition,
    symmetric_fat_hook,
    vanishing_criterion,
)


# each caller of the box rule, with the shape it refuses
OUT_OF_BOX = {
    "complement": (lambda: complement((3,), 2, 2), (3,)),
    "cohom_class": (lambda: cohom_class((2, 2), {(3,): 1}), (3,)),
    "schubert_class": (lambda: schubert_class((2, 2), [3]), (3,)),
    "tensor_class": (lambda: tensor_class(((1, 1), (2, 2)), {((), (3,)): 1}), (3,)),
    "restrict_support": (lambda: restrict_symplectic_levi_support((3, 2, 1), LeviShape((), 0), 2), (3, 2, 1)),
    "make_pair": (lambda: make_pair((), (3,), (2, 2)), (3,)),
}


@pytest.mark.parametrize("name", OUT_OF_BOX)
def test_a_shape_outside_its_box_reads_the_same_everywhere(name):
    call, shape = OUT_OF_BOX[name]
    with pytest.raises(ShapeOutOfBox, match="^%s$" % re.escape("%r does not fit in 2x2" % (shape,))):
        call()


@pytest.mark.parametrize(
    "call, window",
    [
        # the degree fits the other side, but a window with no columns or
        # no rows holds neither a column nor a row of one cell
        (lambda: chern_t((3, 0), 1), "3x0"),
        (lambda: chern_q((0, 3), 1), "0x3"),
    ],
    ids=["chern_t", "chern_q"],
)
def test_a_chern_class_outside_a_window_with_a_side_of_0_is_refused(call, window):
    with pytest.raises(ShapeOutOfBox, match="^%s$" % re.escape("(1,) does not fit in " + window)):
        call()


def test_coefficients_and_parts_keep_one_integer_rule():
    x = cohom_class((2, 2), {(1,): Fraction(2)})
    assert x.terms == {(1,): 2} and type(x.terms[(1,)]) is int
    assert partition((Fraction(2),)) == (2,) and type(partition((Fraction(2),))[0]) is int
    nan = float("nan")
    with pytest.raises(ValueError, match="^coefficients must be integers"):
        cohom_class((2, 2), {(1,): nan})
    with pytest.raises(ValueError, match="^parts must be integers"):
        partition((nan,))


# a window side, rank, index or degree of 1.5, 2.5 or 3.5, where it enters
NON_INTEGER = {
    "schubert_class": lambda: schubert_class((3.5, 3), (1,)),
    "make_pair": lambda: make_pair((1,), (2,), (2.5, 3)),
    "restrict_support": lambda: restrict_symplectic_levi_support((1,), LeviShape((), 1), 3.5),
    "gsp_holomorphic": lambda: gsp_holomorphic(3, 1.5, [2, 1]),
    "symmetric_fat_hook": lambda: symmetric_fat_hook(3, 1.5),
    "fat_hook": lambda: fat_hook((3, 3), 1.5, 1),
    "chern_t": lambda: chern_t((3, 3), 1.5),
    "dual_class_gsp": lambda: dual_class_gsp(2.5),
    "enumerate_pairs": lambda: enumerate_pairs((2.5, 2)),
    "cohom_class": lambda: cohom_class((3.5, 3), {(1,): 1}),
    "tensor_class": lambda: tensor_class(((1.5, 2),), {((1,),): 1}),
    "dual_class_ostar": lambda: dual_class_ostar(2.5),
    "injectivity_holomorphic_u": lambda: injectivity_holomorphic_u((3, 3), 1.5, 0, LeviShape(((1, 1),))),
    "ostar_holomorphic_components": lambda: ostar_holomorphic_components(2.5),
    "arthur_cover": lambda: arthur_cover((2.5, 2), 1),
    "arthur_cover_degree": lambda: arthur_cover((2, 2), 1.5),
    "partha_decomposition": lambda: partha_decomposition((2, 2), 1.5),
    "low_degree_bound": lambda: low_degree_bound((2.5, 2)),
    "fat_hook_labels": lambda: fat_hook_labels((2.5, 2)),
    "vanishing_criterion": lambda: vanishing_criterion(make_pair((1, 1), (3, 3, 1), (3, 3)), 1.5, "Q"),
    "check_levi_square": lambda: check_levi_square(2.5, LeviShape((), 1)),
    "gsp_stable_criterion": lambda: gsp_stable_criterion((1,), (2, 1), 2.5),
    "chern_q": lambda: chern_q((3, 3), 1.5),
    "dual_class_unitary": lambda: dual_class_unitary((2.5, 3), LeviShape(((1, 1),))),
    "schur_expand": lambda: schur_expand((1,), (1,), (2, 2.5)),
    "expand_product": lambda: expand_product([(1,)], (2.5, 2)),
    "enumerate_in_rectangle": lambda: enumerate_in_rectangle(2.5, 2),
    "count_in_rectangle": lambda: count_in_rectangle(2.5, 2),
}


@pytest.mark.parametrize("name", NON_INTEGER)
def test_a_non_integer_window_rank_or_index_is_refused(name):
    with pytest.raises(ValueError, match="must be integers"):
        NON_INTEGER[name]()


# every entry point that takes a window or box, given a negative side
NEGATIVE_WINDOW = {
    "make_pair": lambda w: make_pair((), (), w),
    "iter_pairs": iter_pairs,
    "fat_hook": lambda w: fat_hook(w, 0, 0),
    "fat_hook_labels": fat_hook_labels,
    "injectivity_holomorphic_u": lambda w: injectivity_holomorphic_u(w, 0, 0, LeviShape(())),
    "low_degree_bound": low_degree_bound,
    "arthur_cover": lambda w: arthur_cover(w, 0),
    "partha_decomposition": lambda w: partha_decomposition(w, 0),
    "cohom_class": lambda w: cohom_class(w, {(): 1}),
    "schubert_class": lambda w: schubert_class(w, ()),
    "tensor_class": lambda w: tensor_class((w,), {((),): 1}),
    "chern_t": lambda w: chern_t(w, 1),
    "chern_q": lambda w: chern_q(w, 1),
    "check_levi_unitary": lambda w: check_levi_unitary(w, LeviShape(())),
    "dual_class_unitary": lambda w: dual_class_unitary(w, LeviShape(())),
    "enumerate_in_rectangle": lambda w: enumerate_in_rectangle(*w),
    "count_in_rectangle": lambda w: count_in_rectangle(*w),
    "schur_expand": lambda w: schur_expand((), (), w),
    "expand_product": lambda w: expand_product([], w),
}


@pytest.mark.parametrize("name", NEGATIVE_WINDOW)
@pytest.mark.parametrize("window", [(-1, 2), (2, -1)])
def test_a_negative_window_side_is_refused_everywhere(name, window):
    want = "window sides must be nonnegative: %dx%d" % window
    with pytest.raises(ValueError, match="^%s$" % re.escape(want)):
        NEGATIVE_WINDOW[name](window)


@pytest.mark.parametrize("flavor", ["symplectic", "orthogonal"])
def test_square_flavor_windows_over_side_15_are_refused_on_the_first_read(flavor):
    # a 16 x 16 window holds 589,824 square-flavor pairs, more than the
    # 406,351 of the 900 x 1 window; nothing of it is listed
    with pytest.raises(InputTooLarge):
        next(iter_pairs((16, 16), flavor))
