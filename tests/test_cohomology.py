import copy
import dataclasses
import math
import pickle
import random
import types

import pytest

from schubcalc.cohomology import (
    CohomClass,
    IsotropicClass,
    LeviShape,
    TensorClass,
    chern_q,
    chern_t,
    cohom_class,
    cup,
    cup_tensor,
    dual_class_gsp,
    dual_class_ostar,
    dual_class_unitary,
    poincare_pair,
    restrict_levi,
    restrict_symplectic_levi_support,
    restrict_to_lagrangian,
    restrict_to_orthogonal,
    schubert_class,
    tensor_class,
    unit,
    _normalize_terms,
    _require_square,
)
from schubcalc.errors import (
    AmbientMismatch,
    AmbientNotSquare,
    DegreeOutOfRange,
    LeviDoesNotFit,
    ShapeNotSymmetric,
    ShapeOutOfBox,
)
from schubcalc.lr import inscribes_symmetric
from schubcalc.partition import (
    complement,
    conjugate,
    contains,
    enumerate_in_rectangle,
    from_plus_part,
    is_strict,
    is_symmetric,
    minus_part,
    plus_part,
    rect,
    sort_key,
    staircase,
    weight,
)
from schubcalc.skew import skew, symmetric_chain_split
from schubcalc.errors import IncompatiblePair


def test_class_normalization():
    x = cohom_class((2, 2), {(1,): 2, (2,): 0})
    assert x.terms == {(1,): 2}
    assert x.coefficient((1,)) == 2 and x.coefficient((2,)) == 0
    t = tensor_class(((2, 2), (2, 2)), {((1,), ()): 3})
    assert t.coefficient([[1], []]) == 3 and t.coefficient([[], [1]]) == 0
    iso = IsotropicClass(2, "lagrangian", {(1,): 1})
    assert iso.coefficient([1]) == 1 and iso.coefficient([2, 1]) == 0
    assert x == cohom_class((2, 2), {(1,): 2})
    assert x != cohom_class((2, 3), {(1,): 2})
    with pytest.raises(ShapeOutOfBox):
        cohom_class((2, 2), {(3,): 1})


@pytest.mark.parametrize("coeff", [0.5, -1.5, float("nan"), float("inf"), "1", None])
def test_constructors_refuse_a_coefficient_that_is_not_an_integer(coeff):
    # int() would have kept 0.5 as a zero-valued term
    with pytest.raises(ValueError, match="coefficients must be integers"):
        cohom_class((4, 4), {(1,): coeff})
    with pytest.raises(ValueError, match="coefficients must be integers"):
        tensor_class(((2, 2), (2, 2)), {((1,), ()): 1, ((), (1,)): coeff})


def test_constructors_store_integer_coefficients_as_ints():
    x = cohom_class((4, 4), {(1,): 2.0, (2,): -0.0, (): True})
    assert x.terms == {(): 1, (1,): 2} and all(type(c) is int for c in x.terms.values())
    t = tensor_class(((2, 2),), {((1,),): 3.0})
    assert t.terms == {((1,),): 3} and type(t.terms[((1,),)]) is int


def test_no_result_holds_a_zero_valued_term():
    # a class built by hand against the int rule: what int() rounds to
    # zero drops out instead of staying as a zero term
    amb, levi = (4, 4), LeviShape(((2, 2), (2, 2)))
    half = CohomClass(amb, {(1,): 0.5})
    assert cup(half, schubert_class(amb, (1,))).terms == {}
    x = CohomClass(amb, {(1,): 0.5, (2,): 1})
    assert restrict_levi(x, levi) == restrict_levi(schubert_class(amb, (2,)), levi)
    y = TensorClass(levi.rects, {((1,), ()): 0.5})
    assert cup_tensor(y, restrict_levi(unit(amb), levi)).terms == {}
    assert _normalize_terms({(1,): 0.9, (2,): -0.5, (): 3}, lambda kv: kv[0]) == {(): 3}


@pytest.mark.parametrize(
    "make, amb, other_amb",
    [
        (CohomClass, (2, 2), (2, 3)),
        (lambda amb, terms: TensorClass(amb, {(k,): c for k, c in terms.items()}), ((2, 2),), ((2, 3),)),
        (lambda amb, terms: IsotropicClass(amb, "lagrangian", terms), 2, 3),
    ],
)
def test_class_equality_is_by_value(make, amb, other_amb):
    x = make(amb, {(1,): 2})
    assert x == make(amb, {(1,): 2})
    assert x != make(other_amb, {(1,): 2})
    assert x != make(amb, {(1,): 3})
    assert x != make(amb, {(2,): 2})
    assert x != x.terms
    with pytest.raises(TypeError):
        hash(x)


# (value, its fields in order, its repr) for each value type here
_VALUES = [
    (CohomClass((2, 2), {(1,): 2}), ("ambient", "terms"), "CohomClass(ambient=(2, 2), terms={(1,): 2})"),
    (TensorClass(((2, 2),), {((1,),): 1}), ("factors", "terms"), "TensorClass(factors=((2, 2),), terms={((1,),): 1})"),
    (
        IsotropicClass(2, "lagrangian", {(1,): 1}),
        ("rank", "flavor", "terms"),
        "IsotropicClass(rank=2, flavor='lagrangian', terms={(1,): 1})",
    ),
    (LeviShape(((2, 2),)), ("rects", "center"), "LeviShape(rects=((2, 2),), center=None)"),
    (LeviShape(((1, 1),), 2), ("rects", "center"), "LeviShape(rects=((1, 1),), center=2)"),
]
_VALUE_IDS = ["cohom", "tensor", "isotropic", "levi", "levi-center"]


def check_value_type(x, fields, text):
    """The contract every value type keeps: read-only fields, equality by
    class and fields, hashing of hashable fields, a fixed repr, and
    pickle and copy round trips."""
    values = [getattr(x, f) for f in fields]
    for name, value in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is value
    same = type(x)(*values)
    assert x == same and not x != same
    for i in range(len(values)):
        assert x != type(x)(*values[:i], object(), *values[i + 1 :])
    # a subclass, and an unrelated class, with the same fields
    twin = type(type(x).__name__, (type(x),), {})(*values)
    assert x != twin and twin != x
    assert x != types.SimpleNamespace(**dict(zip(fields, values)))
    assert x != tuple(values) and tuple(values) != x
    if "terms" in fields:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(same)
    assert repr(x) == text
    assert type(x).__match_args__ == fields
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(x, protocol))
        assert type(back) is type(x) and back == x
    shallow, deep = copy.copy(x), copy.deepcopy(x)
    assert type(shallow) is type(deep) is type(x)
    assert all(getattr(shallow, f) is v for f, v in zip(fields, values))
    assert deep == x
    if "terms" in fields:
        assert deep.terms is not x.terms


@pytest.mark.parametrize("x, fields, text", _VALUES, ids=_VALUE_IDS)
def test_value_type_contract(x, fields, text):
    check_value_type(x, fields, text)


@pytest.mark.parametrize("x, fields, text", _VALUES, ids=_VALUE_IDS)
def test_value_types_are_plain_slotted_classes(x, fields, text):
    assert not isinstance(x, tuple)
    assert not dataclasses.is_dataclass(x)


def test_value_types_take_keywords_and_defaults():
    assert CohomClass(ambient=(2, 2), terms={(1,): 2}) == CohomClass((2, 2), {(1,): 2})
    assert TensorClass(factors=((2, 2),), terms={((1,),): 1}) == TensorClass(((2, 2),), {((1,),): 1})
    assert IsotropicClass(rank=2, flavor="orthogonal", terms={(1,): 1}) == IsotropicClass(2, "orthogonal", {(1,): 1})
    assert LeviShape(rects=((2, 2),), center=1) == LeviShape(((2, 2),), 1)
    assert LeviShape(((2, 2),)).center is None
    assert LeviShape(rects=((2, 2),)) == LeviShape(((2, 2),), None)
    # an omitted terms is a fresh empty dict per instance
    for make in (lambda: CohomClass((2, 2)), lambda: TensorClass(factors=((2, 2),)), lambda: IsotropicClass(2, "orthogonal")):
        a, b = make(), make()
        assert a.terms == {} and a.terms is not b.terms
        assert a == b
    with pytest.raises(TypeError):
        CohomClass()
    with pytest.raises(TypeError):
        LeviShape(((2, 2),), None, 1)
    with pytest.raises(TypeError):
        LeviShape(((2, 2),), rect=1)


def test_cup_frozen_examples():
    two = (2, 2)
    c1 = schubert_class(two, (1,))
    assert cup(c1, c1) == cohom_class(two, {(2,): 1, (1, 1): 1})
    # a 1 x q window kills any product of top-degree with more
    q = 3
    assert cup(schubert_class((1, q), (q,)), schubert_class((1, q), (1,))).terms == {}
    with pytest.raises(AmbientMismatch):
        cup(c1, schubert_class((2, 3), (1,)))


def test_cup_duality_2x3():
    amb = (2, 3)
    full = schubert_class(amb, rect(*amb))
    for nu in enumerate_in_rectangle(*amb):
        pair = cup(schubert_class(amb, nu), schubert_class(amb, complement(nu, *amb)))
        assert pair == full


def test_cup_unit_commutative_associative():
    amb = (3, 3)
    shapes = enumerate_in_rectangle(*amb)
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (schubert_class(amb, rng.choice(shapes)) for _ in range(3))
        assert cup(a, b) == cup(b, a)
        assert cup(cup(a, b), c) == cup(a, cup(b, c))
        assert cup(unit(amb), a) == a


def test_cup_grading():
    amb = (3, 3)
    shapes = enumerate_in_rectangle(*amb)
    for lam in shapes:
        for nu in shapes:
            prod = cup(schubert_class(amb, lam), schubert_class(amb, nu))
            for mu in prod.terms:
                assert weight(mu) == weight(lam) + weight(nu)


def test_chern_classes():
    amb = (2, 3)
    assert chern_t(amb, 1) == schubert_class(amb, (1,))
    assert chern_t(amb, 2) == schubert_class(amb, (1, 1))
    assert chern_q(amb, 1) == schubert_class(amb, (1,))
    assert chern_q(amb, 3) == schubert_class(amb, (3,))
    assert chern_q((2, 2), 2) == schubert_class((2, 2), (2,))
    for bad in (0, 3):
        with pytest.raises(DegreeOutOfRange):
            chern_t(amb, bad)
    with pytest.raises(DegreeOutOfRange):
        chern_q(amb, 4)


def test_whitney_splitting():
    # restriction sends a chern class to the sum over ways of sharing
    # its degree between the two factors
    amb = (2, 3)
    levi = LeviShape(rects=((1, 1), (1, 2)))
    for k in (1, 2):
        want = {}
        for a in range(k + 1):
            b = k - a
            if a <= 1 and b <= 1:
                want[((1,) * a, (1,) * b)] = 1
        assert restrict_levi(chern_t(amb, k), levi) == tensor_class(
            levi.rects, want
        )
    for k in (1, 2, 3):
        want = {}
        for a in range(k + 1):
            b = k - a
            if a <= 1 and b <= 2:
                want[((a,) if a else (), (b,) if b else ())] = 1
        assert restrict_levi(chern_q(amb, k), levi) == tensor_class(
            levi.rects, want
        )


def test_poincare_pair():
    # pairing two basis classes gives 1 exactly on complementary shapes
    for amb in [(p, q) for p in range(1, 5) for q in range(1, 5)]:
        shapes = enumerate_in_rectangle(*amb)
        for nu in shapes:
            for mu in shapes:
                want = 1 if mu == complement(nu, *amb) else 0
                assert poincare_pair(schubert_class(amb, nu), schubert_class(amb, mu)) == want


def test_poincare_pair_builds_no_product(monkeypatch):
    # the pairing is read by duality: no cup product and no LR expansion
    from schubcalc import cohomology, lr

    def boom(*args):
        raise AssertionError("a product was built")

    monkeypatch.setattr(cohomology, "cup", boom)
    monkeypatch.setattr(lr, "_expand_pair", boom)
    test_poincare_pair()
    # the 8x8 staircases pair once with each other, never with themselves
    st7, st8 = schubert_class((8, 8), (7, 6, 5, 4, 3, 2, 1)), schubert_class((8, 8), (8, 7, 6, 5, 4, 3, 2, 1))
    assert (poincare_pair(st7, st8), poincare_pair(st8, st7), poincare_pair(st7, st7)) == (1, 1, 0)
    x = cohom_class((2, 3), {(2, 1): 2, (1,): -3, (): 5})
    y = cohom_class((2, 3), {(2, 1): 7, (3, 2): 11, (3, 3): 13})
    assert poincare_pair(x, y) == 2 * 7 - 3 * 11 + 5 * 13
    with pytest.raises(AmbientMismatch, match=r"^\(2, 3\) vs \(3, 2\)$"):
        poincare_pair(x, schubert_class((3, 2), ()))


def _standard_tableaux_of_rectangle(rows, cols):
    # the hook length formula for the rows x cols rectangle
    hooks = 1
    for i in range(rows):
        for j in range(cols):
            hooks *= (rows - 1 - i) + (cols - 1 - j) + 1
    return math.factorial(rows * cols) // hooks


def test_top_power_of_the_divisor_class():
    # sigma_1^(pq) = f [pt], f the number of standard tableaux of the
    # window, and one more factor leaves the window
    assert _standard_tableaux_of_rectangle(4, 4) == 24024
    for amb in [(p, q) for p in range(1, 5) for q in range(1, 5)]:
        sigma1 = schubert_class(amb, (1,))
        power = unit(amb)
        for _ in range(amb[0] * amb[1]):
            power = cup(power, sigma1)
        f = _standard_tableaux_of_rectangle(*amb)
        assert power == cohom_class(amb, {rect(*amb): f})
        assert cup(power, sigma1) == cohom_class(amb, {})


def test_restrict_levi_frozen():
    amb = (2, 2)
    levi = LeviShape(rects=((1, 1), (1, 1)))
    got = restrict_levi(schubert_class(amb, (1,)), levi)
    assert got == tensor_class(levi.rects, {((1,), ()): 1, ((), (1,)): 1})
    # a single full block restricts identically
    whole = LeviShape(rects=(amb,))
    x = cohom_class(amb, {(2, 1): 2, (1,): 1})
    assert restrict_levi(x, whole) == tensor_class(
        (amb,), {((2, 1),): 2, ((1,),): 1}
    )


def test_restrict_levi_is_ring_map():
    amb = (2, 3)
    levi = LeviShape(rects=((1, 1), (1, 2)))
    shapes = enumerate_in_rectangle(*amb)
    rng = random.Random(11)
    for _ in range(30):
        x = schubert_class(amb, rng.choice(shapes))
        y = schubert_class(amb, rng.choice(shapes))
        lhs = restrict_levi(cup(x, y), levi)
        rhs = cup_tensor(restrict_levi(x, levi), restrict_levi(y, levi))
        assert lhs == rhs
    assert restrict_levi(unit(amb), levi) == tensor_class(
        levi.rects, {((), ()): 1}
    )


def test_levi_validation():
    amb = (2, 2)
    with pytest.raises(LeviDoesNotFit):
        restrict_levi(unit(amb), LeviShape(rects=((1, 1),), center=1))
    with pytest.raises(LeviDoesNotFit):
        restrict_levi(unit(amb), LeviShape(rects=((2, 1), (1, 1))))
    with pytest.raises(LeviDoesNotFit):
        restrict_levi(unit(amb), LeviShape(rects=((0, 1),)))
    with pytest.raises(AmbientMismatch):
        x = restrict_levi(unit(amb), LeviShape(rects=((1, 1), (1, 1))))
        y = tensor_class(((1, 1),), {((),): 1})
        cup_tensor(x, y)


@pytest.mark.parametrize("side", [1.5, "2", float("inf")])
def test_levi_sides_that_are_not_integers_are_refused(side):
    # refused before any search; each crashed deep inside it with a bare
    # TypeError, on a product, a slice or a range
    with pytest.raises(ValueError, match="block sides must be integers"):
        dual_class_unitary((3, 3), LeviShape(((side, 1),)))
    with pytest.raises(ValueError, match="block sides must be integers"):
        restrict_levi(schubert_class((3, 3), (1,)), LeviShape(((1, side),)))
    with pytest.raises(ValueError, match="diagonal block sides must be integers"):
        restrict_symplectic_levi_support((1,), LeviShape((), side), 3)
    with pytest.raises(ValueError, match="block sides must be integers"):
        restrict_symplectic_levi_support((1,), LeviShape(((side, 1),), 1), 3)


def test_levi_sides_of_integer_value_are_ints():
    x = schubert_class((3, 3), (2, 1))
    assert restrict_levi(x, LeviShape(((2.0, 1), (1, 2.0)))) == restrict_levi(x, LeviShape(((2, 1), (1, 2))))
    want = dual_class_unitary((3, 3), LeviShape(((2, 1),)))
    assert dual_class_unitary((3, 3), LeviShape(((2.0, 1),))) == want
    want = restrict_symplectic_levi_support((2, 1), LeviShape(((1, 1),), 1), 2)
    assert restrict_symplectic_levi_support((2, 1), LeviShape(((1.0, 1.0),), 1.0), 2) == want


def test_tensor_class_validation():
    with pytest.raises(ShapeOutOfBox):
        tensor_class(((1, 1),), {((2,),): 1})
    with pytest.raises(ValueError):
        tensor_class(((1, 1), (1, 1)), {((1,),): 1})


def test_dual_class_unitary():
    amb = (2, 2)
    levi = LeviShape(rects=((1, 1), (1, 1)))
    assert dual_class_unitary(amb, levi) == cohom_class(amb, {(2,): 1, (1, 1): 1})
    assert dual_class_unitary(amb, LeviShape(rects=(amb,))) == unit(amb)
    # degree of the dual class is the ambient area minus the levi area
    for amb in ((2, 2), (2, 3)):
        for levi in _levis_up_to_two_blocks(amb):
            d = amb[0] * amb[1] - sum(a * b for a, b in levi.rects)
            dual = dual_class_unitary(amb, levi)
            assert dual.terms
            assert all(weight(nu) == d for nu in dual.terms)


def _levis_up_to_two_blocks(amb):
    p, q = amb
    sides = [
        (a, b) for a in range(1, p + 1) for b in range(1, q + 1)
    ]
    out = [LeviShape(rects=(r,)) for r in sides]
    for r1 in sides:
        for r2 in sides:
            if r1[0] + r2[0] <= p and r1[1] + r2[1] <= q:
                out.append(LeviShape(rects=(r1, r2)))
    return out


def test_duality_detects_restriction_support():
    # pairing against the dual class sees exactly the classes of levi
    # degree that survive restriction
    amb = (2, 2)
    for levi in _levis_up_to_two_blocks(amb):
        dual = dual_class_unitary(amb, levi)
        d = sum(a * b for a, b in levi.rects)
        for nu in enumerate_in_rectangle(*amb, weight=d):
            x = schubert_class(amb, nu)
            paired = poincare_pair(dual, x) != 0
            restricted = bool(restrict_levi(x, levi).terms)
            assert paired == restricted


def test_lagrangian_restriction():
    amb = (4, 4)
    for i in range(1, 5):
        got = restrict_to_lagrangian(schubert_class(amb, (i,)))
        key = (i,) + (1,) * (i - 1)
        assert got == IsotropicClass(4, "lagrangian", {key: 1})
    assert restrict_to_lagrangian(schubert_class((3, 3), (2, 2))).terms == {}
    assert restrict_to_lagrangian(unit(amb)).terms == {(): 1}
    with pytest.raises(AmbientNotSquare):
        restrict_to_lagrangian(unit((2, 3)))


def test_lagrangian_round_trip():
    amb = (4, 4)
    for nu in enumerate_in_rectangle(4, 4, symmetric_only=True):
        arm = plus_part(nu)
        for lam in {arm, conjugate(arm)}:
            got = restrict_to_lagrangian(schubert_class(amb, lam))
            assert got == IsotropicClass(4, "lagrangian", {nu: 1} if nu else {(): 1})
    # shapes that are not hook-arm images die
    strictish = {plus_part(nu) for nu in enumerate_in_rectangle(4, 4, symmetric_only=True)}
    strictish |= {conjugate(l) for l in strictish}
    for lam in enumerate_in_rectangle(4, 4):
        if lam in strictish:
            continue
        assert restrict_to_lagrangian(schubert_class(amb, lam)).terms == {}


def test_orthogonal_restriction():
    amb = (5, 5)
    for i in range(1, 5):
        got = restrict_to_orthogonal(schubert_class(amb, (i,)))
        assert got == IsotropicClass(5, "orthogonal", {(i,): 1})
        # the label (i) is the strict-arm reduction of the hook (i+1, 1^i)
        assert minus_part((i + 1,) + (1,) * i) == (i,)
    assert restrict_to_orthogonal(schubert_class((3, 3), (2, 2))).terms == {}
    with pytest.raises(AmbientNotSquare):
        restrict_to_orthogonal(unit((2, 3)))


def test_orthogonal_round_trip():
    p = 4
    amb = (p, p)
    for nu in enumerate_in_rectangle(p, p, symmetric_only=True):
        label = minus_part(nu)
        for lam in {label, conjugate(label)}:
            got = restrict_to_orthogonal(schubert_class(amb, lam))
            assert got.terms == ({label: 1} if label else {(): 1})
    # too-wide strict shapes have no symmetric preimage inside p x p
    assert restrict_to_orthogonal(schubert_class(amb, (p,))).terms == {}


def _restrict_to_lagrangian_loop(x):
    # restrict_to_lagrangian before the two flavors shared one loop,
    # kept as an oracle
    p = _require_square(x.ambient)
    out = {}
    for lam, c in x.terms.items():
        if is_strict(lam):
            key = from_plus_part(lam) if lam else ()
        elif is_strict(conjugate(lam)):
            key = from_plus_part(conjugate(lam))
        else:
            continue
        out[key] = out.get(key, 0) + c
    return IsotropicClass(p, "lagrangian", _normalize_terms(out, lambda kv: sort_key(kv[0])))


def _restrict_to_orthogonal_loop(x):
    # restrict_to_orthogonal before the two flavors shared one loop,
    # kept as an oracle
    p = _require_square(x.ambient)

    def qualifies(lam):
        return is_strict(lam) and (not lam or lam[0] <= p - 1)

    out = {}
    for lam, c in x.terms.items():
        if qualifies(lam):
            key = lam
        elif qualifies(conjugate(lam)):
            key = conjugate(lam)
        else:
            continue
        out[key] = out.get(key, 0) + c
    return IsotropicClass(p, "orthogonal", _normalize_terms(out, lambda kv: sort_key(kv[0])))


def test_isotropic_restrictions_match_loop_oracles():
    # every class of every p x p window with p <= 5, plus per window two
    # classes of every shape, so a shape and its transpose sum into one
    # key (with signs, some to 0), and one with a zero coefficient
    checked = 0
    for p in range(1, 6):
        shapes = enumerate_in_rectangle(p, p)
        classes = [schubert_class((p, p), lam) for lam in shapes]
        classes.append(cohom_class((p, p), {lam: 1 for lam in shapes}))
        classes.append(cohom_class((p, p), {lam: (-1) ** i * (1 + i % 3) for i, lam in enumerate(shapes)}))
        classes.append(CohomClass((p, p), {(1,): 0}))
        for x in classes:
            for got, want in (
                (restrict_to_lagrangian(x), _restrict_to_lagrangian_loop(x)),
                (restrict_to_orthogonal(x), _restrict_to_orthogonal_loop(x)),
            ):
                assert got == want, x
                assert list(got.terms.items()) == list(want.terms.items()), x
            checked += 1
    assert checked == sum(math.comb(2 * p, p) + 3 for p in range(1, 6))


def test_dual_classes_for_square_flavors():
    assert dual_class_gsp(2) == schubert_class((2, 2), (1,))
    assert dual_class_gsp(1) == unit((1, 1))
    assert dual_class_gsp(4) == schubert_class((4, 4), (3, 2, 1))
    assert dual_class_ostar(1) == schubert_class((1, 1), (1,))
    assert dual_class_ostar(2) == schubert_class((2, 2), (2, 1))
    assert dual_class_ostar(3) == schubert_class((3, 3), (3, 2, 1))
    assert weight(staircase(3)) == 6


def test_symplectic_support_center_only():
    for nu in enumerate_in_rectangle(3, 3, symmetric_only=True):
        levi = LeviShape(rects=(), center=3)
        assert restrict_symplectic_levi_support(nu, levi, 3) == [(nu, ())]


def test_symplectic_support_frozen_example():
    levi = LeviShape(rects=((1, 1),), center=1)
    got = restrict_symplectic_levi_support((2, 1), levi, 2)
    assert got == [((1,), ((1,),))]


def test_symplectic_support_validation():
    levi = LeviShape(rects=((1, 1),), center=1)
    with pytest.raises(ShapeNotSymmetric):
        restrict_symplectic_levi_support((2,), levi, 2)
    with pytest.raises(ShapeOutOfBox):
        restrict_symplectic_levi_support((3, 1, 1), levi, 2)
    with pytest.raises(LeviDoesNotFit):
        restrict_symplectic_levi_support((1,), LeviShape(rects=((1, 1),)), 2)
    with pytest.raises(LeviDoesNotFit):
        restrict_symplectic_levi_support((1,), LeviShape(rects=((2, 2),), center=1), 2)
    with pytest.raises(LeviDoesNotFit, match="diagonal block side must be nonnegative"):
        restrict_symplectic_levi_support((1,), LeviShape(rects=(), center=-1), 2)


def test_symplectic_support_matches_inscription():
    # the support search and the symmetric inscription test answer the
    # same question when the levi blocks mirror a split symmetric skew
    sym = enumerate_in_rectangle(3, 3, symmetric_only=True)
    for mu in sym:
        for lam in sym:
            if not contains(lam, mu):
                continue
            s = skew(mu, lam)
            try:
                center, flanks = symmetric_chain_split(s)
            except IncompatiblePair:
                continue
            levi = LeviShape(rects=tuple(flanks), center=center)
            for nu in sym:
                ins = inscribes_symmetric(nu, s) is not None
                assert bool(restrict_symplectic_levi_support(nu, levi, 3)) == ins
