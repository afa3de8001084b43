"""Command line front end.

Every run prints exactly one JSON document to stdout.  Domain failures
exit 1 with {"error": code}, among them InputTooLarge for a pair window
too large for shimura.iter_pairs to list; malformed invocations exit
2 and write the complaint to stderr.  No command recurses, so an
answer does not depend on the caller's stack depth.  --pretty sketches
the shapes involved on stderr, leaving stdout machine-readable.

A command is parsed by its own parser, built once per process and
reused by every later call of that command, so a call builds at most
one parser and parses its argv once.  The full tree build_parser
returns serves only help for the top or a group, malformed calls and a
command with extra words, so their usage and error text read as ever;
it is built whole, once per process, and shared, so callers must not
modify it.  Each call loads only the layers its command calls: each
handler imports lr, cohomology or shimura itself, so an lr command
never loads cohomology or shimura, and a cohom command never loads
shimura.
"""

import argparse
import functools
import json
import sys

from .errors import DomainError, IncompatiblePair
from .partition import (
    _require_square,
    bar_closure,
    check_reduction,
    complement,
    conjugate,
    format_box,
    format_partition,
    minus_part,
    parse_box,
    parse_partition,
    plus_part,
    rect,
)
from .skew import SkewShape, _padded_inner, parse_skew, rectangle_decomposition


def _split(text, sep, count, form):
    parts = text.split(sep)
    if len(parts) != count:
        raise ValueError("expected %s, got %r" % (form, text))
    return parts


def _parse_factor(tok):
    if "x" in tok:
        return rect(*parse_box(tok))
    return parse_partition(tok)


def _parse_factors(text):
    text = text.strip()
    if not text:
        return []
    return [_parse_factor(tok) for tok in text.split("*")]


def _parse_levi(text):
    from . import cohomology
    rects = []
    text = text.strip()
    if text:
        rects = [parse_box(tok) for tok in text.split("*")]
    return cohomology.LeviShape(tuple(rects))


def _parse_factor_pairs(text):
    out = []
    text = text.strip()
    if not text:
        return out
    for tok in text.split(";"):
        box, lam, mu = _split(tok, ":", 3, "BOX:LAMBDA:MU[;...]")
        out.append((parse_box(box), parse_partition(lam), parse_partition(mu)))
    return out


def _class_doc(x):
    return {
        "ambient": format_box(x.ambient),
        "terms": [
            {"partition": format_partition(l), "coeff": c} for l, c in x.terms.items()
        ],
    }


def _tensor_doc(x):
    return {
        "factors": [format_box(b) for b in x.factors],
        "terms": [
            {"partitions": [format_partition(l) for l in keys], "coeff": c}
            for keys, c in x.terms.items()
        ],
    }


def _diagonal_witness(orientation, center, gammas):
    return {
        "orientation": list(orientation),
        "center": None if center is None else format_partition(center),
        "gammas": [format_partition(g) for g in gammas],
    }


def _draw(shape):
    if not isinstance(shape, SkewShape):
        shape = SkewShape(shape, ())
    pad = _padded_inner(shape)
    if shape.outer == pad:
        return "(empty)"
    return "\n".join(
        "   " * pad[i] + "[ ]" * (shape.outer[i] - pad[i])
        for i in range(len(shape.outer))
    )


def _ambient(args):
    q = args.q if args.q is not None else args.p
    return (args.p, q)


def _pair_of(args, flavor=None):
    from . import shimura
    return shimura.make_pair(
        parse_partition(args.lam),
        parse_partition(args.mu),
        _ambient(args),
        flavor or args.type,
    )


# ---------------------------------------------------------------- partition


def _cmd_partition(args):
    lam = parse_partition(args.partition)
    if args.op == "conj":
        out = conjugate(lam)
    elif args.op == "comp":
        out = complement(lam, *parse_box(args.box))
    elif args.op == "plus":
        out = plus_part(lam)
    elif args.op == "bar":
        out = bar_closure(lam)
    elif args.op == "minus":
        out = minus_part(lam)
    else:
        out = check_reduction(lam)
    return {"partition": format_partition(out)}, [("result", out)]


# ---------------------------------------------------------------- skew


def _cmd_skew_decompose(args):
    s = parse_skew(args.skew)
    chain = rectangle_decomposition(s)
    if chain is None:
        raise IncompatiblePair("%s is not a rectangle chain" % args.skew)
    return {"chain": [format_box(b) for b in chain]}, [("skew", s)]


# ---------------------------------------------------------------- lr


def _cmd_lr_coeff(args):
    from . import lr
    outer = parse_partition(args.outer)
    inner = parse_partition(args.inner)
    nu = parse_partition(args.nu)
    c = lr.lr_coefficient(outer, inner, nu)
    return {"coefficient": c}, [("outer/inner", SkewShape(outer, inner)), ("nu", nu)]


def _cmd_lr_multi(args):
    from . import lr
    target = parse_partition(args.target)
    factors = _parse_factors(args.factors)
    return {"coefficient": lr.multi_lr_coefficient(target, factors)}, [("target", target)]


def _cmd_lr_inscribes(args):
    from . import lr
    nu = parse_partition(args.nu)
    s = parse_skew(args.skew)
    shapes = [("nu", nu), ("window", s)]
    if args.symmetric or args.antisymmetric:
        fn = lr.inscribes_symmetric if args.symmetric else lr.inscribes_antisymmetric
        w = fn(nu, s)
        if w is None:
            return {"inscribes": False, "witness": None}, shapes
        return {"inscribes": True, "witness": _diagonal_witness(*w)}, shapes
    mu_prime = lr.inscribes_witness(nu, s)
    if mu_prime is None:
        return {"inscribes": False, "witness": None}, shapes
    return {"inscribes": True, "witness": {"mu_prime": format_partition(mu_prime)}}, shapes


# ---------------------------------------------------------------- cohom


def _cmd_cohom_product(args):
    from . import cohomology
    ambient = parse_box(args.ambient)
    x = cohomology.schubert_class(ambient, parse_partition(args.lhs))
    y = cohomology.schubert_class(ambient, parse_partition(args.rhs))
    return _class_doc(cohomology.cup(x, y)), []


def _cmd_cohom_pair(args):
    from . import cohomology
    ambient = parse_box(args.ambient)
    x = cohomology.schubert_class(ambient, parse_partition(args.lhs))
    y = cohomology.schubert_class(ambient, parse_partition(args.rhs))
    return {"pairing": cohomology.poincare_pair(x, y)}, []


def _cmd_cohom_restrict(args):
    from . import cohomology
    ambient = parse_box(args.ambient)
    x = cohomology.schubert_class(ambient, parse_partition(args.cls))
    levi = _parse_levi(args.levi)
    return _tensor_doc(cohomology.restrict_levi(x, levi)), []


def _cmd_cohom_dual_class(args):
    from . import cohomology
    ambient = parse_box(args.ambient)
    if args.type == "unitary":
        out = cohomology.dual_class_unitary(ambient, _parse_levi(args.levi))
    else:
        if args.levi.strip():
            raise ValueError("--levi applies to --type unitary only, not %s" % args.type)
        p = _require_square(ambient)
        if args.type == "gsp":
            out = cohomology.dual_class_gsp(p)
        else:
            out = cohomology.dual_class_ostar(p)
    return _class_doc(out), [("dual", k) for k in out.terms]


# ---------------------------------------------------------------- shimura


def _cmd_sh_pairs(args):
    from . import shimura
    bidegree = None
    if args.bidegree:
        i, j = _split(args.bidegree, ",", 2, "I,J")
        bidegree = (int(i), int(j))
    pairs = shimura.iter_pairs(_ambient(args), args.type, bidegree)
    doc = {
        "pairs": [
            {"lambda": format_partition(p.lam), "mu": format_partition(p.mu)}
            for p in pairs
        ]
    }
    return doc, []


def _cmd_sh_bidegree(args):
    from . import shimura
    pair = _pair_of(args)
    return {"bidegree": list(shimura.vz_bidegree(pair))}, [("window", pair.skew)]


def _cmd_sh_chern_action(args):
    from . import shimura
    pair = _pair_of(args)
    nu = parse_partition(args.nu)
    w = shimura.chern_action_nonzero(nu, pair)
    if w is None:
        return {"nonzero": False, "witness": None}, [("window", pair.skew)]
    if "mu_prime" in w:
        witness = {"mu_prime": format_partition(w["mu_prime"])}
    else:
        witness = _diagonal_witness(**w)
    return {"nonzero": True, "witness": witness}, [("window", pair.skew)]


def _cmd_sh_inject(args):
    from . import shimura
    if args.type == "gsp":
        pair = _pair_of(args, "symplectic")
        return {"injective": shimura.injectivity_gsp(pair)}, [("window", pair.skew)]
    pair = _pair_of(args, "unitary")
    ok, nu = shimura.injectivity_unitary(pair, _parse_levi(args.factors))
    witness = {"nu": format_partition(nu)} if ok else None
    return {"injective": ok, "witness": witness}, [("window", pair.skew)]


def _cmd_sh_kunneth(args):
    from . import shimura
    pair = _pair_of(args, "unitary")
    factor_pairs = _parse_factor_pairs(args.factor_pairs)
    return {"vanishes": shimura.kunneth_vanishing(pair, factor_pairs)}, []


def _cmd_sh_vanish(args):
    from . import shimura
    pair = _pair_of(args, "unitary")
    return {"vanishes": shimura.vanishing_criterion(pair, args.bound, args.side)}, []


def _cmd_sh_structure(args):
    from . import shimura
    pair = _pair_of(args, "unitary")
    return {"structure": shimura.low_degree_structure(pair)}, [("window", pair.skew)]


def _cmd_sh_arthur(args):
    from . import shimura
    entries = shimura.arthur_cover(_ambient(args), args.max_degree)
    doc = {
        "entries": [
            {
                "lambda": format_partition(pair.lam),
                "mu": format_partition(pair.mu),
                "structure": label,
                "suggestion": (
                    "U(%d,%d)" % sug[1:] if sug[0] == "U" else "GSp_%d" % sug[1]
                ),
            }
            for pair, label, sug in entries
        ]
    }
    return doc, []


def _cmd_sh_partha(args):
    from . import shimura
    windows = shimura.partha_decomposition(_ambient(args), args.degree)
    return {"windows": [[a, b] for a, b in windows]}, []


def _cmd_sh_ostar(args):
    from . import shimura
    comps = shimura.ostar_holomorphic_components(args.p)
    idents = shimura.ostar_identifications(args.p)
    doc = {
        "components": [
            {
                "family": c.family,
                "param": c.param,
                "shape": format_partition(c.shape),
                "label": format_partition(c.label),
                "degree": c.degree,
            }
            for c in comps
        ],
        "identifications": [
            {
                "label": format_partition(g["label"]),
                "members": [[f, n] for f, n in g["members"]],
            }
            for g in idents
        ],
    }
    return doc, []


# ---------------------------------------------------------------- wiring


_REQ = {"required": True}
_INT = {"type": int, "required": True}
_BLANK = {"default": ""}
_FLAG = {"action": "store_true"}
_PART = ("--partition", _REQ)
_P = ("--p", _INT)
_WINDOW = (_P, ("--q", {"type": int}))
_PAIR = (("--lambda", {"dest": "lam", "required": True}), ("--mu", _REQ))
_CUP = (("--ambient", _REQ), ("--lhs", _REQ), ("--rhs", _REQ))


def _type(*choices):
    return ("--type", {"choices": choices, "default": choices[0]})


# shimura.FLAVORS, written out so that parsing does not load shimura
_FLAVOR = _type("unitary", "symplectic", "orthogonal")
_UNITARY = _type("unitary")


# (group, op) -> (handler, options).  An option is (flag, add_argument
# keywords); a tuple of flags is a mutually exclusive group.
_COMMANDS = {
    ("partition", "conj"): (_cmd_partition, (_PART,)),
    ("partition", "comp"): (_cmd_partition, (_PART, ("--box", _REQ))),
    ("partition", "plus"): (_cmd_partition, (_PART,)),
    ("partition", "bar"): (_cmd_partition, (_PART,)),
    ("partition", "minus"): (_cmd_partition, (_PART,)),
    ("partition", "check"): (_cmd_partition, (_PART,)),
    ("skew", "decompose"): (_cmd_skew_decompose, (("--skew", _REQ),)),
    ("lr", "coeff"): (_cmd_lr_coeff, (("--outer", _REQ), ("--inner", _BLANK), ("--nu", _REQ))),
    ("lr", "multi"): (_cmd_lr_multi, (("--target", _REQ), ("--factors", _REQ))),
    ("lr", "inscribes"): (
        _cmd_lr_inscribes,
        (("--nu", _REQ), ("--skew", _REQ), (("--symmetric", "--antisymmetric"), _FLAG)),
    ),
    ("cohom", "product"): (_cmd_cohom_product, _CUP),
    ("cohom", "pair"): (_cmd_cohom_pair, _CUP),
    ("cohom", "restrict"): (
        _cmd_cohom_restrict,
        (("--ambient", _REQ), ("--class", {"dest": "cls", "required": True}), ("--levi", _REQ)),
    ),
    ("cohom", "dual-class"): (
        _cmd_cohom_dual_class,
        (("--ambient", _REQ), _type("unitary", "gsp", "ostar"), ("--levi", _BLANK)),
    ),
    ("shimura", "pairs"): (_cmd_sh_pairs, (*_WINDOW, _FLAVOR, ("--bidegree", {}))),
    ("shimura", "bidegree"): (_cmd_sh_bidegree, (*_WINDOW, _FLAVOR, *_PAIR)),
    ("shimura", "chern-action"): (
        _cmd_sh_chern_action, (*_WINDOW, _FLAVOR, *_PAIR, ("--nu", _REQ))
    ),
    ("shimura", "inject"): (
        _cmd_sh_inject, (*_WINDOW, _type("unitary", "gsp"), *_PAIR, ("--factors", _BLANK))
    ),
    ("shimura", "kunneth-vanish"): (
        _cmd_sh_kunneth, (*_WINDOW, _UNITARY, *_PAIR, ("--factor-pairs", _REQ))
    ),
    ("shimura", "vanish"): (
        _cmd_sh_vanish,
        (*_WINDOW, _UNITARY, *_PAIR, ("--side", {"choices": ("P", "Q"), **_REQ}),
         ("--bound", _INT)),
    ),
    ("shimura", "structure"): (_cmd_sh_structure, (*_WINDOW, _UNITARY, *_PAIR)),
    ("shimura", "arthur"): (_cmd_sh_arthur, (*_WINDOW, ("--max-degree", _INT))),
    ("shimura", "partha"): (_cmd_sh_partha, (*_WINDOW, ("--degree", _INT))),
    ("shimura", "ostar-holo"): (_cmd_sh_ostar, (_P,)),
}


def build_parser():
    """The schubcalc parser, with every group and every leaf.

    The parser is built once per process and shared by every later call,
    so callers must not modify it."""
    return _parser()


def _add_options(sp, options):
    # the options of one command, on its leaf in the tree or on its own parser
    sp.add_argument("--pretty", action="store_true", help="sketch shapes on stderr")
    for flags, kwargs in options:
        if isinstance(flags, tuple):
            mode = sp.add_mutually_exclusive_group()
            for flag in flags:
                mode.add_argument(flag, **kwargs)
        else:
            sp.add_argument(flags, **kwargs)
    return sp


@functools.cache
def _parser():
    top = argparse.ArgumentParser(prog="schubcalc")
    sub = top.add_subparsers(dest="command", required=True)
    groups = {}
    for (group, op), (fn, options) in _COMMANDS.items():
        if group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(dest="op", required=True)
        _add_options(groups[group].add_parser(op), options).set_defaults(fn=fn)
    return top


@functools.cache
def _command_parser(key):
    # the leaf of key on its own, under the prog the tree gives it: the
    # tree hands a command's leaf argv[2:] untouched, so parsing that here
    # gives the same namespace, help and errors; keyed by _COMMANDS' keys
    # alone, so the table holds at most 24 entries
    fn, options = _COMMANDS[key]
    sp = _add_options(argparse.ArgumentParser(prog="schubcalc %s %s" % key), options)
    sp.set_defaults(fn=fn, command=key[0], op=key[1])
    return sp


def _parse(argv):
    key = tuple(argv[:2])
    if key in _COMMANDS:
        args, extras = _command_parser(key).parse_known_args(argv[2:])
        if not extras:
            return args
    # help for the top or a group, anything that names no command, and a
    # command with extra words, which the top parser refuses
    return build_parser().parse_args(argv)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    try:
        doc, shapes = args.fn(args)
    except DomainError as err:
        print(json.dumps({"error": err.code}, separators=(",", ":")))
        return 1
    except (ValueError, KeyError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    print(json.dumps(doc, separators=(",", ":")))
    if getattr(args, "pretty", False):
        for label, shape in shapes:
            print("%s:" % label, file=sys.stderr)
            print(_draw(shape), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
