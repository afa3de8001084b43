import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import schubcalc
import schubcalc.lr

# The package's public names, frozen: each re-exported object under the
# layer that defines it, and the submodules bound as attributes.
# partition, skew and tableau are functions here, not the submodules.
_EXPORTS = {
    "errors": ("DomainError",),
    "partition": (
        "bar_closure",
        "check_reduction",
        "complement",
        "conjugate",
        "contains",
        "enumerate_in_rectangle",
        "from_minus_part",
        "from_plus_part",
        "is_strict",
        "is_symmetric",
        "minus_part",
        "partition",
        "plus_part",
        "staircase",
    ),
    "skew": ("SkewShape", "concat", "rectangle_decomposition", "skew"),
    "tableau": ("enumerate_lr_fillings", "product", "rectify", "superstandard", "tableau"),
    "lr": (
        "count_images",
        "inscribes",
        "inscribes_antisymmetric",
        "inscribes_symmetric",
        "lr_coefficient",
        "multi_lr_coefficient",
        "schur_expand",
    ),
    "cohomology": (
        "CohomClass",
        "IsotropicClass",
        "LeviShape",
        "TensorClass",
        "cup",
        "dual_class_unitary",
        "poincare_pair",
        "restrict_levi",
        "restrict_to_lagrangian",
        "restrict_to_orthogonal",
        "schubert_class",
    ),
    "shimura": ("CompatiblePair", "enumerate_pairs", "make_pair"),
}
_SUBMODULES = ("cohomology", "errors", "lr", "shimura")
_PUBLIC = sorted({*_SUBMODULES, *(name for names in _EXPORTS.values() for name in names)})

# Run in a fresh interpreter, so that it sees the package as a bare
# import leaves it.  Prints the names that do not resolve to the object
# they stand for, first with only the eager layers loaded, then with
# every layer loaded.
_CONTRACT_SCRIPT = """
import importlib, json, sys
import schubcalc
EXPORTS, SUBMODULES = json.loads(sys.argv[1])

def layer(name):
    return importlib.import_module("schubcalc." + name)

def wrong(layers):
    out = [n for l in layers for n in EXPORTS[l] if getattr(schubcalc, n) is not getattr(layer(l), n)]
    return out + [m for m in SUBMODULES if m in layers and getattr(schubcalc, m) is not layer(m)]

report = {"dir": [n for n in dir(schubcalc) if not n.startswith("_")]}
report["eager"] = wrong(["errors", "partition", "skew", "tableau"])
report["loaded"] = sorted(m for m in sys.modules if m.startswith("schubcalc."))
report["lazy"] = wrong(list(EXPORTS))
for name in ("lr", "cohomology", "shimura", "cli"):
    layer(name)
report["all"] = wrong(list(EXPORTS))
space = {}
exec("from schubcalc import *", space)
report["star"] = sorted(set(space) - {"__builtins__"})
print(json.dumps(report))
"""


def test_package_names_resolve_as_before_and_after_loading_every_layer():
    src = str(Path(schubcalc.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", _CONTRACT_SCRIPT, json.dumps([_EXPORTS, _SUBMODULES])],
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["dir"] == _PUBLIC
    assert report["eager"] == []
    assert report["loaded"] == ["schubcalc.errors", "schubcalc.partition", "schubcalc.skew", "schubcalc.tableau"]
    assert report["lazy"] == report["all"] == []
    assert report["star"] == _PUBLIC


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'schubcalc' has no attribute 'no_such_name'"):
        schubcalc.no_such_name
    assert not hasattr(schubcalc, "FLAVORS")


def test_package_name_follows_a_rebinding_in_its_layer(monkeypatch):
    def patched(*args):
        return -1

    monkeypatch.setattr(schubcalc.lr, "lr_coefficient", patched)
    assert schubcalc.lr_coefficient is patched
    monkeypatch.undo()
    assert schubcalc.lr_coefficient is schubcalc.lr.lr_coefficient is not patched


def _functions_on_call_cycles():
    # a call graph over every function the package defines, nested ones
    # named after their enclosing function, with a call to a bare name or
    # an attribute joined to every function of that name; returns the
    # functions that can reach themselves
    defs = {}  # qualified name -> node

    def collect(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    defs[name] = child
                collect(child, name + ".")
            else:
                collect(child, prefix)

    for path in sorted(Path(schubcalc.__file__).parent.glob("*.py")):
        collect(ast.parse(path.read_text()), path.stem + ".")
    by_name = {}
    for name in defs:
        by_name.setdefault(name.rpartition(".")[2], []).append(name)
    calls = {}
    for name, node in defs.items():
        called = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                f = sub.func
                called.update(by_name.get(getattr(f, "id", None) or getattr(f, "attr", None), ()))
        calls[name] = called
    cyclic = set()
    for start in defs:
        seen, todo = set(), [start]
        while todo:
            for name in calls[todo.pop()] - seen:
                seen.add(name)
                todo.append(name)
        if start in seen:
            cyclic.add(start)
    return cyclic


def test_only_the_library_cross_checks_recurse():
    # no command path recurses, so no answer depends on the stack depth;
    # the relabeling count and the tableau enumeration are cross-checks
    assert _functions_on_call_cycles() == {"lr.count_images.rec", "tableau.enumerate_ssyt.place"}
