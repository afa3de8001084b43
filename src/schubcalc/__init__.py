"""Schubert calculus on rectangle windows, with restriction criteria
for the unitary, symplectic, and quaternionic Shimura settings.

The diagram layers load with the package.  The layers above them, lr,
cohomology and shimura, load on first use of one of their names (PEP
562), so a process that never asks for them never compiles them.
"""

from importlib import import_module as _import_module

# Eager: the functions partition, skew and tableau shadow their modules'
# names here, and a module first loaded later would rebind its name to
# itself.
from .errors import DomainError
from .partition import (
    bar_closure,
    check_reduction,
    complement,
    conjugate,
    contains,
    enumerate_in_rectangle,
    from_minus_part,
    from_plus_part,
    is_strict,
    is_symmetric,
    minus_part,
    partition,
    plus_part,
    staircase,
)
from .skew import SkewShape, concat, rectangle_decomposition, skew
from .tableau import enumerate_lr_fillings, product, rectify, superstandard, tableau

__version__ = "0.1.0"

# re-exported name -> the layer, loaded on first use, that defines it
_LAZY = {
    "count_images": "lr",
    "inscribes": "lr",
    "inscribes_antisymmetric": "lr",
    "inscribes_symmetric": "lr",
    "lr_coefficient": "lr",
    "multi_lr_coefficient": "lr",
    "schur_expand": "lr",
    "CohomClass": "cohomology",
    "IsotropicClass": "cohomology",
    "LeviShape": "cohomology",
    "TensorClass": "cohomology",
    "cup": "cohomology",
    "dual_class_unitary": "cohomology",
    "poincare_pair": "cohomology",
    "restrict_levi": "cohomology",
    "restrict_to_lagrangian": "cohomology",
    "restrict_to_orthogonal": "cohomology",
    "schubert_class": "cohomology",
    "CompatiblePair": "shimura",
    "enumerate_pairs": "shimura",
    "make_pair": "shimura",
}

# the names bound above, errors among them, then the lazy ones
__all__ = [name for name in globals() if not name.startswith("_")]
__all__ += [*_LAZY, "lr", "cohomology", "shimura"]


def __getattr__(name):
    # looked up on every access, not cached here, so a name follows any
    # rebinding of it in its layer
    layer = _LAZY.get(name)
    if layer is not None:
        return getattr(_import_module("." + layer, __name__), name)
    if name in _LAZY.values():
        return _import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
