"""Geodesics, graded intervals, and exact medians on Cayley graphs.

Elements compose left to right: (a * b)(i) = b(a(i)), so a word s1 s2 ... sk
read left to right is the path identity -> s1 -> s1*s2 -> ... in the graph
whose edges are right multiplications g -> g*s.

The intervals, median and classify submodules load on first use: importing
the package runs neither them nor numpy.  The first access to one of their
names, here or on the submodule, runs that submodule.
"""

import importlib.util
import sys

from .cayley import (
    RELATIONS,
    DistanceOracle,
    GeodesicSet,
    build_oracle,
    cache_path,
    default_cache_dir,
    generator_text,
    load_table_cache,
    save_table_cache,
    verify_table_cache,
)
from .errors import (
    CacheError,
    CapabilityError,
    CayleyError,
    ElementSyntaxError,
    InvariantError,
    ModelError,
    UnreachableError,
)
from .groups import (
    CyclicModel,
    FreeAbelianModel,
    GeneratingSet,
    GroupModel,
    SymmetricModel,
    adjacent_model,
    apply_word,
    circular_model,
    custom_model,
    cycle_structure,
    cycles_to_perm,
    cyclic_model,
    format_perm,
    is_generating,
    parse_cycles,
    parse_model,
    perm_inverse,
    perm_multiply,
    perm_parity,
    perm_to_cycles,
    z2_model,
)
from .ranking import perm_rank, perm_unrank

# the names each lazily loaded submodule exports
_LAZY = {
    "classify": ("CensusResult", "Classification", "NormaliserResult", "census", "classify",
                 "in_normaliser", "normaliser", "theorem1_check"),
    "intervals": ("GradedInterval", "IntervalStats", "PartialInterval", "build_interval",
                  "count_geodesics", "interval_stats", "interval_to_dot", "interval_to_json",
                  "is_lattice", "is_sperner", "max_antichain", "order_isomorphic",
                  "partial_interval", "prefix_le", "translate_interval"),
    "median": ("InteriorRegion", "MedianResult", "Triangle", "deltas", "interior",
               "make_triangle", "median_parity_check", "median_report", "medians",
               "steiner_weight"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def _register_lazy(module: str) -> None:
    """Put cayleykit.<module> in sys.modules unrun; its first attribute access runs it.

    A module registered here is never bound on the package by the import
    system, so cayleykit.classify stays the function after an import of
    the cayleykit.classify module.
    """
    fullname = f"{__name__}.{module}"
    if fullname in sys.modules:
        return
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    sys.modules[fullname] = lazy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lazy)


for _module in _LAZY:
    _register_lazy(_module)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)
    elif name in _LAZY:
        value = sys.modules[f"{__name__}.{name}"]
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "CacheError",
    "CapabilityError",
    "CayleyError",
    "CensusResult",
    "Classification",
    "CyclicModel",
    "DistanceOracle",
    "ElementSyntaxError",
    "FreeAbelianModel",
    "GeneratingSet",
    "GeodesicSet",
    "GradedInterval",
    "GroupModel",
    "InteriorRegion",
    "IntervalStats",
    "InvariantError",
    "MedianResult",
    "ModelError",
    "NormaliserResult",
    "PartialInterval",
    "RELATIONS",
    "SymmetricModel",
    "Triangle",
    "UnreachableError",
    "adjacent_model",
    "apply_word",
    "build_interval",
    "build_oracle",
    "cache_path",
    "census",
    "circular_model",
    "classify",
    "count_geodesics",
    "custom_model",
    "cycle_structure",
    "cycles_to_perm",
    "cyclic_model",
    "default_cache_dir",
    "deltas",
    "format_perm",
    "generator_text",
    "in_normaliser",
    "interior",
    "interval_stats",
    "interval_to_dot",
    "interval_to_json",
    "is_generating",
    "is_lattice",
    "is_sperner",
    "load_table_cache",
    "make_triangle",
    "max_antichain",
    "median_parity_check",
    "median_report",
    "medians",
    "normaliser",
    "order_isomorphic",
    "parse_cycles",
    "parse_model",
    "partial_interval",
    "perm_inverse",
    "perm_multiply",
    "perm_parity",
    "perm_rank",
    "perm_to_cycles",
    "perm_unrank",
    "prefix_le",
    "save_table_cache",
    "steiner_weight",
    "theorem1_check",
    "translate_interval",
    "verify_table_cache",
    "z2_model",
]
