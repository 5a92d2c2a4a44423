"""Priority-driven enumeration of k-ary color trees, with an edge-coloring
pipeline that extracts candidate monochromatic sets from the enumerated
branch.  Brute-force oracles for everything live in
:mod:`colorvisit.oracles`.

The exports below are resolved on first use (PEP 562), so importing the
package, or one of its modules, loads no module that the caller does not
use.
"""

__version__ = "0.1.0"

# each exported name and the module that defines it
_EXPORTS = {
    "Coloring": "colorings",
    "TableIncomplete": "colorings",
    "UnknownBuiltin": "colorings",
    "builtin_coloring": "colorings",
    "load_table": "colorings",
    "table_coloring": "colorings",
    "DslSyntaxError": "dsl",
    "UnknownIdentifier": "dsl",
    "dsl_coloring": "dsl",
    "parse": "dsl",
    "to_text": "dsl",
    "ErdosTree": "erdos",
    "HomogeneousReport": "erdos",
    "build_erdos": "erdos",
    "extract_homogeneous": "erdos",
    "homog_pipeline": "erdos",
    "ColorTree": "trees",
    "FiniteColorTree": "trees",
    "FullColorTree": "trees",
    "full_tree": "trees",
    "load_tree": "trees",
    "validate_tree": "trees",
    "Visit": "visit",
    "enumerate_visit": "visit",
    "ROOT": "words",
    "Word": "words",
    "full_priority": "words",
    "validate_priority": "words",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
