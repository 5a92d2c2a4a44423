"""Priority-driven enumeration of k-ary color trees, with an edge-coloring
pipeline that extracts candidate monochromatic sets from the enumerated
branch.  Brute-force oracles for everything live in
:mod:`colorvisit.oracles`.

The package exports three names: :class:`~colorvisit.visit.Visit`, the
visit of a color tree, and :func:`~colorvisit.dsl.dsl_coloring` and
:func:`~colorvisit.erdos.homog_pipeline`, the coloring pipeline.  Every
other name is imported from its own module.  The exports are resolved on
first use (PEP 562), so importing the package, or one of its modules,
loads no module that the caller does not use.
"""

__version__ = "0.1.0"

# each exported name and the module that defines it
_EXPORTS = {
    "Visit": "visit",
    "dsl_coloring": "dsl",
    "homog_pipeline": "erdos",
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
