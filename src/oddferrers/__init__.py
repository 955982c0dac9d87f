"""Self-conjugate odd Ferrers graphs, their partition classes, the bijections
between them, and a mock theta series count oracle.

The namespace is lazy (PEP 562): a public name, or a submodule read as an
attribute, imports its submodule when it is first read, so a command that
needs only the series does not compile the class walks and the maps."""

from importlib import import_module

# public name -> the submodule that defines it, in the order of __all__; `cli`
# offers the bijections' names, with dashes, in this order
_SOURCES = {
    "Partition": "partitions", "is_self_conjugate": "partitions",
    "hook_decompose": "partitions", "hooks_compose": "partitions",
    "OddFerrersGraph": "ferrers", "graph_weight": "ferrers",
    "row_sums": "ferrers", "render_ascii": "ferrers",
    "ClassId": "classes", "is_in_O": "classes", "is_in_S": "classes",
    "is_in_D": "classes", "is_in_DO": "classes",
    "members": "classes", "count": "classes", "count_table": "classes",
    "phi": "bijections", "phi_inverse": "bijections",
    "o_to_d": "bijections", "d_to_o": "bijections",
    "d_to_do": "bijections", "do_to_d": "bijections",
    "sc_to_distinct_odd": "bijections", "distinct_odd_to_sc": "bijections",
    "nu_series": "qseries",
}
_SUBMODULES = {*_SOURCES.values(), "errors", "cli", "commands"}

__all__ = list(_SOURCES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing it binds it here, so this runs once
        return import_module(f".{name}", __name__)
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
