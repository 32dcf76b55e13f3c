"""Lazy re-exports: a package names what it re-exports, not imports it.

A package ``__init__`` passes :func:`lazy_exports` a table from each
defining module to the names the package re-exports from it, and binds
the ``__all__`` and the PEP 562 ``__getattr__`` and ``__dir__`` it
returns.  A re-exported name is imported the first time it is read
(``repro.trees.UTree``, ``from repro.trees import UTree``, ``from
repro.trees import *``), so importing a package loads none of its
subtree: a cold ``repro typecheck`` imports only the modules its check
runs.

A re-export that shares its name with a submodule cannot be lazy: the
import system rebinds a package attribute to the submodule when that
submodule is first imported, after which a read would find the module.
Such a name is bound eagerly by its package (DESIGN.md §4).
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(
    module: str, exports: Mapping[str, Iterable[str]]
) -> tuple[list, Callable[[str], Any], Callable[[], list]]:
    """``(__all__, __getattr__, __dir__)`` for ``module``: every name of
    ``exports`` (defining module -> names), each resolved from its
    defining module on first access.

    A resolved name is bound in ``module``, so later reads never reach
    ``__getattr__``.  In a package, any other name that is a submodule
    imports it, as an ``__init__`` that imported its subtree left every
    submodule readable as an attribute."""
    origins = {name: origin for origin, names in exports.items()
               for name in names}
    namespace = sys.modules[module].__dict__

    def __getattr__(name: str) -> Any:
        origin = origins.get(name)
        if origin is not None:
            value = getattr(_import(origin), name)
            namespace[name] = value
            return value
        if "__path__" in namespace:
            submodule = f"{module}.{name}"
            try:
                return _import(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    def __dir__() -> list:
        return sorted(namespace.keys() | origins.keys())

    return list(origins), __getattr__, __dir__


def _import(module: str) -> Any:
    # the import statement's machinery, which ``python -X importtime``
    # reports; importlib.import_module bypasses it
    __import__(module)
    return sys.modules[module]
