"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package facade declares which submodule provides each public name;
the submodule is imported when a name is first used, not when the
package is.  ``from repro.synthetic import bfs`` keeps working while
``import repro.synthetic.stream`` no longer drags in ``graph500`` and
``scipy.sparse`` (see DESIGN.md, "Import layering").
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(namespace: dict[str, Any], exports: dict[str, tuple[str, ...]]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]],
                            list[str]]:
    """``(__getattr__, __dir__, __all__)`` of the package whose globals
    are ``namespace``.

    ``exports`` maps a submodule path (relative to the package) to the
    names it provides.  A resolved name is stored in ``namespace``, so
    the hook runs once per name.  An exported name must not equal a
    submodule's: the import system binds submodules over it.
    """
    package = namespace["__name__"]
    origin = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{origin[name]}")
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin})

    return __getattr__, __dir__, sorted(origin)
