"""Lazy package exports (PEP 562): import a module when a name is first read.

A package lists its public names once, in a table from defining module
to names, and hands the table to :func:`lazy_exports`.  ``import repro``
then costs one small module; ``repro.simulate`` imports
:mod:`repro.simulation` on first access and caches the object in the
package namespace, so later reads are plain attribute lookups.
"""

from __future__ import annotations

from collections.abc import Callable
from importlib import import_module
from typing import Any

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: dict[str, Any], table: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package owning ``namespace``.

    ``table`` maps each defining module to the names the package
    re-exports from it.  ``__getattr__`` also returns any submodule of
    the package by name (``repro.obs`` after a bare ``import repro``).
    """
    package = namespace["__name__"]
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name in owner:
            value = getattr(import_module(owner[name]), name)
        else:
            try:
                value = import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *owner})

    return list(owner), __getattr__, __dir__
