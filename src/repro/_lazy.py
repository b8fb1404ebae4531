"""Lazy package exports: a package resolves each name on first access.

A package ``__init__`` that re-exports its submodules' names would
otherwise import every submodule, so ``import repro`` would load the
whole library and each command would pay for every other command's
code.  Instead each package declares a name → module map and installs
the PEP 562 ``__getattr__``/``__dir__`` pair built here::

    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
    __all__ = list(_EXPORTS)

The first read of a name imports its defining module and caches the
value in the package's globals, so later reads are plain lookups.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Mapping
from typing import Any

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, namespace: dict[str, Any], exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Return the PEP 562 ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each exported name to the module that defines it.
    A public name outside the map that names a submodule (``repro.obs``
    after a bare ``import repro``, ``repro.engine.delta``) imports that
    submodule, which binds itself on the package as any import does.
    """

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            qualified = f"{package}.{name}"
            try:
                return importlib.import_module(qualified)
            except ModuleNotFoundError as exc:
                if exc.name != qualified:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
