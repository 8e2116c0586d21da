"""PEP 562 exports: a package's public names load on first access.

``lazy_exports(__name__, {"domain": "Domain"})`` in ``repro.core`` imports
``repro.core.domain`` when ``repro.core.Domain`` is first asked for and caches
the name; a submodule stays an attribute (``repro.core.session``).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Tuple


def lazy_exports(package: str, exports: Mapping[str, str]) -> Tuple[Callable, Callable]:
    """``__getattr__`` and ``__dir__`` for ``package``; ``exports`` maps a
    submodule (relative to it) to the space-separated names it defines."""
    where = {n: f"{package}.{m}" for m, names in exports.items() for n in names.split()}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name in where:
            value = namespace[name] = getattr(importlib.import_module(where[name]), name)
            return value
        try:  # a submodule, an attribute as when the __init__ imported it
            return importlib.import_module(f"{package}.{name}")
        except ModuleNotFoundError as error:
            if error.name != f"{package}.{name}":
                raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
