"""``repro.runtime`` — pluggable execution backends for the protocol engine.

The protocol and session layers schedule work through one
:class:`ExecutionBackend` surface; which backend executes it is a knob
(``SystemBuilder().runtime(...)``, ``SimulationScenario(runtime=...)``,
``repro run-scenario --runtime ...``), defaulting to the deterministic
simulator.  See :mod:`repro.runtime.base` for the contract,
:mod:`repro.runtime.simulator` for the reference backend and
:mod:`repro.runtime.concurrent` for the asyncio one.

The ``REPRO_RUNTIME`` environment variable overrides the *default* backend
(used when no explicit runtime is configured) — this is how CI runs the full
tier-1 suite under both backends without touching any call site.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.exceptions import ConfigurationError
from repro.runtime.base import ExecutionBackend, IoModel
from repro.runtime.concurrent import ConcurrentBackend
from repro.runtime.simulator import SimulatorBackend

__all__ = [
    "ConcurrentBackend",
    "ExecutionBackend",
    "IoModel",
    "RUNTIME_ENV_VAR",
    "SimulatorBackend",
    "create_backend",
]

#: Environment override for the default runtime (CI's backend matrix).
RUNTIME_ENV_VAR = "REPRO_RUNTIME"

_NAMES = {
    "simulator": SimulatorBackend,
    "sim": SimulatorBackend,
    "concurrent": ConcurrentBackend,
    "async": ConcurrentBackend,
    "asyncio": ConcurrentBackend,
}

RuntimeSpec = Union[None, str, ExecutionBackend]


def create_backend(spec: RuntimeSpec = None) -> ExecutionBackend:
    """Resolve a runtime spec into a fresh :class:`ExecutionBackend`.

    ``None`` resolves to the default — ``$REPRO_RUNTIME`` when set, the
    simulator otherwise.  A string picks a backend by name (``"simulator"``
    or ``"concurrent"``); an :class:`ExecutionBackend` instance is passed
    through unchanged (the way to hand a backend custom knobs such as an
    ``io_model`` or fan-out limits).
    """
    if spec is None:
        spec = os.environ.get(RUNTIME_ENV_VAR) or "simulator"
    if isinstance(spec, ExecutionBackend):
        return spec
    if isinstance(spec, str):
        backend = _NAMES.get(spec.strip().lower())
        if backend is not None:
            return backend()
    raise ConfigurationError(
        f"unknown runtime {spec!r}: use 'simulator', 'concurrent', or an "
        "ExecutionBackend instance"
    )
