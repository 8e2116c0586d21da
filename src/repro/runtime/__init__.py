"""``repro.runtime`` — the execution backends the protocol engine schedules through.

The protocol and session layers schedule work through one
:class:`ExecutionBackend` surface.  A session runs on the deterministic
simulator unless the caller passes another backend to
``SystemBuilder().runtime(...)`` or ``restore_session(..., runtime=...)``.
See :mod:`repro.runtime.base` for the contract,
:mod:`repro.runtime.simulator` for the reference backend and
:mod:`repro.runtime.concurrent` for the asyncio one, which overlaps only the
wall-clock waits an ``io_model`` charges.
Each name loads on first use: ``import repro.runtime`` imports none of its modules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from repro._lazy import lazy_exports
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.runtime.base import ExecutionBackend

__getattr__, __dir__ = lazy_exports(__name__, {
    "base": "ExecutionBackend IoModel",
    "concurrent": "ConcurrentBackend",
    "simulator": "SimulatorBackend",
})

__all__ = [
    "ConcurrentBackend",
    "ExecutionBackend",
    "IoModel",
    "SimulatorBackend",
    "create_backend",
]

RuntimeSpec = Union[None, str, "ExecutionBackend"]


def create_backend(spec: RuntimeSpec = None) -> ExecutionBackend:
    """Resolve a runtime spec into an :class:`ExecutionBackend`.

    ``None`` is a fresh simulator.  An :class:`ExecutionBackend` instance is
    passed through unchanged (the way to hand a backend knobs such as an
    ``io_model``).  A string must be a backend's own ``name``; names are
    accepted only because the perf harness (``benchmarks/perf``) passes
    ``"simulator"`` and ``"concurrent"`` to ``SystemBuilder.runtime`` and
    ``restore_session``.
    """
    from repro.runtime.base import ExecutionBackend
    from repro.runtime.simulator import SimulatorBackend

    if spec is None or spec == "simulator":
        return SimulatorBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec == "concurrent":
        from repro.runtime.concurrent import ConcurrentBackend

        return ConcurrentBackend()
    raise ConfigurationError(
        f"unknown runtime {spec!r}: use 'simulator', 'concurrent' or an "
        "ExecutionBackend instance"
    )
