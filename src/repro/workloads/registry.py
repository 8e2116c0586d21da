"""Named simulation scenarios: one registry, many entry points.

Every experiment driver, example and CLI command used to re-declare its
parameter set inline; the :class:`ScenarioRegistry` gives those parameter sets
names.  A registered scenario is a *factory* returning a
:class:`~repro.workloads.scenarios.SimulationScenario`; callers override
individual fields at lookup time::

    registry = default_registry()
    scenario = registry.scenario("maintenance", peer_count=500, alpha=0.8)
    session = registry.session("table3-default", seed=7)

The module registers the paper's canonical settings (Table 3 defaults, the
single-domain maintenance setting of Figures 4–6, the multi-domain query-cost
setting of Figure 7, plus a few stress variants); projects can register their
own on the default registry or keep private registries.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterator, List, Optional

from repro.core.session import NetworkSession
from repro.exceptions import ConfigurationError
from repro.network.faults import (
    DomainFailureEvent,
    FaultPlan,
    FlashCrowdEvent,
    LinkFaults,
    MassacreEvent,
    PartitionEvent,
)
from repro.workloads.scenarios import SimulationScenario

#: A registered scenario is a zero-argument factory of its base parameters.
ScenarioFactory = Callable[[], SimulationScenario]


@dataclasses.dataclass
class _RegistryEntry:
    factory: ScenarioFactory
    description: str


class ScenarioRegistry:
    """A name → scenario-factory mapping with per-lookup overrides."""

    def __init__(self) -> None:
        self._entries: Dict[str, _RegistryEntry] = {}

    # -- registration ------------------------------------------------------------------

    def register(
        self,
        name: str,
        factory: Optional[ScenarioFactory] = None,
        *,
        description: str = "",
    ) -> Callable[[ScenarioFactory], ScenarioFactory]:
        """Register a scenario factory, directly or as a decorator.

        Re-registering a name replaces the previous entry (latest wins), so
        applications can shadow the built-in scenarios.
        """

        def _register(fn: ScenarioFactory) -> ScenarioFactory:
            self._entries[name] = _RegistryEntry(
                factory=fn, description=description or (fn.__doc__ or "").strip()
            )
            return fn

        if factory is not None:
            return _register(factory)
        return _register

    # -- lookup ------------------------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._entries)

    def describe(self, name: str) -> str:
        return self._entry(name).description

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def _entry(self, name: str) -> _RegistryEntry:
        entry = self._entries.get(name)
        if entry is None:
            known = ", ".join(self.names()) or "<none>"
            raise ConfigurationError(
                f"unknown scenario {name!r}; registered scenarios: {known}"
            )
        return entry

    def scenario(self, name: str, **overrides: object) -> SimulationScenario:
        """Instantiate a named scenario, overriding individual fields."""
        base = self._entry(name).factory()
        if not overrides:
            return base
        field_names = {f.name for f in dataclasses.fields(base)}
        unknown = sorted(set(overrides) - field_names)
        if unknown:
            raise ConfigurationError(
                f"scenario {name!r} has no fields {unknown}; "
                f"overridable fields: {sorted(field_names)}"
            )
        return dataclasses.replace(base, **overrides)  # type: ignore[arg-type]

    # -- session construction ----------------------------------------------------------

    def session(self, name: str, **overrides: object) -> NetworkSession:
        """Build a multi-domain :class:`NetworkSession` for a named scenario.

        The session has none of the scenario's churn or modifications (see
        :meth:`SimulationScenario.session`); ``session("churn-heavy")`` has
        no churn.  Use ``scenario(name).apply_dynamics(...)`` for them.
        """
        return self.scenario(name, **overrides).session()



_DEFAULT_REGISTRY: Optional[ScenarioRegistry] = None


def default_registry() -> ScenarioRegistry:
    """The process-wide registry, pre-populated with the paper's scenarios."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = ScenarioRegistry()
        _register_builtin_scenarios(_DEFAULT_REGISTRY)
    return _DEFAULT_REGISTRY


def _register_builtin_scenarios(registry: ScenarioRegistry) -> None:
    registry.register(
        "table3-default",
        lambda: SimulationScenario(),
        description="The evaluation defaults of Table 3: 500 peers, α=0.3, "
        "10 % query hit rate, 6 h horizon.",
    )
    registry.register(
        "smoke",
        lambda: SimulationScenario(
            peer_count=32, duration_seconds=3600.0, query_count=20
        ),
        description="A 32-peer, 1 h miniature for quick end-to-end checks.",
    )
    registry.register(
        "maintenance",
        lambda: SimulationScenario(peer_count=100),
        description="Single-domain maintenance base of Figures 4–6 "
        "(build with single_domain_builder; sweep peer_count/alpha).",
    )
    registry.register(
        "query-cost",
        lambda: SimulationScenario(peer_count=500, query_count=50),
        description="Multi-domain query-cost base of Figure 7 "
        "(sweep peer_count; SQ vs flooding vs centralized).",
    )
    registry.register(
        "churn-heavy",
        lambda: SimulationScenario(
            lifetime_mean_seconds=3600.0,
            lifetime_median_seconds=1200.0,
            downtime_seconds=300.0,
            graceful_fraction=0.7,
        ),
        description="Short skewed lifetimes (mean 1 h, median 20 min), many "
        "silent failures: stresses reconciliation.",
    )
    registry.register(
        "high-freshness",
        lambda: SimulationScenario(alpha=0.1),
        description="Aggressive reconciliation (α=0.1): fresh answers at a "
        "higher maintenance cost.",
    )
    registry.register(
        "lazy-maintenance",
        lambda: SimulationScenario(alpha=0.8),
        description="Lazy reconciliation (α=0.8): cheap maintenance, more "
        "stale answers.",
    )
    _register_adversity_scenarios(registry)


#: Shared sizing of the named adversity scenarios: big enough for several
#: domains, small enough for CI's chaos matrix.
_ADVERSITY_PEERS = 96
_ADVERSITY_DURATION = 2 * 3600.0
_ADVERSITY_QUERIES = 30


def _adversity_scenario(plan: FaultPlan) -> SimulationScenario:
    return SimulationScenario(
        peer_count=_ADVERSITY_PEERS,
        duration_seconds=_ADVERSITY_DURATION,
        query_count=_ADVERSITY_QUERIES,
        fault_plan=plan,
    )


def _register_adversity_scenarios(registry: ScenarioRegistry) -> None:
    """The named adversity scenarios of the robustness evaluation.

    Each bundles the Table 3 style workload with one seeded
    :class:`~repro.network.faults.FaultPlan`; the protocol must keep returning
    (possibly degraded, always *marked*) answers under every one of them.
    """
    registry.register(
        "partition-heal",
        lambda: _adversity_scenario(
            FaultPlan(
                seed=1,
                partitions=[PartitionEvent(at=1800.0, fraction=0.5, heal_at=4800.0)],
            )
        ),
        description="The network splits in half after 30 min and re-merges "
        "50 min later: queries on either side must come back marked partial.",
    )
    registry.register(
        "flash-crowd",
        lambda: _adversity_scenario(
            FaultPlan(seed=2, flash_crowds=[FlashCrowdEvent(at=3600.0)])
        ),
        description="Every offline peer rejoins at once after 1 h: stresses "
        "join handling and domain (re)construction.",
    )
    registry.register(
        "massacre",
        lambda: _adversity_scenario(
            FaultPlan(
                seed=3,
                massacres=[
                    MassacreEvent(at=1800.0, fraction=0.5, rejoin_after=1200.0)
                ],
            )
        ),
        description="Half the summary peers fail silently at 30 min and "
        "rejoin 20 min later: exercises store-backed domain reclamation.",
    )
    registry.register(
        "lossy-network",
        lambda: _adversity_scenario(
            FaultPlan(
                seed=4,
                link=LinkFaults(drop_probability=0.1),
            )
        ),
        description="Every link drops 10 % of messages: bounded retries must "
        "cap the overhead.",
    )
    registry.register(
        "domain-collapse",
        lambda: _adversity_scenario(
            FaultPlan(seed=5, domain_failures=[DomainFailureEvent(at=1800.0, count=2)])
        ),
        description="Two whole domains fail at 30 min (summary peer and "
        "partners together): correlated failure, not independent churn.",
    )


#: Names of the built-in adversity scenarios (the CI chaos matrix runs these).
ADVERSITY_SCENARIOS = [
    "partition-heal",
    "flash-crowd",
    "massacre",
    "lossy-network",
    "domain-collapse",
]
