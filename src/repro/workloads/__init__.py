"""Workload and scenario generation for the experiments.

* :mod:`repro.workloads.patients` — per-peer medical databases matching the
  paper's running example,
* :mod:`repro.workloads.queries` — selection-query workloads over those
  databases,
* :mod:`repro.workloads.scenarios` — the simulation scenarios of Table 3
  (network sizes, query rates, churn model, α sweep),
* :mod:`repro.workloads.registry` — the named-scenario registry the drivers,
  examples and CLI build their sessions from.

Each name loads on first use: ``import repro.workloads`` imports none of its modules.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "patients": "MedicalWorkload build_peer_databases",
    "queries": "QueryWorkload paper_example_query",
    "registry": "ScenarioRegistry default_registry",
    "scenarios": "SimulationScenario table3_parameters",
})

__all__ = [
    "MedicalWorkload",
    "build_peer_databases",
    "QueryWorkload",
    "paper_example_query",
    "SimulationScenario",
    "table3_parameters",
    "ScenarioRegistry",
    "default_registry",
]
