"""Shared fixtures: checkpoints the serve tests open read-only."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.session import SystemBuilder
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.store.checkpoint import save_session
from repro.workloads.patients import MedicalWorkload, build_peer_databases
from repro.workloads.registry import default_registry


@pytest.fixture(scope="module")
def planned_store(tmp_path_factory):
    """A planned-content Table-3 style checkpoint (48 peers) in SQLite."""
    scenario = default_registry().scenario(
        "table3-default", peer_count=48, duration_seconds=600.0
    )
    session = scenario.builder().build()
    path = tmp_path_factory.mktemp("serve-planned") / "planned.sqlite"
    save_session(session, str(path))
    return str(path)


def _scenario_store(tmp_path_factory, name, until=None):
    """``repro save-session <name>``: the named scenario, checkpointed at ``until``."""
    scenario = default_registry().scenario(name)
    session = scenario.apply_dynamics(scenario.builder()).build()
    if until is not None:
        session.run_until(until)
    path = tmp_path_factory.mktemp(f"serve-{name}") / f"{name}.sqlite"
    save_session(session, str(path))
    return str(path)


@pytest.fixture(
    scope="module", params=["smoke", "lossy-network", "partition-heal", "real"]
)
def any_store(request, tmp_path_factory):
    """``(store path, background)`` of each checkpoint the purity tests open.

    Between them they carry everything a query may advance: a plan registry
    and RNG (``smoke``), a fault injector whose RNG is drawn per hop
    (``lossy-network``) or a partition whose every unreachable domain is
    charged to the message counter (``partition-heal``, checkpointed
    mid-partition), and a query registry plus lazily loaded hierarchies
    (``real``).
    """
    if request.param == "real":
        return request.getfixturevalue("real_store")
    until = 1800.0 if request.param == "partition-heal" else None
    return _scenario_store(tmp_path_factory, request.param, until), None


@pytest.fixture(scope="module")
def real_store(tmp_path_factory):
    """A real-content checkpoint (16 peers, medical workload) + background.

    Real-content checkpoints persist actual summary hierarchies, which is
    what the lazy-loading assertions need (planned checkpoints carry none).
    """
    overlay = Overlay.generate(TopologyConfig(peer_count=16, seed=3))
    background = medical_background_knowledge()
    workload = MedicalWorkload(records_per_peer=6, matching_fraction=0.25, seed=3)
    databases = build_peer_databases(overlay.peer_ids, workload)
    session = (
        SystemBuilder()
        .topology(overlay)
        .background(background)
        .protocol(ProtocolConfig(superpeer_fraction=1 / 8, construction_ttl=3))
        .real_content(databases)
        .seed(3)
        .build()
    )
    path = tmp_path_factory.mktemp("serve-real") / "real.sqlite"
    save_session(session, str(path))
    return str(path), background
