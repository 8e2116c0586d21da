"""Store subsystem benchmarks: checkpoint cost, delta size and snapshot dedup.

``test_checkpoint_roundtrip_throughput`` tracks the raw save/restore cost,
``test_delta_checkpoint_smaller_than_full`` guards a delta checkpoint's size
against a full one at 2000 peers, and ``test_snapshot_dedup`` shows content
addressing collapsing identical hierarchies across peers and checkpoints.
"""

import time

import pytest

from benchmarks.conftest import full_scale
from repro.core.session import SystemBuilder
from repro.database.generator import PatientGenerator
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.saintetiq.hierarchy import SummaryHierarchy
from repro.store import SnapshotStore, SqliteBackend
from repro.workloads.registry import default_registry


def _build(scenario):
    return scenario.apply_dynamics(scenario.builder()).build()


@pytest.mark.benchmark(group="store-roundtrip")
def test_checkpoint_roundtrip_throughput(benchmark, tmp_path):
    """Save + restore cost of a mid-simulation churn-heavy session."""
    scenario = default_registry().scenario(
        "churn-heavy", peer_count=500 if not full_scale() else 2000
    )
    session = _build(scenario)
    session.run_until(0.5 * session.horizon)
    store = SqliteBackend(tmp_path / "roundtrip.sqlite")

    def roundtrip():
        session.checkpoint(store, name="bench")
        return SystemBuilder.from_checkpoint(store, name="bench")

    restored = benchmark(roundtrip)
    assert restored.now == session.now
    benchmark.extra_info["peers"] = scenario.peer_count
    benchmark.extra_info["pending_events"] = session.system.simulator.pending_events
    store.close()


@pytest.mark.benchmark(group="store-delta")
def test_delta_checkpoint_smaller_than_full(benchmark, tmp_path):
    """Bench guard: a delta checkpoint is materially smaller at 2000 peers.

    The guard asserts the size win — a delta must stay well under half the
    full document; in practice it is ~4× smaller, since the 2000-peer overlay
    adjacency dominates a full checkpoint and never changes between nearby
    simulation times — and records both save times (the structural diff costs
    more CPU than one wholesale encode, which is the price of writing 4×
    fewer bytes to storage).
    """
    from repro.store import CHECKPOINT_KIND

    scenario = default_registry().scenario(
        "table3-default", peer_count=2000, duration_seconds=3600.0
    )
    session = _build(scenario)
    session.run_until(0.5 * session.horizon)
    store = SqliteBackend(tmp_path / "delta.sqlite")
    session.checkpoint(store, name="base")

    session.run_until(0.75 * session.horizon)
    t0 = time.perf_counter()
    session.checkpoint(store, name="full")
    full_seconds = time.perf_counter() - t0

    benchmark(lambda: session.checkpoint(store, name="delta", base="base"))

    full_bytes = store.size_bytes(CHECKPOINT_KIND, "full")
    delta_bytes = store.size_bytes(CHECKPOINT_KIND, "delta")
    assert delta_bytes < 0.5 * full_bytes, (
        f"delta checkpoint ({delta_bytes}B) is not materially smaller than "
        f"the full checkpoint ({full_bytes}B) at {scenario.peer_count} peers"
    )
    # And the delta restores to the exact same session as the full document.
    restored = SystemBuilder.from_checkpoint(store, name="delta")
    assert restored.now == session.now

    benchmark.extra_info["peers"] = scenario.peer_count
    benchmark.extra_info["full_bytes"] = full_bytes
    benchmark.extra_info["delta_bytes"] = delta_bytes
    benchmark.extra_info["size_ratio"] = delta_bytes / full_bytes
    benchmark.extra_info["full_save_seconds"] = full_seconds
    stats = getattr(benchmark, "stats", None)
    if stats:
        delta_seconds = stats.stats.mean
        benchmark.extra_info["delta_save_seconds"] = delta_seconds
        print(
            f"\ndelta {delta_bytes}B vs full {full_bytes}B "
            f"({delta_bytes / full_bytes:.1%}); save {delta_seconds:.3f}s vs "
            f"{full_seconds:.3f}s at {scenario.peer_count} peers"
        )
    store.close()


@pytest.mark.benchmark(group="store-dedup")
def test_snapshot_dedup(benchmark, tmp_path):
    """Identical per-peer hierarchies collapse to one stored snapshot."""
    background = medical_background_knowledge()
    records = [r.as_dict() for r in PatientGenerator(seed=2).relation(40)]
    peer_count = 64

    def build_one(owner):
        hierarchy = SummaryHierarchy(
            background, attributes=["age", "bmi"], owner=owner
        )
        hierarchy.add_records(records)
        return hierarchy

    # Same data at every peer but distinct owners: distinct addresses.  The
    # same data under the *same* owner (re-published snapshots): one address.
    store = SnapshotStore(SqliteBackend(tmp_path / "dedup.sqlite"))
    hierarchy = build_one("shared-owner")

    def snapshot_everybody():
        for _peer in range(peer_count):
            store.put_hierarchy(hierarchy)
        return len(store)

    stored = benchmark(snapshot_everybody)
    assert stored == 1  # 64 publications, one stored object
    benchmark.extra_info["publications"] = peer_count
    benchmark.extra_info["stored_snapshots"] = stored
    benchmark.extra_info["stored_bytes"] = store.size_bytes()
    store.backend.close()
