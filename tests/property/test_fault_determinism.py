"""Determinism properties of fault injection.

Two properties gate the whole fault subsystem:

1. *Reproducibility* — the same builder seed plus the same
   :class:`~repro.network.faults.FaultPlan` produce byte-identical runs:
   identical counters, identical injector state, identical answers.
2. *Resumability* — a checkpoint taken mid-partition restores into a session
   that continues exactly like the uninterrupted one, on every store backend
   (in-memory, JSON directory, sqlite) — also when it was written with the
   keys older checkpoints carry (link duplicate / jitter knobs, the fault
   injector's and the maintenance engine's own tallies, the backoff knobs).
"""

import pytest

from repro.core.session import SystemBuilder
from repro.network.faults import FaultPlan, LinkFaults, PartitionEvent
from repro.store import CHECKPOINT_KIND, open_store
from repro.store.backend import owns_backend

PLAN = FaultPlan(
    seed=21,
    link=LinkFaults(drop_probability=0.3),
    partitions=[PartitionEvent(at=300.0, fraction=0.5, heal_at=1800.0)],
)


def _build(seed=17, plan=PLAN):
    builder = (
        SystemBuilder()
        .topology(peer_count=48, seed=seed)
        .planned_content(hit_rate=0.2)
        .seed(seed)
    )
    if plan is not None:
        builder.faults(plan)
    return builder.build()


def _fingerprint(session, answers):
    """Everything observable about a run, comparably serialized."""
    system = session.system
    return {
        "counter": system.counter.state_payload(),
        "faults": system.faults.state_payload() if system.faults else None,
        "rng": system.rng.getstate(),
        "clock": session.simulator.now,
        "answers": [
            (
                a.routing.total_messages,
                sorted(a.routing.responding_peers),
                sorted(a.degradation.unreachable_domains),
                a.degradation.probe_messages,
                a.results,
            )
            for a in answers
        ],
    }


def _drive(session, until=600.0, queries=8):
    session.run_until(until)
    return session.query_batch(count=queries)


class TestReproducibility:
    def test_same_seed_same_plan_is_byte_identical(self):
        runs = []
        for _ in range(2):
            session = _build()
            answers = _drive(session)
            runs.append(_fingerprint(session, answers))
        assert runs[0] == runs[1]

    def test_different_fault_seed_diverges(self):
        # Sanity check that the fingerprint is sensitive at all: a different
        # fault seed draws different losses.
        other = FaultPlan(seed=22, link=PLAN.link, partitions=PLAN.partitions)
        a = _fingerprint(*(lambda s: (s, _drive(s)))(_build()))
        b = _fingerprint(*(lambda s: (s, _drive(s)))(_build(plan=other)))
        assert a["faults"] != b["faults"]


class TestCheckpointMidPartition:
    @pytest.fixture(params=["memory", "json", "sqlite"])
    def target(self, request, tmp_path):
        if request.param == "memory":
            backend = open_store(None)
            yield backend
            backend.close()
        elif request.param == "json":
            yield str(tmp_path / "ckpt")
        else:
            yield str(tmp_path / "ckpt.sqlite")

    def test_restore_continues_identically(self, target):
        # The uninterrupted reference run.
        reference = _build()
        reference.run_until(600.0)
        assert reference.system.faults.partitioned
        ref_answers = _drive(reference, until=2400.0)

        # The checkpointed run: stop mid-partition, persist, restore, continue.
        session = _build()
        session.run_until(600.0)
        assert session.system.faults.partitioned
        session.checkpoint(target, name="mid-partition")

        restored = SystemBuilder.from_checkpoint(target, name="mid-partition")
        assert restored.system.faults is not None
        assert restored.system.faults.partitioned
        res_answers = _drive(restored, until=2400.0)

        assert _fingerprint(restored, res_answers) == _fingerprint(
            reference, ref_answers
        )
        # The partition healed in both continuations (heal_at=1800 < 2400).
        assert not restored.system.faults.partitioned

    def test_older_checkpoint_with_removed_link_keys_continues_identically(
        self, target, with_removed_tallies
    ):
        # Older checkpoints carry three link keys of the duplicate / jitter
        # knobs no protocol path applied, the injector's own fault tally, the
        # two backoff knobs and the maintenance engine's message copies and
        # reconciliation history.  The message counter is the one tally.
        live = _build()
        live.run_until(600.0)
        live.checkpoint(target, name="mid-partition")
        backend = open_store(target)
        try:
            document = with_removed_tallies(
                backend.get(CHECKPOINT_KIND, "mid-partition")
            )
            document["faults"]["plan"]["link"].update(
                {"duplicate_probability": 0.02, "delay_jitter_ms": 25.0}
            )
            assert set(document["faults"]["stats"]) == {
                "messages_dropped",
                "retries",
                "failed_pushes",
                "unreachable_probes",
                "backoff_seconds",
                "messages_duplicated",
            }
            assert document["maintenance"]["history"]
            backend.put(CHECKPOINT_KIND, "older", document)
        finally:
            if owns_backend(target):
                backend.close()

        restored = SystemBuilder.from_checkpoint(target, name="older")
        assert restored.system.faults.plan == PLAN
        assert restored.system.faults.partitioned
        assert restored.config == live.config
        live_answers = _drive(live, until=2400.0)
        res_answers = _drive(restored, until=2400.0)
        assert _fingerprint(restored, res_answers) == _fingerprint(
            live, live_answers
        )
        assert restored.maintenance_report() == live.maintenance_report()
