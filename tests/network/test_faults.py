"""Unit tests for repro.network.faults."""

import dataclasses

import pytest

from repro.exceptions import ConfigurationError
from repro.network.faults import (
    DomainFailureEvent,
    FaultInjector,
    FaultPlan,
    FlashCrowdEvent,
    LinkFaults,
    MassacreEvent,
    PartitionEvent,
)
from repro.network.messages import MessageType
from repro.network.metrics import MessageCounter
from repro.obs import Observability


class TestPlanValidation:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ConfigurationError):
            LinkFaults(drop_probability=1.5)
        with pytest.raises(ConfigurationError):
            LinkFaults(drop_probability=-0.1)

    def test_rejects_heal_before_split(self):
        with pytest.raises(ConfigurationError):
            PartitionEvent(at=100.0, heal_at=50.0)

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            DomainFailureEvent(at=0.0, count=0)
        with pytest.raises(ConfigurationError):
            MassacreEvent(at=0.0, rejoin_after=0.0)
        with pytest.raises(ConfigurationError):
            FlashCrowdEvent(at=0.0, rejoin_count=-1)

    def test_link_probability_bounds_accepted(self):
        assert LinkFaults(drop_probability=0.0).any is False
        assert LinkFaults(drop_probability=1.0).any is True

    @pytest.mark.parametrize("knob", ["duplicate_probability", "delay_jitter_ms"])
    def test_removed_link_knobs_rejected(self, knob):
        with pytest.raises(TypeError):
            LinkFaults(**{knob: 0.1})

    def test_rejects_bad_fractions(self):
        with pytest.raises(ConfigurationError):
            PartitionEvent(at=1.0, fraction=1.5)
        with pytest.raises(ConfigurationError):
            MassacreEvent(at=1.0, fraction=-0.1)

    @pytest.mark.parametrize(
        "event_type",
        [PartitionEvent, DomainFailureEvent, MassacreEvent, FlashCrowdEvent],
    )
    def test_rejects_negative_times(self, event_type):
        with pytest.raises(ConfigurationError):
            event_type(at=-1.0)

    def test_zero_rejoin_count_allowed(self):
        assert FlashCrowdEvent(at=0.0, rejoin_count=0).rejoin_count == 0

    def test_any_faults(self):
        assert FaultPlan().any_faults() is False
        assert FaultPlan(link=LinkFaults(drop_probability=0.1)).any_faults()
        assert FaultPlan(partitions=[PartitionEvent(at=1.0)]).any_faults()

    @pytest.mark.parametrize(
        "events",
        [
            {"domain_failures": [DomainFailureEvent(at=1.0)]},
            {"massacres": [MassacreEvent(at=1.0)]},
            {"flash_crowds": [FlashCrowdEvent(at=1.0)]},
        ],
        ids=["domain_failures", "massacres", "flash_crowds"],
    )
    def test_any_faults_per_event_kind(self, events):
        assert FaultPlan(**events).any_faults()

    def test_lists_are_normalised_to_tuples(self):
        plan = FaultPlan(
            partitions=[PartitionEvent(at=1.0, groups=[["a"], ["b", "c"]])],
            massacres=[MassacreEvent(at=2.0)],
        )
        assert isinstance(plan.partitions, tuple)
        assert isinstance(plan.partitions[0].groups[0], tuple)
        # asdict-able: session caches key scenarios by dataclasses.asdict.
        payload = dataclasses.asdict(plan)
        assert payload["partitions"][0]["at"] == 1.0


class TestPlanPayload:
    def test_roundtrip(self):
        plan = FaultPlan(
            seed=7,
            link=LinkFaults(drop_probability=0.1),
            partitions=[
                PartitionEvent(at=10.0, fraction=0.3, heal_at=50.0),
                PartitionEvent(at=60.0, groups=[["a", "b"], ["c"]]),
            ],
            domain_failures=[DomainFailureEvent(at=5.0, count=2)],
            massacres=[MassacreEvent(at=9.0, fraction=0.25, rejoin_after=30.0)],
            flash_crowds=[FlashCrowdEvent(at=99.0, rejoin_count=4)],
        )
        assert FaultPlan.from_payload(plan.to_payload()) == plan

    def test_empty_roundtrip(self):
        assert FaultPlan.from_payload(FaultPlan().to_payload()) == FaultPlan()

    def test_link_payload_holds_only_the_drop_probability(self):
        payload = FaultPlan(link=LinkFaults(drop_probability=0.25)).to_payload()
        assert payload["link"] == {"drop_probability": 0.25}

    def test_from_payload_ignores_older_link_keys(self):
        plan = FaultPlan(seed=4, link=LinkFaults(drop_probability=0.1))
        payload = plan.to_payload()
        payload["link"].update({"duplicate_probability": 0.02, "delay_jitter_ms": 25.0})
        assert FaultPlan.from_payload(payload) == plan

    def test_from_payload_of_empty_payload_is_default_plan(self):
        assert FaultPlan.from_payload({}) == FaultPlan()


class TestFaultInjector:
    def test_partition_reachability(self):
        injector = FaultInjector(FaultPlan())
        assert injector.partitioned is False
        injector.set_partition([["a", "b"], ["c"]])
        assert injector.partitioned
        assert injector.reachable("a", "b")
        assert not injector.reachable("a", "c")
        # Peers outside every group (joined after the split) reach everyone.
        assert injector.reachable("a", "newcomer")
        injector.clear_partition()
        assert injector.reachable("a", "c")

    def test_partition_groups_sorted(self):
        injector = FaultInjector(FaultPlan())
        injector.set_partition([["b", "a"], ["c"]])
        assert injector.partition_groups() == [["a", "b"], ["c"]]

    def test_partitioned_delivery_draws_nothing(self):
        injector = FaultInjector(FaultPlan(seed=3))
        injector.set_partition([["a"], ["b"]])
        before = injector.rng.getstate()
        delivered, retries = injector.attempt_delivery("a", "b", max_retries=2)
        assert delivered is False
        assert retries == 2
        assert injector.rng.getstate() == before

    def test_clean_link_delivery_draws_nothing(self):
        injector = FaultInjector(FaultPlan(seed=3))
        before = injector.rng.getstate()
        assert injector.attempt_delivery("a", "b", max_retries=5) == (True, 0)
        assert injector.rng.getstate() == before

    def test_lossy_delivery_retries_deterministically(self):
        plan = FaultPlan(seed=11, link=LinkFaults(drop_probability=0.5))
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        outcomes_a = [first.attempt_delivery("a", "b", 3) for _ in range(50)]
        outcomes_b = [second.attempt_delivery("a", "b", 3) for _ in range(50)]
        assert outcomes_a == outcomes_b
        assert any(retries for _ok, retries in outcomes_a)

    def test_certain_loss_exhausts_budget(self):
        injector = FaultInjector(FaultPlan(link=LinkFaults(drop_probability=1.0)))
        delivered, retries = injector.attempt_delivery("a", "b", max_retries=4)
        assert delivered is False
        assert retries == 4

    def test_state_roundtrip_mid_stream(self):
        plan = FaultPlan(seed=5, link=LinkFaults(drop_probability=0.3))
        injector = FaultInjector(plan)
        for _ in range(7):
            injector.attempt_delivery("a", "b", 2)
        injector.set_partition([["a"], ["b"]])
        restored = FaultInjector.from_state(injector.state_payload())
        assert restored.plan == injector.plan
        assert restored.partition_groups() == injector.partition_groups()
        # Continuation draws match exactly.
        assert [restored.rng.random() for _ in range(5)] == [
            injector.rng.random() for _ in range(5)
        ]

    def test_lossy_flag_follows_drop_probability(self):
        assert FaultInjector(FaultPlan()).lossy is False
        lossy = FaultInjector(FaultPlan(link=LinkFaults(drop_probability=0.1)))
        assert lossy.lossy is True

    def test_send_over_clean_links_charges_and_draws_nothing(self):
        injector = FaultInjector(FaultPlan(seed=3))
        counter = MessageCounter()
        before = injector.rng.getstate()
        sent = injector.send(MessageType.QUERY, "a", ["b", "c"], 4, counter)
        assert sent == ({"b", "c"}, set(), 0)
        assert counter.count(MessageType.QUERY) == 2
        assert counter.dropped_total == counter.retry_total == 0
        assert injector.rng.getstate() == before

    def test_send_cuts_partitioned_destinations_without_retry(self):
        injector = FaultInjector(FaultPlan(seed=3))
        injector.set_partition([["a", "a2"], ["b1", "b2"]])
        counter, obs = MessageCounter(), Observability()
        before = injector.rng.getstate()
        sent = injector.send(
            MessageType.RECONCILIATION, "a", ["a2", "b1", "b2"], 4, counter, obs
        )
        assert sent == ({"a2"}, set(), 0)
        # Every first attempt is charged, the two cut ones as drops too.
        assert counter.count(MessageType.RECONCILIATION) == 3
        assert counter.dropped_by_reason() == {"partitioned": 2}
        assert counter.retry_total == 0
        assert obs.metrics.counter_series("repro_fault_dropped_total") == {
            (("reason", "partitioned"),): 2
        }
        assert injector.rng.getstate() == before

    def test_send_retries_a_partitioned_link_to_the_budget_when_asked(self):
        injector = FaultInjector(FaultPlan(seed=3))
        injector.set_partition([["a"], ["b"]])
        counter, obs = MessageCounter(), Observability()
        sent = injector.send(
            MessageType.PUSH, "a", ["b"], 2, counter, obs, retry_partitioned=True
        )
        assert sent == (set(), {"b"}, 2)
        assert counter.count(MessageType.PUSH) == 3
        assert counter.dropped_by_reason() == {"partitioned": 3}
        assert counter.retry_total == 2
        assert obs.metrics.counter_series("repro_push_retries_total") == {(): 2}

    def test_send_over_lossy_links_charges_every_lost_attempt(self):
        injector = FaultInjector(FaultPlan(link=LinkFaults(drop_probability=1.0)))
        counter, obs = MessageCounter(), Observability()
        sent = injector.send(MessageType.QUERY, "a", ["c", "b"], 3, counter, obs)
        assert sent == (set(), {"b", "c"}, 6)
        assert counter.count(MessageType.QUERY) == 8
        assert counter.dropped_by_reason() == {"link loss": 8}
        assert counter.retry_total == 6
        assert obs.metrics.counter_series("repro_fault_dropped_total") == {
            (("reason", "link loss"),): 8
        }
        assert obs.metrics.counter_series("repro_query_retries_total") == {(): 6}

    def test_send_charges_a_given_count_plus_the_retries(self):
        # A ring is charged its cost, a query's hops only their retries.
        injector = FaultInjector(FaultPlan(link=LinkFaults(drop_probability=1.0)))
        counter = MessageCounter()
        injector.send(MessageType.RECONCILIATION, "a", ["b", "c"], 1, counter, count=3)
        injector.send(MessageType.QUERY, "a", ["b"], 2, counter, count=0)
        injector.send(MessageType.RELEASE, "a", [], 2, counter)
        assert counter.by_type() == {
            MessageType.RECONCILIATION: 3 + 2,
            MessageType.QUERY: 2,
            MessageType.RELEASE: 0,
        }
        assert counter.retry_total == 4

    def test_negative_retry_budget_means_one_attempt(self):
        injector = FaultInjector(FaultPlan(link=LinkFaults(drop_probability=1.0)))
        assert injector.attempt_delivery("a", "b", max_retries=-3) == (False, 0)

    def test_lossy_outcomes_stay_within_the_budget(self):
        injector = FaultInjector(
            FaultPlan(seed=9, link=LinkFaults(drop_probability=0.4))
        )
        outcomes = [injector.attempt_delivery("a", "b", 2) for _ in range(200)]
        # A delivery used at most the budget; a loss used all of it.
        assert all(0 <= retries <= 2 for _ok, retries in outcomes)
        assert all(retries == 2 for delivered, retries in outcomes if not delivered)
        assert {delivered for delivered, _retries in outcomes} == {True, False}

    def test_scratch_copy_leaves_the_original_untouched(self):
        plan = FaultPlan(seed=2, link=LinkFaults(drop_probability=0.5))
        injector = FaultInjector(plan)
        injector.set_partition([["a", "b"], ["c"]])
        before_rng = injector.rng.getstate()
        twin = injector.scratch_copy()
        outcomes = [twin.attempt_delivery("a", "b", 3) for _ in range(20)]
        assert injector.rng.getstate() == before_rng
        assert twin.partition_groups() == injector.partition_groups()
        # Every twin starts from the original's stream position.
        again = injector.scratch_copy()
        assert [again.attempt_delivery("a", "b", 3) for _ in range(20)] == outcomes

    def test_from_state_accepts_older_payload(self):
        plan = FaultPlan(seed=5, link=LinkFaults(drop_probability=0.3))
        injector = FaultInjector(plan)
        for _ in range(4):
            injector.attempt_delivery("a", "b", 1)
        payload = injector.state_payload()
        payload["plan"]["link"].update(
            {"duplicate_probability": 0.02, "delay_jitter_ms": 25.0}
        )
        # The tally older injectors kept beside the message counter.
        payload["stats"] = {
            "messages_dropped": 3,
            "retries": 2,
            "failed_pushes": 1,
            "unreachable_probes": 0,
            "backoff_seconds": 6.0,
            "messages_duplicated": 0,
        }
        restored = FaultInjector.from_state(payload)
        assert restored.plan == plan
        assert not hasattr(restored, "stats")
        assert [restored.attempt_delivery("a", "b", 1) for _ in range(10)] == [
            injector.attempt_delivery("a", "b", 1) for _ in range(10)
        ]

    @pytest.mark.parametrize(
        "name", ["duplicating", "jittery", "draw_duplicate", "draw_jitter_ms"]
    )
    def test_no_duplicate_or_jitter_surface(self, name):
        assert not hasattr(FaultInjector(FaultPlan()), name)

    def test_injector_keeps_no_tally(self):
        injector = FaultInjector()
        injector.attempt_delivery("a", "b", 2)
        assert not hasattr(injector, "stats")
        assert "stats" not in injector.state_payload()


class TestCounterFaultColumns:
    def test_state_payload_omits_zero_fault_keys(self):
        payload = MessageCounter().state_payload()
        assert "dropped" not in payload
        assert "retries" not in payload

    def test_state_payload_roundtrips_fault_keys(self):
        counter = MessageCounter()
        counter.record_dropped("message loss", 3)
        counter.record_dropped("partitioned")
        counter.record_retry(5)
        restored = MessageCounter.from_state(counter.state_payload())
        assert restored.dropped_total == 4
        assert restored.dropped_by_reason() == {"message loss": 3, "partitioned": 1}
        assert restored.retry_total == 5
