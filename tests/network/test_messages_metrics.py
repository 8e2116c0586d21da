"""Unit tests for traffic accounting."""

import pytest

from repro.network import messages
from repro.network.messages import MessageType
from repro.network.metrics import MessageCounter, TrafficReport


class TestMessageCounter:
    def test_record_and_count(self):
        counter = MessageCounter()
        counter.record_type(MessageType.PUSH)
        counter.record_type(MessageType.PUSH)
        counter.record_type(MessageType.QUERY)
        assert counter.count(MessageType.PUSH) == 2
        assert counter.count() == 3
        assert counter.total == 3

    def test_record_type_without_message(self):
        counter = MessageCounter()
        counter.record_type(MessageType.RECONCILIATION, 5)
        assert counter.count(MessageType.RECONCILIATION) == 5

    def test_count_types(self):
        counter = MessageCounter()
        counter.record_type(MessageType.PUSH, 2)
        counter.record_type(MessageType.QUERY, 3)
        assert counter.count_types([MessageType.PUSH, MessageType.QUERY]) == 5

    def test_merge(self):
        first, second = MessageCounter(), MessageCounter()
        first.record_type(MessageType.PUSH, 1)
        second.record_type(MessageType.PUSH, 2)
        first.merge(second)
        assert first.count(MessageType.PUSH) == 3

    def test_reset(self):
        counter = MessageCounter()
        counter.record_type(MessageType.PUSH, 4)
        counter.reset()
        assert counter.total == 0

    def test_reset_clears_drops_and_retries(self):
        counter = MessageCounter()
        counter.record_dropped("partitioned", 2)
        counter.record_retry(3)
        counter.reset()
        assert counter.dropped_total == 0
        assert counter.retry_total == 0

    def test_merge_carries_drops_and_retries(self):
        first, second = MessageCounter(), MessageCounter()
        first.record_dropped("message loss", 1)
        second.record_dropped("message loss", 2)
        second.record_dropped("partitioned", 1)
        second.record_retry(4)
        first.merge(second)
        assert first.dropped_by_reason() == {"message loss": 3, "partitioned": 1}
        assert first.retry_total == 4

    def test_unspecified_drop_reason(self):
        counter = MessageCounter()
        counter.record_dropped()
        assert counter.dropped_by_reason() == {"unspecified": 1}

    def test_unrecorded_type_counts_zero(self):
        assert MessageCounter().count(MessageType.FLOOD_QUERY) == 0

    def test_by_type_is_a_copy(self):
        counter = MessageCounter()
        counter.record_type(MessageType.PUSH, 2)
        counter.by_type()[MessageType.PUSH] = 99
        assert counter.count(MessageType.PUSH) == 2

    def test_record_type_never_hashes_a_message_type(self, monkeypatch):
        """The per-message path pays no Python-level ``Enum.__hash__``."""
        hashed = []
        enum_hash = MessageType.__hash__
        monkeypatch.setattr(
            MessageType, "__hash__", lambda member: hashed.append(member) or enum_hash(member)
        )
        counter = MessageCounter()
        order = [MessageType.QUERY, MessageType.PUSH, MessageType.SUMPEER]
        for message_type in order + order:
            counter.record_type(message_type)
            counter.record_type(message_type, 2)
        assert hashed == []
        # First-recorded order is kept, in the tally and in its payload.
        assert list(counter.by_type()) == order
        assert list(counter.state_payload()["by_type"].items()) == [
            ("query", 6), ("push", 6), ("sumpeer", 6)
        ]

    @pytest.mark.parametrize(
        "name",
        ["record", "by_sender", "total_bytes", "record_duplicate", "duplicate_total"],
    )
    def test_no_per_message_surface(self, name):
        assert not hasattr(MessageCounter(), name)


class TestCounterPayload:
    def test_legacy_keys_are_constant(self):
        # Every checkpoint ever written holds these two values.
        counter = MessageCounter()
        assert counter.state_payload()["by_sender"] == {}
        assert counter.state_payload()["bytes"] == 0
        counter.record_type(MessageType.QUERY, 12)
        counter.record_dropped("message loss")
        assert counter.state_payload()["by_sender"] == {}
        assert counter.state_payload()["bytes"] == 0

    def test_zero_counter_payload(self):
        assert MessageCounter().state_payload() == {
            "by_type": {},
            "by_sender": {},
            "bytes": 0,
        }

    def test_roundtrip_every_type(self):
        counter = MessageCounter()
        for index, message_type in enumerate(MessageType, start=1):
            counter.record_type(message_type, index)
        restored = MessageCounter.from_state(counter.state_payload())
        assert restored.by_type() == counter.by_type()
        assert restored.state_payload() == counter.state_payload()

    def test_from_state_ignores_older_sender_and_bytes(self):
        payload = {
            "by_type": {"push": 3},
            "by_sender": {"p1": 3},
            "bytes": 384,
        }
        restored = MessageCounter.from_state(payload)
        assert restored.by_type() == {MessageType.PUSH: 3}
        assert restored.state_payload()["by_sender"] == {}
        assert restored.state_payload()["bytes"] == 0


def test_messages_module_defines_no_message_class():
    assert not hasattr(messages, "Message")


class TestTrafficReport:
    def test_per_node_and_per_second(self):
        counter = MessageCounter()
        counter.record_type(MessageType.PUSH, 100)
        report = TrafficReport.from_counter(counter, duration_seconds=50, peer_count=10)
        assert report.total_messages == 100
        assert report.messages_per_node == pytest.approx(10.0)
        assert report.messages_per_node_per_second == pytest.approx(0.2)

    def test_filter_by_message_type(self):
        counter = MessageCounter()
        counter.record_type(MessageType.PUSH, 10)
        counter.record_type(MessageType.QUERY, 90)
        report = TrafficReport.from_counter(
            counter, 10, 10, message_types=[MessageType.PUSH]
        )
        assert report.total_messages == 10
        assert report.by_type[MessageType.PUSH] == 10

    def test_unfiltered_report_carries_every_type(self):
        counter = MessageCounter()
        counter.record_type(MessageType.PUSH, 10)
        counter.record_type(MessageType.QUERY, 90)
        report = TrafficReport.from_counter(counter, 10, 10)
        assert report.total_messages == 100
        assert report.by_type == {MessageType.PUSH: 10, MessageType.QUERY: 90}

    def test_zero_peers_and_duration(self):
        report = TrafficReport(total_messages=5, duration_seconds=0, peer_count=0)
        assert report.messages_per_node == 0.0
        assert report.messages_per_node_per_second == 0.0
