"""S2: ``MessageCounter.to_metrics`` bridges into the registry without
touching the counter's checkpoint payload."""

import copy

from repro.network.messages import MessageType
from repro.network.metrics import MessageCounter
from repro.obs.registry import MetricsRegistry


def _loaded_counter() -> MessageCounter:
    counter = MessageCounter()
    counter.record_type(MessageType.QUERY, 7)
    counter.record_type(MessageType.PUSH, 2)
    counter.record_type(MessageType.QUERY_RESPONSE)
    counter.record_dropped("link loss", 3)
    counter.record_retry(4)
    return counter


def test_to_metrics_exports_every_counter_family():
    counter = _loaded_counter()
    registry = MetricsRegistry()
    counter.to_metrics(registry)

    # Exactly the series a protocol counter can emit: per type, drops, retries.
    assert registry.series_names() == [
        "repro_messages_dropped_total",
        "repro_messages_retries_total",
        "repro_messages_total",
    ]
    assert registry.value("repro_messages_total", type=MessageType.QUERY.value) == 7
    assert registry.value("repro_messages_total", type=MessageType.PUSH.value) == 2
    assert registry.value("repro_messages_total", type=MessageType.QUERY_RESPONSE.value) == 1
    assert registry.value("repro_messages_dropped_total", reason="link loss") == 3
    assert registry.value("repro_messages_retries_total") == 4


def test_bridge_leaves_state_payload_byte_identical():
    """The regression S2 pins: bridging is read-only over the counter."""
    counter = _loaded_counter()
    before = copy.deepcopy(counter.state_payload())
    counter.to_metrics(MetricsRegistry())
    assert counter.state_payload() == before
    # And a clean counter still omits the zero fault-layer keys afterwards.
    clean = MessageCounter()
    clean.record_type(MessageType.QUERY)
    baseline = copy.deepcopy(clean.state_payload())
    clean.to_metrics(MetricsRegistry())
    payload = clean.state_payload()
    assert payload == baseline
    assert "dropped" not in payload
    assert "retries" not in payload


def test_bridge_twice_is_additive_not_idempotent():
    """Documented contract: bridge once per counter lifetime."""
    counter = _loaded_counter()
    registry = MetricsRegistry()
    counter.to_metrics(registry)
    counter.to_metrics(registry)
    assert registry.value("repro_messages_total", type=MessageType.QUERY.value) == 14
