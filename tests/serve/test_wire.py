"""Wire codec: lossless-for-equality round trips through real JSON."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import DomainQueryOutcome, QueryRoutingResult, RoutingPolicy
from repro.core.session import QueryAnswer
from repro.exceptions import ServeError
from repro.serve import wire
from repro.store.checkpoint import restore_session
from repro.workloads.queries import paper_example_query


def _json_trip(payload):
    """Force an actual JSON round trip (tuples -> lists, key stringification)."""
    return json.loads(json.dumps(payload))


def test_planned_answer_round_trip(planned_store):
    answers = restore_session(planned_store).query_batch(
        count=4, required_results=5, include_staleness=True
    )
    for answer in answers:
        payload = _json_trip(wire.encode_answer(answer))
        assert wire.decode_answer(payload) == answer


def test_real_answer_with_approximate_round_trip(real_store):
    path, background = real_store
    query = paper_example_query()
    answer = restore_session(path, background=background).query(
        query=query, include_answer=True
    )
    assert answer.answer is not None, "the paper query must produce an answer"
    payload = _json_trip(wire.encode_answer(answer))
    decoded = wire.decode_answer(payload)
    assert decoded == answer
    # frozenset-typed labels must survive: equality on AnswerClass depends on it
    first = decoded.answer.classes[0]
    assert all(isinstance(labels, frozenset) for _, labels in first.interpretation)


def test_query_round_trip(real_store):
    query = paper_example_query()
    assert wire.decode_query(_json_trip(wire.encode_query(query))) == query


def test_staleness_round_trip(planned_store):
    snapshot = restore_session(planned_store).staleness()
    assert wire.decode_staleness(_json_trip(wire.encode_staleness(snapshot))) == snapshot


def test_batch_decode_helper(planned_store):
    answers = restore_session(planned_store).query_batch(count=3, required_results=5)
    payloads = _json_trip([wire.encode_answer(a) for a in answers])
    assert wire.decode_answers(payloads) == answers


def test_malformed_answer_payload_raises_serve_error():
    with pytest.raises(ServeError):
        wire.decode_answer({"routing": {}})


def test_malformed_query_payload_raises_serve_error():
    with pytest.raises(ServeError):
        wire.decode_query({"not": "a query"})


# -- the domain outcome array -----------------------------------------------------

_PEERS = st.sets(st.sampled_from([f"p{index}" for index in range(12)]))


@st.composite
def outcomes(draw):
    """Outcomes whose ``contacted`` / ``responding`` may equal their predecessor."""
    relevant = draw(_PEERS)
    contacted = set(relevant) if draw(st.booleans()) else draw(_PEERS)
    responding = set(contacted) if draw(st.booleans()) else draw(_PEERS)
    return DomainQueryOutcome(
        domain_id=draw(st.sampled_from(["sp0", "sp1", "sp2"])),
        relevant_peers=relevant,
        contacted_peers=contacted,
        responding_peers=responding,
        false_negatives=draw(_PEERS),
        messages=draw(st.integers(min_value=0, max_value=500)),
    )


def _answer_with(domain_outcomes):
    return QueryAnswer(
        routing=QueryRoutingResult(
            query_id=7,
            originator="p0",
            policy=RoutingPolicy.RECALL,
            domain_outcomes=list(domain_outcomes),
            total_messages=11,
        )
    )


@given(st.lists(outcomes(), max_size=4))
@settings(max_examples=200, deadline=None)
def test_outcome_arrays_round_trip_through_json(domain_outcomes):
    answer = _answer_with(domain_outcomes)
    payload = _json_trip(wire.encode_answer(answer))
    encoded = payload["routing"]["domain_outcomes"]
    for outcome, array in zip(domain_outcomes, encoded):
        assert array[1] == sorted(outcome.relevant_peers)
        same_contacted = outcome.contacted_peers == outcome.relevant_peers
        assert (array[2] is None) == same_contacted
        same_responding = outcome.responding_peers == outcome.contacted_peers
        assert (array[3] is None) == same_responding
    decoded = wire.decode_answer(payload)
    assert decoded == answer
    for outcome, original in zip(decoded.routing.domain_outcomes, domain_outcomes):
        assert outcome.false_positives == original.false_positives
        peer_sets = (
            outcome.relevant_peers,
            outcome.contacted_peers,
            outcome.responding_peers,
            outcome.false_negatives,
        )
        assert len({id(peers) for peers in peer_sets}) == 4


def test_a_decoded_null_set_is_a_copy_not_an_alias():
    outcome = DomainQueryOutcome(
        domain_id="sp0",
        relevant_peers={"p1", "p2"},
        contacted_peers={"p1", "p2"},
        responding_peers={"p1", "p2"},
        messages=5,
    )
    payload = _json_trip(wire.encode_answer(_answer_with([outcome])))
    assert payload["routing"]["domain_outcomes"][0][2:4] == [None, None]
    decoded = wire.decode_answer(payload).routing.domain_outcomes[0]
    decoded.contacted_peers.add("p9")
    assert decoded.relevant_peers == {"p1", "p2"}
    assert decoded.responding_peers == {"p1", "p2"}
    decoded.responding_peers.discard("p1")
    assert decoded.contacted_peers == {"p1", "p2", "p9"}


def _outcome_payload(corrupt):
    outcome = DomainQueryOutcome(
        domain_id="sp0", relevant_peers={"p1"}, contacted_peers={"p1", "p2"}
    )
    payload = _json_trip(wire.encode_answer(_answer_with([outcome])))
    outcomes_payload = payload["routing"]["domain_outcomes"]
    outcomes_payload[0] = corrupt(outcomes_payload[0])
    return payload


def _non_list_relevant(value):
    def corrupt(array):
        array[1] = value
        return array

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda array: array[:3], id="truncated"),
        pytest.param(lambda array: [], id="empty"),
        pytest.param(
            lambda array: {
                "domain_id": "sp0",
                "relevant_peers": ["p1"],
                "contacted_peers": ["p1", "p2"],
                "responding_peers": [],
                "false_positives": ["p1", "p2"],
                "false_negatives": [],
                "messages": 0,
            },
            id="old-object-shape",
        ),
        pytest.param(lambda array: None, id="null-outcome"),
        pytest.param(_non_list_relevant("p1"), id="string-relevant"),
        pytest.param(_non_list_relevant({"p1": 1}), id="object-relevant"),
        pytest.param(_non_list_relevant(3), id="number-relevant"),
    ],
)
def test_a_malformed_outcome_fails_typed(corrupt):
    with pytest.raises(ServeError, match="malformed answer payload"):
        wire.decode_answer(_outcome_payload(corrupt))
