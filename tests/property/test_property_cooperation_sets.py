"""Property: the cooperation list's maintained sets equal a scan of its entries.

``CooperationList`` keeps ``P_old`` and its partner-id set as state, updated
by every mutator.  The scan that used to produce them lives here as the
oracle: after every step of a random mutation sequence, in both freshness
modes, and again after a checkpoint payload round trip, the maintained sets,
``old_partners()``, ``fresh_partners()`` and ``old_fraction()`` must equal
what a fresh pass over the entries gives.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cooperation import CooperationList
from repro.core.domain import Domain
from repro.core.freshness import Freshness, FreshnessMode
from repro.store.checkpoint import _domain_from_payload, _domain_payload

PEERS = [f"p{index}" for index in range(8)]
peer = st.sampled_from(PEERS)
now = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), peer, st.sampled_from(list(Freshness)), now),
        st.tuples(st.just("remove"), peer, st.none(), now),
        st.tuples(st.just("set"), peer, st.sampled_from(list(Freshness)), now),
        st.tuples(st.just("stale"), peer, st.none(), now),
        st.tuples(st.just("departed"), peer, st.none(), now),
        st.tuples(st.just("reset"), st.none(), st.none(), now),
    ),
    max_size=40,
)


def assert_sets_match_scan(cooperation: CooperationList) -> None:
    entries = list(cooperation)
    old_scan = [e.peer_id for e in entries if e.freshness.counts_as_old]
    fresh_scan = [e.peer_id for e in entries if e.freshness.is_fresh]
    assert cooperation.old_set == set(old_scan)
    assert cooperation.partner_set == {e.peer_id for e in entries}
    assert cooperation.old_partners() == old_scan
    assert cooperation.fresh_partners() == fresh_scan
    assert cooperation.partner_ids == [e.peer_id for e in entries]
    expected = len(old_scan) / len(entries) if entries else 0.0
    assert cooperation.old_fraction() == expected
    assert cooperation.needs_reconciliation(0.5) == (bool(entries) and expected >= 0.5)
    cooperation.validate()


def apply(cooperation: CooperationList, operation) -> None:
    kind, peer_id, freshness, at = operation
    if kind == "add":  # also the re-add of an existing id: an in-place reset
        cooperation.add_partner(peer_id, freshness=freshness, now=at)
    elif kind == "reset":
        cooperation.reset_all(now=at)
    elif peer_id not in cooperation:
        return
    elif kind == "remove":
        cooperation.remove_partner(peer_id)
    elif kind == "set":
        cooperation.set_freshness(peer_id, freshness, now=at)
    elif kind == "stale":
        cooperation.mark_stale(peer_id, now=at)
    else:
        cooperation.mark_departed(peer_id, now=at)


@given(operations, st.sampled_from(list(FreshnessMode)))
@settings(max_examples=150, deadline=None)
def test_maintained_sets_equal_the_scan_after_every_step(ops, mode):
    domain = Domain.create("sp", mode=mode)
    cooperation = domain.cooperation
    version = cooperation.membership_version
    for operation in ops:
        members = set(cooperation.partner_ids)
        apply(cooperation, operation)
        assert_sets_match_scan(cooperation)
        if set(cooperation.partner_ids) != members:
            assert cooperation.membership_version > version
        version = cooperation.membership_version

    restored = _domain_from_payload(_domain_payload(domain, {}), None, None)
    assert_sets_match_scan(restored.cooperation)
    assert list(restored.cooperation) == list(cooperation)
    assert restored.cooperation.old_set == cooperation.old_set
