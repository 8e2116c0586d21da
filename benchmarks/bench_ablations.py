"""Ablation benches for the design choices called out in DESIGN.md.

Each bench contrasts two variants of a protocol design decision over the same
simulated workload:

* routing set: precision-first (``P_Q ∩ P_fresh``) vs. recall-first
  (``P_Q ∪ P_old``) vs. plain ``P_Q`` (Section 6.1.2's trade-off),
* reconciliation accounting: counting every ring hop vs. counting the
  circulating message once,
* reconciliation threshold α: staleness/cost trade-off,
* partner discovery: selective (highest-degree) walk vs. blind random walk.
"""

import random

import pytest

from repro.core.config import ProtocolConfig
from repro.core.domain import Domain
from repro.core.content import PlannedContentModel
from repro.core.maintenance import MaintenanceEngine
from repro.core.routing import QueryRouter, QueryScratch, RoutingPolicy
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.workloads.scenarios import SimulationScenario
from repro.experiments.runner import run_maintenance_simulation


def _domain_with_staleness(partner_count=200, stale_fraction=0.2, seed=3):
    domain = Domain.create("sp")
    peer_ids = [f"p{i}" for i in range(partner_count)]
    rng = random.Random(seed)
    for index, peer_id in enumerate(peer_ids):
        domain.add_partner(peer_id, distance=float(index))
    for peer_id in rng.sample(peer_ids, int(stale_fraction * partner_count)):
        domain.cooperation.mark_stale(peer_id)
    content = PlannedContentModel(peer_ids, matching_fraction=0.1, seed=seed)
    return domain, content


@pytest.mark.benchmark(group="ablation-routing")
@pytest.mark.parametrize("policy", list(RoutingPolicy), ids=lambda p: p.value)
def test_ablation_routing_policy(benchmark, policy):
    """Precision/recall trade-off of the three routing sets (Section 6.1.2)."""
    domain, content = _domain_with_staleness()

    def run():
        router = QueryRouter()
        partners = domain.cooperation.partner_set
        scratch = QueryScratch(lambda: 0, content)
        outcomes = [
            router.outcome_in_domain(
                query_id, domain, scratch, None, policy, partners, partners, None
            )
            for query_id in range(50)
        ]
        return outcomes

    outcomes = benchmark.pedantic(run, iterations=1, rounds=1)
    false_positive = sum(len(o.false_positives) for o in outcomes)
    false_negative = sum(len(o.false_negatives) for o in outcomes)
    messages = sum(o.messages for o in outcomes)
    benchmark.extra_info.update(
        {
            "false_positives": false_positive,
            "false_negatives": false_negative,
            "messages": messages,
        }
    )
    if policy is RoutingPolicy.PRECISION:
        assert false_positive == 0
    if policy is RoutingPolicy.RECALL:
        assert false_negative == 0


@pytest.mark.benchmark(group="ablation-reconciliation")
@pytest.mark.parametrize("count_ring_hops", [True, False], ids=["ring-hops", "single-message"])
def test_ablation_reconciliation_accounting(benchmark, count_ring_hops):
    """Update traffic under the two reconciliation-message accountings."""
    scenario = SimulationScenario(
        peer_count=200,
        alpha=0.3,
        duration_seconds=6 * 3600.0,
        seed=1,
        extra_config={"count_reconciliation_ring_hops": count_ring_hops},
    )

    run = benchmark.pedantic(
        lambda: run_maintenance_simulation(scenario), iterations=1, rounds=1
    )
    benchmark.extra_info.update(
        {
            "update_messages": run.update_messages,
            "reconciliations": run.reconciliations,
            "messages_per_node": run.messages_per_node,
        }
    )
    assert run.reconciliations >= 1
    if not count_ring_hops:
        # One message per round: reconciliation traffic equals the round count.
        assert run.reconciliation_messages == run.reconciliations


@pytest.mark.benchmark(group="ablation-alpha")
@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.8])
def test_ablation_threshold_alpha(benchmark, alpha):
    """The α trade-off: staleness vs. reconciliation traffic."""
    scenario = SimulationScenario(
        peer_count=200, alpha=alpha, duration_seconds=6 * 3600.0, seed=2
    )
    run = benchmark.pedantic(
        lambda: run_maintenance_simulation(scenario), iterations=1, rounds=1
    )
    benchmark.extra_info.update(
        {
            "stale_fraction": run.mean_worst_stale_fraction,
            "reconciliations": run.reconciliations,
        }
    )
    assert 0.0 <= run.mean_worst_stale_fraction <= 1.0


@pytest.mark.benchmark(group="ablation-freshness")
@pytest.mark.parametrize("mode", ["one_bit", "two_bit"])
def test_ablation_freshness_encoding(benchmark, mode):
    """1-bit vs. 2-bit freshness: how departures are recorded and reconciled.

    With the 2-bit encoding a departed partner is marked UNAVAILABLE (its
    descriptions may still serve approximate answers); with the 1-bit encoding
    it is indistinguishable from a stale partner.  Either way the entry counts
    toward the α threshold, so the reconciliation traffic is similar; the
    difference is the information available to the query processor.
    """
    from repro.core.freshness import Freshness, FreshnessMode
    from repro.core.maintenance import MaintenanceEngine

    freshness_mode = FreshnessMode(mode)
    config = ProtocolConfig(freshness_threshold=0.3, freshness_mode=freshness_mode)

    def run():
        engine = MaintenanceEngine(config)
        domain = Domain.create("sp", mode=freshness_mode)
        for index in range(200):
            domain.add_partner(f"p{index}", distance=1.0)
        departures = 0
        reconciliations = 0
        for index in range(200):
            # Every departure push is delivered here: the engine marks it.
            due = engine.push_departure(domain, f"p{index}")
            departures += 1
            if due:
                engine.reconcile(domain)
                reconciliations += 1
        return domain, departures, reconciliations, engine

    domain, departures, reconciliations, engine = benchmark.pedantic(
        run, iterations=1, rounds=1
    )
    benchmark.extra_info.update(
        {"departures": departures, "reconciliations": reconciliations}
    )
    assert reconciliations >= 1
    if freshness_mode is FreshnessMode.TWO_BIT:
        # Departures that have not yet been reconciled away are visible as
        # UNAVAILABLE, not merely STALE.
        assert all(
            entry.freshness in (Freshness.FRESH, Freshness.UNAVAILABLE)
            for entry in domain.cooperation
        )
    else:
        assert not domain.cooperation.unavailable_partners()


@pytest.mark.benchmark(group="ablation-walk")
@pytest.mark.parametrize("selective", [True, False], ids=["selective", "random"])
def test_ablation_partner_discovery_walk(benchmark, selective):
    """Selective (highest-degree) walk vs. blind random walk to find a superpeer."""
    overlay = Overlay.generate(TopologyConfig(peer_count=500, seed=5))
    superpeers = set(overlay.elect_superpeers(fraction=1 / 16))
    origins = [p for p in overlay.peer_ids if p not in superpeers][:100]
    rng = random.Random(5)

    def random_walk(origin):
        current = origin
        for hop in range(1, 65):
            neighbours = overlay.neighbors(current)
            if not neighbours:
                return None, hop
            current = rng.choice(neighbours)
            if current in superpeers:
                return current, hop
        return None, 64

    def run():
        hops = []
        for origin in origins:
            if selective:
                found, walked = overlay.selective_walk(
                    origin, lambda p: p in superpeers, rng=rng
                )
            else:
                found, walked = random_walk(origin)
            if found is not None:
                hops.append(walked)
        return hops

    hops = benchmark.pedantic(run, iterations=1, rounds=1)
    assert hops, "every origin should eventually find a summary peer"
    average = sum(hops) / len(hops)
    benchmark.extra_info.update({"average_hops": average, "walks": len(hops)})
    if selective:
        # The selective walk exploits hubs: a handful of hops suffices.
        assert average <= 8.0
