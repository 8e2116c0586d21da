"""Cache-correctness and equivalence tests for the aggregate cache layer.

The incremental cache in :mod:`repro.saintetiq.summary` must stay consistent
with a from-scratch recomputation across *every* mutation path — construction
(with and without the structural operators), hierarchy merging, maintenance
reconciliation, snapshots, serialization round-trips — and the scorer must
pick, at every step, the operator the naive four-way reference scoring picks
(whole trees are held to the reference's digests by
``test_golden_digests.py``'s ``scoring/`` entries).
"""

import math

import pytest

from golden_corpus import PARAMETER_GRID, random_cells
from repro.core.domain import Domain
from repro.core.maintenance import MaintenanceEngine
from repro.database.generator import PatientGenerator
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.saintetiq.clustering import (
    SummaryBuilder,
    _candidates_reference,
    _quantize_score,
)
from repro.saintetiq.hierarchy import SummaryHierarchy
from repro.saintetiq.merging import merge_hierarchies, merge_into
from repro.saintetiq.serialization import hierarchy_from_json, hierarchy_to_json

BACKGROUND = medical_background_knowledge(include_categorical=False)


def assert_tree_cache_consistent(root):
    for node in root.iter_subtree():
        node.check_cache()


def _records(count, seed=0):
    return PatientGenerator(seed=seed, background=BACKGROUND).records(count)


class TestCacheCorrectness:
    """Cached aggregates equal a fresh recomputation after every mutation."""

    @pytest.mark.parametrize("parameters", PARAMETER_GRID)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_random_streams_keep_cache_consistent(self, parameters, seed):
        builder = SummaryBuilder(parameters)
        for index, cell in enumerate(random_cells(240, seed=seed), start=1):
            builder.incorporate(cell)
            if index % 16 == 0:
                assert_tree_cache_consistent(builder.root)
        assert_tree_cache_consistent(builder.root)

    def test_cache_survives_hierarchy_merging(self):
        owners = [f"peer{i}" for i in range(4)]
        hierarchies = []
        for index, owner in enumerate(owners):
            hierarchy = SummaryHierarchy(
                BACKGROUND, attributes=["age", "bmi"], owner=owner
            )
            hierarchy.add_records(_records(40, seed=index))
            hierarchies.append(hierarchy)
        merged = merge_hierarchies(hierarchies, owner="sp")
        merged.validate()  # validate() includes per-node cache checks
        assert merged.peer_extent() == set(owners)
        # Incremental merge into an existing hierarchy (the churn/join path).
        target = hierarchies[0]
        merge_into(target, hierarchies[1])
        target.validate()

    def test_cache_survives_snapshot_and_serialization_roundtrip(self):
        hierarchy = SummaryHierarchy(BACKGROUND, attributes=["age", "bmi"], owner="p")
        hierarchy.add_records(_records(60))
        snapshot = hierarchy.snapshot()
        snapshot.validate()
        restored = hierarchy_from_json(hierarchy_to_json(hierarchy), BACKGROUND)
        restored.validate()
        assert math.isclose(
            restored.root.tuple_count, hierarchy.root.tuple_count, rel_tol=1e-9
        )
        assert restored.signature() == hierarchy.signature()

    def test_cache_survives_maintenance_reconciliation(self):
        domain = Domain.create("sp")
        locals_ = {}
        for index, peer in enumerate(["sp", "p1", "p2"]):
            hierarchy = SummaryHierarchy(
                BACKGROUND, attributes=["age", "bmi"], owner=peer
            )
            hierarchy.add_records(_records(30, seed=index))
            locals_[peer] = hierarchy
            if peer != "sp":
                domain.add_partner(peer, distance=1.0)
        engine = MaintenanceEngine()
        engine.push_stale(domain, "p1")
        engine.reconcile(domain, local_summaries=locals_)
        assert domain.global_summary is not None
        domain.global_summary.validate()
        assert domain.global_summary.peer_extent() == {"sp", "p1", "p2"}

    def test_invalidated_cache_rebuilds_to_same_values(self):
        builder = SummaryBuilder()
        builder.incorporate_all(random_cells(120, seed=3))
        before = {
            node.node_id: (dict(node.profile), node.tuple_count, node.intent)
            for node in builder.root.iter_subtree()
        }
        for node in builder.root.iter_subtree():
            node.invalidate_cache()
        for node in builder.root.iter_subtree():
            profile, mass, intent = before[node.node_id]
            assert set(node.profile) == set(profile)
            for descriptor, weight in node.profile.items():
                assert math.isclose(weight, profile[descriptor], rel_tol=1e-9)
            assert math.isclose(node.tuple_count, mass, rel_tol=1e-9)
            assert node.intent == intent


class TestScoringEquivalence:
    """The scorer reproduces the reference implementation step by step."""

    def test_candidate_scores_match_reference(self):
        """Per-step check: same candidates, close scores, same chosen operator."""
        steps = []
        mismatches = []

        def choice(candidates):
            return max(candidates, key=lambda item: _quantize_score(item[0]))[1:]

        class ComparingBuilder(SummaryBuilder):
            def _candidates(self, node, children, profiles, cell_profile, ranked):
                fast = super()._candidates(
                    node, children, profiles, cell_profile, ranked
                )
                reference = _candidates_reference(
                    self.parameters, children, profiles, cell_profile, ranked
                )
                steps.append(len(fast))
                if len(fast) != len(reference) or choice(fast) != choice(reference):
                    mismatches.append((fast, reference))
                for (f_score, f_op, f_arg), (r_score, r_op, r_arg) in zip(
                    fast, reference
                ):
                    if (f_op, f_arg) != (r_op, r_arg) or not math.isclose(
                        f_score, r_score, rel_tol=1e-9, abs_tol=1e-12
                    ):
                        mismatches.append(((f_score, f_op), (r_score, r_op)))
                return fast

        builder = ComparingBuilder()
        builder.incorporate_all(random_cells(150, seed=21))
        assert steps, "the stream must exercise the scored descent"
        assert not mismatches
