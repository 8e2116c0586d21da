"""Unit tests for the content models."""

import pytest

from repro.core.content import PlannedContentModel, SummaryContentModel
from repro.database.engine import LocalDatabase
from repro.database.query import Comparison, SelectionQuery
from repro.database.schema import patient_schema
from repro.exceptions import ConfigurationError
from repro.querying.proposition import Clause, Proposition
from repro.querying.selection import select_summaries


class TestPlannedContentModel:
    def test_matching_fraction_respected(self):
        peers = [f"p{i}" for i in range(100)]
        model = PlannedContentModel(peers, matching_fraction=0.1, seed=1)
        assert len(model.plan_query(0)) == 10

    def test_plan_is_stable_per_query(self):
        model = PlannedContentModel([f"p{i}" for i in range(50)], seed=2)
        assert model.plan_query(7) == model.plan_query(7)

    def test_different_queries_can_differ(self):
        model = PlannedContentModel([f"p{i}" for i in range(200)], seed=3)
        assert model.plan_query(0) != model.plan_query(1)

    def test_truly_matching_follows_plan(self):
        model = PlannedContentModel([f"p{i}" for i in range(30)], seed=4)
        matching = model.plan_query(0)
        for peer in matching:
            assert model.truly_matching(0, peer)
        non_matching = set(f"p{i}" for i in range(30)) - matching
        assert not any(model.truly_matching(0, p) for p in non_matching)

    def test_departed_peer_stops_matching(self):
        model = PlannedContentModel([f"p{i}" for i in range(30)], seed=5)
        peer = next(iter(model.plan_query(0)))
        model.mark_departed(peer)
        assert not model.truly_matching(0, peer)
        model.mark_rejoined(peer)
        assert model.truly_matching(0, peer)

    def test_modification_flags(self):
        model = PlannedContentModel(["p0", "p1"], seed=6)
        model.mark_modified("p0")
        assert model.is_modified("p0")
        model.clear_modification("p0")
        assert not model.is_modified("p0")

    def test_relevant_partners_restricted_to_scope(self):
        model = PlannedContentModel([f"p{i}" for i in range(40)], seed=7)
        matching = model.plan_query(0)
        scope = set(list(matching)[:2]) | {"p_not_matching"}
        relevant = model.relevant_partners(0, scope, None, None)
        assert relevant == set(list(matching)[:2])

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, 2.0])
    def test_invalid_fraction_raises(self, fraction):
        with pytest.raises(ConfigurationError):
            PlannedContentModel(["p0"], matching_fraction=fraction)

    def test_zero_fraction(self):
        model = PlannedContentModel([f"p{i}" for i in range(10)], matching_fraction=0.0)
        assert model.plan_query(0) == set()

    def test_tiny_positive_fraction_still_gives_one_peer(self):
        model = PlannedContentModel([f"p{i}" for i in range(5)], matching_fraction=0.01)
        assert len(model.plan_query(0)) == 1

    def test_full_fraction_gives_every_peer(self):
        peers = [f"p{i}" for i in range(10)]
        model = PlannedContentModel(peers, matching_fraction=1.0)
        assert model.plan_query(0) == set(peers)

    def test_same_seed_same_plans(self):
        peers = [f"p{i}" for i in range(40)]
        first, second = (PlannedContentModel(peers, seed=3) for _ in range(2))
        assert [first.plan_query(q) for q in range(5)] == [
            second.plan_query(q) for q in range(5)
        ]


class TestPlannedScratchCopy:
    def test_twin_draws_like_the_model_and_leaves_it_unwritten(self):
        model = PlannedContentModel([f"p{i}" for i in range(50)], seed=8)
        drawn = model.plan_query(0)
        before = model.state_payload()
        twin = model.scratch_copy()
        assert twin.plan_query(0) == drawn
        fresh = [twin.plan_query(query_id) for query_id in (1, 2)]
        assert model.state_payload() == before
        assert fresh == [model.plan_query(query_id) for query_id in (1, 2)]

    def test_twin_does_not_copy_the_plan_registry(self):
        import tracemalloc

        model = PlannedContentModel([f"p{i}" for i in range(100)], seed=10)
        for query_id in range(50_000):
            model.plan(query_id)
        model.scratch_copy()  # derives the drawable population once
        tracemalloc.start()
        try:
            model.scratch_copy()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestSummaryContentModel:
    @pytest.fixture
    def setup(self, background):
        database = LocalDatabase(background=background)
        database.create_relation(
            "patient",
            patient_schema(),
            [{"id": "t1", "age": 15, "sex": "female", "bmi": 16, "disease": "anorexia"}],
        )
        empty = LocalDatabase(background=background)
        empty.create_relation("patient", patient_schema(), [])
        queries = {}
        model = SummaryContentModel(queries, {"match": database, "nomatch": empty})
        return model, queries

    def test_truly_matching_uses_database_ground_truth(self, setup):
        model, queries = setup
        query = SelectionQuery("patient", [Comparison("disease", "=", "anorexia")])
        model.register_query(0, query)
        assert model.truly_matching(0, "match")
        assert not model.truly_matching(0, "nomatch")
        assert not model.truly_matching(0, "unknown-peer")

    def test_unknown_query_never_matches(self, setup):
        model, _queries = setup
        assert not model.truly_matching(99, "match")

    def test_relevant_partners_from_global_summary(self, setup, example_hierarchy):
        model, _queries = setup
        proposition = Proposition([Clause("bmi", ["underweight"])])
        # sanity: the hierarchy does select something for this proposition
        assert not select_summaries(example_hierarchy, proposition).is_empty
        relevant = model.relevant_partners(
            0, {"peer-a", "peer-b"}, example_hierarchy, proposition
        )
        assert relevant == {"peer-a"}

    def test_relevant_partners_without_summary_is_empty(self, setup):
        model, _queries = setup
        assert model.relevant_partners(0, {"p"}, None, None) == set()
