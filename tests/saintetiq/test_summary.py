"""Unit tests for summary nodes."""

import pytest

from repro.exceptions import SummaryError
from repro.fuzzy.linguistic import Descriptor
from repro.saintetiq.cell import Cell, make_cell_key
from repro.saintetiq.summary import Summary, summary_from_cells


def _cell(labels, count=1.0, peers=()):
    """Helper: a populated cell from {attribute: label} with a given count."""
    key = make_cell_key(Descriptor(a, l) for a, l in labels.items())
    cell = Cell(key=key)
    grades = {Descriptor(a, l): 1.0 for a, l in labels.items()}
    record = {a: 0.0 for a in labels}
    cell.absorb_record(record, count, grades)
    for peer in peers:
        cell.peers.add(peer)
    return cell


class TestSummaryStructure:
    def test_new_summary_is_leaf(self):
        assert Summary().is_leaf

    def test_add_and_remove_child(self):
        parent, child = Summary(), Summary()
        parent.add_child(child)
        assert not parent.is_leaf
        assert child.parent is parent
        parent.remove_child(child)
        assert parent.is_leaf
        assert child.parent is None

    def test_iter_subtree_and_leaves(self):
        root = Summary()
        left, right = Summary(), Summary()
        grandchild = Summary()
        root.add_child(left)
        root.add_child(right)
        left.add_child(grandchild)
        assert len(list(root.iter_subtree())) == 4
        assert set(id(s) for s in root.leaves()) == {id(grandchild), id(right)}

    def test_depth(self):
        root = Summary()
        assert root.depth() == 0
        child = Summary()
        root.add_child(child)
        assert root.depth() == 1
        child.add_child(Summary())
        assert root.depth() == 2

    def test_unique_node_ids(self):
        assert Summary().node_id != Summary().node_id


class TestIntentExtent:
    def test_intent_unions_labels(self):
        summary = summary_from_cells(
            [
                _cell({"age": "young", "bmi": "normal"}),
                _cell({"age": "adult", "bmi": "normal"}),
            ]
        )
        assert summary.intent["age"] == frozenset({"young", "adult"})
        assert summary.intent["bmi"] == frozenset({"normal"})

    def test_tuple_and_cell_count(self):
        summary = summary_from_cells(
            [_cell({"age": "young"}, count=2.0), _cell({"age": "adult"}, count=0.5)]
        )
        assert summary.tuple_count == pytest.approx(2.5)
        assert summary.cell_count == 2

    def test_peer_extent(self):
        summary = summary_from_cells(
            [
                _cell({"age": "young"}, peers=["p1", "p2"]),
                _cell({"age": "adult"}, peers=["p2", "p3"]),
            ]
        )
        assert summary.peer_extent == {"p1", "p2", "p3"}

    def test_absorb_cell_merges_same_key(self):
        summary = Summary()
        summary.absorb_cell(_cell({"age": "young"}, count=1.0))
        summary.absorb_cell(_cell({"age": "young"}, count=2.0))
        assert summary.cell_count == 1
        assert summary.tuple_count == pytest.approx(3.0)

    def test_statistics_aggregate(self):
        first = _cell({"age": "young"})
        second = _cell({"age": "adult"})
        summary = summary_from_cells([first, second])
        assert summary.statistics().get("age").count == pytest.approx(2.0)

    def test_labels_of_missing_attribute(self):
        summary = summary_from_cells([_cell({"age": "young"})])
        assert summary.labels_of("bmi") == frozenset()

    def test_describe(self):
        summary = summary_from_cells(
            [_cell({"age": "young"}), _cell({"age": "adult"})]
        )
        assert summary.describe() == {"age": ["adult", "young"]}

    def test_empty_summary_from_cells_raises(self):
        with pytest.raises(SummaryError):
            summary_from_cells([])


class TestPartialOrder:
    def test_covers_subset_of_cells(self):
        child = summary_from_cells([_cell({"age": "young"})])
        parent = summary_from_cells(
            [_cell({"age": "young"}), _cell({"age": "adult"})]
        )
        assert parent.covers(child)
        assert not child.covers(parent)

    def test_recompute_from_children(self):
        parent = Summary()
        parent.add_child(summary_from_cells([_cell({"age": "young"}, count=1.0)]))
        parent.add_child(summary_from_cells([_cell({"age": "adult"}, count=2.0)]))
        parent.recompute_from_children()
        assert parent.cell_count == 2
        assert parent.tuple_count == pytest.approx(3.0)

    def test_copy_subtree_is_deep(self):
        root = summary_from_cells([_cell({"age": "young"})])
        child = summary_from_cells([_cell({"age": "young"})])
        root.add_child(child)
        clone = root.copy_subtree()
        clone.children[0].absorb_cell(_cell({"age": "adult"}))
        assert child.cell_count == 1
        assert clone.children[0].cell_count == 2


class TestAggregateCache:
    def test_absorb_updates_cached_aggregates(self):
        summary = Summary()
        summary.absorb_cell(_cell({"age": "young"}, count=1.5, peers=("p1",)))
        summary.absorb_cell(_cell({"age": "adult"}, count=2.0, peers=("p2",)))
        assert summary.tuple_count == pytest.approx(3.5)
        assert summary.intent == {"age": frozenset({"young", "adult"})}
        assert summary.peer_extent == {"p1", "p2"}
        assert summary.profile[Descriptor("age", "young")] == pytest.approx(1.5)
        summary.check_cache()

    def test_check_cache_detects_out_of_band_mutation(self):
        summary = summary_from_cells([_cell({"age": "young"}, count=1.0)])
        assert summary.tuple_count == pytest.approx(1.0)  # materialize the cache
        key = next(iter(summary.cells))
        summary.cells[key].tuple_count = 99.0
        with pytest.raises(SummaryError):
            summary.check_cache()
        summary.invalidate_cache()
        assert summary.tuple_count == pytest.approx(99.0)
        summary.check_cache()

    @pytest.mark.parametrize(
        "field, corrupt",
        [
            ("count", lambda v: v + 1.0),
            ("total", lambda v: v + 1.0),
            ("total_squares", lambda v: v + 1.0),
            ("minimum", lambda v: v - 1.0),
            ("maximum", lambda v: v + 1.0),
        ],
    )
    def test_check_cache_detects_each_corrupted_statistic(self, field, corrupt):
        young = Cell(key=make_cell_key([Descriptor("age", "young")]))
        young.absorb_record({"age": 12.0}, 1.0, {Descriptor("age", "young"): 1.0})
        young.absorb_record({"age": 17.0}, 0.5, {Descriptor("age", "young"): 0.5})
        summary = Summary()
        summary.absorb_cell(young)
        summary.check_cache()
        cached = summary._stats.get("age")
        setattr(cached, field, corrupt(getattr(cached, field)))
        with pytest.raises(SummaryError, match="statistics of 'age'"):
            summary.check_cache()

    def test_constructor_supplied_cells_rebuild_lazily(self):
        original = summary_from_cells([_cell({"age": "young"}, count=2.0)])
        clone = Summary(cells={k: c.copy() for k, c in original.cells.items()})
        assert clone.tuple_count == pytest.approx(2.0)
        assert clone.intent == original.intent
        clone.check_cache()

    def test_recompute_from_children_merges_child_caches(self):
        parent = Summary()
        parent.add_child(
            summary_from_cells([_cell({"age": "young"}, count=1.0, peers=("p1",))])
        )
        parent.add_child(
            summary_from_cells([_cell({"age": "young"}, count=2.0, peers=("p2",))])
        )
        parent.recompute_from_children()
        assert parent.cell_count == 1  # same key merged
        assert parent.tuple_count == pytest.approx(3.0)
        assert parent.peer_extent == {"p1", "p2"}
        parent.check_cache()

    def test_statistics_returns_independent_copy(self):
        summary = summary_from_cells([_cell({"age": "young"}, count=2.0)])
        bundle = summary.statistics()
        bundle.add_record({"age": 50.0}, weight=10.0)
        assert summary.statistics().get("age").count == pytest.approx(2.0)


class TestIterativeDepth:
    def test_depth_on_chain_beyond_recursion_limit(self):
        import sys

        root = Summary()
        node = root
        for _ in range(sys.getrecursionlimit() + 500):
            child = Summary()
            node.add_child(child)
            node = child
        assert root.depth() == sys.getrecursionlimit() + 500

    def test_depth_of_bushy_tree(self):
        root = Summary()
        shallow, deep = Summary(), Summary()
        root.add_child(shallow)
        root.add_child(deep)
        deep.add_child(Summary())
        assert root.depth() == 2
