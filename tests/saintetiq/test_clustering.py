"""Unit tests for the incremental conceptual clustering."""

import random

import pytest

from repro.exceptions import SummaryError
from repro.fuzzy.linguistic import Descriptor
from repro.saintetiq.cell import Cell, make_cell_key
from repro.saintetiq.clustering import (
    ClusteringParameters,
    SummaryBuilder,
    partition_score,
)
from repro.saintetiq.serialization import cell_to_dict


def _cell(labels, count=1.0):
    key = make_cell_key(Descriptor(a, l) for a, l in labels.items())
    cell = Cell(key=key)
    grades = {Descriptor(a, l): 1.0 for a, l in labels.items()}
    cell.absorb_record({a: 0.0 for a in labels}, count, grades)
    return cell


def _random_cells(count, seed=0):
    rng = random.Random(seed)
    ages = ["child", "young", "adult", "old"]
    bmis = ["underweight", "normal", "overweight", "obese"]
    return [
        _cell({"age": rng.choice(ages), "bmi": rng.choice(bmis)}, count=rng.uniform(0.2, 3.0))
        for _ in range(count)
    ]


class TestClusteringParameters:
    def test_defaults(self):
        parameters = ClusteringParameters()
        assert parameters.max_children >= 2

    def test_invalid_arity_raises(self):
        with pytest.raises(SummaryError):
            ClusteringParameters(max_children=1)


class TestPartitionScore:
    def test_empty_partition_scores_zero(self):
        assert partition_score([]) == 0.0
        assert partition_score([{}]) == 0.0

    def test_homogeneous_split_beats_mixed_split(self):
        young = {Descriptor("age", "young"): 4.0}
        adult = {Descriptor("age", "adult"): 4.0}
        mixed_a = {Descriptor("age", "young"): 2.0, Descriptor("age", "adult"): 2.0}
        mixed_b = {Descriptor("age", "young"): 2.0, Descriptor("age", "adult"): 2.0}
        assert partition_score([young, adult]) > partition_score([mixed_a, mixed_b])

    def test_score_of_single_pure_child_is_non_negative(self):
        assert partition_score([{Descriptor("age", "young"): 1.0}]) >= 0.0


class TestSummaryBuilder:
    def test_first_cell_becomes_root_leaf(self):
        builder = SummaryBuilder()
        builder.incorporate(_cell({"age": "young"}))
        assert builder.root.is_leaf
        assert builder.root.cell_count == 1

    def test_same_key_merges_at_root(self):
        builder = SummaryBuilder()
        builder.incorporate(_cell({"age": "young"}, count=1.0))
        builder.incorporate(_cell({"age": "young"}, count=2.0))
        assert builder.root.is_leaf
        assert builder.root.tuple_count == pytest.approx(3.0)

    def test_two_distinct_cells_create_children(self):
        builder = SummaryBuilder()
        builder.incorporate(_cell({"age": "young"}))
        builder.incorporate(_cell({"age": "adult"}))
        assert not builder.root.is_leaf
        assert len(builder.root.children) == 2

    def test_root_always_covers_everything(self):
        builder = SummaryBuilder()
        cells = _random_cells(30)
        builder.incorporate_all(cells)
        total = sum(cell.tuple_count for cell in cells)
        assert builder.root.tuple_count == pytest.approx(total)

    def test_leaves_cover_single_cell_keys(self):
        builder = SummaryBuilder()
        builder.incorporate_all(_random_cells(40, seed=3))
        for leaf in builder.root.leaves():
            assert leaf.cell_count == 1

    def test_internal_nodes_union_of_children(self):
        builder = SummaryBuilder()
        builder.incorporate_all(_random_cells(40, seed=5))
        for node in builder.root.iter_subtree():
            if node.is_leaf:
                continue
            child_keys = set()
            for child in node.children:
                child_keys |= set(child.cells)
            assert child_keys == set(node.cells)

    def test_arity_bound_respected(self):
        parameters = ClusteringParameters(max_children=3)
        builder = SummaryBuilder(parameters)
        builder.incorporate_all(_random_cells(60, seed=7))
        for node in builder.root.iter_subtree():
            assert len(node.children) <= 3

    def test_incorporated_counter(self):
        builder = SummaryBuilder()
        builder.incorporate_all(_random_cells(12))
        assert builder.incorporated_cells == 12

    def test_leaf_count_bounded_by_distinct_keys(self):
        builder = SummaryBuilder()
        cells = _random_cells(80, seed=11)
        builder.incorporate_all(cells)
        distinct_keys = {cell.key for cell in cells}
        assert len(builder.root.leaves()) <= len(distinct_keys) + 1

    def test_empty_cell_raises(self):
        builder = SummaryBuilder()
        bad = Cell(key=())
        with pytest.raises(SummaryError):
            builder.incorporate(bad)

    def test_disable_merge_and_split_still_works(self):
        parameters = ClusteringParameters(enable_merge=False, enable_split=False, max_children=8)
        builder = SummaryBuilder(parameters)
        builder.incorporate_all(_random_cells(30, seed=13))
        assert builder.root.tuple_count > 0

    def test_deterministic_for_same_input(self):
        cells = _random_cells(25, seed=17)
        first = SummaryBuilder()
        second = SummaryBuilder()
        first.incorporate_all([cell.copy() for cell in cells])
        second.incorporate_all([cell.copy() for cell in cells])
        assert first.root.tuple_count == pytest.approx(second.root.tuple_count)
        assert len(first.root.leaves()) == len(second.root.leaves())


class TestMergeCellSharing:
    """Every node on a key's root path aliases the key's one cell."""

    def _merge_heavy_builder(self, cells):
        builder = SummaryBuilder(ClusteringParameters(max_children=2))
        builder.incorporate_all(cells)
        return builder

    def test_shared_and_copied_merges_build_identical_trees(self):
        """The tree's shared cells equal a flat copy-then-merge per key."""
        cells = _random_cells(60, seed=5)
        shared = self._merge_heavy_builder(cells)
        copied = {}
        for cell in cells:
            if cell.key in copied:
                copied[cell.key].merge(cell)
            else:
                copied[cell.key] = cell.copy()
        assert {key: cell_to_dict(cell) for key, cell in shared.root.cells.items()} == {
            key: cell_to_dict(cell) for key, cell in copied.items()
        }
        assert shared.root.tuple_count == pytest.approx(
            sum(cell.tuple_count for cell in cells)
        )
        for node in shared.root.iter_subtree():
            for key, cell in node.cells.items():
                assert cell is shared.root.cells[key]

    def test_merged_nodes_alias_children_cells(self):
        builder = self._merge_heavy_builder(_random_cells(40, seed=6))
        aliases = 0
        for node in builder.root.iter_subtree():
            for child in node.children:
                for key, cell in child.cells.items():
                    if node.cells.get(key) is cell:
                        aliases += 1
        assert aliases > 0, "expected at least one shared (uncopied) cell"

    def test_caches_stay_consistent_under_sharing(self):
        """Every node's cached aggregates survive alias-then-absorb cycles."""
        builder = self._merge_heavy_builder(_random_cells(80, seed=7))
        for node in builder.root.iter_subtree():
            node.check_cache()

    def test_only_owner_mutates_a_shared_cell(self):
        """A cell for a covered key is merged once, into its leaf's cell."""
        builder = SummaryBuilder(ClusteringParameters(max_children=2))
        cells = _random_cells(30, seed=8)
        builder.incorporate_all(cells)
        # Re-incorporate every distinct key once more: every node on the
        # descent path must keep map and cached profile in sync even where
        # its entry aliased a descendant's cell.
        for cell in list(builder.root.cells.values()):
            before = cell.tuple_count
            builder.incorporate(cell.copy())
            assert cell.tuple_count == 2 * before
            assert cell.owner.is_leaf and cell.owner.cells == {cell.key: cell}
        for node in builder.root.iter_subtree():
            node.check_cache()
