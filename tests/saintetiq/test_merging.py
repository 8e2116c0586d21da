"""Unit tests for hierarchy merging."""

import pytest

from repro.database.generator import PatientGenerator
from repro.exceptions import SummaryError
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.saintetiq.hierarchy import SummaryHierarchy
from repro.saintetiq.merging import merge_hierarchies, merge_into


def _hierarchy(owner, seed, count=20, background=None):
    background = background or medical_background_knowledge(include_categorical=False)
    hierarchy = SummaryHierarchy(background, attributes=["age", "bmi"], owner=owner)
    hierarchy.add_records(PatientGenerator(seed=seed).records(count))
    return hierarchy


class TestMergeInto:
    def test_merge_preserves_total_mass(self):
        first = _hierarchy("p1", seed=1)
        second = _hierarchy("p2", seed=2)
        expected = first.root.tuple_count + second.root.tuple_count
        merged = merge_into(first, second)
        assert merged == len(list(second.iter_leaf_cells()))
        assert first.root.tuple_count == pytest.approx(expected)

    def test_merge_unions_peer_extents(self):
        first = _hierarchy("p1", seed=1)
        second = _hierarchy("p2", seed=2)
        merge_into(first, second)
        assert first.peer_extent() == {"p1", "p2"}

    def test_merge_leaves_source_untouched(self):
        first = _hierarchy("p1", seed=1)
        second = _hierarchy("p2", seed=2)
        mass = second.root.tuple_count
        merge_into(first, second)
        assert second.root.tuple_count == pytest.approx(mass)
        assert second.peer_extent() == {"p2"}

    def test_incompatible_backgrounds_raise(self):
        first = _hierarchy("p1", seed=1)
        other_background = medical_background_knowledge(diseases=["flu"])
        second = SummaryHierarchy(other_background, owner="p2")
        second.add_record({"age": 20, "bmi": 20, "sex": "female", "disease": "flu"})
        with pytest.raises(SummaryError):
            merge_into(first, second)

    def test_different_attribute_sets_raise(self):
        background = medical_background_knowledge(include_categorical=False)
        first = SummaryHierarchy(background, attributes=["age"], owner="p1")
        first.add_record({"age": 20})
        second = SummaryHierarchy(background, attributes=["age", "bmi"], owner="p2")
        second.add_record({"age": 20, "bmi": 20})
        with pytest.raises(SummaryError):
            merge_into(first, second)


class TestMergeHierarchies:
    def test_merge_many(self):
        hierarchies = [_hierarchy(f"p{i}", seed=i) for i in range(4)]
        expected = sum(h.root.tuple_count for h in hierarchies)
        merged = merge_hierarchies(hierarchies, owner="sp")
        assert merged.root.tuple_count == pytest.approx(expected)
        assert merged.peer_extent() == {"p0", "p1", "p2", "p3"}
        assert merged.owner == "sp"

    def test_merged_size_bounded_by_grid(self):
        hierarchies = [_hierarchy(f"p{i}", seed=i, count=60) for i in range(3)]
        merged = merge_hierarchies(hierarchies)
        assert merged.leaf_count() <= merged.mapping.grid_size()

    def test_merge_empty_iterable_raises(self):
        with pytest.raises(SummaryError):
            merge_hierarchies([])

    def test_merge_single_hierarchy_copies_it(self):
        single = _hierarchy("p1", seed=5)
        merged = merge_hierarchies([single])
        assert merged.root.tuple_count == pytest.approx(single.root.tuple_count)
        merged.add_record({"age": 30, "bmi": 22})
        assert single.root.tuple_count != pytest.approx(merged.root.tuple_count)

    def test_merge_keeps_validation_invariants(self):
        hierarchies = [_hierarchy(f"p{i}", seed=i, count=30) for i in range(3)]
        merged = merge_hierarchies(hierarchies)
        merged.validate()
