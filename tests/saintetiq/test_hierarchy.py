"""Unit tests for summary hierarchies."""

import pytest

from repro.database.generator import PatientGenerator
from repro.exceptions import SummaryError
from repro.saintetiq.hierarchy import DEFAULT_SUMMARY_SIZE_BYTES, SummaryHierarchy


class TestConstruction:
    def test_empty_hierarchy(self, numeric_background):
        hierarchy = SummaryHierarchy(numeric_background)
        assert hierarchy.is_empty()
        assert hierarchy.node_count() == 1
        assert hierarchy.records_processed == 0

    def test_add_record_returns_cell_contributions(self, numeric_background):
        hierarchy = SummaryHierarchy(numeric_background, attributes=["age", "bmi"])
        assert hierarchy.add_record({"age": 20, "bmi": 20}) == 2
        assert hierarchy.add_record({"age": 15, "bmi": 17}) == 1
        assert hierarchy.add_record({"bmi": 17}) == 0  # missing attribute

    def test_paper_example_structure(self, example_hierarchy):
        assert example_hierarchy.records_processed == 3
        assert example_hierarchy.leaf_count() <= 3
        assert example_hierarchy.root.tuple_count == pytest.approx(3.0)

    def test_owner_propagates_to_peer_extent(self, example_hierarchy):
        assert example_hierarchy.peer_extent() == {"peer-a"}

    def test_attributes_property(self, example_hierarchy):
        assert example_hierarchy.attributes == ["age", "bmi"]


class TestMetrics:
    def test_node_and_leaf_counts(self, example_hierarchy):
        assert example_hierarchy.node_count() >= example_hierarchy.leaf_count()

    def test_depth_non_negative(self, example_hierarchy):
        assert example_hierarchy.depth() >= 0

    def test_average_arity(self, numeric_background):
        generator = PatientGenerator(seed=3)
        hierarchy = SummaryHierarchy(numeric_background, attributes=["age", "bmi"])
        hierarchy.add_records(generator.records(60))
        arity = hierarchy.average_arity()
        assert 0 < arity <= 4.0  # default max_children

    def test_size_bytes(self, example_hierarchy):
        assert example_hierarchy.size_bytes() == (
            DEFAULT_SUMMARY_SIZE_BYTES * example_hierarchy.node_count()
        )

    def test_leaf_cells_cover_all_mass(self, numeric_background):
        generator = PatientGenerator(seed=9)
        hierarchy = SummaryHierarchy(numeric_background, attributes=["age", "bmi"])
        records = generator.records(40)
        hierarchy.add_records(records)
        mass = sum(cell.tuple_count for cell in hierarchy.iter_leaf_cells())
        assert mass == pytest.approx(hierarchy.root.tuple_count)

    def test_leaf_count_bounded_by_grid(self, numeric_background):
        generator = PatientGenerator(seed=4)
        hierarchy = SummaryHierarchy(numeric_background, attributes=["age", "bmi"])
        hierarchy.add_records(generator.records(200))
        assert hierarchy.leaf_count() <= hierarchy.mapping.grid_size()


class TestSignatureAndDrift:
    def test_signature_empty_for_empty_hierarchy(self, numeric_background):
        assert SummaryHierarchy(numeric_background).signature() == frozenset()

    def test_drift_zero_against_self(self, example_hierarchy):
        assert example_hierarchy.drift_from(example_hierarchy.signature()) == 0.0

    def test_drift_detects_new_descriptors(self, numeric_background):
        hierarchy = SummaryHierarchy(numeric_background, attributes=["age", "bmi"])
        hierarchy.add_record({"age": 15, "bmi": 17})
        before = hierarchy.signature()
        hierarchy.add_record({"age": 80, "bmi": 35})
        assert hierarchy.drift_from(before) > 0.0

    def test_drift_bounded_by_one(self, numeric_background):
        hierarchy = SummaryHierarchy(numeric_background, attributes=["age", "bmi"])
        hierarchy.add_record({"age": 15, "bmi": 17})
        assert 0.0 <= hierarchy.drift_from(frozenset()) <= 1.0


class TestSnapshotAndValidation:
    def test_snapshot_preserves_mass_and_is_independent(self, example_hierarchy):
        snapshot = example_hierarchy.snapshot()
        assert snapshot.root.tuple_count == pytest.approx(
            example_hierarchy.root.tuple_count
        )
        snapshot.add_record({"age": 40, "bmi": 22})
        assert example_hierarchy.root.tuple_count == pytest.approx(3.0)

    def test_validate_passes_on_built_hierarchy(self, numeric_background):
        generator = PatientGenerator(seed=6)
        hierarchy = SummaryHierarchy(numeric_background, attributes=["age", "bmi"])
        hierarchy.add_records(generator.records(80))
        hierarchy.validate()

    def test_validate_rejects_a_private_copy_of_a_shared_cell(self, numeric_background):
        hierarchy = SummaryHierarchy(numeric_background, attributes=["age", "bmi"])
        hierarchy.add_records(PatientGenerator(seed=6).records(80))
        leaf = hierarchy.leaves()[0]
        (key,) = leaf.cells
        leaf.cells[key] = leaf.cells[key].copy()
        with pytest.raises(SummaryError, match="does not share cell"):
            hierarchy.validate()

    def test_validate_rejects_an_owner_that_is_not_the_holding_leaf(
        self, numeric_background
    ):
        hierarchy = SummaryHierarchy(numeric_background, attributes=["age", "bmi"])
        hierarchy.add_records(PatientGenerator(seed=6).records(80))
        (cell,) = hierarchy.leaves()[0].cells.values()
        cell.owner = hierarchy.root
        with pytest.raises(SummaryError):
            hierarchy.validate()

    def test_validate_passes_on_empty_hierarchy(self, numeric_background):
        SummaryHierarchy(numeric_background).validate()
