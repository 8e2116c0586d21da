"""Byte-identity of the batched absorb path against per-record absorption.

The mapping service's default path groups weighted occurrences per cell and
folds each cell's bookkeeping once (``Cell.absorb_batch`` /
``StatisticsBundle.add_records``).  These tests assert *exact* float equality
— not approx — against the per-record reference: the batch form must take the
same floating-point rounding path, or checkpoints and Table-3 fingerprints
would drift from the recorded ones.
"""

import pytest

from repro.database.generator import PatientGenerator
from repro.fuzzy.linguistic import Descriptor
from repro.saintetiq.cell import Cell, make_cell_key
from repro.saintetiq.mapping import MappingService, map_records_reference
from repro.saintetiq.stats import StatisticsBundle


def _assert_cells_byte_identical(left, right):
    assert list(left) == list(right)  # same cells, same creation order
    for key in left:
        a, b = left[key], right[key]
        assert a.tuple_count == b.tuple_count
        assert a.grades == b.grades
        assert list(a.grades) == list(b.grades)
        assert a.statistics.as_dict() == b.statistics.as_dict()
        assert a.statistics.attributes == b.statistics.attributes
        assert a.peers == b.peers


class TestStatisticsBatch:
    def test_add_records_equals_sequential_add_record(self):
        records = [r.as_dict() for r in PatientGenerator(seed=3).relation(100)]
        weights = [0.25, 1.0, 0.5, 0.125] * 25
        sequential = StatisticsBundle()
        for record, weight in zip(records, weights):
            sequential.add_record(record, weight)
        batched = StatisticsBundle()
        batched.add_records(list(zip(records, weights)))
        assert batched.as_dict() == sequential.as_dict()
        assert batched.attributes == sequential.attributes

    def test_non_positive_weights_are_dropped(self):
        bundle = StatisticsBundle()
        bundle.add_records([({"age": 40}, 0.0), ({"age": 50}, -1.0)])
        assert bundle.as_dict() == {}

    def test_non_numeric_and_bool_values_are_skipped(self):
        bundle = StatisticsBundle()
        bundle.add_records([({"age": 40, "sex": "F", "flag": True}, 1.0)])
        assert bundle.attributes == ["age"]


class TestCellBatch:
    def _key(self):
        return make_cell_key(
            [Descriptor("age", "young"), Descriptor("bmi", "normal")]
        )

    def test_absorb_batch_equals_absorb_record_loop(self):
        key = self._key()
        grades_a = {Descriptor("age", "young"): 0.7, Descriptor("bmi", "normal"): 1.0}
        grades_b = {Descriptor("age", "young"): 0.3}
        entries = [
            ({"age": 20, "bmi": 20.0}, 0.7, grades_a),
            ({"age": 22, "bmi": 21.5}, 0.3, grades_b),
            ({"age": 25, "bmi": 19.0}, 0.0, grades_b),  # dropped by both paths
        ]
        reference = Cell(key=key)
        for record, weight, grades in entries:
            reference.absorb_record(record, weight, grades, peer="p1")
        batched = Cell(key=key)
        batched.absorb_batch(entries, peer="p1")
        assert batched.tuple_count == reference.tuple_count
        assert batched.grades == reference.grades
        assert list(batched.grades) == list(reference.grades)
        assert batched.statistics.as_dict() == reference.statistics.as_dict()
        assert batched.peers == reference.peers

    def test_all_dropped_batch_leaves_cell_untouched(self):
        cell = Cell(key=self._key())
        cell.absorb_batch([({"age": 20, "bmi": 20.0}, 0.0, {})], peer="p1")
        assert cell.tuple_count == 0.0
        assert cell.grades == {}
        assert cell.peers == set()


class TestMappingBatchAbsorb:
    @pytest.fixture
    def records(self):
        return [r.as_dict() for r in PatientGenerator(seed=17).relation(400)]

    def test_batch_path_matches_reference_mapping(self, background, records):
        service = MappingService(background)
        batched = service.map_records(records, peer="p1")
        reference = map_records_reference(service, records, peer="p1")
        # The reference path has no memoization, so cell *contents* must agree
        # exactly even though the expansion work differs.
        _assert_cells_byte_identical(batched, reference)
