"""Unit tests for grid cells."""

import itertools
import random

import pytest

from repro.exceptions import SummaryError
from repro.fuzzy.linguistic import Descriptor
from repro.saintetiq.cell import Cell, make_cell_key


def _key(*pairs):
    return make_cell_key(Descriptor(attribute, label) for attribute, label in pairs)


class TestMakeCellKey:
    def test_canonical_order(self):
        first = _key(("bmi", "normal"), ("age", "young"))
        second = _key(("age", "young"), ("bmi", "normal"))
        assert first == second
        assert first[0].attribute == "age"

    def test_duplicate_attribute_raises(self):
        with pytest.raises(SummaryError):
            _key(("age", "young"), ("age", "adult"))

    def test_empty_key_raises(self):
        with pytest.raises(SummaryError):
            make_cell_key([])

    def test_descriptor_order_is_the_attribute_label_order(self, background):
        # Every cell of the medical grid, its descriptors handed over in a
        # shuffled order: sorting by the descriptor itself gives the key the
        # explicit ``(attribute, label)`` sort gave.
        rng = random.Random(3)
        variables = [variable.descriptors for variable in background]
        for combination in itertools.product(*variables):
            shuffled = list(combination)
            rng.shuffle(shuffled)
            explicit = tuple(sorted(shuffled, key=lambda d: (d.attribute, d.label)))
            assert make_cell_key(shuffled) == explicit


class TestCell:
    def test_absorb_record_accumulates_count(self):
        key = _key(("age", "young"), ("bmi", "normal"))
        cell = Cell(key=key)
        grades = {Descriptor("age", "young"): 0.7, Descriptor("bmi", "normal"): 1.0}
        cell.absorb_record({"age": 20, "bmi": 20}, 0.7, grades, peer="p1")
        cell.absorb_record({"age": 21, "bmi": 21}, 0.3, grades, peer="p2")
        assert cell.tuple_count == pytest.approx(1.0)
        assert cell.peers == {"p1", "p2"}

    def test_grades_keep_maximum(self):
        key = _key(("age", "young"),)
        cell = Cell(key=key)
        cell.absorb_record({"age": 20}, 0.7, {Descriptor("age", "young"): 0.7})
        cell.absorb_record({"age": 15}, 1.0, {Descriptor("age", "young"): 1.0})
        assert cell.grades[Descriptor("age", "young")] == 1.0

    def test_zero_weight_is_ignored(self):
        cell = Cell(key=_key(("age", "young"),))
        cell.absorb_record({"age": 20}, 0.0, {})
        assert cell.tuple_count == 0.0

    def test_statistics_collected(self):
        cell = Cell(key=_key(("age", "young"),))
        cell.absorb_record({"age": 20}, 1.0, {Descriptor("age", "young"): 1.0})
        cell.absorb_record({"age": 10}, 1.0, {Descriptor("age", "young"): 1.0})
        stats = cell.statistics.get("age")
        assert stats.minimum == 10
        assert stats.maximum == 20

    def test_label_of(self):
        cell = Cell(key=_key(("age", "young"), ("bmi", "normal")))
        assert cell.label_of("age") == "young"
        assert cell.label_of("bmi") == "normal"
        assert cell.label_of("sex") is None

    def test_describe(self):
        cell = Cell(key=_key(("age", "young"), ("bmi", "normal")))
        assert cell.describe() == {"age": "young", "bmi": "normal"}

    def test_merge_same_key(self):
        key = _key(("age", "young"),)
        first = Cell(key=key)
        second = Cell(key=key)
        first.absorb_record({"age": 20}, 0.5, {Descriptor("age", "young"): 0.5}, "p1")
        second.absorb_record({"age": 15}, 1.0, {Descriptor("age", "young"): 1.0}, "p2")
        first.merge(second)
        assert first.tuple_count == pytest.approx(1.5)
        assert first.peers == {"p1", "p2"}
        assert first.grades[Descriptor("age", "young")] == 1.0

    def test_merge_different_key_raises(self):
        first = Cell(key=_key(("age", "young"),))
        second = Cell(key=_key(("age", "adult"),))
        with pytest.raises(SummaryError):
            first.merge(second)

    def test_copy_is_independent(self):
        cell = Cell(key=_key(("age", "young"),))
        cell.absorb_record({"age": 20}, 1.0, {Descriptor("age", "young"): 1.0}, "p1")
        clone = cell.copy()
        clone.absorb_record({"age": 21}, 1.0, {Descriptor("age", "young"): 1.0}, "p2")
        assert cell.tuple_count == 1.0
        assert clone.tuple_count == 2.0
        assert cell.peers == {"p1"}

    def test_attributes_and_descriptors(self):
        cell = Cell(key=_key(("age", "young"), ("bmi", "normal")))
        assert cell.attributes == ("age", "bmi")
        assert Descriptor("bmi", "normal") in cell.descriptors
