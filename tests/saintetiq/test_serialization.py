"""Unit tests for summary serialization."""

import json

import pytest

from repro.database.generator import PatientGenerator
from repro.exceptions import SummaryError
from repro.fuzzy.linguistic import Descriptor
from repro.saintetiq.cell import Cell, make_cell_key
from repro.saintetiq.hierarchy import SummaryHierarchy
from repro.saintetiq.mapping import MappingService
from repro.saintetiq.merging import merge_hierarchies
from repro.saintetiq.serialization import (
    canonical_encode,
    canonical_json,
    cell_from_dict,
    cell_to_dict,
    content_hash,
    encoded_size_bytes,
    hierarchy_content_hash,
    hierarchy_from_dict,
    hierarchy_from_json,
    hierarchy_text,
    hierarchy_to_dict,
    hierarchy_to_json,
    summary_from_dict,
    summary_to_dict,
)
from repro.saintetiq.summary import Summary


def _cell():
    key = make_cell_key([Descriptor("age", "young"), Descriptor("bmi", "normal")])
    cell = Cell(key=key)
    cell.absorb_record(
        {"age": 20, "bmi": 20},
        0.7,
        {Descriptor("age", "young"): 0.7, Descriptor("bmi", "normal"): 1.0},
        peer="p1",
    )
    return cell


class TestCellSerialization:
    def test_round_trip(self):
        original = _cell()
        restored = cell_from_dict(cell_to_dict(original))
        assert restored.key == original.key
        assert restored.tuple_count == pytest.approx(original.tuple_count)
        assert restored.grades == original.grades
        assert restored.peers == original.peers
        assert restored.statistics.get("age").mean == pytest.approx(20.0)

    def test_payload_is_json_compatible(self):
        json.dumps(cell_to_dict(_cell()))

    def test_malformed_payload_raises(self):
        with pytest.raises(SummaryError):
            cell_from_dict({"key": [["age", "young"], ["age", "old"]], "tuple_count": 1})
        with pytest.raises(SummaryError):
            cell_from_dict({"tuple_count": 1})

    def test_grade_order_is_the_attribute_label_order(self, background):
        # The medical background's mapped cells, grades inserted in reverse:
        # the encoding lists them as the explicit ``(attribute, label)`` sort.
        records = [r.as_dict() for r in PatientGenerator(seed=17).relation(400)]
        cells = MappingService(background).map_records(records, peer="p1")
        assert cells
        for cell in cells.values():
            cell.grades = dict(reversed(list(cell.grades.items())))
            explicit = sorted(
                cell.grades.items(), key=lambda kv: (kv[0].attribute, kv[0].label)
            )
            assert cell_to_dict(cell)["grades"] == [
                [d.attribute, d.label, grade] for d, grade in explicit
            ]


class TestSummarySerialization:
    def test_round_trip_preserves_structure(self, example_hierarchy):
        payload = summary_to_dict(example_hierarchy.root)
        restored = summary_from_dict(payload)
        assert restored.tuple_count == pytest.approx(example_hierarchy.root.tuple_count)
        assert len(restored.children) == len(example_hierarchy.root.children)
        assert restored.intent == example_hierarchy.root.intent


class TestHierarchySerialization:
    def test_round_trip_preserves_leaf_cells_and_metadata(
        self, example_hierarchy, numeric_background
    ):
        payload = hierarchy_to_dict(example_hierarchy)
        restored = hierarchy_from_dict(payload, numeric_background)
        assert restored.owner == example_hierarchy.owner
        assert restored.attributes == example_hierarchy.attributes
        assert restored.records_processed == example_hierarchy.records_processed
        assert restored.root.tuple_count == pytest.approx(
            example_hierarchy.root.tuple_count
        )
        assert restored.signature() == example_hierarchy.signature()

    def test_json_round_trip(self, example_hierarchy, numeric_background):
        encoded = hierarchy_to_json(example_hierarchy)
        restored = hierarchy_from_json(encoded, numeric_background)
        assert restored.leaf_count() == example_hierarchy.leaf_count()

    def test_malformed_json_raises(self, numeric_background):
        with pytest.raises(SummaryError):
            hierarchy_from_json("{not json", numeric_background)

    def test_unsupported_version_raises(self, example_hierarchy, numeric_background):
        payload = hierarchy_to_dict(example_hierarchy)
        payload["version"] = 99
        with pytest.raises(SummaryError):
            hierarchy_from_dict(payload, numeric_background)

    def test_encoded_size_reasonable(self, example_hierarchy):
        size = encoded_size_bytes(example_hierarchy)
        assert size > 0
        # A tiny 3-record hierarchy should stay within a few kilobytes — the
        # same order of magnitude as the 512-bytes-per-node model estimate.
        assert size < 16 * 1024


class TestCanonicalEncoding:
    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'

    def test_encoded_size_uses_the_canonical_encoding(self, example_hierarchy):
        """Storage-cost figures and snapshot hashes measure the same bytes."""
        payload = hierarchy_to_dict(example_hierarchy)
        assert encoded_size_bytes(example_hierarchy) == len(canonical_encode(payload))
        assert encoded_size_bytes(example_hierarchy) == len(
            hierarchy_to_json(example_hierarchy).encode("utf-8")
        )

    def test_content_hash_keys_the_canonical_bytes(self, example_hierarchy):
        payload = hierarchy_to_dict(example_hierarchy)
        assert hierarchy_content_hash(example_hierarchy) == content_hash(payload)
        assert len(hierarchy_content_hash(example_hierarchy)) == 64

    def test_equal_hierarchies_hash_equal(self, numeric_background, paper_records):
        def build():
            hierarchy = SummaryHierarchy(
                numeric_background, attributes=["age", "bmi"], owner="peer-a"
            )
            hierarchy.add_records(paper_records)
            return hierarchy

        assert hierarchy_content_hash(build()) == hierarchy_content_hash(build())


def _oracle(hierarchy):
    return canonical_json(hierarchy_to_dict(hierarchy))


class TestOnePassText:
    """``hierarchy_text`` equals the dict oracle whatever objects the tree holds."""

    @staticmethod
    def _distinct_cells_tree(background):
        """A leaf and its parent holding *distinct* ``Cell`` objects for one key."""
        leaf, root = Summary(), Summary()
        leaf.absorb_cell(_cell())  # absorb_cell files a copy
        root.add_child(leaf)
        root.absorb_cell(_cell())
        hierarchy = SummaryHierarchy(background, attributes=["age", "bmi"], owner="peer-a")
        hierarchy._builder.adopt_root(root, 1)
        (key,) = root.cells
        assert root.cells[key] is not leaf.cells[key]
        return hierarchy, root.cells[key]

    def test_distinct_objects_with_equal_states(self, numeric_background):
        hierarchy, _ancestor_cell = self._distinct_cells_tree(numeric_background)
        assert hierarchy_text(hierarchy) == _oracle(hierarchy)

    def test_distinct_objects_with_different_states(self, numeric_background):
        """Keyed by identity, not by key: the ancestor's own state is encoded."""
        hierarchy, ancestor_cell = self._distinct_cells_tree(numeric_background)
        ancestor_cell.tuple_count += 1.0
        root = hierarchy_to_dict(hierarchy)["root"]
        assert root["cells"] != root["children"][0]["cells"]
        assert hierarchy_text(hierarchy) == _oracle(hierarchy)

    def test_owner_with_json_metacharacters(self, numeric_background, paper_records):
        owner = 'p "q" \\ é中\U0001f600 ,"root":{"version":1}'
        hierarchy = SummaryHierarchy(numeric_background, attributes=["age", "bmi"], owner=owner)
        hierarchy.add_records(paper_records)
        text = hierarchy_text(hierarchy)
        assert text == _oracle(hierarchy)
        assert json.loads(text)["owner"] == owner
        assert encoded_size_bytes(hierarchy) == len(canonical_encode(hierarchy_to_dict(hierarchy)))

    def test_empty_hierarchy(self, numeric_background):
        hierarchy = SummaryHierarchy(numeric_background, owner=None)
        assert hierarchy_text(hierarchy) == _oracle(hierarchy)


def _grown_hierarchy(background, count=60, owner="peer-a"):
    hierarchy = SummaryHierarchy(background, attributes=["age", "bmi"], owner=owner)
    records = [r.as_dict() for r in PatientGenerator(seed=9).relation(count)]
    hierarchy.add_records(records)
    return hierarchy


class TestExactRehydration:
    """Regression: rehydration restores caches, owners and the mutation counter.

    The pre-store decoder re-clustered the leaf cells from scratch, which lost
    the serialized structure and the shared-cell/cache state of the tree.
    """

    def test_roundtrip_preserves_tree_structure(self, numeric_background):
        original = _grown_hierarchy(numeric_background)
        restored = hierarchy_from_dict(
            hierarchy_to_dict(original), numeric_background
        )
        assert restored.node_count() == original.node_count()
        assert restored.depth() == original.depth()
        assert restored.leaf_count() == original.leaf_count()
        assert hierarchy_to_dict(restored) == hierarchy_to_dict(original)

    def test_restored_caches_survive_check(self, numeric_background):
        original = _grown_hierarchy(numeric_background)
        restored = hierarchy_from_dict(
            hierarchy_to_dict(original), numeric_background
        )
        # validate() recomputes every cached aggregate from scratch and raises
        # on divergence, and checks the structural invariants.
        restored.validate()

    def test_restored_cells_are_owned_by_their_nodes(self, numeric_background):
        original = _grown_hierarchy(numeric_background)
        restored = hierarchy_from_dict(
            hierarchy_to_dict(original), numeric_background
        )
        for key, cell in restored.root.cells.items():
            # ``owner`` is the leaf holding the key, and exactly the nodes on
            # its root path alias the key's one cell.
            assert cell.owner.is_leaf
            path = []
            node = cell.owner
            while node is not None:
                path.append(node)
                node = node.parent
            assert path[-1] is restored.root
            holders = [n for n in restored.root.iter_subtree() if key in n.cells]
            assert {id(n) for n in holders} == {id(n) for n in path}
            assert all(n.cells[key] is cell for n in holders)

    def test_inconsistent_ancestor_entry_raises(self, numeric_background):
        """An ancestor's copy of a cell must equal its leaf's: one cell per key."""
        payload = hierarchy_to_dict(_grown_hierarchy(numeric_background))
        payload["root"]["cells"][0]["tuple_count"] += 1.0
        with pytest.raises(SummaryError, match="differs from its leaf"):
            hierarchy_from_dict(payload, numeric_background)

    def test_ancestor_missing_a_descendants_key_raises(self, numeric_background):
        payload = hierarchy_to_dict(_grown_hierarchy(numeric_background))
        del payload["root"]["cells"][0]
        with pytest.raises(SummaryError, match="disjoint union of its children"):
            hierarchy_from_dict(payload, numeric_background)

    def test_key_held_by_two_leaves_raises(self, numeric_background):
        payload = hierarchy_to_dict(_grown_hierarchy(numeric_background))
        root = payload["root"]
        root["children"].append(root["children"][0])
        with pytest.raises(SummaryError, match="disjoint union of its children"):
            hierarchy_from_dict(payload, numeric_background)

    def test_mutation_counter_resumes(self, numeric_background):
        original = _grown_hierarchy(numeric_background)
        restored = hierarchy_from_dict(
            hierarchy_to_dict(original), numeric_background
        )
        assert (
            restored._builder.mutation_count == original._builder.mutation_count
        )

    def test_roundtripped_hierarchy_absorbs_byte_identically(
        self, numeric_background
    ):
        """The satellite's acceptance: absorb after a roundtrip == no roundtrip."""
        original = _grown_hierarchy(numeric_background)
        restored = hierarchy_from_dict(
            hierarchy_to_dict(original), numeric_background
        )
        extra = [r.as_dict() for r in PatientGenerator(seed=31).relation(40)]
        original.add_records(extra)
        restored.add_records(extra)
        assert hierarchy_content_hash(restored) == hierarchy_content_hash(original)
        original.validate()
        restored.validate()

    def test_roundtripped_hierarchy_merges_byte_identically(self, numeric_background):
        first = _grown_hierarchy(numeric_background, owner="peer-a")
        second = _grown_hierarchy(numeric_background, count=30, owner="peer-b")
        roundtrip = lambda h: hierarchy_from_dict(  # noqa: E731
            hierarchy_to_dict(h), numeric_background
        )
        merged_original = merge_hierarchies([first, second], owner="sp")
        merged_restored = merge_hierarchies(
            [roundtrip(first), roundtrip(second)], owner="sp"
        )
        assert hierarchy_content_hash(merged_restored) == hierarchy_content_hash(
            merged_original
        )

    def test_version_1_payloads_still_decode(self, numeric_background):
        original = _grown_hierarchy(numeric_background)
        payload = hierarchy_to_dict(original)
        payload["version"] = 1
        del payload["incorporated"]
        restored = hierarchy_from_dict(payload, numeric_background)
        assert hierarchy_to_dict(restored)["root"] == hierarchy_to_dict(original)["root"]
