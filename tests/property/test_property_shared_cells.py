"""Property: a builder-managed hierarchy holds exactly one ``Cell`` per key.

Random sequences of record incorporation, ``merge_into`` and
``hierarchy_to_dict`` → ``hierarchy_from_dict`` roundtrips must leave every
key with a single ``Cell`` object, aliased by exactly the nodes on the root
path of the leaf it names as ``owner`` — and a hierarchy that was roundtripped
along the way must stay byte-identical to a twin that never was.  After every
step the one-pass snapshot text (each shared cell encoded once) must equal the
canonical encoding of the fresh-per-node dict view.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.saintetiq.clustering import ClusteringParameters
from repro.saintetiq.hierarchy import SummaryHierarchy
from repro.saintetiq.merging import merge_into
from repro.saintetiq.serialization import (
    canonical_json,
    hierarchy_content_hash,
    hierarchy_from_dict,
    hierarchy_snapshot,
    hierarchy_to_dict,
)

BACKGROUND = medical_background_knowledge(include_categorical=False)

records = st.lists(
    st.fixed_dictionaries(
        {
            "age": st.floats(min_value=0, max_value=119, allow_nan=False),
            "bmi": st.floats(min_value=11, max_value=59, allow_nan=False),
        }
    ),
    min_size=1,
    max_size=12,
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), records),
        st.tuples(st.just("merge"), records),
        st.tuples(st.just("roundtrip"), st.none()),
    ),
    min_size=1,
    max_size=8,
)


def _hierarchy(arity, owner):
    return SummaryHierarchy(
        BACKGROUND,
        attributes=["age", "bmi"],
        parameters=ClusteringParameters(max_children=arity),
        owner=owner,
    )


def assert_one_cell_per_key(hierarchy):
    root = hierarchy.root
    holders = {}
    for node in root.iter_subtree():
        for key, cell in node.cells.items():
            assert cell is root.cells[key], "a node holds its own copy of a cell"
            holders.setdefault(key, set()).add(id(node))
    for key, cell in root.cells.items():
        assert cell.owner.is_leaf
        path = set()
        node = cell.owner
        while node is not None:
            path.add(id(node))
            node = node.parent
        assert id(root) in path
        assert holders[key] == path


@given(operations, st.sampled_from([2, 3, 4]))
@settings(max_examples=60, deadline=None)
def test_one_cell_per_key_under_random_operation_sequences(ops, arity):
    hierarchy = _hierarchy(arity, "sp")
    twin = _hierarchy(arity, "sp")  # same operations, never roundtripped
    for index, (operation, payload) in enumerate(ops):
        if operation == "add":
            hierarchy.add_records(payload)
            twin.add_records(payload)
        elif operation == "merge":
            source = _hierarchy(arity, f"p{index}")
            source.add_records(payload)
            merge_into(hierarchy, source)
            merge_into(twin, source)
            assert_one_cell_per_key(source)
            assert source.peer_extent() <= {f"p{index}"}  # left untouched
            assert hierarchy_snapshot(source)[1] == canonical_json(hierarchy_to_dict(source))
        else:
            hierarchy = hierarchy_from_dict(hierarchy_to_dict(hierarchy), BACKGROUND)
        assert_one_cell_per_key(hierarchy)
        hierarchy.validate()
        assert hierarchy_snapshot(hierarchy)[1] == canonical_json(hierarchy_to_dict(hierarchy))
    assert hierarchy_content_hash(hierarchy) == hierarchy_content_hash(twin)
