"""Property: ground truth read from predicate bitmasks equals a per-record scan.

``LocalDatabase`` answers ``has_match``, ``count_matches`` and ``execute``
from per-relation masks that are filled lazily and kept until the relation
moves.  The oracle here keeps its own copy of the rows and grades every row on
every query, through ``DescriptorPredicate.matches_with_background`` (which
grades with ``BackgroundKnowledge.grade``) for a descriptor predicate when the
database has a background and through ``Predicate.matches`` otherwise.  One database object lives through a random interleaving of
inserts, deletes, updates, drops and re-creations under the same name, and a
fixed set of queries is asked after every step, so stale masks would show.
"""

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import (
    AttributeIn,
    Comparison,
    DescriptorPredicate,
    LocalDatabase,
    SelectionQuery,
)
from repro.database.schema import patient_schema
from repro.exceptions import SchemaError
from repro.fuzzy.linguistic import Descriptor
from repro.fuzzy.vocabularies import DEFAULT_DISEASES, medical_background_knowledge

BACKGROUND = medical_background_knowledge()
RELATION = "patient"
SEXES = ["female", "male", "other"]
DISEASES = list(DEFAULT_DISEASES) + ["scurvy"]
ALPHA_CUTS = [0, 0.3, 0.7]

numbers = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=100),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
rows = st.fixed_dictionaries(
    {
        "id": st.sampled_from([f"t{index}" for index in range(6)]),
        "age": numbers,
        "sex": st.one_of(st.none(), st.sampled_from(SEXES)),
        "bmi": numbers,
        "disease": st.one_of(st.none(), st.sampled_from(DISEASES)),
    }
)


@st.composite
def descriptor_predicates(draw):
    attribute = draw(st.sampled_from(BACKGROUND.attributes))
    labels = draw(
        st.lists(
            st.sampled_from(BACKGROUND.labels(attribute)),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    return DescriptorPredicate(
        attribute,
        [Descriptor(attribute, label) for label in labels],
        draw(st.sampled_from(ALPHA_CUTS)),
    )


predicates = st.one_of(
    descriptor_predicates(),
    st.builds(
        Comparison,
        st.sampled_from(["age", "bmi"]),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        st.integers(min_value=0, max_value=100),
    ),
    st.builds(
        Comparison, st.just("sex"), st.sampled_from(["=", "!="]), st.sampled_from(SEXES)
    ),
    st.builds(
        AttributeIn,
        st.sampled_from(["sex", "disease"]),
        st.lists(st.sampled_from(SEXES + DISEASES), min_size=1, max_size=3),
    ),
    # An attribute the schema lacks: no record holds it.
    st.just(Comparison("height", ">", 150)),
    st.just(DescriptorPredicate("height", [Descriptor("height", "tall")], 0.3)),
)
queries = st.builds(
    SelectionQuery,
    st.sampled_from([RELATION, RELATION, RELATION, "unknown"]),
    st.lists(predicates, max_size=3),
    st.sampled_from([(), ("id",), ("age", "disease")]),
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), rows),
        st.tuples(st.just("insert_many"), st.lists(rows, max_size=4)),
        st.tuples(st.just("delete"), predicates),
        st.tuples(
            st.just("update"),
            predicates,
            rows.map(lambda row: {"bmi": row["bmi"], "disease": row["disease"]}),
        ),
        st.tuples(st.just("recreate"), st.lists(rows, max_size=6)),
        st.tuples(st.just("drop")),
    ),
    max_size=12,
)


def at_every_cut(query):
    """``query`` and its twins with every descriptor predicate re-cut.

    The twins share descriptors at other alpha cuts, so a mask kept for one
    cut and read for another would show.
    """
    return [query] + [
        SelectionQuery(
            query.relation,
            [
                DescriptorPredicate(p.attribute, p.descriptors, cut)
                if isinstance(p, DescriptorPredicate)
                else p
                for p in query.predicates
            ],
            query.select,
        )
        for cut in ALPHA_CUTS
    ]


def oracle_holds(predicate, row, background) -> bool:
    if background is not None and isinstance(predicate, DescriptorPredicate):
        return predicate.matches_with_background(row, background)
    return predicate.matches(row)


def oracle_rows(query, model, background) -> Optional[List[Dict[str, object]]]:
    """The matching rows in relation order; None for an unknown relation."""
    if query.relation != RELATION or model is None:
        return None
    return [
        row
        for row in model
        if all(oracle_holds(p, row, background) for p in query.predicates)
    ]


def assert_agrees(database, query, model, background) -> None:
    expected = oracle_rows(query, model, background)
    if expected is None:
        assert database.has_match(query) is False
        with pytest.raises(SchemaError):
            database.count_matches(query)
        with pytest.raises(SchemaError):
            database.execute(query)
        return
    assert database.has_match(query) is bool(expected)
    assert database.count_matches(query) == len(expected)
    projection = query.select or tuple(patient_schema().attribute_names)
    assert database.execute(query) == [
        {attribute: row[attribute] for attribute in projection} for row in expected
    ]


def apply(database, model, operation):
    """Apply ``operation`` to the database and return the oracle's new rows."""
    kind = operation[0]
    if kind == "recreate":
        if model is not None:
            database.drop_relation(RELATION)
        database.create_relation(RELATION, patient_schema(), operation[1])
        return [dict(row) for row in operation[1]]
    if model is None:
        return None
    if kind == "drop":
        database.drop_relation(RELATION)
        return None
    if kind == "insert":
        database.insert(RELATION, operation[1])
        return model + [dict(operation[1])]
    if kind == "insert_many":
        database.insert_many(RELATION, operation[1])
        return model + [dict(row) for row in operation[1]]
    predicate = operation[1]
    relation = database.relation(RELATION)
    if kind == "delete":
        relation.delete(predicate.matches)
        return [row for row in model if not predicate.matches(row)]
    changes = operation[2]
    relation.update(predicate.matches, changes)
    return [
        dict(row, **changes) if predicate.matches(row) else row for row in model
    ]


@settings(max_examples=200, deadline=None)
@given(
    graded=st.booleans(),
    initial=st.lists(rows, max_size=6),
    steps=operations,
    asked=st.lists(queries, min_size=1, max_size=6),
)
def test_index_answers_like_a_per_record_scan(graded, initial, steps, asked):
    background = BACKGROUND if graded else None
    asked = [twin for query in asked for twin in at_every_cut(query)]
    database = LocalDatabase(background=background)
    database.create_relation(RELATION, patient_schema(), initial)
    model: Optional[List[Dict[str, object]]] = [dict(row) for row in initial]
    for query in asked:
        assert_agrees(database, query, model, background)
    for operation in steps:
        model = apply(database, model, operation)
        for query in asked:
            assert_agrees(database, query, model, background)


def test_an_empty_predicate_tuple_matches_every_record():
    database = LocalDatabase(background=BACKGROUND)
    query = SelectionQuery(RELATION, [])
    database.create_relation(RELATION, patient_schema())
    assert not database.has_match(query)
    assert database.count_matches(query) == 0
    database.insert_many(RELATION, [{"id": "t1"}, {"id": "t2", "age": 30}])
    assert database.has_match(query)
    assert database.count_matches(query) == 2
    assert [row["id"] for row in database.execute(query)] == ["t1", "t2"]
