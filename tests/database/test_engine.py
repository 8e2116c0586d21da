"""Unit tests for the local database engine."""

import pytest

from repro.database.engine import LocalDatabase
from repro.database.query import Comparison, DescriptorPredicate, SelectionQuery
from repro.database.schema import patient_schema
from repro.exceptions import QueryError, SchemaError
from repro.fuzzy.linguistic import Descriptor


@pytest.fixture
def database(background):
    database = LocalDatabase(background=background)
    database.create_relation(
        "patient",
        patient_schema(),
        [
            {"id": "t1", "age": 15, "sex": "female", "bmi": 17, "disease": "anorexia"},
            {"id": "t2", "age": 20, "sex": "male", "bmi": 20, "disease": "malaria"},
            {"id": "t3", "age": 18, "sex": "female", "bmi": 16.5, "disease": "anorexia"},
        ],
    )
    return database


class TestDDL:
    def test_create_and_lookup(self, database):
        assert "patient" in database
        assert database.relation("patient").name == "patient"

    def test_create_duplicate_raises(self, database):
        with pytest.raises(SchemaError):
            database.create_relation("patient", patient_schema())

    def test_drop(self, database):
        database.drop_relation("patient")
        assert "patient" not in database

    def test_drop_unknown_raises(self, database):
        with pytest.raises(SchemaError):
            database.drop_relation("missing")

    def test_relation_names(self, database):
        assert database.relation_names == ["patient"]


class TestState:
    def test_total_records(self, database):
        assert database.total_records() == 3

    def test_version_changes_on_insert(self, database):
        before = database.version()
        database.insert("patient", {"id": "t4", "age": 40})
        assert database.version() == before + 1

    def test_version_rises_with_every_statement(self, database):
        relation = database.relation("patient")
        statements = [
            lambda: database.insert("patient", {"id": "t4", "age": 40}),
            lambda: relation.delete(lambda record: record["id"] == "t4"),
            lambda: relation.update(lambda record: True, {"age": 30}),
            lambda: database.drop_relation("patient"),
            lambda: database.create_relation("patient", patient_schema(), [{"id": "y"}]),
            lambda: database.create_relation("other", patient_schema(), [{"id": "x"}]),
            lambda: database.drop_relation("patient"),
        ]
        seen = [database.version()]
        for statement in statements:
            statement()
            seen.append(database.version())
        assert seen == sorted(set(seen))

    def test_creating_an_empty_relation_leaves_version(self, database):
        """An empty relation adds nothing to summarize; its drop still counts."""
        before = database.version()
        database.create_relation("empty", patient_schema())
        assert database.version() == before
        database.drop_relation("empty")
        assert database.version() == before + 1

    def test_insert_many(self, database):
        added = database.insert_many(
            "patient", [{"id": "t5", "age": 1}, {"id": "t6", "age": 2}]
        )
        assert added == 2
        assert database.total_records() == 5


class TestQueries:
    def test_crisp_selection(self, database):
        query = SelectionQuery(
            "patient",
            [Comparison("sex", "=", "female"), Comparison("bmi", "<", 19)],
            select=["age"],
        )
        rows = database.execute(query)
        assert sorted(row["age"] for row in rows) == [15, 18]

    def test_projection_star(self, database):
        query = SelectionQuery("patient", [Comparison("id", "=", "t2")])
        rows = database.execute(query)
        assert rows[0]["disease"] == "malaria"

    def test_projection_unknown_attribute_raises(self, database):
        query = SelectionQuery("patient", [], select=["height"])
        with pytest.raises(QueryError):
            database.execute(query)

    def test_descriptor_predicate_uses_background(self, database):
        query = SelectionQuery(
            "patient",
            [DescriptorPredicate("bmi", [Descriptor("bmi", "underweight")])],
            select=["id"],
        )
        rows = database.execute(query)
        assert {row["id"] for row in rows} == {"t1", "t3"}

    def test_descriptor_predicate_without_background_falls_back_to_labels(self):
        database = LocalDatabase()
        database.create_relation(
            "patient",
            patient_schema(),
            [{"id": "t1", "sex": "female"}],
        )
        query = SelectionQuery(
            "patient", [DescriptorPredicate("sex", [Descriptor("sex", "female")])]
        )
        assert database.count_matches(query) == 1

    def test_count_matches(self, database):
        query = SelectionQuery("patient", [Comparison("disease", "=", "anorexia")])
        assert database.count_matches(query) == 2

    def test_has_match_true_and_false(self, database):
        matching = SelectionQuery("patient", [Comparison("age", "<", 16)])
        missing = SelectionQuery("patient", [Comparison("age", ">", 90)])
        assert database.has_match(matching)
        assert not database.has_match(missing)

    def test_has_match_on_unknown_relation_is_false(self, database):
        query = SelectionQuery("unknown", [Comparison("age", "<", 16)])
        assert not database.has_match(query)

    def test_execute_on_unknown_relation_raises(self, database):
        query = SelectionQuery("unknown", [])
        with pytest.raises(SchemaError):
            database.execute(query)
