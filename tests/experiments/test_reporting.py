"""Unit tests for experiment result tables."""

import json

import pytest

from repro.reporting import ExperimentTable


@pytest.fixture
def table():
    table = ExperimentTable(
        name="demo",
        columns=["x", "y"],
        expectation="y grows with x",
        parameters={"seed": 0},
    )
    table.add_row(x=1, y=2.0)
    table.add_row(x=2, y=4.0)
    return table


class TestExperimentTable:
    def test_add_row_requires_all_columns(self, table):
        with pytest.raises(ValueError):
            table.add_row(x=3)

    def test_column_extraction(self, table):
        assert table.column("x") == [1, 2]
        assert table.column("y") == [2.0, 4.0]

    def test_filter(self, table):
        assert table.filter(x=2) == [{"x": 2, "y": 4.0}]
        assert table.filter(x=99) == []

    def test_to_text_contains_headers_rows_and_expectation(self, table):
        text = table.to_text()
        assert "demo" in text
        assert "x" in text and "y" in text
        assert "y grows with x" in text
        assert "seed=0" in text

    def test_to_text_on_empty_table(self):
        empty = ExperimentTable(name="empty", columns=["a"])
        assert "empty" in empty.to_text()

    def test_to_json_round_trip(self, table):
        payload = json.loads(table.to_json())
        assert payload["name"] == "demo"
        assert payload["rows"] == [{"x": 1, "y": 2.0}, {"x": 2, "y": 4.0}]

    def test_float_formatting(self, table):
        table.add_row(x=3, y=123456.789)
        assert "1.235e+05" in table.to_text()

    def test_str_equals_to_text(self, table):
        assert str(table) == table.to_text()
