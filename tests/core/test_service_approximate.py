"""Unit tests for the local summary service and domain-level approximate answering."""

import pytest

from repro.core.approximate import answer_across_domains, answer_in_domain, localize_peers
from repro.core.domain import Domain
from repro.core.service import LocalSummaryService
from repro.database.generator import PatientGenerator
from repro.database.schema import patient_schema
from repro.database.engine import LocalDatabase
from repro.exceptions import ProtocolError, QueryError
from repro.database.query import Comparison, SelectionQuery
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.saintetiq.merging import merge_hierarchies
from repro.workloads.queries import paper_example_query


@pytest.fixture
def peer_database(background):
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


class TestLocalSummaryService:
    def test_rebuild_from_database(self, background, peer_database):
        service = LocalSummaryService("p1", background, database=peer_database)
        processed = service.rebuild_from_database()
        assert processed == 3
        assert not service.summary.is_empty()
        assert service.summary.peer_extent() == {"p1"}

    def test_rebuild_without_database_raises(self, background):
        service = LocalSummaryService("p1", background)
        with pytest.raises(ProtocolError):
            service.rebuild_from_database()

    def test_add_record_incrementally(self, background):
        service = LocalSummaryService("p1", background)
        assert service.add_record(
            {"age": 30, "bmi": 22, "sex": "male", "disease": "malaria"}
        ) > 0

    def test_publish_and_drift(self, background, peer_database):
        service = LocalSummaryService("p1", background, database=peer_database)
        service.rebuild_from_database()
        service.publish()
        assert service.drift_since_publication() == 0.0
        assert not service.should_push(0.1)
        # Insert records in a very different region of the descriptor space.
        peer_database.insert(
            "patient",
            {"id": "t9", "age": 85, "sex": "male", "bmi": 38, "disease": "diabetes"},
        )
        service.refresh_incremental()
        assert service.drift_since_publication() > 0.0
        assert service.should_push(0.01)

    def test_refresh_incremental_noop_when_unchanged(self, background, peer_database):
        service = LocalSummaryService("p1", background, database=peer_database)
        service.rebuild_from_database()
        assert service.refresh_incremental() == 0

    def test_refresh_after_drop_and_recreate_resummarizes(self, background):
        """A relation dropped and re-created with as many records is a change."""
        patient = {"id": "t1", "age": 15, "sex": "female", "bmi": 17}
        database = LocalDatabase(background=background)
        database.create_relation(
            "patient", patient_schema(), [dict(patient, disease="anorexia")]
        )
        service = LocalSummaryService("p1", background, database=database)
        assert service.rebuild_from_database() == 1
        summarized = database.version()
        database.drop_relation("patient")
        assert database.version() > summarized
        database.create_relation(
            "patient", patient_schema(), [dict(patient, disease="malaria")]
        )
        assert database.version() > summarized + 1
        assert service.refresh_incremental() == 1
        labels = {d.label for d in service.summary.signature()}
        assert "malaria" in labels and "anorexia" not in labels

    def test_publish_returns_independent_snapshot(self, background, peer_database):
        service = LocalSummaryService("p1", background, database=peer_database)
        service.rebuild_from_database()
        snapshot = service.publish()
        snapshot.add_record({"age": 1, "bmi": 15, "sex": "male", "disease": "asthma"})
        assert snapshot.records_processed != service.summary.records_processed


class TestApproximateAnswering:
    @pytest.fixture
    def domain_with_summary(self, background, peer_database):
        service = LocalSummaryService("p1", background, database=peer_database)
        service.rebuild_from_database()
        domain = Domain.create("sp")
        domain.add_partner("p1", distance=1.0)
        domain.install_global_summary(merge_hierarchies([service.summary], owner="sp"))
        return domain

    def test_paper_example_answer_is_young(self, domain_with_summary, background):
        result = answer_in_domain(domain_with_summary, paper_example_query(), background)
        merged = result.answer.merged_output()
        assert merged["age"] == frozenset({"young"})

    def test_peer_localization(self, domain_with_summary, background):
        peers = localize_peers(domain_with_summary, paper_example_query(), background)
        assert peers == {"p1"}

    def test_no_global_summary_raises(self, background):
        domain = Domain.create("sp")
        with pytest.raises(ProtocolError):
            answer_in_domain(domain, paper_example_query(), background)

    def test_unknown_attribute_raises(self, domain_with_summary, background):
        query = SelectionQuery("patient", [Comparison("height", ">", 150)])
        with pytest.raises(QueryError):
            answer_in_domain(domain_with_summary, query, background)

    def test_answer_across_domains(self, domain_with_summary, background):
        empty_domain = Domain.create("sp2")
        merged = answer_across_domains(
            [empty_domain, domain_with_summary], paper_example_query(), background
        )
        assert merged is not None
        assert "young" in merged.merged_output()["age"]

    def test_answer_across_domains_all_empty(self, background):
        assert (
            answer_across_domains([Domain.create("sp")], paper_example_query(), background)
            is None
        )

    def test_estimated_matching_records(self, domain_with_summary, background):
        result = answer_in_domain(domain_with_summary, paper_example_query(), background)
        assert result.estimated_matching_records == pytest.approx(2.0, abs=0.5)
