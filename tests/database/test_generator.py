"""Unit tests for the synthetic data generator."""

from repro.database.generator import PatientGenerator, PatientProfile


class TestPatientGenerator:
    def test_paper_example_relation_matches_table1(self):
        relation = PatientGenerator().paper_example_relation()
        assert len(relation) == 3
        ages = [record["age"] for record in relation]
        assert ages == [15, 20, 18]
        assert relation.records[0]["disease"] == "anorexia"

    def test_records_count_and_unique_ids(self):
        generator = PatientGenerator(seed=3)
        records = generator.records(50)
        assert len(records) == 50
        assert len({record["id"] for record in records}) == 50

    def test_records_respect_profile_ranges(self):
        profile = PatientProfile(
            age_range=(10, 12), bmi_range=(15, 16), sexes=("female",), diseases=("anorexia",)
        )
        records = PatientGenerator(seed=1).records(30, profile=profile)
        assert all(10 <= record["age"] <= 12 for record in records)
        assert all(15 <= record["bmi"] <= 16 for record in records)
        assert all(record["sex"] == "female" for record in records)
        assert all(record["disease"] == "anorexia" for record in records)

    def test_reproducibility_with_same_seed(self):
        first = PatientGenerator(seed=42).records(10)
        second = PatientGenerator(seed=42).records(10)
        assert first == second

    def test_relation_and_database_builders(self):
        generator = PatientGenerator(seed=5)
        relation = generator.relation(10)
        assert len(relation) == 10
        database = generator.database(8)
        assert database.total_records() == 8
        assert database.background is generator.background

    def test_disease_weights(self):
        profile = PatientProfile(
            diseases=("anorexia", "malaria"), weights={"anorexia": 100.0, "malaria": 0.0001}
        )
        records = PatientGenerator(seed=2).records(40, profile=profile)
        anorexia = sum(1 for record in records if record["disease"] == "anorexia")
        assert anorexia >= 35

