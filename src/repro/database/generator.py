"""Synthetic relational data generation.

The experiments need per-peer databases whose content can be controlled so
that a target fraction of peers matches each query (the paper uses 10 %).
The :class:`PatientGenerator` produces Patient relations matching the paper's
running example (Table 1); its parameters control the distributions of age,
BMI, sex and disease so that workloads can dial peer selectivity precisely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.database.engine import LocalDatabase
from repro.database.schema import patient_schema
from repro.database.table import Relation
from repro.fuzzy.background import BackgroundKnowledge
from repro.fuzzy.vocabularies import DEFAULT_DISEASES, medical_background_knowledge


@dataclass
class PatientProfile:
    """Sampling profile for one peer's patient population.

    The age and BMI values are drawn from uniform ranges so that a profile can
    be positioned inside (or outside) the support of specific BK descriptors,
    which lets workload code construct peers that do or do not match a query.
    """

    age_range: Sequence[float] = (1.0, 95.0)
    bmi_range: Sequence[float] = (14.0, 40.0)
    sexes: Sequence[str] = ("female", "male")
    diseases: Sequence[str] = tuple(DEFAULT_DISEASES)
    weights: Optional[Mapping[str, float]] = None

    def sample(self, rng: random.Random, identifier: str) -> Dict[str, object]:
        age_low, age_high = self.age_range
        bmi_low, bmi_high = self.bmi_range
        diseases = list(self.diseases)
        if self.weights:
            weights = [self.weights.get(d, 1.0) for d in diseases]
        else:
            weights = [1.0] * len(diseases)
        return {
            "id": identifier,
            "age": round(rng.uniform(age_low, age_high), 1),
            "sex": rng.choice(list(self.sexes)),
            "bmi": round(rng.uniform(bmi_low, bmi_high), 1),
            "disease": rng.choices(diseases, weights=weights, k=1)[0],
        }


class PatientGenerator:
    """Generates Patient relations and whole peer databases."""

    def __init__(
        self,
        seed: int = 0,
        background: Optional[BackgroundKnowledge] = None,
    ) -> None:
        self._rng = random.Random(seed)
        self._background = background or medical_background_knowledge()
        self._counter = 0

    @property
    def background(self) -> BackgroundKnowledge:
        return self._background

    def _next_id(self, prefix: str = "t") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def records(
        self,
        count: int,
        profile: Optional[PatientProfile] = None,
        id_prefix: str = "t",
    ) -> List[Dict[str, object]]:
        """Generate ``count`` patient records following ``profile``."""
        profile = profile or PatientProfile()
        return [
            profile.sample(self._rng, self._next_id(id_prefix))
            for _ in range(count)
        ]

    def relation(
        self,
        count: int,
        name: str = "patient",
        profile: Optional[PatientProfile] = None,
    ) -> Relation:
        relation = Relation(name, patient_schema())
        relation.insert_many(self.records(count, profile=profile))
        return relation

    def database(
        self,
        count: int,
        relation_name: str = "patient",
        profile: Optional[PatientProfile] = None,
    ) -> LocalDatabase:
        """A single-relation peer database with ``count`` patients."""
        database = LocalDatabase(background=self._background)
        database.create_relation(
            relation_name,
            patient_schema(),
            self.records(count, profile=profile),
        )
        return database

    def paper_example_relation(self) -> Relation:
        """The exact 3-tuple Patient relation of the paper's Table 1."""
        relation = Relation("patient", patient_schema())
        relation.insert_many(
            [
                {"id": "t1", "age": 15, "sex": "female", "bmi": 17, "disease": "anorexia"},
                {"id": "t2", "age": 20, "sex": "male", "bmi": 20, "disease": "malaria"},
                {"id": "t3", "age": 18, "sex": "female", "bmi": 16.5, "disease": "anorexia"},
            ]
        )
        return relation
