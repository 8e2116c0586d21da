"""Medical (Patient) workload: per-peer databases with controllable selectivity.

The evaluation fixes the fraction of peers matching each query at 10 %
(Table 3).  With real content, that fraction is realised by giving "matching"
peers at least one record inside the query's target region of the descriptor
space and keeping every other peer's records outside it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.database.engine import LocalDatabase
from repro.database.generator import PatientGenerator, PatientProfile
from repro.fuzzy.background import BackgroundKnowledge
from repro.fuzzy.vocabularies import medical_background_knowledge


@dataclass
class MedicalWorkload:
    """Configuration for generating a population of peer medical databases.

    Attributes
    ----------
    records_per_peer:
        Number of patient records per peer database.
    matching_fraction:
        Fraction of peers that must hold data matching the *target query*
        (anorexic underweight young female patients, the paper's example).
    seed:
        Random seed for reproducibility.
    """

    records_per_peer: int = 20
    matching_fraction: float = 0.1
    seed: int = 0
    background: BackgroundKnowledge = field(default_factory=medical_background_knowledge)

    #: Profile generating records that match the paper's example query.
    matching_profile: PatientProfile = field(
        default_factory=lambda: PatientProfile(
            age_range=(13.0, 17.0),
            bmi_range=(15.0, 17.4),
            sexes=("female",),
            diseases=("anorexia",),
        )
    )
    #: Profile generating records that do not match it (older, normal+ BMI,
    #: other diseases).
    non_matching_profile: PatientProfile = field(
        default_factory=lambda: PatientProfile(
            age_range=(30.0, 80.0),
            bmi_range=(22.0, 38.0),
            sexes=("female", "male"),
            diseases=("malaria", "diabetes", "influenza", "hypertension"),
        )
    )


def build_peer_databases(
    peer_ids: Sequence[str],
    workload: Optional[MedicalWorkload] = None,
    matching_peers: Optional[Sequence[str]] = None,
) -> Dict[str, LocalDatabase]:
    """Build one database per peer, honouring the workload's matching fraction.

    ``matching_peers`` forces the exact set of peers holding matching data;
    when omitted it is drawn at random from ``peer_ids`` according to
    ``workload.matching_fraction``.
    """
    workload = workload or MedicalWorkload()
    rng = random.Random(workload.seed)
    generator = PatientGenerator(seed=workload.seed, background=workload.background)

    if matching_peers is None:
        target = round(workload.matching_fraction * len(peer_ids))
        if workload.matching_fraction > 0:
            target = max(1, target)
        target = min(target, len(peer_ids))
        matching_peers = rng.sample(list(peer_ids), target) if target else []
    matching_set = set(matching_peers)

    databases: Dict[str, LocalDatabase] = {}
    for peer_id in peer_ids:
        database = LocalDatabase(background=workload.background)
        if peer_id in matching_set:
            # A few matching records plus background noise.
            matching_count = max(1, workload.records_per_peer // 5)
            records = generator.records(
                matching_count, profile=workload.matching_profile, id_prefix=f"{peer_id}_m"
            )
            records += generator.records(
                workload.records_per_peer - matching_count,
                profile=workload.non_matching_profile,
                id_prefix=f"{peer_id}_n",
            )
        else:
            records = generator.records(
                workload.records_per_peer,
                profile=workload.non_matching_profile,
                id_prefix=f"{peer_id}_n",
            )
        from repro.database.schema import patient_schema

        database.create_relation("patient", patient_schema(), records)
        databases[peer_id] = database
    return databases

