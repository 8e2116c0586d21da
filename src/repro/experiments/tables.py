"""Tables 1–3 of the paper.

Tables 1 and 2 are the running example (raw Patient tuples and their grid-cell
mapping); Table 3 lists the simulation parameters.  Reproducing them checks
the mapping service end to end and documents the scenario parameter space.
"""

from __future__ import annotations

from repro.database.generator import PatientGenerator
from repro.experiments.reporting import ExperimentTable
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.saintetiq.mapping import MappingService
from repro.workloads.scenarios import table3_parameters

TABLE12_EXPECTATION = (
    "the three tuples of Table 1 map to three grid cells: (young, underweight) "
    "with tuple count 2, (young, normal) with 0.7 and (adult, normal) with 0.3 "
    "(the 20-year-old maps 0.7/young, 0.3/adult)"
)


def run_table1_table2() -> ExperimentTable:
    """Reproduce the Table 1 → Table 2 mapping of the running example."""
    generator = PatientGenerator(seed=0)
    relation = generator.paper_example_relation()
    background = medical_background_knowledge(include_categorical=False)
    mapping = MappingService(background, attributes=["age", "bmi"])
    cells = mapping.map_records(
        [record.as_dict() for record in relation], peer="example-peer"
    )

    table = ExperimentTable(
        name="Tables 1 & 2 — raw Patient tuples mapped to grid cells",
        columns=["cell", "age_label", "bmi_label", "tuple_count"],
        expectation=TABLE12_EXPECTATION,
        parameters={"records": len(relation)},
    )
    for index, cell in enumerate(
        sorted(cells.values(), key=lambda c: -c.tuple_count), start=1
    ):
        description = cell.describe()
        table.add_row(
            cell=f"c{index}",
            age_label=description.get("age", "-"),
            bmi_label=description.get("bmi", "-"),
            tuple_count=round(cell.tuple_count, 3),
        )
    return table


def run_table3() -> ExperimentTable:
    """Render the Table 3 simulation parameters."""
    parameters = table3_parameters()
    table = ExperimentTable(
        name="Table 3 — simulation parameters",
        columns=["parameter", "value"],
        expectation="matches the parameter table of Section 6.2.1",
    )
    for key, value in parameters.items():
        table.add_row(parameter=key, value=value)
    return table
