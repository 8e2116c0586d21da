"""Experiment harness: one module per table/figure of the paper's evaluation.

Every module exposes a ``run_*`` function returning an
:class:`~repro.reporting.ExperimentTable` (rows + metadata).  The
CLI (``python -m repro <command>``) is the one way to print them; the benches
under ``benchmarks/`` and the ``examples/`` scripts call the same ``run_*``
functions.  Figures 4–6 share one driver, ``runner.maintenance_sweep``: each
``run_figure*`` is that sweep projected into its table (``figure*_table``),
and ``repro all`` projects all three from a single sweep.
"""

from repro.experiments.fault_sweep import run_fault_sweep
from repro.experiments.fig4_stale_answers import run_figure4
from repro.experiments.fig5_false_negatives import run_figure5
from repro.experiments.fig6_update_cost import run_figure6
from repro.experiments.fig7_query_cost import run_figure7
from repro.reporting import ExperimentTable
from repro.experiments.tables import run_table1_table2, run_table3

__all__ = [
    "ExperimentTable",
    "run_fault_sweep",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_table1_table2",
    "run_table3",
]
