"""Construction scaling: cells/second of the summarization service by grid size.

The paper's central complexity claim (Section 3.2.3) is that incorporating a
cell costs time proportional to tree depth and node arity, so construction is
linear in the number of populated grid cells.  This bench sweeps increasingly
fine background-knowledge grids, feeds a synthetic random cell stream to the
builder, and records cells/second plus structural figures in
``extra_info`` — the series the ``BENCH_*.json`` perf trajectory tracks.

``test_merge_heavy_build_shares_cells`` records the throughput and the
cell-sharing factor (cell-map slots per ``Cell`` object) of a merge-heavy
binary-arity build on the largest default grid.
"""

import json
import random
import time

import pytest

from benchmarks.conftest import full_scale, mean_seconds
from repro.fuzzy.linguistic import Descriptor
from repro.saintetiq.cell import Cell, make_cell_key
from repro.saintetiq.clustering import ClusteringParameters, SummaryBuilder

#: (attributes, labels per attribute, cells in the stream) — grid size grows
#: as ``labels ** attributes``; the stream revisits keys so same-key merging
#: is exercised as well.
DEFAULT_SWEEP = [(2, 4, 500), (3, 6, 1500), (4, 8, 3000)]
FULL_SWEEP = DEFAULT_SWEEP + [(4, 10, 8000), (5, 8, 12000)]


def _sweep():
    return FULL_SWEEP if full_scale() else DEFAULT_SWEEP


def _cell_stream(n_attrs, n_labels, n_cells, seed=0):
    rng = random.Random(seed)
    cells = []
    for _ in range(n_cells):
        key = make_cell_key(
            Descriptor(f"a{index}", f"l{rng.randrange(n_labels)}")
            for index in range(n_attrs)
        )
        cells.append(Cell(key=key, tuple_count=rng.uniform(0.05, 4.0)))
    return cells


@pytest.mark.benchmark(group="construction-scaling")
@pytest.mark.parametrize("n_attrs,n_labels,n_cells", _sweep())
def test_construction_scaling(benchmark, n_attrs, n_labels, n_cells):
    """Incorporation throughput at one grid granularity."""
    cells = _cell_stream(n_attrs, n_labels, n_cells)

    def build():
        builder = SummaryBuilder()
        builder.incorporate_all(cells)
        return builder

    builder = benchmark.pedantic(build, iterations=1, rounds=3)
    root = builder.root
    elapsed = mean_seconds(benchmark)
    benchmark.extra_info["scaling"] = json.dumps(
        {
            "grid_size": n_labels**n_attrs,
            "cells_incorporated": n_cells,
            "distinct_keys": len(root.cells),
            "cells_per_second": n_cells / elapsed if elapsed else None,
            "depth": root.depth(),
            "nodes": sum(1 for _ in root.iter_subtree()),
        }
    )


@pytest.mark.benchmark(group="construction-scaling")
def test_construction_is_near_linear(benchmark):
    """Per-cell cost must not blow up as the stream grows on one grid.

    Incorporates successive same-size chunks of one stream and compares the
    last chunk's per-cell time against the first chunk's: near-linear overall
    construction means the ratio stays bounded by a small constant (the tree
    deepens logarithmically), nowhere near the ratio a quadratic rescan
    (proportional to resident cell count) would produce.
    """
    n_attrs, n_labels, n_cells = _sweep()[-1]
    chunk = n_cells // 5
    cells = _cell_stream(n_attrs, n_labels, chunk * 5)

    def run():
        builder = SummaryBuilder()
        timings = []
        for start in range(0, len(cells), chunk):
            t0 = time.perf_counter()
            builder.incorporate_all(cells[start : start + chunk])
            timings.append(time.perf_counter() - t0)
        return timings

    timings = benchmark.pedantic(run, iterations=1, rounds=1)
    ratio = timings[-1] / timings[0]
    benchmark.extra_info["chunk_timings"] = json.dumps(
        {"chunk_cells": chunk, "timings": timings, "last_over_first": ratio}
    )
    assert ratio < 8.0, f"per-cell cost grew {ratio:.1f}x across the stream"


@pytest.mark.benchmark(group="construction-scaling")
def test_merge_heavy_build_shares_cells(benchmark):
    """A merge-heavy build keeps one ``Cell`` per key however deep the tree.

    ``max_children=2`` makes the arity enforcement merge on essentially every
    overflow, so ``_merge_children``'s child-union pass dominates and the
    tree is deep: every node on a key's root path holds a cell-map slot for
    it, all aliasing the one object — slots grow with depth, cells do not.
    """
    n_attrs, n_labels, n_cells = DEFAULT_SWEEP[-1]
    cells = _cell_stream(n_attrs, n_labels, n_cells)
    parameters = ClusteringParameters(max_children=2)

    def build_shared():
        builder = SummaryBuilder(parameters)
        builder.incorporate_all(cells)
        return builder

    builder = benchmark.pedantic(build_shared, iterations=1, rounds=3)
    shared_elapsed = mean_seconds(benchmark)
    if shared_elapsed is None:  # --benchmark-disable: time one run directly
        t0 = time.perf_counter()
        builder = build_shared()
        shared_elapsed = time.perf_counter() - t0
    nodes = list(builder.root.iter_subtree())
    slots = sum(len(node.cells) for node in nodes)
    objects = len({id(cell) for node in nodes for cell in node.cells.values()})
    benchmark.extra_info["merge_sharing"] = json.dumps(
        {
            "cells": n_cells,
            "grid_size": n_labels**n_attrs,
            "shared_seconds": shared_elapsed,
            "cells_per_second": n_cells / shared_elapsed if shared_elapsed > 0 else None,
            "cell_slots": slots,
            "cell_objects": objects,
            "slots_per_cell": slots / objects,
        }
    )
    # One object per distinct key, and the stream's whole mass under the root.
    assert objects == len(builder.root.cells) == len({cell.key for cell in cells})
    assert builder.root.tuple_count == pytest.approx(
        sum(cell.tuple_count for cell in cells)
    )
    assert slots / objects >= 3.0
