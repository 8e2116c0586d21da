"""The repo's performance benchmark (see ``README.md`` in this directory).

One journey — build, maintain, checkpoint, restore, query locally, query a
served daemon — run over four workloads that stress different layers, with
every number taken from outside ``src/``: by timing calls into public
functions, by replaying one request through the layers one call at a time,
or by reading counters the program already exposes.  ``BENCHMARK.json`` at
the repo root names every metric this package emits.
"""
