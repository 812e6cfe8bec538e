"""The repo's performance benchmark (see ``BENCHMARK.json`` and ``README.md`` here).

One harness, one schema: ``python3 benchmarks/perf/run.py`` drives six
workloads through the public API of ``repro.experiments``, ``repro.fleet``
and ``repro.serving``, measures every layer from outside (timing wrappers on
public callables, installed for a traced run and removed afterwards) and
prints each metric declared in ``BENCHMARK.json`` by name with its unit.
"""
