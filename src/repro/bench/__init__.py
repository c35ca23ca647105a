"""The benchmark harness: regenerates every table and figure.

Each experiment from DESIGN.md's per-experiment index has a runner
here returning a plain-data result object, consumed three ways: the
``pytest-benchmark`` suites under ``benchmarks/``, the CLI
(``python -m repro.bench <experiment>``), and EXPERIMENTS.md.

Import the runners from their modules (``repro.bench.pingpong``,
``repro.bench.devices``, ...): the package itself imports nothing, so
a process that only needs the benchmark device classes does not load
numpy.
"""
