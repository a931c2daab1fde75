"""Tracked performance benchmarks for the simulation engine.

``repro bench`` runs macro scenarios over the engine's measured hot
paths (fabric shuffle waves, FluidPipe spill storms, an end-to-end
Fig-8-style job, event-loop timer churn), reports wall time and
events/sec, and emits one ``BENCH_<name>.json`` per scenario so the
perf trajectory accumulates across commits.  ``--check`` additionally
asserts every scenario's fingerprint digest equals its committed golden
(``goldens.json``, captured with ``tools/capture_bench_goldens.py``).

See :mod:`repro.bench.scenarios` for the workloads,
:mod:`repro.bench.harness` for the JSON schema, and ``benchmarks/perf/``
for usage documentation.
"""

from repro.bench.harness import (BenchReport, bench_scenario, main,
                                 run_bench)
from repro.bench.scenarios import SCENARIOS, ScenarioResult, run_scenario

__all__ = [
    "SCENARIOS",
    "BenchReport",
    "ScenarioResult",
    "bench_scenario",
    "main",
    "run_bench",
    "run_scenario",
]
