"""Ablation benchmarks for the design choices DESIGN.md calls out.

Three ablations of AMbER itself, all on the YAGO-like dataset with the
complex workload (the hardest combination for an un-pruned search):

* **synopsis index (Lemma 1)** — initial candidates from the dominance
  mask over the synopsis matrix versus a full vertex scan,
* **core/satellite decomposition (Lemma 2)** — satellites resolved in bulk
  versus treating every query vertex as a core vertex,
* **vertex ordering (Section 5.3)** — the (r1, r2) heuristic versus a random
  connectivity-preserving order.

The ablated variants stay correct (the unit tests check agreement); the
benchmark records how much each optimisation contributes to query time.
"""

from __future__ import annotations

import pytest

from repro.amber.engine import AmberEngine
from repro.amber.matching import MatcherConfig
from repro.bench import build_dataset, format_workload_summary, run_workload
from repro.datasets import WorkloadGenerator

QUERY_SIZE = 30
QUERY_COUNT = 5
TIMEOUT = 5.0

VARIANTS = {
    "AMbER (full)": MatcherConfig(),
    "no synopsis index": MatcherConfig(use_signature_index=False),
    "no satellite decomposition": MatcherConfig(use_satellite_decomposition=False),
    "random vertex ordering": MatcherConfig(ordering="random"),
}


class _NamedAmber:
    """AMbER with a variant name, so the workload runner can label it."""

    def __init__(self, name, store, config):
        self.name = name
        self._engine = AmberEngine.from_store(store, config=config)

    def query(self, query, timeout_seconds=None):
        return self._engine.query(query, timeout_seconds=timeout_seconds)


@pytest.fixture(scope="module")
def ablation_setup(bench_scale):
    store = build_dataset("YAGO", bench_scale)
    generator = WorkloadGenerator(store, seed=bench_scale.seed)
    queries = generator.workload("complex", QUERY_SIZE, QUERY_COUNT)
    queries += generator.workload("star", QUERY_SIZE, QUERY_COUNT)
    engines = [_NamedAmber(name, store, config) for name, config in VARIANTS.items()]
    return engines, queries


def test_ablation_index_and_decomposition(benchmark, ablation_setup, record_result):
    """Compare full AMbER against its three ablated variants."""
    engines, queries = ablation_setup

    def run():
        return run_workload(engines, queries, TIMEOUT)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    record_result(
        "ablation_amber_variants.txt",
        format_workload_summary(
            results, f"Ablation — AMbER variants, YAGO-like, mixed size-{QUERY_SIZE} workload"
        ),
    )

    full = results["AMbER (full)"]
    assert full.outcomes
    # The full engine must answer at least as many queries as any ablation.
    for name, result in results.items():
        assert len(full.answered) >= len(result.answered), name
