"""Experiment definitions reproducing every table and figure of the paper.

Each public function regenerates one artefact of Section 7:

* :func:`table1_complex_queries` — Table 1 (average time, complex queries of
  50 triple patterns on the DBpedia-like dataset, all engines),
* :func:`table4_dataset_statistics` — Table 4 (benchmark statistics),
* :func:`table5_offline_stage` — Table 5 (database and index construction),
* :func:`figure_experiment` — Figures 6-11 (average time and % unanswered
  versus query size, per dataset and query shape).

The datasets are the synthetic stand-ins described in DESIGN.md; absolute
numbers therefore differ from the paper, but the comparisons between
engines (who wins, how the gap evolves with query size, where engines stop
answering) are the reproduced quantities, recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from ..amber.engine import AmberEngine
from ..baselines import (
    FilterRefineEngine,
    GraphBacktrackingEngine,
    HashJoinEngine,
    NestedLoopEngine,
)
from ..datasets import DbpediaGenerator, LubmGenerator, WorkloadGenerator, YagoGenerator
from ..index.manager import IndexSet
from ..multigraph.builder import build_data_multigraph
from ..rdf.dataset import TripleStore
from .runner import WorkloadResult, run_workload

__all__ = [
    "DATASET_BUILDERS",
    "DEFAULT_QUERY_SIZES",
    "ExperimentScale",
    "FigureResult",
    "build_dataset",
    "build_engines",
    "shard_scaling_experiment",
    "table1_complex_queries",
    "table4_dataset_statistics",
    "table5_offline_stage",
    "figure_experiment",
]

#: Query sizes (number of triple patterns) used across the evaluation.
DEFAULT_QUERY_SIZES: tuple[int, ...] = (10, 20, 30, 40, 50)


@dataclass
class ExperimentScale:
    """Scale knobs shared by the experiments (kept laptop-friendly by default)."""

    lubm_scale: int = 2
    lubm_students_per_department: int = 40
    yago_persons: int = 400
    dbpedia_entities_per_domain: int = 150
    queries_per_size: int = 3
    timeout_seconds: float = 2.0
    seed: int = 7


DATASET_BUILDERS = {
    "DBPEDIA": lambda scale: DbpediaGenerator(
        entities_per_domain=scale.dbpedia_entities_per_domain, seed=scale.seed
    ),
    "YAGO": lambda scale: YagoGenerator(persons=scale.yago_persons, seed=scale.seed),
    "LUBM": lambda scale: LubmGenerator(
        scale=scale.lubm_scale,
        students_per_department=scale.lubm_students_per_department,
        seed=scale.seed,
    ),
}


def build_dataset(name: str, scale: ExperimentScale | None = None) -> TripleStore:
    """Build one of the three benchmark datasets by name."""
    scale = scale or ExperimentScale()
    try:
        builder = DATASET_BUILDERS[name.upper()]
    except KeyError as exc:
        raise ValueError(
            f"unknown dataset {name!r}; expected one of {sorted(DATASET_BUILDERS)}"
        ) from exc
    return builder(scale).store()


def build_engines(store: TripleStore, include: Sequence[str] | None = None) -> list:
    """Instantiate AMbER and the four baseline engines over ``store``.

    ``include`` restricts the set by engine name (useful to keep benchmark
    runtime down); the default builds all five.
    """
    engines = [
        AmberEngine.from_store(store),
        HashJoinEngine(store),
        FilterRefineEngine(store),
        GraphBacktrackingEngine(store),
        NestedLoopEngine(store),
    ]
    if include is None:
        return engines
    wanted = {name.lower() for name in include}
    return [engine for engine in engines if engine.name.lower() in wanted]


# --------------------------------------------------------------------------- #
# Table 1
# --------------------------------------------------------------------------- #
def table1_complex_queries(
    scale: ExperimentScale | None = None,
    query_size: int = 50,
    query_count: int | None = None,
    include: Sequence[str] | None = None,
) -> dict[str, WorkloadResult]:
    """Table 1: average time for complex queries of ``query_size`` patterns on DBPEDIA."""
    scale = scale or ExperimentScale()
    store = build_dataset("DBPEDIA", scale)
    generator = WorkloadGenerator(store, seed=scale.seed)
    count = query_count if query_count is not None else scale.queries_per_size
    queries = generator.workload("complex", query_size, count)
    engines = build_engines(store, include)
    return run_workload(engines, queries, scale.timeout_seconds)


# --------------------------------------------------------------------------- #
# Table 4
# --------------------------------------------------------------------------- #
def table4_dataset_statistics(scale: ExperimentScale | None = None) -> dict[str, dict[str, int]]:
    """Table 4: #triples, #vertices, #edges and #edge-types per dataset."""
    scale = scale or ExperimentScale()
    statistics = {}
    for name in DATASET_BUILDERS:
        store = build_dataset(name, scale)
        statistics[name] = store.statistics()
    return statistics


# --------------------------------------------------------------------------- #
# Table 5
# --------------------------------------------------------------------------- #
def table5_offline_stage(scale: ExperimentScale | None = None) -> dict[str, dict[str, float]]:
    """Table 5: multigraph database and index construction time and size."""
    scale = scale or ExperimentScale()
    report: dict[str, dict[str, float]] = {}
    for name in DATASET_BUILDERS:
        store = build_dataset(name, scale)
        start = time.perf_counter()
        data = build_data_multigraph(iter(store))
        database_seconds = time.perf_counter() - start
        start = time.perf_counter()
        indexes = IndexSet.build(data)
        index_seconds = time.perf_counter() - start
        stats = data.statistics()
        report[name] = {
            "database_seconds": database_seconds,
            "database_items": stats["vertices"] + stats["edges"] + stats["attributes"],
            "index_seconds": index_seconds,
            "index_items": indexes.report.total_items if indexes.report else 0,
        }
    return report


# --------------------------------------------------------------------------- #
# Shard scaling (cluster engine)
# --------------------------------------------------------------------------- #
def shard_scaling_experiment(
    scale: ExperimentScale | None = None,
    shard_counts: Sequence[int] = (1, 2, 4),
    query_size: int = 50,
    query_count: int | None = None,
) -> dict[str, WorkloadResult]:
    """Scatter–gather scaling on the Table 1 workload (complex-50, DBPEDIA).

    Runs the single-process AMbER engine as the baseline, then the cluster
    engine at each shard count, on the identical query workload.  The
    reproduced quantity is qualitative: the cluster engine must answer the
    same queries (identical result multisets are asserted by the cluster
    tests) while the per-shard matching work shrinks with the shard count.
    """
    from ..cluster import ShardedEngine

    scale = scale or ExperimentScale()
    store = build_dataset("DBPEDIA", scale)
    generator = WorkloadGenerator(store, seed=scale.seed)
    count = query_count if query_count is not None else scale.queries_per_size
    queries = generator.workload("complex", query_size, count)

    baseline = AmberEngine.from_store(store)
    engines: list = [baseline]
    for shards in shard_counts:
        engine = ShardedEngine.build(baseline.data, shards)
        engine.name = f"AMbER-cluster/{shards}"
        engines.append(engine)
    return run_workload(engines, queries, scale.timeout_seconds)


# --------------------------------------------------------------------------- #
# Figures 6-11
# --------------------------------------------------------------------------- #
@dataclass
class FigureResult:
    """One figure: per query size, the per-engine workload aggregates."""

    dataset: str
    shape: str
    series: dict[int, dict[str, WorkloadResult]] = field(default_factory=dict)

    def average_time(self, engine: str, size: int) -> float | None:
        """Average answered-query time of ``engine`` at query size ``size``."""
        result = self.series.get(size, {}).get(engine)
        return result.average_seconds if result else None

    def unanswered(self, engine: str, size: int) -> float | None:
        """Unanswered percentage of ``engine`` at query size ``size``."""
        result = self.series.get(size, {}).get(engine)
        return result.unanswered_percentage if result else None


def figure_experiment(
    dataset: str,
    shape: str,
    sizes: Sequence[int] = DEFAULT_QUERY_SIZES,
    scale: ExperimentScale | None = None,
    include: Sequence[str] | None = None,
) -> FigureResult:
    """Figures 6-11: run one (dataset, query shape) panel pair.

    ``dataset`` is ``"DBPEDIA"``, ``"YAGO"`` or ``"LUBM"``; ``shape`` is
    ``"star"`` or ``"complex"``.  The returned :class:`FigureResult` holds
    both the time panel (a) and the robustness panel (b).
    """
    scale = scale or ExperimentScale()
    store = build_dataset(dataset, scale)
    generator = WorkloadGenerator(store, seed=scale.seed)
    engines = build_engines(store, include)
    figure = FigureResult(dataset=dataset, shape=shape)
    for size in sizes:
        queries = generator.workload(shape, size, scale.queries_per_size)
        figure.series[size] = run_workload(engines, queries, scale.timeout_seconds)
    return figure
