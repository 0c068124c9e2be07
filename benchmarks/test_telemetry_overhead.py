"""Telemetry-overhead report: what the always-on query record costs.

Every read runs under one :class:`~repro.telemetry.QueryRecord` (spans,
resource counters, per-shard sub-records), folded into the metrics registry
once per request.  The overhead *gate* is deterministic and lives in
``tests/test_record_overhead.py``: it counts record lookups and counter
writes per query, which must follow the query's shape and not the data.
Wall-clock budgets on a shared host read their own noise (±13% run to run
against a 5% budget), so this module only *reports* timings.

The baseline is the same service with its record factory replaced by a
no-op — every instrumentation point then finds no record, exactly as in an
engine call made outside a service.  Configurations alternate pass by pass
(interleaved rounds), and each row reports the median pass time with its
interquartile range so a reader can see whether a difference clears the
spread.  ``telemetry_overhead.txt`` covers the default (vectorized) service
with metrics on and off; ``profile_overhead.txt`` covers both match
backends.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter

import pytest

from repro import AmberEngine
from repro.amber.vectorized import SMALL_LIMIT_CUTOFF
from repro.bench import build_dataset, format_table
from repro.datasets.workload import WorkloadGenerator
from repro.server import EngineService, ServiceConfig
from repro.server import service as service_module

#: Interleaved timing rounds per configuration.
ROUNDS = 11
#: Workload replays per timed pass (lengthens the pass past timer jitter).
REPEATS = 10

pytestmark = pytest.mark.metrics


def _no_record(record=None):
    """The baseline's record factory: installs nothing."""
    return nullcontext(record)


@contextmanager
def _record_factory(enabled: bool):
    original = service_module.start_record
    if not enabled:
        service_module.start_record = _no_record
    try:
        yield
    finally:
        service_module.start_record = original


@pytest.fixture(scope="module")
def overhead_setup(bench_scale):
    store = build_dataset("YAGO", bench_scale)
    generator = WorkloadGenerator(store, seed=bench_scale.seed)
    queries = [
        str(item.query)
        for shape, size in (("star", 10), ("star", 20), ("complex", 10))
        for item in generator.workload(shape, size, bench_scale.queries_per_size)
    ]
    services: list[EngineService] = []

    def make_service(backend: str, **config) -> EngineService:
        # max_rows is capped low on purpose: row materialization is identical
        # across configurations, and its allocation/GC noise would otherwise
        # swamp the per-query fixed costs this report is about.  It stays
        # above SMALL_LIMIT_CUTOFF, under which the vectorized backend hands
        # every query to the scalar DFS and its rows would measure that.
        defaults = dict(
            default_timeout_seconds=bench_scale.timeout_seconds,
            max_rows=2 * SMALL_LIMIT_CUTOFF,
            plan_cache_size=256,
        )
        defaults.update(config)
        engine = AmberEngine.from_store(store, backend=backend)
        service = EngineService(engine, ServiceConfig(**defaults))
        services.append(service)
        return service

    yield make_service, queries
    for service in services:
        service.close()


def _time_pass(service: EngineService, queries: list[str], record: bool) -> float:
    with _record_factory(record):
        begin = perf_counter()
        for _ in range(REPEATS):
            for text in queries:
                service.execute(text)
        return perf_counter() - begin


def _interleaved(configs: dict, queries: list[str]) -> dict[str, dict]:
    """Median and IQR of pass seconds per configuration, rounds interleaved."""
    for service, record in configs.values():  # warm plan caches out of the timings
        _time_pass(service, queries, record)
    passes: dict[str, list[float]] = {name: [] for name in configs}
    for _ in range(ROUNDS):
        for name, (service, record) in configs.items():
            passes[name].append(_time_pass(service, queries, record))
    summary = {}
    for name, seconds in passes.items():
        q1, median, q3 = statistics.quantiles(seconds, n=4)
        summary[name] = {"median": median, "iqr": q3 - q1}
    return summary


def _rows(summary: dict[str, dict], baseline: str, label: str = "") -> list[list]:
    base = summary[baseline]["median"]
    return [
        [
            f"{label}{name}",
            stats["median"],
            stats["iqr"],
            100.0 * (stats["median"] / base - 1.0),
        ]
        for name, stats in summary.items()
    ]


def _payload(summary: dict[str, dict], baseline: str) -> dict:
    base = summary[baseline]["median"]
    return {
        name.replace(", ", "_").replace(" ", "_"): {
            "median_seconds": round(stats["median"], 6),
            "iqr_seconds": round(stats["iqr"], 6),
            "overhead_pct": round(100.0 * (stats["median"] / base - 1.0), 2),
        }
        for name, stats in summary.items()
    }


HEADERS = ["configuration", "median pass seconds", "IQR seconds", "overhead %"]


def test_telemetry_overhead_report(overhead_setup, record_result, record_json):
    """Default service: record with metrics on/off against the no-record baseline."""
    make_service, queries = overhead_setup
    configs = {
        "no record": (make_service("vectorized", metrics_enabled=False), False),
        "record, metrics off": (make_service("vectorized", metrics_enabled=False), True),
        "record, metrics on": (make_service("vectorized"), True),
    }
    summary = _interleaved(configs, queries)
    record_result(
        "telemetry_overhead.txt",
        format_table(
            HEADERS,
            _rows(summary, "no record"),
            title=(
                f"Query-record overhead, vectorized ({REPEATS}x{len(queries)} queries/pass, "
                f"median of {ROUNDS} interleaved rounds)"
            ),
        ),
    )
    record_json(
        "BENCH_telemetry_overhead.json",
        {"rounds": ROUNDS, "repeats": REPEATS, "configs": _payload(summary, "no record")},
    )
    assert all(stats["median"] > 0.0 for stats in summary.values())


def test_record_overhead_per_backend(overhead_setup, record_result, record_json):
    """Both match backends: the record (metrics on) against the no-record baseline."""
    make_service, queries = overhead_setup
    rows = []
    payload: dict = {"rounds": ROUNDS, "repeats": REPEATS, "backends": {}}
    for backend in ("scalar", "vectorized"):
        configs = {
            "no record": (make_service(backend), False),
            "record": (make_service(backend), True),
        }
        summary = _interleaved(configs, queries)
        rows.extend(_rows(summary, "no record", f"{backend}: "))
        payload["backends"][backend] = _payload(summary, "no record")
    record_result(
        "profile_overhead.txt",
        format_table(
            HEADERS,
            rows,
            title=(
                f"Query-record overhead per backend ({REPEATS}x{len(queries)} "
                f"queries/pass, median of {ROUNDS} interleaved rounds)"
            ),
        ),
    )
    record_json("BENCH_profile_overhead.json", payload)
    assert all(row[1] > 0.0 for row in rows)
