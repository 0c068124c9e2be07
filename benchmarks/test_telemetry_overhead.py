"""Telemetry-overhead guard: instrumentation must be ~free when disabled.

The instrumentation points (spans in the engine/matcher/cluster/algebra
layers, the request counters in the service) stay compiled in permanently;
the contract that makes this acceptable is that with ``tracing="off"``
every one of them degenerates to a thread-local ``getattr`` and the
metrics counters to a few dict operations.  This benchmark enforces that
contract with a budget: the fully-wired default-off configuration may not
be more than 5% slower than a service with all telemetry disabled.

The ``tracing="auto"`` figure (metrics-only spans feeding the stage
histograms) is measured and recorded alongside for the trajectory, but not
gated — it pays for real clock reads per stage and its acceptable cost is
a product decision, not a regression guard.

The same contract covers per-query resource accounting
(:mod:`repro.telemetry.accounting`): its counting sites in the matchers and
streaming operators cost one thread-local ``getattr`` per call when no
profile is active.  ``test_profile_accounting_overhead`` gates that
accounting-off cost against the fully-disabled baseline on *both* match
backends (the vectorized matcher has its own counting sites) and records
the accounting-on figure for the trajectory.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro import AmberEngine
from repro.bench import build_dataset, format_table
from repro.datasets.workload import WorkloadGenerator
from repro.server import EngineService, ServiceConfig

#: Interleaved timing rounds per configuration; the minimum is reported.
ROUNDS = 7
#: Workload replays per timed pass (lengthens the pass past timer jitter).
REPEATS = 10
#: Relative budget for the disabled-telemetry configuration.
BUDGET = 0.05
#: Absolute slack (seconds per workload pass) so scheduler jitter on a
#: fast pass cannot fail the relative budget on its own.
ABSOLUTE_SLACK = 0.010

pytestmark = pytest.mark.metrics


@pytest.fixture(scope="module")
def overhead_setup(bench_scale):
    store = build_dataset("YAGO", bench_scale)
    engine = AmberEngine.from_store(store)
    generator = WorkloadGenerator(store, seed=bench_scale.seed)
    queries = [
        str(item.query)
        for shape, size in (("star", 10), ("star", 20), ("complex", 10))
        for item in generator.workload(shape, size, bench_scale.queries_per_size)
    ]

    def make_service(**config) -> EngineService:
        # max_rows is capped low on purpose: row materialization is identical
        # across configurations, and its allocation/GC noise would otherwise
        # swamp the per-query fixed costs this guard is about.
        defaults = dict(
            default_timeout_seconds=bench_scale.timeout_seconds,
            max_rows=50,
            plan_cache_size=256,
        )
        defaults.update(config)
        return EngineService(engine, ServiceConfig(**defaults))

    services = {
        "disabled": make_service(metrics_enabled=False, tracing="off"),
        "metrics, tracing off": make_service(metrics_enabled=True, tracing="off"),
        "metrics, tracing auto": make_service(metrics_enabled=True, tracing="auto"),
    }
    yield services, queries
    for service in services.values():
        service.close()


def _time_pass(service: EngineService, queries: list[str]) -> float:
    begin = perf_counter()
    for _ in range(REPEATS):
        for text in queries:
            service.execute(text)
    return perf_counter() - begin


def test_telemetry_overhead_within_budget(overhead_setup, record_result):
    """Min-of-rounds pass time; the tracing-off config must stay in budget."""
    services, queries = overhead_setup
    for service in services.values():  # warm plan caches out of the timings
        _time_pass(service, queries)
    best: dict[str, float] = {name: float("inf") for name in services}
    # Interleave configurations per round so clock drift and cache warmth
    # spread evenly instead of biasing whichever config runs last.
    for _ in range(ROUNDS):
        for name, service in services.items():
            best[name] = min(best[name], _time_pass(service, queries))

    baseline = best["disabled"]
    rows = [[name, seconds, 100.0 * (seconds / baseline - 1.0)] for name, seconds in best.items()]
    record_result(
        "telemetry_overhead.txt",
        format_table(
            ["configuration", "min pass seconds", "overhead %"],
            rows,
            title=(
                f"Telemetry overhead ({REPEATS}x{len(queries)} queries/pass, "
                f"min of {ROUNDS})"
            ),
        ),
    )

    gated = best["metrics, tracing off"]
    assert gated <= baseline * (1.0 + BUDGET) + ABSOLUTE_SLACK, (
        f"telemetry with tracing off cost {gated:.4f}s/pass against a "
        f"{baseline:.4f}s baseline — over the {BUDGET:.0%} budget"
    )


@pytest.fixture(scope="module")
def profile_setup(bench_scale):
    """Per-backend service triples: disabled / accounting off / accounting on.

    Each backend gets its own engine (the backend is an engine-level
    setting) but all share one dataset and workload, so per-backend numbers
    are comparable.
    """
    store = build_dataset("YAGO", bench_scale)
    generator = WorkloadGenerator(store, seed=bench_scale.seed)
    queries = [
        str(item.query)
        for shape, size in (("star", 10), ("star", 20), ("complex", 10))
        for item in generator.workload(shape, size, bench_scale.queries_per_size)
    ]
    backends = ("scalar", "vectorized")
    services: list[EngineService] = []

    def make_service(engine: AmberEngine, **config) -> EngineService:
        defaults = dict(
            default_timeout_seconds=bench_scale.timeout_seconds,
            max_rows=50,
            plan_cache_size=256,
            tracing="off",
        )
        defaults.update(config)
        service = EngineService(engine, ServiceConfig(**defaults))
        services.append(service)
        return service

    setups = {}
    for backend in backends:
        engine = AmberEngine.from_store(store, backend=backend)
        setups[backend] = {
            "disabled": make_service(engine, metrics_enabled=False),
            "accounting off": make_service(engine),
            "accounting on": make_service(engine, profiling=True),
        }
    yield setups, queries
    for service in services:
        service.close()


def test_profile_accounting_overhead(profile_setup, record_result, record_json):
    """Accounting-off must stay in budget on both backends; on is recorded."""
    setups, queries = profile_setup
    payload: dict = {
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "budget_pct": 100.0 * BUDGET,
        "backends": {},
    }
    rows = []
    failures = []
    for backend, services in setups.items():
        for service in services.values():  # warm plan caches out of the timings
            _time_pass(service, queries)
        best: dict[str, float] = {name: float("inf") for name in services}
        for _ in range(ROUNDS):
            for name, service in services.items():
                best[name] = min(best[name], _time_pass(service, queries))
        baseline = best["disabled"]
        gated = best["accounting off"]
        payload["backends"][backend] = {
            "disabled_seconds": round(baseline, 6),
            "accounting_off_seconds": round(gated, 6),
            "accounting_on_seconds": round(best["accounting on"], 6),
            "accounting_off_overhead_pct": round(100.0 * (gated / baseline - 1.0), 2),
            "accounting_on_overhead_pct": round(
                100.0 * (best["accounting on"] / baseline - 1.0), 2
            ),
        }
        rows.extend(
            [f"{backend}: {name}", seconds, 100.0 * (seconds / baseline - 1.0)]
            for name, seconds in best.items()
        )
        if gated > baseline * (1.0 + BUDGET) + ABSOLUTE_SLACK:
            failures.append(
                f"{backend}: accounting off cost {gated:.4f}s/pass against a "
                f"{baseline:.4f}s baseline — over the {BUDGET:.0%} budget"
            )
    record_result(
        "profile_overhead.txt",
        format_table(
            ["configuration", "min pass seconds", "overhead %"],
            rows,
            title=(
                f"Resource-accounting overhead ({REPEATS}x{len(queries)} "
                f"queries/pass, min of {ROUNDS})"
            ),
        ),
    )
    record_json("BENCH_profile_overhead.json", payload)
    assert not failures, "; ".join(failures)
