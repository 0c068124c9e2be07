"""Service-throughput micro-benchmark: concurrent clients over one service.

Complements the per-query benchmarks (Figures 6-11) with the serving
dimension the paper leaves offline: N client threads replay a query mix
against one shared :class:`~repro.server.EngineService`, measuring
end-to-end throughput and how the plan cache behaves under a repeated
workload.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from ..errors import QueryTimeout
from ..server.service import EngineService, ServiceOverloaded
from ..telemetry.metrics import summarize_latencies

__all__ = ["ServiceBenchResult", "run_service_benchmark", "format_service_bench"]


@dataclass
class ServiceBenchResult:
    """Aggregate of one concurrent-clients run."""

    clients: int
    requests: int
    answered: int
    rejected: int
    timeouts: int
    seconds: float
    plan_cache_hit_rate: float
    latency: dict

    @property
    def throughput_qps(self) -> float:
        """Answered queries per wall-clock second."""
        return self.answered / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "clients": self.clients,
            "requests": self.requests,
            "answered": self.answered,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "seconds": round(self.seconds, 4),
            "throughput_qps": round(self.throughput_qps, 2),
            "plan_cache_hit_rate": round(self.plan_cache_hit_rate, 4),
            "latency": self.latency,
        }


def run_service_benchmark(
    service: EngineService,
    queries: Sequence[str],
    clients: int = 4,
    repeats: int = 5,
) -> ServiceBenchResult:
    """Replay ``queries`` ``repeats`` times from ``clients`` threads.

    Each client executes the full query list in order ``repeats`` times, so
    every query text is seen ``clients * repeats`` times in total — the
    repeated-workload shape that the plan cache is built for.

    Latencies and the plan-cache hit rate are measured **per run** (client-
    side timings and a before/after counter diff), so one service can be
    reused across several runs without earlier runs skewing later numbers.
    """
    if not queries:
        raise ValueError("need at least one query to benchmark")
    answered = rejected = timeouts = 0
    latencies: list[float] = []

    def client_run(_: int) -> tuple[int, int, int, list[float]]:
        ok = busy = late = 0
        observed: list[float] = []
        for _ in range(repeats):
            for text in queries:
                begin = time.perf_counter()
                try:
                    service.execute(text)
                    ok += 1
                    observed.append(time.perf_counter() - begin)
                except ServiceOverloaded:
                    busy += 1
                except QueryTimeout:
                    late += 1
        return ok, busy, late, observed

    # A caller-installed plan cache may not expose counters at all.
    has_plan_stats = hasattr(service.plan_cache, "stats")
    plan_before = service.plan_cache.stats() if has_plan_stats else None
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients, thread_name_prefix="bench-client") as pool:
        for ok, busy, late, observed in pool.map(client_run, range(clients)):
            answered += ok
            rejected += busy
            timeouts += late
            latencies.extend(observed)
    seconds = time.perf_counter() - start

    if has_plan_stats:
        plan_after = service.plan_cache.stats()
        hits = plan_after.hits - plan_before.hits
        lookups = hits + plan_after.misses - plan_before.misses
    else:
        hits = lookups = 0
    return ServiceBenchResult(
        clients=clients,
        requests=clients * repeats * len(queries),
        answered=answered,
        rejected=rejected,
        timeouts=timeouts,
        seconds=seconds,
        plan_cache_hit_rate=hits / lookups if lookups else 0.0,
        latency=summarize_latencies(latencies),
    )


def format_service_bench(results: Sequence[ServiceBenchResult], title: str) -> str:
    """Render a small ASCII table over several client counts."""
    header = (
        f"{'clients':>8} | {'requests':>8} | {'answered':>8} | "
        f"{'qps':>10} | {'p50 ms':>8} | {'plan hit%':>9}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for result in results:
        p50 = result.latency.get("p50_seconds")
        p50_ms = f"{p50 * 1000:.2f}" if p50 is not None else "-"
        lines.append(
            f"{result.clients:>8} | {result.requests:>8} | {result.answered:>8} | "
            f"{result.throughput_qps:>10.1f} | {p50_ms:>8} | "
            f"{100 * result.plan_cache_hit_rate:>8.1f}%"
        )
    return "\n".join(lines)
