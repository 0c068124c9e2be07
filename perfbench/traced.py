"""In-process traced run: time each layer's public call on the workload's requests.

The HTTP run treats the server as a black box; this run rebuilds the same
stack in-process (``repro.server.cli.build_service`` with the server's
default flags) and times, per request, the public function of every layer.
Per-request values are reduced to medians; ``unattributed_ms`` is the HTTP
run's latency p50 minus the attributed medians, so the breakdown can be
checked against the end-to-end number.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

from repro.cluster import ShardedEngine
from repro.datasets import WorkloadGenerator
from repro.errors import QueryTimeout
from repro.index.manager import IndexSet
from repro.multigraph.builder import build_data_multigraph
from repro.rdf.dataset import TripleStore
from repro.rdf.ntriples import parse_ntriples_file
from repro.server.cache import LRUCache
from repro.server.cli import build_arg_parser, build_service
from repro.sparql.parser import parse_sparql

from inputs import ROW_CAP, Inputs, ReferenceIndex
from loadgen import percentile_ms

SETUP_REPEATS = 2
UPDATE_PAIRS = 30
MIN_REQUESTS = 8
#: Queries whose answer passes the row cap are left out of every HTTP mix:
#: the cluster times out on many of them (a known defect).  The traced run
#: keeps that defect visible by probing a few of them in-process.
HEAVY_QUERIES = 3
HEAVY_TIMEOUT_S = 2.0
#: Step budget of the reference matcher when it looks for heavy queries.
HEAVY_STEPS = 100_000


def _timed(call: Callable):
    begin = time.perf_counter()
    value = call()
    return value, time.perf_counter() - begin


def run(
    inp: Inputs,
    workload: str,
    seed: int,
    http_by_text: dict[str, list[float]],
    latency_p50_ms: float,
    plan_hit_rate: float,
    budget_s: float,
) -> tuple[dict[str, float], int]:
    """Returns the per-layer metrics and the number of requests traced."""
    shard_args = ["--shards", "2"] if workload == "sharded" else []
    setup: dict[str, list[float]] = {"parse": [], "build": [], "index": [], "partition": []}
    cluster = None
    for _ in range(SETUP_REPEATS):
        triples, seconds = _timed(lambda: parse_ntriples_file(inp.dataset))
        setup["parse"].append(seconds)
        data, seconds = _timed(lambda: build_data_multigraph(triples))
        setup["build"].append(seconds)
        indexes, seconds = _timed(lambda: IndexSet.build(data))
        setup["index"].append(seconds)
        if cluster is not None:
            cluster.close()
        cluster, seconds = _timed(lambda: ShardedEngine.build(data, 2))
        setup["partition"].append(seconds)
    index_items = indexes.report.total_items

    service = build_service(build_arg_parser().parse_args([str(inp.dataset), *shard_args]))
    backend = service.engine
    if workload == "sharded":
        cluster.close()
        cluster = backend
        single = inp.engine
        single.plan_cache = LRUCache(1024)
    else:
        single = backend
        cluster.plan_cache = LRUCache(1024)
    miss = 1.0 - plan_hit_rate

    per: dict[str, list[float]] = {
        name: []
        for name in (
            "parse", "prepare", "service", "engine", "count", "candidates",
            "serialize", "kb", "cluster", "http",
        )
    }
    deadline = time.perf_counter() + budget_s
    traced = 0
    try:
        for read in inp.reads:
            if traced >= MIN_REQUESTS and time.perf_counter() > deadline:
                break
            traced += 1
            text = read.text
            _, parse = _timed(lambda: parse_sparql(text))
            _, prepared = _timed(lambda: single.prepare(text, use_cache=False))
            service.execute(text)  # warms the plan cache, as in the HTTP run
            response, svc = _timed(lambda: service.execute(text))
            _, backend_exec = _timed(
                lambda: backend.execute(text, mode="select", max_solutions=ROW_CAP)
            )
            if single is not backend:
                single.execute(text, mode="select", max_solutions=ROW_CAP)
            _, engine = _timed(lambda: single.execute(text, mode="select", max_solutions=ROW_CAP))
            _, count = _timed(lambda: single.execute(text, mode="count"))
            profile = single.execute(text, mode="analyze").plan
            generated = profile["profile"]["counters"].get("candidates.generated", 0)
            if cluster is backend:
                clustered = backend_exec
            else:
                cluster.execute(text, mode="select", max_solutions=ROW_CAP)
                _, clustered = _timed(
                    lambda: cluster.execute(text, mode="select", max_solutions=ROW_CAP)
                )
            payload, serialize = _timed(lambda: response.result.to_sparql_json())

            per["parse"].append(parse)
            per["prepare"].append(prepared - parse)
            per["service"].append(svc - backend_exec)
            per["engine"].append(engine)
            per["count"].append(count)
            per["candidates"].append(generated / max(1, profile["rows"]))
            per["serialize"].append(serialize)
            per["kb"].append(len(payload.encode("utf-8")) / 1024)
            per["cluster"].append(clustered - engine)
            if text in http_by_text:
                # The HTTP run missed the plan cache at rate ``miss``.
                in_service = svc + miss * prepared
                per["http"].append(statistics.median(http_by_text[text]) - in_service - serialize)

        updates = []
        for index in range(UPDATE_PAIRS):
            insert, delete = inp.writes[index % len(inp.writes)]
            updates.append(_timed(lambda: single.apply_update(insert))[1])
            updates.append(_timed(lambda: single.apply_update(delete))[1])
        heavy_timeouts = _heavy_timeouts(triples, seed, single, cluster)
    finally:
        service.close()
        cluster.close()

    def med_ms(name: str) -> float:
        return statistics.median(per[name]) * 1000 if per[name] else 0.0

    layers = {
        "rdf.ntriples.parse_s": statistics.median(setup["parse"]),
        "multigraph.builder.build_s": statistics.median(setup["build"]),
        "index.manager.build_s": statistics.median(setup["index"]),
        "cluster.partition.build_s": statistics.median(setup["partition"]),
        "index.manager.index_items": float(index_items),
        "server.http.overhead_ms": med_ms("http"),
        "server.service.overhead_ms": med_ms("service"),
        "sparql.parser.parse_ms": med_ms("parse"),
        "sparql.planner.prepare_ms": med_ms("prepare"),
        "amber.engine.execute_ms": med_ms("engine"),
        "amber.engine.count_ms": med_ms("count"),
        "amber.candidates_per_solution": statistics.median(per["candidates"]),
        "sparql.bindings.serialize_ms": med_ms("serialize"),
        "sparql.bindings.response_kb": statistics.median(per["kb"]),
        "cluster.overhead_ms": med_ms("cluster"),
        "cluster.heavy_timeouts": float(heavy_timeouts),
        "amber.mutation.update_p50_ms": percentile_ms(updates, 0.5),
        "amber.mutation.update_p90_ms": percentile_ms(updates, 0.9),
    }
    attributed = (
        layers["server.http.overhead_ms"]
        + layers["server.service.overhead_ms"]
        + layers["amber.engine.execute_ms"]
        + layers["sparql.bindings.serialize_ms"]
        + miss * (layers["sparql.parser.parse_ms"] + layers["sparql.planner.prepare_ms"])
    )
    if workload == "sharded":
        attributed += layers["cluster.overhead_ms"]
    layers["unattributed_ms"] = latency_p50_ms - attributed
    return layers, traced


def _heavy_timeouts(triples, seed: int, single, cluster) -> int:
    """How many row-cap-truncated queries the single engine answers within
    ``HEAVY_TIMEOUT_S`` but the 2-shard cluster does not."""
    generator = WorkloadGenerator(TripleStore(triples), seed=seed)
    reference = ReferenceIndex(triples)
    heavy: list[str] = []
    for attempt in range(60):
        if len(heavy) == HEAVY_QUERIES:
            break
        query = generator.complex_query(20 + 10 * (attempt % 2)).query
        if reference.count(query.patterns, ROW_CAP + 1, HEAVY_STEPS) == ROW_CAP + 1:
            heavy.append(str(query))
    timeouts = 0
    for text in heavy:
        try:
            single.execute(text, max_solutions=ROW_CAP, timeout_seconds=HEAVY_TIMEOUT_S)
        except QueryTimeout:
            continue
        try:
            cluster.execute(text, max_solutions=ROW_CAP, timeout_seconds=HEAVY_TIMEOUT_S)
        except QueryTimeout:
            timeouts += 1
    return timeouts
