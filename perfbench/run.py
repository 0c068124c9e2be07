"""Benchmark of the SPARQL HTTP endpoint (``python -m repro.server``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload point --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``point``      selective 5-10 pattern star/complex queries, more distinct
                 texts than the plan cache, closed loop on 2 connections;
* ``analytic``   complex 20-50 and star-50 queries plus FILTER/OPTIONAL/
                 UNION/LIMIT variants, closed loop on 1 connection;
* ``read_write`` a point reader on 1 connection beside an open-loop writer
                 of INSERT DATA/DELETE DATA pairs on the other;
* ``sharded``    ``analytic``'s requests against ``--shards 2``.

``--trace 0`` prints the end-to-end metrics of the HTTP run; ``--trace 1``
also runs the in-process traced run and prints the per-layer metrics.  The
last line of standard output is the JSON result.  A wrong answer makes the
command exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("point", "analytic", "read_write", "sharded")
#: read_write's open-loop writer sends one update every 125 ms beside the
#: reader.  After the read phase, every workload sends ``IDLE_WRITES``
#: updates from each of two closed-loop writers.
RW_WRITE_INTERVAL_S = 0.125
IDLE_WRITES = 50
POINT_WARM_REQUESTS = 64


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def expected_inputs(scale: str, workload: str, seed: int) -> dict | None:
    """The recorded input digests of ``seed`` (``record_inputs.py``), if any."""
    path = HERE / "expected_inputs.json"
    if not path.is_file():
        return None
    table = json.loads(path.read_text(encoding="utf-8"))
    return table.get(scale, {}).get(workload, {}).get(str(seed))


def prometheus_read_wait(text: str) -> tuple[float, float]:
    """(sum seconds, count) of reader waits on the service's reader-writer lock."""
    found = {}
    for suffix in ("sum", "count"):
        match = re.search(
            rf'^repro_rwlock_wait_seconds_{suffix}\{{side="read"\}} (\S+)$', text, re.MULTILINE
        )
        found[suffix] = float(match.group(1)) if match else 0.0
    return found["sum"], found["count"]


def http_run(server, inp, workload: str, seconds: float) -> dict:
    from loadgen import Checker, Tally, closed_loop, writer

    checker = Checker()
    cursor = [0]
    reads = inp.reads
    connections = 2 if workload == "point" else 1
    warm = Tally()
    # Warm-up: every text once (plans cached, first answers checked); point's
    # cycle is larger than the plan cache, so it only warms lazy set-up.
    warm_requests = POINT_WARM_REQUESTS if workload == "point" else len(reads)
    closed_loop(server, reads[:warm_requests], 2, 1e9, checker, warm, [0], stop_after=warm_requests)
    if workload == "point":
        cursor[0] = warm_requests
    initial_triples = server.get_json("/stats")["engine"]["triples"]
    if workload == "read_write":
        writer(server, inp.writes, None, None, 4, warm)

    stats0 = server.get_json("/stats")
    wait0 = prometheus_read_wait(server.get("/metrics")[1].decode("utf-8"))
    timed = Tally()
    concurrent = Tally()  # read_write's open-loop writer
    background = None
    if workload == "read_write":
        until = time.perf_counter() + seconds
        background = threading.Thread(
            target=writer,
            args=(server, inp.writes, RW_WRITE_INTERVAL_S, until, None, concurrent),
        )
        background.start()
    elapsed = closed_loop(server, reads, connections, seconds, checker, timed, cursor)
    if background is not None:
        background.join()
    stats1 = server.get_json("/stats")
    wait1 = prometheus_read_wait(server.get("/metrics")[1].decode("utf-8"))
    peak_rss_after_reads_mb = server.peak_rss_mb()

    # Update latency, on every workload: two closed-loop writers, each on its
    # own connection with its own batches, against the server after its read
    # phase.  Its p90, and read_write's concurrent writer, sit on a bimodal
    # knee at this sample size, so they are reported beside the metrics.
    writes = Tally()
    idle = [
        threading.Thread(
            target=writer,
            args=(server, inp.writes[i::2], None, None, IDLE_WRITES, writes),
        )
        for i in range(2)
    ]
    for thread in idle:
        thread.start()
    for thread in idle:
        thread.join()
    final_triples = server.get_json("/stats")["engine"]["triples"]
    restored = final_triples == initial_triples

    plan_hits = stats1["plan_cache"]["hits"] - stats0["plan_cache"]["hits"]
    plan_lookups = plan_hits + stats1["plan_cache"]["misses"] - stats0["plan_cache"]["misses"]
    planner = stats1.get("planner") or {}
    waits = wait1[1] - wait0[1]
    phases = (warm, timed, concurrent, writes)
    return {
        "tally": timed,
        "writes": writes,
        "concurrent_writes": concurrent,
        "elapsed": elapsed,
        "peak_rss_after_reads_mb": peak_rss_after_reads_mb,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases) + (0 if restored else 1),
        "wrong": [w for p in phases for w in p.wrong]
        + ([] if restored else [f"store not restored: {initial_triples} -> {final_triples}"]),
        "errors": dict(sum((p.errors for p in phases), start=Counter())),
        "plan_hit_rate": plan_hits / plan_lookups if plan_lookups else 0.0,
        "memo_hit_rate": (
            planner.get("memo_hits", 0) / planner["planned"] if planner.get("planned") else 0.0
        ),
        "read_wait_ms": (wait1[0] - wait0[0]) / waits * 1000 if waits else 0.0,
        "signature_stale": stats1["updates"]["signature_stale"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed phase length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    # Terminated, still stop the servers this run started (``finally`` below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import host
    import inputs
    import traced
    from loadgen import Server, percentile_ms

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        canary_before = host.canary_ms()
        cpu_before = host.cpu_times()
        started = time.perf_counter()
        scale = inputs.SCALES[args.scale]
        inp = inputs.build(args.workload, args.seed, scale, workdir)
        generation_s = time.perf_counter() - started

        expected = expected_inputs(args.scale, args.workload, args.seed)
        actual = {
            "dataset_md5": host.file_md5(inp.dataset),
            "requests_md5": inp.request_digest(),
        }
        if expected is not None and expected != actual:
            print(
                f"error: inputs of seed {args.seed} are not the recorded ones "
                f"({actual} != {expected}); the dataset or query generators changed",
                file=sys.stderr,
            )
            return 3

        # Set-up is timed on several launches spread over the run, half before
        # and half after the measured server, so one slow moment of the host
        # moves one sample, not the median.
        extra = ["--shards", "2"] if args.workload == "sharded" else []
        launches = []

        def launch():
            launches.append(Server(ROOT, inp.dataset, extra))
            return launches[-1]

        before = (scale.setup_launches - 1) // 2
        for _ in range(before):
            launch().stop()
        server = launch()
        try:
            run = http_run(server, inp, args.workload, args.seconds)
        finally:
            server.stop()
        for _ in range(scale.setup_launches - 1 - before):
            launch().stop()
        setups = [each.setup_s for each in launches]

        tally, concurrent = run["tally"], run["concurrent_writes"]
        if not tally.read_latencies or not run["writes"].update_latencies:
            print(f"error: no successful requests ({run['errors']})", file=sys.stderr)
            return 1
        latency_p50 = percentile_ms(tally.read_latencies, 0.5)
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput_qps": len(tally.read_latencies) / run["elapsed"],
            "latency_p50_ms": latency_p50,
            "latency_p90_ms": percentile_ms(tally.read_latencies, 0.9),
            "peak_rss_mb": statistics.median(each.ready_rss_mb for each in launches),
            "update_latency_p50_ms": percentile_ms(run["writes"].update_latencies, 0.5),
        }
        traced_requests = 0
        if args.trace:
            layers, traced_requests = traced.run(
                inp,
                args.workload,
                args.seed,
                tally.read_by_text,
                latency_p50,
                run["plan_hit_rate"],
                budget_s=args.seconds / 2,
            )
            layers["server.cache.plan_hit_rate"] = run["plan_hit_rate"]
            layers["sparql.planner.memo_hit_rate"] = run["memo_hit_rate"]
            layers["server.rwlock.read_wait_ms"] = run["read_wait_ms"]
            layers["index.signature_stale"] = float(run["signature_stale"])
            metrics = layers
        declared = declared_units("per_layer" if args.trace else "end_to_end")
        if set(metrics) != set(declared):
            raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "scale": args.scale,
            "provenance": {
                **host.provenance(ROOT),
                **actual,
                "inputs_recorded": expected is not None,
                "triples": inp.triples,
                "distinct_reads": len(inp.reads),
            },
            "host": {
                "canary_ms_before": canary_before,
                "canary_ms_after": host.canary_ms(),
                "cpu_steal_share": host.steal_share(cpu_before, host.cpu_times()),
            },
            "reads_timed": len(tally.read_latencies),
            "peak_rss_after_reads_mb": run["peak_rss_after_reads_mb"],
            "updates_timed": len(run["writes"].update_latencies),
            "update_latency_p90_ms": percentile_ms(run["writes"].update_latencies, 0.9),
            "concurrent_updates": len(concurrent.update_latencies),
            "concurrent_update_p50_ms": percentile_ms(concurrent.update_latencies, 0.5),
            "concurrent_update_p90_ms": percentile_ms(concurrent.update_latencies, 0.9),
            "concurrent_writer_lag_p90_ms": percentile_ms(concurrent.update_late, 0.9),
            "setup_s_each": setups,
            "input_generation_s": generation_s,
            "screen_engine_timeouts": inp.engine_timeouts,
            "screen_slowest_kept_ms": inp.slowest_kept_ms,
            "traced_requests": traced_requests,
            "errors": run["errors"],
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every failed operation (wrong answer, non-200, timeout, transport
    # error) makes the run incorrect.
    correct = run["failed"] == 0
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{run['attempted']} attempted, {run['failed']} failed")
    for name, unit in declared.items():
        print(f"  {name:34s} {metrics[name]:14.4f} {unit}")
    for wrong in run["wrong"][:5]:
        print(f"  WRONG ANSWER: {wrong[:160]!r}")
    for kind, count in sorted(run["errors"].items()):
        print(f"  FAILED: {count} x {kind}")
    print("perfbench-report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
