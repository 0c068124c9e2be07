"""``python -m repro.server`` — load a dataset and serve SPARQL over HTTP.

Examples::

    python -m repro.server data.nt
    python -m repro.server data.amber.json --port 8080 --result-cache 128
    curl 'http://127.0.0.1:8080/sparql' --data-urlencode \\
        'query=SELECT ?s WHERE { ?s <http://example.org/p> ?o . }'
    curl 'http://127.0.0.1:8080/stats'
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from ..amber.backend import BACKEND_CHOICES
from ..cluster import ShardedEngine
from ..storage import MANIFEST_NAME, load_data_auto, load_engine_auto
from .http import serve
from .service import EngineService, ServiceConfig

__all__ = ["build_arg_parser", "build_service", "main"]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve SPARQL SELECT queries over a built AMbER engine.",
    )
    parser.add_argument(
        "dataset",
        help="dataset to load: .nt/.ntriples, .ttl/.turtle, or a persisted .amber.json",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=8080, help="bind port (default: %(default)s)")
    parser.add_argument(
        "--workers",
        type=int,
        default=16,
        help="HTTP worker threads; keep above --max-in-flight so overload maps "
        "to fast 503s rather than queueing (default: %(default)s)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-query time budget in seconds, also the cap on client-requested "
        "timeouts (default: %(default)s)",
    )
    parser.add_argument(
        "--max-rows",
        type=int,
        default=10_000,
        help="hard cap on result rows per query (default: %(default)s)",
    )
    parser.add_argument(
        "--plan-cache",
        type=int,
        default=256,
        help="entries in the query-plan cache, 0 disables (default: %(default)s)",
    )
    parser.add_argument(
        "--result-cache",
        type=int,
        default=0,
        help="entries in the result cache, 0 disables (default: %(default)s)",
    )
    parser.add_argument(
        "--max-in-flight",
        type=int,
        default=8,
        help="admission-control limit on concurrently evaluating queries "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the dataset into N shards and answer queries with the "
        "scatter-gather cluster engine; 1 serves the single-process engine "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--shard-workers",
        type=int,
        default=None,
        help="worker-pool size for per-shard star matching "
        "(default: min(shards, cpu count))",
    )
    parser.add_argument(
        "--shard-executor",
        choices=("thread", "process", "serial"),
        default="thread",
        help="worker pool kind for the cluster engine (default: %(default)s)",
    )
    parser.add_argument(
        "--match-backend",
        choices=BACKEND_CHOICES,
        default="vectorized",
        help="matching core: 'vectorized' batches candidate intersection over "
        "numpy posting arrays, 'scalar' is the pure-Python recursion "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--read-only",
        action="store_true",
        help="disable POST /update (the service answers queries only)",
    )
    parser.add_argument(
        "--metrics",
        choices=("on", "off"),
        default="on",
        help="serve Prometheus metrics on GET /metrics (default: %(default)s)",
    )
    parser.add_argument(
        "--tracing",
        choices=("auto", "on", "off"),
        default="auto",
        help="per-query span tracing: 'auto' feeds the stage histograms and keeps "
        "the full span tree only when EXPLAIN or the slow-query log needs it; "
        "'on' always keeps the tree; 'off' disables instrumentation entirely "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run every read under a per-query resource profile (candidate, "
        "index-probe and intersection counters); profiles feed the "
        "repro_query_*_total metric families and slow-query-log entries "
        "(EXPLAIN ANALYZE always profiles its own request)",
    )
    parser.add_argument(
        "--slow-query-log",
        metavar="PATH",
        default=None,
        help="append queries slower than --slow-query-ms to this JSON-lines file "
        "(default: disabled)",
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=500.0,
        help="slow-query threshold in milliseconds (default: %(default)s)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress per-request logging")
    return parser


def build_service(args: argparse.Namespace) -> EngineService:
    """Load the dataset named by ``args`` and wrap it in an EngineService.

    ``--shards N`` (N > 1) re-partitions a single-engine dataset into the
    scatter–gather cluster engine; a sharded snapshot directory is loaded
    with its persisted shard count and only picks up the worker settings.
    """
    shards = getattr(args, "shards", 1)
    backend = getattr(args, "match_backend", None)
    dataset = Path(args.dataset)
    if shards > 1 and not (dataset.is_dir() or dataset.name == MANIFEST_NAME):
        # Partitioning indexes per shard; loading only the data multigraph
        # skips the whole-graph index build that would be thrown away.
        data, data_version = load_data_auto(dataset)
        engine = ShardedEngine.build(
            data,
            shards,
            workers=args.shard_workers,
            executor=args.shard_executor,
            backend=backend,
        )
        engine.data_version = data_version
    else:
        engine = load_engine_auto(dataset)
        if isinstance(engine, ShardedEngine):
            engine.workers = args.shard_workers or engine.workers
            engine.executor = args.shard_executor
        # Re-resolving covers loaded snapshots too.
        engine.match_backend = backend
    config = ServiceConfig(
        default_timeout_seconds=args.timeout if args.timeout > 0 else None,
        max_rows=args.max_rows if args.max_rows > 0 else None,
        plan_cache_size=args.plan_cache,
        result_cache_size=args.result_cache,
        max_in_flight=args.max_in_flight,
        read_only=args.read_only,
        metrics_enabled=getattr(args, "metrics", "on") == "on",
        tracing=getattr(args, "tracing", "auto"),
        slow_query_log_path=getattr(args, "slow_query_log", None),
        slow_query_ms=getattr(args, "slow_query_ms", 500.0),
        profiling=getattr(args, "profile", False),
    )
    return EngineService(engine, config)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        service = build_service(args)
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = service.engine.build_report
    if report is not None and not args.quiet:
        print(f"loaded {args.dataset}: {service.engine!r}")
        print(
            f"offline stage: database {report.database_seconds:.2f}s, "
            f"indexes {report.index_seconds:.2f}s, {report.index_items} index items"
        )
    server = serve(service, host=args.host, port=args.port, workers=args.workers, quiet=args.quiet)
    if not args.quiet:
        print(
            f"serving SPARQL on {server.url}/sparql "
            f"(stats: {server.url}/stats, metrics: {server.url}/metrics) — Ctrl-C stops"
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0
