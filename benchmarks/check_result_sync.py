#!/usr/bin/env python3
"""Fail when a benchmark result table changes without its trajectory entry.

The formatted tables under ``benchmarks/results/*.txt`` are human-readable
snapshots; the machine-readable ``BENCH_*.json`` files next to them are the
perf *trajectories* the drift gate tracks over time.  A commit that
re-records a table without moving its trajectory silently breaks the
trajectory's history — exactly the txt-only churn this check stops: any
``.txt`` change in the inspected range must come with a change to its
registered ``BENCH_*.json`` companion, and a ``.txt`` with no registered
companion must gain one before it may be re-recorded.

Usage::

    python benchmarks/check_result_sync.py [BASE]

``BASE`` defaults to ``origin/$GITHUB_BASE_REF`` on pull-request CI runs
and ``HEAD~1`` otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys

#: Result table -> its perf-trajectory companion.  Register new pairs here
#: when a benchmark starts recording a ``BENCH_*.json`` trajectory.
PAIRS = {
    "profile_overhead.txt": "BENCH_profile_overhead.json",
    "service_throughput.txt": "BENCH_service_throughput.json",
    "table1_dbpedia_complex50.txt": "BENCH_table1_complex50.json",
    "shard_scaling_complex50.txt": "BENCH_shard_scaling.json",
    "telemetry_overhead.txt": "BENCH_telemetry_overhead.json",
}

RESULTS_PREFIX = "benchmarks/results/"


def _default_base() -> str:
    base_ref = os.environ.get("GITHUB_BASE_REF", "").strip()
    if base_ref:
        return f"origin/{base_ref}"
    return "HEAD~1"


def _changed_results(base: str) -> list[str] | None:
    for spec in (f"{base}...HEAD", base):
        proc = subprocess.run(
            ["git", "diff", "--name-only", spec, "--", RESULTS_PREFIX],
            capture_output=True,
            text=True,
        )
        if proc.returncode == 0:
            return [line.strip() for line in proc.stdout.splitlines() if line.strip()]
    return None


def main(argv: list[str]) -> int:
    base = argv[1] if len(argv) > 1 else _default_base()
    changed = _changed_results(base)
    if changed is None:
        # An unborn base (first commit, shallow clone without the base ref)
        # leaves nothing to compare against; that is not a sync failure.
        print(f"check_result_sync: cannot diff against {base!r}; skipping")
        return 0
    names = {path.removeprefix(RESULTS_PREFIX) for path in changed}
    failures = []
    for name in sorted(names):
        if not name.endswith(".txt"):
            continue
        companion = PAIRS.get(name)
        if companion is None:
            failures.append(
                f"{name} changed but has no registered BENCH_*.json trajectory — "
                f"add one and register the pair in benchmarks/check_result_sync.py"
            )
        elif companion not in names:
            failures.append(
                f"{name} changed without its trajectory {companion} — "
                f"re-record both (REPRO_BENCH_REFRESH=1) or revert the table"
            )
    if failures:
        for failure in failures:
            print(f"check_result_sync: {failure}", file=sys.stderr)
        return 1
    touched = sorted(names) or ["(none)"]
    print(f"check_result_sync: ok against {base} — changed: {', '.join(touched)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
