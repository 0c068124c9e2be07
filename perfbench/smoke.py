"""Smoke test of the benchmark itself: every workload, both trace modes, tiny scale.

Run from the root of a checkout (takes about two minutes)::

    python3 perfbench/smoke.py

Checks that each run exits 0, that its last line is the result object with
exactly the metrics BENCHMARK.json declares, and that every answer was right.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            command = [
                sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
                "--seconds", "2", "--trace", str(trace), "--scale", "smoke",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} trace={trace}"
            problem = None
            if done.returncode != 0:
                problem = f"exit {done.returncode}: {done.stderr[-400:]}"
            else:
                result = json.loads(done.stdout.strip().splitlines()[-1])
                declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problem = f"result keys {sorted(result)}"
                elif set(result["metrics"]) != declared:
                    problem = f"metrics {sorted(result['metrics'])}"
                elif not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problem = f"{result['attempted']} attempted, {result['failed']} failed"
            print(f"{label}: {problem or 'ok'}")
            if problem:
                problems.append(label)
    if problems:
        print("FAILED:", ", ".join(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
