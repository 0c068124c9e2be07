"""Provenance and host-noise records printed beside each run's metrics.

Neither is ever used to scale a metric: they only let a slow or contended
host be told apart from a regression.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path


def file_md5(path: Path) -> str:
    digest = hashlib.md5()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def source_md5(root: Path) -> str:
    """md5 over ``src/`` — identifies the code when the checkout has no git."""
    digest = hashlib.md5()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(root: Path) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit_sha(root),
        "source_md5": source_md5(root),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies per state)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return [int(value) for value in fields[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor stole between two samples."""
    delta = [b - a for a, b in zip(before, after)]
    # user nice system idle iowait irq softirq steal (guest time is in user).
    total = sum(delta[:8])
    return delta[7] / total if total > 0 and len(delta) > 7 else 0.0


def canary_ms() -> float:
    """A fixed pure-Python loop, median of three timings."""
    timings = []
    for _ in range(3):
        begin = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        timings.append((time.perf_counter() - begin) * 1000)
    return sorted(timings)[1]
