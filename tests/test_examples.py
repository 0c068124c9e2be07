"""The runnable walkthroughs in ``examples/`` must keep running.

Each example runs as its own interpreter, as a user would start it, with
the package's source directory on ``PYTHONPATH``.  ``university_workload.py``
is left out: it generates a whole LUBM-style workload and takes tens of
seconds.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SOURCE = Path(repro.__file__).resolve().parent.parent

FAST_EXAMPLES = [
    "knowledge_graph_qa.py",
    "multigraph_inspection.py",
    "quickstart.py",
    "sharded_cluster.py",
    "sparql_service.py",
]


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
