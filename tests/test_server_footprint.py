"""Import-footprint guard of the server process.

``python -m repro.server`` holds its dataset and indexes for its whole life,
so every module it imports is resident for that life too.  The HTTP front
end needs neither a client library nor TLS: importing ``http.server`` would
pull in ``http.client``, the ``email`` package and ``ssl`` (with
``libcrypto``), about 6 MB of resident memory that no request uses.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

FORBIDDEN = ("http.server", "http.client", "email", "ssl", "_ssl")

#: Runs in a fresh interpreter: the snapshot of ``sys.modules`` is taken
#: before the import, since site ``.pth`` files load modules of their own.
SCRIPT = """
import json, sys
before = set(sys.modules)
from repro.server import cli
args = cli.build_arg_parser().parse_args([sys.argv[1], "--quiet"])
server = cli.serve(cli.build_service(args), port=0, workers=1, quiet=True)
server.server_close()
print(json.dumps(sorted(set(sys.modules) - before)))
"""

NT = (
    "<http://example.org/a> <http://example.org/p> <http://example.org/b> .\n"
    '<http://example.org/b> <http://example.org/name> "B" .\n'
)


def test_server_process_imports_no_http_client_email_or_ssl(tmp_path):
    dataset = tmp_path / "tiny.nt"
    dataset.write_text(NT, encoding="utf-8")
    src = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(dataset)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    added = set(json.loads(completed.stdout.splitlines()[-1]))
    assert "repro.server.http" in added  # the snapshot really preceded the import
    assert sorted(added & set(FORBIDDEN)) == []
