"""Black-box load generator: launch ``python -m repro.server`` and drive it over HTTP.

Requests travel on HTTP/1.1 keep-alive connections (``http.client``), one
thread per connection.  A read is timed from the first byte sent to the last
byte received; its answer is checked afterwards, outside the timed window.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import queue
import re
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlencode

from inputs import BATCH_TRIPLES, Read, canonical_row, multiset_digest

#: Client socket timeout.  Every request of every mix answers in well under a
#: second, so a request that needs this long has failed by a wide margin.
REQUEST_TIMEOUT_S = 20.0
LAUNCH_TIMEOUT_S = 120.0
_SERVING = re.compile(r"serving SPARQL on http://([^:/]+):(\d+)/sparql")


def percentile_ms(values: list[float], q: float) -> float | None:
    """The ``q`` quantile (nearest rank) of ``values`` seconds, in ms."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1000


class Server:
    """One ``python -m repro.server <dataset>`` subprocess with default flags."""

    def __init__(self, root: Path, dataset: Path, extra_args: list[str]):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", str(dataset), "--port", "0", *extra_args],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,  # per-request access log
            text=True,
        )
        # The banner is read on a thread: a blocking readline has no timeout.
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        try:
            self.host, self.port = self._wait_serving()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        #: Launch to first ``/health`` 200: parse, multigraph, indexes, partitioning.
        self.setup_s = time.perf_counter() - self.started
        #: Peak resident memory of the build, before any request.
        self.ready_rss_mb = self.peak_rss_mb()

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _wait_serving(self) -> tuple[str, int]:
        deadline = self.started + LAUNCH_TIMEOUT_S
        seen = []
        while (left := deadline - time.perf_counter()) > 0:
            try:
                line = self._lines.get(timeout=left)
            except queue.Empty:
                break
            if line is None:
                break
            seen.append(line.strip())
            match = _SERVING.search(line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError(f"server did not start: {seen!r}")

    def _wait_healthy(self) -> None:
        deadline = self.started + LAUNCH_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                status, _ = self.get("/health")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never answered /health")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)

    def get(self, path: str) -> tuple[int, bytes]:
        conn = self.connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> dict:
        status, body = self.get(path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1))
        return kb / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join()
        self.proc.stdout.close()


@dataclass
class Tally:
    """Outcomes of the requests one phase sent."""

    read_latencies: list[float] = field(default_factory=list)
    read_by_text: dict[str, list[float]] = field(default_factory=dict)
    update_latencies: list[float] = field(default_factory=list)
    update_late: list[float] = field(default_factory=list)  # send lag behind schedule
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def fail(self, kind: str) -> None:
        with self.lock:
            self.failed += 1
            self.errors[kind] += 1


class Checker:
    """Checks SELECT responses against the expected answers.

    A body is fully parsed and compared the first time it is seen; an
    identical body later is the same answer, so its md5 suffices.
    """

    def __init__(self) -> None:
        self._good: set[tuple[str, str]] = set()
        self._lock = threading.Lock()

    def ok(self, read: Read, body: bytes) -> bool:
        key = (read.text, hashlib.md5(body).hexdigest())
        with self._lock:
            if key in self._good:
                return True
        try:
            bindings = json.loads(body)["results"]["bindings"]
        except (ValueError, KeyError, TypeError):
            return False
        rows = [canonical_row(b) for b in bindings]
        if len(rows) != read.rows:
            return False
        if read.subset is not None:
            good = not Counter(rows) - read.subset
        else:
            good = multiset_digest(rows) == read.digest
        if good:
            with self._lock:
                self._good.add(key)
        return good


def _sparql_path(read: Read) -> str:
    return "/sparql?" + urlencode({"query": read.text})


class Connection:
    """One keep-alive client connection, reopened after a transport error."""

    def __init__(self, server: Server):
        self.server = server
        self.conn = server.connect()

    def send(self, method: str, path: str, body: bytes | None, headers: dict) -> tuple[int, bytes]:
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = self.server.connect()
            raise

    def close(self) -> None:
        self.conn.close()


def read_once(conn: Connection, read: Read, checker: Checker, tally: Tally) -> None:
    path = _sparql_path(read)
    begin = time.perf_counter()
    try:
        status, body = conn.send("GET", path, None, {})
    except socket.timeout:
        tally.fail("timeout")
        return
    except (OSError, http.client.HTTPException):
        tally.fail("transport")
        return
    elapsed = time.perf_counter() - begin
    if status != 200:
        tally.fail(f"status {status}")
        return
    if not checker.ok(read, body):
        with tally.lock:
            tally.failed += 1
            tally.wrong.append(read.text)
        return
    with tally.lock:
        tally.read_latencies.append(elapsed)
        tally.read_by_text.setdefault(read.text, []).append(elapsed)


def closed_loop(
    server: Server,
    reads: list[Read],
    connections: int,
    seconds: float,
    checker: Checker,
    tally: Tally,
    cursor: list[int],
    stop_after: int | None = None,
) -> float:
    """``connections`` clients each send the next read of one shared cycle as
    soon as their previous reply arrived, until ``seconds`` pass or the
    cursor reaches ``stop_after``.  ``cursor`` carries the position in the
    cycle across phases.  Returns the phase's wall-clock seconds."""
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def client() -> None:
        conn = Connection(server)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    if stop_after is not None and cursor[0] >= stop_after:
                        return
                    read = reads[cursor[0] % len(reads)]
                    cursor[0] += 1
                with tally.lock:
                    tally.attempted += 1
                read_once(conn, read, checker, tally)
        finally:
            conn.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=client, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def writer(
    server: Server,
    writes: list[tuple[str, str]],
    interval_s: float | None,
    until: float | None,
    count: int | None,
    tally: Tally,
) -> None:
    """Send INSERT/DELETE pairs on one connection.

    With ``interval_s`` the loop is open: update *i* is due at
    ``start + i * interval_s`` and is timed from that scheduled send, so a
    stall also charges the updates queued behind it.  With ``None`` the loop
    is closed: each update is sent when the previous one answered.  Stops at
    ``until`` (perf_counter) or after ``count`` updates, always on a
    completed pair, so the store ends in its initial state.
    """
    conn = Connection(server)
    headers = {"Content-Type": "application/sparql-update"}
    start = time.perf_counter()
    sent = 0
    try:
        while True:
            scheduled = time.perf_counter() if interval_s is None else start + sent * interval_s
            if sent % 2 == 0 and (
                (until is not None and scheduled >= until)
                or (count is not None and sent >= count)
            ):
                break
            insert, delete = writes[(sent // 2) % len(writes)]
            text, key = (insert, "inserted") if sent % 2 == 0 else (delete, "deleted")
            sent += 1
            now = time.perf_counter()
            if now < scheduled:
                time.sleep(scheduled - now)
            lag = max(0.0, time.perf_counter() - scheduled)
            with tally.lock:
                tally.attempted += 1
            try:
                status, body = conn.send("POST", "/update", text.encode("utf-8"), headers)
            except socket.timeout:
                tally.fail("update timeout")
                continue
            except (OSError, http.client.HTTPException):
                tally.fail("update transport")
                continue
            elapsed = time.perf_counter() - scheduled
            if status != 200:
                tally.fail(f"update status {status}")
                continue
            if json.loads(body).get(key) != BATCH_TRIPLES:
                with tally.lock:
                    tally.failed += 1
                    tally.wrong.append(f"{key} count of {text[:60]}...")
                continue
            with tally.lock:
                tally.update_latencies.append(elapsed)
                tally.update_late.append(lag)
    finally:
        conn.close()
