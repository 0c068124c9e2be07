"""Cooperative deadlines shared by every engine and the benchmark harness."""

from __future__ import annotations

import time

from .errors import QueryTimeout

__all__ = ["Deadline", "monotonic"]

#: The one sanctioned monotonic clock for engine code.  Hot paths in
#: ``amber/`` and ``sparql/`` must not read ``time.time()`` or
#: ``perf_counter`` directly (CI greps for it); they go through this
#: alias or the tracer so clock policy stays in one place.
monotonic = time.perf_counter


class Deadline:
    """A wall-clock budget checked cooperatively inside evaluation loops.

    ``Deadline(None)`` never expires, so callers can thread a deadline
    through unconditionally.
    """

    __slots__ = ("_expires_at", "seconds")

    def __init__(self, seconds: float | None):
        self.seconds = seconds
        self._expires_at = None if seconds is None else time.perf_counter() + seconds

    def check(self) -> None:
        """Raise :class:`QueryTimeout` when the deadline has passed."""
        if self._expires_at is not None and time.perf_counter() > self._expires_at:
            raise QueryTimeout(f"query exceeded {self.seconds:.3f}s")

    @property
    def expired(self) -> bool:
        """Return True when the deadline has passed (without raising)."""
        return self._expires_at is not None and time.perf_counter() > self._expires_at
