"""Pluggable matching cores: the :class:`MatchBackend` protocol.

A backend supplies the engine's **matcher** — the object implementing the
candidates / star-match / verify protocol plus ``match_component``
(see :class:`~repro.amber.matching.MultigraphMatcher`, whose public
surface *is* the protocol).  Two implementations ship:

* ``scalar`` — the original pure-Python set-based matcher, kept as the
  tests' row-order oracle.
* ``vectorized`` — columnar numpy postings with batched intersection and
  breadth-first frontier expansion
  (:class:`~repro.amber.vectorized.VectorizedMatcher`); the default.

Engines select a backend by name (``AmberEngine(backend="scalar")``,
``--match-backend`` on the server CLI); ``None`` means ``vectorized``.
Both return identical row sequences.
"""

from __future__ import annotations

from typing import ClassVar, Protocol, runtime_checkable

from ..index.manager import IndexSet
from ..multigraph.builder import DataMultigraph
from .matching import MatcherConfig, MultigraphMatcher
from .vectorized import VectorizedMatcher

__all__ = [
    "MatchBackend",
    "ScalarBackend",
    "VectorizedBackend",
    "BACKENDS",
    "BACKEND_CHOICES",
    "resolve_backend",
]


@runtime_checkable
class MatchBackend(Protocol):
    """Anything that can build a matcher for an engine.

    ``name`` identifies the backend in ``/stats``, ``/metrics`` labels and
    ``EXPLAIN`` plan outlines.  :meth:`matcher` returns the matching core
    — any object honouring the
    :class:`~repro.amber.matching.MultigraphMatcher` protocol
    (``match_component`` plus candidates / star-match / verify).
    """

    name: str

    def matcher(
        self, data: DataMultigraph, indexes: IndexSet, config: MatcherConfig
    ) -> MultigraphMatcher:  # pragma: no cover - protocol
        ...


class ScalarBackend:
    """Today's pure-Python matcher: sets, sorted iteration, DFS recursion."""

    name: ClassVar[str] = "scalar"

    def matcher(
        self, data: DataMultigraph, indexes: IndexSet, config: MatcherConfig
    ) -> MultigraphMatcher:
        return MultigraphMatcher(data, indexes, config)


class VectorizedBackend:
    """Columnar numpy matcher: sorted posting arrays, batched intersection."""

    name: ClassVar[str] = "vectorized"

    def matcher(
        self, data: DataMultigraph, indexes: IndexSet, config: MatcherConfig
    ) -> MultigraphMatcher:
        return VectorizedMatcher(data, indexes, config)


BACKENDS: dict[str, MatchBackend] = {
    ScalarBackend.name: ScalarBackend(),
    VectorizedBackend.name: VectorizedBackend(),
}

#: Accepted values for engine/CLI backend selection.
BACKEND_CHOICES = (ScalarBackend.name, VectorizedBackend.name)


def resolve_backend(choice: "str | MatchBackend | None" = None) -> MatchBackend:
    """Resolve a backend name (or pass an instance through) to a backend.

    None selects ``vectorized``; an unknown name raises ValueError.
    """
    if choice is None:
        choice = VectorizedBackend.name
    if not isinstance(choice, str):
        return choice
    backend = BACKENDS.get(choice)
    if backend is None:
        raise ValueError(f"unknown match backend {choice!r} (expected one of {BACKEND_CHOICES})")
    return backend
