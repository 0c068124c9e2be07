"""The AMbER matching procedure (Algorithms 1-4 of the paper).

The matcher finds every homomorphic embedding of (one connected component
of) the query multigraph into the data multigraph.  The recursion runs only
over *core* vertices; satellite vertices are resolved in bulk whenever
their core vertex is matched (Lemma 2), producing solution *sets* that are
expanded into embeddings by a Cartesian product at the end.

All index accesses go through ``I = {A, S, N}``:

* ``ProcessVertex`` (Algorithm 1) intersects attribute-index candidates
  with IRI-constraint candidates from the neighbourhood index,
* ``MatchSatVertices`` (Algorithm 2) resolves all satellites of a core
  vertex given its candidate data vertex,
* ``AMbER-Algo`` / ``HomomorphicMatch`` (Algorithms 3-4) drive the
  recursion over the ordered core vertices.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator

from ..errors import QueryTimeout
from ..index.manager import IndexSet
from ..telemetry.record import QueryRecord, current_record, span
from ..timing import Deadline
from ..multigraph.builder import DataMultigraph
from ..multigraph.query_graph import INCOMING, OUTGOING, QueryMultigraph, QueryVertex
from .decompose import QueryDecomposition, decompose_query, order_core_vertices

__all__ = ["MatcherConfig", "QueryTimeout", "ComponentSolution", "MultigraphMatcher"]


def _flip(direction: str) -> str:
    """Flip an edge direction sign (query-vertex view <-> anchor-vertex view)."""
    return INCOMING if direction == OUTGOING else OUTGOING


@dataclass
class MatcherConfig:
    """Tuning knobs, mainly used by the ablation benchmarks.

    * ``use_signature_index`` — when False the initial candidates come from a
      full vertex scan instead of the synopsis index (ablation of Lemma 1).
    * ``use_satellite_decomposition`` — when False every query vertex is
      treated as a core vertex (ablation of Lemma 2).
    * ``ordering`` — ``"heuristic"`` (r1/r2 ranking) or ``"random"``.
    * ``max_solutions`` — stop after this many embeddings (None = all).
    * ``timeout_seconds`` — raise :class:`QueryTimeout` when exceeded.
    """

    use_signature_index: bool = True
    use_satellite_decomposition: bool = True
    ordering: str = "heuristic"
    max_solutions: int | None = None
    timeout_seconds: float | None = None


@dataclass
class _MatchRun:
    """Mutable per-query state threaded through one ``match_component`` call.

    Keeping the deadline and the emitted-solutions counter here (instead of
    on the matcher instance) makes a single :class:`MultigraphMatcher`
    reusable across queries and safe to share between threads: the matcher
    itself only holds immutable references (data, indexes, config).

    The query record is looked up once per call.  The recursion tallies
    its counters in ``tally`` (None when no record is active) and
    :meth:`flush` writes them to the record in one call when the match
    ends, so no per-candidate step touches the thread local.
    """

    deadline: Deadline
    limit: int | None
    emitted: int = 0
    record: QueryRecord | None = None
    tally: dict[str, int] | None = None

    def check(self) -> None:
        self.deadline.check()

    def limit_reached(self) -> bool:
        return self.limit is not None and self.emitted >= self.limit

    def flush(self) -> None:
        if self.record is not None:
            if self.emitted:
                self.tally["solutions.emitted"] += self.emitted
            self.record.add(self.tally)


@dataclass
class ComponentSolution:
    """One solution of a connected component.

    ``core`` maps each core query vertex to its single matched data vertex;
    ``satellites`` maps each satellite query vertex to its *set* of matched
    data vertices.  The Cartesian product of these sets gives the
    embeddings (GenEmb in the paper).
    """

    core: dict[int, int] = field(default_factory=dict)
    satellites: dict[int, set[int]] = field(default_factory=dict)

    def embedding_count(self) -> int:
        """Return the number of embeddings this solution expands to."""
        count = 1
        for candidates in self.satellites.values():
            count *= len(candidates)
        return count

    def embeddings(self) -> Iterator[dict[int, int]]:
        """Expand the solution into full query-vertex -> data-vertex mappings."""
        base = dict(self.core)
        satellite_items = sorted(self.satellites.items())
        if not satellite_items:
            yield base
            return
        yield from self._expand(base, satellite_items, 0)

    def _expand(
        self, partial: dict[int, int], satellite_items: list[tuple[int, set[int]]], index: int
    ) -> Iterator[dict[int, int]]:
        if index == len(satellite_items):
            yield dict(partial)
            return
        query_vertex, values = satellite_items[index]
        for value in sorted(values):
            partial[query_vertex] = value
            yield from self._expand(partial, satellite_items, index + 1)
        partial.pop(query_vertex, None)


class MultigraphMatcher:
    """Finds homomorphic embeddings of a query component in the data multigraph."""

    def __init__(
        self,
        data: DataMultigraph,
        indexes: IndexSet,
        config: MatcherConfig | None = None,
    ):
        self.data = data
        self.indexes = indexes
        self.config = config or MatcherConfig()

    # ------------------------------------------------------------------ #
    # public entry point (Algorithm 3)
    # ------------------------------------------------------------------ #
    def match_component(
        self, qgraph: QueryMultigraph, component: set[int], deadline: Deadline | None = None
    ) -> Iterator[ComponentSolution]:
        """Yield every solution of the component ``component`` of ``qgraph``.

        ``deadline`` lets the caller share one time budget across components
        and the final embedding expansion; when omitted a fresh deadline is
        derived from ``config.timeout_seconds``.

        The matcher instance holds no per-query state, so one instance can
        serve many queries — including concurrently from multiple threads.
        """
        record = current_record()
        run = _MatchRun(
            deadline=deadline if deadline is not None else Deadline(self.config.timeout_seconds),
            limit=self.config.max_solutions,
            record=record,
            tally=defaultdict(int) if record is not None else None,
        )
        try:
            yield from self._match(qgraph, component, run)
        finally:
            run.flush()

    def _match(
        self, qgraph: QueryMultigraph, component: set[int], run: _MatchRun
    ) -> Iterator[ComponentSolution]:
        tally = run.tally
        if self.config.use_satellite_decomposition:
            decomposition = decompose_query(qgraph, component)
        else:
            vertices = sorted(component)
            decomposition = QueryDecomposition(
                core=vertices, satellites=[], satellites_of={u: [] for u in vertices}
            )
        if not decomposition.core:
            return

        ordered_core = self._ordered_core(qgraph, decomposition)
        initial = ordered_core[0]

        # The recursion below is the hot loop and stays uninstrumented; one
        # span over the initial candidate generation captures the index
        # pruning cost and the starting candidate-set size.
        with span("amber.candidates", vertex=initial) as sp:
            candidates = self._initial_candidates(qgraph, initial, tally)
            generated = len(candidates)
            refined = self._process_vertex(qgraph.vertices[initial], tally)
            if refined is not None:
                candidates &= refined
            sp.annotate(candidates=len(candidates))
        if tally is not None:
            tally["candidates.generated"] += generated
            tally["candidates.pruned"] += generated - len(candidates)
        if not candidates:
            return

        satellites_of_initial = decomposition.satellites_of.get(initial, [])
        for candidate in sorted(candidates):
            run.check()
            solution = ComponentSolution(core={initial: candidate})
            if satellites_of_initial:
                satellite_matches = self._match_satellites(
                    qgraph, satellites_of_initial, initial, candidate, tally
                )
                if satellite_matches is None:
                    continue
                solution.satellites.update(satellite_matches)
            yield from self._recurse(qgraph, decomposition, ordered_core, 1, solution, run)
            if run.limit_reached():
                return

    # ------------------------------------------------------------------ #
    # Algorithm 4: HomomorphicMatch
    # ------------------------------------------------------------------ #
    def _recurse(
        self,
        qgraph: QueryMultigraph,
        decomposition: QueryDecomposition,
        ordered_core: list[int],
        depth: int,
        solution: ComponentSolution,
        run: _MatchRun,
    ) -> Iterator[ComponentSolution]:
        run.check()
        if depth == len(ordered_core):
            run.emitted += solution.embedding_count()
            yield solution
            return

        tally = run.tally
        next_vertex = ordered_core[depth]
        candidates = self._candidates_from_matched(qgraph, next_vertex, solution.core, tally)
        if candidates is None:
            # No matched neighbour constrains this vertex (disconnected core
            # structure); fall back to the signature index.
            candidates = self._initial_candidates(qgraph, next_vertex, tally)
        generated = len(candidates)
        refined = self._process_vertex(qgraph.vertices[next_vertex], tally)
        if refined is not None:
            candidates &= refined
        if tally is not None:
            tally["candidates.generated"] += generated
            tally["candidates.pruned"] += generated - len(candidates)
        if not candidates:
            return

        satellites = decomposition.satellites_of.get(next_vertex, [])
        for candidate in sorted(candidates):
            run.check()
            new_solution = ComponentSolution(
                core=dict(solution.core), satellites=dict(solution.satellites)
            )
            new_solution.core[next_vertex] = candidate
            if satellites:
                satellite_matches = self._match_satellites(
                    qgraph, satellites, next_vertex, candidate, tally
                )
                if satellite_matches is None:
                    continue
                new_solution.satellites.update(satellite_matches)
            yield from self._recurse(
                qgraph, decomposition, ordered_core, depth + 1, new_solution, run
            )
            if run.limit_reached():
                return

    # ------------------------------------------------------------------ #
    # the MatchBackend matcher protocol: candidates / star-match
    # (used by the cluster scatter stage and by alternative backends).
    # ``tally`` is the caller's counter tally (see ``_MatchRun``); None
    # leaves the work uncounted.
    # ------------------------------------------------------------------ #
    def initial_candidates(
        self,
        qgraph: QueryMultigraph,
        vertex: int,
        within: set[int] | None = None,
        tally: dict[str, int] | None = None,
    ) -> set[int]:
        """Signature-index candidates for ``vertex`` (Lemma 1 pruning).

        ``within`` restricts the search to a known superset (a semi-join
        frontier): only the members' synopsis rows are checked, not the
        whole index.
        """
        if within is not None and self.config.use_signature_index:
            incoming, outgoing = self._query_signature(qgraph, vertex)
            return self.indexes.signatures.candidates_among(within, incoming, outgoing)
        found = self._initial_candidates(qgraph, vertex, tally)
        if within is not None:
            found &= within
        return found

    def vertex_candidates(
        self, vertex: QueryVertex, tally: dict[str, int] | None = None
    ) -> set[int] | None:
        """Attribute/IRI-constraint candidates for ``vertex`` (Algorithm 1).

        ``None`` means the vertex is unconstrained (no pruning possible).
        """
        return self._process_vertex(vertex, tally)

    def neighbor_candidates(
        self,
        qgraph: QueryMultigraph,
        anchor_query_vertex: int,
        anchor_data_vertex: int,
        target_query_vertex: int,
        tally: dict[str, int] | None = None,
    ) -> set[int]:
        """Neighbourhood-index candidates for a vertex adjacent to a match."""
        return self._neighbor_candidates(
            qgraph, anchor_query_vertex, anchor_data_vertex, target_query_vertex, tally
        )

    # ------------------------------------------------------------------ #
    # Algorithm 1: ProcessVertex
    # ------------------------------------------------------------------ #
    def _process_vertex(
        self, vertex: QueryVertex, tally: dict[str, int] | None = None
    ) -> set[int] | None:
        """Return attribute/IRI candidates for ``vertex`` or None when unconstrained."""
        if vertex.unsatisfiable:
            return set()
        if not vertex.has_attributes and not vertex.has_iri_constraints:
            return None
        candidates: set[int] | None = None
        if vertex.has_attributes:
            candidates = self.indexes.attributes.candidates(vertex.attributes)
            if tally is not None:
                tally["index.attribute_probes"] += len(vertex.attributes)
            if not candidates:
                return set()
        for constraint in vertex.iri_constraints:
            if constraint.data_vertex is None:
                return set()
            neighbors = self.indexes.neighborhoods.neighbors(
                constraint.data_vertex, _flip(constraint.direction), constraint.edge_types
            )
            if tally is not None:
                tally["index.neighborhood_probes"] += 1
                if candidates is not None:
                    tally["intersections"] += 1
            candidates = neighbors if candidates is None else candidates & neighbors
            if not candidates:
                return set()
        return candidates

    # ------------------------------------------------------------------ #
    # Algorithm 2: MatchSatVertices
    # ------------------------------------------------------------------ #
    def _match_satellites(
        self,
        qgraph: QueryMultigraph,
        satellites: list[int],
        core_vertex: int,
        data_vertex: int,
        tally: dict[str, int] | None = None,
    ) -> dict[int, set[int]] | None:
        """Resolve every satellite of ``core_vertex``; None when one has no match."""
        matches: dict[int, set[int]] = {}
        for satellite in satellites:
            candidates = self._neighbor_candidates(
                qgraph, core_vertex, data_vertex, satellite, tally
            )
            refined = self._process_vertex(qgraph.vertices[satellite], tally)
            if refined is not None:
                if tally is not None:
                    tally["intersections"] += 1
                candidates &= refined
            if tally is not None:
                tally["satellites.resolved"] += 1
            if not candidates:
                return None
            matches[satellite] = candidates
        return matches

    # ------------------------------------------------------------------ #
    # candidate generation helpers
    # ------------------------------------------------------------------ #
    def _ordered_core(self, qgraph: QueryMultigraph, decomposition: QueryDecomposition) -> list[int]:
        """The core matching order, feeding estimates to cardinality ordering."""
        cardinality = None
        if self.config.ordering == "cardinality":
            cardinality = {
                u: self._cardinality_estimate(qgraph.vertices[u], qgraph)
                for u in decomposition.core
            }
        return order_core_vertices(
            qgraph, decomposition, strategy=self.config.ordering, cardinality=cardinality
        )

    def cardinality_estimate(
        self, vertex: QueryVertex, qgraph: QueryMultigraph | None = None
    ) -> int:
        """Cheap upper bound on a vertex's candidates (planner/cluster hook)."""
        return self._cardinality_estimate(vertex, qgraph)

    def _cardinality_estimate(
        self, vertex: QueryVertex, qgraph: QueryMultigraph | None = None
    ) -> int:
        """Cheap upper bound on a vertex's candidates.

        The bound honours every constraint the matcher itself applies: an
        unsatisfiable vertex admits nothing; attributes bound the vertex by
        its smallest posting; an IRI constraint bounds it by the constant's
        relevant neighbourhood (so a vertex bound to a constant estimates
        the constant's fan-in/out, not the whole graph, and a constant
        absent from the data estimates 0); a purely edge-constrained vertex
        falls back to its signature-synopsis candidates when the query
        graph is at hand.  The old smallest-posting-only bound returned
        ``len(graph)`` for every attribute-free vertex, which made
        ``ordering="cardinality"`` rank constant-bound and hub vertices
        identically — hubs could be picked first.
        """
        if vertex.unsatisfiable:
            return 0
        bounds: list[int] = []
        if vertex.has_attributes:
            bounds.append(
                min(len(self.indexes.attributes.posting_array(a)) for a in vertex.attributes)
            )
        for constraint in vertex.iri_constraints:
            if constraint.data_vertex is None:
                return 0
            neighbors = self.indexes.neighborhoods.neighbors(
                constraint.data_vertex, _flip(constraint.direction), constraint.edge_types
            )
            bounds.append(len(neighbors))
        if bounds:
            return min(bounds)
        if qgraph is not None and self.config.use_signature_index:
            incoming = [
                frozenset(types)
                for types in qgraph.graph.in_neighbors(vertex.identifier).values()
            ]
            outgoing = [
                frozenset(types)
                for types in qgraph.graph.out_neighbors(vertex.identifier).values()
            ]
            if incoming or outgoing:
                return len(self.indexes.signatures.candidates(incoming, outgoing))
        return len(self.data.graph)

    def _query_signature(
        self, qgraph: QueryMultigraph, vertex: int
    ) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
        """The query vertex's multi-edge signature, IRI-constraint edges included."""
        incoming = [frozenset(types) for types in qgraph.graph.in_neighbors(vertex).values()]
        outgoing = [frozenset(types) for types in qgraph.graph.out_neighbors(vertex).values()]
        query_vertex = qgraph.vertices[vertex]
        for constraint in query_vertex.iri_constraints:
            if constraint.direction == INCOMING:
                incoming.append(constraint.edge_types)
            else:
                outgoing.append(constraint.edge_types)
        return incoming, outgoing

    def _initial_candidates(
        self, qgraph: QueryMultigraph, vertex: int, tally: dict[str, int] | None = None
    ) -> set[int]:
        """Candidates for the initial vertex from the signature index (or full scan)."""
        incoming, outgoing = self._query_signature(qgraph, vertex)
        if tally is not None:
            tally["index.signature_probes"] += 1
        if self.config.use_signature_index:
            return self.indexes.signatures.candidates(incoming, outgoing)
        return set(self.data.graph.vertices())

    def _candidates_from_matched(
        self,
        qgraph: QueryMultigraph,
        vertex: int,
        matched_core: dict[int, int],
        tally: dict[str, int] | None = None,
    ) -> set[int] | None:
        """Intersect neighbourhood-index candidates from every matched neighbour."""
        candidates: set[int] | None = None
        for neighbor_query_vertex, neighbor_data_vertex in matched_core.items():
            if vertex not in qgraph.graph.neighbors(neighbor_query_vertex):
                continue
            neighbor_candidates = self._neighbor_candidates(
                qgraph, neighbor_query_vertex, neighbor_data_vertex, vertex, tally
            )
            if tally is not None and candidates is not None:
                tally["intersections"] += 1
            candidates = (
                neighbor_candidates if candidates is None else candidates & neighbor_candidates
            )
            if not candidates:
                return set()
        return candidates

    def _neighbor_candidates(
        self,
        qgraph: QueryMultigraph,
        anchor_query_vertex: int,
        anchor_data_vertex: int,
        target_query_vertex: int,
        tally: dict[str, int] | None = None,
    ) -> set[int]:
        """Candidates for ``target_query_vertex`` given a matched anchor vertex.

        Both edge directions between the anchor and the target are honoured:
        an edge ``target -> anchor`` is incoming at the anchor (``N+``), an
        edge ``anchor -> target`` is outgoing (``N-``).
        """
        probes = 0
        candidates: set[int] | None = None
        types_in = qgraph.graph.edge_types(target_query_vertex, anchor_query_vertex)
        if types_in:
            found = self.indexes.neighborhoods.neighbors(anchor_data_vertex, INCOMING, types_in)
            candidates = found if candidates is None else candidates & found
            probes += 1
        types_out = qgraph.graph.edge_types(anchor_query_vertex, target_query_vertex)
        if types_out:
            found = self.indexes.neighborhoods.neighbors(anchor_data_vertex, OUTGOING, types_out)
            if candidates is not None and tally is not None:
                tally["intersections"] += 1
            candidates = found if candidates is None else candidates & found
            probes += 1
        if tally is not None and probes:
            tally["index.neighborhood_probes"] += probes
        return candidates if candidates is not None else set()
