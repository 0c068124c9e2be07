"""The vectorized matching core: columnar frontier expansion over numpy.

The scalar :class:`~repro.amber.matching.MultigraphMatcher` recurses one
candidate at a time over Python sets.  This matcher answers the same
queries breadth first over **columnar state**: the partial assignments of
all core vertices live in one ``(n_states, depth)`` int64 array, each
depth expands every state at once through row slices of the data
adjacency (:class:`~repro.index.columnar.ColumnarEdges`), and attribute /
IRI / multi-edge pruning is batched set algebra on sorted posting arrays
(``np.intersect1d``, ``searchsorted`` membership) instead of per-row set
intersections.

Order parity with the scalar matcher is by construction: adjacency rows
are sorted, states expand in state order, so solutions appear in exactly the
DFS lexicographic order ``sorted(candidates)`` produces — the two
backends return *identical row sequences*, not merely equal multisets.

Satellite vertices stay factored (Lemma 2): per core state, each
satellite's candidate set is a slice into a shared domain table deduped
by anchor vertex.  :class:`ColumnarSolutions` therefore knows its total
embedding count in O(states) without expanding a single row — the engine
uses that for lazily materialized result sets and O(1) counting.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

import numpy as np

from ..index.columnar import as_sorted_array, in_sorted, intersect_sorted
from ..multigraph.query_graph import INCOMING, OUTGOING, QueryMultigraph, QueryVertex
from ..telemetry.record import current_record, span
from ..timing import Deadline
from .decompose import QueryDecomposition, decompose_query
from .matching import ComponentSolution, MultigraphMatcher, _flip

__all__ = ["ColumnarSolutions", "VectorizedMatcher"]

#: Below this row cap the scalar DFS wins: it short-circuits after the
#: first few embeddings, while the frontier always enumerates everything.
SMALL_LIMIT_CUTOFF = 64

#: Budget on one depth's expanded (state, candidate) pairs.  The frontier
#: allocates whole depths at once, so a combinatorially exploding query
#: would build multi-gigabyte arrays faster than the deadline can fire;
#: past this budget the matcher abandons the batch and falls back to the
#: scalar DFS, which streams (and times out) exactly as before.
MAX_EXPANSION = 4_000_000

#: Budget on the state matrix itself (``n_states * n_core`` cells).
MAX_STATE_CELLS = 32_000_000

#: The counter bumped each time a match call runs on the scalar DFS instead.
FALLBACK_COUNTER = "matcher.scalar_fallbacks"


class _FrontierOverflow(Exception):
    """Internal: the columnar frontier would exceed the memory budget."""


class ColumnarSolutions:
    """Every solution of one component, in factored columnar form.

    ``states[i]`` assigns ``core_order`` to data vertices; ``satellites``
    holds per-satellite domain tables ``(vertex, values, indptr, index)``
    where state ``i``'s candidate set is
    ``values[indptr[index[i]] : indptr[index[i] + 1]]``.
    """

    def __init__(self, core_order, states, satellites) -> None:
        self.core_order = list(core_order)
        self.states = states
        self.satellites = satellites

    def __len__(self) -> int:
        return len(self.states)

    def embedding_counts(self):
        """Per-state embedding counts: the product of satellite set sizes."""
        counts = np.ones(len(self.states), dtype=np.int64)
        for _, _, indptr, index in self.satellites:
            counts *= indptr[index + 1] - indptr[index]
        return counts

    def total_embeddings(self) -> int:
        """The number of rows these solutions expand to, without expanding."""
        return int(self.embedding_counts().sum()) if len(self.states) else 0

    def iter_solutions(self, deadline: Deadline | None = None) -> Iterator[ComponentSolution]:
        """Yield scalar-compatible :class:`ComponentSolution` objects in order."""
        order = self.core_order
        states = self.states.tolist()
        tables = [
            (vertex, values.tolist(), indptr.tolist(), index.tolist())
            for vertex, values, indptr, index in self.satellites
        ]
        for i, state in enumerate(states):
            if deadline is not None and (i & 1023) == 0:
                deadline.check()
            satellites = {}
            for vertex, values, indptr, index in tables:
                at = index[i]
                satellites[vertex] = set(values[indptr[at] : indptr[at + 1]])
            yield ComponentSolution(core=dict(zip(order, state)), satellites=satellites)


class VectorizedMatcher(MultigraphMatcher):
    """Drop-in matcher that batches the hot path through numpy.

    Inherits the full scalar implementation: the recursion is used as the
    fallback (a frontier over the memory budget, or a small
    ``max_solutions`` where DFS short-circuiting beats full enumeration),
    and the candidates / star-match protocol methods are
    re-pointed at the columnar posting arrays.
    """

    # ------------------------------------------------------------------ #
    # protocol methods on columnar postings (used by the cluster scatter)
    # ------------------------------------------------------------------ #
    def vertex_candidates(
        self, vertex: QueryVertex, tally: dict[str, int] | None = None
    ) -> set[int] | None:
        array = self._vertex_candidate_array(vertex, tally)
        return None if array is None else set(array.tolist())

    def neighbor_candidates(
        self,
        qgraph: QueryMultigraph,
        anchor_query_vertex: int,
        anchor_data_vertex: int,
        target_query_vertex: int,
        tally: dict[str, int] | None = None,
    ) -> set[int]:
        """Batch-intersect the anchor's per-type adjacency rows (zero-copy views)."""
        pairs = self._required_pairs(qgraph, anchor_query_vertex, target_query_vertex)
        if not pairs:
            return set()
        neighborhoods = self.indexes.neighborhoods
        arrays = [
            neighborhoods.row(anchor_data_vertex, edge_type, direction)
            for direction, edge_type in pairs
        ]
        if tally is not None:
            tally["index.neighborhood_probes"] += len(arrays)
            tally["intersections"] += len(arrays) - 1
        return set(intersect_sorted(arrays).tolist())

    # ------------------------------------------------------------------ #
    # matching entry points
    # ------------------------------------------------------------------ #
    def match_component(
        self, qgraph: QueryMultigraph, component: set[int], deadline: Deadline | None = None
    ) -> Iterator[ComponentSolution]:
        limit = self.config.max_solutions
        if limit is not None and limit <= SMALL_LIMIT_CUTOFF:
            _note_fallback("small_limit")
            yield from super().match_component(qgraph, component, deadline)
            return
        if deadline is None:
            deadline = Deadline(self.config.timeout_seconds)
        batch = self.match_component_columnar(qgraph, component, deadline)
        if batch is None:
            yield from self.match_component_scalar(qgraph, component, deadline)
            return
        record = current_record()
        if record is not None:
            record.count("solutions.emitted", batch.total_embeddings())
        yield from batch.iter_solutions(deadline)

    def match_component_scalar(
        self, qgraph: QueryMultigraph, component: set[int], deadline: Deadline
    ) -> Iterator[ComponentSolution]:
        """The route for a frontier over budget: the scalar DFS, streaming
        under the deadline the columnar attempt started; counted as one
        ``frontier_budget`` fallback."""
        _note_fallback("frontier_budget")
        return super().match_component(qgraph, component, deadline)

    def match_component_columnar(
        self, qgraph: QueryMultigraph, component: set[int], deadline: Deadline | None = None
    ) -> ColumnarSolutions | None:
        """Solve one component breadth first; None when over the memory budget.

        The returned batch is fully enumerated (the deadline covers the
        enumeration); expansion into embeddings is the caller's business
        and can happen lazily, after the time budget.

        The budget is :data:`MAX_EXPANSION` / :data:`MAX_STATE_CELLS`; such
        queries go back to the scalar DFS, which streams under the deadline
        instead of materialising the whole frontier.

        The query record is looked up once here; the frontier tallies its
        counters per depth and they reach the record in one write.
        """
        if deadline is None:
            deadline = Deadline(self.config.timeout_seconds)
        record = current_record()
        tally = defaultdict(int) if record is not None else None
        try:
            return self._columnar_frontier(qgraph, component, deadline, tally)
        except _FrontierOverflow:
            return None
        finally:
            if record is not None:
                record.add(tally)

    def _columnar_frontier(
        self,
        qgraph: QueryMultigraph,
        component: set[int],
        deadline: Deadline,
        tally: dict[str, int] | None,
    ) -> ColumnarSolutions:
        if self.config.use_satellite_decomposition:
            decomposition = decompose_query(qgraph, component)
        else:
            vertices = sorted(component)
            decomposition = QueryDecomposition(
                core=vertices, satellites=[], satellites_of={u: [] for u in vertices}
            )
        empty = ColumnarSolutions([], np.empty((0, 0), dtype=np.int64), [])
        if not decomposition.core:
            return empty

        ordered_core = self._ordered_core(qgraph, decomposition)
        initial = ordered_core[0]
        refined_cache: dict[int, object] = {}

        def refined(vertex: int):
            if vertex not in refined_cache:
                refined_cache[vertex] = self._vertex_candidate_array(
                    qgraph.vertices[vertex], tally
                )
            return refined_cache[vertex]

        with span("amber.candidates", vertex=initial, backend="vectorized") as sp:
            first = as_sorted_array(self._initial_candidates(qgraph, initial, tally))
            generated = len(first)
            narrowed = refined(initial)
            if narrowed is not None:
                first = intersect_sorted([first, narrowed])
            sp.annotate(candidates=len(first))
        if tally is not None:
            tally["candidates.generated"] += generated
            tally["candidates.pruned"] += generated - len(first)
            if narrowed is not None:
                tally["intersections"] += 1

        states = first.reshape(-1, 1)
        satellites: list[list] = []

        def attach_satellites(core_vertex: int, column: int) -> None:
            nonlocal states
            attached = decomposition.satellites_of.get(core_vertex, [])
            if not attached or not len(states):
                return
            values = states[:, column]
            unique, inverse = np.unique(values, return_inverse=True)
            keep = np.ones(len(values), dtype=bool)
            fresh: list[list] = []
            for satellite in attached:
                deadline.check()
                pairs = self._required_pairs(qgraph, core_vertex, satellite)
                rows, cands = self._anchored_candidates(unique, pairs, refined(satellite), tally)
                counts = np.bincount(rows, minlength=len(unique))
                indptr = np.zeros(len(unique) + 1, dtype=np.int64)
                np.cumsum(counts, out=indptr[1:])
                fresh.append([satellite, cands, indptr, inverse])
                keep &= counts[inverse] > 0
            if not keep.all():
                states = states[keep]
                for entry in satellites:
                    entry[3] = entry[3][keep]
                for entry in fresh:
                    entry[3] = entry[3][keep]
            satellites.extend(fresh)

        attach_satellites(initial, 0)

        for depth in range(1, len(ordered_core)):
            deadline.check()
            if not len(states):
                return empty
            vertex = ordered_core[depth]
            narrowed = refined(vertex)
            anchor_columns = [
                column
                for column, matched in enumerate(ordered_core[:depth])
                if vertex in qgraph.graph.neighbors(matched)
            ]
            if not anchor_columns:
                # Disconnected core structure: signature-index candidates
                # cross every state, exactly the scalar fallback.
                cands = as_sorted_array(self._initial_candidates(qgraph, vertex, tally))
                if narrowed is not None:
                    cands = intersect_sorted([cands, narrowed])
                if len(states) * max(len(cands), 1) > MAX_EXPANSION:
                    raise _FrontierOverflow
                rows = np.repeat(np.arange(len(states), dtype=np.int64), len(cands))
                cands = np.tile(cands, len(states))
            else:
                rows, cands = self._frontier_candidates(
                    qgraph, states, ordered_core, anchor_columns, vertex, narrowed, tally
                )
            states = np.hstack([states[rows], cands.reshape(-1, 1)])
            if states.size > MAX_STATE_CELLS:
                raise _FrontierOverflow
            for entry in satellites:
                entry[3] = entry[3][rows]
            attach_satellites(vertex, depth)

        if not len(states):
            return empty
        return ColumnarSolutions(ordered_core, states, satellites)

    # ------------------------------------------------------------------ #
    # columnar candidate machinery
    # ------------------------------------------------------------------ #
    def _vertex_candidate_array(self, vertex: QueryVertex, tally: dict[str, int] | None = None):
        """Algorithm 1 on posting arrays; None when the vertex is unconstrained."""
        if vertex.unsatisfiable:
            return np.empty(0, dtype=np.int64)
        if not vertex.has_attributes and not vertex.has_iri_constraints:
            return None
        arrays = []
        if vertex.has_attributes:
            arrays.append(self.indexes.attributes.candidate_array(vertex.attributes))
            if tally is not None:
                tally["index.attribute_probes"] += len(vertex.attributes)
        for constraint in vertex.iri_constraints:
            if constraint.data_vertex is None:
                return np.empty(0, dtype=np.int64)
            direction = _flip(constraint.direction)
            arrays.extend(
                self.indexes.neighborhoods.row(constraint.data_vertex, edge_type, direction)
                for edge_type in constraint.edge_types
            )
            if tally is not None:
                tally["index.neighborhood_probes"] += 1
        if tally is not None:
            tally["intersections"] += len(arrays) - 1
        return intersect_sorted(arrays)

    @staticmethod
    def _required_pairs(
        qgraph: QueryMultigraph, anchor: int, target: int
    ) -> list[tuple[str, int]]:
        """The (direction-at-anchor, edge type) constraints between two vertices."""
        pairs = [
            (INCOMING, edge_type)
            for edge_type in sorted(qgraph.graph.edge_types(target, anchor))
        ]
        pairs.extend(
            (OUTGOING, edge_type)
            for edge_type in sorted(qgraph.graph.edge_types(anchor, target))
        )
        return pairs

    def _anchored_candidates(self, anchors, pairs, narrowed, tally):
        """Candidates per anchor for one target vertex, batched over anchors.

        Expands the cheapest constraint's row slices, then masks by pair
        membership for the remaining constraints and by the target's own
        candidate array.  Returns ``(rows, cands)`` with ``rows`` indexing
        into ``anchors``; blocks are anchor-ordered and sorted within.
        """
        columnar = self.indexes.neighborhoods
        sizes = [len(columnar.arrays(t, d)[0]) for d, t in pairs]
        primary = sizes.index(min(sizes))
        d0, t0 = pairs[primary][0], pairs[primary][1]
        rows, cands = columnar.slice_neighbors(anchors, t0, d0)
        if tally is not None:
            tally["index.neighborhood_probes"] += len(pairs)
            tally["candidates.generated"] += len(cands)
        if not len(cands):
            return rows, cands
        mask = np.ones(len(cands), dtype=bool)
        for at, (direction, edge_type) in enumerate(pairs):
            if at == primary:
                continue
            mask &= columnar.pair_mask(anchors[rows], cands, edge_type, direction)
        if narrowed is not None:
            mask &= in_sorted(narrowed, cands)
        kept_rows, kept = rows[mask], cands[mask]
        if tally is not None:
            tally["intersections"] += len(pairs) - 1 + (1 if narrowed is not None else 0)
            tally["candidates.pruned"] += len(cands) - len(kept)
        return kept_rows, kept

    def _frontier_candidates(
        self, qgraph, states, ordered_core, anchor_columns, vertex, narrowed, tally
    ):
        """Expand every state by the next core vertex's candidates at once.

        The cheapest (anchor, edge type) constraint drives the row
        expansion; every other constraint — further required types on the
        same anchor, and the full multi-edges towards every other matched
        anchor — filters the expanded pairs by batched key membership,
        mirroring the scalar ``_candidates_from_matched`` intersection.
        """
        columnar = self.indexes.neighborhoods
        constraints = [
            (column, direction, edge_type)
            for column in anchor_columns
            for direction, edge_type in self._required_pairs(
                qgraph, ordered_core[column], vertex
            )
        ]
        sizes = [len(columnar.arrays(t, d)[0]) for _, d, t in constraints]
        primary = sizes.index(min(sizes))
        column0, d0, t0 = constraints[primary]
        expanded = columnar.slice_neighbors(states[:, column0], t0, d0, MAX_EXPANSION)
        if expanded is None:
            raise _FrontierOverflow
        rows, cands = expanded
        if tally is not None:
            tally["index.neighborhood_probes"] += len(constraints)
            tally["candidates.generated"] += len(cands)
        if not len(cands):
            return rows, cands
        mask = np.ones(len(cands), dtype=bool)
        for at, (column, direction, edge_type) in enumerate(constraints):
            if at == primary:
                continue
            sources = states[rows, column]
            mask &= columnar.pair_mask(sources, cands, edge_type, direction)
        if narrowed is not None:
            mask &= in_sorted(narrowed, cands)
        kept_rows, kept = rows[mask], cands[mask]
        if tally is not None:
            tally["intersections"] += len(constraints) - 1 + (1 if narrowed is not None else 0)
            tally["candidates.pruned"] += len(cands) - len(kept)
        return kept_rows, kept


def _note_fallback(reason: str) -> None:
    """Count one scalar fallback and tag the open ``engine.match`` span.

    ``reason`` is ``small_limit`` (a row cap at or under
    :data:`SMALL_LIMIT_CUTOFF`) or ``frontier_budget`` (the frontier passed
    :data:`MAX_EXPANSION` / :data:`MAX_STATE_CELLS`).
    """
    record = current_record()
    if record is not None:
        record.count(FALLBACK_COUNTER)
        record.annotate(fallback=reason)
