"""The AMbER engine: offline build + online SPARQL answering.

This is the public entry point of the library:

>>> from repro import AmberEngine
>>> engine = AmberEngine.from_turtle(my_turtle_text)
>>> results = engine.query("SELECT ?x WHERE { ?x <http://example.org/p> <http://example.org/o> . }")

The offline stage (Section 3) transforms the RDF tripleset into the data
multigraph and builds the index ensemble ``I = {A, S, N}``.  The online
stage converts each SPARQL query into a query multigraph and runs the
core/satellite homomorphic matching of Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Protocol

from ..index.manager import IndexSet
from ..multigraph.builder import DataMultigraph, build_data_multigraph
from ..multigraph.query_graph import QueryMultigraph, build_query_multigraph
from ..rdf.dataset import TripleStore
from ..rdf.ntriples import parse_ntriples, parse_ntriples_file
from ..rdf.terms import Triple
from ..rdf.turtle import parse_turtle
from ..sparql.algebra import GroupGraphPattern, SelectQuery
from ..sparql.bindings import Binding, ResultSet
from ..sparql.eval import BGPNode, compile_pattern, plan_outline, stream_plan
from ..sparql.parser import parse_sparql
from ..sparql.planner import QueryPlanner
from ..sparql.update import UpdateRequest, parse_update
from ..telemetry.accounting import QueryProfile, current_profile, start_profile
from ..telemetry.trace import span
from ..timing import Deadline, monotonic
from .backend import MatchBackend, resolve_backend
from .embeddings import columnar_bindings, combine_component_bindings, component_bindings
from .matching import MatcherConfig, MultigraphMatcher, QueryTimeout
from .mutation import GraphMutator, UpdateResult

__all__ = [
    "AlgebraPlan",
    "AmberEngine",
    "BuildReport",
    "EXECUTE_MODES",
    "PlanCache",
    "QueryEngineBase",
    "QueryOutcome",
    "QueryPlan",
    "QueryTimeout",
]

#: The request kinds :meth:`QueryEngineBase.execute` understands.
EXECUTE_MODES = ("select", "count", "ask", "explain", "analyze")


@dataclass(frozen=True)
class QueryOutcome:
    """The uniform return value of :meth:`QueryEngineBase.execute`.

    Exactly one payload field is populated, matching ``mode``: ``result``
    for ``select``, ``count`` for ``count``, ``boolean`` for ``ask`` and
    ``plan`` for ``explain`` and ``analyze``.  :attr:`value` returns
    whichever one applies.
    """

    mode: str
    result: ResultSet | None = None
    count: int | None = None
    boolean: bool | None = None
    plan: dict | None = None

    @property
    def value(self) -> ResultSet | int | bool | dict | None:
        """The mode-appropriate payload."""
        return {
            "select": self.result,
            "count": self.count,
            "ask": self.boolean,
            "explain": self.plan,
            "analyze": self.plan,
        }[self.mode]


class AlgebraPlan:
    """A prepared FILTER/UNION/OPTIONAL query: plan tree + per-block state.

    Each BGP block of the compiled pattern gets its own synthetic plain-BGP
    :class:`SelectQuery` and :class:`QueryMultigraph`, built against the
    engine's dictionaries at prepare time — exactly the state the engine's
    matcher needs to solve the block through its ordinary (star-decomposed,
    or scatter–gathered) component machinery.  Like plain-BGP plans, an
    AlgebraPlan is immutable after construction and embeds dictionary ids,
    so the plan cache invalidation on mutation covers it too.
    """

    __slots__ = ("root", "blocks", "block_queries", "block_graphs", "decisions")

    def __init__(
        self,
        where: GroupGraphPattern,
        data,
        planner: QueryPlanner | None = None,
        block_rows=None,
        data_version: int = 0,
    ) -> None:
        compiled = compile_pattern(where)
        self.root = compiled.root
        self.blocks = compiled.blocks
        self.block_queries = [SelectQuery(patterns=block.patterns) for block in self.blocks]
        self.block_graphs = [build_query_multigraph(query, data) for query in self.block_queries]
        #: The planner's :class:`~repro.sparql.planner.PlanDecisions`, or
        #: None when no planner ran (baselines, planner disabled).
        self.decisions = None
        if planner is not None and planner.enabled:

            def estimate(block: BGPNode) -> int | None:
                if block_rows is None:
                    return None
                return block_rows(self.block_graphs[block.index])

            self.root, self.decisions = planner.plan(compiled.root, estimate, data_version)

    def block_plan(self, block: BGPNode) -> tuple[SelectQuery, QueryMultigraph]:
        """Return the prepared (query, multigraph) pair of one BGP block."""
        return self.block_queries[block.index], self.block_graphs[block.index]


#: A prepared plan: the parsed query plus either its query multigraph (the
#: plain-BGP fast path, byte-identical to the pre-algebra engine) or an
#: :class:`AlgebraPlan` for the FILTER/UNION/OPTIONAL fragment.  Both parts
#: are immutable after construction, so a plan can be shared across threads.
QueryPlan = tuple[SelectQuery, QueryMultigraph | AlgebraPlan]


class PlanCache(Protocol):
    """Anything that can memoise prepared plans keyed by query text.

    The engine treats the cache as a black box; :class:`repro.server.LRUCache`
    is the batteries-included implementation used by the query service.
    """

    def get(self, key: str) -> QueryPlan | None:  # pragma: no cover - protocol
        ...

    def put(self, key: str, value: QueryPlan) -> None:  # pragma: no cover - protocol
        ...


@dataclass
class BuildReport:
    """Offline-stage timings and sizes (the rows of Table 5)."""

    database_seconds: float
    index_seconds: float
    triples: int
    vertices: int
    edges: int
    edge_types: int
    attributes: int
    index_items: int

    def as_dict(self) -> dict[str, float | int]:
        """Return the report as a plain dictionary (handy for printing tables)."""
        return {
            "database_seconds": self.database_seconds,
            "index_seconds": self.index_seconds,
            "triples": self.triples,
            "vertices": self.vertices,
            "edges": self.edges,
            "edge_types": self.edge_types,
            "attributes": self.attributes,
            "index_items": self.index_items,
        }


class QueryEngineBase:
    """Shared online stage of every multigraph query engine.

    Subclasses provide ``self.data`` (anything exposing the dictionary
    lookups :func:`build_query_multigraph` and the binding translation
    need), ``self.config`` (a :class:`MatcherConfig`), ``self.plan_cache``
    and ``self.data_version``, plus the :meth:`_component_rows` hook that
    streams the bindings of one connected query component.  Everything
    else — plan preparation/caching, solution streaming, DISTINCT/LIMIT/
    OFFSET-aware counting, cross-products of disconnected components,
    FILTER/UNION/OPTIONAL evaluation over per-block plans and
    cache invalidation on mutation — lives here, so the single-process
    :class:`AmberEngine` and the scatter–gather
    :class:`repro.cluster.ShardedEngine` answer queries through exactly
    the same code path.
    """

    name = "engine"

    #: Name of the matching backend answering this engine's queries, as
    #: surfaced in ``/stats``, metrics labels and ``EXPLAIN`` plan
    #: outlines.  Engines with a pluggable core override this.
    match_backend = "scalar"

    #: The cost-based planner rewriting algebra plans at prepare time
    #: (None on engines without an estimator — baselines keep syntactic
    #: order and left-build joins).  Instances are installed per engine.
    planner: QueryPlanner | None = None

    data: object
    config: MatcherConfig
    plan_cache: PlanCache | None
    data_version: int

    # ------------------------------------------------------------------ #
    # online stage
    # ------------------------------------------------------------------ #
    def prepare(self, query: str | SelectQuery, use_cache: bool = True) -> QueryPlan:
        """Parse (if needed) and prepare a query for matching.

        A plain-BGP query prepares to its query multigraph exactly as
        before; a FILTER/UNION/OPTIONAL query prepares to an
        :class:`AlgebraPlan` holding one multigraph per BGP block.  When a
        :attr:`plan_cache` is installed and ``query`` is a string, the
        prepared plan is memoised keyed by the exact query text.  Plans are
        read-only during matching, so cached plans may be shared by threads.
        """
        if isinstance(query, str):
            cache = self.plan_cache if use_cache else None
            if cache is not None:
                plan = cache.get(query)
                if plan is not None:
                    return plan
            with span("sparql.parse"):
                parsed = parse_sparql(query)
            plan = (parsed, self._prepare_parsed(parsed))
            if cache is not None:
                cache.put(query, plan)
            return plan
        return query, self._prepare_parsed(query)

    def _prepare_parsed(self, parsed: SelectQuery) -> QueryMultigraph | AlgebraPlan:
        with span("sparql.prepare") as sp:
            if parsed.where is not None:
                plan = AlgebraPlan(
                    parsed.where,
                    self.data,
                    planner=self.planner,
                    block_rows=self._estimate_block_rows,
                    data_version=self.data_version,
                )
                sp.annotate(kind="algebra", blocks=len(plan.blocks))
                return plan
            qgraph = build_query_multigraph(parsed, self.data)
            sp.annotate(kind="bgp", vertices=len(qgraph.vertices))
            return qgraph

    def execute(
        self,
        query: str | SelectQuery,
        *,
        mode: str = "select",
        timeout_seconds: float | None = None,
        max_solutions: int | None = None,
    ) -> QueryOutcome:
        """The unified entry point: answer ``query`` in the requested ``mode``.

        ``mode`` is one of :data:`EXECUTE_MODES` — ``select`` returns rows,
        ``count`` the number of solution rows, ``ask`` solution existence,
        ``explain`` the prepared plan outline with estimated cardinalities
        (no matching happens) and ``analyze`` the same outline annotated
        with *measured* per-operator row counts plus the full resource
        profile (the query **is** executed).  ``timeout_seconds`` overrides
        the engine-level matcher timeout (:class:`QueryTimeout` is raised
        when exceeded); ``max_solutions`` applies to ``select`` only.

        The historical per-mode methods :meth:`query`, :meth:`count`,
        :meth:`ask` and :meth:`explain` remain as thin wrappers.
        """
        if mode == "select":
            return QueryOutcome(
                "select", result=self._execute_select(query, timeout_seconds, max_solutions)
            )
        if mode == "count":
            return QueryOutcome("count", count=self._execute_count(query, timeout_seconds))
        if mode == "ask":
            return QueryOutcome("ask", boolean=self._execute_ask(query, timeout_seconds))
        if mode == "explain":
            return QueryOutcome("explain", plan=self._execute_explain(query))
        if mode == "analyze":
            return QueryOutcome("analyze", plan=self._execute_analyze(query, timeout_seconds))
        raise ValueError(f"unknown execute mode {mode!r} (expected one of {EXECUTE_MODES})")

    def query(
        self,
        query: str | SelectQuery,
        timeout_seconds: float | None = None,
        max_solutions: int | None = None,
    ) -> ResultSet:
        """Answer a SPARQL SELECT query and return its result set.

        Thin wrapper over ``execute(mode="select")`` — prefer
        :meth:`execute` in new code.
        """
        return self.execute(
            query, mode="select", timeout_seconds=timeout_seconds, max_solutions=max_solutions
        ).result

    def count(self, query: str | SelectQuery, timeout_seconds: float | None = None) -> int:
        """Return the number of solution rows of ``query``.

        Thin wrapper over ``execute(mode="count")`` — prefer
        :meth:`execute` in new code.
        """
        return self.execute(query, mode="count", timeout_seconds=timeout_seconds).count

    def ask(self, query: str | SelectQuery, timeout_seconds: float | None = None) -> bool:
        """Return True when the query has at least one solution.

        Thin wrapper over ``execute(mode="ask")`` — prefer :meth:`execute`
        in new code.
        """
        return self.execute(query, mode="ask", timeout_seconds=timeout_seconds).boolean

    def explain(self, query: str | SelectQuery) -> dict:
        """Describe the prepared plan of ``query`` without executing it.

        Thin wrapper over ``execute(mode="explain")`` — prefer
        :meth:`execute` in new code.
        """
        return self.execute(query, mode="explain").plan

    # ------------------------------------------------------------------ #
    # per-mode implementations behind execute()
    # ------------------------------------------------------------------ #
    def _execute_select(
        self,
        query: str | SelectQuery,
        timeout_seconds: float | None,
        max_solutions: int | None,
    ) -> ResultSet:
        parsed, plan = self.prepare(query)
        with span("engine.match", backend=self.match_backend) as sp:
            result = self._fast_select(parsed, plan, timeout_seconds, max_solutions)
            if result is None:
                rows = self._solutions(parsed, plan, timeout_seconds, max_solutions)
                result = ResultSet.for_query(parsed, rows)
            sp.annotate(rows=len(result))
        return result

    def _execute_count(self, query: str | SelectQuery, timeout_seconds: float | None) -> int:
        """Count solution rows without materialising the full result set.

        DISTINCT, LIMIT and OFFSET semantics match ``query()`` — including
        the engine-level ``max_solutions`` cap, which bounds the solution
        stream before the modifiers apply.
        """
        parsed, plan = self.prepare(query)
        limit, offset = parsed.limit, parsed.offset or 0
        # Rows of the (capped) stream needed to answer exactly; None = all.
        needed = None if limit is None else offset + limit
        cap = self.config.max_solutions
        with span("engine.match", backend=self.match_backend) as sp:
            total = self._fast_count(parsed, plan, timeout_seconds)
            if total is None and parsed.distinct:
                # Deduplication needs the projected rows, but only their set —
                # the row list itself is never built.
                variables = parsed.answer_variables()
                seen: set[Binding] = set()
                for row in self._solutions(parsed, plan, timeout_seconds, None):
                    seen.add(row.project(variables))
                    if needed is not None and len(seen) >= needed:
                        break
                total = len(seen)
            elif total is None:
                # Stop the stream early only when that cannot loosen the engine
                # cap (query() applies the cap first, then slices LIMIT/OFFSET).
                stream_cap = (
                    needed if needed is not None and (cap is None or needed < cap) else None
                )
                total = 0
                for _ in self._solutions(parsed, plan, timeout_seconds, stream_cap):
                    total += 1
                    if needed is not None and total >= needed:
                        break
            sp.annotate(rows=total)
        after_offset = max(0, total - offset)
        return after_offset if limit is None else min(after_offset, limit)

    def _execute_ask(self, query: str | SelectQuery, timeout_seconds: float | None) -> bool:
        parsed, plan = self.prepare(query)
        with span("engine.match", backend=self.match_backend) as sp:
            for _ in self._solutions(parsed, plan, timeout_seconds, 1):
                sp.annotate(rows=1)
                return True
            sp.annotate(rows=0)
        return False

    def _execute_explain(self, query: str | SelectQuery) -> dict:
        """The prepared plan outline, annotated with the matching backend."""
        parsed, plan = self.prepare(query)
        outline = self._annotated_outline(plan)
        outline["match_backend"] = self.match_backend
        return outline

    def _execute_analyze(
        self, query: str | SelectQuery, timeout_seconds: float | None
    ) -> dict:
        """``EXPLAIN ANALYZE``: execute the query under a resource profile.

        The query runs through the *streamed* evaluation path (never the
        columnar whole-query shortcut) so that every plan operator is
        measured; the outline then carries both ``estimated_rows`` and the
        ``actual_rows`` each operator produced, plus the full counter
        profile (candidates, intersections, index probes, per-shard
        sub-profiles on a sharded engine).

        A profile already active on this thread (the service's, when it
        runs reads under ``profiling``) is reused instead of shadowed, so
        the caller's slow-log/metrics wiring sees the analyze counters.
        """
        parsed, plan = self.prepare(query)
        profile = current_profile() or QueryProfile()
        streamed = 0

        def counting(stream: Iterator[Binding]) -> Iterator[Binding]:
            nonlocal streamed
            for row in stream:
                streamed += 1
                yield row

        with start_profile(profile):
            with span("engine.match", backend=self.match_backend) as sp:
                rows = counting(self._solutions(parsed, plan, timeout_seconds, None))
                result = ResultSet.for_query(parsed, rows)
                sp.annotate(rows=len(result))
        self._record_estimate_feedback(plan, profile, streamed)
        outline = self._annotated_outline(plan, profile, streamed)
        outline["match_backend"] = self.match_backend
        return {
            "plan": outline,
            "rows": len(result),
            "match_backend": self.match_backend,
            "profile": profile.as_dict(),
        }

    def _annotated_outline(
        self,
        plan: QueryMultigraph | AlgebraPlan,
        profile: QueryProfile | None = None,
        streamed_rows: int | None = None,
    ) -> dict:
        """Outline a prepared plan with estimates (and actuals, when profiled).

        The tree shape is backend-independent — both matching backends
        compile a query to the same operators, so only annotations such as
        ``match_backend`` may differ between their outlines.  A plain-BGP
        plan has no operator tree; it reports as one ``bgp`` node whose
        actual rows are the rows the matcher streamed.
        """
        if isinstance(plan, AlgebraPlan):
            decisions = plan.decisions

            def estimator(block: BGPNode) -> int | None:
                raw = self._estimate_block_rows(plan.block_graphs[block.index])
                if self.planner is not None and decisions is not None:
                    return self.planner.corrected(decisions.shape, block.index, raw)
                return raw

            actuals = profile.operator_rows() if profile is not None else None
            outline = plan_outline(plan.root, estimator, actuals)
            extras = {
                block.index: self._bgp_outline_extras(graph)
                for block, graph in zip(plan.blocks, plan.block_graphs)
            }
            if any(extra for extra in extras.values()):
                _attach_block_extras(outline, extras)
            if decisions is not None:
                outline["planner"] = decisions.as_dict()
            return outline
        outline = {
            "op": "bgp",
            "id": 0,
            "vertices": len(plan.vertices),
            "components": len(plan.connected_components()),
        }
        estimated = self._estimate_block_rows(plan)
        if estimated is not None:
            if self.planner is not None:
                estimated = self.planner.corrected(_bgp_shape(plan), 0, estimated)
            outline["estimated_rows"] = estimated
        extra = self._bgp_outline_extras(plan)
        if extra:
            outline.update(extra)
        if profile is not None:
            outline["actual_rows"] = streamed_rows if streamed_rows is not None else 0
        return outline

    def _record_estimate_feedback(
        self, plan, profile: QueryProfile, streamed_rows: int | None = None
    ) -> None:
        """Feed measured block cardinalities back into the planner.

        Raw (uncorrected) estimates pair with the ``op.<id>.rows`` actuals
        so the learned factors converge instead of compounding; the next
        plan of the same query shape sees the corrected numbers.  A
        plain-BGP plan has no operator tree: the whole pattern is one
        block whose actual is the matcher's streamed row count, keyed by
        its own syntactic shape.
        """
        planner = self.planner
        if planner is None:
            return
        if not isinstance(plan, AlgebraPlan):
            if streamed_rows is None:
                return
            raw = self._estimate_block_rows(plan)
            if raw is not None:
                planner.observe(_bgp_shape(plan), {0: (raw, streamed_rows)})
            return
        decisions = plan.decisions
        if decisions is None:
            return
        actuals = profile.operator_rows()
        feedback: dict[int, tuple[int, int]] = {}
        for block in plan.blocks:
            actual = actuals.get(block.node_id)
            if actual is None:
                continue
            raw = self._estimate_block_rows(plan.block_graphs[block.index])
            if raw is None:
                continue
            feedback[block.index] = (raw, actual)
        if feedback:
            planner.observe(decisions.shape, feedback)

    def _bgp_outline_extras(self, qgraph: QueryMultigraph) -> dict | None:
        """Engine-specific EXPLAIN annotations for one BGP (subclass hook).

        The cluster engine reports its scatter plan here — star order,
        per-star anchor estimates and the frontier-pushdown decision.
        """
        return None

    def _estimate_block_rows(self, qgraph: QueryMultigraph) -> int | None:
        """Estimated result cardinality of one BGP block (subclass hook).

        None means the engine has no estimator; AMbER uses the matcher's
        smallest-posting bound, the cluster engine sums it over shards.
        """
        return None

    # ------------------------------------------------------------------ #
    # backend shortcut hooks
    # ------------------------------------------------------------------ #
    def _fast_select(
        self,
        parsed: SelectQuery,
        plan: QueryMultigraph | AlgebraPlan,
        timeout_seconds: float | None,
        max_solutions: int | None,
    ) -> ResultSet | None:
        """Backend-specific whole-query shortcut; None means use the stream."""
        return None

    def _fast_count(
        self,
        parsed: SelectQuery,
        plan: QueryMultigraph | AlgebraPlan,
        timeout_seconds: float | None,
    ) -> int | None:
        """Backend-specific whole-query count shortcut; None = stream & count."""
        return None

    # ------------------------------------------------------------------ #
    # mutation plumbing shared with subclasses
    # ------------------------------------------------------------------ #
    def _commit(self, changed: bool) -> None:
        """Finish a mutation batch: version bump + plan-cache invalidation."""
        if not changed:
            return
        self.data_version += 1
        cache = self.plan_cache
        if cache is None:
            return
        clear = getattr(cache, "clear", None)
        if clear is not None:
            clear()
        else:
            # A cache that cannot be cleared would serve stale plans —
            # dropping it is the only safe option.
            self.plan_cache = None

    # ------------------------------------------------------------------ #
    # solution streaming
    # ------------------------------------------------------------------ #
    def _component_rows(
        self,
        qgraph: QueryMultigraph,
        component: set[int],
        deadline: Deadline,
        timeout_seconds: float | None,
        max_solutions: int | None,
    ) -> Iterator[Binding]:
        """Stream the bindings of one connected component (subclass hook)."""
        raise NotImplementedError

    def _solutions(
        self,
        parsed: SelectQuery,
        plan: QueryMultigraph | AlgebraPlan,
        timeout_seconds: float | None,
        max_solutions: int | None,
    ) -> Iterator[Binding]:
        """Stream the solutions of a prepared plan (BGP or algebra)."""
        if isinstance(plan, AlgebraPlan):
            return self._iter_algebra(plan, timeout_seconds, max_solutions)
        return self._iter_solutions(parsed, plan, timeout_seconds, max_solutions)

    def _iter_algebra(
        self,
        plan: AlgebraPlan,
        timeout_seconds: float | None,
        max_solutions: int | None,
    ) -> Iterator[Binding]:
        """Evaluate a FILTER/UNION/OPTIONAL plan over the BGP matcher.

        Every BGP block streams through :meth:`_iter_solutions` — the same
        star-decomposition (or scatter–gather) machinery as a standalone
        query — under one shared deadline; block multisets combine via the
        operators in :mod:`repro.sparql.eval`.  The engine row cap applies
        to the final combined solutions; blocks only inherit the engine's
        configured guard cap, because truncating an operand multiset would
        change join results rather than merely bounding them.
        """
        effective_timeout = (
            timeout_seconds if timeout_seconds is not None else self.config.timeout_seconds
        )
        effective_limit = (
            max_solutions if max_solutions is not None else self.config.max_solutions
        )
        deadline = Deadline(effective_timeout)

        def solve_block(block) -> Iterator[Binding]:
            query, qgraph = plan.block_plan(block)
            return self._iter_solutions(query, qgraph, timeout_seconds, None, deadline)

        emitted = 0
        for row in stream_plan(plan.root, solve_block, deadline):
            deadline.check()
            yield row
            emitted += 1
            if effective_limit is not None and emitted >= effective_limit:
                return

    def _iter_solutions(
        self,
        parsed: SelectQuery,
        qgraph: QueryMultigraph,
        timeout_seconds: float | None,
        max_solutions: int | None,
        deadline: Deadline | None = None,
    ) -> Iterator[Binding]:
        """Stream solution bindings under the shared deadline and row cap."""
        if qgraph.unsatisfiable or any(v.unsatisfiable for v in qgraph.vertices.values()):
            return
        effective_timeout = (
            timeout_seconds if timeout_seconds is not None else self.config.timeout_seconds
        )
        effective_limit = (
            max_solutions if max_solutions is not None else self.config.max_solutions
        )
        # One deadline shared by the matching of every component and by the
        # embedding expansion below, so unselective queries whose Cartesian
        # product explodes still honour the time budget.  An algebra plan
        # passes its own deadline in, shared by every one of its BGP blocks.
        if deadline is None:
            deadline = Deadline(effective_timeout)

        components = qgraph.connected_components()
        if not components:
            # A fully ground query: satisfiable (checked above) means one empty row.
            yield Binding({})
            return
        if len(components) == 1:
            emitted = 0
            rows = self._component_rows(
                qgraph, components[0], deadline, timeout_seconds, max_solutions
            )
            for row in rows:
                deadline.check()
                yield row
                emitted += 1
                if effective_limit is not None and emitted >= effective_limit:
                    return
            return
        # Disconnected patterns need every component answer before the cross
        # product, so the per-component bindings are still materialised.
        per_component: list[list[Binding]] = []
        for component in components:
            rows = self._component_rows(
                qgraph, component, deadline, timeout_seconds, max_solutions
            )
            bindings = self._collect(rows, deadline, effective_limit)
            if not bindings:
                return
            per_component.append(bindings)
        emitted = 0
        for row in combine_component_bindings(per_component):
            deadline.check()
            yield row
            emitted += 1
            if effective_limit is not None and emitted >= effective_limit:
                return

    @staticmethod
    def _collect(rows, deadline: Deadline, limit: int | None) -> list[Binding]:
        """Materialise bindings under the shared deadline and optional row cap."""
        collected: list[Binding] = []
        for row in rows:
            deadline.check()
            collected.append(row)
            if limit is not None and len(collected) >= limit:
                break
        return collected


def _bgp_shape(qgraph: QueryMultigraph) -> str:
    """Feedback key of a plain-BGP plan: the query's syntactic pattern list."""
    return f"bgp:{qgraph.query.patterns}"


def _attach_block_extras(outline: dict, extras: dict[int, dict | None]) -> None:
    """Merge per-block engine annotations into an outline's ``bgp`` nodes."""
    if outline.get("op") == "bgp":
        extra = extras.get(outline.get("block"))
        if extra:
            outline.update(extra)
        return
    for child_key in ("left", "right", "child"):
        child = outline.get(child_key)
        if isinstance(child, dict):
            _attach_block_extras(child, extras)
    for branch in outline.get("branches", ()):
        if isinstance(branch, dict):
            _attach_block_extras(branch, extras)


class AmberEngine(QueryEngineBase):
    """Attributed Multigraph Based Engine for RDF querying."""

    name = "AMbER"

    def __init__(
        self,
        data: DataMultigraph,
        indexes: IndexSet,
        build_report: BuildReport | None = None,
        config: MatcherConfig | None = None,
        plan_cache: PlanCache | None = None,
        backend: str | MatchBackend | None = None,
    ):
        self.data = data
        self.indexes = indexes
        self.build_report = build_report
        # Resolved before the config assignment: the config setter rebuilds
        # the shared matcher through the backend.  None picks the vectorized
        # core.
        self._backend = resolve_backend(backend)
        self.config = config or MatcherConfig()
        #: Optional plan cache consulted by :meth:`prepare` for string queries.
        self.plan_cache = plan_cache
        #: Bumped on every mutation batch that changed the graph; cached
        #: results keyed by (query, data_version) stay valid forever.
        self.data_version = 0
        #: Cost-based algebra planner, fed by this engine's block estimator.
        self.planner = QueryPlanner()
        self._mutator = GraphMutator(data, indexes)

    @property
    def config(self) -> MatcherConfig:
        """The engine-level matcher configuration."""
        return self._config

    @config.setter
    def config(self, value: MatcherConfig | None) -> None:
        # The matcher is stateless across queries (per-query state lives in a
        # _MatchRun), so one shared instance serves every query that does not
        # override timeout/row-limit — including concurrent ones.  Rebuilding
        # it here keeps post-construction config assignment working.
        self._config = value or MatcherConfig()
        self._default_matcher = self._backend.matcher(self.data, self.indexes, self._config)

    @property
    def match_backend(self) -> str:
        """Name of the active matching backend (``scalar`` or ``vectorized``)."""
        return self._backend.name

    @match_backend.setter
    def match_backend(self, value: str | MatchBackend | None) -> None:
        self._backend = resolve_backend(value)
        self._default_matcher = self._backend.matcher(self.data, self.indexes, self._config)

    @property
    def matcher(self) -> MultigraphMatcher:
        """The shared backend-built matching core (the matcher protocol object).

        The cluster scatter stage drives its per-shard star matching through
        this object's candidates / star-match / verify methods, so a shard's
        backend choice applies there too.
        """
        return self._default_matcher

    # ------------------------------------------------------------------ #
    # offline stage
    # ------------------------------------------------------------------ #
    @classmethod
    def from_triples(
        cls,
        triples: Iterable[Triple],
        config: MatcherConfig | None = None,
        backend: str | MatchBackend | None = None,
    ) -> "AmberEngine":
        """Build the engine (multigraph + indexes) from an iterable of triples."""
        start = monotonic()
        data = build_data_multigraph(triples)
        database_seconds = monotonic() - start

        start = monotonic()
        indexes = IndexSet.build(data)
        index_seconds = monotonic() - start

        stats = data.statistics()
        report = BuildReport(
            database_seconds=database_seconds,
            index_seconds=index_seconds,
            triples=stats["triples"],
            vertices=stats["vertices"],
            edges=stats["edges"],
            edge_types=stats["edge_types"],
            attributes=stats["attributes"],
            index_items=indexes.report.total_items if indexes.report else 0,
        )
        return cls(data, indexes, report, config, backend=backend)

    @classmethod
    def from_store(
        cls,
        store: TripleStore,
        config: MatcherConfig | None = None,
        backend: str | MatchBackend | None = None,
    ) -> "AmberEngine":
        """Build the engine from a :class:`TripleStore`."""
        return cls.from_triples(iter(store), config=config, backend=backend)

    @classmethod
    def from_ntriples(
        cls,
        text: str,
        config: MatcherConfig | None = None,
        backend: str | MatchBackend | None = None,
    ) -> "AmberEngine":
        """Build the engine from an N-Triples document string."""
        return cls.from_triples(parse_ntriples(text), config=config, backend=backend)

    @classmethod
    def from_ntriples_file(
        cls,
        path,
        config: MatcherConfig | None = None,
        backend: str | MatchBackend | None = None,
    ) -> "AmberEngine":
        """Build the engine from an ``.nt`` file."""
        return cls.from_triples(parse_ntriples_file(path), config=config, backend=backend)

    @classmethod
    def from_turtle(
        cls,
        text: str,
        config: MatcherConfig | None = None,
        backend: str | MatchBackend | None = None,
    ) -> "AmberEngine":
        """Build the engine from a Turtle document string."""
        return cls.from_triples(parse_turtle(text), config=config, backend=backend)

    # ------------------------------------------------------------------ #
    # dynamic updates
    # ------------------------------------------------------------------ #
    def apply_update(
        self, update: str | UpdateRequest, base_dir: str | None = None
    ) -> UpdateResult:
        """Apply a SPARQL UPDATE (INSERT DATA / DELETE DATA / LOAD) in place.

        The multigraph and every index are maintained incrementally, so the
        engine keeps answering queries with exactly the results a fresh
        offline build on the mutated triple set would produce.  When the
        graph changed, :attr:`data_version` is bumped and the plan cache is
        invalidated (prepared plans embed dictionary ids and
        satisfiability decisions that mutations can flip).

        The engine performs no locking: concurrent readers must be excluded
        by the caller — :class:`repro.server.EngineService` wraps this in
        the write side of a reader-writer lock.
        """
        request = parse_update(update) if isinstance(update, str) else update
        result = self._mutator.apply(request, base_dir=base_dir)
        self._commit(result.changed)
        return result

    def insert_triples(self, triples: Iterable[Triple]) -> int:
        """Insert triples (set semantics); returns how many were new."""
        count = self._mutator.insert_triples(triples)
        self._commit(count > 0)
        return count

    def delete_triples(self, triples: Iterable[Triple]) -> int:
        """Delete triples; returns how many were present."""
        count = self._mutator.delete_triples(triples)
        self._commit(count > 0)
        return count

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _matcher_for(
        self, timeout_seconds: float | None, max_solutions: int | None
    ) -> MultigraphMatcher:
        """Return the shared matcher, or a one-off for per-query overrides."""
        if timeout_seconds is None and max_solutions is None:
            return self._default_matcher
        config = replace(
            self.config,
            timeout_seconds=(
                timeout_seconds if timeout_seconds is not None else self.config.timeout_seconds
            ),
            max_solutions=(
                max_solutions if max_solutions is not None else self.config.max_solutions
            ),
        )
        return self._backend.matcher(self.data, self.indexes, config)

    def _columnar_batch(self, qgraph: QueryMultigraph, timeout_seconds: float | None):
        """Solve a single-component BGP in one columnar batch (None = no path).

        The batch is fully enumerated under the query deadline; expanding
        it into rows is left to the caller (lazily, outside the budget).
        """
        if qgraph.unsatisfiable or any(v.unsatisfiable for v in qgraph.vertices.values()):
            return None
        components = qgraph.connected_components()
        if len(components) != 1:
            return None
        matcher = self._matcher_for(timeout_seconds, None)
        columnar = getattr(matcher, "match_component_columnar", None)
        if columnar is None:
            return None
        timeout = timeout_seconds if timeout_seconds is not None else self.config.timeout_seconds
        return columnar(qgraph, components[0], Deadline(timeout))

    def _fast_select(
        self,
        parsed: SelectQuery,
        plan: QueryMultigraph | AlgebraPlan,
        timeout_seconds: float | None,
        max_solutions: int | None,
    ) -> ResultSet | None:
        """Columnar whole-query shortcut: factored solutions + lazy rows.

        Eligible plain-BGP SELECTs (single component, no DISTINCT/LIMIT/
        OFFSET, no row cap) skip the solution stream entirely: the
        vectorized matcher returns factored solutions whose embedding count
        is known up front, so the result set materialises its rows only if
        someone actually reads them.
        """
        if not isinstance(plan, QueryMultigraph):
            return None
        if parsed.distinct or parsed.limit is not None or parsed.offset:
            return None
        if max_solutions is not None or self.config.max_solutions is not None:
            return None
        batch = self._columnar_batch(plan, timeout_seconds)
        if batch is None:
            return None
        variables = parsed.answer_variables()

        def expand():
            rows = columnar_bindings(batch, plan, self.data)
            return (row.project(variables) for row in rows)

        return ResultSet.lazy(variables, batch.total_embeddings(), expand)

    def _fast_count(
        self,
        parsed: SelectQuery,
        plan: QueryMultigraph | AlgebraPlan,
        timeout_seconds: float | None,
    ) -> int | None:
        """Columnar counting: total embeddings without expanding any row.

        LIMIT/OFFSET arithmetic happens in the caller over the true total,
        exactly as the streamed path computes it.
        """
        if not isinstance(plan, QueryMultigraph) or parsed.distinct:
            return None
        if self.config.max_solutions is not None:
            return None
        batch = self._columnar_batch(plan, timeout_seconds)
        if batch is None:
            return None
        return batch.total_embeddings()

    def _component_rows(
        self,
        qgraph: QueryMultigraph,
        component: set[int],
        deadline: Deadline,
        timeout_seconds: float | None,
        max_solutions: int | None,
    ) -> Iterator[Binding]:
        """Match one component with the recursive core/satellite matcher."""
        matcher = self._matcher_for(timeout_seconds, max_solutions)
        solutions = matcher.match_component(qgraph, component, deadline)
        return component_bindings(solutions, qgraph, self.data)

    def _estimate_block_rows(self, qgraph: QueryMultigraph) -> int | None:
        """Smallest-posting cardinality bound over the block's vertices.

        The same estimate that drives cardinality matching order: each
        vertex's candidates are bounded by its smallest attribute posting,
        IRI-constraint neighbourhood or signature-synopsis candidates, and
        a connected pattern cannot produce more rows than its most
        selective vertex allows candidate anchors.
        """
        if not qgraph.vertices:
            return 1
        matcher = self._default_matcher
        return min(
            matcher.cardinality_estimate(vertex, qgraph)
            for vertex in qgraph.vertices.values()
        )

    def statistics(self) -> dict[str, int]:
        """Return dataset statistics of the loaded multigraph (Table 4)."""
        return self.data.statistics()

    def __repr__(self) -> str:
        stats = self.data.statistics()
        return (
            f"AmberEngine(vertices={stats['vertices']}, edges={stats['edges']}, "
            f"edge_types={stats['edge_types']}, attributes={stats['attributes']})"
        )
