"""Compositional evaluation of the FILTER / UNION / OPTIONAL fragment.

The evaluator splits a :class:`~.algebra.GroupGraphPattern` tree into
*BGP blocks* — maximal runs of triple patterns — and delegates each block
to an engine-provided solver (AMbER's star-decomposition matcher, the
cluster's scatter–gather, or a baseline's own BGP evaluation).  The block
solution multisets are then combined here, engine-independently, with the
SPARQL 1.1 algebra operators:

* **Join** — compatible-merge of binding multisets (one side bucketed
  on its certainly-bound variables, the other streamed past it);
* **Union** — multiset concatenation of branch solutions;
* **LeftJoin** — ``OPTIONAL`` semantics, including a join condition when
  the optional group ends in top-level filters (spec section 18.2.2.5);
* **Filter** — error-is-false effective-boolean-value filtering.

Filters placed in a group whose variables are all bound by one of the
group's own BGP blocks are *pushed down* into that block
(:attr:`BGPNode.filters`): the engine then prunes candidate rows as they
stream out of the matcher, before any join materialises them.  Pushing
into ``OPTIONAL`` or ``UNION`` sub-patterns would change semantics
(an unbound-variable error must drop the whole group row, not just the
optional match), so those filters stay at group level.

Everything here works on :class:`~.bindings.Binding` multisets; the only
engine contract is the ``solver(BGPNode) -> Iterable[Binding]`` callable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Union

from .algebra import (
    Filter,
    GroupGraphPattern,
    OptionalPattern,
    TriplePattern,
    UnionPattern,
    Variable,
)
from .bindings import Binding
from .expressions import And, Expression, expression_variables, filter_passes
from ..telemetry.record import current_record, timed_iter
from ..timing import Deadline

__all__ = [
    "BGPNode",
    "CompiledPattern",
    "EmptyNode",
    "FilterNode",
    "JoinNode",
    "LeftJoinNode",
    "PlanNode",
    "UnionNode",
    "compile_pattern",
    "evaluate_plan",
    "iter_plan_nodes",
    "plan_outline",
    "stream_plan",
]

#: Solves one BGP block: maps a :class:`BGPNode` to its solution multiset.
BGPSolver = Callable[["BGPNode"], Iterable[Binding]]


@dataclass
class BGPNode:
    """One maximal run of triple patterns, solved by the engine's matcher.

    ``filters`` holds the group filters pushed down into this block: every
    one of their variables is bound by the block's own patterns, so rows
    are pruned right as the matcher streams them.  ``index`` identifies
    the block inside its compiled plan (engines key per-block prepared
    state — e.g. the query multigraph — by it).
    """

    patterns: list[TriplePattern]
    filters: list[Expression] = field(default_factory=list)
    index: int = -1
    node_id: int = -1

    def variables(self) -> set[Variable]:
        found: set[Variable] = set()
        for pattern in self.patterns:
            found |= pattern.variables()
        return found


@dataclass
class JoinNode:
    """Join of two operands (SPARQL multiset join via compatible merge).

    ``build`` names the side the hash join materialises and buckets
    (``"left"`` or ``"right"``); the other side streams past the buckets.
    The planner sets it to the smaller estimated side — the default
    preserves the historical build-left behaviour.
    """

    left: "PlanNode"
    right: "PlanNode"
    node_id: int = -1
    build: str = "left"


@dataclass
class UnionNode:
    """Multiset union of the branch solutions."""

    branches: list["PlanNode"]
    node_id: int = -1


@dataclass
class LeftJoinNode:
    """``OPTIONAL``: left-join with an optional join condition.

    ``build`` names the materialised side: ``"right"`` (the default, and
    the historical behaviour) buckets the optional side and streams the
    required side; ``"left"`` buckets the required side when the planner
    estimates it smaller, tracking per-row match state instead.
    """

    left: "PlanNode"
    right: "PlanNode"
    condition: Expression | None = None
    node_id: int = -1
    build: str = "right"


@dataclass
class FilterNode:
    """Group-level filters over the child's solutions (error-is-false)."""

    child: "PlanNode"
    conditions: list[Expression]
    node_id: int = -1


@dataclass
class EmptyNode:
    """The empty group: the join identity — exactly one empty binding."""

    node_id: int = -1


PlanNode = Union[BGPNode, JoinNode, UnionNode, LeftJoinNode, FilterNode, EmptyNode]


@dataclass
class CompiledPattern:
    """A compiled pattern tree plus its BGP blocks in plan-index order."""

    root: PlanNode
    blocks: list[BGPNode]


# --------------------------------------------------------------------------- #
# compilation (SPARQL 18.2.2: translate graph patterns)
# --------------------------------------------------------------------------- #
def compile_pattern(group: GroupGraphPattern) -> CompiledPattern:
    """Translate a group tree into a plan with indexed BGP blocks.

    Every node gets a preorder ``node_id`` identifying the operator inside
    its plan; ``EXPLAIN ANALYZE`` joins runtime row counts (charged by
    :func:`stream_plan` under ``op.<node_id>.rows``) back onto the outline
    through it.
    """
    blocks: list[BGPNode] = []
    root = _compile_group(group, blocks)
    for index, block in enumerate(blocks):
        block.index = index
    for node_id, node in enumerate(iter_plan_nodes(root)):
        node.node_id = node_id
    return CompiledPattern(root, blocks)


def iter_plan_nodes(node: PlanNode) -> Iterator[PlanNode]:
    """Preorder iteration over a plan tree (the ``node_id`` assignment order)."""
    yield node
    if isinstance(node, (JoinNode, LeftJoinNode)):
        yield from iter_plan_nodes(node.left)
        yield from iter_plan_nodes(node.right)
    elif isinstance(node, UnionNode):
        for branch in node.branches:
            yield from iter_plan_nodes(branch)
    elif isinstance(node, FilterNode):
        yield from iter_plan_nodes(node.child)


def _compile_group(group: GroupGraphPattern, blocks: list[BGPNode]) -> PlanNode:
    current: PlanNode = EmptyNode()
    own_blocks: list[BGPNode] = []
    filters: list[Expression] = []
    run: list[TriplePattern] = []

    def flush_run() -> None:
        nonlocal current
        if run:
            block = BGPNode(patterns=list(run))
            blocks.append(block)
            own_blocks.append(block)
            current = _join(current, block)
            run.clear()

    for element in group.elements:
        if isinstance(element, TriplePattern):
            run.append(element)
        elif isinstance(element, Filter):
            filters.append(element.expression)
        elif isinstance(element, GroupGraphPattern):
            flush_run()
            current = _join(current, _compile_group(element, blocks))
        elif isinstance(element, UnionPattern):
            flush_run()
            branches = [_compile_group(branch, blocks) for branch in element.branches]
            current = _join(current, UnionNode(branches))
        elif isinstance(element, OptionalPattern):
            flush_run()
            # OPTIONAL { P FILTER(E) } translates to LeftJoin(G, P, E): the
            # filter becomes the join condition, evaluated against the
            # merged row, so it may reference left-side variables.  Only
            # the optional group's *own* top-level filters hoist — one
            # nested deeper (OPTIONAL { { P FILTER(E) } }) they stay
            # scoped to their group, where outer variables are unbound.
            own_filters = [
                part.expression for part in element.pattern.elements if isinstance(part, Filter)
            ]
            stripped = GroupGraphPattern(
                tuple(part for part in element.pattern.elements if not isinstance(part, Filter))
            )
            inner = _compile_group(stripped, blocks)
            current = LeftJoinNode(current, inner, _conjunction(own_filters))
        else:  # pragma: no cover - parser produces no other element kinds
            raise TypeError(f"unknown pattern element {type(element).__name__}")
    flush_run()

    remaining = _push_down_filters(filters, own_blocks)
    if remaining:
        return FilterNode(current, remaining)
    return current


def _join(left: PlanNode, right: PlanNode) -> PlanNode:
    if isinstance(left, EmptyNode):
        return right
    return JoinNode(left, right)


def _conjunction(conditions: list[Expression]) -> Expression | None:
    if not conditions:
        return None
    combined = conditions[0]
    for condition in conditions[1:]:
        combined = And(combined, condition)
    return combined


def _push_down_filters(filters: list[Expression], own_blocks: list[BGPNode]) -> list[Expression]:
    """Attach each filter to a block of this group that binds all its vars.

    Only the group's *own* BGP blocks (direct join operands) are legal
    targets; a filter that does not fit one stays at group level.  The
    returned list keeps the group-level filters in syntactic order.
    """
    remaining: list[Expression] = []
    for expression in filters:
        wanted = expression_variables(expression)
        target = None
        if wanted:
            for block in own_blocks:
                if wanted <= block.variables():
                    target = block
                    break
        if target is not None:
            target.filters.append(expression)
        else:
            remaining.append(expression)
    return remaining


# --------------------------------------------------------------------------- #
# evaluation
# --------------------------------------------------------------------------- #
def evaluate_plan(node: PlanNode, solver: BGPSolver, deadline: Deadline) -> list[Binding]:
    """Evaluate a plan tree and return its full solution multiset."""
    return list(stream_plan(node, solver, deadline))


def stream_plan(node: PlanNode, solver: BGPSolver, deadline: Deadline) -> Iterator[Binding]:
    """Stream a plan tree's solution multiset, lazily where the algebra allows.

    BGP, Union and Filter nodes stream straight through; a Join buckets
    its (materialised) left operand and streams the right; a LeftJoin
    buckets its (materialised) right operand and streams the left.  So a
    consumer that stops early — ``ask()``, a row cap, ``LIMIT`` — never
    forces the whole multiset of the outermost operator chain.

    When a query record is active, every operator's stream is wrapped in
    :func:`~repro.telemetry.record.timed_iter`, which charges the operator
    the time spent inside its ``next()`` (inclusive of its children) and
    the rows it produced — the latter also to the ``op.<node_id>.rows``
    counter, which ``EXPLAIN ANALYZE`` joins back onto the plan outline as
    ``actual_rows``.
    """
    stream = _stream_node(node, solver, deadline)
    if current_record() is None:
        return stream
    name, attributes = _operator_label(node)
    return timed_iter(name, stream, node_id=node.node_id, **attributes)


def _operator_label(node: PlanNode) -> tuple[str, dict]:
    """Span name + static attributes of one algebra operator."""
    if isinstance(node, BGPNode):
        return "algebra.bgp", {"block": node.index, "patterns": len(node.patterns)}
    if isinstance(node, UnionNode):
        return "algebra.union", {"branches": len(node.branches)}
    if isinstance(node, FilterNode):
        return "algebra.filter", {"conditions": len(node.conditions)}
    if isinstance(node, LeftJoinNode):
        return "algebra.leftjoin", {}
    if isinstance(node, EmptyNode):
        return "algebra.empty", {}
    return "algebra.join", {}


def _stream_node(node: PlanNode, solver: BGPSolver, deadline: Deadline) -> Iterator[Binding]:
    if isinstance(node, BGPNode):
        for row in solver(node):
            deadline.check()
            if all(filter_passes(expression, row) for expression in node.filters):
                yield row
    elif isinstance(node, EmptyNode):
        yield Binding({})
    elif isinstance(node, UnionNode):
        for branch in node.branches:
            yield from stream_plan(branch, solver, deadline)
    elif isinstance(node, FilterNode):
        for row in stream_plan(node.child, solver, deadline):
            if all(filter_passes(expression, row) for expression in node.conditions):
                yield row
    elif isinstance(node, JoinNode):
        yield from _stream_join(node, solver, deadline)
    elif isinstance(node, LeftJoinNode):
        yield from _stream_left_join(node, solver, deadline)
    else:  # pragma: no cover - compile produces no other node kinds
        raise TypeError(f"unknown plan node {type(node).__name__}")


#: Estimates one BGP block's result cardinality (None when unknown).
RowEstimator = Callable[["BGPNode"], "int | None"]


def plan_outline(
    node: PlanNode,
    estimator: RowEstimator | None = None,
    actuals: "dict[int, int] | None" = None,
) -> dict:
    """A JSON-ready descriptor of a plan tree (the ``EXPLAIN`` plan section).

    Mirrors the operator structure that :func:`stream_plan` executes; the
    ``block`` indexes match the ``block`` attribute of ``algebra.bgp``
    spans and the ``id`` fields match the ``op.<id>.rows`` record
    counters, so timings and row counts can be joined back onto the plan.

    ``estimator`` (an engine hook — AMbER's smallest-posting bound) adds
    ``estimated_rows`` per BGP leaf; interior operators derive theirs
    structurally: union sums its branches, filter and leftjoin pass their
    required side through, a join takes the max of its sides when they
    share a certainly-bound variable and the product otherwise.
    ``actuals`` (node id -> rows measured by :func:`stream_plan`) adds
    ``actual_rows``.  Both annotations are backend-independent: the same
    query compiles to the same tree shape whichever matcher executes it.
    """
    outline = _outline_node(node, estimator, actuals)
    return outline


def _outline_node(
    node: PlanNode, estimator: RowEstimator | None, actuals: "dict[int, int] | None"
) -> dict:
    if isinstance(node, BGPNode):
        out = {
            "op": "bgp",
            "id": node.node_id,
            "block": node.index,
            "patterns": len(node.patterns),
            "pushed_filters": len(node.filters),
            "variables": sorted(v.name for v in node.variables()),
        }
    elif isinstance(node, EmptyNode):
        out = {"op": "empty", "id": node.node_id}
    elif isinstance(node, UnionNode):
        out = {
            "op": "union",
            "id": node.node_id,
            "branches": [_outline_node(branch, estimator, actuals) for branch in node.branches],
        }
    elif isinstance(node, FilterNode):
        out = {
            "op": "filter",
            "id": node.node_id,
            "conditions": len(node.conditions),
            "child": _outline_node(node.child, estimator, actuals),
        }
    elif isinstance(node, JoinNode):
        out = {
            "op": "join",
            "id": node.node_id,
            "build": node.build,
            "left": _outline_node(node.left, estimator, actuals),
            "right": _outline_node(node.right, estimator, actuals),
        }
    elif isinstance(node, LeftJoinNode):
        out = {
            "op": "leftjoin",
            "id": node.node_id,
            "build": node.build,
            "condition": node.condition is not None,
            "left": _outline_node(node.left, estimator, actuals),
            "right": _outline_node(node.right, estimator, actuals),
        }
    else:  # pragma: no cover - compile produces no other node kinds
        raise TypeError(f"unknown plan node {type(node).__name__}")
    if estimator is not None:
        estimated = _estimate_rows(node, out, estimator)
        if estimated is not None:
            out["estimated_rows"] = estimated
    if actuals is not None:
        out["actual_rows"] = actuals.get(node.node_id, 0)
    return out


def _estimate_rows(node: PlanNode, out: dict, estimator: RowEstimator) -> int | None:
    """Derive one operator's row estimate from its leaves (see plan_outline)."""
    if isinstance(node, BGPNode):
        return estimator(node)
    if isinstance(node, EmptyNode):
        return 1
    if isinstance(node, UnionNode):
        parts = [branch.get("estimated_rows") for branch in out["branches"]]
        if any(part is None for part in parts):
            return None
        return sum(parts)
    if isinstance(node, FilterNode):
        return out["child"].get("estimated_rows")
    if isinstance(node, LeftJoinNode):
        return out["left"].get("estimated_rows")
    left = out["left"].get("estimated_rows")
    right = out["right"].get("estimated_rows")
    if left is None or right is None:
        return None
    if certain_variables(node.left) & certain_variables(node.right):
        return max(left, right)
    return left * right


def certain_variables(node: PlanNode) -> set[Variable]:
    """Variables *guaranteed* bound in every row the node produces.

    BGP rows bind all their pattern variables; a union only guarantees
    what every branch guarantees; a left join only its required side.
    The intersection of both operands' certain sets gives safe hash-join
    keys — residual shared-but-uncertain variables are still checked by
    :meth:`Binding.merge`.
    """
    if isinstance(node, BGPNode):
        return node.variables()
    if isinstance(node, EmptyNode):
        return set()
    if isinstance(node, JoinNode):
        return certain_variables(node.left) | certain_variables(node.right)
    if isinstance(node, UnionNode):
        certain = certain_variables(node.branches[0])
        for branch in node.branches[1:]:
            certain &= certain_variables(branch)
        return certain
    if isinstance(node, LeftJoinNode):
        return certain_variables(node.left)
    if isinstance(node, FilterNode):
        return certain_variables(node.child)
    raise TypeError(f"unknown plan node {type(node).__name__}")  # pragma: no cover


def _join_keys(left: PlanNode, right: PlanNode) -> list[Variable]:
    return sorted(certain_variables(left) & certain_variables(right), key=lambda v: v.name)


def _bucket(rows: list[Binding], keys: list[Variable]) -> dict[tuple, list[Binding]]:
    buckets: dict[tuple, list[Binding]] = {}
    for row in rows:
        buckets.setdefault(tuple(row[v] for v in keys), []).append(row)
    return buckets


def _stream_join(node: JoinNode, solver: BGPSolver, deadline: Deadline) -> Iterator[Binding]:
    """SPARQL Join: all compatible merges, as a multiset.

    The build side (``node.build``, planner-chosen, default left) is
    materialised and bucketed on the join keys (the variables certainly
    bound on *both* sides); the other side's rows stream past the buckets.
    An empty bucket is exact, not approximate: a build row outside the
    probed bucket differs on a certainly-bound shared variable, so its
    merge would conflict anyway.

    The deadline is checked inside the bucket scan, not just once per
    probe row — a single skewed bucket must not outlive the timeout.
    """
    build_node = node.right if node.build == "right" else node.left
    probe_node = node.left if node.build == "right" else node.right
    built = evaluate_plan(build_node, solver, deadline)
    if not built:
        return
    keys = _join_keys(node.left, node.right)
    buckets = _bucket(built, keys)
    for row in stream_plan(probe_node, solver, deadline):
        deadline.check()
        for other in buckets.get(tuple(row[v] for v in keys), ()):
            deadline.check()
            combined = other.merge(row)
            if combined is not None:
                yield combined


def _stream_left_join(
    node: LeftJoinNode, solver: BGPSolver, deadline: Deadline
) -> Iterator[Binding]:
    """SPARQL LeftJoin: Filter(condition, Join) plus unmatched left rows.

    By default the optional side is materialised and bucketed on the join
    keys; left rows stream, each probing one bucket (exact, as in
    :func:`_stream_join`).  When the planner estimates the required side
    smaller (``node.build == "left"``) the roles flip — see
    :func:`_stream_left_join_build_left`.
    """
    if node.build == "left":
        yield from _stream_left_join_build_left(node, solver, deadline)
        return
    right = evaluate_plan(node.right, solver, deadline)
    keys = _join_keys(node.left, node.right)
    buckets = _bucket(right, keys)
    for row in stream_plan(node.left, solver, deadline):
        deadline.check()
        matched = False
        for other in buckets.get(tuple(row[v] for v in keys), ()):
            deadline.check()
            combined = row.merge(other)
            if combined is None:
                continue
            if node.condition is not None and not filter_passes(node.condition, combined):
                continue
            yield combined
            matched = True
        if not matched:
            yield row


def _stream_left_join_build_left(
    node: LeftJoinNode, solver: BGPSolver, deadline: Deadline
) -> Iterator[Binding]:
    """LeftJoin with the *required* side materialised and bucketed.

    Chosen by the planner when the required side is estimated smaller than
    the optional one.  Optional rows stream past the buckets; each left
    row remembers whether it ever matched, and the unmatched left rows are
    emitted after the stream drains.  The multiset is identical to the
    build-right variant — only the emission order differs, which SPARQL
    multiset semantics does not observe.
    """
    left = evaluate_plan(node.left, solver, deadline)
    if not left:
        return
    keys = _join_keys(node.left, node.right)
    buckets: dict[tuple, list[tuple[int, Binding]]] = {}
    for position, row in enumerate(left):
        buckets.setdefault(tuple(row[v] for v in keys), []).append((position, row))
    matched = [False] * len(left)
    for row in stream_plan(node.right, solver, deadline):
        deadline.check()
        for position, other in buckets.get(tuple(row[v] for v in keys), ()):
            deadline.check()
            combined = other.merge(row)
            if combined is None:
                continue
            if node.condition is not None and not filter_passes(node.condition, combined):
                continue
            yield combined
            matched[position] = True
    for position, row in enumerate(left):
        if not matched[position]:
            yield row
