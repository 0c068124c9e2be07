"""Cost-based planning over compiled pattern trees.

PR 9's ``EXPLAIN ANALYZE`` put estimated and actual cardinalities side by
side on every plan node, and the numbers showed the static heuristics
wrong in measurable ways: joins always built their hash table on the left
operand regardless of size, and BGP blocks joined in syntactic order even
when a later block was orders of magnitude more selective.  This module is
the planner half of the planner/executor split that fixes both, in the
style of classic cardinality-driven optimizers (Leis et al., PVLDB 2015)
with runtime feedback as in adaptive re-optimization (Markl et al.,
SIGMOD 2004):

* :class:`CardinalityEstimator` — per-plan row estimates: engine-provided
  BGP block bounds (AMbER's smallest-posting / synopsis bound, summed over
  shards on the cluster), corrected by runtime feedback, and derived
  structurally for interior operators exactly as ``plan_outline`` derives
  its ``estimated_rows``;
* :class:`QueryPlanner` — rewrites a compiled tree: join spines are
  flattened and re-joined cheapest-first (under a connectivity preference
  that avoids introducing cross products), every :class:`~.eval.JoinNode`
  and :class:`~.eval.LeftJoinNode` gets its hash-join build side picked by
  estimated size, and the decisions are recorded per query shape so the
  ``estimated_rows`` / ``actual_rows`` pairs a later ``EXPLAIN ANALYZE``
  measures can be folded back in as per-block correction factors;
* :class:`PlanDecisions` — the JSON-ready record of what was chosen,
  embedded in ``EXPLAIN`` output.

Everything here is pure tree manipulation over multiset-commutative
operators: reordering join operands and swapping build sides never changes
the solution multiset (the differential suite asserts this across every
engine), only the evaluation cost.  The planner never reads clocks — cost
is measured in estimated rows only.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from .eval import (
    BGPNode,
    EmptyNode,
    FilterNode,
    JoinNode,
    LeftJoinNode,
    PlanNode,
    UnionNode,
    certain_variables,
    iter_plan_nodes,
)

__all__ = [
    "CardinalityEstimator",
    "PlanDecisions",
    "PlannerStats",
    "QueryPlanner",
    "shape_key",
]

#: Engine hook estimating one BGP block's result rows (None = no estimator).
BlockRows = Callable[[BGPNode], "int | None"]

#: Correction factors are clamped so one wild measurement cannot zero out
#: (or explode) every later estimate of a block.
_MIN_FACTOR = 1.0 / 1024.0
_MAX_FACTOR = 1024.0

#: Shapes the planner remembers; shape keys embed the query constants, so
#: the least recently planned or observed shape is evicted past this bound.
MAX_SHAPES = 1024


def shape_key(node: PlanNode) -> str:
    """Canonical structural signature of a compiled tree.

    Two preparations of the same query text produce the same key, and the
    key survives the planner's own reordering (join operands are sorted),
    so runtime feedback recorded under a shape finds the next plan of that
    shape.  Blocks inside the key are identified by their triple patterns,
    not their ``node_id`` — node ids shift when the planner reorders, block
    syntax does not.
    """
    if isinstance(node, BGPNode):
        patterns = " ".join(str(pattern) for pattern in node.patterns)
        filters = f" |{len(node.filters)}" if node.filters else ""
        return f"bgp({patterns}{filters})"
    if isinstance(node, EmptyNode):
        return "empty"
    if isinstance(node, UnionNode):
        return "union(" + ",".join(shape_key(branch) for branch in node.branches) + ")"
    if isinstance(node, FilterNode):
        return f"filter[{len(node.conditions)}](" + shape_key(node.child) + ")"
    if isinstance(node, JoinNode):
        sides = sorted((shape_key(node.left), shape_key(node.right)))
        return "join{" + ",".join(sides) + "}"
    if isinstance(node, LeftJoinNode):
        return f"leftjoin({shape_key(node.left)},{shape_key(node.right)})"
    raise TypeError(f"unknown plan node {type(node).__name__}")  # pragma: no cover


class CardinalityEstimator:
    """Row estimates for one plan: block bounds, corrections, derivation.

    ``block_rows`` is the engine hook (AMbER's smallest-posting / synopsis
    bound; the cluster sums it over shards); ``corrections`` maps BGP block
    indexes to runtime-feedback factors learned from earlier
    ``EXPLAIN ANALYZE`` runs of the same query shape.  Block estimates are
    memoised per instance — one planning pass probes each block once.
    """

    def __init__(
        self, block_rows: BlockRows, corrections: dict[int, float] | None = None
    ) -> None:
        self._block_rows = block_rows
        self._corrections = dict(corrections or {})
        self._blocks: dict[int, int | None] = {}

    def block(self, block: BGPNode) -> int | None:
        """The (feedback-corrected) estimate of one BGP block."""
        if block.index in self._blocks:
            return self._blocks[block.index]
        estimate = self._block_rows(block)
        if estimate is not None:
            factor = self._corrections.get(block.index)
            if factor is not None:
                estimate = max(0, round(estimate * factor))
        self._blocks[block.index] = estimate
        return estimate

    def corrected_blocks(self) -> list[int]:
        """Indexes of probed blocks whose estimate carried a feedback factor."""
        return sorted(index for index in self._blocks if index in self._corrections)

    def rows(self, node: PlanNode) -> int | None:
        """Structural estimate of a subtree (mirrors ``plan_outline``).

        Union sums its branches, filter and left join pass their required
        side through, a join takes the max of its sides when they share a
        certainly-bound variable and the product otherwise.  None anywhere
        below makes the subtree inestimable.
        """
        if isinstance(node, BGPNode):
            return self.block(node)
        if isinstance(node, EmptyNode):
            return 1
        if isinstance(node, UnionNode):
            parts = [self.rows(branch) for branch in node.branches]
            if any(part is None for part in parts):
                return None
            return sum(parts)
        if isinstance(node, FilterNode):
            return self.rows(node.child)
        if isinstance(node, LeftJoinNode):
            return self.rows(node.left)
        left = self.rows(node.left)
        right = self.rows(node.right)
        if left is None or right is None:
            return None
        if certain_variables(node.left) & certain_variables(node.right):
            return max(left, right)
        return left * right


@dataclass
class PlanDecisions:
    """What the planner chose for one prepared query (JSON-ready).

    ``block_order`` lists BGP block indexes in the order the rewritten tree
    visits them (the join order); ``build_sides`` maps join/leftjoin node
    ids — *after* renumbering — to the side whose rows are materialised
    and bucketed; ``block_estimates`` carries the corrected per-block
    estimates the decisions were based on.
    """

    shape: str
    data_version: int
    block_order: list[int]
    build_sides: dict[int, str]
    block_estimates: dict[int, int | None]
    reordered: bool
    corrected_blocks: list[int]

    def as_dict(self) -> dict:
        return {
            "data_version": self.data_version,
            "block_order": list(self.block_order),
            "build_sides": {str(k): v for k, v in self.build_sides.items()},
            "block_estimates": {str(k): v for k, v in self.block_estimates.items()},
            "reordered": self.reordered,
            "corrected_blocks": list(self.corrected_blocks),
        }


@dataclass
class PlannerStats:
    """Planner activity counters (surfaced on the service ``/stats``)."""

    planned: int = 0
    replanned: int = 0
    memo_hits: int = 0
    observations: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "planned": self.planned,
            "replanned": self.replanned,
            "memo_hits": self.memo_hits,
            "observations": self.observations,
        }


@dataclass
class _ShapeState:
    """Per-query-shape planner memory: last planned version plus feedback."""

    data_version: int | None = None
    #: Block index -> multiplicative correction (geometric EWMA of
    #: measured actual/estimated ratios).
    corrections: dict[int, float] = field(default_factory=dict)


class QueryPlanner:
    """Orders joins, picks build sides, and learns correction factors.

    One planner instance lives on one engine; it is thread-safe (prepares
    may run concurrently under the service's read lock).  Plans are keyed
    by query shape and ``data_version``: preparing a shape again after a
    mutation bumped the version counts as a re-plan, so UPDATE-then-query
    sequences observably re-derive their decisions (the engine-level plan
    cache is cleared on mutation, which is what routes the query back
    here).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._shapes: OrderedDict[str, _ShapeState] = OrderedDict()
        self.stats = PlannerStats()

    def _state(self, shape: str) -> _ShapeState:
        """The state of ``shape``, made most recent (caller holds the lock)."""
        state = self._shapes.get(shape)
        if state is None:
            state = self._shapes[shape] = _ShapeState()
            if len(self._shapes) > MAX_SHAPES:
                self._shapes.popitem(last=False)
        else:
            self._shapes.move_to_end(shape)
        return state

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def plan(
        self, root: PlanNode, block_rows: BlockRows, data_version: int
    ) -> tuple[PlanNode, PlanDecisions | None]:
        """Rewrite ``root`` cost-first and record the decisions.

        The tree is mutated in place where safe and rebuilt where join
        spines reorder; node ids are reassigned preorder afterwards so
        ``op.<id>.rows`` accounting and outlines stay consistent with the
        executed tree.
        """
        if not self.enabled:
            return root, None
        shape = shape_key(root)
        with self._lock:
            state = self._state(shape)
            self.stats.planned += 1
            if state.data_version is not None:
                if state.data_version != data_version:
                    self.stats.replanned += 1
                else:
                    self.stats.memo_hits += 1
            state.data_version = data_version
            corrections = dict(state.corrections)
        estimator = CardinalityEstimator(block_rows, corrections)
        planned, reordered = _plan_node(root, estimator)
        for node_id, node in enumerate(iter_plan_nodes(planned)):
            node.node_id = node_id
        block_estimates: dict[int, int | None] = {}
        block_order: list[int] = []
        build_sides: dict[int, str] = {}
        for node in iter_plan_nodes(planned):
            if isinstance(node, BGPNode):
                block_order.append(node.index)
                block_estimates[node.index] = estimator.block(node)
            elif isinstance(node, (JoinNode, LeftJoinNode)):
                build_sides[node.node_id] = node.build
        decisions = PlanDecisions(
            shape=shape,
            data_version=data_version,
            block_order=block_order,
            build_sides=build_sides,
            block_estimates=block_estimates,
            reordered=reordered,
            corrected_blocks=estimator.corrected_blocks(),
        )
        return planned, decisions

    # ------------------------------------------------------------------ #
    # runtime feedback
    # ------------------------------------------------------------------ #
    def observe(self, shape: str, block_feedback: dict[int, tuple[int, int]]) -> None:
        """Fold measured ``(estimated, actual)`` block rows into corrections.

        ``estimated`` must be the *raw* engine bound (pre-correction) so
        factors converge instead of compounding.  Each observation updates
        the stored factor by geometric mean — one outlier moves the factor,
        repeated agreement locks it in — and is clamped to
        ``[1/1024, 1024]``.
        """
        with self._lock:
            state = self._state(shape)
            for index, (estimated, actual) in block_feedback.items():
                if estimated is None:
                    continue
                observed = max(actual, 1) / max(estimated, 1)
                observed = min(max(observed, _MIN_FACTOR), _MAX_FACTOR)
                previous = state.corrections.get(index)
                state.corrections[index] = (
                    observed if previous is None else (previous * observed) ** 0.5
                )
                self.stats.observations += 1

    def corrected(self, shape: str, block_index: int, raw: int | None) -> int | None:
        """Apply the learned correction of one block to a raw estimate."""
        if raw is None:
            return None
        with self._lock:
            state = self._shapes.get(shape)
            factor = None if state is None else state.corrections.get(block_index)
        if factor is None:
            return raw
        return max(0, round(raw * factor))

    def stats_dict(self) -> dict[str, int]:
        """Snapshot of the activity counters (thread-safe)."""
        with self._lock:
            return self.stats.as_dict()


# --------------------------------------------------------------------------- #
# tree rewriting
# --------------------------------------------------------------------------- #
def _plan_node(node: PlanNode, estimator: CardinalityEstimator) -> tuple[PlanNode, bool]:
    """Recursively rewrite one subtree; returns (new node, any-reorder flag)."""
    if isinstance(node, JoinNode):
        operands = _flatten_joins(node)
        planned: list[PlanNode] = []
        changed = False
        for operand in operands:
            rewritten, touched = _plan_node(operand, estimator)
            planned.append(rewritten)
            changed = changed or touched
        ordered = _order_operands(planned, estimator)
        if [id(op) for op in ordered] != [id(op) for op in planned]:
            changed = True
        return _rebuild_joins(ordered, estimator), changed
    if isinstance(node, LeftJoinNode):
        node.left, left_changed = _plan_node(node.left, estimator)
        node.right, right_changed = _plan_node(node.right, estimator)
        node.build = _leftjoin_build(node, estimator)
        return node, left_changed or right_changed
    if isinstance(node, UnionNode):
        changed = False
        branches: list[PlanNode] = []
        for branch in node.branches:
            rewritten, touched = _plan_node(branch, estimator)
            branches.append(rewritten)
            changed = changed or touched
        node.branches = branches
        return node, changed
    if isinstance(node, FilterNode):
        node.child, changed = _plan_node(node.child, estimator)
        return node, changed
    return node, False


def _flatten_joins(node: PlanNode) -> list[PlanNode]:
    """The operands of a maximal join spine (join is associative/commutative)."""
    if isinstance(node, JoinNode):
        return _flatten_joins(node.left) + _flatten_joins(node.right)
    return [node]


def _order_operands(
    operands: list[PlanNode], estimator: CardinalityEstimator
) -> list[PlanNode]:
    """Cheapest-first greedy order under a connectivity preference.

    The smallest estimated operand seeds the spine; each further pick is
    the cheapest operand sharing a certainly-bound variable with what is
    already joined (falling back to the global cheapest only when nothing
    connects — the pattern genuinely contains a cross product).  Without
    estimates the syntactic order is kept unchanged.
    """
    if len(operands) < 2:
        return operands
    costs = [estimator.rows(operand) for operand in operands]
    if any(cost is None for cost in costs):
        return operands
    remaining = sorted(range(len(operands)), key=lambda i: (costs[i], i))
    order = [remaining.pop(0)]
    bound = set(certain_variables(operands[order[0]]))
    while remaining:
        connected = [i for i in remaining if bound & certain_variables(operands[i])]
        pool = connected or remaining
        chosen = min(pool, key=lambda i: (costs[i], i))
        remaining.remove(chosen)
        order.append(chosen)
        bound |= certain_variables(operands[chosen])
    return [operands[i] for i in order]


def _rebuild_joins(operands: list[PlanNode], estimator: CardinalityEstimator) -> PlanNode:
    """Left-deep join spine over ``operands``, each join's build side picked."""
    root = operands[0]
    for operand in operands[1:]:
        join = JoinNode(root, operand)
        join.build = _join_build(join, estimator)
        root = join
    return root


def _join_build(node: JoinNode, estimator: CardinalityEstimator) -> str:
    """Materialise and bucket the smaller estimated side (ties keep left)."""
    left = estimator.rows(node.left)
    right = estimator.rows(node.right)
    if left is None or right is None:
        return "left"
    return "left" if left <= right else "right"


def _leftjoin_build(node: LeftJoinNode, estimator: CardinalityEstimator) -> str:
    """Bucket the optional side unless the required side is strictly smaller.

    ``right`` (the optional side) is the historical default and keeps the
    required side streaming; switching to ``left`` pays for tracking
    matched rows, so it only wins when the required side is smaller.
    """
    left = estimator.rows(node.left)
    right = estimator.rows(node.right)
    if left is None or right is None:
        return "right"
    return "left" if left < right else "right"
