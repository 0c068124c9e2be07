"""Star decomposition and shard-local star matching (the scatter stage).

The query multigraph of one connected component is covered by **star
subqueries**: one per *root* vertex, spanning the root, its variable
neighbours and the root's own attribute/IRI constraints.  Roots are

* every vertex of structural degree ≥ 2 (the core vertices of Section 3),
* every vertex carrying an IRI constraint — the constraint is an edge to a
  constant, and only the star rooted at the variable side can check that
  edge shard-locally (the constant may be a halo vertex whose neighbourhood
  is partial everywhere else),
* degree-0 vertices (attribute-only patterns), and
* one endpoint of any edge that would otherwise touch no root.

Every query vertex is then either a root (matched by its own star, all of
its constraints enforced there) or a **private leaf**: a degree-1,
constraint-light satellite appearing in exactly one star, whose candidate
set stays factored — the satellite solution-set representation of Lemma 2 —
until final embedding expansion.

A star rooted at query vertex ``u`` is matched on a shard by anchoring
``u`` to *owned* data vertices only.  Ownership is a partition of the data
vertices and owned vertices carry their complete neighbourhood (see
:mod:`.partition`), so every global star match is found by exactly one
shard and no shard reports a partial or duplicate match: the gather stage
can take the plain union of per-shard results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..amber.engine import AmberEngine
from ..multigraph.query_graph import QueryMultigraph
from ..telemetry.accounting import current_profile
from ..timing import Deadline

__all__ = [
    "ScatterPlan",
    "StarQuery",
    "StarMatch",
    "plan_scatter",
    "plan_stars",
    "match_star",
    "should_push",
]


@dataclass(frozen=True)
class StarQuery:
    """One star subquery: a root, its join-relevant leaves and its private leaves."""

    root: int
    #: Variables this star binds to concrete vertices: the root followed by
    #: every leaf that other stars also see (the hash-join attributes).
    shared: tuple[int, ...]
    #: Degree-1 satellites only this star sees; their candidate sets stay
    #: factored until final expansion.
    private: tuple[int, ...]

    @property
    def leaves(self) -> tuple[int, ...]:
        """All variable neighbours of the root."""
        return self.shared[1:] + self.private


@dataclass(frozen=True)
class StarMatch:
    """One shard-local solution set of a star subquery.

    ``anchor`` is the data vertex matched to the star's root; ``leaves``
    holds one candidate set per ``star.leaves`` entry, in order.  Leaf sets
    stay factored (the solution-set representation of Lemma 2) — the gather
    stage intersects them during the join and only expands the surviving
    satellite sets into embeddings at the very end.
    """

    anchor: int
    leaves: tuple[frozenset[int], ...]


def plan_stars(qgraph: QueryMultigraph, component: set[int]) -> list[StarQuery]:
    """Cover one connected component with star subqueries.

    The plan is deterministic (sorted traversals only) so every shard and
    worker process derives the identical decomposition from the query text.
    """
    vertices = sorted(component)
    degree = {u: qgraph.degree(u) for u in vertices}
    roots = {
        u
        for u in vertices
        if degree[u] >= 2 or degree[u] == 0 or qgraph.vertices[u].iri_constraints
    }
    # Edge coverage: an edge between two degree-1 vertices (an isolated
    # multi-edge pair) would otherwise have no star; promote one endpoint.
    for u in vertices:
        for v in sorted(qgraph.graph.neighbors(u)):
            if u < v and u not in roots and v not in roots:
                roots.add(u)

    stars = []
    for u in sorted(roots):
        neighbors = sorted(qgraph.graph.neighbors(u))
        private = tuple(v for v in neighbors if v not in roots and degree[v] == 1)
        shared = (u,) + tuple(v for v in neighbors if v in roots or degree[v] != 1)
        stars.append(StarQuery(root=u, shared=shared, private=private))
    return stars


@dataclass(frozen=True)
class ScatterPlan:
    """A cost-ordered star cover of one component plus pushdown decisions.

    ``estimates`` maps each star root to its estimated cluster-wide anchor
    count (empty when the engine has no estimator); ``pushdown`` records,
    per root, whether that star's scatter receives the semi-join frontier.
    """

    stars: tuple[StarQuery, ...]
    estimates: dict[int, int] = field(default_factory=dict)
    pushdown: dict[int, bool] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready summary for ``EXPLAIN`` (star order with decisions)."""
        return {
            "stars": [
                {
                    "root": star.root,
                    "leaves": len(star.leaves),
                    "estimated_anchors": self.estimates.get(star.root),
                    "pushdown": self.pushdown.get(star.root, False),
                }
                for star in self.stars
            ]
        }


def plan_scatter(
    qgraph: QueryMultigraph,
    component: set[int],
    root_estimate: Callable[[int], int] | None = None,
) -> ScatterPlan:
    """Order the star cover by estimated cost and decide frontier pushdown.

    ``root_estimate`` maps a root vertex to its estimated cluster-wide
    anchor count; without it the historical heuristic order is kept and
    every later star receives the frontier (the pre-planner behaviour).

    The first star never receives a frontier — there is none yet.  A later
    star receives it only when it is expected to restrict: the cheapest
    already-scattered star (a bound on how narrow the joined frontier can
    be) is no larger than the star's own anchor estimate.  Skipping the
    pushdown is always correct — the gather join enforces consistency
    regardless — so the decision trades the per-anchor intersection cost
    against the anchors it would prune.
    """
    stars = plan_stars(qgraph, component)
    estimates: dict[int, int] = {}
    if root_estimate is not None:
        estimates = {star.root: root_estimate(star.root) for star in stars}
    ordered = _order_stars(qgraph, stars, estimates or None)
    pushdown: dict[int, bool] = {}
    seen: set[int] = set()
    expected: int | None = None
    for position, star in enumerate(ordered):
        scope = set(star.shared) | set(star.private)
        own = estimates.get(star.root)
        if position == 0 or not (scope & seen):
            pushdown[star.root] = False
        elif star.root in seen or own is None or expected is None:
            pushdown[star.root] = True
        else:
            pushdown[star.root] = expected <= own
        seen |= scope
        if own is not None:
            expected = own if expected is None else min(expected, own)
    return ScatterPlan(stars=tuple(ordered), estimates=estimates, pushdown=pushdown)


def should_push(
    star: StarQuery,
    frontier: dict[int, frozenset[int]],
    own_estimate: int | None,
) -> bool:
    """Decide at gather time whether one star's scatter receives the frontier.

    Unlike :func:`plan_scatter`'s static expectation, the frontier's actual
    sizes are known here, so the decision corrects estimation error wave by
    wave.  Pushing is worthwhile when the frontier can restrict the star:
    always when it pins the root (whole anchor loops are skipped), and for
    a leaf-only overlap when the tightest overlapping frontier is no larger
    than the star's own estimated anchors (otherwise the per-anchor
    intersections cost more than they prune).  A star disjoint from the
    frontier gains nothing — skip.  Skipping is always correct: the gather
    join enforces consistency regardless.
    """
    if not frontier:
        return False
    scope = set(star.shared) | set(star.private)
    overlap = [vertex for vertex in scope if vertex in frontier]
    if not overlap:
        return False
    if star.root in frontier:
        return True
    if own_estimate is None:
        return True
    return min(len(frontier[vertex]) for vertex in overlap) <= own_estimate


def _order_stars(
    qgraph: QueryMultigraph,
    stars: list[StarQuery],
    estimates: dict[int, int] | None = None,
) -> list[StarQuery]:
    """Cheapest-first star order under a connectivity constraint.

    With estimates, each star ranks by its expected anchor relation size
    (ties broken by the constrained-first heuristic); without, the
    heuristic alone ranks (constrained roots first, then structure-rich
    ones — the r1/r2 spirit of Sec. 5.3).  Each following star must touch
    an already-bound vertex when possible, so its scatter inherits a
    restricting frontier — and among those, a star whose *root* is
    already bound is preferred outright: its scatter verifies the owned
    frontier members directly (work that partitions across shards)
    instead of masking every shard's whole synopsis matrix.
    """

    def rank(star: StarQuery):
        vertex = qgraph.vertices[star.root]
        constrained = bool(vertex.attributes) or bool(vertex.iri_constraints)
        edge_types = sum(len(types) for types in qgraph.multi_edge_signature(star.root))
        heuristic = (0 if constrained else 1, -edge_types, star.root)
        if estimates is None:
            return heuristic
        return (estimates[star.root], *heuristic)

    remaining = sorted(stars, key=rank)
    order = [remaining.pop(0)]
    bound = set(order[0].shared) | set(order[0].private)
    while remaining:
        connected = [s for s in remaining if bound & (set(s.shared) | set(s.private))]
        pool = connected or remaining
        rooted = [s for s in pool if s.root in bound]
        chosen = min(rooted or pool, key=rank)
        remaining.remove(chosen)
        order.append(chosen)
        bound.update(chosen.shared)
        bound.update(chosen.private)
    return order


def match_star(
    engine: AmberEngine,
    qgraph: QueryMultigraph,
    star: StarQuery,
    owner: dict[int, int],
    shard: int,
    deadline: Deadline,
    restrict: dict[int, frozenset[int]] | None = None,
) -> list[StarMatch]:
    """Match one star subquery on one shard, anchored to owned vertices only.

    Root candidates come from the shard's signature index refined by the
    root's attribute/IRI constraints (Algorithm 1); leaves are resolved
    through the root's OTIL tries refined by their attribute sets only —
    leaf IRI constraints belong to the leaf's own star, where they are
    shard-local, and applying them here against a partial halo
    neighbourhood could wrongly prune.

    ``restrict`` carries the gather stage's semi-join frontier: for any
    query vertex it maps, only the listed data vertices can still appear in
    a complete solution, so anchors and leaf candidates outside it are
    dropped eagerly instead of surviving until the join.
    """
    restrict = restrict or {}
    profile = current_profile()
    # The shard engine's backend-built matcher: candidates come through the
    # MatchBackend protocol, so a vectorized shard serves its star anchors
    # and leaf sets from columnar posting arrays.
    matcher = engine.matcher
    root_restrict = restrict.get(star.root)
    if root_restrict is not None:
        # A root frontier is a known superset of every viable anchor, so
        # the signature check runs over its owned members only — each
        # member is owned by exactly one shard, so the work partitions
        # across the cluster instead of a whole-matrix mask per shard.
        owned = {c for c in root_restrict if owner.get(c) == shard}
        candidates = matcher.initial_candidates(qgraph, star.root, within=owned)
    else:
        candidates = matcher.initial_candidates(qgraph, star.root)
    generated = len(candidates)
    refined = matcher.vertex_candidates(qgraph.vertices[star.root])
    if refined is not None:
        candidates &= refined
    anchored = sorted(c for c in candidates if owner.get(c) == shard)
    if profile is not None:
        profile.count("candidates.generated", generated)
        profile.count("candidates.pruned", generated - len(candidates))
        profile.count("cluster.star_anchors", len(anchored))
    if not anchored:
        return []

    leaf_attributes = {
        leaf: (
            engine.indexes.attributes.candidates(qgraph.vertices[leaf].attributes)
            if qgraph.vertices[leaf].attributes
            else None
        )
        for leaf in star.leaves
    }
    if profile is not None:
        probes = sum(
            len(qgraph.vertices[leaf].attributes) for leaf in star.leaves
            if qgraph.vertices[leaf].attributes
        )
        if probes:
            profile.count("index.attribute_probes", probes)

    matches: list[StarMatch] = []
    for anchor in anchored:
        deadline.check()
        leaf_sets: list[frozenset[int]] = []
        viable = True
        for leaf in star.leaves:
            found = matcher.neighbor_candidates(qgraph, star.root, anchor, leaf)
            attribute_candidates = leaf_attributes[leaf]
            if attribute_candidates is not None:
                if profile is not None:
                    profile.count("intersections")
                found &= attribute_candidates
            leaf_restrict = restrict.get(leaf)
            if leaf_restrict is not None:
                found &= leaf_restrict
            if not found:
                viable = False
                break
            leaf_sets.append(frozenset(found))
        if viable:
            matches.append(StarMatch(anchor=anchor, leaves=tuple(leaf_sets)))
    if profile is not None:
        profile.count("cluster.star_matches", len(matches))
    return matches
