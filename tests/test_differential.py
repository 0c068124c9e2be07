"""Generative differential testing of the FILTER/UNION/OPTIONAL fragment.

Hypothesis generates random multigraphs and random queries in the new
fragment; every engine must return the *identical solution multiset* as
the **naive baseline evaluator** defined in this file — a direct,
independent implementation of the SPARQL 1.1 algebra over the raw triple
store that shares *no evaluation code* with the engines (the production
stack routes every engine through :mod:`repro.sparql.eval` and
:mod:`repro.sparql.expressions`, so a shared-code oracle would be blind
to combinator bugs).  Compared engines:

* :class:`~repro.baselines.NestedLoopEngine` — BGP blocks solved naively,
  algebra through the shared evaluator;
* :class:`~repro.AmberEngine` — star decomposition over the multigraph;
* :class:`~repro.cluster.ShardedEngine` with 2 and 3 shards —
  scatter–gather per BGP block.

The generator stays inside the fragment all engines share (the paper's
data model): IRI objects for variable-object patterns (literals are
vertex attributes, used only as constant objects) and no self-loop
triples (Definition 1 excludes them from the data multigraph).

The update test interleaves SPARQL UPDATE batches between query rounds:
engines apply ``INSERT DATA``/``DELETE DATA`` incrementally while the
reference's store is mutated directly, and agreement must hold again on
the mutated graph.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AmberEngine, IRI, Literal, Triple
from repro.baselines import NestedLoopEngine
from repro.cluster import ShardedEngine
from repro.multigraph import build_data_multigraph
from repro.rdf.dataset import TripleStore
from repro.sparql.algebra import (
    Filter,
    GroupGraphPattern,
    OptionalPattern,
    TriplePattern,
    UnionPattern,
    Variable,
)
from repro.sparql.bindings import Binding
from repro.sparql.expressions import And, Bound, Comparison, Not, Or
from repro.sparql.parser import parse_sparql

pytestmark = pytest.mark.differential

E = "http://e/"
PREFIX = f"PREFIX ex: <{E}> "

#: Graph alphabet: n6/n7 never occur in generated data, so constants drawn
#: from the full range also exercise dead-constant (unsatisfiable) paths.
#: The alphabet is deliberately tiny — a dense random graph over few
#: entities/predicates keeps most generated queries non-empty, which is
#: what makes the differential comparison meaningful.
_GRAPH_ENTITIES = [f"n{i}" for i in range(6)]
_ALL_ENTITIES = [f"n{i}" for i in range(8)]
_EDGE_PREDICATES = [f"p{i}" for i in range(3)]
_TAG_VALUES = ["a", "b", "c"]
_VARS = ["a", "b", "c", "d"]


def _iri(name: str) -> IRI:
    return IRI(E + name)


_edge_triples = st.builds(
    lambda s, p, o: Triple(_iri(s), _iri(p), _iri(o)),
    st.sampled_from(_GRAPH_ENTITIES),
    st.sampled_from(_EDGE_PREDICATES),
    st.sampled_from(_GRAPH_ENTITIES),
).filter(lambda t: t.subject != t.object)

_tag_triples = st.builds(
    lambda s, v: Triple(_iri(s), _iri("tag"), Literal(v)),
    st.sampled_from(_GRAPH_ENTITIES),
    st.sampled_from(_TAG_VALUES),
)

_graphs = st.builds(
    lambda edges, tags: list(dict.fromkeys(edges + tags)),
    st.lists(_edge_triples, min_size=10, max_size=26),
    st.lists(_tag_triples, max_size=6),
)


# --------------------------------------------------------------------------- #
# query generation
# --------------------------------------------------------------------------- #
@st.composite
def _triple_pattern(draw, fresh_ok: bool = True) -> tuple[str, list[str]]:
    """One pattern text plus the variables it binds."""
    variables: list[str] = []

    def term(pool: list[str]) -> str:
        # Bias towards variables: constant-heavy patterns are almost always
        # empty on a random graph, which would starve the comparison.
        if draw(st.integers(0, 3)) > 0:
            var = draw(st.sampled_from(_VARS))
            variables.append(var)
            return f"?{var}"
        return "ex:" + draw(st.sampled_from(pool))

    subject = term(_ALL_ENTITIES)
    if draw(st.integers(0, 4)) == 0:
        # Attribute pattern: the literal is always a constant object.
        value = draw(st.sampled_from(_TAG_VALUES))
        return f'{subject} ex:tag "{value}" .', variables
    predicate = "ex:" + draw(st.sampled_from(_EDGE_PREDICATES))
    obj = term(_ALL_ENTITIES)
    return f"{subject} {predicate} {obj} .", variables


@st.composite
def _filter_text(draw, bound_vars: list[str]) -> str:
    """A FILTER over (mostly) variables the pattern binds."""
    pool = bound_vars if bound_vars else _VARS

    def atom() -> str:
        kind = draw(st.integers(0, 3))
        var = draw(st.sampled_from(pool))
        if kind == 0:
            return f"BOUND(?{var})"
        if kind == 1:
            return f"!BOUND(?{draw(st.sampled_from(_VARS))})"
        op = draw(st.sampled_from(["=", "!="]))
        if kind == 2:
            other = draw(st.sampled_from(_ALL_ENTITIES))
            return f"?{var} {op} ex:{other}"
        other_var = draw(st.sampled_from(pool))
        return f"?{var} {op} ?{other_var}"

    expression = atom()
    for _ in range(draw(st.integers(0, 2))):
        connective = draw(st.sampled_from(["&&", "||"]))
        expression = f"{expression} {connective} {atom()}"
    return f"FILTER({expression})"


@st.composite
def _group_text(draw, min_patterns: int = 1, max_patterns: int = 2) -> tuple[str, list[str]]:
    parts: list[str] = []
    variables: list[str] = []
    for _ in range(draw(st.integers(min_patterns, max_patterns))):
        text, bound = draw(_triple_pattern())
        parts.append(text)
        variables.extend(bound)
    return " ".join(parts), variables


@st.composite
def _query_text(draw) -> str:
    """One SELECT query in the FILTER/UNION/OPTIONAL fragment."""
    shape = draw(st.integers(0, 6))
    body, variables = draw(_group_text())
    if shape == 1:  # BGP + FILTER
        body = f"{body} {draw(_filter_text(variables))}"
    elif shape == 2:  # UNION of two groups
        other, other_vars = draw(_group_text(max_patterns=2))
        body = f"{{ {body} }} UNION {{ {other} }}"
        variables.extend(other_vars)
    elif shape == 3:  # BGP + OPTIONAL, maybe filtered over optional vars too
        optional, optional_vars = draw(_group_text(max_patterns=2))
        body = f"{body} OPTIONAL {{ {optional} }}"
        variables.extend(optional_vars)
        if draw(st.booleans()):
            # The filter may reference optional-only variables: unbound in
            # some rows, so error-is-false and BOUND() semantics matter.
            body = f"{body} {draw(_filter_text(variables))}"
    elif shape == 4:  # OPTIONAL with inner filter, then group filter
        optional, optional_vars = draw(_group_text(max_patterns=2))
        inner = draw(_filter_text(optional_vars))
        body = f"{body} OPTIONAL {{ {optional} {inner} }}"
        variables.extend(optional_vars)
        body = f"{body} {draw(_filter_text(variables))}"
    elif shape == 5:  # UNION then OPTIONAL
        other, other_vars = draw(_group_text(max_patterns=2))
        optional, optional_vars = draw(_group_text(max_patterns=1))
        body = f"{{ {body} }} UNION {{ {other} }} OPTIONAL {{ {optional} }}"
        variables.extend(other_vars + optional_vars)
    elif shape == 6:  # duplicate-branch UNION: guaranteed solution doubling
        body = f"{{ {body} }} UNION {{ {body} }}"
    distinct = "DISTINCT " if draw(st.booleans()) else ""
    return f"{PREFIX}SELECT {distinct}* WHERE {{ {body} }}"


_query_lists = st.lists(_query_text(), min_size=5, max_size=5)


# --------------------------------------------------------------------------- #
# the naive baseline evaluator (independent SPARQL 1.1 algebra)
# --------------------------------------------------------------------------- #
class _ExprError(Exception):
    """The oracle's stand-in for the SPARQL expression "error" value."""


def _ref_expr(expr, row: dict) -> object:
    """Independent expression evaluation (the fragment the generator emits)."""
    if isinstance(expr, Variable):
        if expr not in row:
            raise _ExprError
        return row[expr]
    if isinstance(expr, (IRI, Literal)):
        return expr
    if isinstance(expr, Bound):
        return expr.variable in row
    if isinstance(expr, Not):
        return not _ref_ebv(_ref_expr(expr.operand, row))
    if isinstance(expr, And):
        try:
            left = _ref_ebv(_ref_expr(expr.left, row))
        except _ExprError:
            if not _ref_ebv(_ref_expr(expr.right, row)):
                return False
            raise
        return left and _ref_ebv(_ref_expr(expr.right, row))
    if isinstance(expr, Or):
        try:
            left = _ref_ebv(_ref_expr(expr.left, row))
        except _ExprError:
            if _ref_ebv(_ref_expr(expr.right, row)):
                return True
            raise
        return left or _ref_ebv(_ref_expr(expr.right, row))
    if isinstance(expr, Comparison):
        left, right = _ref_expr(expr.left, row), _ref_expr(expr.right, row)
        if expr.op == "=":
            return left == right
        if expr.op == "!=":
            return left != right
        raise _ExprError  # order comparisons are not generated
    raise _ExprError


def _ref_ebv(value) -> bool:
    if isinstance(value, bool):
        return value
    raise _ExprError


def _ref_filter(expr, row: dict) -> bool:
    try:
        return _ref_ebv(_ref_expr(expr, row))
    except _ExprError:
        return False


def _ref_pattern(store: TripleStore, pattern: TriplePattern, row: dict) -> list[dict]:
    """Extend one solution by every store triple matching the pattern."""
    subject = row.get(pattern.subject, pattern.subject)
    obj = row.get(pattern.object, pattern.object)
    lookup_s = None if isinstance(subject, Variable) else subject
    lookup_o = None if isinstance(obj, Variable) else obj
    extended = []
    for triple in store.triples(lookup_s, pattern.predicate, lookup_o):
        new_row = dict(row)
        if isinstance(subject, Variable):
            new_row[subject] = triple.subject
        if isinstance(obj, Variable):
            # Covers ?x p ?x too: the subject assignment above already
            # bound the variable, so a mismatching object conflicts here.
            if obj in new_row and new_row[obj] != triple.object:
                continue
            new_row[obj] = triple.object
        extended.append(new_row)
    return extended


def _ref_compatible(left: dict, right: dict) -> dict | None:
    merged = dict(left)
    for key, value in right.items():
        if key in merged and merged[key] != value:
            return None
        merged[key] = value
    return merged


def _ref_group(store: TripleStore, group: GroupGraphPattern) -> list[dict]:
    """SPARQL 18.2.2 group semantics, implemented directly."""
    solutions: list[dict] = [{}]
    filters = []
    for element in group.elements:
        if isinstance(element, TriplePattern):
            solutions = [
                extended
                for row in solutions
                for extended in _ref_pattern(store, element, row)
            ]
        elif isinstance(element, Filter):
            filters.append(element.expression)
        elif isinstance(element, GroupGraphPattern):
            other = _ref_group(store, element)
            solutions = [
                merged
                for row in solutions
                for candidate in other
                if (merged := _ref_compatible(row, candidate)) is not None
            ]
        elif isinstance(element, UnionPattern):
            other = [
                candidate
                for branch in element.branches
                for candidate in _ref_group(store, branch)
            ]
            solutions = [
                merged
                for row in solutions
                for candidate in other
                if (merged := _ref_compatible(row, candidate)) is not None
            ]
        elif isinstance(element, OptionalPattern):
            inner_filters = [
                part.expression for part in element.pattern.elements if isinstance(part, Filter)
            ]
            stripped = GroupGraphPattern(
                tuple(p for p in element.pattern.elements if not isinstance(p, Filter))
            )
            other = _ref_group(store, stripped)
            joined = []
            for row in solutions:
                matched = False
                for candidate in other:
                    merged = _ref_compatible(row, candidate)
                    if merged is None:
                        continue
                    if all(_ref_filter(f, merged) for f in inner_filters):
                        joined.append(merged)
                        matched = True
                if not matched:
                    joined.append(row)
            solutions = joined
        else:  # pragma: no cover - no other element kinds are generated
            raise TypeError(type(element).__name__)
    return [row for row in solutions if all(_ref_filter(f, row) for f in filters)]


def _reference_query(store: TripleStore, query_text: str) -> Counter:
    """The oracle answer: a multiset of projected Binding rows."""
    parsed = parse_sparql(query_text)
    where = parsed.where
    if where is None:
        where = GroupGraphPattern(tuple(parsed.patterns))
    rows = _ref_group(store, where)
    answer_vars = parsed.answer_variables()
    projected = [Binding({v: row[v] for v in answer_vars if v in row}) for row in rows]
    if parsed.distinct:
        seen: set[Binding] = set()
        unique = []
        for row in projected:
            if row not in seen:
                seen.add(row)
                unique.append(row)
        projected = unique
    return Counter(projected)


# --------------------------------------------------------------------------- #
# the differential check
# --------------------------------------------------------------------------- #
#: Every multigraph engine runs once per match backend: the vectorized
#: columnar core must be row-for-row indistinguishable from the scalar
#: recursion, on static graphs and across interleaved updates.
BACKENDS = ["scalar", "vectorized"]


def _build_engines(store: TripleStore, backend: str = "scalar"):
    data = build_data_multigraph(iter(store))
    return [
        NestedLoopEngine(store),
        AmberEngine.from_store(store, backend=backend),
        ShardedEngine.build(data, 2, executor="serial", backend=backend),
        ShardedEngine.build(data, 3, executor="serial", backend=backend),
    ]


def _assert_agreement(store: TripleStore, engines, query: str) -> None:
    reference = _reference_query(store, query)
    for engine in engines:
        result = engine.query(query, timeout_seconds=20.0)
        assert result.as_multiset() == reference, (
            f"{engine.name} disagrees with the reference evaluator on:\n{query}\n"
            f"reference ({sum(reference.values())} rows): {sorted(reference.items(), key=repr)}\n"
            f"{engine.name} ({len(result)} rows):\n{result.to_table(max_rows=None)}"
        )


@pytest.mark.parametrize("backend", BACKENDS)
@given(triples=_graphs, queries=_query_lists)
@settings(max_examples=40, deadline=None)
def test_differential_static(backend, triples, queries):
    """Random graph, random fragment queries: all engines agree (multisets)."""
    store = TripleStore(triples)
    engines = _build_engines(store, backend)
    for query in queries:
        _assert_agreement(store, engines, query)


_update_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), _edge_triples),
    min_size=1,
    max_size=8,
)


@pytest.mark.parametrize("backend", BACKENDS)
@given(triples=_graphs, queries=st.lists(_query_text(), min_size=2, max_size=2), ops=_update_ops)
@settings(max_examples=25, deadline=None)
def test_differential_with_interleaved_updates(backend, triples, queries, ops):
    """Agreement must survive incremental INSERT DATA / DELETE DATA batches."""
    store = TripleStore(triples)
    engines = _build_engines(store, backend)
    for query in queries:
        _assert_agreement(store, engines, query)

    inserts = [triple for kind, triple in ops if kind == "insert"]
    deletes = [triple for kind, triple in ops if kind == "delete"]
    operations = []
    if inserts:
        operations.append("INSERT DATA { " + " ".join(t.n3() for t in inserts) + " }")
    if deletes:
        operations.append("DELETE DATA { " + " ".join(t.n3() for t in deletes) + " }")
    update_text = " ; ".join(operations)
    for engine in engines:
        if hasattr(engine, "apply_update"):
            engine.apply_update(update_text)
    # The nested-loop baseline reads the shared store live; mutating it
    # directly is its update path (and the reference evaluator's).
    for triple in inserts:
        store.add(triple)
    for triple in deletes:
        store.remove(triple)

    for query in queries:
        _assert_agreement(store, engines, query)


class TestPlainBgpPlansUnchanged:
    """The conjunctive fragment must plan exactly as before the algebra."""

    QUERY = f"{PREFIX}SELECT ?a ?b WHERE {{ ?a ex:p0 ?b . ?b ex:p1 ?c . }}"

    @pytest.fixture()
    def engine(self):
        from repro.server.cache import LRUCache

        store = TripleStore(
            [
                Triple(_iri("n0"), _iri("p0"), _iri("n1")),
                Triple(_iri("n1"), _iri("p1"), _iri("n2")),
            ]
        )
        engine = AmberEngine.from_store(store)
        engine.plan_cache = LRUCache(4)
        return engine

    def test_plan_is_a_plain_query_multigraph(self, engine):
        from repro.multigraph.query_graph import QueryMultigraph

        parsed, plan = engine.prepare(self.QUERY)
        assert parsed.where is None
        assert isinstance(plan, QueryMultigraph)
        assert str(parsed) == str(engine.prepare(self.QUERY, use_cache=False)[0])

    def test_plan_cache_hit_returns_identical_plan(self, engine):
        first = engine.prepare(self.QUERY)
        assert engine.prepare(self.QUERY) is first
        assert len(engine.query(self.QUERY)) == 1
