"""Seeded inputs for the SPARQL endpoint benchmark.

Everything a run sends is derived from one seed: a DBpedia-like dataset
(``DbpediaGenerator``) written as N-Triples, read requests drawn from
``WorkloadGenerator`` and INSERT DATA / DELETE DATA writer pairs.  Each read
carries its expected answer, computed here in-process by an ``AmberEngine``
built from the same N-Triples file the server loads.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.amber.engine import AmberEngine
from repro.datasets import ONTOLOGY, RESOURCE, DbpediaGenerator, WorkloadGenerator
from repro.errors import QueryTimeout
from repro.rdf.dataset import TripleStore
from repro.rdf.ntriples import parse_ntriples_file, write_ntriples_file
from repro.rdf.terms import IRI, Literal, Triple
from repro.sparql.algebra import Variable

#: The server's default ``--max-rows``; every expected answer stays below it.
ROW_CAP = 10_000
#: Candidate queries are screened by a reference matcher (``ReferenceIndex``)
#: that gives up after this many steps.  A step budget, not a clock, so host
#: speed and the speed of the code under test cannot change what a seed draws.
SCREEN_STEPS = 20_000
#: A candidate that passes the reference screen is then counted by the engine.
#: A few such queries send the engine into an unbounded search (a known
#: matcher defect); they are dropped at this timeout and counted in
#: ``Inputs.engine_timeouts``.  Kept queries count in well under a tenth of
#: it; ``Inputs.slowest_kept_ms`` records the margin of every run.
ENGINE_SCREEN_TIMEOUT_S = 1.0
#: Safety net for computing a kept query's expected answer with the engine.
#: Reaching it is an error, not a skip.
ANSWER_TIMEOUT_S = 30.0
LABEL = ONTOLOGY.term("label")
#: Point answers have 1..POINT_MAX_ROWS rows, analytic ones 1..ANALYTIC_MAX_ROWS.
POINT_MAX_ROWS = 100
ANALYTIC_MAX_ROWS = 300
#: Analytic bases fill a fixed quota (``Scale.analytic_quotas``) in each
#: bucket of reference-matcher steps, a deterministic measure of matching
#: work, so the cost mix is alike across seeds.
ANALYTIC_BUCKETS = ((1, 50), (51, 60), (61, 200), (201, 500), (501, 2000))
#: Triples per writer batch (every INSERT/DELETE DATA answers this count).
BATCH_TRIPLES = 10

POINT_SHAPES = [("star", 5), ("complex", 5), ("star", 10), ("complex", 10)]
ANALYTIC_SHAPES = [("complex", 20), ("complex", 30), ("complex", 40), ("complex", 50), ("star", 50)]


@dataclass(frozen=True)
class Scale:
    entities_per_domain: int
    point_queries: int  # distinct point texts; above the 256-entry plan cache
    analytic_quotas: tuple[int, ...]  # base BGPs per step bucket
    reader_queries: int  # read_write reader set; fits the plan cache
    writer_batches: int
    setup_launches: int


SCALES = {
    "full": Scale(
        entities_per_domain=300,
        point_queries=320,
        analytic_quotas=(8, 8, 20, 8, 8),
        reader_queries=64,
        writer_batches=24,
        setup_launches=5,
    ),
    "smoke": Scale(
        entities_per_domain=60,
        point_queries=24,
        analytic_quotas=(2, 1, 2, 1, 1),
        reader_queries=12,
        writer_batches=4,
        setup_launches=2,
    ),
}


@dataclass
class Read:
    """One SELECT request and the answer it must get."""

    text: str
    rows: int
    digest: str | None = None  # exact multiset digest
    subset: Counter | None = field(default=None, repr=False)  # LIMIT: rows drawn from this


@dataclass
class Inputs:
    dataset: Path
    engine: AmberEngine  # built from ``dataset``; expected answers come from it
    triples: int
    reads: list[Read]
    writes: list[tuple[str, str]]  # (INSERT DATA, DELETE DATA) pairs
    engine_timeouts: int = 0  # candidates dropped at ENGINE_SCREEN_TIMEOUT_S
    slowest_kept_ms: float = 0.0  # slowest engine count among kept queries

    def request_digest(self) -> str:
        blob = json.dumps(
            [[r.text, r.rows, r.digest] for r in self.reads] + [list(w) for w in self.writes]
        )
        return hashlib.md5(blob.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# answer canonicalisation (shared with the HTTP checker)
# --------------------------------------------------------------------------- #
def canonical_row(binding: dict) -> str:
    """A SPARQL-JSON binding as a stable string (order-free, hash-free)."""
    return json.dumps(sorted((var, sorted(cell.items())) for var, cell in binding.items()))


def multiset_digest(rows: list[str]) -> str:
    return hashlib.md5("\n".join(sorted(rows)).encode("utf-8")).hexdigest()


def answer_rows(engine: AmberEngine, text: str) -> list[str]:
    result = engine.execute(
        text, mode="select", max_solutions=ROW_CAP, timeout_seconds=ANSWER_TIMEOUT_S
    ).result
    return [canonical_row(b) for b in result.to_sparql_json_dict()["results"]["bindings"]]


def exact_read(engine: AmberEngine, text: str) -> Read:
    rows = answer_rows(engine, text)
    return Read(text, len(rows), digest=multiset_digest(rows))


# --------------------------------------------------------------------------- #
# generation
# --------------------------------------------------------------------------- #
def build(workload: str, seed: int, scale: Scale, workdir: Path) -> Inputs:
    triples = DbpediaGenerator(entities_per_domain=scale.entities_per_domain, seed=seed).generate()
    dataset = workdir / "dataset.nt"
    write_ntriples_file(triples, dataset)
    # Same file, same parse, same build as ``python -m repro.server``.
    engine = AmberEngine.from_triples(parse_ntriples_file(dataset))
    generator = WorkloadGenerator(TripleStore(triples), seed=seed)
    screen = EngineScreen(engine)
    reference = ReferenceIndex(triples)
    rng = random.Random(seed)
    if workload == "point":
        reads = _screened(screen, reference, generator, scale.point_queries)
    elif workload in ("analytic", "sharded"):
        reads = _analytic(screen, reference, generator, scale, rng)
    elif workload == "read_write":
        reads = _screened(screen, reference, generator, scale.reader_queries)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "read_write":
        batches = _invisible_batches(engine, triples, reads, scale, rng)
    else:
        batches = [_writer_batch(triples, n, rng) for n in range(scale.writer_batches)]
    writes = [_update_pair(batch) for batch in batches]
    return Inputs(
        dataset, engine, len(triples), reads, writes, screen.timeouts, screen.slowest_ms
    )


class EngineScreen:
    """Counts a candidate with the engine; None when it needs the timeout."""

    def __init__(self, engine: AmberEngine):
        self.engine = engine
        self.timeouts = 0
        self.slowest_ms = 0.0

    def rows(self, text: str) -> list[str] | None:
        begin = time.perf_counter()
        try:
            self.engine.execute(text, mode="count", timeout_seconds=ENGINE_SCREEN_TIMEOUT_S)
        except QueryTimeout:
            self.timeouts += 1
            return None
        self.slowest_ms = max(self.slowest_ms, (time.perf_counter() - begin) * 1000)
        return answer_rows(self.engine, text)


class ReferenceIndex:
    """A plain backtracking BGP matcher, used only to screen candidate queries.

    It counts solutions up to a cap and gives up after a budget of steps (one
    step per data triple tried), so whether a candidate is kept depends only
    on the seed, never on timing.  It shares no matching code with the engine.
    """

    def __init__(self, triples: list[Triple]):
        self.last_steps = 0  # steps the latest ``count`` took
        self.by_subject: dict[tuple, list] = {}
        self.by_object: dict[tuple, list] = {}
        self.by_predicate: dict = {}
        for t in dict.fromkeys(triples):  # the data is a set of triples
            self.by_subject.setdefault((t.predicate, t.subject), []).append(t.object)
            self.by_object.setdefault((t.predicate, t.object), []).append(t.subject)
            self.by_predicate.setdefault(t.predicate, []).append((t.subject, t.object))

    def count(self, patterns, cap: int, budget: int = SCREEN_STEPS) -> int | None:
        """Solutions of ``patterns``, at most ``cap``; None when over budget."""
        steps = [budget]

        def options(pattern, binding) -> list:
            s = binding.get(pattern.subject, pattern.subject)
            o = binding.get(pattern.object, pattern.object)
            if isinstance(s, Variable):
                if isinstance(o, Variable):
                    return self.by_predicate.get(pattern.predicate, [])
                return [(sub, o) for sub in self.by_object.get((pattern.predicate, o), ())]
            objects = self.by_subject.get((pattern.predicate, s), ())
            if isinstance(o, Variable):
                return [(s, obj) for obj in objects]
            return [(s, o)] if o in objects else []

        def size(pattern, binding) -> int:
            s = binding.get(pattern.subject, pattern.subject)
            o = binding.get(pattern.object, pattern.object)
            if isinstance(s, Variable):
                if isinstance(o, Variable):
                    return len(self.by_predicate.get(pattern.predicate, ()))
                return len(self.by_object.get((pattern.predicate, o), ()))
            objects = self.by_subject.get((pattern.predicate, s), ())
            return len(objects) if isinstance(o, Variable) else int(o in objects)

        def search(remaining: list, binding: dict) -> int:
            if not remaining:
                return 1
            # Most constrained pattern first.
            pick = min(range(len(remaining)), key=lambda i: size(remaining[i], binding))
            pattern, rest = remaining[pick], remaining[:pick] + remaining[pick + 1 :]
            found = 0
            for s, o in options(pattern, binding):
                steps[0] -= 1
                if steps[0] < 0:
                    raise _OverBudget
                extended = dict(binding)
                if not (_bind(extended, pattern.subject, s) and _bind(extended, pattern.object, o)):
                    continue
                found += search(rest, extended)
                if found >= cap:
                    return cap
            return found

        try:
            return search(list(patterns), {})
        except _OverBudget:
            return None
        finally:
            self.last_steps = budget - steps[0]


class _OverBudget(Exception):
    pass


def _bind(binding: dict, term, value) -> bool:
    if not isinstance(term, Variable):
        return True
    bound = binding.setdefault(term, value)
    return bound == value


def _screened(screen: EngineScreen, reference: ReferenceIndex, generator, count: int) -> list[Read]:
    """``count`` distinct point queries with 1..POINT_MAX_ROWS rows each."""
    reads: list[Read] = []
    seen: set[str] = set()
    attempts = 0
    while len(reads) < count:
        attempts += 1
        if attempts > 20 * count:
            raise RuntimeError(f"only {len(reads)} of {count} queries passed screening")
        shape, size = POINT_SHAPES[attempts % len(POINT_SHAPES)]
        query = _draw(generator, shape, size).query
        text = str(query)
        if text in seen:
            continue
        seen.add(text)
        total = reference.count(query.patterns, POINT_MAX_ROWS + 1)
        if not 1 <= (total or 0) <= POINT_MAX_ROWS:
            continue
        rows = screen.rows(text)
        if rows is None:
            continue
        if len(rows) != total:
            raise RuntimeError(f"engine and reference disagree on the row count of {text!r}")
        reads.append(Read(text, len(rows), digest=multiset_digest(rows)))
    return reads


def _draw(generator: WorkloadGenerator, shape: str, size: int):
    return generator.star_query(size) if shape == "star" else generator.complex_query(size)


def _analytic(screen: EngineScreen, reference: ReferenceIndex, generator, scale: Scale, rng):
    """Base BGPs stratified by matching work, plus FILTER/OPTIONAL/UNION/LIMIT variants."""
    buckets: list[list] = [[] for _ in ANALYTIC_BUCKETS]
    need = sum(scale.analytic_quotas)
    seen: set[str] = set()
    attempts = 0

    def open_bucket(steps: int) -> list | None:
        for bucket, (low, high), quota in zip(buckets, ANALYTIC_BUCKETS, scale.analytic_quotas):
            if low <= steps <= high and len(bucket) < quota:
                return bucket
        return None

    while sum(len(b) for b in buckets) < need:
        attempts += 1
        if attempts > 40 * need:
            raise RuntimeError("analytic screening did not fill its step buckets")
        shape, size = ANALYTIC_SHAPES[attempts % len(ANALYTIC_SHAPES)]
        query = _draw(generator, shape, size).query
        text = str(query)
        if text in seen:
            continue
        seen.add(text)
        total = reference.count(query.patterns, ANALYTIC_MAX_ROWS + 1)
        bucket = open_bucket(reference.last_steps)
        if not 1 <= (total or 0) <= ANALYTIC_MAX_ROWS or bucket is None:
            continue
        rows = screen.rows(text)
        if rows is None:
            continue
        if len(rows) != total:
            raise RuntimeError(f"engine and reference disagree on the row count of {text!r}")
        bucket.append((query, Read(text, len(rows), digest=multiset_digest(rows)), rows))
    reads = [read for bucket in buckets for _, read, _ in bucket]
    # One variant per base.  Every bucket cycles the same kinds, so each kind
    # costs alike across seeds; a UNION joins a base with a small base, and
    # LIMIT 10 (the small-LIMIT path) is one variant in eight.
    kinds = ["filter", "optional", "union", "limit", "filter", "optional", "union", "filter"]
    small = buckets[0]
    for bucket in buckets:
        for index, (query, base, base_rows) in enumerate(bucket):
            kind = kinds[index % len(kinds)]
            body = " ".join(str(p) for p in query.patterns)
            variables = query.answer_variables()
            first = variables[0].name
            if kind == "limit":
                limited = f"{base.text}\nLIMIT 10"
                reads.append(Read(limited, min(10, base.rows), subset=Counter(base_rows)))
                continue
            if kind == "filter" and len(variables) >= 2:
                text = f"SELECT * WHERE {{ {body} FILTER(?{first} != ?{variables[1].name}) }}"
            elif kind == "union":
                partner = small[(index + 1 + rng.randrange(len(small) - 1)) % len(small)][0]
                other = " ".join(str(p) for p in partner.patterns)
                text = f"SELECT * WHERE {{ {{ {body} }} UNION {{ {other} }} }}"
            else:
                text = f"SELECT * WHERE {{ {body} OPTIONAL {{ ?{first} {LABEL.n3()} ?label }} }}"
            reads.append(exact_read(screen.engine, text))
    rng.shuffle(reads)
    return reads


def _writer_batch(triples: list[Triple], batch: int, rng: random.Random) -> set[Triple]:
    """Triples around a fresh subject: edges to existing entities (touching
    their in-neighbourhood postings and synopses) plus a label literal."""
    subject = RESOURCE.term(f"PerfbenchWriter{batch}")
    chosen = {Triple(subject, LABEL, Literal(f"perfbench writer {batch}"))}
    while len(chosen) < BATCH_TRIPLES:
        model = rng.choice(triples)
        if isinstance(model.object, IRI) and model.predicate != LABEL:
            chosen.add(Triple(subject, model.predicate, model.object))
    return chosen


def _update_pair(batch: set[Triple]) -> tuple[str, str]:
    data = " ".join(sorted(t.n3() for t in batch))
    return f"INSERT DATA {{ {data} }}", f"DELETE DATA {{ {data} }}"


def _invisible_batches(engine, triples, reads: list[Read], scale: Scale, rng) -> list[set[Triple]]:
    """Writer batches that change no reader's answer, whichever are applied.

    Candidate batches are inserted one by one and kept only if every read
    that mentions one of the batch's predicates still gets its expected
    answer; a read that mentions none of them cannot match the batch.
    Reads are plain BGPs, so answers only grow with the data: unchanged with
    every kept batch inserted means unchanged under any subset of them.
    """
    before = engine.statistics()["triples"]
    kept: list[set[Triple]] = []
    for _ in range(40 * scale.writer_batches):
        if len(kept) == scale.writer_batches:
            break
        batch = _writer_batch(triples, len(kept), rng)
        if engine.insert_triples(batch) != BATCH_TRIPLES:
            raise RuntimeError("writer batch did not insert all of its triples")
        predicates = {t.predicate.n3() for t in batch}
        exposed = [read for read in reads if any(p in read.text for p in predicates)]
        if all(multiset_digest(answer_rows(engine, r.text)) == r.digest for r in exposed):
            kept.append(batch)
        elif engine.delete_triples(batch) != BATCH_TRIPLES:
            raise RuntimeError("writer batch did not delete all of its triples")
    if len(kept) < scale.writer_batches:
        raise RuntimeError("too few writer batches leave the reader answers unchanged")
    for batch in kept:
        engine.delete_triples(batch)
    if engine.statistics()["triples"] != before:
        raise RuntimeError("writer batches did not restore the store")
    return kept
