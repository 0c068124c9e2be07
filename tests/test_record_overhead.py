"""Deterministic overhead gate for the per-query record.

A wall-clock budget on a shared host reads its own noise: the same
configuration has measured ±13% from run to run, against a 5% budget.  This
gate counts instead, per query: every record lookup (a read of the record
module's thread local) and every counter write (``QueryRecord.count`` /
``QueryRecord.add``).  The matchers look the record up once per match call
and write their tallies once, so the count follows the query's shape — its
spans and plan operators — and not the number of candidates the data
offers.  The same query texts run on two sizes of the DBpedia-like
generator on both match backends: the counts must be equal across sizes
and stay within a fixed multiple of (spans + operators).

The timing side — interleaved A/B rounds against a service whose record
factory is a no-op — is reported, not gated, by
``benchmarks/test_telemetry_overhead.py``.
"""

from __future__ import annotations

import pytest

from repro import AmberEngine
from repro.datasets import DbpediaGenerator
from repro.rdf.dataset import TripleStore
from repro.server import EngineService, ServiceConfig
from repro.telemetry import QueryRecord, iter_spans
from repro.telemetry import record as record_module

pytestmark = pytest.mark.metrics

O = "http://repro.example.org/ontology/"
QUERIES = {
    "bgp": (
        f"SELECT ?p ?c ?r ?k WHERE {{ ?p <{O}person/birthPlace> ?c . "
        f"?p <{O}person/residence> ?r . ?c <{O}place/country> ?k . }}"
    ),
    "optional": (
        f"SELECT ?p ?c ?k ?r WHERE {{ ?p <{O}person/birthPlace> ?c . "
        f"?c <{O}place/country> ?k . OPTIONAL {{ ?p <{O}person/residence> ?r . }} }}"
    ),
    # The rdf:type constant constrains the satellite ?k: Algorithm 1
    # (ProcessVertex) runs for it at every candidate of its core vertex.
    "typed": (
        f"SELECT ?p ?c ?k WHERE {{ ?p <{O}person/birthPlace> ?c . "
        f"?p <{O}person/residence> ?r . ?c <{O}place/country> ?k . ?k a <{O}Place> . }}"
    ),
}
#: Entities per domain of the small and the large dataset.  The matcher's
#: core order breaks ties by set iteration, so its work varies with the hash
#: seed; eight times the data still means at least twice the candidates.
SIZES = (30, 240)
#: Allowed lookups + writes per (span + operator) of the query's record.
PER_SPAN = 4


class _CountingLocal:
    """Stands in for the record module's thread local, counting lookups."""

    def __init__(self) -> None:
        self.lookups = 0
        self.last: QueryRecord | None = None
        self._record: QueryRecord | None = None

    @property
    def record(self) -> QueryRecord | None:
        self.lookups += 1
        return self._record

    @record.setter
    def record(self, value: QueryRecord | None) -> None:
        if value is not None:
            self.last = value
        self._record = value


@pytest.fixture(scope="module")
def services():
    built = {}
    for size in SIZES:
        store = TripleStore(DbpediaGenerator(entities_per_domain=size, seed=3).generate())
        for backend in ("scalar", "vectorized"):
            engine = AmberEngine.from_store(store, backend=backend)
            built[size, backend] = EngineService(engine, ServiceConfig())
    yield built
    for service in built.values():
        service.close()


def measure(service: EngineService, text: str, monkeypatch) -> dict:
    """One warm execution's lookups, writes and record shape."""
    service.execute(text)  # plan-cache warm-up, outside the count
    local = _CountingLocal()
    writes = 0
    count, add = QueryRecord.count, QueryRecord.add

    def counted_count(self, *args, **kwargs):
        nonlocal writes
        writes += 1
        return count(self, *args, **kwargs)

    def counted_add(self, *args, **kwargs):
        nonlocal writes
        writes += 1
        return add(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(record_module, "_LOCAL", local)
        patch.setattr(QueryRecord, "count", counted_count)
        patch.setattr(QueryRecord, "add", counted_add)
        service.execute(text)
    record = local.last
    assert record is not None, "the service opened no record"
    return {
        "touches": local.lookups + writes,
        "spans": sum(1 for _ in iter_spans(record.root)) - 1,
        "operators": len(record.operator_rows()),
        "candidates": record.counters.get("candidates.generated", 0),
    }


@pytest.mark.parametrize("backend", ("scalar", "vectorized"))
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_record_touches_follow_query_shape_not_data(services, backend, name, monkeypatch):
    small, large = (
        measure(services[size, backend], QUERIES[name], monkeypatch) for size in SIZES
    )
    assert large["candidates"] >= 2 * small["candidates"], "the sizes must differ in work"
    assert (large["spans"], large["operators"]) == (small["spans"], small["operators"])
    assert large["touches"] == small["touches"], (
        f"{backend}/{name}: record lookups + counter writes grew with the data "
        f"({small['touches']} -> {large['touches']})"
    )
    shape = large["spans"] + large["operators"]
    assert large["touches"] <= PER_SPAN * shape, (
        f"{backend}/{name}: {large['touches']} record touches for {shape} spans + operators"
    )
