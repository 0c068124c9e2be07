"""Unit tests of the query record's span tree (the per-query trace)."""

from __future__ import annotations

import threading

import pytest

from repro.errors import QueryTimeout
from repro.telemetry import (
    QueryRecord,
    current_record,
    iter_spans,
    span,
    start_record,
    timed_iter,
)

pytestmark = pytest.mark.metrics


class TestSpanNesting:
    def test_children_attach_to_enclosing_span(self):
        with start_record() as record:
            with span("parse"):
                pass
            with span("match"):
                with span("scatter"):
                    pass
        root = record.root
        assert [child.name for child in root.children] == ["parse", "match"]
        assert [child.name for child in root.children[1].children] == ["scatter"]
        assert root.seconds >= root.children[1].children[0].seconds >= 0.0

    def test_annotations_land_on_innermost_span(self):
        with start_record() as record:
            with span("match", vertex="v0") as sp:
                sp.annotate(rows=7)
                record.annotate(note="inner")
        (match,) = record.root.children
        assert match.attributes == {"vertex": "v0", "rows": 7, "note": "inner"}

    def test_attach_adds_preformed_timing(self):
        with start_record() as record:
            record.attach("shard", 0.25, shard=3)
        (shard,) = record.root.children
        assert shard.seconds == 0.25
        assert shard.attributes == {"shard": 3}

    def test_iter_spans_walks_depth_first(self):
        with start_record() as record:
            with span("a"):
                with span("b"):
                    pass
            with span("c"):
                pass
        names = [node.name for node in iter_spans(record.root)]
        assert names == ["query", "a", "b", "c"]

    def test_as_dict_round_trip(self):
        with start_record() as record:
            with span("stage", kind="bgp"):
                pass
        payload = record.root.as_dict()
        assert payload["name"] == "query"
        (stage,) = payload["children"]
        assert stage["name"] == "stage"
        assert stage["kind"] == "bgp"  # attributes are flattened into the dict
        assert stage["seconds"] >= 0.0


class TestNoOpWhenInactive:
    def test_span_outside_record_is_noop(self):
        assert current_record() is None
        with span("orphan") as sp:
            sp.annotate(ignored=True)
        assert current_record() is None

    def test_timed_iter_outside_record_passes_through(self):
        source = iter([1, 2, 3])
        assert list(timed_iter("orphan", source, node_id=4)) == [1, 2, 3]

    def test_record_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with start_record():
                assert current_record() is not None
                raise RuntimeError("boom")
        assert current_record() is None


class TestThreadIsolation:
    def test_records_do_not_leak_across_threads(self):
        barrier = threading.Barrier(2)
        seen: dict[str, list[str]] = {}

        def worker(label: str) -> None:
            with start_record(QueryRecord(f"query-{label}")) as record:
                barrier.wait()  # both records active simultaneously
                with span(f"stage-{label}"):
                    barrier.wait()
            seen[label] = [node.name for node in iter_spans(record.root)]

        threads = [threading.Thread(target=worker, args=(label,)) for label in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen["a"] == ["query-a", "stage-a"]
        assert seen["b"] == ["query-b", "stage-b"]

    def test_worker_thread_sees_no_record(self):
        observed: list[object] = []

        def probe() -> None:
            observed.append(current_record())

        with start_record():
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert observed == [None]


class TestTimeoutLocation:
    def test_innermost_open_span_is_named(self):
        with start_record() as record:
            with pytest.raises(QueryTimeout):
                with span("engine.match"):
                    with span("amber.candidates"):
                        raise QueryTimeout("budget spent")
        assert record.timed_out_in == "amber.candidates"
        (match,) = record.root.children
        assert [child.name for child in match.children] == ["amber.candidates"]

    def test_operator_stream_is_named(self):
        def rows():
            yield 1
            raise QueryTimeout("budget spent")

        with start_record() as record:
            with pytest.raises(QueryTimeout):
                with span("engine.match"):
                    list(timed_iter("algebra.join", rows(), node_id=2))
        assert record.timed_out_in == "algebra.join"
        (match,) = record.root.children
        (join,) = match.children
        assert join.attributes["rows"] == 1
        assert record.operator_rows() == {2: 1}

    def test_other_errors_name_nothing(self):
        with start_record() as record:
            with pytest.raises(ValueError):
                with span("engine.match"):
                    raise ValueError("not a timeout")
        assert record.timed_out_in is None


class TestTimedIter:
    def test_exhaustion_records_span_with_row_count(self):
        with start_record() as record:
            rows = list(timed_iter("expand", iter(["r1", "r2", "r3"]), op="expand"))
        assert rows == ["r1", "r2", "r3"]
        (expand,) = record.root.children
        assert expand.name == "expand"
        assert expand.attributes["rows"] == 3
        assert expand.attributes["op"] == "expand"

    def test_early_abandonment_still_records(self):
        with start_record() as record:
            iterator = timed_iter("expand", iter(range(100)), node_id=5)
            assert next(iterator) == 0
            assert next(iterator) == 1
            iterator.close()
        (expand,) = record.root.children
        assert expand.attributes["rows"] == 2
        assert record.counters == {"op.5.rows": 2}

    def test_generator_time_charged_inside_record(self):
        # The wrapped generator is only pulled lazily: wrapping outside a
        # record and consuming inside one must not crash, and vice versa.
        iterator = timed_iter("late", iter([1]))
        with start_record():
            assert list(iterator) == [1]
