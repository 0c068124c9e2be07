"""The server CLI and its storage path: save -> load -> serve -> query."""

from __future__ import annotations

import json
import threading
import urllib.parse
import urllib.request

import pytest

from repro.server.cli import build_arg_parser, build_service
from repro.server.http import serve
from repro.storage import StorageError, load_engine_auto, save_engine

QUERY = "PREFIX y: <http://dbpedia.org/ontology/> SELECT ?p WHERE { ?p y:wasBornIn ?c . }"


class TestLoadEngineAuto:
    def test_loads_persisted_amber_json(self, paper_engine, tmp_path):
        path = tmp_path / "paper.amber.json"
        save_engine(paper_engine, path)
        loaded = load_engine_auto(path)
        assert loaded.query(QUERY).same_solutions(paper_engine.query(QUERY))
        assert loaded.build_report is not None

    def test_loads_turtle_and_ntriples(self, paper_turtle, paper_store, paper_engine, tmp_path):
        turtle_path = tmp_path / "paper.ttl"
        turtle_path.write_text(paper_turtle, encoding="utf-8")
        from_turtle = load_engine_auto(turtle_path)
        assert from_turtle.query(QUERY).same_solutions(paper_engine.query(QUERY))

        nt_path = tmp_path / "paper.nt"
        nt_path.write_text(
            "\n".join(triple.n3() for triple in iter(paper_store)) + "\n",
            encoding="utf-8",
        )
        from_nt = load_engine_auto(nt_path)
        assert from_nt.query(QUERY).same_solutions(paper_engine.query(QUERY))

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "paper.xyz"
        path.write_text("", encoding="utf-8")
        with pytest.raises(StorageError):
            load_engine_auto(path)


class TestCliService:
    def test_parser_defaults(self):
        args = build_arg_parser().parse_args(["data.nt"])
        assert args.dataset == "data.nt"
        assert args.port == 8080
        assert args.plan_cache == 256
        assert args.result_cache == 0
        assert args.metrics == "on"

    def test_record_switches_are_gone(self, paper_engine, tmp_path):
        """--metrics is the one telemetry switch; the record is always on."""
        for flag in ("--profile", "--tracing=on"):
            with pytest.raises(SystemExit):
                build_arg_parser().parse_args(["data.nt", flag])
        path = tmp_path / "paper.amber.json"
        save_engine(paper_engine, path)
        args = build_arg_parser().parse_args([str(path), "--metrics", "off", "--quiet"])
        service = build_service(args)
        try:
            assert service.stats()["telemetry"]["metrics_enabled"] is False
            assert service.explain(QUERY)["stages"]
        finally:
            service.close()

    def test_round_trip_save_load_serve_query(self, paper_engine, tmp_path):
        """The acceptance path: persist, reload via the CLI, serve, compare."""
        path = tmp_path / "paper.amber.json"
        save_engine(paper_engine, path)

        args = build_arg_parser().parse_args(
            [str(path), "--port", "0", "--result-cache", "16", "--quiet"]
        )
        service = build_service(args)
        assert service.config.result_cache_size == 16

        server = serve(service, host=args.host, port=args.port, workers=2, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = server.url + "/sparql?" + urllib.parse.urlencode({"query": QUERY})
            with urllib.request.urlopen(url, timeout=10) as response:
                document = json.load(response)
            served = {b["p"]["value"] for b in document["results"]["bindings"]}
            in_memory = {
                row.get_name("p").value for row in paper_engine.query(QUERY)
            }
            assert served == in_memory
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_missing_dataset_exits_nonzero(self, tmp_path, capsys):
        from repro.server.cli import main

        code = main([str(tmp_path / "absent.amber.json"), "--quiet"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
