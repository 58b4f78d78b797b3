"""The repro.api facade and its versioned report schema.

The field sets pinned here are a compatibility contract: SCHEMA_VERSION
must be bumped whenever one of these assertions has to change for a
*removal or rename* (additions are fine — consumers tolerate new keys,
so extend the pinned set instead).
"""

import json

import pytest

import repro
from repro import api
from repro.cli import main

GOOD_C = "int f(void) { int pos a = 2; int pos b = a * a; return b; }"

QUAL_A = """
value qualifier tagged(int Expr E)
  case E of
    decl int Const C:
      C, where C > 0
  invariant value(E) > 0
"""

# Same name, different rule: composition order must decide the winner.
QUAL_B = QUAL_A.replace("C > 0", "C > 10")


@pytest.fixture
def c_file(tmp_path):
    path = tmp_path / "good.c"
    path.write_text(GOOD_C)
    return str(path)


@pytest.fixture
def qual_file(tmp_path):
    path = tmp_path / "defs.qual"
    path.write_text(QUAL_A)
    return str(path)


class TestFacade:
    def test_exported_from_package_root(self):
        assert repro.SessionConfig is api.SessionConfig
        assert repro.Workspace is api.Workspace
        assert repro.SCHEMA_VERSION == 1
        assert repro.ProveRequest is api.ProveRequest

    def test_check_clean_file(self, c_file):
        with repro.Workspace(incremental=False) as ws:
            report = ws.check(api.CheckRequest(files=(c_file,)))
        assert report.exit_code == 0
        assert report.counts() == {"OK": 1}
        (unit,) = report.results
        assert unit.unit == c_file

    def test_prove_uncached_and_cached(self, qual_file, tmp_path):
        request = api.ProveRequest(
            files=(qual_file,), cache_dir=str(tmp_path / "cache")
        )

        def prove():
            with repro.Workspace(incremental=False) as ws:
                return ws.prove(request).to_dict()

        cold = prove()
        warm = prove()
        assert cold["cache"]["hits"] == 0 and cold["cache"]["stores"] > 0
        assert warm["cache"]["hits"] == cold["cache"]["stores"]
        assert warm["cache"]["misses"] == 0

        def verdicts(payload):
            return [
                (o["rule"], o["verdict"], o["proved"], o["reason"])
                for u in payload["units"]
                for q in u["detail"]["qualifiers"]
                for o in q["obligations"]
            ]

        assert verdicts(cold) == verdicts(warm)
        assert all(
            o["cached"]
            for u in warm["units"]
            for q in u["detail"]["qualifiers"]
            for o in q["obligations"]
        )

    def test_prove_cache_disabled(self, qual_file):
        with repro.Workspace(incremental=False) as ws:
            report = ws.prove(api.ProveRequest(files=(qual_file,), cache=False))
        assert report.to_dict()["cache"] == {"enabled": False}

    def test_infer_unknown_qualifier_raises(self, c_file):
        with pytest.raises(api.UnknownQualifierError):
            with repro.Workspace(incremental=False) as ws:
                ws.infer(api.InferRequest(files=(c_file,), qualifier="no_such"))

    def test_session_is_immutable(self):
        with pytest.raises(Exception):
            repro.SessionConfig().no_std = True


class TestQualifierComposition:
    def test_later_quals_files_override_earlier(self, tmp_path):
        a = tmp_path / "a.qual"
        b = tmp_path / "b.qual"
        a.write_text(QUAL_A)
        b.write_text(QUAL_B)
        quals = repro.SessionConfig(quals=(str(a), str(b))).qualifier_set()
        assert "C > 10" in quals.get("tagged").source
        # ... and the mirror order restores the first definition.
        quals = repro.SessionConfig(quals=(str(b), str(a))).qualifier_set()
        assert "C > 0" in quals.get("tagged").source

    def test_cli_quals_flag_is_repeatable(self, tmp_path, capsys):
        a = tmp_path / "a.qual"
        b = tmp_path / "b.qual"
        a.write_text(QUAL_A)
        b.write_text(QUAL_B)
        src = tmp_path / "t.c"
        # Legal under a.qual's rule (2 > 0) but not b.qual's (2 > 10):
        # with both loaded, b wins and the annotation must warn.
        src.write_text("int f(void) { int tagged x = 2; return x; }")
        assert main(["check", str(src), "--quals", str(a)]) == 0
        capsys.readouterr()
        code = main(
            ["check", str(src), "--quals", str(a), "--quals", str(b)]
        )
        assert code == 1
        assert "tagged" in capsys.readouterr().out


class TestSchemaContract:
    CHECK_TOP = {
        "schema_version", "command", "version", "units", "counts", "elapsed",
        "exit_code",
    }
    UNIT = {"unit", "verdict", "elapsed", "diagnostics", "error", "detail"}

    def test_check_payload_fields(self, c_file):
        with repro.Workspace(incremental=False) as ws:
            payload = ws.check(api.CheckRequest(files=(c_file,))).to_dict()
        assert set(payload) == self.CHECK_TOP | {"dataflow"}
        assert payload["schema_version"] == api.SCHEMA_VERSION == 1
        assert payload["command"] == "check"
        (unit,) = payload["units"]
        assert set(unit) == self.UNIT
        # Per-function solver stats ride along in the unit detail and
        # are aggregated at the top level.
        per_function = unit["detail"]["dataflow"]["functions"]
        for stats in per_function.values():
            assert {"blocks", "edges", "iterations", "ms"} == set(stats)
        assert payload["dataflow"]["functions"] == len(per_function)
        json.dumps(payload)  # JSON-ready, no dataclasses leaking through

    def test_prove_payload_fields(self, qual_file, tmp_path):
        with repro.Workspace(incremental=False) as ws:
            payload = ws.prove(
                api.ProveRequest(
                    files=(qual_file,), cache_dir=str(tmp_path / "cache")
                )
            ).to_dict()
        assert set(payload) == self.CHECK_TOP | {"cache", "sessions"}
        assert payload["command"] == "prove"
        assert {
            "enabled", "dir", "entries",
            "hits", "misses", "stores", "evictions", "stale", "errors",
        } <= set(payload["cache"])
        # Additive since schema v1: incremental prover-session counters
        # (absent entirely under --no-session).
        assert payload["sessions"]["enabled"] is True
        assert {"proofs", "session_reuse"} <= set(payload["sessions"])
        obligation = payload["units"][0]["detail"]["qualifiers"][0][
            "obligations"
        ][0]
        assert {
            "rule", "verdict", "proved", "reason", "elapsed", "cached",
        } == set(obligation)
        json.dumps(payload)

    def test_cli_json_is_exactly_the_facade_payload(self, c_file, capsys):
        code = main(["check", c_file, "--format", "json"])
        printed = json.loads(capsys.readouterr().out)
        assert code == 0
        assert printed["schema_version"] == 1
        assert set(printed) == self.CHECK_TOP | {"dataflow"}

    def test_cache_stats_payload_fields(self, tmp_path, capsys):
        where = str(tmp_path / "cache")
        assert main(["cache", "stats", "--cache-dir", where, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "schema_version", "command", "version", "path", "disk", "entries",
            "size_bytes", "lifetime",
        }
        assert payload["command"] == "cache-stats"
        assert payload["entries"] == 0
        # Asking for stats must not create the cache directory.
        assert not (tmp_path / "cache").exists()

    def test_cache_clear_cli(self, qual_file, tmp_path, capsys):
        where = str(tmp_path / "cache")
        main(["prove", qual_file, "--cache-dir", where])
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", where]) == 0
        assert "removed" in capsys.readouterr().out
        assert api.cache_stats(cache_dir=where)["entries"] == 0
