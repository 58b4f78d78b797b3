"""The repro.api facade and its versioned report schema.

The field sets pinned here are a compatibility contract: SCHEMA_VERSION
must be bumped whenever one of these assertions has to change for a
*removal or rename* (additions are fine — consumers tolerate new keys,
so extend the pinned set instead).
"""

import importlib
import json
import os
import subprocess
import sys

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


#: Package roots that resolve their exports on first access (PEP 562).
LAZY_PACKAGES = (
    "repro", "repro.prover", "repro.semantics", "repro.difftest",
    "repro.cache", "repro.cfront", "repro.cil", "repro.core.checker",
    "repro.core.soundness", "repro.dataflow", "repro.harness", "repro.serve",
)


def _export_origins(package):
    """``{name: (defining module, attribute)}`` from a lazy root's
    ``_EXPORTS`` table (``"attr as alias"`` renames)."""
    origins = {}
    for module, names in package._EXPORTS.items():
        for spec in names:
            attr, _, alias = spec.partition(" as ")
            origins[alias or attr] = (module, attr)
    return origins


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestLazyExports:
    def test_exports_are_their_defining_modules_objects(self, name):
        package = importlib.import_module(name)
        origins = _export_origins(package)
        assert set(origins) <= set(package.__all__)
        for export in package.__all__:
            value = getattr(package, export)
            if export in origins:
                module, attr = origins[export]
                assert value is getattr(importlib.import_module(module), attr)
            else:  # defined or imported by the root itself
                assert export in vars(package), export

    def test_dir_covers_all(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_every_name(self, name):
        namespace = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        for export in package.__all__:
            assert namespace[export] is getattr(package, export)

    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=repr(name)):
            package.no_such_export


def test_lazy_roots_in_a_fresh_interpreter():
    """From a bare ``import repro``: subpackages resolve as attributes,
    the one-call helpers work, and every root's star import binds."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = (
        "import repro\n"
        "assert repro.cfront.parser.parse_c is repro.parse_c\n"
        "report = repro.check_c_source("
        "'int f(void) { int pos a = 2; return a; }')\n"
        "assert report.ok, report\n"
        "value, output = repro.run_c_source("
        "'int main(void) { printf(\"%d\", 3); return 4; }')\n"
        "assert (value, output) == (4, ['3']), (value, output)\n"
        f"for name in {LAZY_PACKAGES!r}:\n"
        "    exec(f'from {name} import *', {})\n"
        "import repro.cfront\n"
        "assert callable(repro.cfront.preprocess)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, cwd=root, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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
        assert set(payload) == self.CHECK_TOP | {
            "cache", "sessions", "scheduler",
        }
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


def _without_timings(payload):
    """A report payload minus its wall-clock fields."""
    if isinstance(payload, dict):
        return {
            key: _without_timings(value)
            for key, value in payload.items()
            if key not in ("elapsed", "ms")
        }
    if isinstance(payload, list):
        return [_without_timings(value) for value in payload]
    return payload


class TestJobsWithoutKeepGoing:
    """``--jobs`` must not change a report: after the first failing unit
    every later one is SKIPPED, and units stream in input order."""

    @pytest.mark.parametrize("command", ["check", "infer"])
    def test_jobs_do_not_change_the_report_or_stream(self, tmp_path, command):
        broken = tmp_path / "a.c"
        broken.write_text("int f( { }\n")
        warned = tmp_path / "b.c"
        warned.write_text("void f() { int pos x = -1; }\n")
        files = (str(broken), str(warned))
        runs = []
        for jobs in (1, 2):
            seen = []
            if command == "check":
                request = api.CheckRequest(files=files, jobs=jobs)
            else:
                request = api.InferRequest(
                    files=files, jobs=jobs, qualifier="pos"
                )
            with repro.Workspace(incremental=False) as ws:
                report = getattr(ws, command)(request, on_result=seen.append)
            runs.append((
                _without_timings(report.to_dict()),
                [_without_timings(r.to_dict()) for r in seen],
            ))
        assert runs[0] == runs[1]
        payload, streamed = runs[0]
        assert payload["counts"] == {"ERROR": 1, "SKIPPED": 1}
        assert [unit["unit"] for unit in streamed] == [str(broken)]
