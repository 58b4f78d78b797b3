"""The ``repro serve`` daemon: protocol, concurrency, incremental
re-checking, malformed-request survival, graceful shutdown, and
golden equivalence with one-shot runs (see docs/serve.md)."""

from __future__ import annotations

import asyncio
import copy
import json
import os
import socket as socket_module
import subprocess
import sys
import threading
import time

import pytest

from repro import api, obs
from repro.serve import connect, protocol
from repro.serve.client import ServeError
from repro.serve.server import ServeServer

THREE_FUNCS = """\
int pos f(int pos x) { return x + 1; }
int g(int y) { return y; }
int h(int w) { return w * 2; }
"""


@pytest.fixture()
def daemon(tmp_path):
    """An in-process daemon on a fresh socket (thread + event loop)."""
    sock = str(tmp_path / "serve.sock")
    server = ServeServer(sock)

    def run():
        asyncio.run(server.run())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert server.ready.wait(10.0), "daemon never bound its socket"
    yield sock, server
    if not server._shutting_down:
        try:
            with connect(sock) as client:
                client.shutdown()
        except OSError:
            pass
    thread.join(timeout=10)
    assert not thread.is_alive(), "daemon did not stop"


def write_c(tmp_path, name="prog.c", text=THREE_FUNCS):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def check_params(path, **extra):
    return {"files": [path], **extra}


# ------------------------------------------------------------ round trips


def test_check_roundtrip_schema_v1(daemon, tmp_path):
    sock, _server = daemon
    path = write_c(tmp_path)
    with connect(sock) as client:
        units = []
        final = client.request(
            "check", check_params(path), on_unit=units.append
        )
    report = final["report"]
    assert report["schema_version"] == api.SCHEMA_VERSION
    assert report["command"] == "check"
    assert report["exit_code"] == 1  # the pos-annotated unit warns
    assert [u["unit"] for u in report["units"]] == [path]
    # the streamed unit record is the same dict that lands in the report
    assert len(units) == 1
    assert units[0]["verdict"] == report["units"][0]["verdict"]


def test_incremental_recheck_only_changed_function(daemon, tmp_path):
    sock, server = daemon
    path = write_c(tmp_path)
    obs.enable()
    marker = obs.mark()
    try:
        with connect(sock) as client:
            first = client.request("check", check_params(path))["report"]
            assert first["incremental"]["rechecked"] == 3
            assert first["incremental"]["replayed"] == 0

            # untouched file: the whole unit replays, parse and all
            second = client.request("check", check_params(path))["report"]
            assert second["incremental"]["rechecked"] == 0
            assert second["incremental"]["replayed"] == 3
            assert second["incremental"]["units_replayed"] == 1

            # edit one function: only it re-checks
            edited = THREE_FUNCS.replace("w * 2", "w * 3")
            (tmp_path / "prog.c").write_text(edited)
            third = client.request("check", check_params(path))["report"]
            assert third["incremental"]["rechecked"] == 1
            assert third["incremental"]["replayed"] == 2
            # verdicts identical to a cold one-shot run of the edit
            with api.Workspace(incremental=False) as ws:
                cold = ws.check(api.CheckRequest(files=(path,)))
            assert [u["verdict"] for u in third["units"]] == [
                r.verdict for r in cold.results
            ]
        hits = obs.since(marker)["counters"].get("serve.incremental_hits", 0)
        assert hits == 5  # 3 whole-unit replays + 2 per-function replays
    finally:
        obs.disable()
        obs.reset()
    # the always-on workspace counters tell the same story via status
    stats = server.status()["workspaces"][0]
    assert stats["counters"]["functions_replayed"] == 5
    assert stats["counters"]["functions_checked"] == 4


def test_qual_file_edit_invalidates_everything(daemon, tmp_path):
    sock, _server = daemon
    path = write_c(tmp_path)
    qual = tmp_path / "nn2.qual"
    qual.write_text(
        "value qualifier nn2(int Expr E)\n"
        "  case E of\n"
        "      decl int Const C:\n"
        "        C, where C >= 0\n"
        "  invariant value(E) >= 0\n"
    )
    params = check_params(path, quals=[str(qual)])
    with connect(sock) as client:
        first = client.request("check", params)["report"]
        assert first["incremental"]["rechecked"] == 3
        # editing the qualifier environment re-checks every function
        qual.write_text(
            "value qualifier nn2(int Expr E)\n"
            "  case E of\n"
            "      decl int Const C:\n"
            "        C, where C > 0\n"
            "  invariant value(E) >= 0\n"
        )
        second = client.request("check", params)["report"]
        assert second["incremental"]["rechecked"] == 3
        assert second["incremental"]["replayed"] == 0


def test_invalidate_drops_workspace_state(daemon, tmp_path):
    sock, _server = daemon
    path = write_c(tmp_path)
    with connect(sock) as client:
        client.request("check", check_params(path))
        dropped = client.request("invalidate")["result"]["dropped"]
        assert dropped == 1
        again = client.request("check", check_params(path))["report"]
        assert again["incremental"]["rechecked"] == 3


# ------------------------------------------------------------- concurrency


def test_concurrent_requests_one_daemon(daemon, tmp_path):
    sock, server = daemon
    paths = [
        write_c(tmp_path, f"unit{i}.c", THREE_FUNCS.replace("f(", f"f{i}("))
        for i in range(4)
    ]
    results: dict = {}

    def one(i: int, path: str) -> None:
        # odd requests use a distinct config -> a second workspace
        params = check_params(path, trust_constants=bool(i % 2))
        with connect(sock) as client:
            results[i] = client.request("check", params)["report"]

    threads = [
        threading.Thread(target=one, args=(i, p)) for i, p in enumerate(paths)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert sorted(results) == [0, 1, 2, 3]
    for i, report in results.items():
        assert report["exit_code"] == 1
        assert report["units"][0]["unit"] == paths[i]
    status = server.status()
    assert status["counters"]["requests"] >= 4
    assert len(status["workspaces"]) == 2  # one per distinct config


def test_interleaved_requests_one_connection(daemon, tmp_path):
    # two requests pipelined on one socket: both answered, ids kept apart
    sock, _server = daemon
    path = write_c(tmp_path)
    raw = socket_module.socket(socket_module.AF_UNIX)
    raw.connect(sock)
    reader = raw.makefile("r")
    try:
        for rid in ("a", "b"):
            raw.sendall(
                protocol.encode(
                    {"id": rid, "op": "check", "params": check_params(path)}
                )
            )
        done = {}
        while len(done) < 2:
            msg = json.loads(reader.readline())
            if msg.get("done"):
                done[msg["id"]] = msg["report"]["exit_code"]
        assert done == {"a": 1, "b": 1}
    finally:
        reader.close()
        raw.close()


# ------------------------------------------------------- malformed requests


def test_malformed_requests_daemon_survives(daemon, tmp_path):
    sock, server = daemon
    path = write_c(tmp_path)
    raw = socket_module.socket(socket_module.AF_UNIX)
    raw.connect(sock)
    reader = raw.makefile("r")

    def roundtrip(line: bytes) -> dict:
        raw.sendall(line)
        return json.loads(reader.readline())

    try:
        bad = roundtrip(b"this is not json\n")
        assert bad["id"] is None
        assert bad["error"]["code"] == protocol.E_BAD_JSON

        bad = roundtrip(b'[1, 2, 3]\n')
        assert bad["error"]["code"] == protocol.E_BAD_JSON

        bad = roundtrip(b'{"id": 1, "op": "frobnicate"}\n')
        assert bad["id"] == 1
        assert bad["error"]["code"] == protocol.E_UNKNOWN_OP

        bad = roundtrip(b'{"id": 2, "op": "check", "params": {"files": []}}\n')
        assert bad["error"]["code"] == protocol.E_BAD_REQUEST

        bad = roundtrip(
            b'{"id": 3, "op": "check", '
            b'"params": {"files": ["x.c"], "typo": true}}\n'
        )
        assert bad["error"]["code"] == protocol.E_BAD_REQUEST
        assert "typo" in bad["error"]["message"]

        bad = roundtrip(
            b'{"id": 4, "op": "infer", "params": {"files": ["x.c"]}}\n'
        )
        assert bad["error"]["code"] == protocol.E_BAD_REQUEST  # no qualifier
    finally:
        reader.close()
        raw.close()
    # the daemon shrugged it all off and still serves real work
    with connect(sock) as client:
        report = client.request("check", check_params(path))["report"]
    assert report["exit_code"] == 1
    assert server.counters["errors"] == 6


def test_missing_file_is_input_verdict_not_crash(daemon, tmp_path):
    sock, _server = daemon
    missing = str(tmp_path / "nope.c")
    with connect(sock) as client:
        report = client.request("check", check_params(missing))["report"]
    # same contract as in-process: a structured ERROR unit, exit 2
    assert report["units"][0]["verdict"] == "ERROR"
    assert report["exit_code"] == 2


# -------------------------------------------------------------- shutdown


def test_graceful_shutdown_waits_for_inflight(daemon, tmp_path):
    sock, _server = daemon
    # enough functions that the check is reliably still in flight when
    # the shutdown lands on the other connection
    body = "\n".join(
        f"int pos f{i}(int pos x) {{ int pos y = x + {i}; return y; }}"
        for i in range(120)
    )
    path = write_c(tmp_path, "big.c", body + "\n")
    outcome: dict = {}

    def inflight():
        with connect(sock) as client:
            outcome["report"] = client.request("check", check_params(path))[
                "report"
            ]

    worker = threading.Thread(target=inflight)
    worker.start()
    time.sleep(0.05)
    with connect(sock) as client:
        result = client.shutdown()
    assert result["stopping"] is True
    worker.join(timeout=30)
    assert not worker.is_alive()
    # the in-flight request completed with a full report
    assert outcome["report"]["units"][0]["unit"] == path
    # ... and the socket is gone once the daemon exits
    deadline = time.monotonic() + 10.0
    while os.path.exists(sock) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not os.path.exists(sock)


def test_requests_after_shutdown_are_refused(daemon, tmp_path):
    sock, server = daemon
    path = write_c(tmp_path)
    server._shutting_down = True  # as if a shutdown is draining
    with connect(sock) as client:
        with pytest.raises(ServeError) as exc:
            client.request("check", check_params(path))
        assert exc.value.code == protocol.E_SHUTTING_DOWN
    server._shutting_down = False  # let the fixture stop it for real


# ------------------------------------------------------ golden equivalence


def _strip_volatile(payload: dict) -> dict:
    """Drop timing and incremental bookkeeping, keeping verdicts,
    diagnostics, and every other schema field for exact comparison."""
    out = copy.deepcopy(payload)
    out.pop("elapsed", None)
    out.pop("incremental", None)
    for unit in out.get("units", ()):
        unit.pop("elapsed", None)
        unit.get("detail", {}).pop("incremental", None)
        # dataflow solve times vary run to run
        detail = unit.get("detail", {})
        if "dataflow" in detail:
            detail["dataflow"]["totals"].pop("ms", None)
            for stats in detail["dataflow"]["functions"].values():
                stats.pop("ms", None)
    meta_dataflow = out.get("dataflow")
    if isinstance(meta_dataflow, dict):
        meta_dataflow.pop("ms", None)
    return out


def test_serve_check_equals_one_shot(daemon, tmp_path):
    sock, _server = daemon
    path = write_c(tmp_path)
    with connect(sock) as client:
        client.request("check", check_params(path))  # warm it
        served = client.request("check", check_params(path))["report"]
    with api.Workspace(incremental=False) as ws:
        one_shot = ws.check(api.CheckRequest(files=(path,))).to_dict()
    assert _strip_volatile(served) == _strip_volatile(one_shot)


def test_serve_prove_equals_one_shot(daemon, tmp_path):
    sock, _server = daemon
    qual = tmp_path / "defs.qual"
    qual.write_text(
        "value qualifier nn2(int Expr E)\n"
        "  case E of\n"
        "      decl int Const C:\n"
        "        C, where C >= 0\n"
        "    | decl int Expr E1, E2:\n"
        "        E1 + E2, where nn2(E1) && nn2(E2)\n"
        "  invariant value(E) >= 0\n"
    )
    params = {"files": [str(qual)], "cache": False}
    with connect(sock) as client:
        served = client.request("prove", params)["report"]
    with api.Workspace(incremental=False) as ws:
        one_shot = ws.prove(
            api.ProveRequest(files=(str(qual),), cache=False)
        ).to_dict()
    served_quals = served["units"][0]["detail"]["qualifiers"]
    one_shot_quals = one_shot["units"][0]["detail"]["qualifiers"]
    assert [q["sound"] for q in served_quals] == [
        q["sound"] for q in one_shot_quals
    ]
    assert served["exit_code"] == one_shot["exit_code"]
    assert served["units"][0]["verdict"] == one_shot["units"][0]["verdict"]


def test_report_from_dict_round_trip(tmp_path):
    path = write_c(tmp_path)
    with api.Workspace(incremental=False) as ws:
        report = ws.check(api.CheckRequest(files=(path,)))
    payload = report.to_dict()
    rebuilt = api.report_from_dict(json.loads(json.dumps(payload)))
    assert rebuilt.to_dict() == payload
    assert rebuilt.exit_code == report.exit_code


# ---------------------------------------------------------------- CLI


def _cli(args, cwd, env=None):
    full_env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=full_env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_server_proxy_matches_in_process(daemon, tmp_path):
    sock, _server = daemon
    path = write_c(tmp_path)
    local = _cli(["check", path, "--format", "json"], cwd=tmp_path)
    proxied = _cli(
        ["check", path, "--server", sock, "--format", "json"], cwd=tmp_path
    )
    assert local.returncode == proxied.returncode == 1
    assert _strip_volatile(json.loads(proxied.stdout)) == _strip_volatile(
        json.loads(local.stdout)
    )


def test_cli_server_fallback_when_no_daemon(tmp_path):
    path = write_c(tmp_path)
    gone = str(tmp_path / "no-such.sock")
    result = _cli(
        ["check", path, "--server", gone, "--format", "json"], cwd=tmp_path
    )
    assert result.returncode == 1  # ran in-process instead
    assert "running in-process" in result.stderr
    payload = json.loads(result.stdout)
    assert payload["schema_version"] == api.SCHEMA_VERSION


# ------------------------------------- prove incrementality & eviction

NN_QUAL = """\
value qualifier nn2(int Expr E)
  case E of
      decl int Const C:
        C, where C >= 0
    | decl int Expr E1, E2:
        E1 + E2, where nn2(E1) && nn2(E2)
  invariant value(E) >= 0
"""


def write_qual(tmp_path, name="defs.qual", text=NN_QUAL):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _obligations(report):
    return [
        (o["rule"], o["verdict"], o["proved"], o["reason"])
        for u in report["units"]
        for q in u["detail"]["qualifiers"]
        for o in q["obligations"]
    ]


def test_serve_prove_replays_unchanged_file(daemon, tmp_path):
    """``prove`` gets the same fingerprint-aware incrementality over
    serve that ``check`` has: unchanged files replay whole."""
    sock, server = daemon
    path = write_qual(tmp_path)
    params = {"files": [path], "cache": False}
    with connect(sock) as client:
        first = client.request("prove", params)["report"]
        assert first["incremental"]["units_replayed"] == 0
        assert first["incremental"]["rechecked"] > 0

        second = client.request("prove", params)["report"]
        assert second["incremental"]["units_replayed"] == 1
        assert second["incremental"]["rechecked"] == 0
        assert (
            second["incremental"]["replayed"]
            == first["incremental"]["rechecked"]
        )
        unit_inc = second["units"][0]["detail"]["incremental"]
        assert unit_inc["unit_replayed"] is True
        assert _obligations(second) == _obligations(first)

        # an edit invalidates the stored verdicts
        write_qual(tmp_path, text=NN_QUAL.replace("C >= 0", "C >= 1"))
        third = client.request("prove", params)["report"]
        assert third["incremental"]["units_replayed"] == 0
        assert third["incremental"]["rechecked"] > 0
    stats = server.status()["workspaces"][0]
    assert stats["counters"]["prove_units_replayed"] == 1
    assert stats["counters"]["obligations_replayed"] > 0
    assert stats["prove_units"] >= 1


def test_serve_prove_counters_match_in_process(daemon, tmp_path):
    """The served replay counters and ``sessions`` block equal an
    in-process incremental workspace's."""
    sock, _server = daemon
    path = write_qual(tmp_path)
    params = {"files": [path], "cache": False}
    with connect(sock) as client:
        client.request("prove", params)
        served = client.request("prove", params)["report"]
    workspace = api.Workspace(api.SessionConfig(), incremental=True)
    request = api.ProveRequest(files=(path,), cache=False)
    workspace.prove(request)
    local = workspace.prove(request).to_dict()
    assert served["incremental"] == local["incremental"]
    assert (
        served["units"][0]["detail"]["incremental"]
        == local["units"][0]["detail"]["incremental"]
    )
    assert served["sessions"] == local["sessions"]


def test_serve_prove_session_and_shard_params(daemon, tmp_path):
    """Protocol v2 dropped ``session`` and ``explain``, v4 dropped
    ``shard``: an old client sending them gets ``bad-request``.  (v3
    dropped the ``status`` reply's single-flight block.)"""
    sock, _server = daemon
    path = write_qual(tmp_path)
    assert protocol.PROTOCOL_VERSION == 4
    with connect(sock) as client:
        plain = client.request(
            "prove", {"files": [path], "cache": False}
        )["report"]
        assert plain["sessions"]["enabled"] is True
        for retired in ("session", "explain", "shard"):
            with pytest.raises(ServeError) as exc:
                client.request(
                    "prove",
                    {"files": [path], "cache": False, retired: False},
                )
            assert exc.value.code == protocol.E_BAD_REQUEST
            assert retired in str(exc.value)
        status = client.request("status")["result"]
        assert status["protocol"] == 4
        assert "dedup" not in status


@pytest.mark.parametrize(
    "params",
    [
        {"retries": -1},
        {"time_limit": float("nan")},
        {"time_limit": -1},
        {"unit_timeout": float("nan")},
        {"unit_timeout": -1},
    ],
)
def test_prove_budget_params_must_mean_what_they_say(params):
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.batch_request("prove", {"files": ["d.qual"], **params})
    assert exc.value.code == protocol.E_BAD_REQUEST
    assert next(iter(params)) in str(exc.value)


def test_prove_budget_params_defaults_and_bounds_accepted():
    request = protocol.batch_request("prove", {"files": ["d.qual"]})
    assert (request.time_limit, request.retries, request.unit_timeout) == (
        45.0, 0, None
    )
    request = protocol.batch_request(
        "prove",
        {"files": ["d.qual"], "time_limit": 0, "retries": 2,
         "unit_timeout": float("inf")},
    )
    assert (request.time_limit, request.retries) == (0.0, 2)
    assert request.unit_timeout == float("inf")


def test_workspace_lru_eviction(daemon, tmp_path):
    """The daemon keeps at most ``max_workspaces`` resident; the least
    recently used one is closed and counted."""
    sock, server = daemon
    server.max_workspaces = 1
    path = write_c(tmp_path)
    with connect(sock) as client:
        client.request("check", check_params(path))
        client.request(
            "check", check_params(path, trust_constants=True)
        )
        status = client.request("status")["result"]
    assert len(status["workspaces"]) == 1
    assert status["counters"]["evictions"] == 1
    # the surviving workspace is the most recently used configuration
    assert server.status()["workspaces"][0]["config"]["trust_constants"]


def test_unit_state_lru_eviction(monkeypatch, tmp_path):
    """Per-workspace verdict stores are bounded: beyond the cap the
    oldest unit state is dropped and counted."""
    monkeypatch.setenv("REPRO_WORKSPACE_MAX_UNITS", "1")
    a = write_qual(tmp_path, "a.qual")
    b = write_qual(tmp_path, "b.qual")
    workspace = api.Workspace(api.SessionConfig(), incremental=True)
    for path in (a, b, a):
        report = workspace.prove(
            api.ProveRequest(files=(path,), cache=False)
        ).to_dict()
        # nothing ever replays: each request evicts the previous state
        assert report["incremental"]["units_replayed"] == 0
    assert workspace.counters["units_evicted"] >= 2
    assert workspace.stats()["prove_units"] == 1
