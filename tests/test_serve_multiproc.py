"""Process-mode ``repro serve``: worker-process sharding, the TCP
transport, cross-request obligation dedup (the proof cache's leases),
and crash isolation — plus
the serve/supervisor lifecycle bugfixes that shipped with them
(stale-socket probing, env-knob fallback, mid-stream disconnects)."""

from __future__ import annotations

import asyncio
import copy
import errno
import json
import os
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time

import pytest

from repro import api
from repro.cache import ProofCache, ProofKey
from repro.core.qualifiers.ast import QualifierSet
from repro.core.qualifiers.parser import parse_qualifiers
from repro.core.soundness.axioms import semantics_axioms
from repro.core.soundness.checker import check_soundness
from repro.core.soundness.obligations import generate_obligations
from repro.harness import supervisor
from repro.harness.watchdog import Deadline
from repro.serve import connect, protocol
from repro.serve import server as serve_server
from repro.serve.client import ServeError
from repro.serve.server import ServeServer

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

THREE_FUNCS = """\
int pos f(int pos x) { return x + 1; }
int g(int y) { return y; }
int h(int w) { return w * 2; }
"""

NN2 = """\
value qualifier nn2(int Expr E)
  case E of
      decl int Const C:
        C, where C >= 0
    | decl int Expr E1, E2:
        E1 + E2, where nn2(E1) && nn2(E2)
  invariant value(E) >= 0
"""


def write_c(tmp_path, name="prog.c", text=THREE_FUNCS):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _strip_volatile(payload: dict) -> dict:
    out = copy.deepcopy(payload)
    out.pop("elapsed", None)
    out.pop("incremental", None)
    for unit in out.get("units", ()):
        unit.pop("elapsed", None)
        detail = unit.get("detail", {})
        detail.pop("incremental", None)
        if "dataflow" in detail:
            detail["dataflow"]["totals"].pop("ms", None)
            for stats in detail["dataflow"]["functions"].values():
                stats.pop("ms", None)
    meta_dataflow = out.get("dataflow")
    if isinstance(meta_dataflow, dict):
        meta_dataflow.pop("ms", None)
    return out


@pytest.fixture()
def procdaemon(tmp_path):
    """A process-mode daemon (two workers) on a unix socket *and* an
    ephemeral TCP port."""
    sock = str(tmp_path / "serve.sock")
    server = ServeServer(sock, listen=("127.0.0.1", 0), workers=2)

    def run():
        asyncio.run(server.run())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert server.ready.wait(10.0), "daemon never bound"
    yield sock, server
    if not server._shutting_down:
        try:
            with connect(sock) as client:
                client.shutdown()
        except OSError:
            pass
    thread.join(timeout=15)
    assert not thread.is_alive(), "daemon did not stop"


# ----------------------------------------------------------- addresses


def test_parse_address_forms():
    assert protocol.parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
    assert protocol.parse_address(".repro-serve.sock") == (
        "unix",
        ".repro-serve.sock",
    )
    assert protocol.parse_address("name.sock") == ("unix", "name.sock")
    assert protocol.parse_address("tcp://10.0.0.2:4000") == (
        "tcp",
        "10.0.0.2",
        4000,
    )
    assert protocol.parse_address("127.0.0.1:4000") == (
        "tcp",
        "127.0.0.1",
        4000,
    )
    assert protocol.parse_address(":4000") == ("tcp", "127.0.0.1", 4000)
    assert protocol.parse_address("[::1]:4000") == ("tcp", "::1", 4000)
    # the documented ambiguity: relative paths that look like host:port
    # resolve TCP; a leading ./ forces the unix reading
    assert protocol.parse_address("./name:123") == ("unix", "./name:123")
    assert protocol.parse_listen("0.0.0.0:0") == ("0.0.0.0", 0)
    assert protocol.parse_listen("tcp://[::1]:8000") == ("::1", 8000)
    with pytest.raises(ValueError):
        protocol.parse_listen("no-port-here")
    assert protocol.format_address(("::1", 8000)) == "[::1]:8000"
    assert protocol.format_address(("127.0.0.1", 9)) == "127.0.0.1:9"


def test_default_server_address_env(monkeypatch):
    monkeypatch.delenv(protocol.ADDR_ENV, raising=False)
    monkeypatch.delenv("REPRO_SERVE_SOCKET", raising=False)
    assert protocol.default_server_address() is None
    monkeypatch.setenv("REPRO_SERVE_SOCKET", "/tmp/a.sock")
    assert protocol.default_server_address() == "/tmp/a.sock"
    # the address variable wins over the socket variable
    monkeypatch.setenv(protocol.ADDR_ENV, "127.0.0.1:4000")
    assert protocol.default_server_address() == "127.0.0.1:4000"


# ------------------------------------------------- stale-socket probing


class _FakeSocketModule:
    """A socket module whose probe connect fails a scripted way."""

    AF_UNIX = getattr(socket, "AF_UNIX", 1)
    SOCK_STREAM = socket.SOCK_STREAM
    timeout = socket.timeout

    def __init__(self, connect_effect):
        self._effect = connect_effect

    def socket(self, *args, **kwargs):
        effect = self._effect

        class _Probe:
            def settimeout(self, value):
                pass

            def connect(self, path):
                if effect is not None:
                    raise effect

            def close(self):
                pass

        return _Probe()


def _prepare(tmp_path, monkeypatch, effect):
    sock = tmp_path / "stale.sock"
    sock.write_text("")  # stands in for a leftover socket file
    server = ServeServer(str(sock))
    monkeypatch.setattr(
        serve_server, "socket_module", _FakeSocketModule(effect)
    )
    return sock, server


def test_probe_timeout_refuses_to_unlink(tmp_path, monkeypatch):
    """A connect *timeout* means someone is listening (just slow to
    accept) — that must read as address-in-use, never as stale."""
    sock, server = _prepare(tmp_path, monkeypatch, socket.timeout("slow"))
    with pytest.raises(OSError) as err:
        server._prepare_socket_path()
    assert err.value.errno == errno.EADDRINUSE
    assert sock.exists(), "a live daemon's socket was unlinked"


def test_probe_refused_unlinks_stale_socket(tmp_path, monkeypatch):
    sock, server = _prepare(
        tmp_path, monkeypatch, OSError(errno.ECONNREFUSED, "refused")
    )
    server._prepare_socket_path()  # no error: the socket was stale
    assert not sock.exists()


def test_probe_enoent_unlinks_stale_socket(tmp_path, monkeypatch):
    sock, server = _prepare(
        tmp_path, monkeypatch, OSError(errno.ENOENT, "gone")
    )
    server._prepare_socket_path()
    assert not sock.exists()


def test_probe_other_errors_propagate(tmp_path, monkeypatch):
    sock, server = _prepare(
        tmp_path, monkeypatch, OSError(errno.EACCES, "not yours")
    )
    with pytest.raises(OSError) as err:
        server._prepare_socket_path()
    assert err.value.errno == errno.EACCES
    assert sock.exists(), "an unprobeable socket was unlinked"


def test_probe_live_daemon_refuses(tmp_path, monkeypatch):
    sock, server = _prepare(tmp_path, monkeypatch, None)  # connect succeeds
    with pytest.raises(OSError) as err:
        server._prepare_socket_path()
    assert err.value.errno == errno.EADDRINUSE
    assert sock.exists()


# ------------------------------------------------------------ env knobs


def test_env_knob_malformed_falls_back_and_warns_once(monkeypatch, capsys):
    for name in (
        "REPRO_HANG_TIMEOUT",
        "REPRO_HEARTBEAT_INTERVAL",
        "REPRO_MAX_WORKER_DEATHS",
    ):
        supervisor._WARNED_ENV.discard(name)
    monkeypatch.setenv("REPRO_HANG_TIMEOUT", "soon")
    monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "0.5")
    monkeypatch.setenv("REPRO_MAX_WORKER_DEATHS", "lots")
    config = supervisor.SupervisorConfig.from_env()
    defaults = supervisor.SupervisorConfig()
    # each knob parses independently: the good one applies, the two
    # bad ones fall back to defaults instead of crashing the batch
    assert config.hang_timeout == defaults.hang_timeout
    assert config.heartbeat_interval == 0.5
    assert config.max_worker_deaths == defaults.max_worker_deaths
    err = capsys.readouterr().err
    assert "REPRO_HANG_TIMEOUT" in err
    assert "REPRO_MAX_WORKER_DEATHS" in err
    assert "REPRO_HEARTBEAT_INTERVAL" not in err
    # warned once per process, not once per batch
    supervisor.SupervisorConfig.from_env()
    assert capsys.readouterr().err == ""


def test_env_knob_valid_values_still_apply(monkeypatch):
    monkeypatch.setenv("REPRO_HANG_TIMEOUT", "2.5")
    monkeypatch.setenv("REPRO_MAX_WORKER_DEATHS", "7")
    config = supervisor.SupervisorConfig.from_env()
    assert config.hang_timeout == 2.5
    assert config.max_worker_deaths == 7


def test_env_knob_explicit_env_mapping():
    assert supervisor.env_knob("K", 4, int, env={"K": "9"}) == 9
    assert supervisor.env_knob("K", 4, int, env={}) == 4


# ------------------------------------------ dedup (proof-cache leases)

KEY = ProofKey("obligation", "environment")
PROVED = {"proved": True, "verdict": "PROVED", "reason": ""}


def _wait_for(predicate, what, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.005)


def _follow(cache, key, **kwargs):
    """``cache.claim(key, ...)`` on a side thread; the outcome dict gets
    the claim's return value under ``"payload"``."""
    outcome = {}
    thread = threading.Thread(
        target=lambda: outcome.update(payload=cache.claim(key, **kwargs)),
        daemon=True,
    )
    thread.start()
    _wait_for(lambda: cache.counters["waits"] == 1, "follower never waited")
    return thread, outcome


def _pending_rows(where):
    conn = sqlite3.connect(os.path.join(where, "proofs.sqlite"))
    try:
        return conn.execute("SELECT owner FROM pending").fetchall()
    finally:
        conn.close()


def test_dedup_single_flight_contract(tmp_path):
    """Two caches on one directory: the first to miss leads, the
    second waits and replays the leader's verdict, and the verdict's
    commit ends the lease."""
    where = str(tmp_path / "cache")
    leader, follower = ProofCache(where), ProofCache(where)
    assert leader.get(KEY) is None
    assert leader.claim(KEY, lease=60.0) is None  # leads
    assert follower.get(KEY) is None
    thread, outcome = _follow(follower, KEY, lease=60.0)
    assert leader.put(KEY, PROVED)
    thread.join(timeout=10)
    assert outcome["payload"]["verdict"] == "PROVED"
    assert {
        name: follower.counters[name]
        for name in ("hits", "misses", "waits", "shared", "stale", "stores")
    } == {
        "hits": 0, "misses": 1, "waits": 1, "shared": 1, "stale": 0,
        "stores": 0,
    }
    assert _pending_rows(where) == []
    # the next caller hits the store the ordinary way
    assert ProofCache(where).get(KEY)["verdict"] == "PROVED"


def test_dedup_empty_handed_leader_is_a_miss(tmp_path):
    """A leader with nothing settled releases its lease: the follower
    stops waiting and leads in its place (a takeover, not a stale one)."""
    where = str(tmp_path / "cache")
    leader, follower = ProofCache(where), ProofCache(where)
    assert leader.claim(KEY, lease=60.0) is None
    thread, outcome = _follow(follower, KEY, lease=60.0)
    leader.release(KEY)
    thread.join(timeout=10)
    assert outcome == {"payload": None}  # prove it yourself
    assert follower.counters["shared"] == 0
    assert follower.counters["stale"] == 0
    assert len(_pending_rows(where)) == 1  # the follower's own lease
    follower.release(KEY)
    assert _pending_rows(where) == []


def test_dedup_overdue_leader_is_a_miss(tmp_path):
    """A lease past its expiry is taken over and counted stale; a
    follower whose own deadline runs out proves without a lease."""
    where = str(tmp_path / "cache")
    leader, follower, hurried = (ProofCache(where) for _ in range(3))
    assert leader.claim(KEY, lease=0.05) is None
    assert follower.claim(KEY, lease=60.0) is None  # waited, took over
    assert follower.counters["waits"] == 1
    assert follower.counters["stale"] == 1
    assert hurried.claim(KEY, lease=60.0, deadline=Deadline.after(0.05)) is None
    assert hurried.counters["waits"] == 1
    assert hurried.counters["stale"] == 0
    hurried.release(KEY)  # holds nothing: the follower's lease stays
    assert len(_pending_rows(where)) == 1
    assert leader.put(KEY, PROVED)  # a late verdict is harmless
    assert _pending_rows(where) == []
    assert follower.put(KEY, PROVED)


def test_dedup_killed_leader_is_taken_over_before_expiry(tmp_path):
    """A SIGKILLed leader cannot release its lease; the follower sees
    its process gone and proves for itself long before the lease
    would have expired."""
    where = str(tmp_path / "cache")
    script = (
        "import sys, time\n"
        "from repro.cache import ProofCache, ProofKey\n"
        "cache = ProofCache(sys.argv[1])\n"
        "key = ProofKey('obligation', 'environment')\n"
        "assert cache.claim(key, lease=600.0) is None\n"
        "print('leading', flush=True)\n"
        "time.sleep(600)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    leader = subprocess.Popen(
        [sys.executable, "-c", script, where], stdout=subprocess.PIPE, env=env
    )
    try:
        assert leader.stdout.readline().strip() == b"leading"
        follower = ProofCache(where)
        thread, outcome = _follow(follower, KEY, lease=60.0)
        killed = time.monotonic()
        leader.kill()
        leader.wait(timeout=10)
        thread.join(timeout=30)
        assert time.monotonic() - killed < 10.0  # not the 600 s lease
    finally:
        leader.kill()
        leader.wait(timeout=10)
        leader.stdout.close()
    assert outcome == {"payload": None}
    assert follower.counters["stale"] == 1
    assert len(_pending_rows(where)) == 1  # the follower's own lease


# ------------------------------------------- client: connection-lost


def _stub_daemon(tmp_path, script):
    """A protocol-speaking stub that accepts one connection, reads the
    request line, runs ``script(conn, rid)``, then hangs up."""
    sock_path = str(tmp_path / "stub.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(sock_path)
    listener.listen(1)

    def run():
        conn, _ = listener.accept()
        try:
            line = conn.makefile("rb").readline()
            rid = json.loads(line).get("id")
            script(conn, rid)
        finally:
            conn.close()
            listener.close()

    threading.Thread(target=run, daemon=True).start()
    return sock_path


def test_connection_lost_before_any_stream_line(tmp_path):
    sock = _stub_daemon(tmp_path, lambda conn, rid: None)  # just hang up
    with connect(sock) as client:
        with pytest.raises(ServeError) as err:
            client.request(
                "check", {"files": ["x.c"]}, on_unit=lambda unit: None
            )
    assert err.value.code == protocol.E_CONNECTION_LOST
    assert err.value.mid_stream is False


def test_connection_lost_mid_stream_is_flagged(tmp_path):
    def script(conn, rid):
        conn.sendall(
            protocol.encode(
                {"id": rid, "stream": "unit", "unit": {"verdict": "OK"}}
            )
        )

    sock = _stub_daemon(tmp_path, script)
    units = []
    with connect(sock) as client:
        with pytest.raises(ServeError) as err:
            client.request("check", {"files": ["x.c"]}, on_unit=units.append)
    assert err.value.code == protocol.E_CONNECTION_LOST
    assert err.value.mid_stream is True
    assert units == [{"verdict": "OK"}]


def test_undelivered_stream_lines_do_not_count_as_mid_stream(tmp_path):
    """mid_stream tracks what reached a *callback*: with no callbacks
    registered nothing reached the caller, so a rerun duplicates
    nothing and the fallback stays safe."""

    def script(conn, rid):
        conn.sendall(
            protocol.encode(
                {"id": rid, "stream": "unit", "unit": {"verdict": "OK"}}
            )
        )

    sock = _stub_daemon(tmp_path, script)
    with connect(sock) as client:
        with pytest.raises(ServeError) as err:
            client.request("check", {"files": ["x.c"]})
    assert err.value.mid_stream is False


def test_connection_dropped_mid_line(tmp_path):
    def script(conn, rid):
        payload = protocol.encode({"id": rid, "done": True, "report": {}})
        conn.sendall(payload[: len(payload) // 2])  # die mid-write

    sock = _stub_daemon(tmp_path, script)
    with connect(sock) as client:
        with pytest.raises(ServeError) as err:
            client.request("check", {"files": ["x.c"]})
    assert err.value.code == protocol.E_CONNECTION_LOST


def _spy_on_loads(monkeypatch):
    """Every line the client decodes, in order."""
    from types import SimpleNamespace

    from repro.serve import client as client_module

    decoded = []

    def loads(text, *args, **kwargs):
        decoded.append(text)
        return json.loads(text, *args, **kwargs)

    monkeypatch.setattr(client_module, "json", SimpleNamespace(loads=loads))
    return decoded


def test_unread_stream_lines_are_never_decoded(tmp_path, monkeypatch):
    """With no ``on_unit``, the request's unit lines are skipped by
    their prefix; another request's lines and events still go through
    the decoder, and the events reach their callback."""
    other = {"id": "other", "stream": "unit", "unit": {"verdict": "OK"}}

    def script(conn, rid):
        for message in (
            {"id": rid, "stream": "unit", "unit": {"verdict": "WARNINGS"}},
            other,
            {"id": rid, "stream": "event", "event": {"event": "tick"}},
            {"id": rid, "stream": "unit", "unit": {"verdict": "OK"}},
            {"id": rid, "done": True, "report": {"units": []}},
        ):
            conn.sendall(protocol.encode(message))

    sock = _stub_daemon(tmp_path, script)
    decoded = _spy_on_loads(monkeypatch)
    events = []
    with connect(sock) as client:
        final = client.request("check", {"files": ["x.c"]}, on_event=events.append)
    assert final["report"] == {"units": []}
    assert events == [{"event": "tick"}]
    assert len(decoded) == 3  # other's unit, the event, done
    assert json.loads(decoded[0]) == other
    assert not any(line.startswith('{"id":"c1","stream":"unit"') for line in decoded)


def test_unread_events_are_never_decoded(tmp_path, monkeypatch):
    def script(conn, rid):
        conn.sendall(
            protocol.encode({"id": rid, "stream": "event", "event": {"n": 1}})
        )
        conn.sendall(protocol.encode({"id": rid, "done": True, "report": {}}))

    sock = _stub_daemon(tmp_path, script)
    decoded = _spy_on_loads(monkeypatch)
    with connect(sock) as client:
        client.request("check", {"files": ["x.c"]})
    assert len(decoded) == 1 and '"done":true' in decoded[0]


def test_skipped_stream_line_cut_mid_way_is_connection_lost(tmp_path):
    def script(conn, rid):
        line = protocol.encode(
            {"id": rid, "stream": "unit", "unit": {"verdict": "OK"}}
        )
        conn.sendall(line[:-5])  # die mid-write, past the prefix

    sock = _stub_daemon(tmp_path, script)
    with connect(sock) as client:
        with pytest.raises(ServeError) as err:
            client.request("check", {"files": ["x.c"]})
    assert err.value.code == protocol.E_CONNECTION_LOST


# ----------------------------------------------------- client: via CLI


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


def test_cli_falls_back_when_connection_lost_before_output(tmp_path):
    path = write_c(tmp_path, text="int f(int x) { return x; }\n")
    sock = _stub_daemon(tmp_path, lambda conn, rid: None)
    result = _cli(
        ["check", path, "--server", sock, "--format", "json"], cwd=tmp_path
    )
    assert result.returncode == 0
    assert "running in-process" in result.stderr
    payload = json.loads(result.stdout)
    assert payload["schema_version"] == api.SCHEMA_VERSION


def test_cli_exits_3_when_connection_lost_mid_stream(tmp_path):
    """Once output has streamed, a silent in-process rerun would print
    every unit twice — the CLI must fail cleanly instead."""
    path = write_c(tmp_path, text="int f(int x) { return x; }\n")

    def script(conn, rid):
        conn.sendall(
            protocol.encode(
                {
                    "id": rid,
                    "stream": "unit",
                    "unit": {"unit": path, "verdict": "OK"},
                }
            )
        )

    sock = _stub_daemon(tmp_path, script)
    result = _cli(
        ["check", path, "--server", sock, "--format", "jsonl"], cwd=tmp_path
    )
    assert result.returncode == 3
    assert "connection-lost" in result.stderr
    assert "running in-process" not in result.stderr
    lines = [l for l in result.stdout.splitlines() if l.strip()]
    assert len(lines) == 1  # the one streamed record, nothing duplicated
    assert json.loads(lines[0])["record"] == "unit"


# --------------------------------------------------- process-mode daemon


def test_tcp_and_unix_transports_serve_identical_reports(
    procdaemon, tmp_path
):
    sock, server = procdaemon
    path = write_c(tmp_path)
    with connect(sock) as client:
        unix_report = client.request("check", {"files": [path]})["report"]
    addr = protocol.format_address(server.tcp_address)
    with connect(addr) as client:
        tcp_report = client.request("check", {"files": [path]})["report"]
        status = client.status()
    assert _strip_volatile(tcp_report) == _strip_volatile(unix_report)
    with api.Workspace(incremental=False) as ws:
        one_shot = ws.check(api.CheckRequest(files=(path,))).to_dict()
    assert _strip_volatile(tcp_report) == _strip_volatile(one_shot)
    # process-mode status reports both endpoints and the worker block
    assert status["workers"] == 2
    assert status["listen"] == addr
    assert status["socket"] == sock
    worker = status["workspaces"][0]["worker"]
    assert worker["alive"] is True
    assert isinstance(worker["pid"], int) and worker["pid"] != os.getpid()
    assert "dedup" not in status  # protocol v3: sharing lives in the cache


def test_worker_crash_mid_request_poisons_only_its_workspace(
    procdaemon, tmp_path
):
    """Kill a worker while its request is provably in flight (parked
    as a follower on a proof-cache lease the test holds): the request
    answers ``worker-crashed``, other workspaces keep serving, and the
    next request on the poisoned configuration respawns transparently."""
    sock, server = procdaemon
    small = write_c(tmp_path, "small.c", "int f(int x) { return x; }\n")
    other = write_c(tmp_path, "other.c", "int g(int y) { return y; }\n")
    qual = tmp_path / "nn2.qual"
    qual.write_text(NN2)
    where = str(tmp_path / "cache")
    keys, _ = _keys_and_payloads(NN2)
    with connect(sock) as client:
        client.request("check", {"files": [small]})
        status = client.status()
    pid = status["workspaces"][0]["worker"]["pid"]
    assert status["workspaces"][0]["worker"]["alive"]

    # lead the prove's first obligation so the worker's request blocks
    # mid-flight, waiting for the test's verdict
    leader = ProofCache(where)
    assert leader.claim(keys[0], lease=600.0) is None
    outcome = {}

    def prove():
        with connect(sock) as client:
            try:
                outcome["report"] = client.request(
                    "prove", {"files": [str(qual)], "cache_dir": where}
                )["report"]
            except ServeError as exc:
                outcome["error"] = exc

    thread = threading.Thread(target=prove, daemon=True)
    thread.start()
    try:
        time.sleep(0.5)  # the prove parks on the lease; it cannot pass
        assert thread.is_alive(), "prove finished past a held lease"
        os.kill(pid, signal.SIGKILL)

        # the other configuration's workspace keeps serving throughout
        with connect(sock) as client:
            unaffected = client.request(
                "check", {"files": [other], "trust_constants": True}
            )["report"]
        assert unaffected["units"][0]["verdict"] in ("OK", "WARN")
    finally:
        leader.release(keys[0])

    thread.join(timeout=60)
    assert not thread.is_alive()
    assert "error" in outcome, (
        "the killed worker's request should have failed "
        f"(got report: {outcome.get('report', {}).get('exit_code')!r})"
    )
    assert outcome["error"].code == protocol.E_WORKER_CRASH

    # the poisoned workspace respawns transparently on the next request
    with connect(sock) as client:
        again = client.request("check", {"files": [small]})["report"]
        status2 = client.status()
    assert again["schema_version"] == api.SCHEMA_VERSION
    assert server.counters["workers_crashed"] == 1
    assert server.counters["workers_spawned"] >= 3
    pids = [
        ws["worker"]["pid"]
        for ws in status2["workspaces"]
        if ws["worker"]["alive"]
    ]
    assert pid not in pids


def test_idle_worker_death_respawns_invisibly(procdaemon, tmp_path):
    sock, server = procdaemon
    path = write_c(tmp_path)
    with connect(sock) as client:
        first = client.request("check", {"files": [path]})["report"]
        pid = client.status()["workspaces"][0]["worker"]["pid"]
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while any(
        host.pid == pid and host.alive for host in server._hosts.values()
    ):
        assert time.monotonic() < deadline, "kill never registered"
        time.sleep(0.02)
    # no error surfaces: the idle corpse is detected and replaced
    with connect(sock) as client:
        second = client.request("check", {"files": [path]})["report"]
    assert [u["verdict"] for u in second["units"]] == [
        u["verdict"] for u in first["units"]
    ]
    assert server.counters["workers_crashed"] == 1


def _exit_signal(pid, timeout=5.0):
    """The signal that ended ``pid``, a child of another process, read
    from ``/proc`` while it is a zombie: its parent has not reaped it
    yet.  None when it did not end, or not by a signal, in time."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                fields = stat.read().rpartition(")")[2].split()
        except FileNotFoundError:
            return None  # reaped before it was seen
        if fields[0] == "Z":
            # field 52, the wait status, is the 50th after the name
            return int(fields[49]) & 0x7F or None
        time.sleep(0.01)
    return None


@pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="reads /proc"
)
def test_sigterm_to_one_worker_spares_the_daemon(tmp_path):
    """A SIGTERM to one workspace worker ends that worker alone.  The
    daemon runs as its own process: only a daemon on its main thread
    installs asyncio's signal handlers and wakeup fd, which a worker
    forked from it must not keep."""
    path = write_c(tmp_path)
    sock = str(tmp_path / "serve.sock")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--workers", "1"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        _wait_for(lambda: os.path.exists(sock), "daemon never bound")
        with connect(sock) as client:
            client.request("check", {"files": [path]})
            pid = client.status()["workspaces"][0]["worker"]["pid"]
        os.kill(pid, signal.SIGTERM)
        assert _exit_signal(pid) == signal.SIGTERM
        status = _cli(["serve", "--status", "--socket", sock], cwd=tmp_path)
        assert status.returncode == 0, status.stderr
        assert daemon.poll() is None, "the daemon went down with its worker"
        with connect(sock) as client:
            again = client.request("check", {"files": [path]})["report"]
            status = client.status()
        assert status["counters"]["workers_crashed"] == 1
        assert status["workspaces"][0]["worker"]["pid"] != pid
        with api.Workspace(incremental=False) as ws:
            one_shot = ws.check(api.CheckRequest(files=(path,))).to_dict()
        assert _strip_volatile(again) == _strip_volatile(one_shot)
    finally:
        try:
            with connect(sock) as client:
                client.shutdown()
        except OSError:
            pass
        try:
            daemon.wait(timeout=15)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()


#: Two configurations, so the daemon routes each to its own worker.
DISTINCT_CONFIGS = ({}, {"trust_constants": True})


def _unit_text(functions, tag):
    return "".join(
        f"int f{i}(int x{i}) {{ return x{i} + {tag}; }}\n"
        for i in range(functions)
    )


def _check_distinct_configs(sock, paths, tag, functions):
    """Write fresh text to each path (so nothing replays) and check the
    two configurations concurrently; returns their served reports."""
    reports = [None] * len(paths)
    failures = []

    def run(index):
        with open(paths[index], "w") as handle:
            handle.write(_unit_text(functions, tag))
        try:
            with connect(sock) as client:
                reports[index] = client.request(
                    "check", {"files": [paths[index]], **DISTINCT_CONFIGS[index]}
                )["report"]
        except Exception as exc:  # raised below, on the test's thread
            failures.append(exc)

    jobs = [threading.Thread(target=run, args=(i,)) for i in range(len(paths))]
    for job in jobs:
        job.start()
    for job in jobs:
        job.join(timeout=120)
        assert not job.is_alive(), "a served check never answered"
    if failures:
        raise failures[0]
    return reports


def test_concurrent_distinct_configs_match_in_process(procdaemon, tmp_path):
    """Two checks in flight at once, one per configuration and so one
    per worker: each served report equals the in-process one."""
    sock, server = procdaemon
    paths = [str(tmp_path / "a.c"), str(tmp_path / "b.c")]
    for tag in (1, 2):  # a cold and a warm workspace
        served = _check_distinct_configs(sock, paths, tag, functions=40)
        for path, config, report in zip(paths, DISTINCT_CONFIGS, served):
            assert report["exit_code"] == 0
            with api.Workspace(
                api.SessionConfig(**config), incremental=False
            ) as ws:
                local = ws.check(api.CheckRequest(files=(path,))).to_dict()
            assert _strip_volatile(report) == _strip_volatile(local), path
    with connect(sock) as client:
        status = client.status()
    pids = {ws["worker"]["pid"] for ws in status["workspaces"]}
    assert len(pids) == 2
    assert server.counters["workers_crashed"] == 0


def test_process_worker_runs_a_parallel_prove(procdaemon, tmp_path):
    """A workspace worker process may fork a prove's pool: a served
    ``jobs`` 2 prove answers the in-process verdicts (the workers used
    to be daemonic, and a daemonic process may not have children)."""
    sock, server = procdaemon
    paths = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.qual"
        path.write_text(NN2.replace("nn2", f"nn2{name}"))
        paths.append(str(path))
    with connect(sock) as client:
        served = client.request(
            "prove", {"files": paths, "cache": False, "jobs": 2}
        )["report"]
    with api.Workspace(incremental=False) as ws:
        local = ws.prove(
            api.ProveRequest(files=tuple(paths), cache=False, jobs=2)
        ).to_dict()

    def rows(report):
        return [
            (unit["unit"], unit["verdict"], entry["qualifier"],
             obligation["rule"], obligation["verdict"])
            for unit in report["units"]
            for entry in unit["detail"]["qualifiers"]
            for obligation in entry["obligations"]
        ]

    assert served["exit_code"] == 0
    assert rows(served) == rows(local) != []
    assert served["scheduler"] == local["scheduler"]
    assert server.counters["workers_crashed"] == 0


@pytest.mark.slow
def test_concurrent_distinct_configs_use_distinct_cores(procdaemon, tmp_path):
    """On two or more cores, a pair of concurrent distinct-config
    checks takes under 1.6x one check's wall clock (best of three
    each), because the two workers run in parallel."""
    if (os.cpu_count() or 1) < 2:
        pytest.skip("needs two cores")
    sock, server = procdaemon
    paths = [str(tmp_path / "a.c"), str(tmp_path / "b.c")]
    tags = iter(range(1000))
    # Warm both workspaces: spawning a worker is start-up, not throughput.
    _check_distinct_configs(sock, paths, next(tags), functions=600)
    single, pair = [], []
    for _ in range(3):
        started = time.perf_counter()
        _check_distinct_configs(sock, paths[:1], next(tags), functions=600)
        single.append(time.perf_counter() - started)
    for _ in range(3):
        started = time.perf_counter()
        reports = _check_distinct_configs(sock, paths, next(tags), functions=600)
        pair.append(time.perf_counter() - started)
        assert [r["exit_code"] for r in reports] == [0, 0]
    assert server.counters["workers_crashed"] == 0
    ratio = min(pair) / min(single)
    assert ratio < 1.6, f"pair {min(pair):.3f} s vs one {min(single):.3f} s"


def _keys_and_payloads(qual_text):
    """The proof-cache keys a prove of ``qual_text`` looks up, in
    discharge order, with the verdicts of a one-shot run."""
    quals = QualifierSet(list(parse_qualifiers(qual_text)))
    (qdef,) = list(quals)
    cache = ProofCache(cache_dir=None)
    axioms = list(semantics_axioms())
    obligations = [
        ob
        for ob in generate_obligations(qdef, quals)
        if not ob.trivial and ob.goal is not None
    ]
    keys = [cache.key(ob.goal, axioms, context=qdef.source) for ob in obligations]
    report = check_soundness(qdef, quals, cache=None)
    payloads = {
        cache.key(entry.obligation.goal, axioms, context=qdef.source):
            entry.result.to_cache_payload()
        for entry in report.results
        if not entry.obligation.trivial
        and entry.result.verdict in ("PROVED", "REFUTED")
    }
    return keys, [payloads.get(key) for key in keys]


def test_dedup_single_flight_spans_worker_processes(procdaemon, tmp_path):
    """A prove whose obligations another process is proving waits for
    each verdict in the shared store and replays it: every obligation
    is shared, and the worker runs the prover for none of them."""
    sock, server = procdaemon
    qual = tmp_path / "nn2.qual"
    qual.write_text(NN2)
    where = str(tmp_path / "cache")
    keys, payloads = _keys_and_payloads(NN2)
    assert keys, "nn2 should yield non-trivial obligations"
    assert all(payloads), "one-shot run should settle every obligation"
    quals = QualifierSet(list(parse_qualifiers(NN2)))
    assert len(keys) == len(list(generate_obligations(list(quals)[0], quals)))
    with connect(sock) as client:  # spawn the worker up front
        client.request("check", {"files": [write_c(tmp_path)]})

    # the test plays the concurrent leader for every obligation
    leader = ProofCache(where)
    for key in keys:
        assert leader.claim(key, lease=600.0) is None
    settled = []
    outcome = {}

    def prove():
        with connect(sock) as client:
            outcome["report"] = client.request(
                "prove",
                {"files": [str(qual)], "cache_dir": where},
                on_event=lambda e: settled.append(e["verdict"]),
            )["report"]

    thread = threading.Thread(target=prove, daemon=True)
    thread.start()
    try:
        # obligations discharge serially in generation order, so the
        # follower waits on one key at a time: settle each once the
        # previous one's progress event shows the worker moved on
        for i, (key, payload) in enumerate(zip(keys, payloads)):
            _wait_for(
                lambda: len(settled) >= i, f"prove never reached obligation {i}"
            )
            time.sleep(0.3)  # let the worker reach this key's lease
            assert leader.put(key, payload)
    finally:
        for key in keys:  # unstick the follower if an assertion fired
            leader.release(key)
    thread.join(timeout=120)
    assert not thread.is_alive()

    cache = outcome["report"]["cache"]
    assert cache["shared"] == cache["waits"] == len(keys)
    assert cache["stores"] == 0  # no prover call settled anything
    assert cache["stale"] == 0
    qualifiers = outcome["report"]["units"][0]["detail"]["qualifiers"]
    assert [q["sound"] for q in qualifiers] == [True]
    assert sum(o["cached"] for o in qualifiers[0]["obligations"]) == len(keys)


def test_two_workers_prove_each_obligation_once(procdaemon, tmp_path):
    """Two worker processes (two configurations) proving the same
    library against one cache directory run the prover once per
    obligation between them: whoever misses first leads, the other
    waits for the verdict or finds it stored."""
    sock, server = procdaemon
    qual = tmp_path / "nn2.qual"
    qual.write_text(NN2)
    where = str(tmp_path / "cache")
    keys, _ = _keys_and_payloads(NN2)
    configs = ({}, {"trust_constants": True})
    with connect(sock) as client:  # one worker per configuration
        for config in configs:
            client.request("check", {"files": [write_c(tmp_path)], **config})
    # park both proves on the first obligation, then let them race
    gate = ProofCache(where)
    assert gate.claim(keys[0], lease=600.0) is None
    reports = []

    def prove(config):
        with connect(sock) as client:
            reports.append(
                client.request(
                    "prove",
                    {"files": [str(qual)], "cache_dir": where, **config},
                )["report"]
            )

    threads = [
        threading.Thread(target=prove, args=(config,), daemon=True)
        for config in configs
    ]
    for thread in threads:
        thread.start()
    time.sleep(1.0)
    gate.release(keys[0])
    for thread in threads:
        thread.join(timeout=120)
    assert len(reports) == 2
    caches = [report["cache"] for report in reports]
    assert sum(c["stores"] for c in caches) == len(keys)
    assert sum(c["shared"] for c in caches) >= 1
    assert sum(c["stale"] for c in caches) == 0
    assert [r["exit_code"] for r in reports] == [0, 0]
    with connect(sock) as client:
        workers = {w["worker"]["pid"] for w in client.status()["workspaces"]}
    assert len(workers) == 2


def test_eviction_skips_busy_workspace(tmp_path):
    """With the cap at one workspace, a second configuration arriving
    while the first is mid-request must not close the busy workspace —
    the store transiently exceeds the cap, then settles back."""
    sock = str(tmp_path / "serve.sock")
    server = ServeServer(sock, workers=2)
    server.max_workspaces = 1
    thread = threading.Thread(
        target=lambda: asyncio.run(server.run()), daemon=True
    )
    thread.start()
    assert server.ready.wait(10.0), "daemon never bound"
    try:
        small = write_c(tmp_path, "small.c", "int f(int x) { return x; }\n")
        qual = tmp_path / "nn2.qual"
        qual.write_text(NN2)
        where = str(tmp_path / "cache")
        keys, payloads = _keys_and_payloads(NN2)
        # lead the prove's first obligation: the first configuration's
        # request parks mid-flight, provably busy, until we settle it
        leader = ProofCache(where)
        assert leader.claim(keys[0], lease=600.0) is None
        outcome = {}

        def long_prove():
            with connect(sock) as client:
                outcome["report"] = client.request(
                    "prove", {"files": [str(qual)], "cache_dir": where}
                )["report"]

        busy = threading.Thread(target=long_prove, daemon=True)
        busy.start()
        try:
            time.sleep(0.5)
            assert busy.is_alive(), "prove finished past a held lease"
            # a second configuration lands while the first is busy
            with connect(sock) as client:
                other = client.request(
                    "check", {"files": [small], "trust_constants": True}
                )["report"]
            assert other["units"][0]["verdict"] in ("OK", "WARN")
        finally:
            leader.put(keys[0], payloads[0])
        busy.join(timeout=120)
        assert not busy.is_alive()
        assert outcome["report"]["schema_version"] == api.SCHEMA_VERSION
        assert outcome["report"]["exit_code"] == 0
        # one more request settles the store back under the cap
        with connect(sock) as client:
            client.request(
                "check", {"files": [small], "trust_constants": True}
            )
        assert len(server._hosts) == 1
        assert server.counters["evictions"] >= 1
    finally:
        try:
            with connect(sock) as client:
                client.shutdown()
        except OSError:
            pass
        thread.join(timeout=15)
    assert not thread.is_alive()
