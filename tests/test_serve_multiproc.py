"""Process-mode ``repro serve``: worker-process sharding, the TCP
transport, cross-request obligation dedup, and crash isolation — plus
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
import subprocess
import sys
import threading
import time

import pytest

from repro import api
from repro.cache import fingerprint as _fp
from repro.core.qualifiers.ast import QualifierSet
from repro.core.qualifiers.parser import parse_qualifiers
from repro.core.soundness.axioms import semantics_axioms
from repro.core.soundness.checker import check_soundness
from repro.core.soundness.obligations import generate_obligations
from repro.core.soundness.workitems import proof_result_to_dict
from repro.harness import supervisor
from repro.serve import connect, protocol
from repro.serve import server as serve_server
from repro.serve.client import ServeError
from repro.serve.dedup import ObligationDedup
from repro.serve.server import ServeServer

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


# -------------------------------------------------------- dedup (table)


def test_dedup_single_flight_contract():
    table = ObligationDedup()
    key = ("env", "obligation")
    role, ticket = table.acquire(key)
    assert (role, ticket) == ("leader", None)
    role2, ticket2 = table.acquire(key)
    assert role2 == "follower"
    table.publish(key, {"verdict": "PROVED"})
    assert table.wait(ticket2, timeout=1.0) == {"verdict": "PROVED"}
    assert table.counters == {
        "leaders": 1,
        "waits": 1,
        "shared": 1,
        "misses": 0,
    }
    # publish removed the key: the next request leads again (and would
    # hit the proof cache, which now holds the settled verdict)
    assert table.acquire(key)[0] == "leader"


def test_dedup_empty_handed_leader_is_a_miss():
    table = ObligationDedup()
    key = ("env", "obligation")
    table.acquire(key)
    _, ticket = table.acquire(key)
    table.publish(key, None)  # leader had nothing shareable
    assert table.wait(ticket, timeout=1.0) is None
    assert table.counters["misses"] == 1
    assert table.counters["shared"] == 0


def test_dedup_overdue_leader_is_a_miss():
    table = ObligationDedup()
    key = ("env", "obligation")
    table.acquire(key)
    _, ticket = table.acquire(key)
    assert table.wait(ticket, timeout=0.05) is None  # gave up waiting
    assert table.counters["misses"] == 1
    table.publish(key, {"verdict": "PROVED"})  # late publish is harmless


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
    assert set(status["dedup"]) == {"leaders", "waits", "shared", "misses"}


def test_worker_crash_mid_request_poisons_only_its_workspace(
    procdaemon, tmp_path
):
    """Kill a worker while its request is provably in flight (parked
    as a dedup follower on a key the test leads): the request answers
    ``worker-crashed``, other workspaces keep serving, and the next
    request on the poisoned configuration respawns transparently."""
    sock, server = procdaemon
    small = write_c(tmp_path, "small.c", "int f(int x) { return x; }\n")
    other = write_c(tmp_path, "other.c", "int g(int y) { return y; }\n")
    qual = tmp_path / "nn2.qual"
    qual.write_text(NN2)
    keys, _ = _dedup_keys_and_payloads(NN2)
    with connect(sock) as client:
        client.request("check", {"files": [small]})
        status = client.status()
    pid = status["workspaces"][0]["worker"]["pid"]
    assert status["workspaces"][0]["worker"]["alive"]

    # lead the prove's first obligation so the worker's request blocks
    # mid-flight, waiting on the test's publish
    assert server.dedup.acquire(keys[0])[0] == "leader"
    outcome = {}

    def prove():
        with connect(sock) as client:
            try:
                outcome["report"] = client.request(
                    "prove", {"files": [str(qual)], "cache": False}
                )["report"]
            except ServeError as exc:
                outcome["error"] = exc

    thread = threading.Thread(target=prove, daemon=True)
    thread.start()
    try:
        deadline = time.monotonic() + 30.0
        while server.dedup.counters["waits"] < 1:
            assert time.monotonic() < deadline, "prove never reached dedup"
            time.sleep(0.01)
        os.kill(pid, signal.SIGKILL)
        time.sleep(0.3)  # let the kill land before waking the pump

        # the other configuration's workspace keeps serving throughout
        with connect(sock) as client:
            unaffected = client.request(
                "check", {"files": [other], "trust_constants": True}
            )["report"]
        assert unaffected["units"][0]["verdict"] in ("OK", "WARN")
    finally:
        # wake the parked request; its reply hits the dead pipe
        server.dedup.publish(keys[0], None)

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


def _dedup_keys_and_payloads(qual_text):
    """The exact dedup keys a prove of ``qual_text`` acquires, in
    discharge order, with shareable payloads from a one-shot run."""
    quals = QualifierSet(list(parse_qualifiers(qual_text)))
    (qdef,) = list(quals)
    env = _fp.environment_key(
        list(semantics_axioms()), context=qdef.source
    )
    obligations = [
        ob
        for ob in generate_obligations(qdef, quals)
        if not ob.trivial and ob.goal is not None
    ]
    keys = [(env, _fp.obligation_key(ob.goal)) for ob in obligations]
    report = check_soundness(qdef, quals, cache=None)
    payloads = {}
    for entry in report.results:
        ob = entry.obligation
        if ob.trivial or ob.goal is None:
            continue
        if entry.result is not None and entry.result.verdict in (
            "PROVED",
            "REFUTED",
        ):
            payloads[(env, _fp.obligation_key(ob.goal))] = (
                proof_result_to_dict(entry.result)
            )
    return keys, [payloads.get(key) for key in keys]


def test_dedup_single_flight_spans_worker_processes(procdaemon, tmp_path):
    """A prove whose obligations are already led by another request
    waits (follower), then reuses the published payloads — across the
    process boundary, through the pipe-backed proxy."""
    sock, server = procdaemon
    qual = tmp_path / "nn2.qual"
    qual.write_text(NN2)
    keys, payloads = _dedup_keys_and_payloads(NN2)
    assert keys, "nn2 should yield non-trivial obligations"
    assert all(payloads), "one-shot run should settle every obligation"

    # the test plays the concurrent leader for every obligation
    for key in keys:
        role, _ = server.dedup.acquire(key)
        assert role == "leader"
    baseline_waits = server.dedup.counters["waits"]

    outcome = {}

    def prove():
        with connect(sock) as client:
            outcome["report"] = client.request(
                "prove", {"files": [str(qual)], "cache": False}
            )["report"]

    thread = threading.Thread(target=prove, daemon=True)
    thread.start()
    try:
        # obligations discharge serially in generation order, so the
        # follower blocks on one key at a time: publish each as the
        # waits counter shows it arrive
        for i, (key, payload) in enumerate(zip(keys, payloads)):
            deadline = time.monotonic() + 60.0
            while server.dedup.counters["waits"] < baseline_waits + i + 1:
                assert (
                    time.monotonic() < deadline
                ), f"prove never waited on obligation {i}"
                time.sleep(0.01)
            server.dedup.publish(key, payload)
    finally:
        for key in keys:  # unstick followers if an assertion fired
            server.dedup.publish(key, None)
    thread.join(timeout=120)
    assert not thread.is_alive()

    counters = server.dedup.counters
    assert counters["waits"] == baseline_waits + len(keys)
    assert counters["shared"] == len(keys)
    assert counters["misses"] == 0
    qualifiers = outcome["report"]["units"][0]["detail"]["qualifiers"]
    assert [q["sound"] for q in qualifiers] == [True]


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
        keys, payloads = _dedup_keys_and_payloads(NN2)
        # lead the prove's first obligation: the first configuration's
        # request parks mid-flight, provably busy, until we publish
        assert server.dedup.acquire(keys[0])[0] == "leader"
        outcome = {}

        def long_prove():
            with connect(sock) as client:
                outcome["report"] = client.request(
                    "prove", {"files": [str(qual)], "cache": False}
                )["report"]

        busy = threading.Thread(target=long_prove, daemon=True)
        busy.start()
        try:
            wait_until = time.monotonic() + 30.0
            while server.dedup.counters["waits"] < 1:
                assert (
                    time.monotonic() < wait_until
                ), "long prove never started"
                time.sleep(0.01)
            # a second configuration lands while the first is busy
            with connect(sock) as client:
                other = client.request(
                    "check", {"files": [small], "trust_constants": True}
                )["report"]
            assert other["units"][0]["verdict"] in ("OK", "WARN")
        finally:
            server.dedup.publish(keys[0], payloads[0])
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
