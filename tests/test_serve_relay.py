"""The served answer is encoded once, where it is computed, and relayed
as bytes (docs/serve.md, "Layering").  These tests pin what the relay
must keep: every line the daemon writes is the compact JSON of its own
decoded message, the report is the in-process report, and the streamed
units are the report's units, for every batch op in thread and process
mode, serial and pooled, with and without ``keep_going``, over a set
of inputs that holds a broken unit."""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from repro import api
from repro.serve import connect, protocol
from repro.serve.server import ServeServer
from tests.test_serve import _strip_volatile
from tests.test_shard import _scrub

WARNS = "int pos f(int x) { return x - 1; }\nint g(int y) { return y; }\n"
BROKEN = "int f( { }\n"
CLEAN = "int h(int w) { return w * 2; }\n"

NN2 = """\
value qualifier nn2(int Expr E)
  case E of
      decl int Const C:
        C, where C >= 0
    | decl int Expr E1, E2:
        E1 + E2, where nn2(E1) && nn2(E2)
  invariant value(E) >= 0
"""
BAD_QUAL = "value qualifier oops(int Expr E)\n  case E of THIS IS NOT VALID\n"
POS2 = NN2.replace("nn2", "pos2").replace(">= 0", "> 0")


def _inputs(tmp_path, op):
    """Three units, the middle one broken: without keep_going the last
    ends SKIPPED."""
    if op == "prove":
        texts = [("nn2.qual", NN2), ("bad.qual", BAD_QUAL), ("pos2.qual", POS2)]
    else:
        texts = [("warns.c", WARNS), ("broken.c", BROKEN), ("clean.c", CLEAN)]
    paths = []
    for name, text in texts:
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    return paths


def _params(op, files, jobs, keep_going):
    params = {"files": files, "jobs": jobs, "keep_going": keep_going}
    if op == "prove":
        params["cache"] = False
    if op == "infer":
        params["qualifier"] = "pos"
    return params


@pytest.fixture(params=[0, 2], ids=["thread", "process"])
def daemon(request, tmp_path):
    sock = str(tmp_path / "serve.sock")
    server = ServeServer(sock, workers=request.param)
    thread = threading.Thread(target=lambda: asyncio.run(server.run()), daemon=True)
    thread.start()
    assert server.ready.wait(10.0), "daemon never bound its socket"
    yield sock
    with connect(sock) as client:
        client.shutdown()
    thread.join(timeout=15)
    assert not thread.is_alive(), "daemon did not stop"


def _raw_request(sock_path, rid, op, params):
    """The lines the daemon writes for one request, as bytes."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.connect(sock_path)
        sock.sendall(protocol.encode({"id": rid, "op": op, "params": params}))
        reader = sock.makefile("rb")
        lines = []
        while True:
            line = reader.readline()
            assert line.endswith(b"\n"), "daemon hung up mid-request"
            lines.append(line)
            if json.loads(line).get("done"):
                return lines


def _untimed(payload):
    return _scrub(_strip_volatile(payload))


@pytest.mark.parametrize("op", ["check", "prove", "infer"])
def test_relayed_lines_are_the_encoded_report(daemon, tmp_path, op):
    files = _inputs(tmp_path, op)
    # The in-process twin of the daemon's workspace sees the same
    # requests in the same order, so warm state agrees too.
    params = _params(op, files, 1, False)
    mirror = api.Workspace(protocol.config_from_params(params), incremental=True)
    try:
        for jobs in (1, 2):
            for keep_going in (False, True):
                params = _params(op, files, jobs, keep_going)
                rid = f"{op}-{jobs}-{keep_going}"
                lines = _raw_request(daemon, rid, op, params)
                messages = [json.loads(line) for line in lines]
                for line, message in zip(lines, messages):
                    assert line == protocol.encode(message)
                    assert message["id"] == rid
                *stream, done = messages
                report = done["report"]
                expected = getattr(mirror, op)(
                    protocol.batch_request(op, params)
                ).to_dict()
                assert _untimed(report) == _untimed(expected)
                verdicts = [u["verdict"] for u in report["units"]]
                assert verdicts[1] == "ERROR"
                assert (verdicts[2] == "SKIPPED") is not keep_going
                units = [m["unit"] for m in stream if m["stream"] == "unit"]
                streamed = sorted(units, key=lambda u: files.index(u["unit"]))
                assert streamed == [
                    u for u in report["units"] if u["verdict"] != "SKIPPED"
                ]
    finally:
        mirror.close()
