"""Process-pool workspace sharding for the ``repro serve`` daemon.

The daemon's CPU-bound work used to run on executor *threads* against
resident :class:`repro.api.Workspace` objects, so the GIL serialized
concurrent requests even when they hit distinct configurations.  This
module moves each workspace behind a **host**: either

- :class:`ThreadHost` — the original shape, the workspace lives in the
  daemon process and runs on the executor thread (the default, and
  what in-process observability and tests rely on); or
- :class:`ProcessHost` — the workspace lives in a persistent child
  process (one per resident configuration, spawned on demand), and the
  executor thread degenerates to a message pump over a duplex pipe.
  Distinct configurations then check on distinct cores, and a crashing
  worker poisons only its own workspace: the parent answers the
  in-flight request with a ``worker-crashed`` error, drops the host,
  and the next request for that configuration spawns a fresh one.

Both hosts expose the same four calls (``run``/``invalidate``/
``stats``/``close``) so the server's router does not care which mode
it is in.  Either way an answer is encoded once, where it is computed
(:func:`run_request`): units, events and the report leave the host as
compact JSON text, which the server relays to the socket as bytes.
The child protocol is a tuple-per-message pipe dialogue::

    parent -> child : ("run", op, params) | ("invalidate", path)
                      | ("stats",) | ("close",)
    child -> parent : ("unit", text) | ("event", text)       # streamed
                      | ("done", report_text, stats_dict)
                      | ("error", code, message, stats_dict)
                      | ("invalidated", count, stats_dict)
                      | ("stats", stats_dict)

Two workers proving one obligation share it through the proof cache's
leases (:mod:`repro.cache.store`); the parent takes no part.

A worker is a :class:`repro.harness.supervisor.Child`, as a batch-pool
child is: one start, one signal policy (a worker ends on its first
``SIGTERM`` and leaves Ctrl-C to the daemon) and one stop, so no worker
outlives the daemon as a zombie.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro import api
from repro.harness.batch import input_error_types
from repro.harness.supervisor import Child
from repro.serve import protocol


def input_errors() -> tuple:
    """Exceptions that mean "your input was bad", not "the daemon
    broke": the pipeline's own (the set the CLI maps to exit code 2)
    plus unreadable, undecodable or too deeply nested input and an
    unknown qualifier.  Built when an exception is matched, so naming
    the C parser's error does not load the C front end."""
    return (
        *input_error_types(),
        UnicodeDecodeError,
        OSError,
        RecursionError,
        api.UnknownQualifierError,
    )


#: How long a spawn-time handshake or graceful close may take before
#: the parent gives up on the child.
_SPAWN_TIMEOUT = 30.0
_CLOSE_TIMEOUT = 5.0

#: Receives each streamed payload as ``(kind, text)``, ``kind`` being
#: ``"unit"`` or ``"event"`` and ``text`` its :func:`protocol.dumps`.
Emit = Callable[[str, str], None]


class WorkerCrashed(Exception):
    """A worker process died mid-conversation (crash, OOM kill)."""

    def __init__(self, pid: Optional[int], exitcode: Optional[int]):
        self.pid = pid
        self.exitcode = exitcode
        super().__init__(
            f"workspace worker pid={pid} died (exitcode={exitcode}); "
            "its workspace will be respawned on the next request"
        )


class RemoteError(Exception):
    """A typed error answer from a worker (maps to a wire error)."""

    def __init__(self, code: str, message: str):
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}")


def run_request(workspace: api.Workspace, op: str, params, emit: Emit) -> str:
    """Run one batch op on ``workspace``, streaming units and events
    through ``emit``, and return the encoded report; the one request
    handler of both hosts.  Each payload is encoded once, here.  Every
    fault that is about the request raises :class:`RemoteError`."""
    streamed: Dict[int, tuple] = {}

    def on_result(result) -> None:
        text = protocol.dumps(result.to_dict())
        streamed[id(result)] = (result, text)
        emit("unit", text)

    try:
        request = protocol.batch_request(op, params)
        report = getattr(workspace, op)(
            request,
            on_result=on_result,
            on_event=lambda e: emit("event", protocol.dumps(e)),
        )
        return _encode_report(report, streamed)
    except protocol.ProtocolError as exc:
        raise RemoteError(exc.code, str(exc))
    except input_errors() as exc:
        raise RemoteError(protocol.E_INPUT, str(exc))
    except Exception as exc:  # survived worker-side bug
        raise RemoteError(protocol.E_INTERNAL, f"{type(exc).__name__}: {exc}")


def _encode_report(report: api.Report, streamed: Dict[int, tuple]) -> str:
    """:func:`protocol.dumps` of ``report.to_dict()``, with each unit
    that was streamed spliced in as the text it was streamed as."""

    def unit_text(result) -> str:
        # An entry keeps its result alive, so its id names no other.
        entry = streamed.get(id(result))
        if entry is not None:
            return entry[1]
        return protocol.dumps(result.to_dict())  # not streamed: SKIPPED

    dumps = protocol.dumps
    units = "[" + ",".join(unit_text(r) for r in report.results) + "]"
    return "{%s}" % ",".join(
        dumps(key) + ":" + (units if key == "units" else dumps(value))
        for key, value in report.to_dict().items()
    )


class ThreadHost:
    """The in-process shape: workspace state lives in the daemon."""

    def __init__(self, config: api.SessionConfig):
        self.workspace = api.Workspace(config, incremental=True)

    @property
    def alive(self) -> bool:
        return True

    @property
    def pid(self) -> None:
        return None

    def run(self, op: str, params: Dict[str, Any], emit: Emit) -> str:
        return run_request(self.workspace, op, params, emit)

    def invalidate(self, path: Optional[str]) -> int:
        return self.workspace.invalidate(path)

    def stats(self) -> dict:
        return self.workspace.stats()

    def close(self) -> None:
        self.workspace.close()


def worker_main(conn, config: api.SessionConfig) -> None:
    """Child entry: host one workspace, serve requests off the pipe.

    Runs until a ``close`` message or pipe EOF (parent gone).  All
    faults that are *about the request* answer as typed errors; only
    genuine process death (never raised here) reaches the parent as a
    crash.
    """
    workspace = api.Workspace(config, incremental=True)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "run":
                _, op, params = message
                try:
                    report = run_request(
                        workspace,
                        op,
                        params,
                        lambda kind, payload: conn.send((kind, payload)),
                    )
                    conn.send(("done", report, workspace.stats()))
                except RemoteError as exc:
                    conn.send(
                        ("error", exc.code, exc.message, workspace.stats())
                    )
            elif kind == "invalidate":
                dropped = workspace.invalidate(message[1])
                conn.send(("invalidated", dropped, workspace.stats()))
            elif kind == "stats":
                conn.send(("stats", workspace.stats()))
            elif kind == "close":
                break
    finally:
        workspace.close()
        try:
            conn.close()
        except OSError:
            pass


class ProcessHost:
    """Parent-side handle on one persistent workspace worker process."""

    def __init__(self, config: api.SessionConfig):
        self.config = config
        self._dead = False
        # Not daemonic: a prove with ``jobs > 1`` forks a pool.
        self.child = Child(
            worker_main,
            (config,),
            duplex=True,
            daemon=False,
            name=f"repro-serve-worker-{config.key()}",
        )
        # Handshake: a stats roundtrip proves the worker came up and
        # seeds the parent-side stats cache, so ``status`` has a block
        # for this workspace even while the worker is busy.
        self._stats_cache = self._roundtrip(
            ("stats",), "stats", _SPAWN_TIMEOUT
        )[1]

    # ------------------------------------------------------------- plumbing

    @property
    def pid(self) -> Optional[int]:
        return self.child.pid

    @property
    def alive(self) -> bool:
        return not self._dead and self.child.is_alive()

    def _crashed(self) -> WorkerCrashed:
        self._dead = True
        self.child.stop(grace=1.0)
        return WorkerCrashed(self.child.pid, self.child.exitcode)

    def _roundtrip(self, message: tuple, expect: str, timeout: float):
        """One command, one reply of kind ``expect`` (no streaming in
        between — callers hold the workspace lock, so nothing else is
        on the pipe)."""
        conn = self.child.conn
        try:
            conn.send(message)
            if not conn.poll(timeout):
                raise self._crashed()
            reply = conn.recv()
        except (EOFError, OSError):
            raise self._crashed()
        if reply[0] != expect:
            raise RemoteError(
                protocol.E_INTERNAL,
                f"worker answered {reply[0]!r} to {message[0]!r}",
            )
        return reply

    # ------------------------------------------------------------ interface

    def run(self, op: str, params: Dict[str, Any], emit: Emit) -> str:
        """Dispatch one batch op to the worker and pump its messages.

        Blocks the calling executor thread until the worker's ``done``
        or ``error``.  Raises :class:`WorkerCrashed` when the pipe dies
        — the caller owns respawn policy.
        """
        conn = self.child.conn
        try:
            conn.send(("run", op, params))
            while True:
                message = conn.recv()
                kind = message[0]
                if kind in ("unit", "event"):
                    emit(kind, message[1])
                elif kind == "done":
                    self._stats_cache = message[2]
                    return message[1]
                elif kind == "error":
                    self._stats_cache = message[3]
                    raise RemoteError(message[1], message[2])
        except (EOFError, OSError):
            raise self._crashed()

    def invalidate(self, path: Optional[str]) -> int:
        reply = self._roundtrip(
            ("invalidate", path), "invalidated", _SPAWN_TIMEOUT
        )
        self._stats_cache = reply[2]
        return reply[1]

    def stats(self) -> dict:
        """The cached stats block (refreshed by every reply)."""
        return self._stats_cache

    def stats_live(self, timeout: float = 1.0) -> dict:
        """A fresh stats block straight from the worker.  Only valid
        while no request is in flight (caller holds the workspace
        lock); falls back to the cache on a sluggish worker."""
        if not self.alive:
            return self._stats_cache
        try:
            self._stats_cache = self._roundtrip(("stats",), "stats", timeout)[1]
        except (WorkerCrashed, RemoteError):
            pass
        return self._stats_cache

    def close(self) -> None:
        """Graceful stop: ask, wait briefly, then make sure (terminate,
        kill, join) — an evicted or shut-down worker never lingers."""
        if not self._dead:
            try:
                self.child.conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        self._dead = True
        self.child.stop(grace=_CLOSE_TIMEOUT)
