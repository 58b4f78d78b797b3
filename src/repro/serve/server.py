"""The ``repro serve`` daemon: a warm checker behind a socket.

An asyncio event loop accepts connections (a unix socket, a TCP
``--listen host:port`` endpoint, or both — same NDJSON protocol) and
demultiplexes request lines; the parent process is a pure
protocol/router layer.  Where the CPU-bound pipeline work runs depends
on the mode:

- **thread mode** (``workers=0``, the default): executor threads run
  against resident :class:`repro.api.Workspace` objects in-process —
  one per distinct :class:`repro.api.SessionConfig`, created on first
  use and kept warm (parsed-state fingerprints, incremental verdict
  store, open proof caches) for the daemon's lifetime.
- **process mode** (``--workers N``): each configuration's workspace
  lives in a persistent worker *process* (:mod:`repro.serve.workers`),
  so concurrent requests against distinct configurations use distinct
  cores instead of fighting over the GIL, and a crashing worker
  poisons only its own workspace — the in-flight request answers with
  a ``worker-crashed`` error and the next request respawns it
  (``workers_spawned``/``workers_crashed`` in ``status``).

Either way, requests against *different* configurations run
concurrently; requests against the same workspace serialize on its
lock (the workspace is not thread-safe, and an edit loop wants the
second re-check to see the first one's warm state anyway).  In either
mode, in-flight proves of one obligation against one cache directory
share a prover run through the cache's leases (:mod:`repro.cache.store`).

Streaming: unit results and progress events are enqueued from the
worker thread via ``loop.call_soon_threadsafe`` and written back on
the event loop, so a slow client never blocks the checker and two
concurrent requests never interleave *within* a line.  The host hands
each unit, event and report over already encoded
(:func:`repro.serve.workers.run_request`); the loop only wraps it in
its line (:func:`repro.serve.protocol.relay`), and never decodes or
re-encodes it.

Shutdown is graceful by default: ``shutdown`` requests, SIGINT and
SIGTERM all stop accepting new work (new requests get a
``shutting-down`` error), wait for in-flight requests to finish,
close the hosts (flushing proof caches, reaping worker processes),
and remove the socket.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import json
import os
import signal
import socket as socket_module
import threading
import time
from typing import Any, Dict, Optional, Set, Tuple

from collections import OrderedDict

from repro import api, obs
from repro.harness.supervisor import env_knob
from repro.serve import protocol
from repro.serve.workers import (
    ProcessHost,
    RemoteError,
    ThreadHost,
    WorkerCrashed,
    input_errors,
)

#: Default cap on resident workspaces (one per distinct configuration);
#: override with ``REPRO_SERVE_MAX_WORKSPACES``.  Warm state beyond the
#: cap is evicted least-recently-used, so a client cycling through many
#: configurations bounds the daemon's memory instead of growing it.
MAX_WORKSPACES = 8


def _max_workspaces() -> int:
    return env_knob(
        "REPRO_SERVE_MAX_WORKSPACES",
        MAX_WORKSPACES,
        lambda raw: max(1, int(raw)),
    )


class ServeServer:
    """One daemon instance bound to one socket path and/or TCP port."""

    def __init__(
        self,
        socket_path: Optional[str],
        listen: Optional[Tuple[str, int]] = None,
        workers: int = 0,
        announce: bool = False,
    ):
        self.socket_path = socket_path
        self.listen = listen
        self.workers = max(0, int(workers))
        self.announce = announce
        self.started = time.monotonic()
        #: Always-on request counters (independent of the obs
        #: collector, which is off unless the daemon is profiled).
        self.counters: Dict[str, int] = {
            "connections": 0,
            "requests": 0,
            "errors": 0,
            "evictions": 0,
            "workers_spawned": 0,
            "workers_crashed": 0,
        }
        self.max_workspaces = _max_workspaces()
        if self.workers:
            # Worker processes are much heavier than warm dicts; the
            # worker count is also the resident-workspace cap, and the
            # existing LRU eviction machinery enforces it.
            self.max_workspaces = min(self.max_workspaces, self.workers)
        self._hosts: "OrderedDict[Tuple, object]" = OrderedDict()
        self._locks: Dict[Tuple, threading.Lock] = {}
        self._ws_guard = threading.Lock()
        self._inflight: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._shutting_down = False
        self._stopped: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        #: The bound TCP address (host, port) — resolved, so a
        #: ``--listen host:0`` caller learns the ephemeral port.
        self.tcp_address: Optional[Tuple[str, int]] = None
        #: Set once every requested transport is bound *and listening*.
        #: Embedders running the daemon on a side thread must wait on
        #: this, not on the socket file: the file appears at bind time,
        #: a beat before ``listen()``, and a connect in that window is
        #: refused.
        self.ready = threading.Event()

    # ------------------------------------------------------------ lifecycle

    def _prepare_socket_path(self) -> None:
        """Remove a stale socket file (no listener behind it); refuse
        to displace a live daemon.

        The distinction matters: a connect that is *refused* (or whose
        path vanished) proves nobody is listening — safe to unlink.  A
        connect that *times out* proves the opposite: something is
        listening but slow to accept (a daemon mid-startup, a busy
        executor) — unlinking would silently orphan a live daemon, so
        that is an address-in-use error, exactly like an immediate
        accept.  Any other probe failure (permissions, ...) also
        refuses: never delete what we cannot prove stale.
        """
        if not os.path.exists(self.socket_path):
            return
        probe = socket_module.socket(
            socket_module.AF_UNIX, socket_module.SOCK_STREAM
        )
        try:
            probe.settimeout(1.0)
            probe.connect(self.socket_path)
        except socket_module.timeout:
            raise OSError(
                errno.EADDRINUSE,
                f"a daemon is already serving {self.socket_path} "
                "(listening, but slow to accept)",
            )
        except OSError as exc:
            if exc.errno in (errno.ECONNREFUSED, errno.ENOENT):
                with contextlib.suppress(OSError):
                    os.unlink(self.socket_path)  # stale: nobody listening
            else:
                raise
        else:
            raise OSError(
                errno.EADDRINUSE,
                f"a daemon is already serving {self.socket_path}",
            )
        finally:
            probe.close()

    async def run(self) -> None:
        """Bind, serve until shut down, then clean up."""
        loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        if self.socket_path:
            self._prepare_socket_path()
            self._server = await asyncio.start_unix_server(
                self._serve_connection, path=self.socket_path
            )
        if self.listen is not None:
            host, port = self.listen
            self._tcp_server = await asyncio.start_server(
                self._serve_connection, host=host, port=port
            )
            bound = self._tcp_server.sockets[0].getsockname()
            self.tcp_address = (bound[0], bound[1])
        if self._server is None and self._tcp_server is None:
            raise OSError(errno.EINVAL, "nothing to bind: no socket, no listen")
        self.ready.set()
        if self.announce:
            print(json.dumps(self._announce_payload()), flush=True)
        for sig in (signal.SIGINT, signal.SIGTERM):
            # RuntimeError/ValueError: not on the main thread (tests
            # run the daemon on a side thread) — shutdown then comes
            # from the protocol, not from signals.
            with contextlib.suppress(
                NotImplementedError, RuntimeError, ValueError
            ):
                loop.add_signal_handler(sig, self.request_shutdown)
        try:
            await self._stopped.wait()
        finally:
            for server in (self._server, self._tcp_server):
                if server is not None:
                    server.close()
                    await server.wait_closed()
            for writer in list(self._writers):
                writer.close()
            for host in self._hosts.values():
                host.close()
            if self.socket_path:
                with contextlib.suppress(OSError):
                    os.unlink(self.socket_path)

    def _announce_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "serving": self.socket_path,
            "pid": os.getpid(),
            "protocol": protocol.PROTOCOL_VERSION,
            "workers": self.workers,
        }
        if self.tcp_address is not None:
            payload["listen"] = protocol.format_address(self.tcp_address)
        return payload

    def request_shutdown(self) -> None:
        """Begin a graceful shutdown (idempotent): drain in-flight
        requests, then stop the loop in :meth:`run`."""
        if self._shutting_down:
            return
        self._shutting_down = True
        asyncio.ensure_future(self._drain_and_stop())

    async def _drain_and_stop(self) -> None:
        pending = [
            task for task in self._inflight if task is not asyncio.current_task()
        ]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._stopped is not None:
            self._stopped.set()

    # ---------------------------------------------------------- connections

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.counters["connections"] += 1
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        tasks: Set[asyncio.Task] = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._handle_line(line, writer, write_lock)
                )
                for registry in (tasks, self._inflight):
                    registry.add(task)
                    task.add_done_callback(registry.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancels connection handlers mid-readline;
            # ending cleanly here keeps shutdown quiet.
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        async def send(line: bytes) -> None:
            # One protocol line at a time per connection, whole lines
            # only — concurrent requests interleave lines, never bytes.
            async with write_lock:
                if writer.is_closing():
                    return
                writer.write(line)
                with contextlib.suppress(ConnectionError):
                    await writer.drain()

        def error(rid, code: str, message: str) -> bytes:
            self.counters["errors"] += 1
            return protocol.encode(
                {
                    "id": rid,
                    "done": True,
                    "error": {"code": code, "message": message},
                }
            )

        try:
            msg = protocol.decode_line(line)
        except protocol.ProtocolError as exc:
            await send(error(None, exc.code, str(exc)))
            return
        rid = msg.get("id")
        op = msg.get("op")
        params = msg.get("params")
        self.counters["requests"] += 1
        obs.incr("serve.requests")
        if self._shutting_down and op != "status":
            await send(
                error(rid, protocol.E_SHUTTING_DOWN, "daemon is shutting down")
            )
            return
        try:
            with obs.span("serve.request", op=str(op)):
                await self._dispatch(rid, op, params, send)
        except protocol.ProtocolError as exc:
            await send(error(rid, exc.code, str(exc)))
        except Exception as exc:  # survived daemon-side bug
            await send(
                error(rid, protocol.E_INTERNAL, f"{type(exc).__name__}: {exc}")
            )

    # ------------------------------------------------------------- dispatch

    async def _dispatch(self, rid, op, params, send) -> None:
        if op == "status":
            await send(
                protocol.encode(
                    {"id": rid, "done": True, "result": self.status()}
                )
            )
        elif op == "shutdown":
            protocol._check_keys("shutdown", protocol._require_params_dict(params))
            await send(
                protocol.encode(
                    {
                        "id": rid,
                        "done": True,
                        "result": {
                            "stopping": True,
                            "inflight": max(0, len(self._inflight) - 1),
                        },
                    }
                )
            )
            self.request_shutdown()
        elif op == "invalidate":
            checked = protocol._require_params_dict(params)
            protocol._check_keys("invalidate", checked)
            config = protocol.config_from_params(checked)
            lock = self._lock_for(config)
            path = checked.get("path")
            loop = asyncio.get_running_loop()

            def drop() -> int:
                with lock:
                    return self._live_host(config).invalidate(path)

            dropped = await loop.run_in_executor(None, drop)
            await send(
                protocol.encode(
                    {"id": rid, "done": True, "result": {"dropped": dropped}}
                )
            )
        elif op in ("check", "prove", "infer"):
            await self._run_batch(rid, op, params, send)
        else:
            raise protocol.ProtocolError(
                protocol.E_UNKNOWN_OP, f"unknown op {op!r}"
            )

    def _lock_for(self, config: api.SessionConfig) -> threading.Lock:
        """The per-configuration request lock (created on first use;
        it outlives host evictions and respawns, so waiters carried
        across a crash serialize correctly)."""
        with self._ws_guard:
            key = config.key()
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = threading.Lock()
            return lock

    def _live_host(self, config: api.SessionConfig):
        """The resident host for ``config`` — spawning one on first
        use, and replacing one whose worker process died while idle
        (counted as a crash; the respawn is invisible to the request).
        Caller holds the configuration's request lock."""
        with self._ws_guard:
            key = config.key()
            host = self._hosts.get(key)
            if host is not None and not host.alive:
                self._hosts.pop(key, None)
                self._note_worker_crash(host)
                host.close()
                host = None
            if host is None:
                host = self._spawn_host(config)
                self._hosts[key] = host
                self._evict_workspaces(keep=key)
            self._hosts.move_to_end(key)
            return host

    def _spawn_host(self, config: api.SessionConfig):
        if self.workers:
            host = ProcessHost(config)
            self.counters["workers_spawned"] += 1
            obs.incr("serve.workers_spawned")
            return host
        return ThreadHost(config)

    def _note_worker_crash(self, host) -> None:
        self.counters["workers_crashed"] += 1
        obs.incr("serve.workers_crashed")

    def _drop_crashed_host(self, config: api.SessionConfig, host) -> None:
        """Forget a host whose worker died mid-request (the caller
        already owns the crash error answer)."""
        with self._ws_guard:
            key = config.key()
            if self._hosts.get(key) is host:
                self._hosts.pop(key)
            self._note_worker_crash(host)
        host.close()

    def _evict_workspaces(self, keep: Tuple) -> None:
        """LRU-evict resident hosts past the cap.  Busy hosts (request
        in flight holding the lock) are skipped — their warm state is
        in use — so the store can transiently exceed the cap rather
        than ever closing a workspace under a running request.  Caller
        holds ``_ws_guard``."""
        excess = len(self._hosts) - self.max_workspaces
        if excess <= 0:
            return
        for key in list(self._hosts):
            if excess <= 0:
                break
            if key == keep:
                continue
            lock = self._locks[key]
            if not lock.acquire(blocking=False):
                continue
            try:
                host = self._hosts.pop(key)
            finally:
                lock.release()
            host.close()
            self.counters["evictions"] += 1
            obs.incr("serve.workspace_evictions")
            excess -= 1

    async def _run_batch(self, rid, op, params, send) -> None:
        config = protocol.config_from_params(params)
        # Validate up front (bad-request beats spawning a worker); the
        # host revalidates on its own side of the process boundary.
        protocol.batch_request(op, params)
        lock = self._lock_for(config)
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()

        def enqueue(kind: str, payload) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, (kind, payload))

        def work() -> None:
            try:
                with lock:
                    host = self._live_host(config)
                    try:
                        payload = host.run(op, params, enqueue)
                    except WorkerCrashed as exc:
                        self._drop_crashed_host(config, host)
                        enqueue(
                            "error", (protocol.E_WORKER_CRASH, str(exc))
                        )
                        return
                # Enforce the workspace cap *before* answering: the
                # creation-time sweep skips busy workspaces, and once
                # the client has the response it may immediately ask
                # ``status`` and expect the cap to hold.
                with self._ws_guard:
                    self._evict_workspaces(keep=config.key())
                enqueue("done", payload)
            except RemoteError as exc:
                enqueue("error", (exc.code, exc.message))
            except input_errors() as exc:
                enqueue("error", (protocol.E_INPUT, str(exc)))
            except Exception as exc:
                enqueue(
                    "error",
                    (
                        protocol.E_INTERNAL,
                        f"{type(exc).__name__}: {exc}",
                    ),
                )

        worker = loop.run_in_executor(None, work)
        try:
            while True:
                kind, payload = await queue.get()
                if kind == "error":
                    code, message = payload
                    self.counters["errors"] += 1
                    await send(
                        protocol.encode(
                            {
                                "id": rid,
                                "done": True,
                                "error": {"code": code, "message": message},
                            }
                        )
                    )
                    return
                # The host encoded the payload; relay it as is.
                await send(protocol.relay(rid, kind, payload))
                if kind == "done":
                    return
        finally:
            await worker

    # --------------------------------------------------------------- status

    def status(self) -> Dict[str, Any]:
        """The ``status`` result payload: daemon facts plus one
        :meth:`repro.api.Workspace.stats` block per live workspace.
        Workspace counters are always on, so incremental behaviour is
        observable without enabling the profiling collector.  Process
        mode additionally reports a ``worker`` block (pid, liveness)
        per workspace — refreshed live when the worker is idle, from
        the parent-side cache when it is busy."""
        from repro import __version__

        with self._ws_guard:
            snapshot = list(self._hosts.items())
        blocks = []
        for key, host in snapshot:
            lock = self._locks.get(key)
            if (
                self.workers
                and lock is not None
                and lock.acquire(blocking=False)
            ):
                try:
                    stats = host.stats_live()
                finally:
                    lock.release()
            else:
                stats = host.stats()
            if self.workers:
                stats = dict(stats)
                stats["worker"] = {"pid": host.pid, "alive": host.alive}
            blocks.append(stats)
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "schema_version": api.SCHEMA_VERSION,
            "version": __version__,
            "pid": os.getpid(),
            "socket": self.socket_path,
            "listen": (
                protocol.format_address(self.tcp_address)
                if self.tcp_address is not None
                else None
            ),
            "workers": self.workers,
            "uptime_s": round(time.monotonic() - self.started, 3),
            "shutting_down": self._shutting_down,
            "inflight": len(self._inflight),
            "counters": dict(self.counters),
            "workspaces": blocks,
        }


def serve_main(
    socket_path: Optional[str],
    listen: Optional[str] = None,
    workers: int = 0,
) -> int:
    """Blocking entry point for ``python -m repro serve``.

    ``listen`` is a ``host:port`` string (port 0 picks an ephemeral
    port); the daemon announces its bound addresses as one JSON line on
    stdout once it is actually accepting, so callers can wait on it.
    """
    try:
        listen_addr = (
            protocol.parse_listen(listen) if listen is not None else None
        )
    except ValueError as exc:
        print(f"error: {exc}", flush=True)
        return 2
    server = ServeServer(
        socket_path, listen=listen_addr, workers=workers, announce=True
    )
    try:
        asyncio.run(server.run())
    except OSError as exc:
        print(f"error: {exc}", flush=True)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - loop handles SIGINT
        pass
    return 0
