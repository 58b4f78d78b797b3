"""Synchronous client for the ``repro serve`` daemon.

:func:`connect` opens the daemon's socket — a unix-socket path or a
TCP ``host:port`` / ``tcp://host:port`` address, see
:func:`repro.serve.protocol.parse_address` — and returns a
:class:`ServeClient`; :meth:`ServeClient.request` sends one operation
and blocks until its ``done`` line, invoking ``on_unit``/``on_event``
callbacks for stream lines as they arrive — the same shape as the
``on_result``/``on_event`` callbacks of the in-process
:mod:`repro.api`, which is what lets the CLI's ``--server`` flag
produce identical output either way::

    from repro.serve import connect

    with connect(".repro-serve.sock") as client:
        final = client.request("check", {"files": ["a.c"]})
        report = repro.api.report_from_dict(final["report"])

A connection that dies before the ``done`` line raises
``ServeError("connection-lost", ...)`` with :attr:`ServeError.
mid_stream` telling whether any stream line had already reached a
callback — the CLI uses that to decide between a clean in-process
fallback (nothing printed yet) and a hard exit (output already
streamed; re-running would duplicate it).
"""

from __future__ import annotations

import json
import socket
from typing import Any, Callable, Dict, Optional

from repro.serve import protocol


class ServeError(Exception):
    """An error response from the daemon (or a broken conversation)."""

    def __init__(self, code: str, message: str, mid_stream: bool = False):
        super().__init__(message)
        self.code = code
        #: True when at least one stream line of the failed request had
        #: already been delivered to an ``on_unit``/``on_event``
        #: callback — output may already be on the caller's terminal.
        self.mid_stream = mid_stream

    def __str__(self) -> str:
        return f"{self.code}: {super().__str__()}"


class ServeClient:
    """One connection to a daemon; requests run one at a time."""

    def __init__(self, sock: socket.socket, address: str):
        self._sock = sock
        self._reader = sock.makefile("r", encoding="utf-8", newline="\n")
        self.address = address
        self._next_id = 0

    # Kept for callers that predate TCP support.
    @property
    def socket_path(self) -> str:
        return self.address

    def request(
        self,
        op: str,
        params: Optional[Dict[str, Any]] = None,
        on_unit: Optional[Callable[[dict], None]] = None,
        on_event: Optional[Callable[[dict], None]] = None,
    ) -> Dict[str, Any]:
        """Send one request; stream lines hit the callbacks as they
        arrive; returns the final ``done`` message.  Raises
        :class:`ServeError` on an error response, or with code
        ``connection-lost`` when the daemon goes away mid-request.

        A stream with no callback is skipped by its line prefix, never
        decoded."""
        self._next_id += 1
        rid = f"c{self._next_id}"
        message: Dict[str, Any] = {"id": rid, "op": op}
        if params is not None:
            message["params"] = params
        delivered = False
        unread = tuple(
            protocol.stream_prefix(rid, stream)
            for stream, callback in (("unit", on_unit), ("event", on_event))
            if callback is None
        )

        def lost(reason: str) -> ServeError:
            return ServeError(
                protocol.E_CONNECTION_LOST, reason, mid_stream=delivered
            )

        try:
            self._sock.sendall(protocol.encode(message))
        except OSError as exc:
            raise lost(f"failed to send request: {exc}")
        while True:
            try:
                line = self._reader.readline()
            except OSError as exc:
                raise lost(f"connection broke mid-request: {exc}")
            if not line:
                raise lost("daemon closed the connection mid-request")
            if not line.endswith("\n"):
                # A partial final line: the daemon died mid-write.
                raise lost("daemon connection dropped mid-line")
            if line.startswith(unread):
                continue
            try:
                response = json.loads(line)
            except ValueError:
                raise lost("daemon sent an unparseable line and went away")
            if response.get("id") != rid:
                continue  # a line for some other request on this socket
            stream = response.get("stream")
            if stream == "unit":
                if on_unit is not None:
                    on_unit(response.get("unit") or {})
                    delivered = True
                continue
            if stream == "event":
                if on_event is not None:
                    on_event(response.get("event") or {})
                    delivered = True
                continue
            if response.get("done"):
                error = response.get("error")
                if error:
                    raise ServeError(
                        error.get("code", protocol.E_INTERNAL),
                        error.get("message", ""),
                        mid_stream=delivered,
                    )
                return response

    def status(self) -> Dict[str, Any]:
        """The daemon's ``status`` payload (see docs/serve.md)."""
        return self.request("status")["result"]

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to drain in-flight work and stop."""
        return self.request("shutdown")["result"]

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect(address: str, timeout: float = 10.0) -> ServeClient:
    """Open a connection to the daemon at ``address`` (unix-socket
    path, ``host:port``, or ``tcp://host:port``).

    ``timeout`` bounds the *connect* only; established requests block
    until their ``done`` line (a long prove is supposed to take long).
    Raises :class:`OSError` when nothing is listening — callers that
    want in-process fallback catch that.
    """
    parsed = protocol.parse_address(address)
    if parsed[0] == "tcp":
        sock = socket.create_connection(parsed[1:], timeout=timeout)
        sock.settimeout(None)
        return ServeClient(sock, address)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(parsed[1])
    except OSError:
        sock.close()
        raise
    sock.settimeout(None)
    return ServeClient(sock, address)
