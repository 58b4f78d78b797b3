"""The ``repro serve`` wire protocol: newline-delimited JSON, v2.

One request per line::

    {"id": <string|number>, "op": "check", "params": {...}}

The server answers with zero or more *stream* lines followed by exactly
one *done* line, all carrying the request's ``id`` (requests on one
connection may interleave; consumers demultiplex on ``id``)::

    {"id": ..., "stream": "unit",  "unit":  {<UnitResult.to_dict()>}}
    {"id": ..., "stream": "event", "event": {<progress event>}}
    {"id": ..., "done": true, "report": {<Report.to_dict()>}}   # batch ops
    {"id": ..., "done": true, "result": {...}}                  # status &c.
    {"id": ..., "done": true, "error": {"code": ..., "message": ...}}

``report`` payloads are exactly the schema-v1 dictionaries the CLI's
``--format json`` prints (:data:`repro.api.SCHEMA_VERSION`); ``unit``
stream lines are the same per-unit records ``--format jsonl`` emits,
shipped the moment each unit settles.  An unparseable request line is
answered with ``id: null`` and code ``bad-json``.

This module is the *shared* half of the protocol: operation names,
error codes, line encoding, and the validated translation from request
``params`` to :mod:`repro.api` request dataclasses.  Both the server
and any client (including tests) should build on it rather than
hand-rolling message shapes.  Additive evolution only: new params and
new response keys may appear under the same protocol version; removing
or renaming either bumps :data:`PROTOCOL_VERSION`.  Version 2 removed
the ``prove`` params ``session`` and ``explain``; a request that still
sends them is refused as ``bad-request`` (unknown param).  Version 3
removed the ``status`` reply's block of in-flight sharing counters:
the sharing moved into the proof cache, whose ``waits``/``shared``
counters appear in each prove report's ``cache`` block.  Version 4
removed the ``prove`` param ``shard``: every ``jobs`` value runs the
one obligation scheduler, so a request that still sends it is refused
as ``bad-request``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Tuple

from repro import api
from repro.cache import DEFAULT_CACHE_DIR

#: Version of the message shapes above (reported by ``status``).
PROTOCOL_VERSION = 4

#: Default unix-socket path, overridable with ``REPRO_SERVE_SOCKET``.
DEFAULT_SOCKET = ".repro-serve.sock"

#: Environment variable naming the default server *address* for
#: clients (``--server``): either a unix-socket path or a TCP
#: ``host:port`` / ``tcp://host:port`` form.  Takes precedence over
#: ``REPRO_SERVE_SOCKET`` when both are set.
ADDR_ENV = "REPRO_SERVE_ADDR"

#: The operations a daemon understands.
OPS = ("check", "prove", "infer", "status", "invalidate", "shutdown")

# Error codes (the ``code`` field of an error response).
E_BAD_JSON = "bad-json"  # request line is not a JSON object
E_BAD_REQUEST = "bad-request"  # bad/missing params for a known op
E_UNKNOWN_OP = "unknown-op"
E_INPUT = "input-error"  # unreadable/unparseable input files (CLI exit 2)
E_SHUTTING_DOWN = "shutting-down"  # daemon is draining; no new work
E_INTERNAL = "internal"  # daemon-side bug, survived (CLI exit 3)
E_WORKER_CRASH = "worker-crashed"  # workspace worker died (CLI exit 3)

#: Client-side code (never sent by a daemon): the connection died
#: before the ``done`` line.  Shares the error-code namespace so the
#: CLI's exit-code mapping treats all codes uniformly.
E_CONNECTION_LOST = "connection-lost"


class ProtocolError(ValueError):
    """A request the daemon must refuse, with its wire error code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def encode(obj: Dict[str, Any]) -> bytes:
    """One protocol line: compact JSON + newline, UTF-8."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one request line; raises :class:`ProtocolError`
    (``bad-json``) unless it is a JSON object."""
    try:
        msg = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(E_BAD_JSON, f"unparseable request line: {exc}")
    if not isinstance(msg, dict):
        raise ProtocolError(
            E_BAD_JSON, f"request must be a JSON object, got {type(msg).__name__}"
        )
    return msg


# ----------------------------------------------- params -> api requests
#
# A batch request's ``params`` is one flat object: the workspace
# configuration keys (which daemon workspace serves it) plus the
# request keys (what that workspace should do).  Unknown keys are
# rejected — a typo silently ignored would return wrong verdicts.

_CONFIG_KEYS = frozenset(("quals", "no_std", "trust_constants"))
_BATCH_KEYS = frozenset(("files", "keep_going", "jobs", "unit_timeout"))
_OP_KEYS = {
    "check": _BATCH_KEYS | {"flow_sensitive"},
    "prove": _BATCH_KEYS
    | {"qualifier", "time_limit", "retries", "cache", "cache_dir"},
    "infer": _BATCH_KEYS | {"qualifier", "flow_sensitive"},
    "invalidate": frozenset(("path",)),
    "status": frozenset(),
    "shutdown": frozenset(),
}


def _require_params_dict(params: Any) -> Dict[str, Any]:
    if params is None:
        return {}
    if not isinstance(params, dict):
        raise ProtocolError(
            E_BAD_REQUEST,
            f"params must be an object, got {type(params).__name__}",
        )
    return params


def _check_keys(op: str, params: Dict[str, Any]) -> None:
    allowed = _OP_KEYS[op] | _CONFIG_KEYS
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ProtocolError(
            E_BAD_REQUEST, f"unknown param(s) for {op!r}: {', '.join(unknown)}"
        )


def _files(params: Dict[str, Any]) -> Tuple[str, ...]:
    files = params.get("files")
    if (
        not isinstance(files, (list, tuple))
        or not files
        or not all(isinstance(f, str) for f in files)
    ):
        raise ProtocolError(
            E_BAD_REQUEST, "params.files must be a non-empty list of paths"
        )
    return tuple(files)


def _nonnegative(params: Dict[str, Any], key: str, kind, default):
    """A budget param converted by ``kind``; None stays None.  NaN and
    negatives are refused, as the CLI refuses them."""
    value = params.get(key, default)
    if value is None:
        return None
    value = kind(value)
    if not value >= 0:  # also true for NaN
        raise ProtocolError(
            E_BAD_REQUEST, f"params.{key} must be >= 0, got {value!r}"
        )
    return value


def config_from_params(params: Any) -> api.SessionConfig:
    """The workspace configuration a request runs under (requests with
    equal configurations share one daemon workspace)."""
    params = _require_params_dict(params)
    quals = params.get("quals") or ()
    if not isinstance(quals, (list, tuple)) or not all(
        isinstance(q, str) for q in quals
    ):
        raise ProtocolError(
            E_BAD_REQUEST, "params.quals must be a list of file paths"
        )
    return api.SessionConfig(
        quals=tuple(quals),
        no_std=bool(params.get("no_std", False)),
        trust_constants=bool(params.get("trust_constants", False)),
    )


def batch_request(op: str, params: Any):
    """Validate ``params`` and build the :mod:`repro.api` request
    dataclass for one batch op (``check``/``prove``/``infer``)."""
    params = _require_params_dict(params)
    _check_keys(op, params)
    try:
        common = dict(
            files=_files(params),
            keep_going=bool(params.get("keep_going", False)),
            jobs=int(params.get("jobs", 1)),
            unit_timeout=_nonnegative(params, "unit_timeout", float, None),
        )
        if op == "check":
            return api.CheckRequest(
                flow_sensitive=bool(params.get("flow_sensitive", False)),
                **common,
            )
        if op == "prove":
            return api.ProveRequest(
                qualifier=params.get("qualifier"),
                time_limit=_nonnegative(params, "time_limit", float, 45.0),
                retries=_nonnegative(params, "retries", int, 0),
                cache=bool(params.get("cache", True)),
                cache_dir=str(params.get("cache_dir", DEFAULT_CACHE_DIR)),
                **common,
            )
        if op == "infer":
            qualifier = params.get("qualifier")
            if not isinstance(qualifier, str) or not qualifier:
                raise ProtocolError(
                    E_BAD_REQUEST, "infer requires params.qualifier"
                )
            return api.InferRequest(
                qualifier=qualifier,
                flow_sensitive=bool(params.get("flow_sensitive", False)),
                **common,
            )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ProtocolError):
            raise
        raise ProtocolError(E_BAD_REQUEST, f"bad params for {op!r}: {exc}")
    raise ProtocolError(E_UNKNOWN_OP, f"not a batch op: {op!r}")


# ------------------------------------------------------------- addresses
#
# A daemon address is either a unix-socket path or a TCP endpoint; the
# client, the CLI and the ``serve`` subcommand all accept both forms:
#
#   .repro-serve.sock      unix-socket path (anything with a path
#                          separator, or no usable host:port shape)
#   host:1234              TCP — host plus an all-digits port
#   tcp://host:1234        TCP, explicit scheme
#   [::1]:1234             TCP, bracketed IPv6 host
#
# The one ambiguity — a *relative* file name that happens to look like
# ``name:123`` — is resolved in favor of TCP; spell such a socket path
# ``./name:123``.


def _host_port(text: str) -> Tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"not a host:port address: {text!r}")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]  # bracketed IPv6 literal
    return (host or "127.0.0.1", int(port))


def parse_address(address: str):
    """Classify one daemon address: ``("unix", path)`` or
    ``("tcp", host, port)``."""
    if address.startswith("tcp://"):
        host, port = _host_port(address[len("tcp://"):])
        return ("tcp", host, port)
    if "/" not in address and not address.startswith("."):
        try:
            host, port = _host_port(address)
        except ValueError:
            return ("unix", address)
        return ("tcp", host, port)
    return ("unix", address)


def parse_listen(listen: str) -> Tuple[str, int]:
    """Parse a ``--listen`` value into ``(host, port)`` (port 0 asks
    the kernel for an ephemeral port)."""
    if listen.startswith("tcp://"):
        listen = listen[len("tcp://"):]
    return _host_port(listen)


def format_address(address: Tuple[str, int]) -> str:
    """Render ``(host, port)`` back into the ``host:port`` form
    clients accept (IPv6 hosts get their brackets back)."""
    host, port = address
    if ":" in host:
        host = f"[{host}]"
    return f"{host}:{port}"


def default_server_address():
    """The client-side default daemon address:
    ``$REPRO_SERVE_ADDR``, else ``$REPRO_SERVE_SOCKET``, else None."""
    import os

    return os.environ.get(ADDR_ENV) or os.environ.get("REPRO_SERVE_SOCKET") or None
