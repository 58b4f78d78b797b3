"""Checker-as-a-service: the ``repro serve`` daemon and its client.

A long-lived process (:mod:`repro.serve.server`) keeps
:class:`repro.api.Workspace` state — parsed units, per-function
fingerprints, the warm proof cache — resident and serves
``check``/``prove``/``infer``/``status``/``invalidate``/``shutdown``
requests over a unix socket and/or a TCP ``--listen host:port``
endpoint, so an edit loop pays only for the functions that actually
changed.  With ``--workers N`` each configuration's workspace lives in
a persistent worker *process* (:mod:`repro.serve.workers`), so
concurrent requests use multiple cores; identical in-flight
obligations are single-flighted by the proof cache they share
(:mod:`repro.cache.store`).  The wire format is newline-delimited
JSON (:mod:`repro.serve.protocol`); responses embed the same schema-v1
``Report.to_dict()`` payloads the CLI prints, and unit results stream
back as they settle.

Use :func:`repro.serve.client.connect` (re-exported here) to talk to a
running daemon, or pass ``--server <address>`` to ``repro check`` /
``prove`` / ``infer``.  See docs/serve.md for the protocol spec.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.serve.client": ("ServeClient", "ServeError", "connect"),
    "repro.serve.server": ("ServeServer", "serve_main"),
    "repro.serve.protocol": (
        "parse_address", "DEFAULT_SOCKET", "PROTOCOL_VERSION",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
