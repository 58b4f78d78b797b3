"""Pipeline observability: structured tracing and metrics.

This package is the single switchboard for "where does the time go?"
questions across the whole pipeline — cfront parse, CIL lowering,
typechecking, dataflow solving, obligation generation, the prover's
theory cores, the proof cache, and batch pool workers.  See
docs/observability.md for the span model and the counter naming
convention.

Usage (every call site follows the same pattern)::

    from repro import obs

    with obs.span("typecheck", unit=path):
        ...                       # child spans nest automatically

    with obs.timer("prover.sat_ms"):   # hot path: counter, no span
        model = sat.solve(...)

    obs.incr("prover.instances", 3)

Profiling is **off by default and free when off**: every entry point
checks one module-level boolean and returns a shared no-op before any
allocation.  ``repro --profile`` / ``--trace-out`` (or
``profile=True`` on an API request) turn it on for the invocation.

The collector is process-wide, thread-safe, and fork-aware; pool
workers ship their span subtree back through the harness result pipe,
and the parent grafts it into its own tree (:func:`merge`).
"""

from __future__ import annotations

import json
from typing import Optional

from repro.obs.collector import NULL_SPAN, Collector, Span

__all__ = [
    "Collector",
    "Span",
    "enabled",
    "enable",
    "disable",
    "reset",
    "span",
    "timer",
    "incr",
    "add_time",
    "count_max",
    "mark",
    "since",
    "snapshot",
    "merge",
    "build_timings",
    "write_trace",
]

#: The global gate.  Read directly by the helpers below (one global
#: load on the disabled fast path); mutate only via enable()/disable().
_ENABLED = False

_collector = Collector()


def enabled() -> bool:
    """Is collection currently on?"""
    return _ENABLED


def enable() -> None:
    """Turn collection on (idempotent; keeps already-collected data)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn collection off.  Collected data is retained (so a trace
    file can still be written); use :func:`reset` to drop it."""
    global _ENABLED
    _ENABLED = False


def reset() -> None:
    """Drop all collected spans and counters."""
    global _collector
    _collector = Collector()


def current() -> Collector:
    """The live collector (for tests and advanced consumers)."""
    return _collector


# ------------------------------------------------------------- recording


def span(name: str, **attrs):
    """Open a nested span; a no-op singleton when disabled."""
    if not _ENABLED:
        return NULL_SPAN
    return _collector.span(name, attrs)


def timer(name: str):
    """Time one block into counter ``name`` (use a ``*_ms`` name);
    a no-op singleton when disabled."""
    if not _ENABLED:
        return NULL_SPAN
    return _collector.timer(name)


def incr(name: str, value: float = 1) -> None:
    """Add ``value`` to counter ``name``."""
    if _ENABLED:
        _collector.add(name, value)


def add_time(name: str, ms: float) -> None:
    """Add already-measured milliseconds to counter ``name``."""
    if _ENABLED:
        _collector.add(name, ms)


def count_max(name: str, value: float) -> None:
    """Record a high-water mark (``*_peak`` names take max on merge)."""
    if _ENABLED:
        _collector.count_max(name, value)


# ----------------------------------------------------- snapshot plumbing


def mark() -> dict:
    """Baseline for :func:`since` (also valid when disabled)."""
    return _collector.mark()


def since(marker: dict) -> dict:
    """Everything collected after ``marker``."""
    return _collector.since(marker)


def snapshot() -> dict:
    """The full collected state, JSON-ready."""
    return _collector.snapshot()


def merge(payload: dict) -> None:
    """Graft a child snapshot (e.g. shipped from a pool worker) into
    the live collector."""
    _collector.merge(payload)


def write_trace(path: str, command: str = "") -> None:
    """Write the collected trace to ``path`` as JSON (the payload of
    ``--trace-out``)."""
    payload = {
        "schema_version": 1,
        "command": command,
        **snapshot(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -------------------------------------------------------------- reporting

#: Span names folded into the ``phases`` section of a timings block,
#: in pipeline order (other spans still appear in ``--trace-out``).
PHASE_SPANS = (
    "parse",
    "parse_quals",
    "lower",
    "typecheck",
    "infer",
    "obligations",
    "prove",
    "minimize",
)


def _walk(span_dict: dict):
    yield span_dict
    for child in span_dict.get("children", ()):
        yield from _walk(child)


def build_timings(slice_: dict, total_ms: Optional[float] = None) -> dict:
    """Aggregate one collected slice (from :func:`since` or
    :func:`snapshot`) into the additive ``timings`` block of the
    schema-v1 JSON reports.

    Shape (all times in milliseconds)::

        {
          "total_ms": ...,
          "phases":  {"parse": {"ms": ..., "count": ...}, ...},
          "prover":  {"calls", "proofs_ms", "sat_ms", "theory_ms",
                      "euf_ms", "linarith_ms", "explain_ms", "quant_ms",
                      "ematch_rounds", "instances", "conflicts",
                      "cores", "explain_fallbacks",
                      "sat_calls", "clauses_peak"},
          "cache":   {"hits", "misses", "stores"},
          "counters": {...every raw counter...},
        }

    ``euf_ms`` is derived: the Nelson–Oppen combination time minus the
    linear-arithmetic share (congruence closure has no single choke
    point worth timing separately).
    """
    counters = dict(slice_.get("counters", {}))
    phases: dict = {}
    for root in slice_.get("spans", ()):
        for node in _walk(root):
            name = node.get("name")
            if name in PHASE_SPANS:
                entry = phases.setdefault(name, {"ms": 0.0, "count": 0})
                entry["ms"] += node.get("ms", 0.0)
                entry["count"] += 1
    for entry in phases.values():
        entry["ms"] = round(entry["ms"], 3)

    def c(name: str, default: float = 0) -> float:
        return counters.get(name, default)

    theory_ms = c("prover.theory_ms")
    linarith_ms = c("prover.linarith_ms")
    prover = {
        "calls": int(c("prover.calls")),
        "proofs_ms": round(c("prover.proofs_ms"), 3),
        "sat_calls": int(c("prover.sat_calls")),
        "sat_ms": round(c("prover.sat_ms"), 3),
        "theory_ms": round(theory_ms, 3),
        "linarith_ms": round(linarith_ms, 3),
        "euf_ms": round(max(0.0, theory_ms - linarith_ms), 3),
        # Explanation overhead: core ordering and the cold check that
        # verifies each core (a sub-interval of theory_ms).
        "explain_ms": round(c("prover.explain_ms"), 3),
        "quant_ms": round(c("prover.quant_ms"), 3),
        "ematch_rounds": int(c("prover.ematch_rounds")),
        "instances": int(c("prover.instances")),
        "conflicts": int(c("prover.conflicts")),
        # Learned conflict cores, and the checks whose explained core
        # failed verification (the full literal list was checked cold).
        "cores": int(c("prover.cores")),
        "explain_fallbacks": int(c("prover.explain_fallbacks")),
        "clauses_peak": int(c("prover.clauses_peak")),
    }
    cache = {
        "hits": int(c("cache.hits")),
        "misses": int(c("cache.misses")),
        "stores": int(c("cache.stores")),
    }
    out = {
        "phases": dict(sorted(phases.items())),
        "prover": prover,
        "cache": cache,
        "counters": {
            name: (round(v, 3) if isinstance(v, float) else v)
            for name, v in sorted(counters.items())
        },
    }
    if total_ms is not None:
        out["total_ms"] = round(total_ms, 3)
    return out


def format_timings(timings: dict) -> str:
    """Human-readable rendering of a timings block (the ``--profile``
    text-mode summary, printed to stderr)."""
    lines = ["profile:"]
    if "total_ms" in timings:
        lines.append(f"  total        {timings['total_ms']:10.1f} ms")
    for name in PHASE_SPANS:
        entry = timings.get("phases", {}).get(name)
        if entry:
            lines.append(
                f"  {name:<12} {entry['ms']:10.1f} ms  (x{entry['count']})"
            )
    prover = timings.get("prover", {})
    if prover.get("calls"):
        lines.append(
            f"  prover       {prover['proofs_ms']:10.1f} ms  "
            f"({prover['calls']} proof(s))"
        )
        for key in ("sat_ms", "euf_ms", "linarith_ms", "explain_ms", "quant_ms"):
            lines.append(
                f"    {key[:-3]:<10} {prover.get(key, 0.0):10.1f} ms"
            )
        lines.append(
            f"    rounds={prover['ematch_rounds']} "
            f"instances={prover['instances']} "
            f"conflicts={prover['conflicts']} "
            f"cores={prover.get('cores', 0)} "
            f"(fallbacks={prover.get('explain_fallbacks', 0)}) "
            f"clauses_peak={prover['clauses_peak']}"
        )
    cache = timings.get("cache", {})
    if cache.get("hits") or cache.get("misses"):
        lines.append(
            f"  cache        {cache.get('hits', 0)} hit(s), "
            f"{cache.get('misses', 0)} miss(es), "
            f"{cache.get('stores', 0)} stored"
        )
    return "\n".join(lines)
