"""Command-line interface.

    python -m repro check FILE.c [MORE.c ...] [--quals DEFS.qual] [--flow-sensitive]
    python -m repro prove DEFS.qual [MORE.qual ...] [--qualifier NAME] [--no-cache]
    python -m repro run FILE.c [--entry MAIN]
    python -m repro show-ir FILE.c
    python -m repro infer FILE.c [MORE.c ...] --qualifier NAME [--quals DEFS.qual]
    python -m repro cache stats|clear [--cache-dir DIR]
    python -m repro serve [--socket PATH] [--listen HOST:PORT]
                          [--workers N] [--status] [--stop]

``check``, ``prove`` and ``infer`` also take ``--server ADDR`` (or
``$REPRO_SERVE_ADDR`` / ``$REPRO_SERVE_SOCKET``; a unix-socket path or
``host:port``) to proxy the command to a running ``serve`` daemon —
warm state, function-granularity incremental re-checking, identical
output — falling back to in-process execution when nothing is
listening (see docs/serve.md).

Every command body is a thin adapter over :mod:`repro.api` — the
stable library facade — plus terminal formatting; programmatic users
should call the facade directly, never this module.

``check``, ``prove`` and ``infer`` are batch commands: they accept any
number of input files, and every file (and every proof obligation) runs
in an isolated unit-of-work so one bad input degrades to a structured
verdict instead of aborting the run.  Shared batch flags:

* ``--keep-going`` — continue past failing units (the default stops
  dispatching new units after the first ERROR-or-worse verdict);
* ``--jobs N`` — fan units out over a process pool with preemptive
  per-child deadlines;
* ``--unit-timeout S`` — wall-clock budget per unit;
* ``--format json`` — machine-readable per-unit report (the payload is
  ``repro.api.Report.to_dict()``, stamped with ``schema_version``);
* ``--format jsonl`` — streaming variant: one ``record: "unit"`` line
  per unit *as it settles*, then one ``record: "summary"`` line —
  consumers see progress live and an interrupted run still ends in a
  parseable stream (see docs/robustness.md);
* ``--inject-faults SPEC`` — deterministic chaos testing: seeded
  worker kills/stalls, dropped result pipes, cache corruption, slow
  provers (see ``repro.faults``; also via ``REPRO_FAULTS``).

``prove`` consults a persistent content-addressed proof cache (default
``.repro-cache/``; see docs/caching.md): settled obligations are
replayed instead of re-proved, so warm re-runs are near-instant.
``--no-cache`` disables it, ``--cache-dir`` relocates it.

Exit codes (documented contract, see docs/robustness.md): 0 clean,
1 qualifier warnings / unsound rules found, 2 input error or timeout,
3 an internal crash was survived.  Qualifier definition files use the
paper's rule language; ``--quals`` may be repeated — files compose in
order, later definitions overriding earlier ones of the same name —
and without it the standard library (pos/neg/nonzero/nonnull/tainted/
untainted/unique/unaliased) is loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro import api, faults, obs
from repro.cache import DEFAULT_CACHE_DIR
from repro.harness import batch


def _config_params(args) -> dict:
    """The command's qualifier configuration, keyed by the
    :class:`repro.api.SessionConfig` fields."""
    return {
        "quals": tuple(getattr(args, "quals", None) or ()),
        "no_std": getattr(args, "no_std", False),
        "trust_constants": getattr(args, "trust_constants", False),
    }


def _workspace(args) -> api.Workspace:
    """A one-shot workspace for the command's qualifier configuration."""
    return api.Workspace(
        api.SessionConfig(**_config_params(args)), incremental=False
    )


def _print_unit_header(path: str, many: bool) -> None:
    if many:
        print(f"== {path}")


def _maybe_note_interrupt(report: api.Report) -> None:
    if report.batch.interrupted:
        print(
            "interrupted: partial report (remaining units skipped)",
            file=sys.stderr,
        )


# ------------------------------------------------------- JSONL streaming


def _jsonl_unit_record(command: str, unit: dict) -> None:
    """One ``record: "unit"`` line, flushed immediately (shared by the
    in-process streamer and the ``--server`` proxy, which receives the
    same dicts over the wire)."""
    record = {
        "schema_version": api.SCHEMA_VERSION,
        "command": command,
        "record": "unit",
        **unit,
    }
    print(json.dumps(record), flush=True)


def _jsonl_unit_streamer(command: str):
    """``--format jsonl``: one compact schema-v1 record per unit, written
    (and flushed) the moment the unit settles.  With ``--keep-going``
    that is completion order, which under ``--jobs`` is not input
    order (consumers key on ``unit``); without it, input order."""

    def on_result(result: batch.UnitResult) -> None:
        _jsonl_unit_record(command, result.to_dict())

    return on_result


def _jsonl_summary(report: api.Report) -> None:
    """The stream's final line: the full report payload minus the
    per-unit records already emitted."""
    payload = report.to_dict()
    payload.pop("units", None)
    record = {
        "schema_version": payload.pop("schema_version"),
        "command": payload.pop("command"),
        "record": "summary",
        **payload,
    }
    print(json.dumps(record), flush=True)


# ------------------------------------------------------- batch commands

#: The request each batch command builds from its params.
_REQUESTS = {
    "check": api.CheckRequest,
    "prove": api.ProveRequest,
    "infer": api.InferRequest,
}


def _request_params(args, op: str) -> dict:
    """The command's request, keyed by the fields of its api request
    (:data:`_REQUESTS`).  With :func:`_config_params` it makes the
    serve-protocol ``params`` object (see repro/serve/protocol.py), so
    a served and an in-process run start from the same request."""
    params = {
        "files": tuple(args.files),
        "keep_going": args.keep_going,
        "jobs": args.jobs,
        "unit_timeout": args.unit_timeout,
    }
    if op in ("check", "infer"):
        params["flow_sensitive"] = args.flow_sensitive
    if op == "infer":
        params["qualifier"] = args.qualifier
    if op == "prove":
        params.update(
            qualifier=args.qualifier,
            time_limit=args.time_limit,
            retries=args.retries,
            cache=args.cache,
            cache_dir=args.cache_dir,
        )
    return params


def cmd_batch(args) -> int:
    """``check``, ``prove`` and ``infer``: proxy to the daemon at
    ``--server``, or run in process; the report renders the same."""
    op = args.command
    params = _request_params(args, op)
    if getattr(args, "server", None):
        code = _run_on_server(args, op, {**_config_params(args), **params})
        if code is not None:
            return code
    stream = _jsonl_unit_streamer(op) if args.format == "jsonl" else None
    try:
        with _workspace(args) as ws:
            report = getattr(ws, op)(_REQUESTS[op](**params), on_result=stream)
    except api.UnknownQualifierError as exc:  # infer's --qualifier
        print(str(exc), file=sys.stderr)
        return 2
    return _RENDERERS[op](args, report)


def _run_on_server(args, op: str, params: dict) -> Optional[int]:
    """Proxy one batch command to the daemon at ``args.server``.

    Returns the exit code, or ``None`` to fall back to in-process
    execution (nothing listening on the socket).  Output is identical
    either way: the daemon's final payload is rebuilt into a
    :class:`repro.api.Report` and rendered by the same formatter the
    in-process path uses; ``--format jsonl`` unit records stream as
    the daemon emits them."""
    from repro.serve import client as serve_client

    try:
        client = serve_client.connect(args.server)
    except OSError:
        print(
            f"note: no server at {args.server}; running in-process",
            file=sys.stderr,
        )
        return None
    on_unit = (
        (lambda unit: _jsonl_unit_record(op, unit))
        if args.format == "jsonl"
        else None
    )
    try:
        final = client.request(op, params, on_unit=on_unit)
    except serve_client.ServeError as exc:
        if exc.code == "connection-lost" and not exc.mid_stream:
            # The daemon went away before anything streamed: an
            # in-process rerun produces exactly the output the user
            # asked for, with nothing duplicated.
            print(
                f"note: lost connection to {args.server}; "
                "running in-process",
                file=sys.stderr,
            )
            return None
        print(f"error: {exc}", file=sys.stderr)
        # Daemon-side breakage — including a crashed workspace worker
        # or a connection lost after output already streamed — is exit
        # 3 (the caller must not trust partial output); bad requests
        # and bad input stay exit 2.
        return (
            3
            if exc.code in ("internal", "worker-crashed", "connection-lost")
            else 2
        )
    finally:
        client.close()
    report = api.report_from_dict(final["report"])
    return _RENDERERS[op](args, report)


def _render_check(args, report: api.Report) -> int:
    if args.format == "jsonl":
        _jsonl_summary(report)
        return report.exit_code
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return report.exit_code
    many = len(args.files) > 1
    for result in report.results:
        _print_unit_header(result.unit, many)
        if result.verdict == batch.SKIPPED:
            print("skipped (earlier unit failed; use --keep-going)")
            continue
        warnings = 0
        for diag in result.diagnostics:
            if diag.get("severity") == "error":
                print(diag["text"], file=sys.stderr)
            else:
                print(diag["text"])
                warnings += 1
        if result.verdict in (batch.CRASH, batch.TIMEOUT) or (
            result.verdict == batch.ERROR and not result.diagnostics
        ):
            print(f"error: {result.error}", file=sys.stderr)
        checks = result.detail.get("runtime_checks", 0)
        if checks:
            print(f"{checks} runtime check(s) inserted for casts")
        print(f"{warnings} qualifier warning(s)")
    if many:
        print(report.summary())
    _maybe_note_interrupt(report)
    return report.exit_code


def _render_prove(args, report: api.Report) -> int:
    if args.format == "jsonl":
        _jsonl_summary(report)
        return report.exit_code
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return report.exit_code
    many = len(args.files) > 1
    for result in report.results:
        _print_unit_header(result.unit, many)
        if result.verdict == batch.SKIPPED:
            print("skipped (earlier unit failed; use --keep-going)")
            continue
        if result.error:
            print(f"error: {result.error}", file=sys.stderr)
        for entry in result.detail.get("qualifiers", ()):
            print(entry["summary"])
    if many:
        print(report.summary())
    _maybe_note_interrupt(report)
    cache_meta = report.batch.meta.get("cache", {})
    if cache_meta.get("enabled"):
        print(
            f"proof cache: {cache_meta.get('hits', 0)} hit(s), "
            f"{cache_meta.get('misses', 0)} miss(es), "
            f"{cache_meta.get('stores', 0)} stored, "
            f"{cache_meta.get('stale', 0)} stale "
            f"({cache_meta.get('dir')})"
        )
    return report.exit_code


def cmd_run(args) -> int:
    from repro.semantics.csem import CRuntimeError

    try:
        with _workspace(args) as ws:
            value, output = ws.run(
                args.file, entry=args.entry, args=list(args.args)
            )
    except CRuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write("".join(output))
    print(f"[exit value: {value}]")
    return 0


def cmd_show_ir(args) -> int:
    with _workspace(args) as ws:
        print(ws.show_ir(args.file))
    return 0


def _render_infer(args, report: api.Report) -> int:
    if args.format == "jsonl":
        _jsonl_summary(report)
        return report.exit_code
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return report.exit_code
    many = len(args.files) > 1
    for result in report.results:
        _print_unit_header(result.unit, many)
        if result.verdict == batch.SKIPPED:
            print("skipped (earlier unit failed; use --keep-going)")
            continue
        if result.error:
            print(f"error: {result.error}", file=sys.stderr)
            continue
        print(result.detail["summary"])
        for entity in result.detail["entities"]:
            print(f"  {args.qualifier} at {entity}")
    if many:
        print(report.summary())
    _maybe_note_interrupt(report)
    return report.exit_code


#: Shared by the in-process and ``--server`` paths: both end with a
#: Report and the same terminal rendering.
_RENDERERS = {
    "check": lambda args, report: _render_check(args, report),
    "prove": lambda args, report: _render_prove(args, report),
    "infer": lambda args, report: _render_infer(args, report),
}


def cmd_serve(args) -> int:
    from repro.harness.supervisor import env_knob
    from repro.serve import client as serve_client
    from repro.serve import server as serve_server
    from repro.serve.protocol import DEFAULT_SOCKET

    if args.socket is None:
        args.socket = os.environ.get("REPRO_SERVE_SOCKET") or DEFAULT_SOCKET
    if args.workers is None:
        args.workers = env_knob("REPRO_SERVE_WORKERS", 0, int)
    if args.status or args.stop:
        # --status/--stop talk to a running daemon: over TCP when
        # --listen is given, else over the unix socket.
        address = args.listen or args.socket
        try:
            client = serve_client.connect(address)
        except OSError as exc:
            print(f"error: no server at {address}: {exc}", file=sys.stderr)
            return 2
        try:
            if args.status:
                print(json.dumps(client.status(), indent=2))
            else:
                print(json.dumps(client.shutdown()))
        except serve_client.ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            client.close()
        return 0
    return serve_server.serve_main(
        args.socket, listen=args.listen, workers=args.workers
    )


def cmd_difftest(args) -> int:
    with _workspace(args) as ws:
        report = ws.difftest(
            api.DifftestRequest(
                seed=args.seed,
                count=args.count,
                budget=args.budget,
                time_limit=args.time_limit,
                out_dir=args.out_dir or "",
                replay=tuple(args.replay),
                keep_going=args.keep_going,
                jobs=args.jobs,
                unit_timeout=args.unit_timeout,
            ),
            on_result=(
                _jsonl_unit_streamer("difftest")
                if args.format == "jsonl"
                else None
            ),
        )
    if args.format == "jsonl":
        _jsonl_summary(report)
        return report.exit_code
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return report.exit_code
    meta = report.batch.meta["difftest"]
    errored = 0
    for result in report.results:
        if result.error:
            errored += 1
            print(f"error: {result.unit}: {result.error}", file=sys.stderr)
        for diag in result.diagnostics:
            print(diag["text"])
    for artifact in meta["artifacts"]:
        print(f"artifact: {artifact}")
    skipped = meta["cases_skipped_budget"]
    ran = meta["count"] - skipped - errored
    print(
        f"difftest: {ran} case(s) run (seed {meta['seed']}), "
        f"{meta['findings']} disagreement(s)"
        + (f", {skipped} skipped on budget" if skipped else "")
        + (f", {errored} unit error(s)" if errored else "")
    )
    return report.exit_code


def cmd_cache(args) -> int:
    if args.cache_command == "clear":
        removed = api.cache_clear(cache_dir=args.cache_dir)
        print(f"proof cache cleared: {removed} entr(ies) removed")
        return 0
    stats = api.cache_stats(cache_dir=args.cache_dir)
    if args.format == "json":
        print(json.dumps(stats, indent=2))
        return 0
    print(f"proof cache at {stats['path']}")
    print(f"  entries:     {stats['entries']}")
    print(f"  size:        {stats['size_bytes']} bytes")
    print(f"  disk tier:   {'ok' if stats['disk'] else 'DISABLED (corrupt or unwritable)'}")
    lifetime = stats["lifetime"]
    print(
        "  lifetime:    "
        f"{lifetime['hits']} hit(s), {lifetime['misses']} miss(es), "
        f"{lifetime['stores']} stored, {lifetime['stale']} stale, "
        f"{lifetime['evictions']} evicted, {lifetime['errors']} error(s)"
    )
    return 0


def _nonnegative(kind):
    """argparse type for a budget: a ``kind`` (int or float) >= 0.
    NaN would silently mean "unbounded" and a negative value "never
    try", so both are usage errors (``inf`` stays valid)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = -1
        if not value >= 0:  # also true for NaN
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Semantic type qualifiers: check, prove, run.",
    )
    import repro

    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {repro.__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_flow=True):
        p.add_argument(
            "--quals",
            action="append",
            metavar="FILE",
            help="qualifier definition file; may be repeated — files "
            "compose in order, later names overriding earlier ones",
        )
        p.add_argument(
            "--no-std",
            action="store_true",
            help="do not load the standard qualifier library",
        )
        p.add_argument(
            "--trust-constants",
            action="store_true",
            help="treat constants as untainted (section 6.3)",
        )
        if with_flow:
            p.add_argument(
                "--flow-sensitive",
                action="store_true",
                help="enable guard refinement (section 8 extension)",
            )

    def profile_flags(p):
        p.add_argument(
            "--profile",
            action="store_true",
            help="collect phase/prover/cache timings: summary on stderr, "
            "additive `timings` key in --format json reports",
        )
        p.add_argument(
            "--trace-out",
            metavar="FILE",
            default=None,
            help="write the full span/counter trace to FILE as JSON "
            "(implies profiling)",
        )

    def server_flag(p):
        # The environment default is read here rather than through
        # repro.serve.protocol.default_server_address, so a run without
        # a daemon never loads the serve layer.
        p.add_argument(
            "--server",
            metavar="ADDR",
            default=os.environ.get("REPRO_SERVE_ADDR")
            or os.environ.get("REPRO_SERVE_SOCKET"),
            help="proxy this command to a running `repro serve` daemon "
            "at ADDR — a unix-socket path, host:port, or tcp://host:port "
            "(default: $REPRO_SERVE_ADDR or $REPRO_SERVE_SOCKET); falls "
            "back to in-process execution when nothing is listening, "
            "with identical output either way",
        )

    def batch_flags(p):
        p.add_argument(
            "--keep-going",
            action="store_true",
            help="continue past units that fail (ERROR/TIMEOUT/CRASH)",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="run units in N worker processes (with per-child deadlines)",
        )
        p.add_argument(
            "--unit-timeout",
            type=_nonnegative(float),
            default=None,
            metavar="SECONDS",
            help="wall-clock budget per unit of work",
        )
        p.add_argument(
            "--format",
            choices=("text", "json", "jsonl"),
            default="text",
            help="report format (json: structured per-unit verdicts; "
            "jsonl: one record per unit streamed as it settles, then a "
            "summary record)",
        )
        p.add_argument(
            "--inject-faults",
            default=None,
            metavar="SPEC",
            help="deterministic chaos testing, e.g. 'seed=0,kill=0.3' "
            "(sites: kill, stall, drop_pipe, corrupt_cache, "
            "slow_prover; also via REPRO_FAULTS)",
        )

    p_check = sub.add_parser("check", help="qualifier-check C files")
    p_check.add_argument("files", nargs="+", metavar="file")
    common(p_check)
    batch_flags(p_check)
    profile_flags(p_check)
    server_flag(p_check)
    p_check.set_defaults(fn=cmd_batch)

    p_prove = sub.add_parser(
        "prove", help="soundness-check qualifier definitions"
    )
    p_prove.add_argument("files", nargs="+", metavar="file")
    p_prove.add_argument("--qualifier", help="prove only this qualifier")
    p_prove.add_argument(
        "--time-limit", type=_nonnegative(float), default=45.0
    )
    p_prove.add_argument(
        "--retries",
        type=_nonnegative(int),
        default=0,
        metavar="N",
        help="retry GAVE_UP obligations up to N times with escalating "
        "budgets and exponential backoff",
    )
    p_prove.add_argument(
        "--cache",
        dest="cache",
        action="store_true",
        default=True,
        help="consult/update the persistent proof cache (default)",
    )
    p_prove.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="re-prove every obligation from scratch",
    )
    p_prove.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"proof cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    batch_flags(p_prove)
    profile_flags(p_prove)
    server_flag(p_prove)
    p_prove.set_defaults(fn=cmd_batch)

    p_run = sub.add_parser("run", help="execute a C file with runtime checks")
    p_run.add_argument("file")
    p_run.add_argument("--entry", default="main")
    p_run.add_argument("args", nargs="*", type=int)
    common(p_run, with_flow=False)
    profile_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_ir = sub.add_parser("show-ir", help="print the lowered CIL-style IR")
    p_ir.add_argument("file")
    common(p_ir, with_flow=False)
    profile_flags(p_ir)
    p_ir.set_defaults(fn=cmd_show_ir)

    p_infer = sub.add_parser("infer", help="infer annotations for a qualifier")
    p_infer.add_argument("files", nargs="+", metavar="file")
    p_infer.add_argument("--qualifier", required=True)
    common(p_infer)
    batch_flags(p_infer)
    profile_flags(p_infer)
    server_flag(p_infer)
    p_infer.set_defaults(fn=cmd_batch)

    p_diff = sub.add_parser(
        "difftest",
        help="differentially test the pipeline on generated cases",
        description=(
            "Generate seed-deterministic C programs and qualifier files, "
            "then cross-check the prover against brute-force enumeration, "
            "native against instrumented execution, and the prover against "
            "metamorphic variants of its own goals.  Disagreements exit 1 "
            "and drop minimized, replayable artifacts (see docs/testing.md)."
        ),
    )
    p_diff.add_argument(
        "--seed", type=int, default=0, help="corpus seed (default 0)"
    )
    p_diff.add_argument(
        "--count",
        type=int,
        default=100,
        metavar="N",
        help="number of generated cases (default 100)",
    )
    p_diff.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the whole run; remaining cases are "
        "skipped, not failed",
    )
    p_diff.add_argument(
        "--time-limit",
        type=float,
        default=6.0,
        metavar="SECONDS",
        help="per-proof prover budget within each case (default 6)",
    )
    p_diff.add_argument(
        "--out-dir",
        default=None,
        metavar="DIR",
        help="failure artifact directory (default .repro-difftest)",
    )
    p_diff.add_argument(
        "--replay",
        nargs="+",
        default=(),
        metavar="ARTIFACT",
        help="re-run stored failure artifacts instead of generating cases",
    )
    batch_flags(p_diff)
    profile_flags(p_diff)
    p_diff.set_defaults(fn=cmd_difftest)

    p_serve = sub.add_parser(
        "serve",
        help="run the checker daemon (unix socket and/or TCP)",
        description=(
            "Long-lived checker-as-a-service: keeps workspaces (parsed "
            "state fingerprints, incremental per-function verdicts, warm "
            "proof caches) resident and serves check/prove/infer/status/"
            "shutdown requests as newline-delimited JSON over a unix "
            "socket and/or a TCP endpoint.  Point `repro check --server "
            "ADDR` (or $REPRO_SERVE_ADDR / $REPRO_SERVE_SOCKET) at it; "
            "see docs/serve.md."
        ),
    )
    # --socket and --workers default to None and are resolved by
    # cmd_serve, which loads the serve layer; other commands do not.
    p_serve.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="unix socket path to serve on "
        "(default: $REPRO_SERVE_SOCKET or .repro-serve.sock)",
    )
    p_serve.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help="additionally serve the same protocol over TCP (port 0 "
        "picks an ephemeral port, announced on stdout)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        metavar="N",
        default=None,
        help="run each configuration's workspace in one of up to N "
        "persistent worker processes (crash-isolated, multi-core); "
        "0 keeps work in-process on executor threads "
        "(default: $REPRO_SERVE_WORKERS or 0)",
    )
    p_serve.add_argument(
        "--status",
        action="store_true",
        help="print a running daemon's status as JSON and exit",
    )
    p_serve.add_argument(
        "--stop",
        action="store_true",
        help="ask a running daemon to shut down gracefully and exit",
    )
    p_serve.set_defaults(fn=cmd_serve)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the persistent proof cache"
    )
    p_cache.add_argument(
        "cache_command",
        choices=("stats", "clear"),
        help="stats: entries, size, lifetime counters; clear: drop all",
    )
    p_cache.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"proof cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    p_cache.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    p_cache.set_defaults(fn=cmd_cache)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # --profile / --trace-out turn the collector on for this invocation
    # only; the summary goes to stderr so --format json stays parseable.
    profiling = bool(
        getattr(args, "profile", False) or getattr(args, "trace_out", None)
    )
    fault_spec = getattr(args, "inject_faults", None)
    if fault_spec:
        try:
            faults.activate(fault_spec)
        except faults.FaultSpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if profiling:
        obs.enable()
        marker = obs.mark()
        started = time.perf_counter()
    try:
        try:
            return args.fn(args)
        except batch.input_error_types() as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except UnicodeDecodeError as exc:
            print(f"error: input is not valid UTF-8: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:  # unreadable file, missing file, EACCES, ...
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except RecursionError:
            print(
                "error: input too deeply nested (recursion limit exceeded)",
                file=sys.stderr,
            )
            return 2
    finally:
        if fault_spec:
            faults.deactivate()
        if profiling:
            total_ms = (time.perf_counter() - started) * 1000.0
            if getattr(args, "profile", False):
                timings = obs.build_timings(
                    obs.since(marker), total_ms=total_ms
                )
                print(obs.format_timings(timings), file=sys.stderr)
            trace_out = getattr(args, "trace_out", None)
            if trace_out:
                obs.write_trace(trace_out, command=getattr(args, "command", ""))
            obs.disable()
            obs.reset()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
