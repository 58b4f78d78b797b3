"""Serve-daemon throughput: process-mode workspace sharding.

The multi-process daemon's pitch is that two concurrent requests
against *distinct* configurations use distinct cores instead of
fighting over the GIL.  This suite measures that claim end to end —
client, NDJSON transport, router, worker process, pipeline — and
pins the acceptance bar: on a machine with >= 2 cores, two concurrent
distinct-config checks complete in **< 1.6x** the single-request wall
clock, with reports byte-identical to in-process runs.

Every round writes fresh file contents so the incremental layer
re-checks instead of replaying (replay would measure the cache, not
the checker).  Run with ``python -m repro bench --suite serve``;
history is committed in ``BENCH_serve.json``.
"""

import asyncio
import contextlib
import copy
import itertools
import os
import tempfile
import threading
import time

import pytest

from repro import api
from repro.serve import connect
from repro.serve.server import ServeServer

#: Functions per generated unit — big enough that pipeline work
#: dominates transport overhead, small enough for a bench round.
N_FUNCS = 600

_fresh = itertools.count()


def _unit_text(tag: int) -> str:
    return "".join(
        f"int f{i}(int x{i}) {{ return x{i} + {tag}; }}\n"
        for i in range(N_FUNCS)
    )


def _strip_volatile(payload: dict) -> dict:
    out = copy.deepcopy(payload)
    out.pop("elapsed", None)
    out.pop("incremental", None)
    # The bench runner enables the obs collector for the whole run,
    # which makes in-process checks attach a `timings` block; the
    # served worker process has its own (disabled) collector.
    out.pop("timings", None)
    for unit in out.get("units", ()):
        unit.pop("elapsed", None)
        detail = unit.get("detail", {})
        detail.pop("incremental", None)
        if "dataflow" in detail:
            detail["dataflow"]["totals"].pop("ms", None)
            for stats in detail["dataflow"]["functions"].values():
                stats.pop("ms", None)
    if isinstance(out.get("dataflow"), dict):
        out["dataflow"].pop("ms", None)
    return out


@contextlib.contextmanager
def _daemon(workers: int):
    """A live daemon on a fresh unix socket in a temp directory."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        sock = os.path.join(tmp, "bench.sock")
        server = ServeServer(sock, workers=workers)
        thread = threading.Thread(
            target=lambda: asyncio.run(server.run()), daemon=True
        )
        thread.start()
        if not server.ready.wait(10.0):
            raise RuntimeError("bench daemon never bound its socket")
        try:
            yield sock, server, tmp
        finally:
            if not server._shutting_down:
                with contextlib.suppress(OSError):
                    with connect(sock) as client:
                        client.shutdown()
            thread.join(timeout=15)


def _check(sock: str, path: str, **config):
    with connect(sock) as client:
        return client.request("check", {"files": [path], **config})["report"]


@pytest.mark.benchmark(group="serve")
def test_concurrent_distinct_configs_speedup(benchmark):
    """Two concurrent checks, two configurations, two workers — the
    pair must land well under 2x one request's wall clock."""
    with _daemon(workers=2) as (sock, server, tmp):
        path_a = os.path.join(tmp, "a.c")
        path_b = os.path.join(tmp, "b.c")
        # Warm both workspaces first: worker spawn and first-parse
        # costs are startup, not steady-state throughput.
        for path, config in (
            (path_a, {}),
            (path_b, {"trust_constants": True}),
        ):
            with open(path, "w") as handle:
                handle.write(_unit_text(next(_fresh)))
            _check(sock, path, **config)

        # Correctness gate before timing anything: served reports are
        # byte-identical (minus timings) to in-process runs.
        for path, config in (
            (path_a, {}),
            (path_b, {"trust_constants": True}),
        ):
            with open(path, "w") as handle:
                handle.write(_unit_text(next(_fresh)))
            served = _strip_volatile(_check(sock, path, **config))
            with api.Workspace(
                api.SessionConfig(**config), incremental=False
            ) as ws:
                local = _strip_volatile(
                    ws.check(api.CheckRequest(files=(path,))).to_dict()
                )
            assert served == local, f"served report drifted for {path}"

        def single_round() -> None:
            with open(path_a, "w") as handle:
                handle.write(_unit_text(next(_fresh)))
            _check(sock, path_a)

        def concurrent_round() -> None:
            jobs = []
            failures = []

            def run(path, config):
                with open(path, "w") as handle:
                    handle.write(_unit_text(next(_fresh)))
                try:
                    report = _check(sock, path, **config)
                    assert report["exit_code"] == 0, report["exit_code"]
                except Exception as exc:  # surfaced below, on this thread
                    failures.append(exc)

            for path, config in (
                (path_a, {}),
                (path_b, {"trust_constants": True}),
            ):
                job = threading.Thread(target=run, args=(path, config))
                job.start()
                jobs.append(job)
            for job in jobs:
                job.join()
            if failures:
                raise failures[0]

        rounds = 3
        single_times = []
        for _ in range(rounds):
            started = time.perf_counter()
            single_round()
            single_times.append(time.perf_counter() - started)
        single_ms = 1000.0 * min(single_times)

        benchmark.pedantic(concurrent_round, iterations=1, rounds=rounds)
        concurrent_ms = 1000.0 * benchmark.stats["min"]

        ratio = concurrent_ms / single_ms if single_ms else float("inf")
        cores = os.cpu_count() or 1
        benchmark.extra_info.update(
            workers=2,
            functions_per_unit=N_FUNCS,
            cores=cores,
            single_ms=round(single_ms, 3),
            concurrent_ms=round(concurrent_ms, 3),
            ratio=round(ratio, 3),
            workers_spawned=server.counters["workers_spawned"],
            workers_crashed=server.counters["workers_crashed"],
        )
        print(
            f"\n  single {single_ms:.1f} ms, concurrent pair "
            f"{concurrent_ms:.1f} ms, ratio {ratio:.2f}x "
            f"({cores} core(s))"
        )
        assert server.counters["workers_crashed"] == 0
        if cores >= 2:
            assert ratio < 1.6, (
                f"concurrent distinct-config pair took {ratio:.2f}x one "
                f"request ({concurrent_ms:.1f} ms vs {single_ms:.1f} ms); "
                "process sharding should keep this under 1.6x"
            )


@pytest.mark.benchmark(group="serve")
def test_single_request_transport_overhead(benchmark):
    """What the daemon costs when it is *not* parallelizing: one fresh
    check through socket + worker process vs the same check
    in-process.  Keeps the transport honest while the tentpole case
    above keeps it fast."""
    with _daemon(workers=1) as (sock, server, tmp):
        path = os.path.join(tmp, "solo.c")
        with open(path, "w") as handle:
            handle.write(_unit_text(next(_fresh)))
        _check(sock, path)  # warm: spawn + first parse

        def served_round() -> None:
            with open(path, "w") as handle:
                handle.write(_unit_text(next(_fresh)))
            _check(sock, path)

        rounds = 3
        local_times = []
        for _ in range(rounds):
            with open(path, "w") as handle:
                handle.write(_unit_text(next(_fresh)))
            with api.Workspace(incremental=False) as ws:
                started = time.perf_counter()
                ws.check(api.CheckRequest(files=(path,)))
                local_times.append(time.perf_counter() - started)
        local_ms = 1000.0 * min(local_times)

        benchmark.pedantic(served_round, iterations=1, rounds=rounds)
        served_ms = 1000.0 * benchmark.stats["min"]
        overhead = served_ms / local_ms if local_ms else float("inf")
        benchmark.extra_info.update(
            local_ms=round(local_ms, 3),
            served_ms=round(served_ms, 3),
            overhead=round(overhead, 3),
        )
        print(
            f"\n  in-process {local_ms:.1f} ms, served {served_ms:.1f} ms "
            f"({overhead:.2f}x)"
        )
