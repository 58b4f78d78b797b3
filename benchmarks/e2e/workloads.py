"""The child side: warm up, run one closed loop, check the answers.

A workload object owns the program state one child process drives.
:meth:`Workload.start` is the warm-up that ``setup_s`` times;
:meth:`Workload.op` is one timed operation; :meth:`Workload.judge`
records what the operation answered (outside its latency window) and
:meth:`Workload.verify` checks those answers after the loop.  Only the
public API is used: :class:`repro.api.Workspace`, :func:`repro.serve.
connect` and the ``python -m repro serve`` daemon.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import inputs
import spans
import verify
from repro import api

#: The paper's bounds (§4, §6): qualifier checking under 1 s per
#: program, value-qualifier proofs under 1 s, ref-qualifier proofs
#: under 30 s.
BOUND_S = {"check": 1.0, "value": 1.0, "ref": 30.0}

MIN_OPS = 100          # p90 needs ten samples beyond it
MAX_LOOP_FACTOR = 2.0  # a slow machine may stretch a run to reach MIN_OPS


class OpRecord:
    __slots__ = ("latency", "failed", "in_bound")

    def __init__(self, latency: float, failed: bool, in_bound: bool):
        self.latency = latency
        self.failed = failed
        self.in_bound = in_bound


def closed_loop(workload, seconds: float, min_ops: int, count: Optional[int] = None,
                recorder: Optional[spans.Recorder] = None):
    """One closed-loop client: the next operation starts when the last
    one returns.  Runs ``count`` operations when given, else until
    ``seconds`` have passed and at least ``min_ops`` ran."""
    records: List[OpRecord] = []
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if count is not None:
            if index >= count:
                break
        elif (elapsed >= seconds and index >= min_ops) or (
            elapsed >= seconds * MAX_LOOP_FACTOR
        ):
            break
        t0 = time.perf_counter()
        try:
            if recorder is None:
                result = workload.op(index)
            else:
                result = recorder.run_op(index, workload.op, index)
            error = None
        except Exception as exc:  # a crashed operation is a failed one
            result, error = None, exc
        latency = time.perf_counter() - t0
        failed = workload.judge(index, result, error)
        records.append(
            OpRecord(latency, failed, latency <= workload.bound_s(index))
        )
        index += 1
    return records, time.perf_counter() - start


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


class Workload:
    """Base class: one in-process :class:`repro.api.Workspace` loop."""

    def __init__(self, manifest: dict, in_dir: str, run_dir: str):
        self.manifest = manifest
        self.in_dir = in_dir
        self.run_dir = run_dir
        self.problems: List[str] = []
        #: Sums of the prove reports' ``cache`` counter blocks.
        self.cache_counts: Dict[str, float] = defaultdict(float)
        self.ws: Optional[api.Workspace] = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Back to the state right after :meth:`start` (for replaying
        the same operations traced)."""
        self.cache_counts.clear()

    def close(self) -> None:
        if self.ws is not None:
            self.ws.close()

    # -- the loop ---------------------------------------------------------

    def op(self, index: int):
        raise NotImplementedError

    def judge(self, index: int, report, error) -> bool:
        """Record the answer of one operation; True when it failed."""
        raise NotImplementedError

    def bound_s(self, index: int) -> float:
        return BOUND_S["check"]

    def verify(self) -> int:
        """Check every recorded answer; returns the number of failed
        operations (their reasons go to ``self.problems``)."""
        return 0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)

    def note_error(self, index: int, error: BaseException) -> None:
        self.note(f"op {index}: {type(error).__name__}: {error}")
        if len(self.problems) <= 3:
            traceback.print_exception(type(error), error, error.__traceback__)

    def _accumulate(self, report: api.Report) -> None:
        block = report.batch.meta.get("cache")
        if isinstance(block, dict):
            for key, value in block.items():
                if isinstance(value, int) and not isinstance(value, bool):
                    self.cache_counts[key] += value

    def counters(self) -> Dict[str, int]:
        return dict(self.ws.counters) if self.ws is not None else {}

    # -- per-layer counts from public return values ----------------------

    def layer_counts(self, before: Dict[str, int], after: Dict[str, int]) -> Dict[str, float]:
        def delta(key: str) -> float:
            return after.get(key, 0) - before.get(key, 0)

        def frac(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        cache = self.cache_counts
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        return {
            "api.functions_replayed_frac": frac(
                delta("functions_replayed"),
                delta("functions_replayed") + delta("functions_checked"),
            ),
            "api.units_replayed_frac": frac(
                delta("units_replayed"), delta("units_checked")
            ),
            "api.prove_units_replayed_frac": frac(
                delta("prove_units_replayed"), delta("prove_units")
            ),
            "cache.hit_frac": frac(cache.get("hits", 0), lookups),
            "cache.stores": cache.get("stores", 0),
            "cache.errors": cache.get("errors", 0),
        }


def _bad_units(report: dict) -> List[str]:
    """Units of a served report that failed instead of answering."""
    return [
        f"{unit.get('unit')}: {unit.get('verdict')} {unit.get('error', '')}".strip()
        for unit in report.get("units", ())
        if unit.get("verdict") in verify.BAD_UNIT_VERDICTS
    ]


# ---------------------------------------------------------------- check_cold


class CheckCold(Workload):
    """One-shot ``Workspace(incremental=False).check`` per unit."""

    def start(self) -> None:
        self.units = self.manifest["units"]
        self.answers: Dict[int, list] = {}
        self.ws = api.Workspace(api.SessionConfig(), incremental=False)
        self.op(0)  # warm-up: the first check pays the lazy imports

    def op(self, index: int):
        unit = self.units[index % len(self.units)]
        return self.ws.check(api.CheckRequest(
            files=(os.path.join(self.in_dir, unit["path"]),),
            flow_sensitive=unit["flow_sensitive"],
        ))

    def judge(self, index, report, error) -> bool:
        if error is not None:
            self.note_error(index, error)
            return True
        result = report.results[0]
        self.answers[index] = verify.check_answer(result)
        if result.verdict in verify.BAD_UNIT_VERDICTS:
            self.note(f"op {index}: {result.verdict} {result.error}")
            return True
        return False

    def verify(self) -> int:
        pinned = verify.load_pin()
        failed = 0
        for index, answer in sorted(self.answers.items()):
            unit = self.units[index % len(self.units)]
            want = pinned.get(unit["id"])
            if answer != want:
                failed += 1
                self.note(f"{unit['id']}: {answer}, pinned {want}")
        return failed


# ---------------------------------------------------------------- prove_cold


class ProveCold(Workload):
    """``Workspace.prove`` with the proof cache off, one file per request."""

    def start(self) -> None:
        self.files = self.manifest["files"]
        self.answers: Dict[int, list] = {}
        self.ws = api.Workspace(api.SessionConfig(), incremental=False)
        self.op(0)

    def op(self, index: int):
        entry = self.files[index % len(self.files)]
        return self.ws.prove(api.ProveRequest(
            files=(os.path.join(self.in_dir, entry["path"]),),
            cache=False,
            jobs=1,
        ))

    def bound_s(self, index: int) -> float:
        return BOUND_S[self.files[index % len(self.files)]["bound"]]

    def judge(self, index, report, error) -> bool:
        if error is not None:
            self.note_error(index, error)
            return True
        self._accumulate(report)
        result = report.results[0]
        rows = verify.obligation_rows(result.detail)
        self.answers[index] = rows
        unsettled = [row for row in rows if row[2] not in verify.SETTLED]
        if result.verdict in verify.BAD_UNIT_VERDICTS or unsettled:
            self.note(f"op {index}: {result.verdict} {result.error} {unsettled[:3]}")
            return True
        return False

    def verify(self) -> int:
        oracle = verify.ShadowOracle()
        failed = 0
        for index, rows in sorted(self.answers.items()):
            entry = self.files[index % len(self.files)]
            if entry["kind"] == "value":
                with open(os.path.join(self.in_dir, entry["path"]),
                          encoding="utf-8") as handle:
                    text = handle.read()
                problems = verify.value_mismatches(
                    oracle, text, entry["qualifiers"], rows
                )
            elif entry["kind"] == "ref":
                problems = verify.ref_mismatches(entry["qualifiers"], rows)
            else:
                problems = verify.mutant_mismatches(entry["qualifiers"][0], rows)
            if problems:
                failed += 1
                self.note(f"{entry['path']}: {problems[:3]}")
        return failed


# ---------------------------------------------------------------- prove_edit


class ProveEdit(Workload):
    """The qualifier-author loop: move one rule constant, re-prove the
    library on an incremental workspace with the proof cache on."""

    def start(self) -> None:
        self.edits = self.manifest["edits"]
        self.answers: Dict[int, Tuple[List[List[str]], List[list]]] = {}
        self._fresh_state()

    def _fresh_state(self) -> None:
        self.close()
        state_dir = os.path.join(self.run_dir, f"state{time.perf_counter_ns()}")
        os.makedirs(state_dir)
        self.library = inputs.materialize(self.manifest, state_dir)["library"]
        self.cache_dir = os.path.join(state_dir, "cache")
        self.ws = api.Workspace(
            api.SessionConfig(cache_dir=self.cache_dir), incremental=True
        )
        self._prove()  # warm-up: the first full prove fills the cache

    def reset(self) -> None:
        super().reset()
        self._fresh_state()

    def _prove(self):
        return self.ws.prove(api.ProveRequest(
            files=tuple(entry["path"] for entry in self.library),
            cache=True,
            cache_dir=self.cache_dir,
            jobs=1,
        ))

    def op(self, index: int):
        file_index, slot, value = self.edits[index % len(self.edits)]
        entry = self.library[file_index]
        entry["values"][slot] = value
        with open(entry["path"], "w", encoding="utf-8") as handle:
            handle.write(inputs.join_segments(entry["segments"], entry["values"]))
        return self._prove()

    def bound_s(self, index: int) -> float:
        # An edit changes one value qualifier; everything else replays.
        return BOUND_S["value"]

    def judge(self, index, report, error) -> bool:
        if error is not None:
            self.note_error(index, error)
            return True
        self._accumulate(report)
        rows = [verify.obligation_rows(r.detail) for r in report.results]
        self.answers[index] = ([list(e["values"]) for e in self.library], rows)
        bad = [
            f"{r.unit}: {r.verdict} {r.error}" for r in report.results
            if r.verdict in verify.BAD_UNIT_VERDICTS
        ] + [
            str(row) for unit in rows for row in unit
            if row[2] not in verify.SETTLED
        ]
        if bad:
            self.note(f"op {index}: {bad[:3]}")
        return bool(bad)

    def verify(self) -> int:
        oracle = verify.ShadowOracle()
        failed = 0
        for index, (values, rows) in sorted(self.answers.items()):
            problems = []
            for entry, file_values, unit_rows in zip(self.library, values, rows):
                if entry.get("refs"):
                    problems += verify.ref_mismatches(entry["qualifiers"], unit_rows)
                    continue
                text = inputs.join_segments(entry["segments"], file_values)
                problems += verify.value_mismatches(
                    oracle, text, entry["qualifiers"], unit_rows
                )
            if problems:
                failed += 1
                self.note(f"edit {index}: {problems[:3]}")
        return failed


# ---------------------------------------------------------------- check_edit


def _apply_c_edit(project: list, edit: list) -> None:
    file_index, slot, value = edit
    entry = project[file_index]
    entry["values"][slot] = value
    with open(entry["path"], "w", encoding="utf-8") as handle:
        handle.write(inputs.join_segments(entry["segments"], entry["values"]))


def _project_texts(project: list) -> Dict[str, str]:
    return {
        entry["path"]: inputs.join_segments(entry["segments"], entry["values"])
        for entry in project
    }


class CheckEdit(Workload):
    """The editor loop against ``python -m repro serve --workers 2``: two
    closed-loop clients, one project and one configuration each."""

    def __init__(self, manifest, in_dir, run_dir, root: str, env: dict):
        super().__init__(manifest, in_dir, run_dir)
        self.root = root
        self.env = env
        self.clients = manifest["clients"]
        self.snapshot_every = manifest["snapshot_every"]
        self.snapshot_limit = manifest["snapshots"]
        self.daemon: Optional[subprocess.Popen] = None
        self._drain: Optional[threading.Thread] = None
        self.pids: List[int] = []
        self.connections = []
        self.serve_samples: List[Tuple[float, float, float]] = []
        self.snapshots: List[Tuple[int, int, Dict[str, str], dict]] = []

    # -- daemon -------------------------------------------------------------

    def start(self) -> None:
        from repro.serve import connect

        state = inputs.materialize(self.manifest, self.run_dir)
        self.projects = state["projects"]
        self.socket = os.path.relpath(
            os.path.join(self.run_dir, "serve.sock"), self.root
        )
        self.log = open(os.path.join(self.run_dir, "serve.log"), "wb")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--workers", "2"],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=self.log, stdin=subprocess.DEVNULL,
        )
        announce = self.daemon.stdout.readline()
        if not announce.startswith(b"{"):
            raise RuntimeError(f"daemon did not start: {announce!r}")
        # Drain the rest of stdout so the daemon never blocks on it.
        self._drain = threading.Thread(
            target=self.daemon.stdout.read, daemon=True
        )
        self._drain.start()
        self.connections = [connect(self.socket) for _ in self.clients]
        self._parallel(self._request)  # warm-up: spawn workers, first checks

    def _parallel(self, fn):
        results = [None] * len(self.clients)
        errors = []

        def run(number):
            try:
                results[number] = fn(number)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(n,))
                   for n in range(len(self.clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return results

    def _request(self, number: int) -> dict:
        params = {"files": [entry["path"] for entry in self.projects[number]]}
        params.update(self.clients[number]["config"])
        return self.connections[number].request("check", params)["report"]

    def status(self) -> dict:
        from repro.serve import connect

        with connect(self.socket) as client:
            return client.status()

    def close(self) -> None:
        from repro.serve import connect

        for connection in self.connections:
            connection.close()
        self.connections = []
        if self.daemon is not None:
            try:
                with connect(self.socket, timeout=5.0) as client:
                    client.shutdown()
                self.daemon.wait(timeout=30)
            except Exception:
                pass
            if self.daemon.poll() is None:
                # No graceful drain: take the workers seen so far down too
                # (a worker also exits on its own once its pipe closes).
                for pid in self.pids:
                    with contextlib.suppress(OSError):
                        os.kill(pid, signal.SIGKILL)
                self.daemon.kill()
                self.daemon.wait(timeout=30)
            if self._drain is not None:
                self._drain.join(timeout=10)
            self.daemon.stdout.close()
            self.log.close()
            self.daemon = None
        super().close()

    @staticmethod
    def _pids(status: dict) -> List[int]:
        """The daemon's pid and its live workers' pids."""
        return [status["pid"]] + [
            block["worker"]["pid"] for block in status["workspaces"]
            if block.get("worker", {}).get("pid")
        ]

    def peak_rss_mb(self) -> float:
        self.pids = self._pids(self.status())
        return max(vm_hwm_mb(pid) for pid in self.pids)

    # -- the served loop ----------------------------------------------------

    def run_served(self, seconds: float, min_ops: int, measure_serve: bool):
        """Both clients' closed loops, concurrently."""
        per_client: List[List[OpRecord]] = [[] for _ in self.clients]
        self.snapshots = []
        lock = threading.Lock()
        start = time.perf_counter()
        ends = [start] * len(self.clients)

        def loop(number: int) -> None:
            edits = self.clients[number]["edits"]
            records = per_client[number]
            count = 0
            while True:
                elapsed = time.perf_counter() - start
                done = sum(len(r) for r in per_client)
                if (elapsed >= seconds and done >= min_ops) or (
                    elapsed >= seconds * MAX_LOOP_FACTOR
                ):
                    break
                t0 = time.perf_counter()
                error = report = None
                try:
                    _apply_c_edit(self.projects[number], edits[count % len(edits)])
                    report = self._request(number)
                except Exception as exc:
                    error = exc
                latency = time.perf_counter() - t0
                failed = error is not None
                if error is not None:
                    with lock:
                        self.note_error(count, error)
                else:
                    bad = _bad_units(report)
                    if bad:
                        failed = True
                        with lock:
                            self.note(f"client {number} edit {count}: {bad[:3]}")
                    if measure_serve:
                        self.serve_samples.append((
                            latency * 1000.0,
                            report.get("elapsed", 0.0) * 1000.0,
                            len(json.dumps(report)) / 1024.0,
                        ))
                    if (count + 1) % self.snapshot_every == 0 and (
                        count + 1 <= self.snapshot_every * self.snapshot_limit
                    ):
                        with lock:
                            self.snapshots.append((
                                number, count,
                                _project_texts(self.projects[number]),
                                report,
                            ))
                records.append(OpRecord(latency, failed, latency <= BOUND_S["check"]))
                count += 1
            ends[number] = time.perf_counter()

        threads = [threading.Thread(target=loop, args=(n,))
                   for n in range(len(self.clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = [record for client in per_client for record in client]
        return records, max(ends) - start

    def verify(self) -> int:
        failed = 0
        for number, count, texts, served in self.snapshots:
            for path, text in texts.items():
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
            config = api.SessionConfig(**self.clients[number]["config"])
            with api.Workspace(config, incremental=False) as ws:
                local = ws.check(api.CheckRequest(files=tuple(texts)))
            if verify.strip_volatile(local.to_dict()) != verify.strip_volatile(served):
                failed += 1
                self.note(f"client {number} edit {count}: served report "
                          "differs from a one-shot check of the same files")
        return failed

    def serve_metrics(self) -> Dict[str, float]:
        status = self.status()
        samples = self.serve_samples or [(0.0, 0.0, 0.0)]
        n = len(samples)
        request = sum(s[0] for s in samples) / n
        pipeline = sum(s[1] for s in samples) / n
        return {
            "serve.request_ms": request,
            "serve.pipeline_ms": pipeline,
            "serve.transport_ms": request - pipeline,
            "serve.report_kb": sum(s[2] for s in samples) / n,
            "serve.workers_crashed": status["counters"]["workers_crashed"],
            "serve.errors": status["counters"]["errors"],
        }


class EditReplay(Workload):
    """check_edit's edit sequences replayed on in-process incremental
    workspaces, alternating clients, so the pipeline part of an edit
    can be split by layer."""

    def __init__(self, manifest, in_dir, run_dir):
        super().__init__(manifest, in_dir, run_dir)
        self.clients = manifest["clients"]

    def start(self) -> None:
        self.close()
        state_dir = os.path.join(self.run_dir, f"replay{time.perf_counter_ns()}")
        os.makedirs(state_dir)
        self.projects = inputs.materialize(self.manifest, state_dir)["projects"]
        self.workspaces = [
            api.Workspace(api.SessionConfig(**client["config"]), incremental=True)
            for client in self.clients
        ]
        for number in range(len(self.clients)):
            self._check(number)

    def reset(self) -> None:
        super().reset()
        self.start()

    def close(self) -> None:
        for ws in getattr(self, "workspaces", ()):
            ws.close()

    def counters(self) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for ws in self.workspaces:
            for key, value in ws.counters.items():
                totals[key] += value
        return dict(totals)

    def _check(self, number: int):
        files = tuple(entry["path"] for entry in self.projects[number])
        return self.workspaces[number].check(api.CheckRequest(files=files))

    def op(self, index: int):
        number = index % len(self.clients)
        edits = self.clients[number]["edits"]
        turn = index // len(self.clients)
        _apply_c_edit(self.projects[number], edits[turn % len(edits)])
        return self._check(number)

    def judge(self, index, report, error) -> bool:
        if error is not None:
            self.note_error(index, error)
            return True
        bad = [
            f"{result.unit}: {result.verdict} {result.error}"
            for result in report.results
            if result.verdict in verify.BAD_UNIT_VERDICTS
        ]
        if bad:
            self.note(f"replay op {index}: {bad[:3]}")
        return bool(bad)


# ------------------------------------------------------------- the tracing

def _count_lines(rec, result, args, kwargs, before):
    source = args[0] if args else kwargs.get("source", "")
    rec.counts["cfront.lines"] += source.count("\n") + 1


def _count_functions(rec, result, args, kwargs, before):
    rec.counts["checker.functions"] += len(result.dataflow)


def _count_obligations(rec, result, args, kwargs, before):
    rec.counts["soundness.obligations"] += len(result)


def _count_proof(rec, result, args, kwargs, before):
    rec.counts["prover.rounds"] += result.rounds
    rec.counts["prover.instances"] += result.instances
    rec.counts["prover.conflicts"] += result.conflicts
    if result.verdict not in verify.SETTLED:
        rec.counts["prover.unsettled"] += 1


def _count_retries(rec, result, args, kwargs, before):
    if not result.cached:
        rec.counts["harness.retries"] += max(0, result.attempts - 1)


def _count_unit_retries(rec, result, args, kwargs, before):
    rec.counts["harness.retries"] += max(0, result.attempts - 1)


class _SessionCounters:
    """What one ``ProverSession.prove_with_retry`` call added to the
    session's own counters (a pool's totals cover only its resident
    sessions, so they drop whatever an eviction took away)."""

    KEYS = ("proofs", "session_reuse", "core_hits", "theory_memo_hits")

    def before(self, args, kwargs):
        return {key: args[0].counters.get(key, 0) for key in self.KEYS}

    def __call__(self, rec, result, args, kwargs, before):
        for key in self.KEYS:
            rec.counts[f"session.{key}"] += args[0].counters.get(key, 0) - before[key]


_FINGERPRINTS = (
    "source_digest", "unit_function_fingerprints", "qualifier_env_digest",
    "prove_environment_digest", "environment_key", "obligation_key",
    "proof_key",
)

#: Every layer boundary the trace cuts at: (module, binding, span, hook).
TARGETS: List[spans.Target] = [
    ("repro.api", "Workspace.check", "api.check", None),
    ("repro.api", "Workspace.prove", "api.prove", None),
    ("repro.harness.batch", "run_units", "harness.run_units", None),
    ("repro.harness.batch", "run_one", "harness.run_one", _count_unit_retries),
    ("repro.cfront.parser", "parse_c", "cfront.parse", _count_lines),
    ("repro.core.qualifiers.parser", "parse_qualifiers", "qualifiers.parse", None),
    ("repro.cil.lower", "lower_unit", "cil.lower", None),
    ("repro.cil.cfg", "build_cfg", "cil.cfg", None),
    ("repro.dataflow.solver", "ForwardSolver.solve", "dataflow.solve", None),
    ("repro.core.checker.typecheck", "QualifierChecker.check", "checker.check",
     _count_functions),
    *[("repro.cache.fingerprint", name, "fingerprint", None)
      for name in _FINGERPRINTS],
    ("repro.core.soundness.checker", "check_soundness", "soundness.check", None),
    ("repro.core.soundness.obligations", "generate_obligations",
     "soundness.obligations", _count_obligations),
    ("repro.prover.prover", "Prover.prove_with_retry", "prover.retry",
     _count_retries),
    ("repro.prover.prover", "Prover.prove", "prover.prove", _count_proof),
    ("repro.prover.prover", "Prover._instantiation_round", "prover.ematch", None),
    ("repro.prover.sat", "solve", "prover.sat", None),
    ("repro.prover.combine", "check", "prover.theory", None),
    ("repro.prover.combine", "TheoryState._finish_core", "prover.explain", None),
    ("repro.prover.linarith", "explain_unsat", "prover.linarith", None),
    ("repro.prover.linarith", "entails_eq_core", "prover.linarith", None),
    ("repro.prover.session", "ProverSession.prove_with_retry", "session.prove",
     _SessionCounters()),
    ("repro.prover.session", "ProverSession.theory_check", "session.theory_check",
     None),
    ("repro.cache.store", "ProofCache.get", "cache.get", None),
    ("repro.cache.store", "ProofCache.put", "cache.put", None),
]


def install_targets(recorder: spans.Recorder) -> spans.Patch:
    import importlib

    for module in {target[0] for target in TARGETS}:
        importlib.import_module(module)
    return spans.install(recorder, TARGETS)


#: Per-layer metrics, with units; every one is reported on every
#: workload (a layer a workload never enters reads 0).
PER_LAYER_UNITS = {
    "cfront.parse_ms": "ms/op", "cfront.calls": "calls/op",
    "cfront.us_per_line": "us/line",
    "qualifiers.parse_ms": "ms/op",
    "cil.lower_ms": "ms/op", "cil.cfg_ms": "ms/op",
    "dataflow.solve_ms": "ms/op", "checker.self_ms": "ms/op",
    "checker.functions": "functions/op",
    "fingerprint.ms": "ms/op", "fingerprint.calls": "calls/op",
    "api.functions_replayed_frac": "frac", "api.units_replayed_frac": "frac",
    "api.prove_units_replayed_frac": "frac",
    "soundness.obligations_ms": "ms/op", "soundness.obligations": "obligations/op",
    "prover.ms": "ms/op", "prover.calls": "calls/op", "prover.sat_ms": "ms/op",
    "prover.theory_ms": "ms/op", "prover.explain_ms": "ms/op",
    "prover.linarith_ms": "ms/op", "prover.ematch_ms": "ms/op",
    "prover.rounds": "rounds/op", "prover.instances": "instances/op",
    "prover.conflicts": "conflicts/op", "prover.unsettled": "count",
    "session.reuse_frac": "frac", "session.core_hits": "hits/op",
    "session.theory_memo_hits": "hits/op",
    "cache.get_ms": "ms/op", "cache.put_ms": "ms/op", "cache.hit_frac": "frac",
    "cache.stores": "stores/op", "cache.errors": "count",
    "harness.self_ms": "ms/op", "harness.retries": "count",
    "serve.request_ms": "ms", "serve.pipeline_ms": "ms",
    "serve.transport_ms": "ms", "serve.report_kb": "KB",
    "serve.workers_crashed": "count", "serve.errors": "count",
    "trace.overhead_frac": "frac", "trace.self_sum_frac": "frac",
}

_PER_OP_COUNTS = ("cache.stores",)


def layer_metrics(recorder: spans.Recorder, ops: int, traced_wall: float,
                  counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer numbers of one traced phase of ``ops`` operations."""
    outer, calls = spans.outer_times(recorder.spans)
    own = spans.self_times(recorder.spans)
    layers = spans.layer_self_times(recorder.spans)
    ops = max(1, ops)

    def ms(seconds: float) -> float:
        return seconds * 1000.0 / ops

    def per_op(value: float) -> float:
        return value / ops

    lines = recorder.counts.get("cfront.lines", 0)
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    out.update({
        "cfront.parse_ms": ms(outer.get("cfront.parse", 0.0)),
        "cfront.calls": per_op(calls.get("cfront.parse", 0)),
        "cfront.us_per_line": (
            outer.get("cfront.parse", 0.0) * 1e6 / lines if lines else 0.0
        ),
        "qualifiers.parse_ms": ms(outer.get("qualifiers.parse", 0.0)),
        "cil.lower_ms": ms(outer.get("cil.lower", 0.0)),
        "cil.cfg_ms": ms(outer.get("cil.cfg", 0.0)),
        "dataflow.solve_ms": ms(outer.get("dataflow.solve", 0.0)),
        "checker.self_ms": ms(own.get("checker.check", 0.0)),
        "checker.functions": per_op(recorder.counts.get("checker.functions", 0)),
        "fingerprint.ms": ms(layers.get("fingerprint", 0.0)),
        "fingerprint.calls": per_op(calls.get("fingerprint", 0)),
        "soundness.obligations_ms": ms(outer.get("soundness.obligations", 0.0)),
        "soundness.obligations": per_op(
            recorder.counts.get("soundness.obligations", 0)
        ),
        "prover.ms": ms(outer.get("prover.prove", 0.0)),
        "prover.calls": per_op(calls.get("prover.prove", 0)),
        "prover.sat_ms": ms(outer.get("prover.sat", 0.0)),
        "prover.theory_ms": ms(outer.get("prover.theory", 0.0)),
        "prover.explain_ms": ms(outer.get("prover.explain", 0.0)),
        "prover.linarith_ms": ms(outer.get("prover.linarith", 0.0)),
        "prover.ematch_ms": ms(outer.get("prover.ematch", 0.0)),
        "prover.rounds": per_op(recorder.counts.get("prover.rounds", 0)),
        "prover.instances": per_op(recorder.counts.get("prover.instances", 0)),
        "prover.conflicts": per_op(recorder.counts.get("prover.conflicts", 0)),
        "prover.unsettled": recorder.counts.get("prover.unsettled", 0),
        "cache.get_ms": ms(outer.get("cache.get", 0.0)),
        "cache.put_ms": ms(outer.get("cache.put", 0.0)),
        "session.reuse_frac": (
            recorder.counts.get("session.session_reuse", 0)
            / recorder.counts["session.proofs"]
            if recorder.counts.get("session.proofs") else 0.0
        ),
        "session.core_hits": per_op(recorder.counts.get("session.core_hits", 0)),
        "session.theory_memo_hits": per_op(
            recorder.counts.get("session.theory_memo_hits", 0)
        ),
        "harness.self_ms": ms(layers.get("harness", 0.0)),
        "harness.retries": recorder.counts.get("harness.retries", 0),
        "trace.self_sum_frac": (
            sum(layers.values()) / traced_wall if traced_wall else 0.0
        ),
    })
    for name, value in counts.items():
        out[name] = per_op(value) if name in _PER_OP_COUNTS else value
    return out


def write_trace(path: str, workload: str, seed: int, recorder: spans.Recorder,
                per_layer: Dict[str, float], wall: float) -> None:
    """The span file: every span, times in microseconds from the first."""
    base = min((span[4] for span in recorder.spans), default=0.0)
    layers = spans.layer_self_times(recorder.spans)
    payload = {
        "workload": workload,
        "seed": seed,
        "traced_wall_ms": wall * 1000.0,
        "layer_self_ms": {k: v * 1000.0 for k, v in sorted(layers.items())},
        "per_layer": per_layer,
        "span_fields": ["id", "parent", "op", "name", "start_us", "end_us"],
        "spans": [
            [sid, parent, op, name, round((start - base) * 1e6, 1),
             round((end - base) * 1e6, 1)]
            for sid, parent, op, name, start, end in recorder.spans
        ],
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))


def replay(workload: Workload, count: int, recorder: Optional[spans.Recorder] = None):
    """Replay the first ``count`` operations from a fresh start, with
    every layer boundary wrapped when a recorder is given (the patches
    come off before this returns).  Returns the records, the wall time
    and the per-layer counts taken from public return values."""
    workload.reset()
    before = workload.counters()
    patch = install_targets(recorder) if recorder is not None else None
    try:
        records, wall = closed_loop(workload, 0.0, 0, count=count,
                                    recorder=recorder)
    finally:
        if patch is not None:
            patch.restore()
    return records, wall, workload.layer_counts(before, workload.counters())


WORKLOAD_CLASSES = {
    "check_cold": CheckCold,
    "prove_cold": ProveCold,
    "prove_edit": ProveEdit,
}
