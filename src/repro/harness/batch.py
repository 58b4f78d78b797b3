"""Batch engine: many units of work, isolated, streamed, never a lost run.

A *unit* is one translation unit (``check``/``infer``) or one
qualifier-definition file (``prove``).  Each unit runs inside its own
fault boundary — try/except, recursion-limit guard, wall-clock
deadline — so a failure downgrades to a structured verdict instead of
aborting the invocation:

===========  =====================================================
``OK``       unit completed, nothing found
``WARNINGS`` unit completed, qualifier warnings / unsound rules
``ERROR``    bad input (syntax error, malformed .qual, unreadable)
``TIMEOUT``  the unit's wall-clock deadline fired
``UNKNOWN``  a prover gave up within budget (neither proof nor
             countermodel) — the industrial checker's "don't know"
``GAVE_UP``  the supervisor quarantined the unit after it killed
             repeated workers (a *poison* unit; see supervisor.py)
``CRASH``    an internal failure was survived (bug in *us*, not in
             the input); the run continues, exit code says 3
``SKIPPED``  a preceding unit failed and ``--keep-going`` was off,
             or the run was interrupted before the unit started
===========  =====================================================

With ``jobs > 1``, units fan out under :class:`repro.harness.supervisor.
Supervisor`: each child gets its own interpreter and streams messages
back over its result pipe — periodic heartbeats, per-obligation
progress events (:func:`emit_progress`), and finally the picklable
:class:`UnitResult`.  The supervisor detects crashes (sentinel without
a result), hangs (heartbeats stop), and OOM kills; re-queues the unit
with exponential backoff; and quarantines units that keep killing
workers.  Every child is reaped on the way out — including when the
parent is interrupted — so no orphans linger.

Results *stream*: pass ``on_result`` to :func:`run_units` and it is
called once per unit as that unit settles — the engine behind
``--format jsonl``.  With ``keep_going`` on that is completion order;
with it off, input order (see :class:`Release`).  SIGINT/SIGTERM during
a run stop dispatch, cancel in-flight work, and return the partial
report (remaining units ``SKIPPED``, ``meta["interrupted"]`` set) so
the caller can still flush a valid report under the documented
exit-code contract.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro import faults as _faults
from repro import obs as _obs
from repro.harness.watchdog import Deadline, DeadlineExceeded, recursion_guard

OK = "OK"
WARNINGS = "WARNINGS"
ERROR = "ERROR"
TIMEOUT = "TIMEOUT"
UNKNOWN = "UNKNOWN"
GAVE_UP = "GAVE_UP"
CRASH = "CRASH"
SKIPPED = "SKIPPED"

#: Verdict -> process exit code contribution.  The run's exit code is
#: the max over units: 0 clean, 1 warnings found, 2 input error (or
#: timeout/unknown/gave-up — the input could not be fully judged),
#: 3 internal crash survived.
_SEVERITY: Dict[str, int] = {
    OK: 0,
    SKIPPED: 0,
    WARNINGS: 1,
    ERROR: 2,
    TIMEOUT: 2,
    UNKNOWN: 2,
    GAVE_UP: 2,
    CRASH: 3,
}

#: The pipeline's own "the input is bad" exceptions, as
#: ``(module, class name)``.
_PIPELINE_INPUT_ERRORS = (
    ("repro.cfront.parser", "ParseError"),
    ("repro.cfront.lexer", "LexError"),
    ("repro.cil.lower", "LowerError"),
    ("repro.core.qualifiers.parser", "QualParseError"),
)


def input_error_types() -> tuple:
    """The pipeline's bad-input exception classes (the CLI maps them to
    exit 2), found in ``sys.modules`` rather than imported: a class
    whose module was never loaded cannot have been raised, and naming
    the C parser's error must not load the C front end into a prove."""
    found = (
        getattr(sys.modules.get(module), name, None)
        for module, name in _PIPELINE_INPUT_ERRORS
    )
    return tuple(cls for cls in found if cls is not None)


def _input_error_types() -> tuple:
    """Exceptions that mean "the input is bad", not "we are buggy"."""
    return (*input_error_types(), OSError, UnicodeDecodeError, ValueError)


@dataclass
class UnitResult:
    """Outcome of one isolated unit of work (picklable: crosses the
    process-pool boundary)."""

    unit: str
    verdict: str
    elapsed: float = 0.0
    # Diagnostic dicts (see Diagnostic.to_dict) — warnings, recovered
    # parse errors, etc.
    diagnostics: List[dict] = field(default_factory=list)
    error: str = ""  # exception text for ERROR/CRASH/TIMEOUT verdicts
    detail: dict = field(default_factory=dict)  # command-specific extras
    # How many worker attempts this unit consumed (supervised runs may
    # retry after a worker death; 1 everywhere else).
    attempts: int = 1
    # Observability snapshot from the (child) collector — merged into
    # the parent collector by the pool, then cleared; never serialized.
    obs: Optional[dict] = None

    @property
    def severity(self) -> int:
        return _SEVERITY.get(self.verdict, 3)

    def to_dict(self) -> dict:
        return {
            "unit": self.unit,
            "verdict": self.verdict,
            "elapsed": round(self.elapsed, 6),
            "diagnostics": self.diagnostics,
            "error": self.error,
            **({"detail": self.detail} if self.detail else {}),
            # Additive: only present when a supervisor retried the unit,
            # so unsupervised payloads (and their goldens) are unchanged.
            **({"attempts": self.attempts} if self.attempts > 1 else {}),
        }


@dataclass
class BatchReport:
    results: List[UnitResult] = field(default_factory=list)
    elapsed: float = 0.0
    # Run-level facts that are not per-unit — e.g. proof-cache counters
    # aggregated over every unit.  Keys land at the top level of the
    # JSON report, next to "units"/"counts".
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return max((r.severity for r in self.results), default=0)

    @property
    def interrupted(self) -> bool:
        return bool(self.meta.get("interrupted"))

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.results:
            out[r.verdict] = out.get(r.verdict, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "units": [r.to_dict() for r in self.results],
            "counts": self.counts(),
            "elapsed": round(self.elapsed, 6),
            "exit_code": self.exit_code,
            **self.meta,
        }

    def summary(self) -> str:
        parts = [f"{v} {k}" for k, v in sorted(self.counts().items())]
        return (
            f"{len(self.results)} unit(s): "
            + (", ".join(parts) if parts else "nothing to do")
            + f" ({self.elapsed:.2f} s)"
        )


#: A worker maps (unit, deadline) to a UnitResult.  Workers may ignore
#: the deadline; honoring it (as the prover does) turns a preemptive
#: kill into a clean in-process TIMEOUT verdict.
Worker = Callable[[str, Deadline], UnitResult]

#: Callbacks: on_result(UnitResult) fires as each unit settles (stream
#: order); on_event(dict) receives per-obligation progress events.
ResultCallback = Callable[[UnitResult], None]
EventCallback = Callable[[dict], None]


class Release:
    """Hands a run's settled unit results on to ``on_result`` and to
    the report.

    With ``keep_going`` on, a result goes on the moment it settles.
    With it off, results go on in input order: a unit goes on only once
    every earlier unit has, and after the first ERROR-or-worse unit
    every later one is ``SKIPPED`` (:attr:`stopped` is then set), so the
    order in which pool children finish cannot change the report or
    the stream."""

    def __init__(
        self,
        units: Sequence[str],
        keep_going: bool,
        on_result: Optional[ResultCallback] = None,
    ) -> None:
        self.units = list(units)
        self.keep_going = keep_going
        self.on_result = on_result
        self.results: List[Optional[UnitResult]] = [None] * len(self.units)
        self.released = 0  # the input-order prefix handed on
        self.stopped = False

    def settle(self, index: int, result: UnitResult) -> None:
        self.results[index] = result
        if self.keep_going:
            self._hand_on(result)
            return
        while (
            not self.stopped
            and self.released < len(self.results)
            and self.results[self.released] is not None
        ):
            result = self.results[self.released]
            self.released += 1
            self._hand_on(result)
            if result.severity >= _SEVERITY[ERROR]:
                self.stopped = True

    def _hand_on(self, result: UnitResult) -> None:
        if self.on_result is not None:
            self.on_result(result)

    def report(self) -> BatchReport:
        """Every unit in input order; a unit not handed on is
        ``SKIPPED``."""
        report = BatchReport()
        for index, unit in enumerate(self.units):
            result = self.results[index]
            if result is None or (
                not self.keep_going and index >= self.released
            ):
                result = UnitResult(unit=unit, verdict=SKIPPED)
            report.results.append(result)
        return report


# ------------------------------------------------------- progress stream

#: The thread-local progress emitter.  In a pool worker it forwards
#: events over the result pipe; in a sequential run it forwards to the
#: caller's ``on_event``; when unset, emitting is free and dropped.
#: Thread-local (not process-global) so a serve daemon running several
#: sequential batches on executor threads streams each request's events
#: to its own client instead of whichever installed an emitter last.
_EMITTER_STATE = threading.local()


def set_emitter(emitter: Optional[EventCallback]) -> None:
    """Install (or clear) the calling thread's progress emitter."""
    _EMITTER_STATE.emitter = emitter


def restart_unit_clock() -> None:
    """Start a fresh ``unit_timeout`` budget for the rest of the running
    unit (a unit made of separately budgeted parts calls this before
    each part).  In a pool child it resets the supervisor's kill clock;
    in process there is no clock to reset."""
    restart = getattr(_EMITTER_STATE, "restart_clock", None)
    if restart is None:
        return
    try:
        restart()
    except Exception:
        pass


def emit_progress(event: dict) -> None:
    """Ship one progress event (e.g. a settled proof obligation) to the
    supervising parent / streaming consumer.  Never raises: a dead pipe
    must not take the unit's real result down with it."""
    emitter = getattr(_EMITTER_STATE, "emitter", None)
    if emitter is None:
        return
    try:
        emitter(event)
    except Exception:
        pass


# --------------------------------------------------------- signal guard


class InterruptFlag:
    """Set by the SIGINT/SIGTERM handler; polled by the run loops."""

    def __init__(self) -> None:
        self.signum: Optional[int] = None

    @property
    def set(self) -> bool:
        return self.signum is not None


@contextmanager
def interrupt_guard():
    """Install SIGINT/SIGTERM handlers that *flag* instead of raise, so
    an interrupted batch flushes a valid partial report rather than
    dying with half a JSON document on stdout.  Restores the previous
    handlers on exit; a no-op off the main thread (where signals cannot
    be installed) and under handlers we cannot replace."""
    flag = InterruptFlag()
    previous = {}

    def handler(signum, frame):
        flag.signum = signum

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
        except (ValueError, OSError):  # not the main thread
            pass
    try:
        yield flag
    finally:
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except (ValueError, OSError):
                pass


def run_one(
    unit: str,
    worker: Worker,
    unit_timeout: Optional[float] = None,
    recursion_limit: int = 20000,
) -> UnitResult:
    """Run one unit inside the full fault boundary."""
    start = time.perf_counter()
    deadline = Deadline.after(unit_timeout)
    try:
        with recursion_guard(recursion_limit):
            with _obs.span("unit", unit=unit):
                result = worker(unit, deadline)
        result.elapsed = time.perf_counter() - start
        return result
    except DeadlineExceeded as exc:
        return UnitResult(
            unit=unit,
            verdict=TIMEOUT,
            elapsed=time.perf_counter() - start,
            error=str(exc) or "deadline exceeded",
        )
    except _input_error_types() as exc:
        return UnitResult(
            unit=unit,
            verdict=ERROR,
            elapsed=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )
    except RecursionError:
        # The guard already granted generous headroom, so blowing it
        # means the *input* is pathologically nested — an input error
        # (exit 2), not an internal crash.
        return UnitResult(
            unit=unit,
            verdict=ERROR,
            elapsed=time.perf_counter() - start,
            error="input too deeply nested (recursion limit exceeded)",
        )
    except MemoryError:
        return UnitResult(
            unit=unit,
            verdict=CRASH,
            elapsed=time.perf_counter() - start,
            error="MemoryError",
        )
    except Exception as exc:  # internal bug: survive and report
        return UnitResult(
            unit=unit,
            verdict=CRASH,
            elapsed=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )


def run_units(
    units: Sequence[str],
    worker: Worker,
    keep_going: bool = True,
    jobs: int = 1,
    unit_timeout: Optional[float] = None,
    recursion_limit: int = 20000,
    on_result: Optional[ResultCallback] = None,
    on_event: Optional[EventCallback] = None,
    supervisor_config=None,
) -> BatchReport:
    """Run every unit through ``worker`` with per-unit isolation.

    ``keep_going=False`` stops dispatching after the first unit whose
    verdict is ERROR or worse; the remaining units are reported as
    ``SKIPPED`` so the report still covers the whole batch.  With
    ``jobs > 1`` units run under the supervised streaming pool (see
    :mod:`repro.harness.supervisor`): preemptive per-child deadlines,
    heartbeat hang detection, crash retry with backoff, poison-unit
    quarantine, and guaranteed reaping.

    ``on_result`` streams each settled :class:`UnitResult` (in
    completion order with ``keep_going``, else in input order; see
    :class:`Release`); ``on_event`` receives per-obligation progress
    events from :func:`emit_progress`.  SIGINT/SIGTERM mid-run yields a
    partial report (``meta["interrupted"]``) instead of an exception.
    """
    start = time.perf_counter()
    if jobs > 1 and len(units) > 1:
        from repro.harness.supervisor import Supervisor, SupervisorConfig

        config = supervisor_config or SupervisorConfig.from_env(
            jobs=jobs,
            unit_timeout=unit_timeout,
            recursion_limit=recursion_limit,
            keep_going=keep_going,
        )
        report = Supervisor(config).run(
            list(units), worker, on_result=on_result, on_event=on_event
        )
    else:
        report = _run_sequential(
            units,
            worker,
            keep_going,
            unit_timeout,
            recursion_limit,
            on_result,
            on_event,
        )
    report.elapsed = time.perf_counter() - start
    return report


def _run_sequential(
    units: Sequence[str],
    worker: Worker,
    keep_going: bool,
    unit_timeout: Optional[float],
    recursion_limit: int,
    on_result: Optional[ResultCallback],
    on_event: Optional[EventCallback],
) -> BatchReport:
    release = Release(units, keep_going, on_result)
    set_emitter(on_event)
    try:
        with interrupt_guard() as interrupt:
            for index, unit in enumerate(units):
                if release.stopped or interrupt.set:
                    break
                release.settle(
                    index, run_one(unit, worker, unit_timeout, recursion_limit)
                )
            report = release.report()
            if interrupt.set:
                report.meta["interrupted"] = True
    finally:
        set_emitter(None)
    return report


# ------------------------------------------------------------- process pool


def _heartbeat_loop(conn, lock, stop: threading.Event, interval: float) -> None:
    """Child-side liveness beacon: a ``("hb", seq)`` message every
    ``interval`` seconds until stopped or the pipe dies."""
    seq = 0
    while not stop.wait(interval):
        seq += 1
        try:
            with lock:
                conn.send(("hb", seq))
        except Exception:
            return


def _child_entry(
    worker,
    unit,
    conn,
    unit_timeout,
    recursion_limit,
    attempt: int = 1,
    heartbeat_interval: float = 0.0,
):
    """Child process body: run the unit, streaming heartbeats and
    progress events, then ship the result and exit.

    Messages on the pipe are ``("hb", seq)`` liveness beacons from a
    daemon thread, ``("ev", dict)`` progress events from
    :func:`emit_progress` call sites inside the worker, ``("clock",
    None)`` from :func:`restart_unit_clock`, and finally one
    ``("result", UnitResult)``.  When profiling is on, the child's
    collector snapshot (spans + counters; the fork-inherited parent
    data is discarded by the collector's pid check) rides home inside
    the UnitResult.

    This is also where injected worker faults land (see
    :mod:`repro.faults`): ``kill`` SIGKILLs the process at unit start,
    ``stall`` silences the heartbeat and sleeps (a hard hang),
    ``drop_pipe`` exits without sending the result.
    """
    # The fork inherits the parent's interrupt_guard handlers, which
    # only set a flag: restore SIGTERM so _reap's terminate() ends the
    # child, and leave Ctrl-C to the parent, which reaps its children.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _faults.enter_worker()
    fault_key = f"{unit}#{attempt}"
    if _faults.fire("kill", fault_key):
        os.kill(os.getpid(), signal.SIGKILL)
    lock = threading.Lock()
    stop_heartbeat = threading.Event()
    if heartbeat_interval > 0:
        threading.Thread(
            target=_heartbeat_loop,
            args=(conn, lock, stop_heartbeat, heartbeat_interval),
            daemon=True,
        ).start()
    if _faults.fire("stall", fault_key):
        stop_heartbeat.set()  # a *hard* hang: liveness stops too
        plan = _faults.active()
        time.sleep(plan.stall_s if plan is not None else 3600.0)
        os._exit(3)

    def emit(event: dict) -> None:
        with lock:
            conn.send(("ev", event))

    def restart_clock() -> None:
        with lock:
            conn.send(("clock", None))

    set_emitter(emit)
    _EMITTER_STATE.restart_clock = restart_clock
    try:
        result = run_one(unit, worker, unit_timeout, recursion_limit)
        result.attempts = attempt
        if _obs.enabled():
            result.obs = _obs.snapshot()
        if _faults.fire("drop_pipe", fault_key):
            stop_heartbeat.set()
            conn.close()
            os._exit(0)
        with lock:
            conn.send(("result", result))
    except Exception as exc:  # pragma: no cover - belt and braces
        try:
            with lock:
                conn.send(
                    ("result", UnitResult(unit=unit, verdict=CRASH, error=repr(exc)))
                )
        except Exception:
            pass
    finally:
        set_emitter(None)
        _EMITTER_STATE.restart_clock = None
        stop_heartbeat.set()
        conn.close()


def _reap(proc) -> None:
    """Terminate, then kill, then join — never leave an orphan.  Also
    joins an already-exited child so its process-table entry (zombie)
    is collected."""
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=1.0)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=1.0)
    if not proc.is_alive():
        proc.join(timeout=1.0)
