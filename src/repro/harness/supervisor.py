"""Worker-pool supervision: retry, backoff, quarantine, reaping.

The batch pool used to treat a dead worker as a final ``CRASH``
verdict.  That is the wrong call for a long-running pipeline: a worker
OOM-killed by the kernel, a dropped result pipe, or a wedged child
says nothing conclusive about the *unit* — rerunning it usually
succeeds.  The supervisor owns that judgment.  Each unit moves through
a small state machine:

::

    PENDING ──spawn──▶ RUNNING ──result──▶ DONE
       ▲                  │
       │                  ├─ deadline ───▶ DONE (TIMEOUT; final, never
       │                  │                retried — rerunning a unit
       │                  │                that blew its budget would
       │                  │                just blow it again)
       │                  │
       │                  └─ death ──▶ deaths < max? ── yes ─▶ RETRY_WAIT
       │                     (crash /                           (exponential
       │                      hang /                             backoff)
       │                      pipe                 no             │
       │                      drop)                 │             │
       │                                            ▼             │
       │                                       QUARANTINED        │
       │                                       (GAVE_UP, Q007)    │
       └────────────────────────────────────────────────────────┘

*Death* means the child stopped without delivering a result: its
sentinel fired (crash, OOM kill), its heartbeat went stale for longer
than ``hang_timeout`` (hang — the child is killed), or its pipe closed
early (drop).  Deaths are counted **per unit**: a unit that kills
``max_worker_deaths`` workers in a row is a *poison unit* and is
quarantined — reported ``GAVE_UP`` with a ``Q007`` diagnostic naming
every death — instead of sinking the whole run.  Retries wait out an
exponential backoff (``backoff * backoff_factor**(deaths-1)``) so a
transiently sick machine (fork storms, memory pressure) gets breathing
room before the next attempt.

Liveness is heartbeats: children beat every ``heartbeat_interval``
seconds (a ``("hb", seq)`` message from a daemon thread); any message
— beat, progress event, result — refreshes the unit's liveness clock.
A ``("clock", None)`` message (:func:`repro.harness.batch.
restart_unit_clock`) restarts the unit's ``unit_timeout`` budget, for
units made of separately budgeted parts.
Progress events stream to the caller's ``on_event`` as they arrive.
Settled units stream to ``on_result`` through :class:`repro.harness.
batch.Release`: in completion order with ``keep_going``, else in input
order, stopping at the first ERROR-or-worse unit (the children still
running are reaped).  The report itself is always in input order.

SIGINT/SIGTERM mid-run (see :func:`repro.harness.batch.
interrupt_guard`) stops dispatch, kills what is running, marks the
rest ``SKIPPED``, and returns the partial report with
``meta["interrupted"]`` set — the caller still flushes valid output
under the normal exit-code contract.  Every child ever spawned is
joined on the way out, including already-exited ones, so no zombies
survive the run.

Counters (in ``repro.obs``): ``supervisor.retries``, ``.deaths``,
``.hangs``, ``.quarantined``.  The same numbers land in
``meta["supervisor"]`` — only when any of them is nonzero, so
undisturbed runs keep their exact pre-supervisor report schema.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro import obs as _obs
from repro.core.checker.diagnostics import code_for
from repro.harness import batch
from repro.harness.batch import (
    GAVE_UP,
    TIMEOUT,
    BatchReport,
    UnitResult,
    Worker,
    _child_entry,
    _reap,
)


# Environment variables already warned about (warn once per process,
# not once per Supervisor — from_env runs on every batch).
_WARNED_ENV: set = set()


def env_knob(name: str, default, parse, env=None):
    """Parse one numeric environment override, falling back to
    ``default`` on a malformed value instead of crashing the run.

    A bad knob warns once per process (on stderr, so it survives
    ``--format json``) and every knob is parsed independently — one
    typo must not silently disable the overrides that follow it.
    """
    source = os.environ if env is None else env
    raw = source.get(name)
    if raw is None:
        return default
    try:
        return parse(raw)
    except (TypeError, ValueError):
        if name not in _WARNED_ENV:
            _WARNED_ENV.add(name)
            print(
                f"warning: malformed {name}={raw!r}; using default {default!r}",
                file=sys.stderr,
            )
        return default


def pool_context():
    """The multiprocessing context worker pools are built from: fork
    where the platform has it (cheap, shares the warm parent state),
    spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass
class SupervisorConfig:
    """Tunables for the supervised pool."""

    jobs: int = 2
    unit_timeout: Optional[float] = None
    recursion_limit: int = 20000
    keep_going: bool = True
    #: Child heartbeat period; 0 disables heartbeats (and with them
    #: hang detection).
    heartbeat_interval: float = 0.25
    #: How stale a child's liveness clock may get before it is declared
    #: hung and killed.  Generous by default: a busy CI box can starve
    #: a healthy child of CPU for a while.
    hang_timeout: float = 10.0
    #: Worker deaths one unit may cause before quarantine.
    max_worker_deaths: int = 3
    #: First retry delay; doubles per subsequent death of the same unit.
    backoff: float = 0.05
    backoff_factor: float = 2.0

    @classmethod
    def from_env(cls, **overrides) -> "SupervisorConfig":
        """Build a config, letting the environment tighten the liveness
        knobs (``REPRO_HANG_TIMEOUT``, ``REPRO_HEARTBEAT_INTERVAL``,
        ``REPRO_MAX_WORKER_DEATHS``) — how tests and CI make hang
        detection fast without threading flags through every layer."""
        config = cls(**overrides)
        config.hang_timeout = env_knob(
            "REPRO_HANG_TIMEOUT", config.hang_timeout, float
        )
        config.heartbeat_interval = env_knob(
            "REPRO_HEARTBEAT_INTERVAL", config.heartbeat_interval, float
        )
        config.max_worker_deaths = env_knob(
            "REPRO_MAX_WORKER_DEATHS", config.max_worker_deaths, int
        )
        return config


@dataclass
class _Slot:
    """One live child working one unit attempt."""

    index: int
    unit: str
    recv: object  # parent's read end of the result pipe
    started: float
    attempt: int
    last_seen: float  # refreshed by every message off the pipe
    done: bool = False  # result landed; pipe may still hold late beats


@dataclass
class _UnitState:
    """Supervisor-side bookkeeping for one unit of the batch."""

    unit: str
    deaths: int = 0
    attempts: int = 0
    eligible_at: float = 0.0  # backoff gate for the next attempt
    causes: List[str] = field(default_factory=list)


class Supervisor:
    def __init__(self, config: SupervisorConfig):
        self.config = config
        self._ctx = pool_context()
        # Every child ever spawned — joined in run()'s finally so not
        # even an already-exited child is left as a zombie.
        self.spawned: List[object] = []
        self.retries = 0
        self.deaths = 0
        self.hangs = 0
        self.quarantined = 0

    # ------------------------------------------------------------- run

    def run(
        self,
        units: List[str],
        worker: Worker,
        on_result=None,
        on_event=None,
    ) -> BatchReport:
        config = self.config
        states = [_UnitState(unit=u) for u in units]
        release = batch.Release(units, config.keep_going, on_result)
        ready: Deque[int] = deque(range(len(units)))
        waiting: List[int] = []  # indices sitting out a backoff
        running: Dict[object, _Slot] = {}  # proc -> slot
        interrupted = False

        def settle(index: int, outcome: UnitResult) -> None:
            outcome.attempts = max(outcome.attempts, states[index].attempts)
            if outcome.obs is not None:
                _obs.merge(outcome.obs)
                outcome.obs = None
            release.settle(index, outcome)

        def record_death(index: int, cause: str, hang: bool = False) -> None:
            """A worker died under ``index``'s unit: retry or quarantine."""
            state = states[index]
            state.deaths += 1
            state.causes.append(cause)
            self.deaths += 1
            _obs.incr("supervisor.deaths")
            if hang:
                self.hangs += 1
                _obs.incr("supervisor.hangs")
            if state.deaths >= config.max_worker_deaths:
                self.quarantined += 1
                _obs.incr("supervisor.quarantined")
                settle(index, self._quarantine_result(state))
                return
            self.retries += 1
            _obs.incr("supervisor.retries")
            delay = config.backoff * (
                config.backoff_factor ** (state.deaths - 1)
            )
            state.eligible_at = time.perf_counter() + delay
            waiting.append(index)

        try:
            with batch.interrupt_guard() as interrupt:
                while ready or waiting or running:
                    now = time.perf_counter()
                    if interrupt.set:
                        interrupted = True
                        break
                    # Promote units whose backoff has elapsed.
                    if waiting:
                        due = [i for i in waiting if states[i].eligible_at <= now]
                        for i in due:
                            waiting.remove(i)
                            ready.append(i)
                    if release.stopped:
                        # Every unit still out is SKIPPED; the finally
                        # below reaps the children running them.
                        break
                    while ready and len(running) < config.jobs:
                        self._spawn(ready.popleft(), states, worker, running)
                    if not running and not ready and waiting:
                        # Everything alive is sitting out a backoff.
                        wake = min(states[i].eligible_at for i in waiting)
                        time.sleep(min(0.5, max(0.0, wake - now)))
                        continue
                    if not running:
                        continue
                    self._wait(running, waiting, states)
                    if interrupt.set:
                        interrupted = True
                        break
                    self._service(running, settle, record_death, on_event)
                if interrupted:
                    # Cancel in-flight attempts; their units report
                    # SKIPPED below, like everything never started.
                    for proc, slot in list(running.items()):
                        del running[proc]
                        _reap(proc)
                        self._close(slot.recv)
        finally:
            for proc, slot in list(running.items()):
                _reap(proc)
                self._close(slot.recv)
            running.clear()
            # The zombie sweep: join every child ever spawned, even the
            # ones that exited long ago and were already handled — a
            # handled child is join()ed again harmlessly, an unhandled
            # one stops being a zombie.
            for proc in self.spawned:
                _reap(proc)

        report = release.report()
        if interrupted:
            report.meta["interrupted"] = True
        counters = {
            "retries": self.retries,
            "deaths": self.deaths,
            "hangs": self.hangs,
            "quarantined": self.quarantined,
        }
        if any(counters.values()):
            report.meta["supervisor"] = counters
        return report

    # ------------------------------------------------------- internals

    def _spawn(
        self,
        index: int,
        states: List[_UnitState],
        worker: Worker,
        running: Dict[object, _Slot],
    ) -> None:
        state = states[index]
        state.attempts += 1
        recv, send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_child_entry,
            args=(
                worker,
                state.unit,
                send,
                self.config.unit_timeout,
                self.config.recursion_limit,
                state.attempts,
                self.config.heartbeat_interval,
            ),
            daemon=True,
        )
        proc.start()
        send.close()  # parent keeps only the read end
        self.spawned.append(proc)
        now = time.perf_counter()
        running[proc] = _Slot(
            index=index,
            unit=state.unit,
            recv=recv,
            started=now,
            attempt=state.attempts,
            last_seen=now,
        )

    def _wait(
        self,
        running: Dict[object, _Slot],
        waiting: List[int],
        states: List[_UnitState],
    ) -> None:
        """Block until a message, a child exit, or the nearest timer —
        per-unit deadline, hang deadline, or backoff wakeup."""
        config = self.config
        now = time.perf_counter()
        timers: List[float] = []
        for slot in running.values():
            if config.unit_timeout is not None:
                timers.append(slot.started + config.unit_timeout)
            if config.heartbeat_interval > 0 and config.hang_timeout > 0:
                timers.append(slot.last_seen + config.hang_timeout)
        timers.extend(states[i].eligible_at for i in waiting)
        timeout = max(0.0, min(timers) - now) if timers else None
        waitables = [slot.recv for slot in running.values()]
        waitables += [proc.sentinel for proc in running]
        multiprocessing.connection.wait(waitables, timeout=timeout)

    def _service(
        self,
        running: Dict[object, _Slot],
        settle,
        record_death,
        on_event,
    ) -> None:
        """Drain every live pipe and judge every child: result, timeout,
        hang, or death."""
        config = self.config
        for proc in list(running):
            slot = running[proc]
            outcome: Optional[UnitResult] = None
            died = False
            # Drain everything queued on the pipe: heartbeats refresh
            # liveness, events stream out, a result settles the unit.
            try:
                while outcome is None and slot.recv.poll():
                    kind, payload = slot.recv.recv()
                    slot.last_seen = time.perf_counter()
                    if kind == "result":
                        outcome = payload
                    elif kind == "clock":
                        slot.started = slot.last_seen
                    elif kind == "ev" and on_event is not None:
                        try:
                            on_event(payload)
                        except Exception:
                            pass
            except (EOFError, OSError):
                # Pipe closed without a result: the child dropped it or
                # died mid-send.
                died = True
            now = time.perf_counter()
            if outcome is not None:
                if not outcome.elapsed:
                    outcome.elapsed = now - slot.started
                del running[proc]
                _reap(proc)
                self._close(slot.recv)
                settle(slot.index, outcome)
                continue
            if died or (not proc.is_alive() and not slot.recv.poll()):
                exitcode = proc.exitcode
                del running[proc]
                _reap(proc)
                self._close(slot.recv)
                cause = (
                    "result pipe closed before a result"
                    if died and exitcode in (0, None)
                    else f"worker died (exitcode {exitcode})"
                )
                record_death(slot.index, cause)
                continue
            if config.unit_timeout is not None and (
                now - slot.started > config.unit_timeout
            ):
                # Final, not a death: the unit spent its budget.
                del running[proc]
                _reap(proc)
                self._close(slot.recv)
                settle(
                    slot.index,
                    UnitResult(
                        unit=slot.unit,
                        verdict=TIMEOUT,
                        elapsed=now - slot.started,
                        error=f"killed after {config.unit_timeout:g} s",
                    ),
                )
                continue
            if (
                config.heartbeat_interval > 0
                and config.hang_timeout > 0
                and now - slot.last_seen > config.hang_timeout
            ):
                del running[proc]
                _reap(proc)
                self._close(slot.recv)
                record_death(
                    slot.index,
                    f"worker hung (no heartbeat for {config.hang_timeout:g} s)",
                    hang=True,
                )

    def _quarantine_result(self, state: _UnitState) -> UnitResult:
        deaths = state.deaths
        causes = "; ".join(
            f"attempt {i + 1}: {cause}" for i, cause in enumerate(state.causes)
        )
        message = (
            f"quarantined after killing {deaths} worker(s): {causes}"
        )
        return UnitResult(
            unit=state.unit,
            verdict=GAVE_UP,
            attempts=state.attempts,
            error=message,
            diagnostics=[
                {
                    "code": code_for("quarantine"),
                    "kind": "quarantine",
                    "qualifier": "-",
                    "message": message,
                    "severity": "error",
                    "text": f"error: {message}",
                }
            ],
        )

    @staticmethod
    def _close(recv) -> None:
        try:
            recv.close()
        except OSError:
            pass
