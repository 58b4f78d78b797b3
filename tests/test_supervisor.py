"""The supervised pool: crash retry, hang detection, quarantine,
zombie reaping, streaming callbacks, and interrupt semantics."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import faults
from repro.harness import batch
from repro.harness.supervisor import Supervisor, SupervisorConfig


@pytest.fixture(autouse=True)
def clean_fault_state():
    faults.deactivate()
    yield
    faults.deactivate()


def fast_config(**overrides) -> SupervisorConfig:
    """A supervisor tuned for test speed: tight heartbeats and hang
    detection, minimal backoff."""
    defaults = dict(
        jobs=2,
        heartbeat_interval=0.05,
        hang_timeout=1.0,
        backoff=0.01,
        keep_going=True,
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def _scripted(unit, deadline):
    """Worker whose behaviour is encoded in the unit name.

    ``diehard:<path>`` SIGKILLs itself unless ``<path>`` exists (and
    creates it first), so the unit dies on attempt 1 and succeeds on
    attempt 2 — the canonical transient worker death.
    ``always-die`` SIGKILLs itself unconditionally (a poison unit).
    ``slow`` sleeps briefly; ``emit`` streams a progress event.
    """
    if unit.startswith("diehard:"):
        marker = unit.split(":", 1)[1]
        if not os.path.exists(marker):
            with open(marker, "w") as handle:
                handle.write("died once")
            os.kill(os.getpid(), signal.SIGKILL)
        return batch.UnitResult(unit=unit, verdict=batch.OK)
    if unit.startswith("always-die"):
        os.kill(os.getpid(), signal.SIGKILL)
    if unit.startswith("drop-pipe"):
        os._exit(0)  # exits without sending a result
    if unit.startswith("slow"):
        time.sleep(0.3)
    if unit.startswith("emit"):
        batch.emit_progress({"event": "tick", "unit": unit})
    if unit.startswith("warn"):
        return batch.UnitResult(unit=unit, verdict=batch.WARNINGS)
    if unit.startswith("error"):
        raise OSError("scripted input error")
    return batch.UnitResult(unit=unit, verdict=batch.OK)


class TestRetry:
    def test_transient_death_is_retried_and_recovers(self, tmp_path):
        unit = f"diehard:{tmp_path}/marker"
        report = Supervisor(fast_config()).run([unit, "ok"], _scripted)
        by_unit = {r.unit: r for r in report.results}
        assert by_unit[unit].verdict == batch.OK
        assert by_unit[unit].attempts == 2
        assert by_unit["ok"].verdict == batch.OK
        assert report.meta["supervisor"]["deaths"] == 1
        assert report.meta["supervisor"]["retries"] == 1
        assert report.meta["supervisor"]["quarantined"] == 0
        assert report.exit_code == 0

    def test_dropped_pipe_is_a_death_not_a_crash(self):
        report = Supervisor(fast_config(max_worker_deaths=2)).run(
            ["drop-pipe", "ok"], _scripted
        )
        by_unit = {r.unit: r for r in report.results}
        assert by_unit["drop-pipe"].verdict == batch.GAVE_UP
        assert "pipe" in by_unit["drop-pipe"].error
        assert by_unit["ok"].verdict == batch.OK

    def test_undisturbed_run_has_no_supervisor_meta(self):
        report = Supervisor(fast_config()).run(["a", "b", "c"], _scripted)
        assert "supervisor" not in report.meta
        assert "interrupted" not in report.meta
        assert report.exit_code == 0


class TestQuarantine:
    def test_poison_unit_reports_gave_up_with_diagnostic(self):
        report = Supervisor(fast_config()).run(
            ["always-die", "ok-1", "ok-2"], _scripted
        )
        by_unit = {r.unit: r for r in report.results}
        poisoned = by_unit["always-die"]
        assert poisoned.verdict == batch.GAVE_UP
        assert poisoned.severity == 2
        assert poisoned.attempts == 3  # default max_worker_deaths
        (diag,) = poisoned.diagnostics
        assert diag["code"] == "Q007"
        assert diag["kind"] == "quarantine"
        assert "3 worker(s)" in diag["message"]
        # Unaffected units are unaffected.
        assert by_unit["ok-1"].verdict == batch.OK
        assert by_unit["ok-2"].verdict == batch.OK
        assert report.exit_code == 2
        assert report.meta["supervisor"]["quarantined"] == 1

    def test_quarantine_respects_max_worker_deaths(self):
        report = Supervisor(fast_config(max_worker_deaths=1)).run(
            ["always-die"], _scripted
        )
        (result,) = report.results
        assert result.verdict == batch.GAVE_UP
        assert result.attempts == 1  # no retry budget at 1


class TestHangDetection:
    def test_stalled_worker_is_detected_and_quarantined(self):
        # The stall fault silences the child's heartbeat and sleeps —
        # a hard hang only heartbeat staleness can catch.
        faults.activate("seed=0,stall=1,stall_s=60")
        report = Supervisor(
            fast_config(hang_timeout=0.4, max_worker_deaths=2)
        ).run(["victim"], _scripted)
        (result,) = report.results
        assert result.verdict == batch.GAVE_UP
        assert "hung" in result.error
        assert report.meta["supervisor"]["hangs"] == 2

    def test_transient_stall_recovers_on_retry(self):
        # Worker-fault keys include the attempt number, so pick a unit
        # whose stall fires on attempt 1 but not on attempt 2.
        plan = faults.FaultPlan(seed=0, rates={"stall": 0.5})
        unit = next(
            f"unit-{i}"
            for i in range(1000)
            if plan.decide("stall", f"unit-{i}#1")
            and not plan.decide("stall", f"unit-{i}#2")
        )
        faults.activate("seed=0,stall=0.5,stall_s=60")
        report = Supervisor(fast_config(hang_timeout=0.4)).run(
            [unit], _scripted
        )
        (result,) = report.results
        assert result.verdict == batch.OK
        assert result.attempts == 2
        assert report.meta["supervisor"]["hangs"] == 1

    def test_healthy_slow_worker_is_not_flagged_as_hung(self):
        # Heartbeats outlive a slow unit: 0.3 s of work under a 1 s
        # hang timeout with 0.05 s beats must not count as a death.
        report = Supervisor(fast_config()).run(["slow-1", "slow-2"], _scripted)
        assert all(r.verdict == batch.OK for r in report.results)
        assert "supervisor" not in report.meta


class TestTimeouts:
    def test_timeout_is_final_never_retried(self):
        report = Supervisor(
            fast_config(unit_timeout=0.2, hang_timeout=5.0)
        ).run(["slow-halt", "ok"], _scripted)
        by_unit = {r.unit: r for r in report.results}
        # "slow" sleeps 0.3 s > the 0.2 s budget: preemptively killed.
        assert by_unit["slow-halt"].verdict == batch.TIMEOUT
        assert by_unit["slow-halt"].attempts == 1
        assert by_unit["ok"].verdict == batch.OK
        assert "supervisor" not in report.meta  # a timeout is not a death


class TestReaping:
    def test_every_spawned_child_is_joined(self):
        sup = Supervisor(fast_config())
        sup.run(["a", "always-die", "b", "c"], _scripted)
        assert sup.spawned  # the run actually forked workers
        for proc in sup.spawned:
            assert not proc.is_alive()
            assert proc.exitcode is not None  # joined, not abandoned
        assert not multiprocessing.active_children()

    def test_early_stop_reaps_in_flight_workers(self):
        sup = Supervisor(fast_config(keep_going=False))
        report = sup.run(["error-1", "slow-2", "ok-3"], _scripted)
        for proc in sup.spawned:
            assert not proc.is_alive()
            assert proc.exitcode is not None
        assert not multiprocessing.active_children()
        assert report.exit_code == 2


def _marking(unit, deadline):
    """Worker for ``<dir>/<name>`` units: touch ``<dir>/<name>.started``,
    then ``fail`` raises an input error and ``slow`` waits (at most 5 s)
    until ``fail`` has started, plus half a second for the parent to
    settle it.  Every other unit is OK."""
    folder, name = os.path.split(unit)
    with open(unit + ".started", "w"):
        pass
    if name == "fail":
        raise OSError("scripted input error")
    if name == "slow":
        fail_started = os.path.join(folder, "fail.started")
        give_up = time.monotonic() + 5.0
        while not os.path.exists(fail_started) and time.monotonic() < give_up:
            time.sleep(0.01)
        time.sleep(0.5)
    return batch.UnitResult(unit=unit, verdict=batch.OK)


def _untimed(report: batch.BatchReport) -> dict:
    payload = report.to_dict()
    payload.pop("elapsed")
    for unit in payload["units"]:
        unit.pop("elapsed")
    return payload


class TestStopAtFailure:
    def test_units_past_a_failure_never_start(self, tmp_path):
        """Without keep_going, a unit past one that settled ERROR will
        be SKIPPED, so the pool starts none of them, even while an
        earlier unit still runs."""
        units = [str(tmp_path / n) for n in ("slow", "fail", "a", "b", "c")]
        pooled = Supervisor(fast_config(keep_going=False)).run(
            units, _marking
        )
        for name in ("a", "b", "c"):
            assert not (tmp_path / f"{name}.started").exists(), name
        assert [r.verdict for r in pooled.results] == [
            batch.OK, batch.ERROR, batch.SKIPPED, batch.SKIPPED, batch.SKIPPED
        ]
        serial = batch.run_units(units, _marking, keep_going=False, jobs=1)
        assert _untimed(pooled) == _untimed(serial)
        assert not multiprocessing.active_children()


class TestStreaming:
    def test_on_result_streams_in_completion_order(self):
        seen = []
        report = Supervisor(fast_config()).run(
            ["slow-a", "b", "c"], _scripted, on_result=seen.append
        )
        assert sorted(r.unit for r in seen) == ["b", "c", "slow-a"]
        # The slow unit settles last despite being dispatched first.
        assert seen[-1].unit == "slow-a"
        # The report itself stays in input order.
        assert [r.unit for r in report.results] == ["slow-a", "b", "c"]

    def test_on_event_receives_worker_progress(self):
        events = []
        Supervisor(fast_config()).run(
            ["emit-1", "emit-2"], _scripted, on_event=events.append
        )
        assert sorted(e["unit"] for e in events) == ["emit-1", "emit-2"]
        assert all(e["event"] == "tick" for e in events)

    def test_sequential_run_units_streams_too(self):
        seen = []
        events = []
        report = batch.run_units(
            ["emit-1", "warn-2"],
            _scripted,
            jobs=1,
            on_result=seen.append,
            on_event=events.append,
        )
        assert [r.unit for r in seen] == ["emit-1", "warn-2"]
        assert [e["unit"] for e in events] == ["emit-1"]
        assert report.exit_code == 1


class TestInterrupt:
    def _interrupt_soon(self, delay=0.25):
        pid = os.getpid()
        timer = threading.Timer(delay, lambda: os.kill(pid, signal.SIGINT))
        timer.start()
        return timer

    def test_pool_interrupt_yields_partial_report(self):
        timer = self._interrupt_soon()
        try:
            start = time.perf_counter()
            report = batch.run_units(
                [f"slow-{i}" for i in range(12)],
                _scripted,
                jobs=2,
                keep_going=True,
            )
            elapsed = time.perf_counter() - start
        finally:
            timer.cancel()
        assert report.meta.get("interrupted") is True
        assert elapsed < 5.0  # did not run all 12 slow units
        counts = report.counts()
        assert counts.get(batch.SKIPPED, 0) >= 1
        assert len(report.results) == 12  # the report covers every unit
        assert not multiprocessing.active_children()
        # Exit code stays on the documented contract: nothing failed.
        assert report.exit_code == 0

    def test_sequential_interrupt_yields_partial_report(self):
        timer = self._interrupt_soon()
        try:
            report = batch.run_units(
                [f"slow-{i}" for i in range(12)],
                _scripted,
                jobs=1,
                keep_going=True,
            )
        finally:
            timer.cancel()
        assert report.meta.get("interrupted") is True
        assert report.counts().get(batch.SKIPPED, 0) >= 1
        assert len(report.results) == 12
