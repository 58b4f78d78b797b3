"""Tests for the batch engine: per-unit isolation, verdicts, exit
codes, keep-going semantics, and the process pool."""

import signal
import socket
import threading
import time

import pytest

from repro.cfront.parser import ParseError
from repro.cfront.lexer import Token
from repro.harness import batch
from repro.harness.watchdog import Deadline, DeadlineExceeded


def _ok(unit, deadline):
    return batch.UnitResult(unit=unit, verdict=batch.OK)


def _scripted(unit, deadline):
    """Worker whose behaviour is encoded in the unit name."""
    if unit.startswith("parse-error"):
        raise ParseError("expected type", Token("punct", "{", 1, 1))
    if unit.startswith("io-error"):
        raise OSError("unreadable")
    if unit.startswith("crash"):
        raise ZeroDivisionError("internal bug")
    if unit.startswith("deep"):
        raise RecursionError()
    if unit.startswith("slow"):
        deadline.check("slow unit")
        time.sleep(0.05)
        deadline.check("slow unit")
    if unit.startswith("warn"):
        return batch.UnitResult(
            unit=unit, verdict=batch.WARNINGS, diagnostics=[{"message": "w"}]
        )
    return batch.UnitResult(unit=unit, verdict=batch.OK)


def _signal_policy(conn):
    """Report the signal settings the child runs under, then wait."""
    conn.send((
        signal.getsignal(signal.SIGTERM),
        signal.getsignal(signal.SIGINT),
        signal.set_wakeup_fd(-1),
    ))
    time.sleep(30.0)


class TestRunOne:
    def test_ok(self):
        res = batch.run_one("u", _ok)
        assert res.verdict == batch.OK
        assert res.severity == 0
        assert res.elapsed >= 0

    def test_input_error_downgrades(self):
        res = batch.run_one("parse-error", _scripted)
        assert res.verdict == batch.ERROR
        assert "expected type" in res.error
        assert res.severity == 2

    def test_os_error_is_input_error(self):
        assert batch.run_one("io-error", _scripted).verdict == batch.ERROR

    def test_internal_crash_survives(self):
        res = batch.run_one("crash", _scripted)
        assert res.verdict == batch.CRASH
        assert "ZeroDivisionError" in res.error
        assert res.severity == 3

    def test_recursion_error_is_an_input_error(self):
        res = batch.run_one("deep", _scripted)
        assert res.verdict == batch.ERROR
        assert "nested" in res.error

    def test_cooperative_timeout(self):
        res = batch.run_one("slow", _scripted, unit_timeout=0.01)
        assert res.verdict == batch.TIMEOUT
        assert res.severity == 2


class TestRunUnitsSequential:
    def test_mixed_batch_reports_every_unit(self):
        report = batch.run_units(
            ["ok-1", "parse-error-2", "warn-3", "crash-4"],
            _scripted,
            keep_going=True,
        )
        verdicts = [r.verdict for r in report.results]
        assert verdicts == [batch.OK, batch.ERROR, batch.WARNINGS, batch.CRASH]
        assert report.exit_code == 3  # a crash was survived
        assert report.counts() == {
            batch.OK: 1, batch.ERROR: 1, batch.WARNINGS: 1, batch.CRASH: 1,
        }

    def test_exit_code_taxonomy(self):
        assert batch.run_units(["a", "b"], _scripted).exit_code == 0
        assert batch.run_units(["warn-a"], _scripted).exit_code == 1
        assert batch.run_units(["parse-error"], _scripted).exit_code == 2
        assert batch.run_units(["crash"], _scripted).exit_code == 3

    def test_warnings_do_not_stop_the_batch_without_keep_going(self):
        report = batch.run_units(
            ["warn-1", "ok-2"], _scripted, keep_going=False
        )
        assert [r.verdict for r in report.results] == [
            batch.WARNINGS, batch.OK,
        ]

    def test_stop_on_error_without_keep_going(self):
        report = batch.run_units(
            ["ok-1", "parse-error-2", "ok-3"], _scripted, keep_going=False
        )
        assert [r.verdict for r in report.results] == [
            batch.OK, batch.ERROR, batch.SKIPPED,
        ]
        assert report.exit_code == 2  # the skip does not mask the error

    def test_keep_going_checks_everything(self):
        report = batch.run_units(
            ["parse-error-1", "ok-2", "warn-3"], _scripted, keep_going=True
        )
        assert [r.verdict for r in report.results] == [
            batch.ERROR, batch.OK, batch.WARNINGS,
        ]

    def test_to_dict_shape(self):
        report = batch.run_units(["ok", "warn-x"], _scripted)
        data = report.to_dict()
        assert data["exit_code"] == 1
        assert [u["verdict"] for u in data["units"]] == [
            batch.OK, batch.WARNINGS,
        ]
        assert data["units"][1]["diagnostics"] == [{"message": "w"}]
        assert data["counts"][batch.WARNINGS] == 1

    def test_summary_mentions_counts(self):
        report = batch.run_units(["ok", "crash"], _scripted)
        assert "1 CRASH" in report.summary()
        assert "1 OK" in report.summary()


def _pool_worker(unit, deadline):
    if unit == "hang":
        while True:  # ignores its deadline: must be killed preemptively
            time.sleep(0.05)
    if unit == "crash":
        raise ZeroDivisionError("boom")
    return batch.UnitResult(unit=unit, verdict=batch.OK)


def _ordered_worker(unit, deadline):
    if unit == "late-error":
        time.sleep(0.3)  # settles after the units dispatched with it
        raise OSError("unreadable")
    if unit == "warn":
        return batch.UnitResult(unit=unit, verdict=batch.WARNINGS)
    return batch.UnitResult(unit=unit, verdict=batch.OK)


class TestProcessPool:
    def test_pool_preserves_order_and_isolates_failures(self):
        report = batch.run_units(
            ["a", "crash", "b"], _pool_worker, jobs=3, keep_going=True
        )
        assert [r.unit for r in report.results] == ["a", "crash", "b"]
        assert [r.verdict for r in report.results] == [
            batch.OK, batch.CRASH, batch.OK,
        ]

    def test_pool_kills_hung_unit_and_reaps_it(self):
        start = time.perf_counter()
        report = batch.run_units(
            ["a", "hang", "b"],
            _pool_worker,
            jobs=3,
            keep_going=True,
            unit_timeout=0.5,
        )
        elapsed = time.perf_counter() - start
        by_unit = {r.unit: r for r in report.results}
        assert by_unit["hang"].verdict == batch.TIMEOUT
        assert by_unit["a"].verdict == batch.OK
        assert by_unit["b"].verdict == batch.OK
        assert elapsed < 10.0  # the hang did not stall the run

    def test_reaped_hung_child_exits_on_sigterm(self):
        # The fork must not keep the parent's flag-only SIGTERM handler,
        # or terminate() is ignored and the reap falls back to SIGKILL.
        from repro.harness.supervisor import Supervisor, SupervisorConfig

        sup = Supervisor(
            SupervisorConfig(jobs=2, unit_timeout=0.2, keep_going=True)
        )
        report = sup.run(["hang", "ok"], _pool_worker)
        assert [r.verdict for r in report.results] == [
            batch.TIMEOUT, batch.OK,
        ]
        assert sup.spawned[0].exitcode == -signal.SIGTERM

    def test_child_ends_on_sigterm_and_leaves_the_wakeup_fd_alone(self):
        # A parent with its own SIGTERM handler and wakeup fd, as a
        # serve daemon's event loop has, starting a child from a side
        # thread, as the daemon's executor does: stopping the child
        # must end it, and no signal byte may reach the parent's fd.
        from repro.harness.supervisor import Child

        reader, writer = socket.socketpair()
        reader.setblocking(False)
        writer.setblocking(False)
        old_handler = signal.signal(signal.SIGTERM, lambda *_: None)
        old_fd = signal.set_wakeup_fd(writer.fileno())
        try:
            started = []
            side = threading.Thread(
                target=lambda: started.append(
                    Child(_signal_policy, (), duplex=False, daemon=True)
                )
            )
            side.start()
            side.join()
            child = started[0]
            assert child.conn.recv() == (signal.SIG_DFL, signal.SIG_IGN, -1)
            child.stop()
            assert child.exitcode == -signal.SIGTERM
            with pytest.raises(BlockingIOError):
                reader.recv(1)
        finally:
            signal.set_wakeup_fd(old_fd)
            signal.signal(signal.SIGTERM, old_handler)
            reader.close()
            writer.close()

    def test_jobs_change_neither_report_nor_stream_without_keep_going(self):
        runs = []
        for jobs in (1, 2):
            seen = []
            report = batch.run_units(
                ["late-error", "warn", "ok"],
                _ordered_worker,
                jobs=jobs,
                keep_going=False,
                on_result=seen.append,
            )
            runs.append((
                [(r.unit, r.verdict) for r in report.results],
                [r.unit for r in seen],
            ))
        assert runs[0] == runs[1] == (
            [
                ("late-error", batch.ERROR),
                ("warn", batch.SKIPPED),
                ("ok", batch.SKIPPED),
            ],
            ["late-error"],
        )

    def test_pool_single_job_fallback(self):
        # jobs=1 takes the sequential path even when requested via pool
        report = batch.run_units(["a", "b"], _pool_worker, jobs=1)
        assert report.exit_code == 0
