"""The observability layer (repro.obs) and its pipeline integration.

Covers the contract promised in docs/observability.md:

* spans nest, time monotonically, and survive mispaired exits;
* the disabled path allocates nothing (a shared no-op singleton);
* pool workers ship their collector snapshot home through the result
  pipe and the parent merges it (sums counters, maxes ``*_peak`` ones,
  grafts spans with the child pid stamped);
* ``mark``/``since`` slice one invocation out of a long-lived
  collector; ``build_timings`` derives the per-theory prover split;
* a timed-out pool batch leaks no file descriptors (regression: the
  abort path used to drop the read ends unclosed);
* ``profile=True`` on an API request adds the additive ``timings``
  block — and ``profile=False`` adds nothing;
* the cache-store fixes: ``created`` is a monotonic insertion
  sequence, and ``stores`` is not counted when the disk tier failed;
* the difftest minimizer records *why* it crashed instead of silently
  returning None.
"""

import dataclasses
import json
import os
import sqlite3
import time

import pytest

from repro import obs
from repro.cache.store import ProofCache
from repro.cache.fingerprint import ProofKey
from repro.harness import batch
from repro.obs.collector import NULL_SPAN, Collector


@pytest.fixture(autouse=True)
def _clean_collector():
    """Every test starts and ends with profiling off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# ------------------------------------------------------------ collector


class TestCollector:
    def test_spans_nest_and_time(self):
        obs.enable()
        with obs.span("outer", unit="u"):
            time.sleep(0.002)
            with obs.span("inner"):
                time.sleep(0.002)
        (root,) = obs.snapshot()["spans"]
        assert root["name"] == "outer"
        assert root["attrs"] == {"unit": "u"}
        (child,) = root["children"]
        assert child["name"] == "inner"
        assert root["ms"] >= child["ms"] > 0

    def test_counters_timer_and_peak(self):
        obs.enable()
        obs.incr("a", 2)
        obs.incr("a")
        with obs.timer("t_ms"):
            time.sleep(0.002)
        obs.count_max("q_peak", 5)
        obs.count_max("q_peak", 3)
        counters = obs.snapshot()["counters"]
        assert counters["a"] == 3
        assert counters["t_ms"] > 0
        assert counters["q_peak"] == 5

    def test_disabled_mode_returns_shared_noop_singleton(self):
        assert not obs.enabled()
        assert obs.span("x", anything=1) is NULL_SPAN
        assert obs.timer("y_ms") is NULL_SPAN
        obs.incr("never")
        obs.count_max("never_peak", 9)
        with obs.span("x"):
            pass
        assert obs.snapshot()["counters"] == {}
        assert obs.snapshot()["spans"] == []

    def test_mark_since_slices_one_invocation(self):
        obs.enable()
        obs.incr("n", 5)
        with obs.span("before"):
            pass
        marker = obs.mark()
        obs.incr("n", 2)
        with obs.span("after"):
            pass
        slice_ = obs.since(marker)
        assert slice_["counters"] == {"n": 2}
        assert [s["name"] for s in slice_["spans"]] == ["after"]

    def test_merge_sums_counters_and_maxes_peaks(self):
        obs.enable()
        obs.incr("n", 1)
        obs.count_max("c_peak", 10)
        obs.merge(
            {
                "pid": 99999,
                "counters": {"n": 4, "c_peak": 7, "fresh": 1},
                "spans": [
                    {"name": "unit", "attrs": {}, "ms": 1.5, "children": []}
                ],
            }
        )
        counters = obs.snapshot()["counters"]
        assert counters["n"] == 5
        assert counters["c_peak"] == 10  # max, not 17
        assert counters["fresh"] == 1
        grafted = [
            s for s in obs.snapshot()["spans"] if s["name"] == "unit"
        ]
        assert grafted and grafted[0]["attrs"]["pid"] == 99999

    def test_mispaired_exit_does_not_corrupt_the_stack(self):
        collector = Collector()
        outer = collector.span("outer", {})
        inner = collector.span("inner", {})
        outer.__enter__()
        inner.__enter__()
        outer.__exit__(None, None, None)  # out of order
        inner.__exit__(None, None, None)
        # Nothing raises, every span still lands somewhere, and a fresh
        # span opened afterwards nests normally.
        with collector.span("later", {}):
            pass
        names = {s["name"] for s in collector.snapshot()["spans"]}
        assert "outer" in names and "later" in names


class TestBuildTimings:
    def test_euf_is_theory_minus_linarith(self):
        slice_ = {
            "counters": {
                "prover.theory_ms": 10.0,
                "prover.linarith_ms": 4.0,
                "prover.calls": 2,
            },
            "spans": [],
        }
        timings = obs.build_timings(slice_, total_ms=50.0)
        assert timings["prover"]["euf_ms"] == 6.0
        assert timings["prover"]["calls"] == 2
        assert timings["total_ms"] == 50.0

    def test_phase_spans_are_aggregated_with_counts(self):
        slice_ = {
            "counters": {},
            "spans": [
                {
                    "name": "parse",
                    "attrs": {},
                    "ms": 2.0,
                    "children": [
                        {"name": "parse", "attrs": {}, "ms": 1.0,
                         "children": []},
                    ],
                },
            ],
        }
        timings = obs.build_timings(slice_)
        assert timings["phases"]["parse"] == {"ms": 3.0, "count": 2}


# ------------------------------------------------------ pool integration


def _obs_worker(unit, deadline):
    obs.incr("worker.calls")
    obs.count_max("worker.n_peak", int(unit[-1]))
    with obs.span("work", unit=unit):
        pass
    return batch.UnitResult(unit=unit, verdict=batch.OK)


def _hang_worker(unit, deadline):
    if unit == "hang":
        while True:
            time.sleep(0.05)
    return batch.UnitResult(unit=unit, verdict=batch.OK)


def _flaky_worker(unit, deadline):
    if unit == "bad":
        raise OSError("broken input")
    time.sleep(0.05)
    return batch.UnitResult(unit=unit, verdict=batch.OK)


def _open_fds():
    return set(os.listdir("/proc/self/fd"))


class TestPoolObservability:
    def test_fork_workers_ship_spans_and_counters_home(self):
        obs.enable()
        report = batch.run_units(
            ["w1", "w2", "w3"], _obs_worker, jobs=2, keep_going=True
        )
        assert report.exit_code == 0
        counters = obs.snapshot()["counters"]
        assert counters["worker.calls"] == 3  # summed across children
        assert counters["worker.n_peak"] == 3  # maxed across children
        spans = obs.snapshot()["spans"]
        units = [s for s in spans if s["name"] == "unit"]
        assert len(units) == 3
        # Child spans carry their origin pid and their nested tree.
        own_pid = os.getpid()
        assert all(s["attrs"].get("pid") != own_pid for s in units)
        assert {c["name"] for u in units for c in u["children"]} == {"work"}
        # Shipped snapshots are consumed, not serialized.
        assert all(r.obs is None for r in report.results)

    def test_disabled_pool_run_ships_nothing(self):
        report = batch.run_units(
            ["w1", "w2"], _obs_worker, jobs=2, keep_going=True
        )
        assert report.exit_code == 0
        assert obs.snapshot()["counters"] == {}

    def test_timed_out_batch_leaks_no_fds(self):
        before = _open_fds()
        report = batch.run_units(
            ["ok1", "hang", "ok2"],
            _hang_worker,
            jobs=3,
            keep_going=True,
            unit_timeout=0.4,
        )
        by_unit = {r.unit: r.verdict for r in report.results}
        assert by_unit["hang"] == batch.TIMEOUT
        after = _open_fds()
        assert after - before == set(), "pool leaked file descriptors"

    def test_early_stop_leaks_no_fds(self):
        before = _open_fds()
        batch.run_units(
            ["bad"] + [f"u{i}" for i in range(6)],
            _flaky_worker,
            jobs=2,
            keep_going=False,
        )
        assert _open_fds() - before == set()


# -------------------------------------------------------- api integration


class TestApiTimings:
    EXAMPLES = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "examples",
    )

    def test_profile_request_attaches_timings(self):
        from repro import api

        with api.Workspace(incremental=False) as ws:
            report = ws.check(
                api.CheckRequest(
                    files=(os.path.join(self.EXAMPLES, "nonnull.c"),),
                    profile=True,
                )
            )
        timings = report.to_dict()["timings"]
        for phase in ("parse", "lower", "typecheck"):
            assert timings["phases"][phase]["ms"] > 0
        assert timings["total_ms"] > 0
        # The request turned the collector on; it must turn it off.
        assert not obs.enabled()

    def test_unprofiled_request_attaches_nothing(self):
        from repro import api

        with api.Workspace(incremental=False) as ws:
            report = ws.check(
                api.CheckRequest(
                    files=(os.path.join(self.EXAMPLES, "nonnull.c"),),
                )
            )
        assert "timings" not in report.to_dict()
        assert obs.snapshot()["counters"] == {}

    def test_profiled_check_with_custom_quals_times_the_prover(self):
        from repro import api

        config = api.SessionConfig(
            quals=(os.path.join(self.EXAMPLES, "posneg.qual"),)
        )
        with api.Workspace(config, incremental=False) as ws:
            report = ws.check(
                api.CheckRequest(
                    files=(os.path.join(self.EXAMPLES, "nonnull.c"),),
                    profile=True,
                )
            )
        payload = report.to_dict()
        assert payload["timings"]["prover"]["calls"] > 0
        assert payload["timings"]["prover"]["proofs_ms"] > 0
        # The calibration pass never changes the check outcome.
        assert payload["exit_code"] == report.exit_code


# ------------------------------------------------------ cache store fixes


class TestStoreFixes:
    PAYLOAD = {"proved": True, "verdict": "PROVED", "reason": ""}

    def _key(self, i):
        return ProofKey(obligation=f"ob{i}", environment="env")

    def test_created_is_a_monotonic_insertion_sequence(self, tmp_path):
        cache = ProofCache(cache_dir=str(tmp_path))
        for i in range(3):
            assert cache.put(self._key(i), self.PAYLOAD)
        with sqlite3.connect(os.path.join(str(tmp_path), "proofs.sqlite")) as conn:
            rows = conn.execute(
                "SELECT obl_key, created FROM proofs ORDER BY created"
            ).fetchall()
        assert [r[0] for r in rows] == ["ob0", "ob1", "ob2"]
        assert [r[1] for r in rows] == [1, 2, 3]
        cache.close()

    def test_stores_not_counted_when_disk_write_fails(self, tmp_path):
        cache = ProofCache(cache_dir=str(tmp_path))
        # A payload json.dumps cannot serialize: the disk write fails,
        # the disk tier is abandoned — and `stores` must NOT count it.
        bad = {"verdict": "PROVED", "junk": {1, 2}}
        assert cache.put(self._key(0), bad)
        assert cache.counters["stores"] == 0
        assert not cache.disk_available
        # The memory tier still serves it back.
        assert cache.get(self._key(0)) is not None
        cache.close()

    def test_memory_only_cache_counts_stores(self):
        cache = ProofCache(cache_dir=None)
        assert cache.put(self._key(0), self.PAYLOAD)
        assert cache.counters["stores"] == 1
        cache.close()

    def test_cache_counters_mirror_into_obs(self, tmp_path):
        obs.enable()
        cache = ProofCache(cache_dir=str(tmp_path))
        cache.put(self._key(0), self.PAYLOAD)
        assert cache.get(self._key(0)) is not None
        assert cache.get(self._key(1)) is None
        counters = obs.snapshot()["counters"]
        assert counters["cache.stores"] == 1
        assert counters["cache.hits"] == 1
        assert counters["cache.misses"] == 1
        cache.close()


# -------------------------------------------------- difftest minimizer fix


class TestMinimizerErrorRecording:
    def test_minimizer_crash_is_recorded_not_swallowed(self):
        from repro.difftest.generator import GenConfig, GeneratedCase
        from repro.difftest.oracles import Finding
        from repro.difftest.runner import minimize_finding

        case = GeneratedCase(
            name="case-x",
            seed=0,
            index=0,
            config=GenConfig(),
            c_source="int main() { return 0; }",
            qual_source="",
        )
        # "case x:" makes the rule-index parse raise ValueError inside
        # the minimizer — exactly the crash class that used to vanish.
        finding = Finding(
            oracle="prover-vs-enum",
            kind="disagreement",
            case="case-x",
            detail={"rule": "case x: bogus", "qualifier": "q"},
        )
        result = minimize_finding(case, finding, time_limit=1.0)
        assert result is not None
        assert "ValueError" in result["minimize_error"]

    def test_non_reproducing_reduction_still_returns_none(self):
        from repro.difftest.generator import GenConfig, GeneratedCase
        from repro.difftest.oracles import Finding
        from repro.difftest.runner import minimize_finding

        case = GeneratedCase(
            name="case-y",
            seed=0,
            index=0,
            config=GenConfig(),
            c_source="int main() { return 0; }",
            qual_source="",
        )
        finding = Finding(
            oracle="prover-vs-enum",
            kind="disagreement",
            case="case-y",
            detail={},  # no rule/qualifier: minimizer declines cleanly
        )
        assert minimize_finding(case, finding, time_limit=1.0) is None

