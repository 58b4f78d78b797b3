"""Obligation-level sharding: scheduler semantics and report identity.

Every prove runs one path — generation in the parent, discharge through
the obligation scheduler (in process at ``jobs`` 1, in pool workers
otherwise), reassembly from streamed outcomes — so its one
non-negotiable property is that ``jobs`` never changes a report.  The
scheduler's failure semantics (retry and quarantine at *obligation*
granularity, timeouts final) are pinned by fault-injecting
``discharge_work_item`` itself.
"""

import json
import re
import shutil

import pytest

from repro import api, cli
from repro.core.qualifiers.library import standard_qualifiers
from repro.core.soundness.axioms import semantics_axioms
from repro.core.soundness.workitems import (
    discharge_work_item,
    generate_work_items,
)
from repro.harness import shard
from repro.harness.watchdog import DeadlineExceeded

QUALS = standard_qualifiers()
AXIOMS = semantics_axioms()

NN_QUAL = """
value qualifier nn2(int Expr E)
  case E of
      decl int Const C:
        C, where C >= 0
    | decl int Expr E1, E2:
        E1 + E2, where nn2(E1) && nn2(E2)
  invariant value(E) >= 0
"""

POS_QUAL = """
value qualifier pp2(int Expr E)
  case E of
      decl int Const C:
        C, where C > 0
    | decl int Expr E1, E2:
        E1 * E2, where pp2(E1) && pp2(E2)
  invariant value(E) > 0
"""


def _items(names):
    items = []
    for qdef in QUALS:
        if qdef.name in names:
            items.extend(generate_work_items(qdef, QUALS, AXIOMS, unit="t"))
    return items


def _verdicts(outcomes):
    return {
        key: (o["verdict"], o["proved"]) for key, o in outcomes.items()
    }


class TestScheduler:
    def test_outcomes_match_serial_discharge(self):
        items = _items({"pos", "nonzero", "untainted"})
        outcomes, stats = shard.run_obligations(
            items, AXIOMS, jobs=1, time_limit=15
        )
        serial = {
            i.key: discharge_work_item(i, AXIOMS, time_limit=15)
            for i in items
        }
        assert _verdicts(outcomes) == _verdicts(serial)
        assert set(outcomes) == {i.key for i in items}
        assert stats["obligations"] == len(items)
        assert stats["groups"] == len({i.env_digest for i in items})
        assert stats["rounds"] == 1
        assert stats["requeued"] == 0 and stats["quarantined"] == 0
        assert stats["sessions"]["proofs"] > 0

    def test_trivial_items_settle_in_parent(self):
        items = _items({"pos"})
        trivial = [i for i in items if i.trivial]
        outcomes, _stats = shard.run_obligations(
            items, AXIOMS, jobs=1, time_limit=15
        )
        for item in trivial:
            outcome = outcomes[item.key]
            assert outcome["trivial"] and outcome["verdict"] == "PROVED"
            assert outcome["proof"] is None

    def test_pool_jobs_identical_outcomes(self):
        items = _items({"pos", "nonzero"})
        parallel, _ = shard.run_obligations(
            items, AXIOMS, jobs=2, time_limit=15
        )
        serial, _ = shard.run_obligations(
            items, AXIOMS, jobs=1, time_limit=15
        )
        assert _verdicts(parallel) == _verdicts(serial)

    def test_crash_quarantines_one_obligation(self, monkeypatch):
        """A crashing obligation is retried, then quarantined — and its
        group mates still get proved."""
        items = _items({"pos", "nonzero"})
        nontrivial = [i for i in items if not i.trivial]
        group_digest = nontrivial[0].env_digest
        group = [i for i in nontrivial if i.env_digest == group_digest]
        assert len(group) >= 2
        poison = group[1]  # mid-group: streamed outcomes must survive

        real = shard.discharge_work_item

        def boom(item, axioms, **kwargs):
            if item.key == poison.key:
                raise RuntimeError("injected crash")
            return real(item, axioms, **kwargs)

        monkeypatch.setattr(shard, "discharge_work_item", boom)
        outcomes, stats = shard.run_obligations(
            items, AXIOMS, jobs=1, time_limit=15
        )
        assert set(outcomes) == {i.key for i in items}
        bad = outcomes[poison.key]
        assert bad["verdict"] == "GAVE_UP" and not bad["proved"]
        assert bad["proof"]["reason"] == (
            "quarantined after killing 2 worker(s)"
        )
        for item in group:
            if item.key != poison.key:
                assert outcomes[item.key]["verdict"] == "PROVED"
        assert stats["quarantined"] == 1
        assert stats["requeued"] > 0
        assert stats["rounds"] >= 2

    def test_group_timeout_is_final(self, monkeypatch):
        """A timed-out group settles its unfinished obligations as
        TIMEOUT — no requeue, exactly like per-unit timeouts."""
        items = _items({"pos", "nonzero"})
        nontrivial = [i for i in items if not i.trivial]
        group_digest = nontrivial[0].env_digest
        group = [i for i in nontrivial if i.env_digest == group_digest]
        poison = group[1]

        real = shard.discharge_work_item

        def expire(item, axioms, **kwargs):
            if item.key == poison.key:
                raise DeadlineExceeded("injected deadline")
            return real(item, axioms, **kwargs)

        monkeypatch.setattr(shard, "discharge_work_item", expire)
        outcomes, stats = shard.run_obligations(
            items, AXIOMS, jobs=1, time_limit=15
        )
        assert outcomes[group[0].key]["verdict"] == "PROVED"
        for item in group[1:]:
            outcome = outcomes[item.key]
            assert outcome["verdict"] == "TIMEOUT"
            assert outcome["proof"]["reason"] == "time limit"
        assert stats["requeued"] == 0 and stats["quarantined"] == 0
        assert stats["rounds"] == 1

    def test_unit_timeout_restarts_for_each_group_of_a_chunk(
        self, monkeypatch
    ):
        """A pool child proving several groups gets a fresh
        ``unit_timeout`` per group: two 0.7 s groups in one chunk
        outlive a 1.2 s budget without being killed."""
        import time

        items = _items({"pos", "neg", "nonzero", "untainted"})
        real = shard.discharge_work_item
        firsts = {}
        for item in items:
            if not item.trivial:
                firsts.setdefault(item.env_digest, item.key)
        assert len(firsts) >= 3  # two chunks at jobs 2, one holds two

        def slow(item, axioms, **kwargs):
            if item.key in firsts.values():
                time.sleep(0.7)
            return real(item, axioms, **kwargs)

        monkeypatch.setattr(shard, "discharge_work_item", slow)
        outcomes, stats = shard.run_obligations(
            items, AXIOMS, jobs=2, unit_timeout=1.2, time_limit=15
        )
        assert {o["verdict"] for o in outcomes.values()} == {"PROVED"}
        assert stats["rounds"] == 1 and stats["requeued"] == 0

    def test_interrupt_stops_at_a_group_boundary(self, monkeypatch):
        """SIGINT during the first group: that group finishes, the rest
        never starts and has no outcome, and the stats say so."""
        import os
        import signal

        items = _items({"pos", "nonzero"})
        real = shard.discharge_work_item
        fired = []

        def interrupt(item, axioms, **kwargs):
            if not fired:
                fired.append(item.env_digest)
                os.kill(os.getpid(), signal.SIGINT)
            return real(item, axioms, **kwargs)

        monkeypatch.setattr(shard, "discharge_work_item", interrupt)
        outcomes, stats = shard.run_obligations(
            items, AXIOMS, jobs=1, time_limit=15
        )
        assert stats["interrupted"] is True
        for item in items:
            if item.trivial or item.env_digest == fired[0]:
                assert outcomes[item.key]["verdict"] == "PROVED"
            else:
                assert item.key not in outcomes


def _scrub(node):
    """Drop wall-clock fields; everything else must match exactly."""
    if isinstance(node, dict):
        return {k: _scrub(v) for k, v in node.items() if k != "elapsed"}
    if isinstance(node, list):
        return [_scrub(v) for v in node]
    if isinstance(node, str):
        return re.sub(r"[0-9.]+ m?s\b", "_", node)
    return node


def _prove(files, **options) -> dict:
    """One uncached prove on a fresh one-shot workspace, as the CLI runs it."""
    with api.Workspace(incremental=False) as ws:
        return ws.prove(
            api.ProveRequest(files=files, cache=False, **options)
        ).to_dict()


class TestShardedProve:
    @pytest.fixture
    def qual_files(self, tmp_path):
        a = tmp_path / "nn.qual"
        b = tmp_path / "pp.qual"
        a.write_text(NN_QUAL)
        b.write_text(POS_QUAL)
        return (str(a), str(b))

    def test_sharded_report_matches_serial_golden(self, qual_files):
        serial = _prove(qual_files)
        sharded = _prove(qual_files, jobs=2)
        assert json.dumps(_scrub(serial)) == json.dumps(_scrub(sharded))
        assert sharded["scheduler"]["groups"] >= 2
        assert sharded["scheduler"]["obligations"] > 0
        assert sharded["sessions"]["enabled"] is True
        assert sharded["sessions"]["session_reuse"] > 0

    def test_shard_escape_hatch_keeps_pool_path(self, qual_files, capsys):
        """``--no-shard`` is gone: argparse refuses it (exit 2)."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["prove", *qual_files, "--jobs", "2", "--no-shard"])
        assert exc.value.code == 2
        assert "--no-shard" in capsys.readouterr().err

    def test_sharded_groups_always_use_sessions(self, qual_files):
        """Sessions are not optional: every scheduled group gets one,
        and the scheduler no longer takes a switch for it."""
        sharded = _prove(qual_files, jobs=2)
        assert sharded["sessions"]["enabled"] is True
        assert (
            sharded["sessions"]["sessions"]
            == sharded["scheduler"]["groups"]
        )
        with pytest.raises(TypeError):
            shard.run_obligations([], AXIOMS, use_sessions=False)

    def test_sharded_parse_errors_keep_fault_taxonomy(
        self, qual_files, tmp_path
    ):
        broken = tmp_path / "broken.qual"
        broken.write_text("value qualifier oops(\n")
        files = (str(broken),) + qual_files
        serial = _prove(files)
        sharded = _prove(files, jobs=2)
        assert [u["verdict"] for u in serial["units"]] == [
            u["verdict"] for u in sharded["units"]
        ]
        assert serial["units"][0]["verdict"] == "ERROR"
        assert sharded["exit_code"] == serial["exit_code"]
        # keep_going=False: everything after the failing unit skips.
        assert {u["verdict"] for u in sharded["units"][1:]} == {"SKIPPED"}

    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "no-cache"])
    @pytest.mark.parametrize(
        "incremental", [True, False], ids=["incremental", "one-shot"]
    )
    def test_jobs_do_not_change_the_report(
        self, qual_files, tmp_path, cache, incremental
    ):
        """``--jobs 1`` and ``--jobs 2`` print the same report, minus
        timings, with the proof cache on or off and on one-shot or
        incremental workspaces, for a first and a repeat request on one
        workspace; with the cache on, its lifetime totals agree too."""
        cache_dir = str(tmp_path / "cache")
        runs = {}
        for jobs in (1, 2):
            shutil.rmtree(cache_dir, ignore_errors=True)
            request = api.ProveRequest(
                files=qual_files, cache=cache, cache_dir=cache_dir, jobs=jobs
            )
            with api.Workspace(incremental=incremental) as ws:
                first = ws.prove(request).to_dict()
                repeat = ws.prove(request).to_dict()
            lifetime = api.cache_stats(cache_dir)["lifetime"]
            runs[jobs] = json.dumps(_scrub([first, repeat, lifetime]))
        assert runs[1] == runs[2]

    def test_cache_counters_flush_once_per_request(
        self, qual_files, tmp_path, monkeypatch
    ):
        """The groups' cache deltas are folded in the parent and
        written to the store's lifetime totals in one flush."""
        from repro.cache.store import ProofCache

        flushes = []
        real = ProofCache.flush_counters

        def counting(cache, delta=None):
            flushes.append(dict(delta or {}))
            return real(cache, delta)

        monkeypatch.setattr(ProofCache, "flush_counters", counting)
        with api.Workspace(incremental=False) as ws:
            payload = ws.prove(
                api.ProveRequest(
                    files=qual_files, cache_dir=str(tmp_path / "c"), jobs=2
                )
            ).to_dict()
        assert len(flushes) == 1
        assert flushes[0]["stores"] == payload["cache"]["stores"] > 0
