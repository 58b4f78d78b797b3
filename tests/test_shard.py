"""Obligation-level sharding: scheduler semantics and report identity.

The sharded prove path re-plumbs everything — generation in the
parent, discharge in pool workers, reassembly from streamed outcomes —
so its one non-negotiable property is that reports come out identical
to the serial path.  The scheduler's failure semantics (retry and
quarantine at *obligation* granularity, timeouts final) are pinned by
fault-injecting ``discharge_work_item`` itself.
"""

import json
import re

import pytest

from repro import api
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


def _scrub(node):
    """Drop wall-clock fields; everything else must match exactly."""
    if isinstance(node, dict):
        return {k: _scrub(v) for k, v in node.items() if k != "elapsed"}
    if isinstance(node, list):
        return [_scrub(v) for v in node]
    if isinstance(node, str):
        return re.sub(r"[0-9.]+ m?s\b", "_", node)
    return node


def _normalize(payload):
    """A prove payload minus the documented additive differences
    between the serial and sharded paths (run-level counter blocks and
    per-unit counter detail)."""
    payload = _scrub(payload)
    for key in ("sessions", "cache", "scheduler", "incremental"):
        payload.pop(key, None)
    for unit in payload["units"]:
        for key in ("sessions", "cache", "incremental"):
            (unit.get("detail") or {}).pop(key, None)
    return payload


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
        assert json.dumps(_normalize(serial), sort_keys=True) == json.dumps(
            _normalize(sharded), sort_keys=True
        )
        assert sharded["scheduler"]["groups"] >= 2
        assert sharded["scheduler"]["obligations"] > 0
        assert sharded["sessions"]["enabled"] is True
        assert sharded["sessions"]["session_reuse"] > 0
        # Counter blocks aggregate field-identically across the paths.
        assert set(serial["sessions"]) == set(sharded["sessions"])

    def test_shard_escape_hatch_keeps_pool_path(self, qual_files):
        report = _prove(qual_files, jobs=2, shard=False)
        assert "scheduler" not in report
        serial = _prove(qual_files)
        assert _normalize(report) == _normalize(serial)

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
