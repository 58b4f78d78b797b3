"""The content-addressed proof cache: keys, tiers, invalidation.

Covers the contract promised in docs/caching.md:

* same obligation + same environment → hit (memory and disk tiers);
* different goal / axioms / definition text / salt → different key;
* same obligation under a *changed* environment → a miss that leaves
  the other environment's entry in place (two qualifiers sharing an
  obligation keep both verdicts);
* a proof in flight is shared through the store's leases, never run
  twice by two callers on one cache directory (``TestLeases``);
* one cache used from several threads keeps its disk tier;
* only settled verdicts (PROVED/REFUTED) are ever stored — TIMEOUT and
  GAVE_UP are budget artifacts and must be re-attempted;
* a corrupted store degrades to a cold run, never to a crash.
"""

import os
import sqlite3
import threading

import pytest

from repro import api

from repro.cache import (
    CACHEABLE_VERDICTS,
    ProofCache,
    ProofKey,
    canonical_formula,
    obligation_key,
    proof_key,
)
from repro.core.qualifiers.parser import parse_qualifiers
from repro.core.soundness.checker import check_soundness
from repro.prover.prover import Prover
from repro.prover.terms import Implies, Lt, TApp, TInt

A = TApp("a")
#: a < 0  ⇒  a < 5 — valid, settles as PROVED in microseconds.
EASY = Implies(Lt(A, TInt(0)), Lt(A, TInt(5)))
#: a < 0 alone — invalid, settles as REFUTED (stable countermodel).
FALSE = Lt(A, TInt(0))
#: a < 5  ⇒  a < 0 — also invalid; a second distinct obligation.
OTHER = Implies(Lt(A, TInt(5)), Lt(A, TInt(0)))

PROVED_PAYLOAD = {"proved": True, "verdict": "PROVED", "reason": ""}


QUAL = """
value qualifier tagged(int Expr E)
  case E of
    decl int Const C:
      C, where C > 0
  invariant value(E) > 0
"""

#: Equivalent invariant, different text and formula: even an unchanged
#: rule must not replay verdicts proved under the old definition.
QUAL_EDITED = QUAL.replace("value(E) > 0", "value(E) >= 1")


def parse_one(text):
    (qdef,) = parse_qualifiers(text)
    return qdef


# ------------------------------------------------------------- fingerprints


class TestFingerprint:
    def test_key_is_deterministic(self):
        assert proof_key(EASY, [FALSE]) == proof_key(EASY, [FALSE])

    def test_goal_changes_obligation_key(self):
        base = proof_key(EASY, [])
        assert proof_key(FALSE, []).obligation != base.obligation

    def test_extra_axioms_change_obligation_key(self):
        assert obligation_key(EASY) != obligation_key(EASY, [FALSE])

    def test_axioms_change_environment_key_only(self):
        base = proof_key(EASY, [])
        with_ax = proof_key(EASY, [OTHER])
        assert with_ax.obligation == base.obligation
        assert with_ax.environment != base.environment

    def test_context_and_salt_change_environment_key(self):
        base = proof_key(EASY, [])
        assert proof_key(EASY, [], context="v2").environment != base.environment
        assert (
            proof_key(EASY, [], salt="repro-prover/2").environment
            != base.environment
        )

    def test_canonical_rendering_is_stable_sexpr(self):
        assert canonical_formula(EASY) == "(=> (< (a a) (i 0)) (< (a a) (i 5)))"


# ------------------------------------------------------------------- tiers


class TestStore:
    def test_memory_roundtrip(self):
        cache = ProofCache(cache_dir=None)
        key = cache.key(EASY, [])
        assert cache.get(key) is None
        assert cache.put(key, PROVED_PAYLOAD)
        assert cache.get(key)["verdict"] == "PROVED"
        assert cache.counters["hits"] == 1
        assert cache.counters["misses"] == 1

    def test_disk_persistence_across_instances(self, tmp_path):
        where = str(tmp_path / "cache")
        with ProofCache(cache_dir=where) as cache:
            cache.put(cache.key(EASY, []), PROVED_PAYLOAD)
        with ProofCache(cache_dir=where) as reopened:
            hit = reopened.get(reopened.key(EASY, []))
            assert hit is not None and hit["proved"]
            assert reopened.entry_count() == 1

    def test_unsettled_verdicts_never_stored(self, tmp_path):
        cache = ProofCache(cache_dir=str(tmp_path / "cache"))
        key = cache.key(EASY, [])
        for verdict in ("TIMEOUT", "GAVE_UP", "bogus"):
            assert verdict not in CACHEABLE_VERDICTS
            assert not cache.put(key, {"proved": False, "verdict": verdict})
        assert cache.get(key) is None
        assert cache.entry_count() == 0
        assert cache.counters["stores"] == 0

    def test_lru_eviction_bounds_memory(self):
        cache = ProofCache(cache_dir=None, max_memory_entries=2)
        for goal in (EASY, FALSE, OTHER):
            cache.put(cache.key(goal, []), PROVED_PAYLOAD)
        assert cache.counters["evictions"] == 1
        assert cache.get(cache.key(EASY, [])) is None  # oldest fell out
        assert cache.get(cache.key(OTHER, [])) is not None

    def test_other_environments_survive_a_miss(self, tmp_path):
        cache = ProofCache(cache_dir=str(tmp_path / "cache"))
        old = cache.key(EASY, [], context="defs-v1")
        cache.put(old, PROVED_PAYLOAD)
        new = cache.key(EASY, [], context="defs-v2")
        assert old.obligation == new.obligation
        assert cache.get(new) is None
        # The entry under the other environment is still valid there:
        # a miss leaves it alone in both tiers.
        assert cache.counters["stale"] == 0
        assert cache.entry_count() == 1
        assert cache.get(old) is not None
        with ProofCache(cache_dir=str(tmp_path / "cache")) as reopened:
            assert reopened.get(old) is not None

    def test_corrupted_database_degrades_to_cold_run(self, tmp_path):
        where = tmp_path / "cache"
        where.mkdir()
        (where / "proofs.sqlite").write_bytes(b"this is not a database\0\xff")
        cache = ProofCache(cache_dir=str(where))
        key = cache.key(EASY, [])
        assert cache.get(key) is None  # no crash: cold run, not a crash
        cache.put(key, PROVED_PAYLOAD)
        assert cache.get(key) is not None
        # Corruption is *rebuilt* (damaged file deleted, fresh schema),
        # so the disk tier survives for the rest of the run.
        assert cache.disk_available
        assert cache.entry_count() == 1  # the put above reached disk
        assert cache.counters["errors"] >= 1
        assert cache.counters["degraded"] >= 1

    def test_format_version_mismatch_rebuilds(self, tmp_path):
        where = str(tmp_path / "cache")
        with ProofCache(cache_dir=where) as cache:
            cache.put(cache.key(EASY, []), PROVED_PAYLOAD)
            path = cache.path
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '999' WHERE key = 'format'")
        conn.commit()
        conn.close()
        with ProofCache(cache_dir=where) as reopened:
            assert reopened.get(reopened.key(EASY, [])) is None
            assert reopened.disk_available  # rebuilt, not abandoned

    def test_mid_session_corruption_rebuilds_disk_tier(self, tmp_path):
        """Garbling the sqlite file *mid-session* (after entries were
        stored) degrades to a cold-but-live disk tier: the damaged file
        is deleted and rebuilt, verdicts already in the memory tier
        survive, and the degradation is counted."""
        where = str(tmp_path / "cache")
        cache = ProofCache(cache_dir=where)
        cache.put(cache.key(EASY, []), PROVED_PAYLOAD)
        path = cache.path
        size = (tmp_path / "cache" / "proofs.sqlite").stat().st_size
        with open(path, "r+b") as handle:  # garble header + mid-file
            handle.write(b"\xde\xad\xbe\xef" * 4)
            handle.seek(size // 2)
            handle.write(b"\xff\x00" * 32)
        # sqlite's page cache can mask in-place damage on the live
        # handle; the failure surfaces on the next (re)connection —
        # exactly what every post-fork pool worker does.  Drop the
        # cached handle to take that path deterministically.
        cache._conn.close()
        cache._conn = None
        assert cache.get(cache.key(OTHER, [])) is None  # cold, no crash
        assert cache.get(cache.key(EASY, [])) is not None  # memory tier
        assert cache.disk_available  # rebuilt, not abandoned
        assert cache.counters["degraded"] >= 1
        cache.put(cache.key(OTHER, []), PROVED_PAYLOAD)
        assert cache.entry_count() >= 1  # fresh disk tier accepts writes

    def test_second_corruption_bypasses_disk_tier(self, tmp_path):
        """The rebuild budget is one per instance: corruption striking
        again downgrades to bypass (memory-only), never a rebuild loop."""
        where = tmp_path / "cache"
        where.mkdir()
        (where / "proofs.sqlite").write_bytes(b"garbage one")
        cache = ProofCache(cache_dir=str(where))
        assert cache.get(cache.key(EASY, [])) is None
        assert cache.disk_available  # first strike: rebuilt
        (where / "proofs.sqlite").write_bytes(b"garbage two")
        cache._conn.close()
        cache._conn = None
        cache.put(cache.key(EASY, []), PROVED_PAYLOAD)
        assert cache.get(cache.key(EASY, [])) is not None  # memory tier
        assert not cache.disk_available  # second strike: bypassed
        assert cache.counters["degraded"] >= 2

    def test_locked_database_bypasses_not_deletes(self, tmp_path):
        """'database is locked' is an OperationalError: another process
        may hold a healthy file, so triage must bypass, never delete."""
        where = str(tmp_path / "cache")
        with ProofCache(cache_dir=where) as cache:
            cache.put(cache.key(EASY, []), PROVED_PAYLOAD)
            path = cache.path
            cache._disk_failure(sqlite3.OperationalError("database is locked"))
            assert not cache.disk_available
            assert cache.counters["degraded"] == 1
        import os

        assert os.path.exists(path)  # the healthy file was preserved
        with ProofCache(cache_dir=where) as reopened:
            assert reopened.get(reopened.key(EASY, [])) is not None

    def test_degradation_counts_in_obs(self, tmp_path):
        from repro import obs

        where = tmp_path / "cache"
        where.mkdir()
        (where / "proofs.sqlite").write_bytes(b"not a database")
        obs.enable()
        marker = obs.mark()
        try:
            cache = ProofCache(cache_dir=str(where))
            assert cache.get(cache.key(EASY, [])) is None
            counters = obs.since(marker)["counters"]
            assert counters.get("cache.degraded", 0) >= 1
        finally:
            obs.disable()
            obs.reset()

    def test_clear_removes_entries_and_counters(self, tmp_path):
        where = str(tmp_path / "cache")
        with ProofCache(cache_dir=where) as cache:
            cache.put(cache.key(EASY, []), PROVED_PAYLOAD)
            cache.flush_counters()
            assert cache.clear() == 1
            assert cache.entry_count() == 0
            assert cache.lifetime_counters()["stores"] == 0


# ------------------------------------------------------- prover integration


class TestProverIntegration:
    def prover(self):
        return Prover(time_limit=10.0)

    def test_warm_prove_replays_settled_verdicts(self):
        cache = ProofCache(cache_dir=None)
        for goal, verdict in ((EASY, "PROVED"), (FALSE, "REFUTED")):
            cold = self.prover().prove(goal, cache=cache)
            warm = self.prover().prove(goal, cache=cache)
            assert cold.verdict == warm.verdict == verdict
            assert not cold.cached and warm.cached
            assert warm.rounds == cold.rounds
            assert warm.countermodel == cold.countermodel
        assert cache.counters["hits"] == 2

    def test_prove_with_retry_consults_cache_once(self):
        cache = ProofCache(cache_dir=None)
        self.prover().prove_with_retry(EASY, cache=cache)
        before = cache.snapshot()
        result = self.prover().prove_with_retry(EASY, cache=cache)
        assert result.cached
        delta = cache.delta(before)
        assert delta["hits"] == 1 and delta["misses"] == 0

    def test_cache_context_isolates_environments(self):
        cache = ProofCache(cache_dir=None)
        self.prover().prove(EASY, cache=cache, cache_context="one")
        rerun = self.prover().prove(EASY, cache=cache, cache_context="two")
        assert not rerun.cached
        assert cache.counters["stale"] == 0
        # both environments now replay
        for context in ("one", "two"):
            assert self.prover().prove(
                EASY, cache=cache, cache_context=context
            ).cached


# ---------------------------------------------- soundness-checker integration


class TestCheckerIntegration:
    def test_second_check_soundness_is_fully_cached(self, tmp_path):
        where = str(tmp_path / "cache")
        qdef = parse_one(QUAL)
        with ProofCache(cache_dir=where) as cache:
            cold = check_soundness(qdef, cache=cache)
        assert cold.sound and cold.cached_count == 0
        with ProofCache(cache_dir=where) as cache:
            warm = check_soundness(qdef, cache=cache)
        assert warm.sound
        nontrivial = [r for r in warm.results if not r.obligation.trivial]
        assert nontrivial and all(r.result.cached for r in nontrivial)
        # The replayed report is verdict-identical to the cold one.
        strip = lambda d: {
            k: [
                {f: o[f] for f in ("rule", "verdict", "proved", "reason")}
                for o in d["obligations"]
            ]
            if k == "obligations"
            else d[k]
            for k in d
            if k != "elapsed"
        }
        assert strip(cold.to_dict()) == strip(warm.to_dict())

    def test_edited_definition_invalidates(self, tmp_path):
        where = str(tmp_path / "cache")
        with ProofCache(cache_dir=where) as cache:
            check_soundness(parse_one(QUAL), cache=cache)
        with ProofCache(cache_dir=where) as cache:
            edited = check_soundness(parse_one(QUAL_EDITED), cache=cache)
            assert edited.cached_count == 0
            assert cache.counters["misses"] >= 1

    def test_budget_starved_run_caches_nothing(self, tmp_path):
        where = str(tmp_path / "cache")
        qdef = parse_one(QUAL)
        with ProofCache(cache_dir=where) as cache:
            report = check_soundness(qdef, time_limit=1e-9, cache=cache)
            unsettled = {
                r.verdict for r in report.results if not r.obligation.trivial
            }
            assert unsettled <= {"TIMEOUT", "GAVE_UP"}
            assert cache.entry_count() == 0
        # A later full-budget run starts cold but still settles.
        with ProofCache(cache_dir=where) as cache:
            full = check_soundness(qdef, cache=cache)
            assert full.sound and full.cached_count == 0


# ------------------------------------------------------ workspace integration

#: Two qualifiers with the same clause and invariant: the same
#: obligations, proved under two environments (the definition text
#: differs in the name).
TWINS = QUAL + QUAL.replace("tagged", "twin")

POSNEG = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "posneg.qual",
)


class TestWorkspaceIntegration:
    def prove(self, path, where, workspace=None):
        request = api.ProveRequest(files=(path,), cache_dir=where)
        if workspace is not None:
            return workspace.prove(request).to_dict()
        with api.Workspace() as ws:
            return ws.prove(request).to_dict()

    def test_twin_qualifiers_do_not_evict_each_other(self, tmp_path):
        """Re-proving a library with two qualifiers that share an
        obligation replays every verdict: a miss under one environment
        never purges the other's entry."""
        tagged, twin = parse_qualifiers(TWINS)
        goals = [
            {
                ProofCache(cache_dir=None).key(r.obligation.goal, []).obligation
                for r in check_soundness(q).results
                if not r.obligation.trivial
            }
            for q in (tagged, twin)
        ]
        assert goals[0] and goals[0] == goals[1]  # same obligations
        path = tmp_path / "twins.qual"
        path.write_text(TWINS)
        where = str(tmp_path / "cache")
        cold = self.prove(str(path), where)["cache"]
        assert cold["stores"] == 2 * len(goals[0])
        for _ in range(2):
            warm = self.prove(str(path), where)["cache"]
            assert warm["stale"] == 0
            assert warm["misses"] == 0
            assert warm["hits"] == cold["misses"]
        assert warm["entries"] == cold["stores"]

    def test_second_thread_keeps_the_disk_tier(self, tmp_path):
        """A resident cache used from another thread (the daemon runs
        requests on executor threads) keeps serving its database."""
        where = str(tmp_path / "cache")
        with api.Workspace() as ws:
            first = self.prove(POSNEG, where, ws)["cache"]
            assert first["entries"] > 0
            second = {}
            thread = threading.Thread(
                target=lambda: second.update(self.prove(POSNEG, where, ws))
            )
            thread.start()
            thread.join(timeout=60)
        cache = second["cache"]
        assert cache["degraded"] == 0 and cache["errors"] == 0
        assert cache["entries"] == first["entries"]
        assert cache["hits"] == first["misses"]
        with ProofCache(cache_dir=where) as fresh:
            assert fresh.entry_count() == first["entries"]
