"""Obligation-level sharding across the batch worker pool.

The batch pool parallelizes at file granularity; this module shards the
*obligation stream* instead.  The parent generates
:class:`~repro.core.soundness.workitems.ObligationWorkItem`s for every
unit, groups them by axiom-environment digest (all obligations of a
group shares one :class:`~repro.prover.session.ProverSession`), and
runs each group as a synthetic unit of the supervised pool.  Workers
stream one progress event per settled obligation — carrying the full
outcome — so the parent can re-assemble per-unit reports, and so a
worker death loses only the obligations that had not yet settled.

Retry and quarantine are at **obligation granularity**: the supervisor
is configured to quarantine a group on its first worker death
(``max_worker_deaths=1``); the scheduler then settles the group's
streamed outcomes, attributes the death to the first obligation that
had not settled, and re-queues the remainder as a new round.  An
obligation that kills ``max_obligation_deaths`` workers is itself
quarantined (``GAVE_UP``, mirroring the pool's poison-unit contract);
its group mates still get proved.  Group timeouts are final, exactly
like per-unit timeouts: the unsettled remainder reports ``TIMEOUT``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.soundness.workitems import (
    ObligationWorkItem,
    discharge_work_item,
)
from repro.harness import batch
from repro.harness.watchdog import NO_RETRY, RetryPolicy
from repro.prover.session import ProverSession

#: Worker deaths one obligation may cause before it is quarantined.
MAX_OBLIGATION_DEATHS = 2


def run_obligations(
    items: List[ObligationWorkItem],
    axioms,
    jobs: int = 1,
    unit_timeout: Optional[float] = None,
    time_limit: float = 45.0,
    max_rounds: int = 6,
    retry: RetryPolicy = NO_RETRY,
    cache=None,
    on_event=None,
    max_obligation_deaths: int = MAX_OBLIGATION_DEATHS,
) -> Tuple[Dict[str, Dict], Dict]:
    """Discharge every work item; returns (outcomes by item key, stats).

    ``stats`` carries scheduler counters (groups/rounds/requeued/
    quarantined), aggregated session counters under ``"sessions"``,
    and summed proof-cache deltas under ``"cache"`` when a cache is
    live.
    """
    scheduler = _ObligationScheduler(
        items,
        axioms,
        jobs=jobs,
        unit_timeout=unit_timeout,
        time_limit=time_limit,
        max_rounds=max_rounds,
        retry=retry,
        cache=cache,
        on_event=on_event,
        max_obligation_deaths=max_obligation_deaths,
    )
    return scheduler.run()


class _ObligationScheduler:
    def __init__(
        self,
        items: List[ObligationWorkItem],
        axioms,
        jobs: int,
        unit_timeout: Optional[float],
        time_limit: float,
        max_rounds: int,
        retry: RetryPolicy,
        cache,
        on_event,
        max_obligation_deaths: int,
    ):
        self.items = list(items)
        self.axioms = axioms
        self.jobs = jobs
        self.unit_timeout = unit_timeout
        self.time_limit = time_limit
        self.max_rounds = max_rounds
        self.retry = retry
        self.cache = cache
        self.on_event = on_event
        self.max_obligation_deaths = max_obligation_deaths
        self.outcomes: Dict[str, Dict] = {}
        self.deaths: Dict[str, int] = {}
        self.stats: Dict = {
            "groups": 0,
            "rounds": 0,
            "requeued": 0,
            "quarantined": 0,
            "obligations": len(self.items),
        }
        self.session_totals: Dict[str, int] = {}
        self.cache_totals: Dict[str, int] = {}

    # ----------------------------------------------------------- rounds

    def run(self) -> Tuple[Dict[str, Dict], Dict]:
        pending: List[ObligationWorkItem] = []
        for item in self.items:
            if item.trivial:
                # Trivial obligations need no prover; settle in-parent.
                self._settle(
                    {
                        "key": item.key,
                        "unit": item.unit,
                        "qualifier": item.qualifier,
                        "index": item.index,
                        "rule": item.rule,
                        "trivial": True,
                        "verdict": "PROVED",
                        "proved": True,
                        "error": "",
                        "proof": None,
                    }
                )
            else:
                pending.append(item)

        # Every death consumes one round for one obligation, so this
        # bound cannot be hit by a legal schedule; it is a backstop
        # against scheduler bugs, not a coverage limit.
        round_cap = len(pending) * (self.max_obligation_deaths + 1) + 2
        round_no = 0
        while pending and round_no < round_cap:
            round_no += 1
            self.stats["rounds"] = round_no
            pending = self._run_round(round_no, pending)
        for item in pending:  # pragma: no cover - backstop only
            self._settle(self._gave_up_outcome(item, "scheduler round cap"))
        stats = dict(self.stats)
        stats["sessions"] = dict(self.session_totals)
        if self.cache is not None:
            stats["cache"] = dict(self.cache_totals)
        return self.outcomes, stats

    def _run_round(
        self, round_no: int, pending: List[ObligationWorkItem]
    ) -> List[ObligationWorkItem]:
        groups: Dict[str, List[ObligationWorkItem]] = {}
        for item in pending:
            groups.setdefault(item.env_digest, []).append(item)
        registry: Dict[str, List[ObligationWorkItem]] = {}
        for digest, group in groups.items():
            name = f"obl:{group[0].qualifier}@{digest[:10]}#r{round_no}"
            registry[name] = group
        if round_no == 1:
            self.stats["groups"] = len(registry)
            obs.incr("shard.groups", len(registry))
        obs.incr("shard.rounds")

        axioms = self.axioms
        time_limit = self.time_limit
        max_rounds = self.max_rounds
        retry = self.retry
        cache = self.cache

        def worker(unit_name: str, deadline) -> batch.UnitResult:
            group = registry[unit_name]
            session = ProverSession(
                axioms,
                context=group[0].context,
                max_rounds=max_rounds,
                time_limit=time_limit,
            )
            before = cache.snapshot() if cache is not None else None
            outcomes = []
            for item in group:
                outcome = discharge_work_item(
                    item,
                    axioms,
                    session=session,
                    max_rounds=max_rounds,
                    time_limit=time_limit,
                    retry=retry,
                    deadline=deadline,
                    cache=cache,
                )
                outcomes.append(outcome)
                # The outcome rides along on the progress event so the
                # parent can settle it even if this worker later dies.
                batch.emit_progress(
                    {
                        "event": "obligation",
                        "unit": item.unit,
                        "qualifier": item.qualifier,
                        "rule": item.rule,
                        "verdict": outcome["verdict"],
                        "_outcome": outcome,
                    }
                )
            detail: Dict = {"outcomes": outcomes}
            # Same shape as a SessionPool counter delta ("resets" is
            # pool-internal), so serial and sharded session meta blocks
            # aggregate field-identically.
            detail["session"] = {
                "sessions": 1,
                **{
                    key: value
                    for key, value in session.counters.items()
                    if key != "resets"
                },
            }
            if cache is not None:
                delta = cache.delta(before)
                cache.flush_counters(delta)
                detail["cache"] = delta
            return batch.UnitResult(
                unit=unit_name, verdict=batch.OK, detail=detail
            )

        # Never fork more workers than there are groups this round;
        # retry rounds usually carry one small group.
        jobs = min(self.jobs, len(registry))
        report = batch.run_units(
            list(registry),
            worker,
            keep_going=True,
            jobs=jobs,
            unit_timeout=self.unit_timeout,
            on_event=self._wrap_event,
            supervisor_config=self._supervisor_config(jobs),
        )

        requeue: List[ObligationWorkItem] = []
        for result in report.results:
            group = registry.get(result.unit, [])
            recorded = (result.detail or {}).get("outcomes")
            if recorded is not None:
                for outcome in recorded:
                    self._settle(outcome)
                self._fold_counters(result.detail)
                continue
            # The group died, timed out, or was skipped before
            # finishing; streamed outcomes have already settled.
            unsettled = [i for i in group if i.key not in self.outcomes]
            if result.verdict == batch.TIMEOUT:
                for item in unsettled:
                    self._settle(self._timeout_outcome(item))
                continue
            if not unsettled:
                continue
            first, rest = unsettled[0], unsettled[1:]
            self.deaths[first.key] = self.deaths.get(first.key, 0) + 1
            if self.deaths[first.key] >= self.max_obligation_deaths:
                self.stats["quarantined"] += 1
                obs.incr("shard.quarantined")
                self._settle(
                    self._gave_up_outcome(
                        first,
                        f"quarantined after killing "
                        f"{self.deaths[first.key]} worker(s)",
                    )
                )
            else:
                requeue.append(first)
            requeue.extend(rest)
            self.stats["requeued"] += len(rest) + (
                1 if first.key not in self.outcomes else 0
            )
            obs.incr("shard.requeued", len(rest))
        return requeue

    # -------------------------------------------------------- plumbing

    def _supervisor_config(self, jobs: int):
        from repro.harness.supervisor import SupervisorConfig

        config = SupervisorConfig.from_env(
            jobs=jobs,
            unit_timeout=self.unit_timeout,
            keep_going=True,
        )
        # One death quarantines the *group*; the scheduler re-queues its
        # survivors itself, so pool-level retries would only duplicate
        # work at coarser granularity.
        config.max_worker_deaths = 1
        return config

    def _wrap_event(self, event) -> None:
        if isinstance(event, dict) and "_outcome" in event:
            event = dict(event)
            self._settle(event.pop("_outcome"))
        if self.on_event is not None:
            try:
                self.on_event(event)
            except Exception:
                pass

    def _settle(self, outcome: Dict) -> None:
        self.outcomes.setdefault(outcome["key"], outcome)

    def _fold_counters(self, detail: Dict) -> None:
        for bucket, totals in (
            ("session", self.session_totals),
            ("cache", self.cache_totals),
        ):
            for key, value in (detail.get(bucket) or {}).items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value

    def _timeout_outcome(self, item: ObligationWorkItem) -> Dict:
        return self._unproved_outcome(item, "TIMEOUT", "time limit")

    def _gave_up_outcome(self, item: ObligationWorkItem, reason: str) -> Dict:
        return self._unproved_outcome(item, "GAVE_UP", reason)

    @staticmethod
    def _unproved_outcome(
        item: ObligationWorkItem, verdict: str, reason: str
    ) -> Dict:
        return {
            "key": item.key,
            "unit": item.unit,
            "qualifier": item.qualifier,
            "index": item.index,
            "rule": item.rule,
            "trivial": False,
            "verdict": verdict,
            "proved": False,
            "error": "",
            "proof": {
                "proved": False,
                "reason": reason,
                "verdict": verdict,
                "elapsed": 0.0,
                "cached": False,
            },
        }
