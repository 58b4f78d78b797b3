"""The obligation scheduler: every prove discharges its work here.

The parent generates
:class:`~repro.core.soundness.workitems.ObligationWorkItem`s for every
unit and hands them to :func:`run_obligations`, which groups them by
axiom-environment digest (all obligations of a group share one
:class:`~repro.prover.session.ProverSession`, built when the group
starts and dropped when it ends) and runs the groups as synthetic
units of the batch engine.  With ``jobs > 1`` the groups are
packed, longest first by obligation count, into at most ``jobs``
*chunks*, one pool child each; otherwise every group is its own unit
and runs in process.  Workers stream one progress event per settled
obligation — carrying the full outcome — so the parent can re-assemble
per-unit reports, and so a worker death loses only the obligations
that had not yet settled.

``unit_timeout`` bounds each group: a chunk starts a fresh budget
(cooperative deadline and the pool's preemptive kill clock alike)
before each of its groups.  Group timeouts are final, exactly like
per-unit timeouts: the unsettled remainder of the group reports
``TIMEOUT``, and the groups a killed chunk never reached run in the
next round.

Retry and quarantine are at **obligation granularity**: the supervisor
is configured to quarantine a chunk on its first worker death
(``max_worker_deaths=1``); the scheduler then settles the chunk's
streamed outcomes, attributes the death to the first obligation that
had not settled, and re-queues the remainder as a new round.  An
obligation that kills ``max_obligation_deaths`` workers is itself
quarantined (``GAVE_UP``, mirroring the pool's poison-unit contract);
its group mates still get proved.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.soundness.workitems import (
    ObligationWorkItem,
    discharge_work_item,
)
from repro.harness import batch
from repro.harness.watchdog import (
    NO_RETRY,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
)
from repro.prover.session import COUNTERS, ProverSession

#: Worker deaths one obligation may cause before it is quarantined.
MAX_OBLIGATION_DEATHS = 2

_Group = List[ObligationWorkItem]


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
    quarantined, and ``interrupted`` when SIGINT/SIGTERM stopped the
    run; unsettled items then have no outcome), the groups' summed
    session counters under ``"sessions"``, and their summed
    proof-cache deltas under ``"cache"`` when a cache is live.  Those
    deltas are folded into the store's lifetime totals here, once per
    call.
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


def _pack_groups(groups: List[_Group], chunks: int) -> List[List[_Group]]:
    """Longest-processing-time packing: each group, largest first, joins
    the chunk with the fewest obligations so far.  A chunk keeps its
    groups in their input order, and the chunks are ordered by their
    first group, so one chunk per group reproduces the input order."""
    bins: List[List[Tuple[int, _Group]]] = [[] for _ in range(chunks)]
    loads = [0] * chunks
    ranked = sorted(enumerate(groups), key=lambda pair: -len(pair[1]))
    for index, group in ranked:
        target = loads.index(min(loads))
        bins[target].append((index, group))
        loads[target] += len(group)
    ordered = sorted((sorted(b) for b in bins if b), key=lambda b: b[0][0])
    return [[group for _index, group in b] for b in ordered]


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
        # Zero totals, so every report carries every counter.
        self.session_totals: Dict[str, int] = dict.fromkeys(
            ("sessions",) + COUNTERS, 0
        )
        self.cache_totals: Dict[str, int] = (
            cache.delta(cache.snapshot()) if cache is not None else {}
        )

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
        if not self.stats.get("interrupted"):
            for item in pending:  # pragma: no cover - backstop only
                self._settle(
                    self._gave_up_outcome(item, "scheduler round cap")
                )
        stats = dict(self.stats)
        stats["sessions"] = dict(self.session_totals)
        if self.cache is not None:
            stats["cache"] = dict(self.cache_totals)
            if any(self.cache_totals.values()):
                self.cache.flush_counters(self.cache_totals)
        return self.outcomes, stats

    def _run_round(
        self, round_no: int, pending: List[ObligationWorkItem]
    ) -> List[ObligationWorkItem]:
        groups: Dict[str, _Group] = {}
        for item in pending:
            groups.setdefault(item.env_digest, []).append(item)
        if round_no == 1:
            self.stats["groups"] = len(groups)
            obs.incr("shard.groups", len(groups))
        obs.incr("shard.rounds")
        # In process every group is a unit of its own (so an interrupt
        # or a crash stops at a group boundary); a pool forks one child
        # per chunk, never more children than ``jobs``.
        chunks = _pack_groups(
            list(groups.values()),
            min(self.jobs, len(groups)) if self.jobs > 1 else len(groups),
        )
        registry: Dict[str, List[_Group]] = {}
        for chunk in chunks:
            first = chunk[0][0]
            name = f"obl:{first.qualifier}@{first.env_digest[:10]}#r{round_no}"
            registry[name] = chunk

        jobs = min(self.jobs, len(registry))
        report = batch.run_units(
            list(registry),
            self._worker(registry),
            keep_going=True,
            jobs=jobs,
            unit_timeout=self.unit_timeout,
            on_event=self._wrap_event,
            supervisor_config=(
                self._supervisor_config(jobs) if jobs > 1 else None
            ),
        )

        requeue: List[ObligationWorkItem] = []
        for result in report.results:
            recorded = (result.detail or {}).get("outcomes")
            if recorded is not None:
                for outcome in recorded:
                    self._settle(outcome)
                self._fold_counters(result.detail)
                continue
            if report.interrupted:
                continue
            # The chunk died, timed out, or was skipped before
            # finishing; streamed outcomes have already settled.
            unsettled = [
                item
                for group in registry.get(result.unit, ())
                for item in group
                if item.key not in self.outcomes
            ]
            if not unsettled:
                continue
            first, rest = unsettled[0], unsettled[1:]
            if result.verdict == batch.TIMEOUT:
                # The running group spent its budget: final.  The
                # chunk's later groups never started.
                for item in unsettled:
                    if item.env_digest == first.env_digest:
                        self._settle(self._timeout_outcome(item))
                    else:
                        requeue.append(item)
                continue
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
        if report.interrupted:
            self.stats["interrupted"] = True
            return []
        self.stats["requeued"] += len(requeue)
        obs.incr("shard.requeued", len(requeue))
        return requeue

    def _worker(self, registry: Dict[str, List[_Group]]):
        axioms = self.axioms
        time_limit = self.time_limit
        max_rounds = self.max_rounds
        retry = self.retry
        cache = self.cache
        unit_timeout = self.unit_timeout

        def worker(unit_name: str, _deadline) -> batch.UnitResult:
            before = cache.snapshot() if cache is not None else None
            outcomes: List[Dict] = []
            totals: Dict[str, int] = {}
            for group in registry[unit_name]:
                first = group[0]
                batch.restart_unit_clock()
                deadline = Deadline.after(unit_timeout)
                session = ProverSession(
                    axioms,
                    context=first.context,
                    max_rounds=max_rounds,
                    time_limit=time_limit,
                )
                settled = len(outcomes)
                with obs.span("prove", qualifier=first.qualifier):
                    try:
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
                            # The outcome rides along on the progress
                            # event so the parent can settle it even if
                            # this worker later dies.
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
                    except DeadlineExceeded:
                        outcomes.extend(
                            self._timeout_outcome(item)
                            for item in group[len(outcomes) - settled:]
                        )
                totals["sessions"] = totals.get("sessions", 0) + 1
                for key, value in session.counters.items():
                    totals[key] = totals.get(key, 0) + value
            detail: Dict = {"outcomes": outcomes, "session": totals}
            if cache is not None:
                detail["cache"] = cache.delta(before)
            return batch.UnitResult(
                unit=unit_name, verdict=batch.OK, detail=detail
            )

        return worker

    # -------------------------------------------------------- plumbing

    def _supervisor_config(self, jobs: int):
        from repro.harness.supervisor import SupervisorConfig

        config = SupervisorConfig.from_env(
            jobs=jobs,
            unit_timeout=self.unit_timeout,
            keep_going=True,
        )
        # One death quarantines the *chunk*; the scheduler re-queues its
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
