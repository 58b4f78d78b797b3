"""Prover micro-benchmarks: representative obligation shapes.

These isolate the prover's cost drivers so regressions in any layer
(SAT, congruence closure, arithmetic, instantiation) show up
independently of the soundness-checker pipeline.

Also runnable standalone, to measure the proof cache's effect and the
sharded/session sweep::

    PYTHONPATH=src python benchmarks/bench_prover.py          # cold only
    PYTHONPATH=src python benchmarks/bench_prover.py --warm   # cold + warm
    PYTHONPATH=src python benchmarks/bench_prover.py --cold --jobs 8
    PYTHONPATH=src python benchmarks/bench_prover.py --cold --no-shard
    PYTHONPATH=src python benchmarks/bench_prover.py --cold --quick --json

``--cold --json`` emits a machine-readable record (theory/explain
times, the explain-fallback count and the per-obligation verdict map)
for the CI stage that gates the conflict-core path; ``--record``
appends the same record to ``BENCH_prover.json``'s history, growing
the committed perf trajectory.
"""

import os
import platform

import pytest

from repro.core.qualifiers.library import NONNULL, POS, UNIQUE, standard_qualifiers
from repro.core.soundness.axioms import semantics_axioms
from repro.core.soundness.obligations import generate_obligations
from repro.prover.prover import Prover, prove_valid
from repro.prover.terms import And, Eq, ForAll, Implies, Int, Lt, Not, TVar, fn

QUALS = standard_qualifiers()
AXIOMS = semantics_axioms()


def _prove_obligation(qdef, rule_fragment):
    (ob,) = [
        o for o in generate_obligations(qdef, QUALS) if rule_fragment in o.rule
    ]

    def run():
        prover = Prover(time_limit=30)
        prover.add_axioms(AXIOMS)
        result = prover.prove(ob.goal)
        assert result.proved
        return result

    return run


@pytest.mark.benchmark(group="prover")
def test_ground_euf_chain(benchmark):
    a = fn("a")
    chain = [Eq(fn(f"c{i}"), fn(f"c{i + 1}")) for i in range(20)]
    goal = Implies(And(*chain), Eq(fn("f", fn("c0")), fn("f", fn("c20"))))
    result = benchmark(lambda: prove_valid(goal))
    assert result.proved


@pytest.mark.benchmark(group="prover")
def test_linear_arithmetic_chain(benchmark):
    hyps = [
        Lt(fn(f"x{i}"), fn(f"x{i + 1}")) for i in range(12)
    ]
    goal = Implies(And(*hyps), Lt(fn("x0"), fn("x12")))
    result = benchmark(lambda: prove_valid(goal))
    assert result.proved


@pytest.mark.benchmark(group="prover")
def test_sign_lemma_obligation(benchmark):
    a, b = fn("a"), fn("b")
    goal = Implies(
        And(Lt(Int(0), a), Lt(Int(0), b)), Lt(Int(0), fn("*", a, b))
    )
    result = benchmark(lambda: prove_valid(goal))
    assert result.proved


@pytest.mark.benchmark(group="prover")
def test_pos_product_obligation(benchmark):
    result = benchmark.pedantic(
        _prove_obligation(POS, "E1 * E2"), iterations=1, rounds=3
    )
    assert result.proved


@pytest.mark.benchmark(group="prover")
def test_nonnull_addrof_obligation(benchmark):
    result = benchmark.pedantic(
        _prove_obligation(NONNULL, "&L"), iterations=1, rounds=3
    )
    assert result.proved


@pytest.mark.benchmark(group="prover")
def test_unique_preservation_read_obligation(benchmark):
    result = benchmark.pedantic(
        _prove_obligation(UNIQUE, "read of an l-value"), iterations=1, rounds=3
    )
    assert result.proved


@pytest.mark.benchmark(group="prover")
def test_quantified_store_reasoning(benchmark):
    s, A, V, D, W = fn("s"), fn("A"), fn("V"), fn("D"), fn("W")
    P = TVar("P")
    select = lambda m, k: fn("select", m, k)  # noqa: E731
    store = lambda m, k, v: fn("store", m, k, v)  # noqa: E731
    axioms = [
        ForAll(("m", "k", "v"), Eq(select(store(TVar("m"), TVar("k"), TVar("v")), TVar("k")), TVar("v"))),
        ForAll(
            ("m", "k", "j", "v"),
            Implies(
                Not(Eq(TVar("k"), TVar("j"))),
                Eq(
                    select(store(TVar("m"), TVar("k"), TVar("v")), TVar("j")),
                    select(TVar("m"), TVar("j")),
                ),
            ),
            triggers=((select(store(TVar("m"), TVar("k"), TVar("v")), TVar("j")),),),
        ),
    ]
    old_inv = ForAll(
        ("P",),
        Implies(Eq(select(s, P), V), Eq(P, A)),
        triggers=((select(s, P),),),
    )
    new_inv = ForAll(("P",), Implies(Eq(select(store(s, D, W), P), V), Eq(P, A)))
    goal = Implies(And(old_inv, Not(Eq(D, A)), Not(Eq(W, V))), new_inv)
    result = benchmark(lambda: prove_valid(goal, axioms))
    assert result.proved


@pytest.mark.benchmark(group="prover")
def test_session_sweep_standard_library(benchmark):
    """Full soundness sweep with incremental prover sessions — the
    number the sharded scheduler's workers see per environment group."""
    from repro.core.soundness.checker import check_soundness
    from repro.prover.session import SessionPool

    def run():
        pool = SessionPool()
        for qdef in QUALS:
            check_soundness(qdef, QUALS, time_limit=30, sessions=pool)
        return pool.counters()

    counters = benchmark.pedantic(run, iterations=1, rounds=3)
    assert counters["session_reuse"] > 0


# --------------------------------------------------------- standalone runner


def _soundness_pass(cache) -> tuple:
    """One full soundness sweep of the standard library; returns
    (wall seconds, obligations discharged, cache hits during the pass)."""
    import time

    from repro.core.soundness.checker import check_soundness

    before = cache.snapshot() if cache is not None else {}
    start = time.perf_counter()
    discharged = 0
    for qdef in QUALS:
        report = check_soundness(qdef, QUALS, time_limit=30, cache=cache)
        discharged += len(report.results)
    elapsed = time.perf_counter() - start
    hits = cache.delta(before)["hits"] if cache is not None else 0
    return elapsed, discharged, hits


#: The ``--quick`` workload: a prefix of the standard library that
#: still crosses every theory (EUF chains, arithmetic, quantifiers)
#: but keeps the CI cross-check stage cheap.
QUICK_COUNT = 5


def _sweep_quals(quick: bool):
    quals = list(QUALS)
    return quals[:QUICK_COUNT] if quick else quals


def _sharded_sweep(jobs: int, shard: bool, quick: bool = False) -> tuple:
    """One cache-less sweep through the obligation pipeline; returns
    (wall seconds, obligation count, stats, verdict map)."""
    import time

    from repro.core.soundness.workitems import generate_work_items
    from repro.harness import shard as shard_mod

    items = []
    for qdef in _sweep_quals(quick):
        items.extend(generate_work_items(qdef, QUALS, AXIOMS, unit=qdef.name))
    verdicts = {}
    start = time.perf_counter()
    if shard:
        outcomes, stats = shard_mod.run_obligations(
            items, AXIOMS, jobs=jobs, time_limit=30
        )
        verdicts = {key: out["verdict"] for key, out in outcomes.items()}
    else:
        from repro.core.soundness.checker import check_soundness
        from repro.prover.session import SessionPool

        pool = SessionPool()
        for qdef in _sweep_quals(quick):
            report = check_soundness(
                qdef, QUALS, time_limit=30, sessions=pool
            )
            for index, res in enumerate(report.results):
                verdicts[f"{qdef.name}|{qdef.name}|{index}"] = res.verdict
        stats = {"sessions": pool.counters()}
    elapsed = time.perf_counter() - start
    return elapsed, len(items), stats, verdicts


def _cold_sweep_record(args) -> dict:
    """Run one cold sweep with the collector on and flatten the result
    into the JSON-ready record ``--json`` prints and ``--record``
    appends to the history."""
    from repro import obs

    owner = not obs.enabled()
    if owner:
        obs.enable()
    marker = obs.mark()
    try:
        elapsed, count, stats, verdicts = _sharded_sweep(
            args.jobs, args.shard, quick=args.quick
        )
        counters = obs.since(marker).get("counters", {})
    finally:
        if owner:
            obs.disable()
            obs.reset()
    return {
        "kind": "cold_sweep",
        "workload": "quick" if args.quick else "full",
        "jobs": args.jobs,
        # Sessions and explained cores are always on; the constant
        # fields keep records comparable with the committed history.
        "sessions": True,
        "shard": args.shard,
        "explain": True,
        "obligations": count,
        "elapsed_s": round(elapsed, 3),
        "theory_ms": round(counters.get("prover.theory_ms", 0.0), 3),
        "explain_ms": round(counters.get("prover.explain_ms", 0.0), 3),
        "linarith_ms": round(counters.get("prover.linarith_ms", 0.0), 3),
        "cores": int(counters.get("prover.cores", 0)),
        "explain_fallbacks": int(
            counters.get("prover.explain_fallbacks", 0)
        ),
        "verdicts": dict(sorted(verdicts.items())),
        "stats": {"sessions": (stats.get("sessions") or {})},
    }


def machine_info() -> dict:
    """The ``machine`` block of a recorded measurement."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def _append_history(path: str, record: dict) -> None:
    """Append a timestamped cold-sweep entry to the ``history`` list of
    ``BENCH_prover.json`` (creating the file if absent), preserving
    everything else in the file.  The entry carries the ``machine``
    block of the host that measured it."""
    import json
    import time as time_mod

    payload = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        payload = {"name": "prover", "schema_version": 1}
    history = list(payload.get("history") or ())
    entry = {
        "timestamp": time_mod.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time_mod.gmtime()
        ),
        "cold_sweep": {
            k: v for k, v in record.items()
            if k not in ("verdicts", "stats", "kind")
        },
        "machine": machine_info(),
    }
    history.append(entry)
    payload["history"] = history
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    import argparse
    import tempfile

    from repro.cache import ProofCache

    parser = argparse.ArgumentParser(
        description="Time a soundness sweep of the standard qualifier "
        "library, cold and (with --warm) again against a warmed proof cache."
    )
    parser.add_argument(
        "--warm",
        action="store_true",
        help="after the cold pass, re-run against the now-populated cache "
        "and report the speedup",
    )
    parser.add_argument(
        "--cold",
        action="store_true",
        help="time one cache-less sweep through the sharded obligation "
        "scheduler instead of the cache benchmark",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the sharded sweep (with --cold)",
    )
    parser.add_argument(
        "--no-shard", dest="shard", action="store_false", default=True,
        help="discharge serially via check_soundness instead of the "
        "obligation scheduler",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"sweep only the first {QUICK_COUNT} standard qualifiers "
        "(the cheap CI cross-check workload, with --cold)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the cold-sweep record as JSON on stdout (with --cold): "
        "timings plus the per-obligation verdict map",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="append the cold-sweep record to BENCH_prover.json's "
        "history (with --cold)",
    )
    parser.add_argument(
        "--bench-file", default="BENCH_prover.json",
        help="history file for --record (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    if args.cold:
        record = _cold_sweep_record(args)
        if args.record:
            _append_history(args.bench_file, record)
        if args.json:
            import json

            print(json.dumps(record, indent=2, sort_keys=True))
        else:
            sessions = record["stats"].get("sessions") or {}
            print(
                f"cold sweep: {record['obligations']} obligation(s) in "
                f"{record['elapsed_s']:.3f} s "
                f"(workload={record['workload']}, jobs={args.jobs}, "
                f"shard={'on' if args.shard else 'off'}, "
                f"theory_ms={record['theory_ms']:.1f}, "
                f"explain_ms={record['explain_ms']:.1f}, "
                f"session_reuse={sessions.get('session_reuse', 0)}, "
                f"cores_seeded={sessions.get('cores_seeded', 0)})"
            )
        return 0

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        with ProofCache(cache_dir=tmp) as cache:
            cold, count, _ = _soundness_pass(cache)
            print(
                f"cold: {count} obligation(s) in {cold:.3f} s "
                f"({cache.counters['stores']} cached)"
            )
            if args.warm:
                warm, _, hits = _soundness_pass(cache)
                speedup = cold / warm if warm > 0 else float("inf")
                print(
                    f"warm: {count} obligation(s) in {warm:.3f} s "
                    f"({hits} cache hit(s), {speedup:.1f}x speedup)"
                )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
