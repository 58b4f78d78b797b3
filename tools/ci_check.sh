#!/bin/sh
# CI smoke gate: tier-1 tests plus batch-mode CLI runs with the exit
# codes docs/robustness.md documents.  Run from the repository root:
#
#   sh tools/ci_check.sh
#
# Exits nonzero on the first failing stage.
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}src"
export PYTHONPATH

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "== tier-1 test suite"
python -m pytest -x -q tests/

echo "== worklist engine matches legacy structured-walk verdicts"
python benchmarks/bench_flow_ablation.py --smoke

echo "== prover ablations: budgets mean what they say (max_rounds=0 included)"
python -m pytest -q benchmarks/bench_prover_ablation.py

echo "== repo benchmark smoke run: all four workloads, zero failures"
python3 benchmarks/e2e/run.py --smoke

echo "== batch check over examples/ (expect exit 0, JSON report)"
python -m repro check examples/*.c --keep-going --format json \
    | python -c '
import json, sys
report = json.load(sys.stdin)
units = report["units"]
bad = [u for u in units if u["verdict"] != "OK"]
assert not bad, f"expected every example unit OK, got: {bad}"
assert report["exit_code"] == 0, report["exit_code"]
print(f"   {len(units)} unit(s) OK")
'

echo "== prove the standard qualifier library (expect exit 0)"
python -m repro prove examples/posneg.qual --keep-going --time-limit 30 \
    --cache-dir "$tmpdir/warmup-cache"

echo "== proof cache: cold then warm run (expect hits, identical verdicts)"
python -m repro prove examples/*.qual --keep-going --time-limit 30 \
    --cache-dir "$tmpdir/proof-cache" --format json > "$tmpdir/cold.json"
python -m repro prove examples/*.qual --keep-going --time-limit 30 \
    --cache-dir "$tmpdir/proof-cache" --format json > "$tmpdir/warm.json"
python -c '
import json, sys
cold = json.load(open(sys.argv[1]))
warm = json.load(open(sys.argv[2]))
assert cold["cache"]["hits"] == 0, cold["cache"]
assert warm["cache"]["hits"] > 0, warm["cache"]
assert warm["cache"]["misses"] == 0, warm["cache"]


def obligations(report):
    return [
        (u["unit"], q["qualifier"], o["rule"], o["verdict"], o["proved"],
         o["reason"])
        for u in report["units"]
        for q in u["detail"]["qualifiers"]
        for o in q["obligations"]
    ]


assert obligations(cold) == obligations(warm), "verdict drift between runs"
unit_verdicts = [u["verdict"] for u in cold["units"]]
assert unit_verdicts == [u["verdict"] for u in warm["units"]], unit_verdicts
replayed = [
    o for u in warm["units"] for q in u["detail"]["qualifiers"]
    for o in q["obligations"] if o["verdict"] == "PROVED"
]
assert replayed and all(o["cached"] for o in replayed), (
    "warm run did not replay every PROVED obligation from the cache"
)
hits = warm["cache"]["hits"]
print(f"   {hits} hit(s), "
      f"{len(replayed)} PROVED obligation(s) replayed, verdicts identical")
' "$tmpdir/cold.json" "$tmpdir/warm.json"

echo "== sharded prove: --jobs 2 verdicts identical to serial, sessions reused"
python -m repro prove examples/*.qual --keep-going --time-limit 30 \
    --no-cache --format json > "$tmpdir/serial.json"
python -m repro prove examples/*.qual --keep-going --time-limit 30 \
    --no-cache --jobs 2 --format json > "$tmpdir/sharded.json"
python -m repro prove examples/*.qual --keep-going --time-limit 30 \
    --no-cache --jobs 2 --no-shard --format json > "$tmpdir/pooled.json"
python -c '
import json, sys
serial = json.load(open(sys.argv[1]))
sharded = json.load(open(sys.argv[2]))
pooled = json.load(open(sys.argv[3]))


def obligations(report):
    return [
        (u["unit"], q["qualifier"], o["rule"], o["verdict"], o["proved"],
         o["reason"])
        for u in report["units"]
        for q in u["detail"]["qualifiers"]
        for o in q["obligations"]
    ]


want = obligations(serial)
assert want, "no obligations proved"
assert obligations(sharded) == want, "sharded verdict drift vs serial"
assert obligations(pooled) == want, "--no-shard verdict drift vs serial"
assert [u["verdict"] for u in sharded["units"]] == [
    u["verdict"] for u in serial["units"]
], "unit verdict drift"
assert sharded["exit_code"] == serial["exit_code"], "exit code drift"
for report, label in ((serial, "serial"), (sharded, "sharded")):
    sessions = report["sessions"]
    assert sessions["enabled"] is True, (label, sessions)
    assert sessions["session_reuse"] > 0, (label, sessions)
scheduler = sharded["scheduler"]
assert scheduler["groups"] > 0 and scheduler["obligations"] > 0, scheduler
assert "scheduler" not in serial and "scheduler" not in pooled
reuse = sharded["sessions"]["session_reuse"]
groups = scheduler["groups"]
print(f"   {len(want)} obligation(s) identical across serial/sharded/pooled, "
      f"session_reuse={reuse}, groups={groups}")
' "$tmpdir/serial.json" "$tmpdir/sharded.json" "$tmpdir/pooled.json"

echo "== conflict cores: explain vs ddmin verdicts identical, no perf regression"
python benchmarks/bench_prover.py --cold --quick --json \
    > "$tmpdir/cores-explain-1.json"
python benchmarks/bench_prover.py --cold --quick --json \
    > "$tmpdir/cores-explain-2.json"
python benchmarks/bench_prover.py --cold --quick --no-explain --json \
    > "$tmpdir/cores-ddmin.json"
python -c '
import json, sys
runs = [json.load(open(p)) for p in sys.argv[1:3]]
ddmin = json.load(open(sys.argv[3]))
explain = min(runs, key=lambda r: r["theory_ms"])  # best-of-2 vs noise
assert explain["verdicts"], "cold sweep discharged no obligations"
assert explain["verdicts"] == ddmin["verdicts"], (
    "conflict-core strategy changed verdicts: "
    + str({k: (explain["verdicts"][k], ddmin["verdicts"][k])
           for k in explain["verdicts"]
           if explain["verdicts"][k] != ddmin["verdicts"][k]})
)
assert explain["explain_fallbacks"] == 0, (
    "explained cores fell back to ddmin: %r" % explain
)
history = json.load(open("BENCH_prover.json"))["history"]
baseline = next(
    (e["cold_sweep"] for e in reversed(history)
     if e.get("cold_sweep", {}).get("workload") == "quick"
     and e["cold_sweep"].get("explain")),
    None,
)
assert baseline is not None, (
    "no quick-workload cold_sweep baseline in BENCH_prover.json history"
)
measured, committed = explain["theory_ms"], baseline["theory_ms"]
limit = committed * 1.2
assert measured <= limit, (
    "prover.theory_ms regressed: %.1f ms vs committed baseline "
    "%.1f ms (+20%% gate %.1f ms)" % (measured, committed, limit)
)
print("   %d verdict(s) identical across strategies, "
      "theory_ms %.1f <= gate %.1f"
      % (len(explain["verdicts"]), measured, limit))
' "$tmpdir/cores-explain-1.json" "$tmpdir/cores-explain-2.json" \
  "$tmpdir/cores-ddmin.json"

echo "== differential testing smoke run (expect exit 0, no disagreements)"
python -m repro difftest --seed 0 --count 50 --budget 60 \
    --out-dir "$tmpdir/difftest-artifacts" --format json \
    > "$tmpdir/difftest.json"
python -c '
import json, sys
report = json.load(open(sys.argv[1]))
meta = report["difftest"]
assert meta["findings"] == 0, f"difftest disagreements: {meta}"
counters = meta["counters"]
assert counters.get("prover_vs_enum.compared", 0) > 0, counters
assert counters.get("preservation.compared_runs", 0) > 0, counters
ran = meta["count"] - meta["cases_skipped_budget"]
assert ran > 0, meta
compared = counters["prover_vs_enum.compared"]
print(f"   {ran} case(s), {compared} verdict(s) cross-checked, "
      "0 disagreements")
' "$tmpdir/difftest.json"

echo "== bench smoke run (expect well-formed BENCH_smoke.json)"
python -m repro bench --smoke --out-dir "$tmpdir"
python -c '
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema_version"] == 1, report["schema_version"]
assert report["name"] == "smoke", report["name"]
suites = report["suites"]
assert suites, "no suites ran"
bad_suites = [s["suite"] for s in suites if s["status"] != "ok"]
assert not bad_suites, f"bench smoke suites errored: {bad_suites}"
failed = [
    c["name"] for s in suites for c in s["cases"] if c["status"] != "ok"
]
assert not failed, f"bench smoke cases failed: {failed}"
cases = sum(len(s["cases"]) for s in suites)
timed = [
    c for s in suites for c in s["cases"]
    if c["status"] == "ok" and c["mean_ms"] > 0
]
assert timed, "no case produced a nonzero timing"
print(f"   {len(suites)} suite(s), {cases} case(s), timings recorded")
' "$tmpdir/BENCH_smoke.json"

echo "== broken input is contained, not fatal (expect exit 2)"
printf 'int f( {' > "$tmpdir/broken.c"
status=0
python -m repro check "$tmpdir/broken.c" examples/lcm.c \
    --keep-going --format json > "$tmpdir/report.json" || status=$?
test "$status" -eq 2 || {
    echo "expected exit 2 for a batch with one broken unit, got $status" >&2
    exit 1
}
python -c '
import json, sys
report = json.load(open(sys.argv[1]))
verdicts = [u["verdict"] for u in report["units"]]
assert verdicts == ["ERROR", "OK"], verdicts
print("   verdicts:", " ".join(verdicts))
' "$tmpdir/report.json"

echo "== chaos smoke: poison units quarantined (expect exit 2, JSONL complete)"
status=0
python -m repro check examples/*.c --keep-going --jobs 2 --format jsonl \
    --inject-faults 'seed=0,kill=1' > "$tmpdir/chaos-poison.jsonl" || status=$?
test "$status" -eq 2 || {
    echo "expected exit 2 for an all-poison chaos run, got $status" >&2
    exit 1
}
python -c '
import glob, json, sys
records = [json.loads(line) for line in open(sys.argv[1])]
summary = records[-1]
units = records[:-1]
assert summary["record"] == "summary", summary
expected = sorted(glob.glob("examples/*.c"))
names = sorted(r["unit"] for r in units)
assert names == expected, f"every unit exactly once: {names}"
for r in units:
    assert r["verdict"] == "GAVE_UP", r
    assert any(d["code"] == "Q007" for d in r["diagnostics"]), r
assert summary["exit_code"] == 2, summary
assert summary["supervisor"]["quarantined"] == len(units), summary
print(f"   {len(units)} unit(s) quarantined with Q007, stream complete")
' "$tmpdir/chaos-poison.jsonl"

echo "== chaos smoke: transient worker crash recovers (expect exit 0)"
seed="$(python -c '
import glob
from repro import faults
units = sorted(glob.glob("examples/*.c"))
for seed in range(500):
    plan = faults.FaultPlan(seed=seed, rates={"kill": 0.4})
    first = [u for u in units if plan.decide("kill", f"{u}#1")]
    if len(first) == 1 and not any(
        plan.decide("kill", f"{u}#{a}") for u in first for a in (2, 3)
    ):
        print(seed)
        break
')"
python -m repro check examples/*.c --keep-going --jobs 2 --format jsonl \
    --inject-faults "seed=$seed,kill=0.4" > "$tmpdir/chaos-retry.jsonl"
python -c '
import json, sys
records = [json.loads(line) for line in open(sys.argv[1])]
summary = records[-1]
assert all(r["verdict"] == "OK" for r in records[:-1]), records
assert summary["exit_code"] == 0, summary
assert summary["supervisor"]["deaths"] >= 1, summary
assert summary["supervisor"]["quarantined"] == 0, summary
deaths = summary["supervisor"]["deaths"]
print(f"   recovered from {deaths} worker death(s), all verdicts OK")
' "$tmpdir/chaos-retry.jsonl"

echo "== difftest under one injected worker crash (expect exit 0)"
dseed="$(python -c '
from repro import faults
units = [f"case-{i:05d}" for i in range(12)]
for seed in range(500):
    plan = faults.FaultPlan(seed=seed, rates={"kill": 0.2})
    first = [u for u in units if plan.decide("kill", f"{u}#1")]
    if len(first) == 1 and not any(
        plan.decide("kill", f"{u}#{a}") for u in first for a in (2, 3)
    ):
        print(seed)
        break
')"
python -m repro difftest --seed 0 --count 12 --jobs 2 --keep-going \
    --out-dir "$tmpdir/chaos-difftest-artifacts" --format json \
    --inject-faults "seed=$dseed,kill=0.2" > "$tmpdir/chaos-difftest.json"
python -c '
import json, sys
report = json.load(open(sys.argv[1]))
meta = report["difftest"]
assert meta["findings"] == 0, f"difftest disagreements under chaos: {meta}"
assert meta["counters"].get("prover_vs_enum.compared", 0) > 0, meta
assert report["exit_code"] == 0, report["exit_code"]
assert report["supervisor"]["deaths"] >= 1, report.get("supervisor")
assert report["supervisor"]["quarantined"] == 0, report["supervisor"]
deaths = report["supervisor"]["deaths"]
print(f"   12 case(s), {deaths} worker death(s) survived, oracles agree")
' "$tmpdir/chaos-difftest.json"

echo "== serve smoke: daemon up, incremental re-check, clean shutdown"
cat > "$tmpdir/serve_unit.c" <<'EOF'
int add1(int x) { return x + 1; }
int dbl(int y) { return y * 2; }
int idf(int z) { return z; }
EOF
python -m repro serve --socket "$tmpdir/serve.sock" \
    > "$tmpdir/serve.log" 2>&1 &
serve_pid=$!
tries=0
until [ -S "$tmpdir/serve.sock" ]; do
    tries=$((tries + 1))
    test "$tries" -le 100 || {
        echo "serve daemon never bound its socket" >&2
        cat "$tmpdir/serve.log" >&2
        exit 1
    }
    sleep 0.1
done
python -m repro check "$tmpdir/serve_unit.c" \
    --server "$tmpdir/serve.sock" --format json > "$tmpdir/serve1.json"
cat > "$tmpdir/serve_unit.c" <<'EOF'
int add1(int x) { return x + 1; }
int dbl(int y) { return y * 2; }
int idf(int z) { return z + 0; }
EOF
python -m repro check "$tmpdir/serve_unit.c" \
    --server "$tmpdir/serve.sock" --format json > "$tmpdir/serve2.json"
python -m repro serve --status --socket "$tmpdir/serve.sock" \
    > "$tmpdir/serve_status.json"
python -c '
import json, sys
first = json.load(open(sys.argv[1]))
second = json.load(open(sys.argv[2]))
status = json.load(open(sys.argv[3]))
for report in (first, second):
    assert report["schema_version"] == 1, report["schema_version"]
    assert report["exit_code"] == 0, report
    assert [u["verdict"] for u in report["units"]] == ["OK"], report["units"]
assert first["incremental"]["rechecked"] == 3, first["incremental"]
# the edit touched one function body: only it re-checked
assert second["incremental"]["rechecked"] == 1, second["incremental"]
assert second["incremental"]["replayed"] == 2, second["incremental"]
counters = status["workspaces"][0]["counters"]
assert counters["functions_replayed"] == 2, counters
assert counters["functions_checked"] == 4, counters
assert status["counters"]["errors"] == 0, status["counters"]
print("   incremental re-check: 1 function re-proved, 2 replayed")
' "$tmpdir/serve1.json" "$tmpdir/serve2.json" "$tmpdir/serve_status.json"
python -m repro serve --stop --socket "$tmpdir/serve.sock" > /dev/null
tries=0
while kill -0 "$serve_pid" 2> /dev/null; do
    tries=$((tries + 1))
    test "$tries" -le 100 || {
        echo "serve daemon did not shut down within 10s" >&2
        kill -9 "$serve_pid" 2> /dev/null || true
        exit 1
    }
    sleep 0.1
done
test ! -e "$tmpdir/serve.sock" || {
    echo "serve daemon left its socket file behind" >&2
    exit 1
}
echo "   daemon shut down cleanly, socket removed"

echo "== serve smoke: process mode over TCP, worker crash recovery"
cat > "$tmpdir/mp_a.c" <<'EOF'
int add1(int x) { return x + 1; }
int dbl(int y) { return y * 2; }
EOF
cat > "$tmpdir/mp_b.c" <<'EOF'
int flip(int v) { return 0 - v; }
int idf(int z) { return z; }
EOF
python -m repro serve --socket "$tmpdir/mp.sock" \
    --listen 127.0.0.1:0 --workers 2 > "$tmpdir/mp_serve.log" 2>&1 &
mp_pid=$!
tries=0
until [ -s "$tmpdir/mp_serve.log" ]; do
    tries=$((tries + 1))
    test "$tries" -le 100 || {
        echo "process-mode daemon never announced" >&2
        cat "$tmpdir/mp_serve.log" >&2
        exit 1
    }
    sleep 0.1
done
mp_addr="$(python -c '
import json, sys
line = open(sys.argv[1]).readline()
print(json.loads(line)["listen"])
' "$tmpdir/mp_serve.log")"
python -m repro check "$tmpdir/mp_a.c" --format json > "$tmpdir/mp_a_local.json"
python -m repro check "$tmpdir/mp_b.c" --trust-constants --format json \
    > "$tmpdir/mp_b_local.json"
# two distinct-config checks in flight over TCP, against distinct workers
python -m repro check "$tmpdir/mp_a.c" --server "$mp_addr" --format json \
    > "$tmpdir/mp_a_served.json" &
mp_req_a=$!
python -m repro check "$tmpdir/mp_b.c" --trust-constants --server "$mp_addr" \
    --format json > "$tmpdir/mp_b_served.json" &
mp_req_b=$!
wait "$mp_req_a" "$mp_req_b"
python -c '
import json, sys


def strip(report):
    report.pop("elapsed", None)
    report.pop("incremental", None)
    for unit in report.get("units", ()):
        unit.pop("elapsed", None)
        detail = unit.get("detail", {})
        detail.pop("incremental", None)
        if "dataflow" in detail:
            detail["dataflow"]["totals"].pop("ms", None)
            for stats in detail["dataflow"]["functions"].values():
                stats.pop("ms", None)
    if isinstance(report.get("dataflow"), dict):
        report["dataflow"].pop("ms", None)
    return report


for served_path, local_path in (sys.argv[1:3], sys.argv[3:5]):
    served = strip(json.load(open(served_path)))
    local = strip(json.load(open(local_path)))
    assert served == local, f"served report drifted: {served_path}"
print("   2 concurrent TCP checks byte-identical to in-process")
' "$tmpdir/mp_a_served.json" "$tmpdir/mp_a_local.json" \
  "$tmpdir/mp_b_served.json" "$tmpdir/mp_b_local.json"
python -m repro serve --status --listen "$mp_addr" > "$tmpdir/mp_status1.json"
worker_pid="$(python -c '
import json, sys
status = json.load(open(sys.argv[1]))
assert status["workers"] == 2, status["workers"]
assert len(status["workspaces"]) == 2, len(status["workspaces"])
workers = [ws["worker"] for ws in status["workspaces"]]
assert all(w["alive"] for w in workers), workers
print(workers[0]["pid"])
' "$tmpdir/mp_status1.json")"
kill -9 "$worker_pid"
# the poisoned workspace respawns transparently; verdicts unchanged
python -m repro check "$tmpdir/mp_a.c" --server "$mp_addr" --format json \
    > "$tmpdir/mp_a_again.json"
python -m repro check "$tmpdir/mp_b.c" --trust-constants --server "$mp_addr" \
    --format json > "$tmpdir/mp_b_again.json"
python -m repro serve --status --listen "$mp_addr" > "$tmpdir/mp_status2.json"
python -c '
import json, sys
for path in sys.argv[1:3]:
    report = json.load(open(path))
    assert report["exit_code"] == 0, (path, report["exit_code"])
status = json.load(open(sys.argv[3]))
counters = status["counters"]
assert counters["workers_crashed"] >= 1, counters
assert counters["workers_spawned"] >= 3, counters
assert int(sys.argv[4]) not in [
    ws["worker"]["pid"] for ws in status["workspaces"] if ws["worker"]["alive"]
], "killed worker still listed alive"
crashed = counters["workers_crashed"]
spawned = counters["workers_spawned"]
print(f"   worker kill recovered: {crashed} crash(es), {spawned} spawn(s)")
' "$tmpdir/mp_a_again.json" "$tmpdir/mp_b_again.json" \
  "$tmpdir/mp_status2.json" "$worker_pid"
python -m repro serve --stop --listen "$mp_addr" > /dev/null
tries=0
while kill -0 "$mp_pid" 2> /dev/null; do
    tries=$((tries + 1))
    test "$tries" -le 100 || {
        echo "process-mode daemon did not shut down within 10s" >&2
        kill -9 "$mp_pid" 2> /dev/null || true
        exit 1
    }
    sleep 0.1
done
test ! -e "$tmpdir/mp.sock" || {
    echo "process-mode daemon left its socket file behind" >&2
    exit 1
}
echo "   process-mode daemon shut down cleanly, socket removed"

echo "ci_check: all stages passed"
