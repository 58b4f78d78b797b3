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
# Includes the worklist engine's legacy structured-walk goldens
# (tests/test_flow_sensitive.py) and the prover budget ablations
# (tests/test_soundness.py).
python -m pytest -x -q tests/

echo "== import layering: one-shot CLI runs load only their own layers"
# Byte-compile first, as the e2e benchmark does, so the import times
# printed below are those of a start with cached bytecode.
python -m compileall -q src/repro > /dev/null
python -X importtime -m repro check examples/nonnull.c \
    > /dev/null 2> "$tmpdir/import-check.txt"
python -X importtime -m repro prove --no-cache examples/posneg.qual \
    > /dev/null 2> "$tmpdir/import-prove.txt"
python -c '
import sys
sys.path.insert(0, "tests")
from test_import_layering import CHECK_FORBIDDEN, PROVE_FORBIDDEN, offenders


def self_times(path):
    # -X importtime lines: "import time: <self us> | <cumulative us> |
    # <module>".  The module set is checked; the times are only shown,
    # so the stage cannot flap on a noisy host.
    times = {}
    for line in open(path):
        if line.startswith("import time:") and "[us]" not in line:
            us, _, name = line[len("import time:"):].split("|")
            times[name.strip()] = int(us)
    return times


for path, ran, forbidden in (
    (sys.argv[1], "repro.cfront.parser", CHECK_FORBIDDEN),
    (sys.argv[2], "repro.prover.prover", PROVE_FORBIDDEN),
):
    times = self_times(path)
    loaded = set(times)
    assert ran in loaded, f"{path}: {ran} never loaded"
    bad = offenders(loaded, forbidden)
    assert not bad, f"{path}: loaded {bad}"
    print(f"   {len(loaded)} module(s), none of {len(forbidden)} forbidden")
    ours = {name: us for name, us in times.items() if name.startswith("repro")}
    top = sorted(ours.items(), key=lambda item: -item[1])[:5]
    print(
        f"   repro.* self import time {sum(ours.values()) / 1000:.1f} ms"
        f" over {len(ours)} module(s); largest: "
        + ", ".join(f"{name} {us / 1000:.1f}" for name, us in top)
    )
' "$tmpdir/import-check.txt" "$tmpdir/import-prove.txt"

echo "== repo benchmark self-tests (answers, span targets still bind)"
python -m pytest -q benchmarks/e2e

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

echo "== every examples/*.py script runs to completion (expect exit 0)"
for script in examples/*.py; do
    python "$script" > "$tmpdir/example.out" 2>&1 || {
        cat "$tmpdir/example.out"
        echo "   $script failed"
        exit 1
    }
    echo "   $script OK"
done

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

echo "== one prove path: --jobs 1 and --jobs 2 reports identical, sessions reused"
python -m repro prove examples/*.qual --keep-going --time-limit 30 \
    --no-cache --format json > "$tmpdir/jobs1.json"
python -m repro prove examples/*.qual --keep-going --time-limit 30 \
    --no-cache --jobs 2 --format json > "$tmpdir/jobs2.json"
python -c '
import json, re, sys


def untimed(node):
    """The report minus wall-clock figures: every "elapsed" and
    "timings" key, and the seconds printed in summary lines."""
    if isinstance(node, dict):
        return {k: untimed(v) for k, v in node.items()
                if k not in ("elapsed", "timings")}
    if isinstance(node, list):
        return [untimed(v) for v in node]
    if isinstance(node, str):
        return re.sub(r"[0-9.]+ m?s\b", "_", node)
    return node


serial, sharded = (json.load(open(p)) for p in sys.argv[1:3])
assert json.dumps(untimed(serial)) == json.dumps(untimed(sharded)), (
    "--jobs 2 report differs from --jobs 1"
)
obligations = sum(
    len(q["obligations"])
    for u in serial["units"] for q in u["detail"]["qualifiers"]
)
assert obligations, "no obligations proved"
reuse = serial["sessions"]["session_reuse"]
assert reuse > 0, serial["sessions"]
groups = serial["scheduler"]["groups"]
assert groups > 0 and serial["scheduler"]["obligations"] > 0, serial
print(f"   {obligations} obligation(s), reports identical at --jobs 1/2, "
      f"session_reuse={reuse}, groups={groups}")
' "$tmpdir/jobs1.json" "$tmpdir/jobs2.json"

echo "== conflict cores: no explain fallbacks, no perf regression"
python benchmarks/bench_prover.py --cold --quick --json \
    > "$tmpdir/cores-explain-1.json"
python benchmarks/bench_prover.py --cold --quick --json \
    > "$tmpdir/cores-explain-2.json"
python -c '
import json, sys
# Verdict identity against the ddmin reference is a tier-1 test
# (tests/test_prover_incremental.py, the first stage above).
runs = [json.load(open(p)) for p in sys.argv[1:3]]
explain = min(runs, key=lambda r: r["theory_ms"])  # best-of-2 vs noise
assert explain["verdicts"], "cold sweep discharged no obligations"
assert explain["explain_fallbacks"] == 0, (
    "explained cores failed verification: %r" % explain
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
print("   %d verdict(s), no explain fallbacks, "
      "theory_ms %.1f <= gate %.1f"
      % (len(explain["verdicts"]), measured, limit))
' "$tmpdir/cores-explain-1.json" "$tmpdir/cores-explain-2.json"

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
int idf(int z) {
  int w = z;
  return w;
}
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
int idf(int z) {
  int w = z + 0;
  return w;
}
EOF
python -m repro check "$tmpdir/serve_unit.c" \
    --server "$tmpdir/serve.sock" --format json > "$tmpdir/serve2.json"
# A second edit inside idf: the last reduced parse kept idf's tree, so
# only the touched statement is re-parsed and spliced in.
cat > "$tmpdir/serve_unit.c" <<'EOF'
int add1(int x) { return x + 1; }
int dbl(int y) { return y * 2; }
int idf(int z) {
  int pos w = z + 1;
  return w;
}
EOF
# Both checks report a warning (exit 1) for w's initializer.
python -m repro check "$tmpdir/serve_unit.c" \
    --server "$tmpdir/serve.sock" --format json > "$tmpdir/serve_splice.json" \
    || test $? -eq 1
python -m repro check "$tmpdir/serve_unit.c" --format json \
    > "$tmpdir/local_splice.json" || test $? -eq 1
# A signature edit: the reduced re-parse must fall back to a full one.
cat > "$tmpdir/serve_unit.c" <<'EOF'
int add1(int x) { return x + 1; }
int pos dbl(int y) { return y * 2; }
int idf(int z) {
  int pos w = z + 1;
  return w;
}
EOF
# Both checks report warnings (exit 1): dbl's return and w.
python -m repro check "$tmpdir/serve_unit.c" \
    --server "$tmpdir/serve.sock" --format json > "$tmpdir/serve3.json" \
    || test $? -eq 1
python -m repro check "$tmpdir/serve_unit.c" --format json \
    > "$tmpdir/local3.json" || test $? -eq 1
python -m repro serve --status --socket "$tmpdir/serve.sock" \
    > "$tmpdir/serve_status.json"
# A warm prove reports what a cold one does: prove a two-qualifier
# unit through the daemon, move one rule constant of neg, and prove it
# again.  pos's group is proved a second time on the warm workspace.
cp examples/posneg.qual "$tmpdir/serve_defs.qual"
python -m repro prove "$tmpdir/serve_defs.qual" --no-cache \
    --server "$tmpdir/serve.sock" --format json > "$tmpdir/serve_prove1.json"
sed -i "s/C, where C < 0/C, where C < -1/" "$tmpdir/serve_defs.qual"
grep -q "C < -1" "$tmpdir/serve_defs.qual"
python -m repro prove "$tmpdir/serve_defs.qual" --no-cache \
    --server "$tmpdir/serve.sock" --format json > "$tmpdir/serve_prove2.json"
python -m repro prove "$tmpdir/serve_defs.qual" --no-cache --format json \
    > "$tmpdir/local_prove2.json"
python -c '
import json, re, sys


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
        for entry in detail.get("qualifiers", ()):
            entry.pop("elapsed", None)
            entry["summary"] = re.sub(r"[0-9.]+ m?s\b", "_", entry["summary"])
            for obligation in entry["obligations"]:
                obligation.pop("elapsed", None)
    if isinstance(report.get("dataflow"), dict):
        report["dataflow"].pop("ms", None)
    return report


first, second, spliced, local_spliced, third, local, status = (
    json.load(open(path)) for path in sys.argv[1:8]
)
prove1, prove2, local_prove2 = (json.load(open(p)) for p in sys.argv[8:11])
for report in (first, second):
    assert report["schema_version"] == 1, report["schema_version"]
    assert report["exit_code"] == 0, report
    assert [u["verdict"] for u in report["units"]] == ["OK"], report["units"]
assert first["incremental"]["rechecked"] == 3, first["incremental"]
# the edit touched one function body: only it re-checked
assert second["incremental"]["rechecked"] == 1, second["incremental"]
assert second["incremental"]["replayed"] == 2, second["incremental"]
# the second edit inside idf spliced one statement: idf alone re-checked
assert spliced["incremental"]["rechecked"] == 1, spliced["incremental"]
assert [u["verdict"] for u in spliced["units"]] == ["WARNINGS"], spliced["units"]
assert strip(spliced) == strip(local_spliced), "spliced report drifted from one-shot"
# the signature edit changed the interface: everything re-checked
assert third["incremental"]["rechecked"] == 3, third["incremental"]
assert [u["verdict"] for u in third["units"]] == ["WARNINGS"], third["units"]
assert strip(third) == strip(local), "served report drifted from one-shot"
counters = status["workspaces"][0]["counters"]
assert counters["functions_replayed"] == 4, counters
assert counters["functions_checked"] == 8, counters
# the body edits took the reduced re-parse (the second one spliced),
# the signature edit fell back
assert counters["units_reparsed_partially"] == 2, counters
assert counters["bodies_spliced"] == 1, counters
assert counters["partial_fallbacks"] == 1, counters
assert status["counters"]["errors"] == 0, status["counters"]
print("   body edit: reduced re-parse, 1 function re-checked, 2 replayed")
print("   second body edit: statement splice, report identical to one-shot")
print("   signature edit: full re-parse, report identical to one-shot")
assert prove1["exit_code"] == prove2["exit_code"] == 0, (prove1, prove2)
assert prove2["sessions"]["sessions"] == 2, prove2["sessions"]
assert strip(prove2) == strip(local_prove2), "served re-prove drifted from one-shot"
print("   edited .qual re-proved warm: report identical to one-shot")
' "$tmpdir/serve1.json" "$tmpdir/serve2.json" "$tmpdir/serve_splice.json" \
  "$tmpdir/local_splice.json" "$tmpdir/serve3.json" "$tmpdir/local3.json" \
  "$tmpdir/serve_status.json" "$tmpdir/serve_prove1.json" \
  "$tmpdir/serve_prove2.json" "$tmpdir/local_prove2.json"
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
# the streamed path: a served --format jsonl run, line for line against
# the same command in process (a broken unit stops the run: the last
# unit is SKIPPED and never streamed)
cat > "$tmpdir/mp_warn.c" <<'EOF'
int pos dec(int x) { return x - 1; }
EOF
printf 'int f( { }\n' > "$tmpdir/mp_broken.c"
mp_units="$tmpdir/mp_a.c $tmpdir/mp_warn.c $tmpdir/mp_broken.c $tmpdir/mp_b.c"
served_exit=0
python -m repro check $mp_units --server "$mp_addr" --format jsonl \
    > "$tmpdir/mp_served.jsonl" || served_exit=$?
local_exit=0
python -m repro check $mp_units --format jsonl \
    > "$tmpdir/mp_local.jsonl" || local_exit=$?
python -c '
import json, sys


def strip(record):
    record.pop("elapsed", None)
    record.pop("incremental", None)
    detail = record.get("detail", {})
    detail.pop("incremental", None)
    if "dataflow" in detail:
        detail["dataflow"]["totals"].pop("ms", None)
        for stats in detail["dataflow"]["functions"].values():
            stats.pop("ms", None)
    if isinstance(record.get("dataflow"), dict):
        record["dataflow"].pop("ms", None)
    return record


served_exit, local_exit = int(sys.argv[3]), int(sys.argv[4])
assert served_exit == local_exit == 2, (served_exit, local_exit)
served = [strip(json.loads(line)) for line in open(sys.argv[1])]
local = [strip(json.loads(line)) for line in open(sys.argv[2])]
assert [r["record"] for r in served] == ["unit"] * 3 + ["summary"], served
assert len(served) == len(local), (len(served), len(local))
for number, (one, other) in enumerate(zip(served, local), 1):
    assert one == other, f"served jsonl line {number} drifted: {one} != {other}"
print(f"   served --format jsonl equals in-process ({len(served)} lines)")
' "$tmpdir/mp_served.jsonl" "$tmpdir/mp_local.jsonl" "$served_exit" "$local_exit"
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
