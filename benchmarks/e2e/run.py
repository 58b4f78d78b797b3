"""End-to-end benchmark of the qualifier checker and soundness prover.

    python benchmarks/e2e/run.py [--workload W ...] [--seed N] [--seconds S]
                                 [--runs K] [--trace [0|1]] [--trace-out PATH]
                                 [--smoke]

The parent process generates every input from ``--seed`` (see
``inputs.py``), then starts a fresh child process per run (``run.py
--child W DIR``) that imports ``repro``, warms up, runs one closed loop
for ``S`` seconds, checks every answer and prints one JSON line.  The
parent prints each metric by name and unit, one block per workload, with the
median and quartiles across runs, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  It exits 1 when an
operation failed and 2 when it cannot run at all (for instance when
the checkout has no ``src/repro``).

``--trace`` replaces the end-to-end metrics with per-layer ones: the
child replays its operations with every layer boundary wrapped in a
span and writes the spans to ``--trace-out``.  See README.md.
"""

import time

_T0 = time.perf_counter()  # a child's setup_s counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".e2e-bench")

WORKLOADS = ("check_cold", "check_edit", "prove_cold", "prove_edit")

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_per_s": "ops/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "in_bound_frac": "frac",
    "peak_rss_mb": "MB",
}
#: Printed in the table but not part of the result line: failures are
#: already its ``failed``/``attempted`` keys, and a metric that is 0 on
#: every good run cannot carry a relative regression bound.
TABLE_ONLY = {"failed_frac": "frac", "samples": "ops"}

DEFAULT_SECONDS = 25
SETUP_SAMPLES = 3        # setup_s is the median of this many fresh starts
SMOKE_SCALE = 0.05
SMOKE_SECONDS = 2
#: One run, with every child it starts, ends within this many seconds;
#: a child still running then is killed with its process group.
RUN_BUDGET_S = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)."
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--child", nargs=2, metavar=("WORKLOAD", "DIR"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------------------ child


def _import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise ImportError(f"repro imported from {where}, not from {SRC}")


def _child(args) -> int:
    _import_program()
    import workloads

    workload, in_dir = args.child
    with open(os.path.join(in_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    run_dir = os.path.join(in_dir, f"run-{os.getpid()}")
    os.makedirs(run_dir)
    if workload == "check_edit":
        w = workloads.CheckEdit(manifest, in_dir, run_dir, ROOT, dict(os.environ))
    else:
        w = workloads.WORKLOAD_CLASSES[workload](manifest, in_dir, run_dir)
    try:
        w.start()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            out = {"setup_s": setup_s}
        elif args.trace:
            out = _child_traced(args, workload, w, workloads)
        else:
            out = _child_timed(args, workload, w, workloads)
            out["setup_s"] = setup_s
    finally:
        w.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def _min_ops(args, workloads) -> int:
    return 0 if args.smoke else workloads.MIN_OPS


def _child_timed(args, workload, w, workloads) -> dict:
    from metrics import latency_summary

    if workload == "check_edit":
        records, wall = w.run_served(args.seconds, _min_ops(args, workloads),
                                     measure_serve=False)
    else:
        records, wall = workloads.closed_loop(
            w, args.seconds, _min_ops(args, workloads)
        )
    peak = w.peak_rss_mb()
    failed = sum(record.failed for record in records) + w.verify()
    attempted = len(records)
    out = {
        "attempted": attempted,
        "failed": min(failed, attempted),
        "throughput_ops_per_s": attempted / wall,
        "in_bound_frac": sum(r.in_bound and not r.failed for r in records)
        / attempted,
        "peak_rss_mb": peak,
        "problems": w.problems,
    }
    out.update(latency_summary([r.latency for r in records], smoke=args.smoke))
    return out


def _child_traced(args, workload, w, workloads) -> dict:
    """A timed pass, then the same operations replayed twice from a
    fresh start: untraced, then traced.  The two replays differ only in
    the spans, so their wall times give the tracing overhead.  check_edit
    first measures the daemon from the client side for half the time,
    then replays its edits in-process to split the pipeline by layer."""
    share = args.seconds / 3.0
    serve = {}
    problems = []
    failed = attempted = 0
    if workload == "check_edit":
        served, _ = w.run_served(args.seconds / 2.0, 0, measure_serve=True)
        serve = w.serve_metrics()
        failed = sum(r.failed for r in served) + w.verify()
        attempted = len(served)
        problems = w.problems
        w.close()
        w = workloads.EditReplay(w.manifest, w.in_dir, w.run_dir)
        w.start()
        share = args.seconds / 6.0
    recorder = workloads.spans.Recorder()
    try:
        first, _ = workloads.closed_loop(w, share, 0)
        plain, plain_wall, _ = workloads.replay(w, len(first))
        traced, traced_wall, counts = workloads.replay(w, len(first), recorder)
        failed += sum(r.failed for r in first + plain + traced) + w.verify()
        attempted += len(first) + len(plain) + len(traced)
    finally:
        w.close()
    per_layer = workloads.layer_metrics(
        recorder, len(traced), traced_wall, {**counts, **serve}
    )
    per_layer["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    trace_out = args.trace_out or os.path.join(
        WORK, f"trace-{workload}-seed{args.seed}.json"
    )
    workloads.write_trace(trace_out, workload, args.seed, recorder, per_layer,
                          traced_wall)
    return {
        "attempted": attempted,
        "failed": min(failed, attempted),
        "per_layer": per_layer,
        "trace_out": trace_out,
        "problems": problems + w.problems,
    }


# ----------------------------------------------------------------- parent


def _child_env(in_dir: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = in_dir
    return env


def _spawn(argv, in_dir: str, deadline: float) -> dict:
    """Run one child in its own process group; past ``deadline`` (a
    ``time.monotonic`` value) the whole group — the child and any
    daemon it started — is killed."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), *argv],
        cwd=ROOT, env=_child_env(in_dir), stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"child {argv[:3]} timed out after {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {argv[:3]} exited {proc.returncode}")
    return json.loads(lines[-1])


def _one_run(args, workload: str, in_dir: str, deadline: float) -> dict:
    base = ["--child", workload, in_dir, "--seconds", str(args.seconds)]
    if args.smoke:
        base.append("--smoke")
    if args.trace:
        extra = ["--trace", "1", "--seed", str(args.seed)]
        if args.trace_out:
            extra += ["--trace-out", args.trace_out]
        return _spawn(base + extra, in_dir, deadline)
    out = _spawn(base, in_dir, deadline)
    setups = [out["setup_s"]]
    for _ in range(0 if args.smoke else SETUP_SAMPLES - 1):
        setups.append(
            _spawn(base + ["--setup-only"], in_dir, deadline)["setup_s"]
        )
    out["setup_s"] = statistics.median(setups)
    out["setup_samples"] = setups
    out["failed_frac"] = out["failed"] / out["attempted"]
    return out


def _compile_program() -> None:
    """Byte-compile ``src`` once so no timed start pays for it."""
    import compileall

    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)


def _units(args) -> dict:
    if args.trace:
        from workloads import PER_LAYER_UNITS

        return PER_LAYER_UNITS
    return {**END_TO_END, **TABLE_ONLY}


def _report(args, results) -> dict:
    """Print the table; return the result-line metrics."""
    from metrics import spread

    units = _units(args)
    metrics = {}
    print(f"{'workload':<11} {'metric':<30} {'median':>12} {'q1':>12} "
          f"{'q3':>12}  unit")
    for workload, runs in results.items():
        for name, unit in units.items():
            key = "per_layer" if args.trace else None
            values = [(run[key] if key else run).get(name) for run in runs]
            if any(value is None for value in values):
                print(f"{workload:<11} {name:<30} {'-':>12}")
                continue
            s = spread(values)
            print(f"{workload:<11} {name:<30} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g}  {unit}")
            if args.trace or name in END_TO_END:
                label = name if len(results) == 1 else f"{workload}.{name}"
                metrics[label] = {"value": s["median"], "unit": unit}
        for run in runs:
            for problem in run.get("problems", ())[:5]:
                print(f"{workload:<11} problem: {problem}")
            if run.get("trace_out"):
                print(f"{workload:<11} trace: {run['trace_out']}")
    return metrics


def _check_smoke_shape(results) -> list:
    wrong = []
    for workload, runs in results.items():
        for run in runs:
            for name in list(END_TO_END) + list(TABLE_ONLY):
                value = run.get(name)
                if name.startswith("latency_ms_") and value is None:
                    continue  # too few samples for the percentile rule
                if not isinstance(value, (int, float)):
                    wrong.append(f"{workload}: {name} = {value!r}")
            if run.get("failed_frac") != 0:
                wrong.append(f"{workload}: failed_frac = {run.get('failed_frac')}")
    return wrong


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        if args.seconds is None:
            args.seconds = DEFAULT_SECONDS
        return _child(args)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to benchmark: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.runs < 1:
        print("error: --runs must be at least 1", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    _import_program()
    import inputs
    import workloads

    _compile_program()
    scale = SMOKE_SCALE if args.smoke else 1.0
    results = {}
    for workload in args.workload or WORKLOADS:
        in_dir = os.path.join(WORK, f"{os.getpid()}-{workload}")
        shutil.rmtree(in_dir, ignore_errors=True)
        try:
            inputs.make_inputs(workload, args.seed, in_dir, scale)
            results[workload] = [
                _one_run(args, workload, in_dir,
                         time.monotonic() + RUN_BUDGET_S)
                for _ in range(args.runs)
            ]
        except (RuntimeError, OSError, ValueError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(in_dir, ignore_errors=True)
    metrics = _report(args, results)
    attempted = sum(run["attempted"] for runs in results.values() for run in runs)
    failed = sum(run["failed"] for runs in results.values() for run in runs)
    if args.smoke and not args.trace:
        wrong = _check_smoke_shape(results)
        for line in wrong:
            print(f"smoke: {line}", file=sys.stderr)
        failed = max(failed, len(wrong))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
