"""Self-tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import os
import shutil
import subprocess
import sys

import pytest

import inputs
import metrics
import run
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _tree(path):
    out = {}
    for base, _dirs, files in os.walk(path):
        for name in files:
            full = os.path.join(base, name)
            with open(full, "rb") as handle:
                out[os.path.relpath(full, path)] = handle.read()
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(tmp_path, workload):
    trees = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        inputs.make_inputs(workload, seed, str(tmp_path / name), 0.05)
        trees.append(_tree(tmp_path / name))
    first, again, other = trees
    assert first == again
    assert first != other


def _line_counts(segments_values):
    return [
        inputs.join_segments(segments, values).count("\n")
        for segments, values in segments_values
    ]


def test_check_edits_never_move_a_line(tmp_path):
    manifest = inputs.make_inputs("check_edit", 0, str(tmp_path), 0.2)
    for client in manifest["clients"]:
        files = [(f["segments"], list(f["values"])) for f in client["files"]]
        lines = _line_counts(files)
        for file_index, slot, value in client["edits"]:
            old = files[file_index][1][slot]
            assert value != old and len(value) == len(old)
            files[file_index][1][slot] = value
        assert _line_counts(files) == lines


def test_prove_edits_never_move_a_line(tmp_path):
    manifest = inputs.make_inputs("prove_edit", 0, str(tmp_path), 0.2)
    files = [(f["segments"], list(f["values"])) for f in manifest["library"]]
    lines = _line_counts(files)
    for file_index, slot, value in manifest["edits"]:
        assert value != files[file_index][1][slot]
        files[file_index][1][slot] = value
        text = inputs.join_segments(*files[file_index])
        assert "C != -" not in text
    assert _line_counts(files) == lines


def test_c_segments_round_trip_and_skip_strings_and_comments():
    text = (
        "int g = 7;\n"
        "/* 5 */\n"
        "int f(int x) {\n"
        '  printf("%d 42\\n", x); /* 9 */\n'
        "  return x * 31 + 0;\n"
        "}\n"
    )
    segments, values = inputs.c_segments(text)
    assert values == ["31"]
    assert inputs.join_segments(segments, values) == text


def test_percentile_needs_ten_samples_beyond_it():
    assert metrics.percentile(list(range(100)), 90) == 89
    assert metrics.percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        metrics.percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        metrics.percentile(list(range(19)), 50)


def test_self_time_of_a_synthetic_span_tree():
    # op(0..10) > api(1..9) > parse(2..4), lower(5..8) > cfg(6..7)
    tree = [
        (3, 2, 0, "cfront.parse", 2.0, 4.0),
        (5, 4, 0, "cil.cfg", 6.0, 7.0),
        (4, 2, 0, "cil.lower", 5.0, 8.0),
        (2, 1, 0, "api.check", 1.0, 9.0),
        (1, None, 0, "bench.op", 0.0, 10.0),
    ]
    own = spans.self_times(tree)
    assert own == {
        "bench.op": 2.0, "api.check": 3.0, "cfront.parse": 2.0,
        "cil.lower": 2.0, "cil.cfg": 1.0,
    }
    assert spans.layer_self_times(tree)["cil"] == 3.0
    assert sum(own.values()) == 10.0
    outer, calls = spans.outer_times(tree + [(6, 5, 0, "cil.cfg", 6.2, 6.8)])
    assert outer["cil.cfg"] == 1.0 and calls["cil.cfg"] == 2


def _bindings():
    """Every module-level binding of the program, and every attribute of
    the classes its modules define."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in vars(module).items():
                found[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        found[(name, key, attr)] = member
    return found


def test_trace_wrappers_restore_every_binding(tmp_path):
    from repro import api

    source = tmp_path / "unit.c"
    source.write_text("int f(int x) { return x + 1; }\n")
    request = api.CheckRequest(files=(str(source),))
    recorder = spans.Recorder()
    workloads.install_targets(recorder).restore()  # imports every target
    with api.Workspace() as ws:
        ws.check(request)  # settles lazily initialized module globals
    before = _bindings()

    patch = workloads.install_targets(recorder)
    try:
        assert api.parse_c is not before[("repro.api", "parse_c")]
        with api.Workspace() as ws:
            recorder.run_op(0, ws.check, request)
    finally:
        patch.restore()
    names = {span[3] for span in recorder.spans}
    assert {"bench.op", "api.check", "cfront.parse", "checker.check"} <= names

    after = _bindings()
    assert {key: after.get(key) for key in before} == before
    count = len(recorder.spans)
    with api.Workspace() as ws:
        ws.check(request)
    assert len(recorder.spans) == count  # an untraced run records nothing


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(HERE, "..", "..", "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "check_cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
