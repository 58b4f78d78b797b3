"""Golden-file snapshots of the ``--format json`` payloads.

The JSON report shape is a documented, versioned contract
(``schema_version`` in ``repro.api``): consumers parse it in CI and
scripts.  These tests freeze the *whole* payload for one check, one
infer, and one difftest invocation against golden files in
``tests/golden/``, after normalizing the volatile fields (timings,
tool version, absolute paths).  An accidental field rename, type
change, or dropped key fails the diff; an intentional schema change
must edit the golden file in the same commit — which is exactly the
review surface we want.

To regenerate after an intentional change::

    python tests/test_json_schema_golden.py --regenerate
"""

import json
import os
import sys

import pytest

from repro import api

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
GOLDEN_DIR = os.path.join(HERE, "golden")


def _normalize(obj, base_dir):
    """Zero out timings, stamp-stable the version, relativize paths."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if key in ("elapsed", "ms"):
                out[key] = 0.0
            elif key.endswith("_ms") or key.endswith(".ms"):
                # timings-block values ("total_ms", "prover.sat_ms",
                # "dataflow.ms", ...) are wall-clock; shape is golden,
                # magnitude is not.
                out[key] = 0.0
            elif key == "version":
                out[key] = "X.Y.Z"
            else:
                out[key] = _normalize(value, base_dir)
        return out
    if isinstance(obj, list):
        return [_normalize(v, base_dir) for v in obj]
    if isinstance(obj, str) and base_dir in obj:
        return obj.replace(base_dir, "<repo>")
    return obj


def _payloads():
    """(name, payload) for each snapshotted command, deterministic."""
    # Each command runs on a fresh one-shot workspace, as the CLI does.
    # profile=True freezes the additive `timings` block too (counts
    # are deterministic; the millisecond values are normalized away).
    with api.Workspace(incremental=False) as ws:
        check = ws.check(
            api.CheckRequest(
                files=(os.path.join(REPO, "examples", "nonnull.c"),),
                flow_sensitive=True,
                profile=True,
            )
        )
    with api.Workspace(incremental=False) as ws:
        infer = ws.infer(
            api.InferRequest(
                files=(os.path.join(REPO, "examples", "lcm.c"),),
                qualifier="pos",
            )
        )
    with api.Workspace(incremental=False) as ws:
        difftest = ws.difftest(
            api.DifftestRequest(seed=0, count=3, time_limit=10.0)
        )
    return [
        ("check", check.to_dict()),
        ("infer", infer.to_dict()),
        ("difftest", difftest.to_dict()),
    ]


@pytest.mark.parametrize("name", ["check", "infer", "difftest"])
def test_json_payload_matches_golden(name):
    payload = dict(_payloads())[name]
    normalized = _normalize(payload, REPO)
    golden_path = os.path.join(GOLDEN_DIR, f"{name}.json")
    with open(golden_path, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    assert normalized == golden, (
        f"{name} JSON payload changed; if intentional, regenerate with "
        f"`python tests/test_json_schema_golden.py --regenerate`"
    )


def _regenerate():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, payload in _payloads():
        path = os.path.join(GOLDEN_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                _normalize(payload, REPO), handle, indent=2, sort_keys=True
            )
            handle.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
