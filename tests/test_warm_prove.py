"""A warm prove reports what a cold one does.

Each qualifier group proves with a prover session of its own, so no
solver state outlives a group: an edit-then-re-prove on a warm
workspace, in process or served, prints the same summaries (conflict
counts included) and the same ``sessions`` block as a one-shot prove
of the edited file.  The unit holds two qualifiers and the edit touches
only one, so the untouched qualifier's group is proved again on a
workspace that has proved it before.
"""

import json

import pytest

from repro import api
from repro.serve import connect
from tests.test_serve import daemon  # noqa: F401  (fixture)
from tests.test_serve_multiproc import procdaemon  # noqa: F401  (fixture)
from tests.test_shard import _scrub

TWO_QUALIFIERS = """
value qualifier nn2(int Expr E)
  case E of
      decl int Const C:
        C, where C >= 0
    | decl int Expr E1, E2:
        E1 + E2, where nn2(E1) && nn2(E2)
  invariant value(E) >= 0

value qualifier pp2(int Expr E)
  case E of
      decl int Const C:
        C, where C >= {k}
    | decl int Expr E1, E2:
        E1 + E2, where pp2(E1) && pp2(E2)
  invariant value(E) >= 1
"""


def _untimed(report: dict) -> str:
    """The report minus timings and incremental bookkeeping."""
    report = _scrub(report)
    report.pop("timings", None)
    report.pop("incremental", None)
    for unit in report["units"]:
        unit["detail"].pop("incremental", None)
    return json.dumps(report, sort_keys=True)


def _one_shot(path: str, jobs: int) -> str:
    with api.Workspace(incremental=False) as ws:
        return _untimed(
            ws.prove(
                api.ProveRequest(files=(path,), cache=False, jobs=jobs)
            ).to_dict()
        )


@pytest.fixture
def qual_path(tmp_path):
    path = tmp_path / "two.qual"
    path.write_text(TWO_QUALIFIERS.format(k=1))
    return path


def _edit(path) -> None:
    path.write_text(TWO_QUALIFIERS.format(k=2))


@pytest.mark.parametrize("jobs", [1, 2])
def test_in_process_edit_reproves_like_one_shot(qual_path, jobs):
    request = api.ProveRequest(files=(str(qual_path),), cache=False, jobs=jobs)
    with api.Workspace(incremental=True) as ws:
        first = ws.prove(request).to_dict()
        assert first["exit_code"] == 0, first
        _edit(qual_path)
        warm = _untimed(ws.prove(request).to_dict())
    assert warm == _one_shot(str(qual_path), jobs)


def _served_edit_matches_one_shot(sock, qual_path) -> None:
    params = {"files": [str(qual_path)], "cache": False}
    with connect(sock) as client:
        first = client.request("prove", params)["report"]
        assert first["exit_code"] == 0, first
        _edit(qual_path)
        warm = _untimed(client.request("prove", params)["report"])
    assert warm == _one_shot(str(qual_path), 1)


def test_thread_daemon_edit_reproves_like_one_shot(daemon, qual_path):
    _served_edit_matches_one_shot(daemon[0], qual_path)


def test_process_daemon_edit_reproves_like_one_shot(procdaemon, qual_path):
    _served_edit_matches_one_shot(procdaemon[0], qual_path)
