"""``tools/differential.py``'s comparison rule and oracle, on hand-made
records: no family runs and no process is spawned."""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("differential", ROOT / "tools" / "differential.py")
differential = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(differential)

STEP = 2.0**-24  # one fp32 step of a score in [0.5, 1)


def bits(*scores):
    return differential.pack(np.asarray(scores, dtype=np.float32))


def judge(monkeypatch, parent, change):
    """``--parent``'s exit status and report on these records."""
    sides = {"parent": (parent, []), "change": (change, [])}
    monkeypatch.setattr(
        differential, "run", lambda root: sides["change" if root == differential.ROOT else "parent"]
    )
    return differential.main(["--parent", "elsewhere"]), differential.compare(parent, change)


def test_equal_records_pass(monkeypatch):
    record = {"select/a/eselect": {"ids": "x", "oracle": True}}
    status, report = judge(monkeypatch, record, dict(record))
    assert status == 0
    assert report["equal"] == ["select/a/eselect"] and not report["differences"]


def test_changed_ids_are_a_difference(monkeypatch):
    status, report = judge(
        monkeypatch, {"equi_join/000": {"ids": "x"}}, {"equi_join/000": {"ids": "y"}}
    )
    assert status == 1 and report["differences"] == ["equi_join/000"]


def test_changed_scores_are_a_difference(monkeypatch):
    status, report = judge(
        monkeypatch,
        {"ejoin_keys/top1/auto/op02": {"ids": "x", "scores": "s"}},
        {"ejoin_keys/top1/auto/op02": {"ids": "x", "scores": "t"}},
    )
    assert status == 1 and report["differences"] == ["ejoin_keys/top1/auto/op02"]


def test_an_oracle_the_parent_missed_is_fixed(monkeypatch):
    case = "select/plain0/q0/topk/int8"
    status, report = judge(
        monkeypatch, {case: {"ids": "x", "oracle": False}}, {case: {"ids": "y", "oracle": True}}
    )
    assert status == 0 and report["fixed"] == [case]
    status, report = judge(
        monkeypatch, {case: {"ids": "x", "oracle": True}}, {case: {"ids": "y", "oracle": False}}
    )
    assert status == 1 and report["differences"] == [case]


def test_one_sided_cases_are_listed(monkeypatch, capsys):
    status, report = judge(
        monkeypatch,
        {"select/gone": {"ids": "x"}, "select/kept": {"ids": "k"}},
        {"select/kept": {"ids": "k"}, "select/added": {"ids": "y"}},
    )
    assert status == 0
    assert report["removed"] == ["select/gone"] and report["new"] == ["select/added"]
    printed = capsys.readouterr().out
    assert "removed: select/gone" in printed and "new: select/added" in printed


def caps_records(parent_truth, change_truth, parent_right, change_right, change_scores):
    """One top-k row of two pairs, scored on the caps on both sides."""
    def record(truth, right, scores):
        return {
            "ids": str(right), "scores": str(scores), "caps": 1,
            "pairs": [differential.pack(np.asarray(ids, np.int64)) for ids in ([0, 0], right)],
            "truth": differential.pack(np.asarray(truth, np.float64)), "floor": None,
            "bits": bits(*scores),
        }
    case = "scan_join/clustered0/topk/fp32/2t"
    return (
        {case: record(parent_truth, parent_right, (0.75, 0.5))},
        {case: record(change_truth, change_right, change_scores)},
    )


@pytest.mark.parametrize("steps, status", [(16, 0), (17, 1)])
def test_a_caps_score_moves_within_swap_tolerance(monkeypatch, steps, status):
    assert 16 * STEP == differential.SWAP_TOLERANCE
    parent, change = caps_records(
        [0.75, 0.5], [0.75, 0.5], [3, 5], [3, 5], (0.75, 0.5 + steps * STEP)
    )
    got, report = judge(monkeypatch, parent, change)
    assert got == status
    assert report["near" if status == 0 else "differences"] == list(change)


@pytest.mark.parametrize("gap, status", [(16 * STEP, 0), (17 * STEP, 1)])
def test_caps_pairs_trade_places_within_swap_tolerance(monkeypatch, gap, status):
    parent, change = caps_records(
        [0.75, 0.75 - gap], [0.75 - gap, 0.75], [3, 5], [5, 3], (0.5, 0.75)
    )
    assert judge(monkeypatch, parent, change)[0] == status


def test_near_is_only_for_gemm_shaped_families(monkeypatch):
    record = {"ids": "x", "scores": "s", "bits": bits(0.5)}
    moved = {"ids": "x", "scores": "t", "bits": bits(0.5 + STEP)}
    assert judge(monkeypatch, {"scan_join/plain0/thr/fp32/1t": record},
                 {"scan_join/plain0/thr/fp32/1t": moved})[0] == 0
    assert judge(monkeypatch, {"ejoin_keys/thr/auto/op03": record},
                 {"ejoin_keys/thr/auto/op03": moved})[0] == 1


def test_an_emit_complaint_sets_the_exit_status(monkeypatch, tmp_path):
    emitted = tmp_path / "records.json"
    for complaints, status in (([], 0), (["a: wrong"], 1)):
        family = lambda raw, why=complaints: ({"a": {"ids": "x"}}, why)  # noqa: E731
        monkeypatch.setattr(differential, "FAMILIES", {"fake": family})
        assert differential.main(["--emit", str(emitted)]) == status
        assert '"fake/a"' in emitted.read_text()


def test_a_top_k_tie_at_place_k_goes_to_the_smaller_id():
    scores = np.array([[0.9, 0.7, 0.5, 0.7]])
    meets = differential.meets_oracle
    zeros = np.zeros(2)
    assert meets(scores, {"top_k": 2}, zeros, [0, 1], differential.SWAP_TOLERANCE)
    assert not meets(scores, {"top_k": 2}, zeros, [0, 3], differential.SWAP_TOLERANCE)
    # An exact tie keeps its order even where near scores may swap.
    assert not meets(scores, {"top_k": 3}, np.zeros(3), [0, 3, 1], differential.SWAP_TOLERANCE)
    # A near score may swap places inside the top-k, never swap into it.
    scores[0, 3] -= STEP
    assert meets(scores, {"top_k": 3}, np.zeros(3), [0, 3, 1], differential.SWAP_TOLERANCE)
    assert not meets(scores, {"top_k": 2}, zeros, [0, 3], differential.SWAP_TOLERANCE)


def test_a_threshold_row_within_its_slack_is_tolerated():
    threshold = 0.5
    scores = np.array([[threshold - 5e-7, 0.2, 0.9, threshold - 2e-6]])
    meets = differential.meets_oracle
    cond = {"threshold": threshold}
    assert meets(scores, cond, np.zeros(1), [2])
    assert meets(scores, cond, np.zeros(2), [0, 2])
    assert not meets(scores, cond, np.zeros(2), [2, 3])  # 2e-6 under: clearly out
    assert not meets(scores, cond, np.zeros(1), [0])  # 0.9 missing
    assert not meets(scores, cond, np.zeros(2), [2, 0])  # not ascending


@pytest.mark.parametrize("own", [True, False])
def test_run_invokes_the_roots_own_script(monkeypatch, tmp_path, own):
    """``run(root)`` emits with ``root``'s own ``tools/differential.py``
    on ``root``'s ``src/`` (this file where the root has none)."""
    script = tmp_path / "tools" / "differential.py"
    if own:
        script.parent.mkdir()
        script.write_text("")
    calls = []

    def fake_run(argv, env, **kwargs):
        calls.append((argv, env["PYTHONPATH"]))
        Path(argv[argv.index("--emit") + 1]).write_text('{"a/b": {"ids": "x"}}')
        return SimpleNamespace(returncode=0, stderr="complaint: a/b\n")

    monkeypatch.setattr(differential.subprocess, "run", fake_run)
    records, complaints = differential.run(tmp_path)
    assert records == {"a/b": {"ids": "x"}} and complaints == ["complaint: a/b"]
    ((argv, path),) = calls
    assert argv[1] == str(script if own else ROOT / "tools" / "differential.py")
    assert path == str(tmp_path / "src")
