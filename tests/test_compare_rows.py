"""The row comparison of tools/compare_rows.py, on two hand-made output files."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import compare_rows  # noqa: E402  (lives in tools/, next to the bench_pairs it imports)
from skewcmv.cli import TASKS, config_from_doc  # noqa: E402


def write_rows(path: Path, rows: list) -> Path:
    path.write_text(json.dumps({"config": {"task": "localize"}, "rows": rows}, indent=1))
    return path


BASE = [
    {"eig_re": 0.5, "eig_im": -2.0, "L_ref": 0.25, "localized_flag": 1, "parity": "ee"},
    {"eig_re": 1e-3, "eig_im": 4.0, "L_ref": 3.0, "localized_flag": 0, "parity": "oo"},
]


def test_identical_files(tmp_path):
    r = compare_rows.compare_files(write_rows(tmp_path / "b.json", BASE), write_rows(tmp_path / "c.json", BASE))
    assert r["identical"] is True and r["rows"] == [2, 2]
    assert r["float_moves"] == {"eig_re": 0.0, "eig_im": 0.0, "L_ref": 0.0} and r["changed"] == {}


def test_moves_are_relative_to_max_one_and_the_base(tmp_path):
    change = json.loads(json.dumps(BASE))
    change[0]["eig_re"] = 0.5 + 2**-40  # |ref| < 1: the move is absolute
    change[1]["eig_im"] = 4.0 + 2**-38  # |ref| = 4: the move is divided by 4
    change[1]["L_ref"] = 3.0 + 3e-6
    change[0]["localized_flag"] = 0
    change[1]["parity"] = "oe"
    r = compare_rows.compare_files(write_rows(tmp_path / "b.json", BASE), write_rows(tmp_path / "c.json", change))
    assert r["identical"] is False
    assert r["float_moves"]["eig_re"] == 2**-40
    assert r["float_moves"]["eig_im"] == 2**-40
    assert r["float_moves"]["L_ref"] == pytest.approx(1e-6, rel=1e-9)
    assert r["changed"] == {"localized_flag": 1, "parity": 1}


def test_merge_over_seeds_keeps_the_worst_move_and_sums_changes():
    change = json.loads(json.dumps(BASE))
    change[1]["localized_flag"] = 1
    change[0]["L_ref"] = 0.25 + 2**-30
    results = [compare_rows.compare_rows(BASE, BASE), compare_rows.compare_rows(BASE, change),
               compare_rows.compare_rows(BASE, change)]
    m = compare_rows.merge(results)
    assert (m["identical"], m["seeds"]) == (1, 3)
    assert m["float_moves"]["L_ref"] == 2**-30 and m["float_moves"]["eig_re"] == 0.0
    assert m["changed"] == {"localized_flag": 2}


def test_row_count_is_reported():
    r = compare_rows.compare_rows(BASE, BASE[:1])
    assert r["rows"] == [2, 1] and r["identical"] is False


def call_task(call) -> str:
    """The task a CLI call runs: its task argument, which overrides its config's, else its config's."""
    return call.args[0] if call.args and call.args[0] in TASKS else call.doc["task"]


def test_tasks_group_covers_the_tasks_no_workload_runs():
    assert set(compare_rows.GROUPS) == set(compare_rows.workloads.WORKLOADS) | {"tasks"}
    run = {call_task(call) for group in compare_rows.GROUPS.values() for call in group.calls(3)}
    assert run == set(TASKS)
    calls = compare_rows.GROUPS["tasks"].calls(3)
    assert len({c.label for c in calls}) == len(calls)
    for call in calls:
        doc = json.loads(json.dumps(call.doc))
        doc["sampling"]["rng_seed"] = 3  # as the call's --seed sets it
        cfg = config_from_doc(doc)
        assert cfg.task == call.doc["task"] and cfg.sampling.rng_seed == 3


def test_tasks_group_is_selectable(monkeypatch, capsys):
    # one seed, no export and no CLI runs: each call reports an exit status of 1 on both sides
    ran = []
    monkeypatch.setattr(compare_rows, "SEEDS", range(1))
    monkeypatch.setattr(compare_rows, "export_revision", lambda rev, root: rev)
    monkeypatch.setattr(compare_rows, "run_call", lambda root, call, out, workdir, threads: ran.append(call.label) or 1)
    assert compare_rows.main(["--base", "HEAD", "--workload", "tasks"]) == 0
    labels = [c.label for c in compare_rows.GROUPS["tasks"].calls(0)]
    assert ran == [label for label in labels for _side in ("base", "change")]
    assert "tasks ldt seed 0: exit status 1 (base), 1 (change)" in capsys.readouterr().out
