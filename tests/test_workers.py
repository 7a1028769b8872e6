"""`--threads` runs on forked worker processes and changes speed only.

A sweep whose cells each take one phase tile splits its cells over the workers;
any other run deals each estimate's phase tiles to them (lyapunov._u_values).  Rows must be
byte-identical at every worker count, a failing cell must fail as it does at
--threads 1, and no worker may outlive the call that started it.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewcmv.cli
import skewcmv.lyapunov
from skewcmv.cli import ConfigError, main
from skewcmv.lyapunov import PHASE_TILE, _fork_map, _phase_workers, _u_values
from schemes import make_scheme

SCHEME_DOC = {
    "coefficients": [[1, 0, 0.5, 0.0], [0, 1, 0.3, 0.2]],
    "lambda": 0.9,
    "omega": 0.6180339887498949,
    "base_x": 0.1,
    "base_y": 0.2,
}
GRID = {"mode": "grid", "grid_side": 6}
# 1500 phases: more than one tile, and not a multiple of PHASE_TILE
MC_1500 = {"mode": "monte-carlo", "sample_count": 1500, "rng_seed": 4}


@pytest.fixture(autouse=True)
def no_worker_left():
    """After every test this process has no child, reaped or not."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cli_rows(tmp_path, doc, threads) -> bytes:
    """The CSV rows the CLI writes for `doc` at `--threads threads`."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps(doc))
    out.unlink(missing_ok=True)
    assert main(["--config", str(cfg), "--out", str(out), "--threads", str(threads)]) == 0
    return out.read_bytes()


CASES = {
    # S = 1500 is not a multiple of PHASE_TILE; z on and off the unit circle
    "lyapunov": ({"n": 70, "z_list": [[0.6, 0.8], [1.2, 0.3], [0.0, -1.0]]}, MC_1500),
    "ldt": ({"n_list": [30, 70], "threshold_factors": [0.1, 0.5]}, MC_1500),
    "multiscale": ({"n": 6, "N": 40, "z": [0.8, 0.1]}, GRID),
    # uniform-bound samples its own 40 x 40 grid: two tiles
    "uniform-bound": ({"n0": 10, "N": 70, "grid_side": 40}, None),
    # 36 phases: one small tile per worker
    "positivity": ({"n": 70, "z": [0.6, 0.8]}, GRID),
    "localize": ({"size": 64}, GRID),
}


@pytest.mark.parametrize("task", sorted(CASES))
def test_rows_are_byte_identical_at_any_thread_count(tmp_path, task):
    params, plan = CASES[task]
    doc = {"task": task, "scheme": SCHEME_DOC, "params": params, "sampling": plan or {"rng_seed": 3}}
    one = cli_rows(tmp_path, doc, 1)
    assert one.count(b"\n") > 1
    for threads in (2, 3):
        assert cli_rows(tmp_path, doc, threads) == one


@pytest.mark.parametrize(
    "plan",
    [{"mode": "grid", "grid_side": 1}, {"mode": "grid", "grid_side": 32}, MC_1500],
    ids=["one phase", "one whole tile", "two tiles"],
)
def test_sweep_rows_are_byte_identical_at_any_thread_count(tmp_path, plan):
    # two cells: more workers than cells at --threads 3
    doc = {"task": "lyapunov", "scheme": SCHEME_DOC, "params": {"n": 70, "z_circle": 2}, "sampling": plan,
           "sweep": {"axes": [{"parameter": "lambda", "values": [0.5, 0.9]}]}}
    one = cli_rows(tmp_path, doc, 1)
    for threads in (2, 3):
        assert cli_rows(tmp_path, doc, threads) == one


def assert_sweep_splits(monkeypatch, doc, cell_workers, phase_workers):
    """A 3-thread sweep of `doc` hands its cells to `cell_workers` workers, and each estimate's
    phases to `phase_workers`; None means no estimate reaches the phase map."""
    calls = {"cells": [], "phases": []}

    def recorded(kind, fork_map):
        return lambda fn, items, workers: calls[kind].append(workers) or fork_map(fn, items, workers)

    monkeypatch.setattr(skewcmv.cli, "_fork_map", recorded("cells", _fork_map))
    monkeypatch.setattr(skewcmv.lyapunov, "_fork_map", recorded("phases", _fork_map))
    skewcmv.cli.run_sweep(doc, doc["sweep"]["axes"], threads=3)
    # this process runs the first block of cells, so it records that block's estimates
    assert calls["cells"] == [cell_workers]
    if phase_workers is None:
        assert calls["phases"] == []
    else:
        assert calls["phases"] and set(calls["phases"]) == {phase_workers}


LAMBDAS = {"parameter": "lambda", "values": [0.3, 0.5, 0.7, 0.9]}


@pytest.mark.parametrize("plan, cell_workers, phase_workers", [(GRID, 3, 1), (MC_1500, 1, 3)])
def test_a_sweep_splits_its_cells_or_their_phases_never_both(monkeypatch, plan, cell_workers, phase_workers):
    doc = {"task": "lyapunov", "scheme": SCHEME_DOC, "params": {"n": 10}, "sampling": plan,
           "sweep": {"axes": [LAMBDAS]}}
    assert_sweep_splits(monkeypatch, doc, cell_workers, phase_workers)


@pytest.mark.parametrize(
    "doc, cell_workers, phase_workers",
    [
        # uniform-bound samples its own grid: 32**2 phases are one whole tile, 33**2 are more
        ({"task": "uniform-bound", "scheme": SCHEME_DOC, "params": {"n0": 5, "N": 20, "grid_side": 32},
          "sweep": {"axes": [LAMBDAS]}}, 3, 1),
        ({"task": "uniform-bound", "scheme": SCHEME_DOC, "params": {"n0": 5, "N": 20, "grid_side": 33},
          "sweep": {"axes": [LAMBDAS]}}, 1, 3),
        # a task with no phases splits its cells and never reaches the phase map
        ({"task": "dio-check", "params": {"omega": 0.3, "horizon": 100},
          "sweep": {"axes": [{"parameter": "epsilon", "values": [0.1, 0.2, 0.3, 0.4]}]}}, 3, None),
    ],
    ids=["uniform-bound one tile", "uniform-bound two tiles", "dio-check"],
)
def test_a_sweep_counts_the_phases_a_task_takes(monkeypatch, doc, cell_workers, phase_workers):
    assert_sweep_splits(monkeypatch, doc, cell_workers, phase_workers)


def run_failing_sweep(tmp_path, monkeypatch, threads) -> str:
    """The message of the error a five-cell sweep raises when its cells 2 and 4 fail."""
    estimate = skewcmv.cli.estimate_Ln

    def failing(s, z, n, cfg):
        if s.coupling == 0.5:
            raise ValueError(f"cell with seed {cfg.rng_seed} failed")
        return estimate(s, z, n, cfg)

    monkeypatch.setattr(skewcmv.cli, "estimate_Ln", failing)
    doc = {"task": "lyapunov", "scheme": SCHEME_DOC, "params": {"n": 10}, "sampling": GRID,
           "sweep": {"axes": [{"parameter": "lambda", "values": [0.3, 0.4, 0.5, 0.7, 0.5]}]}}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="^cell with seed") as exc:
        main(["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o.csv"), "--threads", str(threads)])
    assert not (tmp_path / "o.csv").exists()
    return str(exc.value)


@pytest.mark.parametrize("threads", [2, 3])
def test_a_failing_cell_raises_as_at_one_thread(tmp_path, monkeypatch, threads):
    # cell 2 runs in a worker at 2 and at 3 threads, and cell 4 in another at 3
    assert run_failing_sweep(tmp_path, monkeypatch, threads) == run_failing_sweep(tmp_path, monkeypatch, 1)


@pytest.mark.parametrize("threads", [1, 3])
def test_a_config_error_in_a_worker_exits_with_status_2(tmp_path, capsys, threads):
    # block 10000 overflows mu_floor, which avalanche finds only when its cell runs
    doc = {"task": "avalanche", "scheme": SCHEME_DOC, "params": {"mode": "cocycle", "count": 10},
           "sweep": {"axes": [{"parameter": "block", "values": [20, 10000, 30]}]}}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o.csv"), "--threads", str(threads)])
    assert exc.value.code == 2
    assert "params.block: mu_floor" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failing_phase_range_raises_as_at_one_thread(tmp_path, monkeypatch, threads):
    # only the phases with x > 0.9 fail; at 2 threads they lie in the worker's tile
    orbit = skewcmv.lyapunov.verblunsky_orbit_batch

    def failing(s, n, phases, start=0):
        if np.any(phases[:, 0] > 0.9):
            raise ValueError("phase x > 0.9")
        return orbit(s, n, phases, start=start)

    monkeypatch.setattr(skewcmv.lyapunov, "verblunsky_orbit_batch", failing)
    doc = {"task": "lyapunov", "scheme": SCHEME_DOC, "params": {"n": 10}, "sampling": GRID}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"^phase x > 0\.9$"):
        main(["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o.csv"), "--threads", str(threads)])


@settings(max_examples=25, deadline=None)
@given(S=st.integers(1, 3 * PHASE_TILE + 1), k=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_u_values_cuts_its_phases_once_into_equal_tiles(S, k, seed):
    s = make_scheme({(1, 0): 0.5, (0, 1): 0.3 + 0.2j}, 0.9, 0.6180339887498949, base=(0.1, 0.2))
    phases = np.random.default_rng(seed).random((S, 2))
    z, ns = np.array([0.6 + 0.8j, 1.2 + 0.3j]), [3, 5]
    serial = _u_values(s, z, ns, phases)
    dealt = []

    def recorded(fn, items, workers):
        items = list(items)
        dealt.append((items, workers))
        return _fork_map(fn, items, workers)

    with pytest.MonkeyPatch.context() as mp, _phase_workers(k):
        mp.setattr(skewcmv.lyapunov, "_fork_map", recorded)
        assert _u_values(s, z, ns, phases).tobytes() == serial.tobytes()
    [(tiles, workers)] = dealt
    sizes = [len(tile) for tile in tiles]
    assert workers == min(k, S)
    assert max(sizes) <= PHASE_TILE and max(sizes) - min(sizes) <= 1
    # a multiple of the workers, and one block of them fewer would hold too many phases
    assert len(tiles) % workers == 0 and S > (len(tiles) - workers) * PHASE_TILE
    assert np.array_equal(np.concatenate(tiles), phases)


def test_off_linux_the_workers_run_in_this_process(tmp_path, monkeypatch):
    doc = {"task": "lyapunov", "scheme": SCHEME_DOC, "params": {"n": 70}, "sampling": MC_1500}
    one = cli_rows(tmp_path, doc, 1)
    monkeypatch.setattr(skewcmv.lyapunov, "_FORK_SAFE", False)
    monkeypatch.setattr(os, "fork", None)  # never called
    assert _fork_map(lambda x: os.getpid(), range(4), 2) == [os.getpid()] * 4
    assert cli_rows(tmp_path, doc, 2) == one


class TestForkMap:
    def test_contiguous_blocks_in_order_the_first_here(self):
        pids = _fork_map(lambda x: (x, os.getpid()), range(7), 3)
        assert [x for x, _ in pids] == list(range(7))
        blocks = [[p for x, p in pids if x in block] for block in ([0, 1], [2, 3], [4, 5, 6])]
        assert [set(b) for b in blocks] == [{os.getpid()}, {blocks[1][0]}, {blocks[2][0]}]
        assert len({b[0] for b in blocks}) == 3

    def test_more_workers_than_items(self):
        assert _fork_map(lambda x: x * x, range(2), 5) == [0, 1]
        assert _fork_map(lambda x: x, [], 3) == []

    def test_large_results_come_back_whole(self):
        # more than a pipe's buffer from each worker
        parts = _fork_map(lambda k: np.full(200_000, float(k)), range(3), 3)
        assert all(np.array_equal(p, np.full(200_000, float(k))) for k, p in enumerate(parts))

    def test_first_failing_item_is_raised(self):
        def fn(x):
            if x in (3, 5):
                raise KeyError(x)
            return x

        with pytest.raises(KeyError, match="3"):
            _fork_map(fn, range(6), 3)

    def test_failure_here_stops_the_workers(self):
        def fn(x):
            if x == 0:
                raise ConfigError("params.n: first item")
            return np.zeros(10**6)  # a worker blocked on a full pipe must still be reaped

        with pytest.raises(ConfigError, match="first item"):
            _fork_map(fn, range(4), 2)

    def test_an_exception_that_does_not_pickle_comes_back_as_text(self):
        class Local(Exception):
            pass

        def fn(x):
            if x:
                raise Local("no pickle")
            return x

        with pytest.raises(RuntimeError, match="Local: no pickle"):
            _fork_map(fn, range(2), 2)

    def test_a_worker_that_dies_is_an_error(self):
        def fn(x):
            if x:
                os._exit(3)
            return x

        with pytest.raises(RuntimeError, match="exited without a result"):
            _fork_map(fn, range(2), 2)

