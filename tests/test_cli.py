import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skewcmv.cli
import skewcmv.localization
import skewcmv.lyapunov
from skewcmv.cli import TASKS, ConfigError, config_from_doc, main, run, run_sweep
from skewcmv.cocycle import FactoredProduct, product_batch, transfer_product
from skewcmv.lyapunov import ORBIT_CHUNK, estimate_Ln
from skewcmv.model import orbit_point, verblunsky_orbit_batch

SCHEME_DOC = {
    "coefficients": [[1, 0, 0.5, 0.0], [0, 1, 0.5, 0.0]],
    "lambda": 0.9,
    "omega": 0.6180339887498949,
    "base_x": 0.0,
    "base_y": 0.0,
}


def base_doc(task, params=None, sampling=None):
    """A config for `task`; a task that reads no sampling plan gets only the plan's seed."""
    plan = {"mode": "monte-carlo", "sample_count": 64, "rng_seed": 3} if TASKS[task].sampled else {"rng_seed": 3}
    return {"task": task, "scheme": dict(SCHEME_DOC), "params": params or {}, "sampling": sampling or plan}


def run_doc(doc):
    return run(config_from_doc(doc))


def assert_exits_2(tmp_path, capsys, doc, *fragments, argv=()):
    """The CLI run on `doc` exits 2, names every fragment on stderr and writes no output file."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg_path), "--out", str(tmp_path / "o.csv"), *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(f in err for f in fragments), err
    assert not (tmp_path / "o.csv").exists()


class TestConfig:
    def test_missing_task_rejected(self):
        with pytest.raises(ConfigError):
            config_from_doc({"scheme": SCHEME_DOC})

    def test_scheme_required_for_estimators(self):
        with pytest.raises(ConfigError):
            run(config_from_doc({"task": "lyapunov"}))

    @pytest.mark.parametrize("field", ["grid_side", "sample_count"])
    def test_empty_sampling_plan_rejected(self, field):
        with pytest.raises(ConfigError, match=f"sampling: {field}"):
            config_from_doc(base_doc("lyapunov", sampling={"mode": "grid", field: 0}))

    def test_empty_sampling_plan_exits_with_status_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_doc("lyapunov", {"n": 5}, {"grid_side": 0})))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("lambda", 1.5, "coupling lambda"),
            ("omega", math.nan, "omega"),
            ("base_x", math.nan, "base_x"),
            ("coefficients", [[1, 0, math.inf, 0.0]], "coefficient (1, 0)"),
            ("coefficients", [[1, 0, 1.0, 0.0], [0, 1, 1.0, 0.0]], "coupling bound violated"),
            ("coefficients", [[1, 0, 0.5, 0.0], [1, 0, 0.25, 0.0]], "coefficient (1, 0) is given twice"),
            ("coefficients", [[1.5, 0, 0.5, 0.0]], "frequency index must be an integer"),
            ("omega", True, "omega must be a number"),
        ],
    )
    def test_bad_scheme_exits_with_status_2(self, tmp_path, capsys, key, value, field):
        doc = base_doc("lyapunov", {"n": 5})
        doc["scheme"][key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert f"scheme: {field}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "task, key, value",
        [("lyapunov", "n", math.nan), ("lyapunov", "z_circle", "four"), ("green-check", "tolerance", math.inf),
         ("localize", "scale", math.nan), ("lyapunov", "z", [0, 0]), ("ldt", "z", [0, 0]),
         ("spectrum", "gamma", 2.5), ("localize", "beta", [0.0, 1.5]), ("spectrum", "beta", 1.0000000000000004),
         ("avalanche", "mu", 0), ("davis-simon", "max_size", 1e300),
         ("davis-simon", "max_size", 2**63 - 1), ("spectrum", "size", 200000),
         ("lyapunov", "n", 2.7), ("lyapunov", "n", True), ("lyapunov", "z_circle", 2.5), ("lyapunov", "z", [True, 0]),
         ("spectrum", "a", -(2**63)), ("spectrum", "a", 2**63 - 1)],
    )
    def test_bad_param_exits_with_status_2(self, tmp_path, capsys, task, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_doc(task, {key: value})))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert f"params.{key}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "task, params, key",
        [("lyapunov", {"n": 0}, "n"), ("lyapunov", {"n": -3}, "n"), ("lyapunov", {"z_circle": 0}, "z_circle"),
         ("green-check", {"max_size": 3}, "max_size"), ("davis-simon", {"instances": 0}, "instances"),
         ("detform-check", {"n_min": 5, "n_max": 4}, "n_max"), ("multiscale", {"n": 6, "N": 35}, "N"),
         ("localize", {"size": 32}, "size")],
    )
    def test_param_below_range_exits_with_status_2(self, tmp_path, capsys, task, params, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_doc(task, params)))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert f"params.{key} must be >= " in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "task, params, key",
        [("lyapunov", {"z_list": []}, "z_list"), ("lyapunov", {"z_list": [[1.0, 0.0], "one"]}, "z_list"),
         ("lyapunov", {"z_list": [[math.nan, 0.0]]}, "z_list"), ("lyapunov", {"z_list": 1.0}, "z_list"),
         ("ldt", {"n_list": []}, "n_list"), ("ldt", {"n_list": [10, 0]}, "n_list"),
         ("ldt", {"thresholds": [0.1, math.inf]}, "thresholds"), ("ldt", {"thresholds": [0.5, 0.1]}, "thresholds"),
         ("ldt", {"threshold_factors": []}, "threshold_factors"), ("spectrum", {"beta": [1.0]}, "beta"),
         ("lyapunov", {"z_list": [[1, 0], [0, 0]]}, "z_list")],
    )
    def test_bad_list_param_exits_with_status_2(self, tmp_path, capsys, task, params, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_doc(task, params)))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert f"params.{key}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "task, section, key",
        [("lyapunov", "sampling", "grid_side"), ("lyapunov", "sampling", "sample_count"),
         ("uniform-bound", "params", "grid_side"), ("dio-check", "params", "horizon"),
         ("detform-check", "params", "n_max")],
    )
    def test_size_above_its_cap_exits_with_status_2(self, tmp_path, capsys, task, section, key):
        doc = base_doc(task)
        doc[section] = {key: 2**62}
        assert_exits_2(tmp_path, capsys, doc, f"{section}.{key} must be <= ")

    @pytest.mark.parametrize("dist_min, fragment", [(-1, "must be > 0"), (0, "must be > 0"), (3, "could not place z")])
    def test_green_check_bad_dist_min_exits_with_status_2(self, tmp_path, capsys, dist_min, fragment):
        doc = {"task": "green-check", "params": {"instances": 2, "dist_min": dist_min}}
        assert_exits_2(tmp_path, capsys, doc, f"params.dist_min: {fragment}")

    def test_non_finite_dio_check_omega_rejected(self):
        with pytest.raises(ConfigError, match="params.omega must be finite"):
            run_doc({"task": "dio-check", "params": {"omega": math.nan}})

    def test_hash_embedded_in_rows(self):
        doc = base_doc("lyapunov", {"n": 20})
        cfg = config_from_doc(doc)
        rows, failures, _ = run(cfg)
        assert failures == 0
        assert all(r["config_hash"] == cfg.config_hash for r in rows)

    def test_hash_sensitive_to_parameters(self):
        h1 = config_from_doc(base_doc("lyapunov", {"n": 20})).config_hash
        h2 = config_from_doc(base_doc("lyapunov", {"n": 21})).config_hash
        assert h1 != h2

    def test_hash_is_pinned(self):
        # the reproducibility key of existing runs: any change to canonical() or to parsing shows here
        assert config_from_doc(base_doc("lyapunov", {"n": 20})).config_hash == "7be96086294e84ea"
        assert config_from_doc({"task": "green-check", "params": {"instances": 5}}).config_hash == "db62b1c16ef84fb6"

    @pytest.mark.parametrize(
        "extra, field",
        [({"params": {"nn": 5}}, "params.nn"), ({"sampling": {"grid_sid": 0}}, "sampling.grid_sid"),
         ({"outputt": {}}, "outputt"), ({"output": {"pth": "o.csv"}}, "output.pth"),
         ({"sweep": {"axis": [{"parameter": "n", "values": [5]}]}}, "sweep.axis")],
    )
    def test_unknown_key_exits_with_status_2(self, tmp_path, capsys, extra, field):
        doc = {**base_doc("lyapunov", {"n": 5}), **extra}
        assert_exits_2(tmp_path, capsys, doc, f"{field}: unknown key for task 'lyapunov'")

    @pytest.mark.parametrize(
        "doc, fields",
        [
            ({**base_doc("lyapunov"), "output": {"format": "xml"}}, ["output.format"]),
            ({**base_doc("lyapunov"), "sweep": {"axes": [{"parameter": "lambda"}]}}, ["sweep.axes[0].values"]),
            ({**base_doc("lyapunov"), "sweep": {"axes": [{"parameter": "lambda", "values": []}]}},
             ["sweep.axes[0].values"]),
            ({**base_doc("lyapunov"), "sweep": {"axes": []}}, ["sweep.axes"]),
            ({"task": "dio-check", "sweep": {"axes": [{"parameter": "lambda", "values": [0.5]}]}},
             ["sweep.axes[0].parameter"]),
            ({**base_doc("lyapunov"), "sweep": {"axes": [{"parameter": "size", "values": [64]}]}},
             ["sweep.axes[0].parameter"]),
            ({**base_doc("lyapunov", {"z_circle": 3}), "sweep": {"axes": [{"parameter": "z", "values": [1]}]}},
             ["params.z", "params.z_circle"]),
            ([1, 2], ["config must be a JSON object"]),
            ({**base_doc("lyapunov"), "params": [1]}, ["params must be a JSON object"]),
            (base_doc("lyapunov", {"z": [1, 0], "z_circle": 3}), ["params.z", "params.z_circle"]),
            (base_doc("ldt", {"thresholds": [0.1], "threshold_factors": [0.2]}),
             ["params.thresholds", "params.threshold_factors"]),
            (base_doc("lyapunov", sampling={"grid_side": 2.9}), ["sampling.grid_side must be an integer"]),
            # a task that reads no sampling plan takes only sampling.rng_seed
            (base_doc("uniform-bound", sampling={"mode": "monte-carlo", "sample_count": 7, "grid_side": 200}),
             ["sampling.mode: unknown key for task 'uniform-bound'"]),
            (base_doc("spectrum", sampling={"mode": "grid", "rng_seed": 1}), ["sampling.mode"]),
            (base_doc("spectrum", sampling={"grid_side": 4}), ["sampling.grid_side"]),
            (base_doc("dio-check", sampling={"grid_side": 4}), ["sampling.grid_side"]),
            (base_doc("green-check", sampling={"sample_count": 10}), ["sampling.sample_count"]),
            (base_doc("avalanche", sampling={"mode": "grid"}), ["sampling.mode"]),
        ],
    )
    def test_malformed_document_exits_with_status_2(self, tmp_path, capsys, doc, fields):
        assert_exits_2(tmp_path, capsys, doc, *fields)


class TestTasks:
    def test_dio_check_half(self):
        rows, failures, _ = run_doc({"task": "dio-check", "params": {"omega": 0.5, "horizon": 2}})
        assert failures == 0
        assert rows[0]["margin"] == 0.0

    def test_lyapunov_zero_coupling_row(self):
        doc = base_doc("lyapunov", {"n": 100, "z": [1.0, 0.0]})
        doc["scheme"]["lambda"] = 0.0
        rows, failures, _ = run_doc(doc)
        assert failures == 0 and rows[0]["mean"] == 0.0

    def test_green_check_battery(self):
        rows, failures, _ = run_doc({"task": "green-check", "params": {"instances": 25},
                                     "sampling": {"rng_seed": 5}})
        assert failures == 0
        assert len(rows) == 25
        assert max(r["rel_err"] for r in rows) < 1e-8

    def test_detform_check_battery(self):
        rows, failures, _ = run_doc({"task": "detform-check", "params": {"instances": 25},
                                     "sampling": {"rng_seed": 6}})
        assert failures == 0 and max(r["rel_err"] for r in rows) < 1e-8

    def test_davis_simon_battery(self):
        rows, failures, _ = run_doc({"task": "davis-simon", "params": {"instances": 30},
                                     "sampling": {"rng_seed": 7}})
        assert failures == 0 and all(r["ok"] for r in rows)

    def test_restriction_battery(self):
        rows, failures, _ = run_doc({"task": "restriction-check", "params": {"instances": 8},
                                     "sampling": {"rng_seed": 8}})
        assert failures == 0
        assert {r["parity"] for r in rows} == {"ee", "oo", "eo", "oe"}

    def test_spectrum_task(self):
        rows, failures, _ = run_doc(base_doc("spectrum", {"size": 32}))
        assert failures == 0 and len(rows) == 32

    def test_avalanche_diagonal_zero(self):
        rows, failures, _ = run_doc({"task": "avalanche",
                                     "params": {"mode": "diagonal", "count": 10, "mu": 1e3}})
        assert failures == 0 and rows[0]["residual"] == 0.0

    def test_avalanche_cocycle_blocks(self):
        doc = base_doc("avalanche", {"mode": "cocycle", "count": 6, "block": 30})
        rows, failures, _ = run_doc(doc)
        assert failures == 0 and rows[0]["mu_floor"] > 1.0

    @pytest.mark.parametrize("block", [200, 400, 700])
    def test_avalanche_cocycle_long_blocks_stay_finite(self, block):
        # block products of norm up to e^700: the residual is taken from their unit-norm factors
        scheme = dict(SCHEME_DOC, **{"lambda": 0.95, "omega": 0.6180339887, "base_x": 0.1, "base_y": 0.3})
        doc = {"task": "avalanche", "scheme": scheme,
               "params": {"mode": "cocycle", "count": 10, "block": block, "z": [1.5, 0.0]}}
        (row,), failures, _ = run_doc(doc)
        assert failures == 0 and all(math.isfinite(v) for v in row.values() if isinstance(v, float))
        assert row["residual"] <= 1e-12 and row["hypothesis_ok"] == 1

    @pytest.mark.parametrize(
        "params, fragment",
        [({"mu": 1e77}, "params.mu must be <= "), ({"mu": 1e-77}, "params.mu must be >= "),
         ({"count": 2**20 + 1}, "params.count must be <= "),
         ({"mode": "cocycle", "count": 1025, "block": 1024}, "params.block must be <= 1023"),
         ({"mode": "cocycle", "count": 10, "block": 10000}, "params.block: mu_floor")],
    )
    def test_avalanche_out_of_range_exits_with_status_2(self, tmp_path, capsys, params, fragment):
        assert_exits_2(tmp_path, capsys, base_doc("avalanche", params), fragment)

    def test_avalanche_hyperbolic_takes_a_count_beyond_the_block_cap(self, tmp_path):
        # only cocycle mode reads block, so 2**20 // count caps it there alone: the default 40 is over 7 here
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "o.json"
        cfg_path.write_text(json.dumps(base_doc("avalanche", {"mode": "hyperbolic", "count": 2**17 + 1})))
        assert main(["--config", str(cfg_path), "--out", str(out), "--format", "json"]) == 0
        (row,) = json.loads(out.read_text())["rows"]
        assert row["count"] == 2**17 + 1 and math.isfinite(row["residual"])

    @pytest.mark.parametrize("a", [1 - 2**63, 2**63 - 8])
    def test_spectrum_window_at_the_int64_ends(self, a):
        # an 8-site window reads sites a - 1 .. a + 7: here the first or the last of them is an end of int64
        rows, failures, _ = run_doc(base_doc("spectrum", {"a": a, "size": 8}))
        assert len(rows) == 8 and failures == 0

    def test_avalanche_nan_residual_is_a_failure(self, monkeypatch):
        nan_report = skewcmv.lyapunov.AvalancheReport(math.nan, 1e3, 0.0, True, 0.01)
        monkeypatch.setattr(skewcmv.cli, "avalanche_residual", lambda *args: nan_report)
        rows, failures, _ = run_doc({"task": "avalanche", "params": {"mode": "diagonal", "count": 10}})
        assert failures == 1 and math.isnan(rows[0]["residual"])

    def test_avalanche_cocycle_blocks_are_transfer_products(self, monkeypatch):
        seen = []
        residual = skewcmv.cli.avalanche_residual
        monkeypatch.setattr(skewcmv.cli, "avalanche_residual", lambda *args: seen.append(args) or residual(*args))
        z = complex(0.6, 0.9)
        cfg = config_from_doc(base_doc("avalanche", {"mode": "cocycle", "count": 6, "block": 30, "z": [z.real, z.imag]}))
        run(cfg)
        ((mats, log_scales),) = seen
        s = cfg.scheme
        assert len(mats) == len(log_scales) == 6
        for j, (m, ls) in enumerate(zip(mats, log_scales)):
            start = orbit_point(s.base, s.frequency, j * 30)
            ref = transfer_product(s, 30, z, base=np.array([start.x, start.y]))
            assert FactoredProduct(m, float(ls)).distance(ref) <= 1e-10

    def test_avalanche_cocycle_groups_match_one_group(self, monkeypatch):
        # groups of 64 // 30 = 2 blocks, the last one short: each block is formed as one call forms it
        doc = base_doc("avalanche", {"mode": "cocycle", "count": 7, "block": 30})
        whole = run_doc(doc)
        monkeypatch.setattr(skewcmv.cli, "_AVALANCHE_GROUP", 64)
        assert run_doc(doc) == whole

    def test_multiscale_task(self):
        doc = base_doc("multiscale", {"n": 6, "N": 36}, sampling={"mode": "grid", "grid_side": 6})
        rows, failures, _ = run_doc(doc)
        assert failures == 0 and rows[0]["residual"] >= 0.0

    def test_uniform_bound_task(self):
        doc = base_doc("uniform-bound", {"n0": 10, "N": 50, "grid_side": 6})
        rows, failures, _ = run_doc(doc)
        assert failures == 0 and rows[0]["holds"] == 1

    def test_ldt_task(self):
        doc = base_doc("ldt", {"n_list": [10, 20], "threshold_factors": [0.1, 0.5]})
        rows, failures, _ = run_doc(doc)
        assert failures == 0 and len(rows) == 4

    def test_localize_task(self):
        doc = base_doc("localize", {"size": 64}, sampling={"mode": "grid", "grid_side": 4})
        rows, failures, _ = run_doc(doc)
        assert failures == 0 and len(rows) == 64
        assert set(rows[0]) >= {"size", "lambda", "omega", "eig_re", "eig_im", "center",
                                "rate", "r2", "ipr", "L_ref", "localized_flag"}


class TestSharedOrbit:
    def test_lyapunov_rows_equal_scalar_estimates(self):
        doc = base_doc("lyapunov", {"n": 300, "z_circle": 3})
        cfg = config_from_doc(doc)
        rows, _, _ = run(cfg)
        for row in rows:
            est = estimate_Ln(cfg.scheme, complex(row["z_re"], row["z_im"]), 300, cfg.sampling)
            assert (row["mean"], row["stderr"], row["samples"]) == (est.mean, est.std_error, est.samples)

    def test_lyapunov_samples_each_chunk_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("start", 0))
            return verblunsky_orbit_batch(*args, **kwargs)

        monkeypatch.setattr(skewcmv.lyapunov, "verblunsky_orbit_batch", counted)
        rows, _, _ = run_doc(base_doc("lyapunov", {"n": 600, "z_circle": 4}))
        assert len(rows) == 4 and calls == list(range(0, 600, ORBIT_CHUNK))

    @pytest.mark.parametrize(
        "task, params, steps",
        [("ldt", {"n_list": [250, 500, 1000, 2000, 4000]}, 4000), ("multiscale", {}, 100), ("uniform-bound", {}, 500)],
    )
    def test_one_orbit_pass_per_task(self, monkeypatch, task, params, steps):
        # every phase fits one tile, so each task walks its orbits once, up to its largest n
        total = []

        def counted(alphas, z, carry=None):
            total.append(len(alphas))
            return product_batch(alphas, z, carry=carry)

        monkeypatch.setattr(skewcmv.lyapunov, "product_batch", counted)
        run_doc(base_doc(task, params))
        assert sum(total) == steps


class TestDeterminism:
    def test_repeat_run_identical_rows(self):
        doc = base_doc("lyapunov", {"n": 30, "z_circle": 4})
        assert run_doc(doc)[0] == run_doc(doc)[0]

    def test_sweep_thread_count_does_not_change_output(self):
        doc = base_doc("lyapunov", {"n": 20})
        doc["sweep"] = {"axes": [{"parameter": "lambda", "values": [0.0, 0.5, 0.9]}]}
        rows1, f1, _ = run_sweep(doc, doc["sweep"]["axes"], threads=1)
        rows4, f4, _ = run_sweep(doc, doc["sweep"]["axes"], threads=4)
        assert rows1 == rows4 and f1 == f4 == 0

    def test_sweep_zero_coupling_anchor_row(self):
        doc = base_doc("lyapunov", {"n": 20})
        doc["sweep"] = {"axes": [{"parameter": "lambda", "values": [0.0, 0.5, 0.9]}]}
        rows, _, _ = run_sweep(doc, doc["sweep"]["axes"], threads=1)
        assert rows[0]["axis_lambda"] == 0.0 and rows[0]["mean"] == 0.0
        assert [r["cell"] for r in rows] == [0, 1, 2]

    def test_sweep_cell_seeds_differ(self):
        doc = base_doc("lyapunov", {"n": 20})
        doc["sweep"] = {"axes": [{"parameter": "omega", "values": [0.1, 0.2]}]}
        rows, _, _ = run_sweep(doc, doc["sweep"]["axes"], threads=1)
        assert rows[0]["seed"] != rows[1]["seed"]


class TestEntryPoint:
    def test_csv_output_and_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "out.csv"
        doc = base_doc("green-check", {"instances": 5})
        doc["output"] = {"path": str(out_path), "format": "csv"}
        cfg_path.write_text(json.dumps(doc))
        rc = main(["--config", str(cfg_path), "--seed", "9"])
        assert rc == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 6 and lines[0].startswith("instance,")

    def test_json_output_embeds_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "out.json"
        doc = base_doc("dio-check", {"omega": 0.5, "horizon": 4})
        doc["output"] = {"path": str(out_path), "format": "json"}
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path)]) == 0
        saved = json.loads(out_path.read_text())
        assert saved["config"]["task"] == "dio-check"
        assert saved["rows"][0]["margin"] == 0.0

    @pytest.mark.parametrize("task", ["localize", "spectrum"])
    def test_bad_eigen_residual_exits_nonzero(self, tmp_path, monkeypatch, task):
        solve = skewcmv.localization.window_spectrum

        def one_bad_residual(window):
            pairs = solve(window)
            return [dataclasses.replace(pairs[0], residual=1.0)] + pairs[1:]

        monkeypatch.setattr(skewcmv.localization, "window_spectrum", one_bad_residual)
        monkeypatch.setattr(skewcmv.cli, "window_spectrum", one_bad_residual)
        cfg_path = tmp_path / "cfg.json"
        plan = {"mode": "grid", "grid_side": 4} if TASKS[task].sampled else None
        cfg_path.write_text(json.dumps(base_doc(task, {"size": 64}, plan)))
        out_path = tmp_path / "o.json"
        assert main(["--config", str(cfg_path), "--out", str(out_path), "--format", "json"]) == 1
        assert len(json.loads(out_path.read_text())["rows"]) == 64

    def test_flag_overrides_config_task(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        doc = base_doc("lyapunov", {"omega": 0.5, "horizon": 3}, {"rng_seed": 3})  # dio-check reads no plan
        cfg_path.write_text(json.dumps(doc))
        rc = main(["dio-check", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
        assert rc == 0

    def test_thread_count_does_not_change_json_output(self, tmp_path):
        doc = base_doc("lyapunov", {"n": 20})
        doc["sweep"] = {"axes": [{"parameter": "lambda", "values": [0.0, 0.5, 0.9]}]}
        cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "o.json"
        cfg_path.write_text(json.dumps(doc))
        outputs = []
        for threads in ("1", "2"):
            assert main(["--config", str(cfg_path), "--out", str(out_path), "--format", "json",
                         "--threads", threads]) == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv, env", [(["--threads", "0"], None), ([], "abc"), ([], "0")])
    def test_bad_thread_count_exits_with_status_2(self, tmp_path, capsys, monkeypatch, argv, env):
        if env is not None:
            monkeypatch.setenv("CMV_THREADS", env)
        assert_exits_2(tmp_path, capsys, {"task": "dio-check"}, "--threads", argv=argv)

    @pytest.mark.parametrize("sweep", [False, True], ids=["task", "sweep"])
    @pytest.mark.parametrize("out, message", [("missing/x.csv", "does not exist"), ("outdir", "is a directory")])
    def test_unwritable_out_path_exits_with_status_2_before_any_task_runs(
        self, tmp_path, capsys, monkeypatch, out, message, sweep
    ):
        # the rows were computed in full, then the write raised FileNotFoundError (exit status 1)
        (tmp_path / "outdir").mkdir()
        ran = []
        monkeypatch.setitem(TASKS, "dio-check", dataclasses.replace(TASKS["dio-check"], fn=lambda *a, **k: ran.append(a)))
        doc = {"task": "dio-check"}
        if sweep:
            doc["sweep"] = {"axes": [{"parameter": "horizon", "values": [2, 3]}]}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        out_path = str(tmp_path / out)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(tmp_path / "cfg.json"), "--out", out_path])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"output.path: {out_path!r}" in err and message in err
        assert ran == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "outdir"]

    def test_console_invocation(self, tmp_path):
        out = tmp_path / "o.csv"
        r = subprocess.run(
            [sys.executable, "-m", "skewcmv.cli", "dio-check", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0
        assert "task=dio-check" in r.stdout

    def test_seed_changes_monte_carlo_rows(self, tmp_path):
        doc = base_doc("lyapunov", {"n": 25})
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["--config", str(p), "--seed", "1", "--out", str(o1)])
        main(["--config", str(p), "--seed", "2", "--out", str(o2)])
        assert o1.read_text() != o2.read_text()


# runs each config in a fresh interpreter and reports, after each step, which of scipy
# and numpy.ma are loaded
_STARTUP_PROBE = r"""
import json, sys
loaded = {}


def probe(step):
    loaded[step] = [name for name in ("scipy", "numpy.ma") if name in sys.modules]


import skewcmv
probe("import skewcmv")
from skewcmv.cli import config_from_doc, run
probe("import skewcmv.cli")
for doc in json.loads(sys.argv[1]):
    rows, failures, _ = run(config_from_doc(doc))
    assert rows and failures == 0, doc["task"]
    probe(doc["task"])
print(json.dumps(loaded))
"""


def test_no_task_loads_scipy():
    """Import, the oracle tasks, lyapunov and both spectrum routes run on numpy alone, without numpy.ma."""
    small = {"instances": 4}
    docs = [{"task": task, "params": small}
            for task in ("green-check", "detform-check", "davis-simon", "restriction-check")]
    docs.append(base_doc("lyapunov", {"n": 10, "z_circle": 2}, {"mode": "grid", "grid_side": 4}))
    docs.append(base_doc("spectrum", {"size": 16}))
    docs.append(base_doc("localize", {"size": 64}, {"mode": "grid", "grid_side": 4}))
    env = dict(os.environ, PYTHONPATH=str(Path(skewcmv.cli.__file__).parents[1]))
    r = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, json.dumps(docs)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    steps = ["import skewcmv", "import skewcmv.cli", "green-check", "detform-check", "davis-simon",
             "restriction-check", "lyapunov", "spectrum", "localize"]
    assert json.loads(r.stdout) == {step: [] for step in steps}


# runs the CLI with every import of scipy failing, as on an installation without it
_NO_SCIPY = r"""
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
for name in [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]:
    del sys.modules[name]
from skewcmv.cli import main

sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("task, params", [("spectrum", {"size": 32}), ("localize", {"size": 64})])
def test_spectrum_tasks_run_without_scipy(tmp_path, task, params):
    cfg_path = tmp_path / "cfg.json"
    plan = {"mode": "grid", "grid_side": 4} if TASKS[task].sampled else None
    cfg_path.write_text(json.dumps(base_doc(task, params, plan)))
    out = tmp_path / "o.json"
    env = dict(os.environ, PYTHONPATH=str(Path(skewcmv.cli.__file__).parents[1]))
    r = subprocess.run([sys.executable, "-c", _NO_SCIPY, "--config", str(cfg_path), "--out", str(out),
                        "--format", "json"], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == params["size"]  # exit status 0: every eigenpair passed its checks
    blocked = subprocess.run([sys.executable, "-c", _NO_SCIPY.replace("from skewcmv.cli import main", "import scipy")],
                             capture_output=True, text=True, env=env)
    assert "ImportError" in blocked.stderr
