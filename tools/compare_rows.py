"""Row-by-row comparison of the benchmark's CLI outputs at a base revision and in this working tree.

    python3 tools/compare_rows.py --base REV [--workload NAME]

The base revision is exported with `git archive`, as tools/bench_pairs.py does.
Every call of every perfbench workload (perfbench/workloads.py), and of the
`tasks` group of the CLI tasks that no workload runs, runs at seeds 0-9 in both
trees with `--format json`, each tree on its own sources.  Per call
the report gives how many seeds wrote byte-identical rows, the largest move of
each float field relative to max(1, |base|), and for every other field (integers
such as `localized_flag`, strings) the number of rows whose value changed.  A
seed whose exit status or row count differs is named on its own line.  Nothing
is timed; tools/bench_pairs.py measures speed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export_revision

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(10)
RUN_TIMEOUT_S = 900
# one BLAS thread, as perfbench runs its children
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

_spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up
_spec.loader.exec_module(workloads)


def _task_calls(case: int) -> list:
    """The CLI tasks that no benchmark workload runs, on the workloads' scheme of this case."""
    scheme, plan = workloads._scheme_doc(case, 0.9), {"mode": "monte-carlo", "sample_count": 1024}
    tasks = (
        ("ldt", "ldt", {"n_list": [250, 500, 1000, 2000, 4000]}, plan),
        ("multiscale", "multiscale", {}, plan),
        ("uniform-bound", "uniform-bound", {}, {}),
        ("positivity", "positivity", {}, plan),
        ("avalanche-cocycle", "avalanche", {"mode": "cocycle"}, {}),
        # eigenvalues of a window that is not normal, taken as Rayleigh quotients
        ("spectrum-nonunimodular", "spectrum", {"size": 64, "beta": [0.3, 0.4], "gamma": [0.5, 0.0]}, {}),
        # 2**17 pairs, two of avalanche_residual's pair chunks, and an odd count that carries a block up the tree
        ("avalanche-hyperbolic", "avalanche", {"mode": "hyperbolic", "count": 2**17 + 1, "block": 1}, {}),
        # z on and off the unit circle: every other call takes z on it, so only this one reaches
        # product_batch's two-column step
        ("lyapunov-offcircle", "lyapunov", {"z_list": [1.0, 1.3, [0.0, -0.7], [0.6, 0.8]]}, plan),
    )
    return [
        workloads.Call(label, ("--seed", str(case)),
                       {"task": task, "scheme": scheme, "params": params, "sampling": sampling}, exact=(), close=())
        for label, task, params, sampling in tasks
    ]


# the benchmark's workloads, and the tasks group run on one thread
GROUPS = dict(workloads.WORKLOADS, tasks=workloads.Workload("tasks", _task_calls, 1, False, ()))


def compare_rows(base: list, change: list) -> dict:
    """Byte identity, the largest relative move of each float field and the count of changed other fields."""
    moves, changed = {}, {}
    for b, c in zip(base, change):
        for key in b.keys() | c.keys():
            x, ref = c.get(key), b.get(key)
            if type(x) is float and type(ref) is float:
                moves[key] = max(moves.get(key, 0.0), abs(x - ref) / max(1.0, abs(ref)))
            else:
                changed[key] = changed.get(key, 0) + (x != ref)
    return {
        "identical": json.dumps(base) == json.dumps(change),
        "rows": [len(base), len(change)],
        "float_moves": moves,
        "changed": {key: n for key, n in changed.items() if n},
    }


def compare_files(base_path: Path, change_path: Path) -> dict:
    """compare_rows on the rows of two JSON output files of the CLI."""
    base, change = (json.loads(Path(p).read_text())["rows"] for p in (base_path, change_path))
    return compare_rows(base, change)


def merge(results: list) -> dict:
    """One call's comparisons over its seeds: identical seeds, worst float moves, summed changes."""
    moves, changed = {}, {}
    for r in results:
        for key, move in r["float_moves"].items():
            moves[key] = max(moves.get(key, 0.0), move)
        for key, n in r["changed"].items():
            changed[key] = changed.get(key, 0) + n
    return {"identical": sum(r["identical"] for r in results), "seeds": len(results),
            "float_moves": moves, "changed": changed}


def run_call(root: Path, call, out: Path, workdir: Path, threads: int) -> int:
    """One CLI call of a workload in checkout `root`, writing JSON rows to `out`; returns its exit status."""
    args = list(call.args) + ["--out", str(out), "--format", "json", "--threads", str(threads)]
    if call.doc is not None:
        cfg = workdir / f"{out.stem}.config.json"
        cfg.write_text(json.dumps(call.doc))
        args += ["--config", str(cfg)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_THREADS)
    proc = subprocess.run([sys.executable, "-m", "skewcmv.cli"] + args, cwd=root, env=env,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", choices=sorted(GROUPS), help="one workload or the tasks group (default: all)")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(GROUPS)
    with tempfile.TemporaryDirectory(prefix="compare-rows-") as tmp:
        tmp = Path(tmp)
        base_root = tmp / "base"
        sha = export_revision(args.base, base_root)
        print(f"base {sha}, change: working tree at {ROOT}")
        for name in names:
            workload = GROUPS[name]
            per_call = {}
            for seed in SEEDS:
                for k, call in enumerate(workload.calls(seed % workloads.CASES)):
                    outs = {}
                    for side, root in (("base", base_root), ("change", ROOT)):
                        out = tmp / f"{side}-{name}-{seed}-{k}.json"
                        rc = run_call(root, call, out, tmp, workload.threads)
                        outs[side] = (rc, out)
                    (rc_b, out_b), (rc_c, out_c) = outs["base"], outs["change"]
                    if rc_b != rc_c or not (out_b.is_file() and out_c.is_file()):
                        print(f"{name} {call.label} seed {seed}: exit status {rc_b} (base), {rc_c} (change)")
                        continue
                    result = compare_files(out_b, out_c)
                    if result["rows"][0] != result["rows"][1]:
                        print(f"{name} {call.label} seed {seed}: {result['rows'][0]} rows (base), "
                              f"{result['rows'][1]} (change)")
                    per_call.setdefault(call.label, []).append(result)
            for label, results in per_call.items():
                m = merge(results)
                moves = ", ".join(f"{key} {v:.2g}" for key, v in sorted(m["float_moves"].items()) if v) or "none"
                changed = ", ".join(f"{key} {n}" for key, n in sorted(m["changed"].items())) or "none"
                print(f"{name} {label}: {m['identical']}/{m['seeds']} seeds byte-identical; "
                      f"float moves: {moves}; changed other fields: {changed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
