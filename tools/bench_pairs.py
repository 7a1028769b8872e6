"""Paired before/after benchmark runs, summarized in BENCH_<label>.json at the repository root.

    python3 tools/bench_pairs.py --label NAME [--base REV]

The base revision is exported with `git archive` into a temporary directory, so
the repository and its git metadata are left as they are; the change is the
working tree this script lives in.  Every workload of BENCHMARK.json gets ten
pairs; pair k runs both sides on seed k, which perfbench maps to reference case
k, the base first on even k and the change first on odd k, because the speed of
a shared machine drifts over minutes.  Every run is one unchanged
`perfbench/run.py --trace 0` process of its own checkout, with the run length
BENCHMARK.json sets.

For every end-to-end metric of BENCHMARK.json the summary gives each side's
median and quartiles, the ratio of the medians (change / base), how many pairs
the change won (ties count for neither side), and whether the gain rule holds:
at least ten pairs, the change wins at least nine tenths of them, and the
medians differ, in the better direction, by more than the base's interquartile
range.  It also gives the regression verdict under the metric's `bound`:
"worse" when the change's median is worse than the base's by more than `bound`
times the base median; else "unresolved" when the base's interquartile range
exceeds that same margin, unless every change run beats every base run; else
"none".  The file is rewritten after every pair, so an interrupted run keeps
what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 900
PAIRS = 10


def summarize(base: list, change: list, better: str, bound: float | None = None) -> dict:
    """Medians, quartiles, pairs won, the gain rule and, given a bound, the regression verdict for one metric."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of base and change values")
    sign = 1.0 if better == "higher" else -1.0
    signed_base, signed_change = (sign * np.asarray(x, dtype=float) for x in (base, change))
    diffs = signed_change - signed_base
    b_q1, b_med, b_q3 = (float(x) for x in np.percentile(base, [25, 50, 75]))
    c_q1, c_med, c_q3 = (float(x) for x in np.percentile(change, [25, 50, 75]))
    won = int(np.sum(diffs > 0))
    regression = None
    if bound is not None:
        margin = bound * abs(b_med)
        if sign * (c_med - b_med) < -margin:
            regression = "worse"
        elif b_q3 - b_q1 > margin and not signed_change.min() > signed_base.max():
            regression = "unresolved"
        else:
            regression = "none"
    return {
        "better": better,
        "base": {"median": b_med, "q1": b_q1, "q3": b_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "ratio": c_med / b_med if b_med else None,
        "pairs": len(base),
        "change_won": won,
        "base_won": int(np.sum(diffs < 0)),
        "gain_shown": bool(
            len(base) >= PAIRS and won >= 0.9 * len(base) and sign * (c_med - b_med) > b_q3 - b_q1
        ),
        "regression": regression,
    }


def export_revision(rev: str, dest: Path) -> str:
    """Write the files of `rev` under `dest`; returns the full commit id."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def bench_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in checkout `root`: its correctness and end-to-end metric values."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {root} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    out_path = ROOT / f"BENCH_{args.label}.json"
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_root = Path(tmp) / "base"
        base_sha = export_revision(args.base, base_root)
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
        dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True).stdout)
        doc = {
            "label": args.label,
            "base": base_sha,
            "change": f"working tree at {head}" + (" with uncommitted changes" if dirty else ""),
            "command": f"perfbench/run.py --trace 0 --seconds {seconds:g}",
            "host": {"nproc": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine()},
            "workloads": {},
        }
        for name in workloads:
            runs = {"base": [], "change": []}
            entry = doc["workloads"][name] = {"seeds": [], "first": [], "runs": runs}
            for seed in range(PAIRS):
                order = ("base", "change") if seed % 2 == 0 else ("change", "base")
                for side in order:
                    result = bench_once(base_root if side == "base" else ROOT, name, seed, seconds)
                    runs[side].append(result)
                    print(f"{name} seed {seed} {side}: correct={result['correct']} "
                          f"wall_s={result['wall_s']:.3f}", file=sys.stderr)
                entry["seeds"].append(seed)
                entry["first"].append(order[0])
                entry["correct"] = {side: all(r["correct"] for r in rs) for side, rs in runs.items()}
                entry["metrics"] = {}
                for m in spec["end_to_end"]:
                    base, change = ([r[m["name"]] for r in runs[side]] for side in ("base", "change"))
                    entry["metrics"][m["name"]] = dict(summarize(base, change, m["better"], m["bound"]),
                                                       unit=m["unit"], bound=m["bound"])
                out_path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
