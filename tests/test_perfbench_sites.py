"""The benchmark's traced run must keep hitting every binding site it expects.

perfbench/tracer.py wraps library functions at the module attributes that bind
them, and a traced benchmark run fails when a workload's expected site is never
hit.  These tests run the tracer on tiny versions of each workload's CLI calls,
so a refactor that drops one of those bindings fails here first.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = workloads  # its dataclasses look their module up
spec.loader.exec_module(workloads)


def traced_hits(tmp_path: Path, name: str, args: list, doc: dict | None) -> dict:
    """Run the CLI under the tracer and return its per-site hit counts."""
    if doc is not None:
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        args = args + ["--config", str(tmp_path / f"{name}.json")]
    spans = tmp_path / f"{name}-spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    r = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "--",
         *args, "--out", str(tmp_path / f"{name}.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    return json.loads(spans.read_text())["hits"]


def tiny_calls(workload: str) -> list:
    """The workload's calls for case 0, shrunk to desk size."""
    calls = []
    for call in workloads.WORKLOADS[workload].calls(0):
        doc = json.loads(json.dumps(call.doc)) if call.doc else {"task": call.args[0]}
        if workload == "localize-scan":
            doc["params"]["size"] = 64
            doc["sampling"]["grid_side"] = 4
        elif workload == "lyapunov-sweep":
            doc["params"]["n"] = 20
            doc["sampling"]["grid_side"] = 4
            doc["sweep"]["axes"] = [{"parameter": "lambda", "values": [0.5, 0.9]}]
        else:
            doc["params"] = {"instances": 3}
        calls.append((call.label, list(call.args), doc))
    return calls


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_hits_expected_sites(tmp_path, workload):
    threads = ["--threads", str(workloads.WORKLOADS[workload].threads)]
    hits = {}
    for label, args, doc in tiny_calls(workload):
        for site, count in traced_hits(tmp_path, label, args + threads, doc).items():
            hits[site] = hits.get(site, 0) + count
    missing = [site for site in workloads.WORKLOADS[workload].expected_sites if not hits.get(site)]
    assert not missing, missing
