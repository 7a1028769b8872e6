"""The benchmark's oracle-battery calls, run in process and checked against its recorded rows.

perfbench/reference/oracle-battery.json holds every row the four oracle tasks
gave for each benchmark case.  The tasks draw schemes, windows, boundaries and
z from one random stream, so a change to the order of those draws, or to any
oracle value beyond the benchmark's tolerance, fails here without a benchmark
run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from skewcmv.cli import main

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = workloads  # its dataclasses look their module up
spec.loader.exec_module(workloads)


@pytest.mark.parametrize("case", [0, 1])
def test_oracle_battery_rows_match_reference(tmp_path, case):
    reference = workloads.load_reference("oracle-battery", case)
    for call in workloads.WORKLOADS["oracle-battery"].calls(case):
        out = tmp_path / f"{call.label}.json"
        assert main([*call.args, "--out", str(out), "--format", "json"]) == 0, call.label
        rows = json.loads(out.read_text())["rows"]
        assert workloads.failed_rows(call, rows, reference[call.label]) == [], call.label
