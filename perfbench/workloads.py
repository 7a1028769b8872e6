"""The benchmark's workloads: their CLI calls, their inputs, and the checks on their rows.

A workload is a fixed list of CLI calls.  Its inputs come from the benchmark
seed through a case number, ``seed % CASES``: the correctness gate compares
every row against a reference recorded for that case, so the set of inputs is
the set of recorded cases.  ``python3 perfbench/run.py --record`` re-records
the references; they were taken at the commit that added the benchmark.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CASES = 10
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# a compared value passes when |x - ref| <= RTOL * max(1, |ref|): the 1e-8 of
# the library's own oracles, so last-bit changes from a new kernel pass
RTOL = 1e-8
# digits kept in the recorded references, far below RTOL
REF_DIGITS = 12


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a workload: its label, config document and arguments."""

    label: str
    args: tuple  # CLI arguments, without --config, --out and --format
    doc: dict | None  # written to a config file when given
    exact: tuple  # row fields that must equal the reference
    close: tuple  # row fields that must lie within RTOL of the reference


@dataclass(frozen=True)
class Workload:
    name: str
    calls: object  # case -> list[Call]
    threads: int  # --threads of the measured calls
    thread_check: bool  # rows must be byte-identical at --threads 1
    expected_sites: tuple  # binding sites the traced run must hit


def _scheme_doc(case: int, coupling: float) -> dict:
    """A sampler with the (1, 0) term that makes the skew-shift matter, l1-normalized."""
    rng = np.random.default_rng([0x5CE3, case])
    second = [(0, 1), (1, 1), (1, -1), (2, 0), (0, 2)][int(rng.integers(5))]
    weights = rng.uniform(0.3, 1.0, size=2)
    weights /= weights.sum()
    phases = rng.uniform(0.0, 2 * math.pi, size=2)
    coeffs = [
        [k, l, float(w * math.cos(p)), float(w * math.sin(p))]
        for (k, l), w, p in zip([(1, 0), second], weights, phases)
    ]
    return {
        "coefficients": coeffs,
        "lambda": coupling,
        "omega": float(rng.uniform(0.1, 0.9)),
        "base_x": float(rng.random()),
        "base_y": float(rng.random()),
    }


def _lyapunov_sweep(case: int) -> list:
    doc = {
        "task": "lyapunov",
        "scheme": _scheme_doc(case, 0.9),
        "params": {"z_circle": 4},
        "sampling": {"mode": "grid", "grid_side": 32},
        "sweep": {"axes": [
            {"parameter": "lambda", "values": [0.5, 0.9]},
            {"parameter": "n", "values": [200, 1000]},
        ]},
    }
    return [Call("lyapunov", ("--seed", str(case)), doc,
                 exact=("n", "samples", "cell", "axis_lambda", "axis_n"),
                 close=("z_re", "z_im", "mean"))]


def _localize_scan(case: int) -> list:
    doc = {
        "task": "localize",
        "scheme": _scheme_doc(case, 0.9),
        "params": {"size": 512},
        "sampling": {"mode": "grid", "grid_side": 12},
    }
    # eigenvector-derived fields (center, rate, r2, ipr) are left out: vectors of
    # nearly degenerate eigenvalues mix under last-bit changes
    return [Call("localize", ("--seed", str(case)), doc,
                 exact=("size",), close=("eig_re", "eig_im", "L_ref"))]


def _oracle_battery(case: int) -> list:
    seed = ("--seed", str(case))
    return [
        Call("green-check", ("green-check",) + seed, None,
             exact=("size", "a", "b", "j", "k"), close=("z_re", "z_im")),
        Call("detform-check", ("detform-check",) + seed, None,
             exact=("n",), close=("z_re", "z_im")),
        Call("davis-simon", ("davis-simon",) + seed, None,
             exact=("size",), close=("z_re", "z_im", "product", "bound")),
        Call("restriction-check", ("restriction-check",) + seed, None,
             exact=("a", "b", "parity"), close=("dist",)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lyapunov-sweep",
            _lyapunov_sweep,
            threads=2,
            thread_check=True,
            expected_sites=(
                "cli.run_sweep", "cli.run", "cli.estimate_Ln",
                "lyapunov.verblunsky_orbit_batch", "lyapunov.product_batch",
                "model.VerblunskyScheme.__post_init__",
            ),
        ),
        Workload(
            "localize-scan",
            _localize_scan,
            threads=1,
            thread_check=False,
            expected_sites=(
                "cli.localization_scan", "localization.assemble_window",
                "localization.window_spectrum", "localization.estimate_Ln_many",
                "localization.decay_fit", "lyapunov.verblunsky_orbit_batch",
                "lyapunov.product_batch", "cmv.verblunsky_range",
            ),
        ),
        Workload(
            "oracle-battery",
            _oracle_battery,
            threads=1,
            thread_check=False,
            expected_sites=(
                "cli.assemble_window", "cli.green_matrix", "cli.green_entry_via_polys",
                "cli.davis_simon_gap", "cli.restriction_residual", "cli.transfer_product",
                "cli.transfer_via_determinants", "cocycle.verblunsky_orbit_batch",
                "cocycle.product_batch", "cocycle.scheme_submatrix", "cmv.verblunsky_range",
                "green.tilde_boundary_values", "model.VerblunskyScheme.__post_init__",
            ),
        ),
    )
}


def _rounded(value: float) -> float:
    return float(f"{value:.{REF_DIGITS}g}")


def reference_rows(call: Call, rows: list) -> dict:
    """The part of a call's rows that the reference keeps."""
    return {
        "fields": list(call.exact + call.close),
        "rows": [[r[f] for f in call.exact] + [_rounded(r[f]) for f in call.close] for r in rows],
    }


def load_reference(workload: str, case: int) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)[str(case)]


def _close(x, ref) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and abs(x - ref) <= RTOL * max(1.0, abs(ref))


def failed_rows(call: Call, rows: list | None, ref: dict) -> list:
    """Indices of rows that fail: ok == 0, a value off the reference, or a row count off.

    ``rows`` is None when the call exited nonzero or wrote no output; then every
    reference row counts as failed.
    """
    expected = ref["rows"]
    if rows is None or len(rows) != len(expected):
        return list(range(len(expected)))
    fields = ref["fields"]
    bad = []
    for i, (row, want) in enumerate(zip(rows, expected)):
        ok = row.get("ok", 1) == 1
        for field, w in zip(fields, want):
            if field in call.exact:
                ok = ok and row.get(field) == w
            else:
                ok = ok and _close(row.get(field), w)
        if not ok:
            bad.append(i)
    return bad
