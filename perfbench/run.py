"""Benchmark of the skewcmv CLI: end-to-end numbers untraced, per-layer numbers traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # both modes, every workload
    python3 perfbench/run.py --workload NAME|all --record          # re-record the references

Every CLI call is a fresh child process with BLAS pinned to one thread.  A run
repeats the workload's calls ("passes") while the next pass is expected to end
within half a pass of --seconds, and reports medians over the passes.  With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json; with --trace 1
it runs one untraced pass and then traced passes (perfbench/tracer.py) and
reports the per-layer metrics.  Every row is checked against the recorded
reference for its case.  A readable report goes to stderr and to
perfbench/out/; the last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from layers import BASELINE_SHAPES, layer_metrics, pass_summary
from tracer import LAYER_OF
from workloads import CASES, REFERENCE_DIR, WORKLOADS, failed_rows, load_reference, reference_rows

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PER_PASS = 2  # imports timed before each untraced pass
SETUP_MIN = 6  # imports timed per untraced run, at least
CHILD_TIMEOUT_S = 150
# oracle values read from the rows: metric -> (call label, row field)
ORACLE_MAXIMA = {
    "green.rel_err_max": ("green-check", "rel_err"),
    "cocycle.detform_rel_err_max": ("detform-check", "rel_err"),
    "green.restriction_resid_max": ("restriction-check", "residual"),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, no reference, bad BENCHMARK.json)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def spawn(argv: list, log_path: Path) -> tuple:
    """Run a child to completion; returns (wall seconds, exit code, peak RSS in MB)."""
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


@contextlib.contextmanager
def workdir_for(calls: list):
    """A scratch directory under perfbench/out holding the calls' config files."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        for k, call in enumerate(calls):
            if call.doc is not None:
                with open(workdir / f"{k}.config.json", "w") as fh:
                    json.dump(call.doc, fh)
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_pass(calls: list, workdir: Path, traced: bool, threads: int) -> dict:
    """One pass over the workload's calls; each call is one child process."""
    results, wall, rss = [], 0.0, 0.0
    for k, call in enumerate(calls):
        out = workdir / f"{k}.out.json"
        out.unlink(missing_ok=True)
        args = list(call.args) + ["--out", str(out), "--format", "json", "--threads", str(threads)]
        if call.doc is not None:
            args += ["--config", str(workdir / f"{k}.config.json")]
        spans_path = workdir / f"{k}.spans.json"
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), "--"] + args
        else:
            argv = [sys.executable, "-m", "skewcmv.cli"] + args
        seconds, rc, peak = spawn(argv, workdir / f"{k}.log")
        wall += seconds
        rss = max(rss, peak)
        rows = None
        if rc == 0 and out.is_file():
            with open(out) as fh:
                rows = json.load(fh)["rows"]
        result = {"label": call.label, "rc": rc, "rows": rows}
        if traced:
            with open(spans_path) as fh:
                result.update(json.load(fh))
        results.append(result)
    return {"wall_s": wall, "rss_mb": rss, "calls": results}


def time_import(workdir: Path) -> float:
    seconds, rc, _ = spawn([sys.executable, "-c", "import skewcmv.cli"], workdir / "import.log")
    if rc != 0:
        raise BenchError("import skewcmv.cli failed")
    return seconds


def cpu_ticks() -> tuple:
    """(total, steal) jiffies of all CPUs since boot, or (0, 0) where /proc/stat is missing."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return 0, 0
    return sum(fields), fields[7] if len(fields) > 7 else 0


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
    }


def check_rows(calls: list, results: list, refs: dict) -> tuple:
    """(attempted, failed) rows of one pass against the case's reference."""
    attempted = failed = 0
    for call, res in zip(calls, results):
        ref = refs[call.label]
        attempted += len(ref["rows"])
        failed += len(failed_rows(call, res["rows"], ref))
    return attempted, failed


def oracle_maxima(passes: list) -> dict:
    out = {}
    for metric, (label, field) in ORACLE_MAXIMA.items():
        values = [
            row[field]
            for p in passes for res in p["calls"] if res["label"] == label and res["rows"]
            for row in res["rows"]
        ]
        out[metric] = max(values, default=0.0)
    return out


def bench(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; returns (result object, full report)."""
    workload = WORKLOADS[name]
    case = seed % CASES
    calls = workload.calls(case)
    try:
        refs = load_reference(name, case)
    except (OSError, KeyError) as exc:
        raise BenchError(f"no reference for {name} case {case}: {exc}") from exc
    env = environment()
    ticks0 = cpu_ticks()
    checks, problems, computed, setup = [], [], {}, []
    with workdir_for(calls) as workdir:
        if trace:
            untraced = run_pass(calls, workdir, traced=False, threads=workload.threads)
            checks.append(check_rows(calls, untraced["calls"], refs))
        elif workload.thread_check:
            single = run_pass(calls, workdir, traced=False, threads=1)
            checks.append(check_rows(calls, single["calls"], refs))

        # a pass starts while it is expected to end before --seconds plus half a pass
        # (traced runs need two passes to compare counts)
        passes = []
        t_start = time.perf_counter()
        while (
            len(passes) < (2 if trace else 1)
            or time.perf_counter() - t_start + statistics.median(p["wall_s"] for p in passes) / 2 <= seconds
        ):
            if not trace:
                # imports are timed between passes so that they sample the whole run
                setup += [time_import(workdir) for _ in range(SETUP_PER_PASS)]
            p = run_pass(calls, workdir, traced=trace, threads=workload.threads)
            checks.append(check_rows(calls, p["calls"], refs))
            passes.append(p)
        setup += [time_import(workdir) for _ in range(SETUP_MIN - len(setup))] if not trace else []

    if not trace and workload.thread_check:
        for one, two in zip(single["calls"], passes[0]["calls"]):
            if json.dumps(one["rows"]) != json.dumps(two["rows"]):
                problems.append(f"{one['label']}: rows differ between --threads 1 and --threads {workload.threads}")
                checks.append((len(refs[one["label"]]["rows"]),) * 2)

    attempted = sum(a for a, _ in checks)
    failed = sum(f for _, f in checks)
    rows = sum(len(refs[c.label]["rows"]) for c in calls)
    walls = [p["wall_s"] for p in passes]
    computed.update(oracle_maxima(passes))
    if not trace:
        computed.update({
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
            "rows_per_s": statistics.median(rows / w for w in walls),
            "ok_frac": 1.0 - failed / attempted,
        })
    else:
        summaries = [pass_summary(p["calls"], workload.threads) for p in passes]
        computed.update(layer_metrics(summaries))
        computed["trace_overhead_frac"] = statistics.median(walls) / untraced["wall_s"] - 1.0
        first = summaries[0]["counts"]
        for k, s in enumerate(summaries[1:], start=2):
            diff = sorted(key for key in first.keys() | s["counts"].keys() if first.get(key) != s["counts"].get(key))
            if diff:
                problems.append(f"counts of traced pass {k} differ from pass 1: {diff}")
        problems += [
            f"binding {site} was never hit" for site in workload.expected_sites if not summaries[0]["hits"].get(site)
        ]

    ticks1 = cpu_ticks()
    env["cpu_steal_frac"] = (ticks1[1] - ticks0[1]) / max(ticks1[0] - ticks0[0], 1)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": select_metrics(computed, "per_layer" if trace else "end_to_end"),
    }
    report = {
        "workload": name,
        "seed": seed,
        "case": case,
        "trace": int(trace),
        "environment": env,
        "passes": len(passes),
        "pass_wall_s": walls,
        "setup_samples_s": setup,
        "rows_per_pass": rows,
        "fail_frac": failed / attempted,
        "problems": problems,
        "computed": computed,
        "result": result,
    }
    return result, report


def select_metrics(computed: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under `kind`, with their units."""
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            specs = json.load(fh)[kind]
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        raise BenchError(f"BENCHMARK.json: {exc}") from exc
    layers = {layer for table in LAYER_OF.values() for layer in table.values()} | {"model.scheme_build"}
    layer_names = {f"{layer}.{suffix}" for layer in layers for suffix in ("calls", "self_s", "call_p50_s", "call_p90_s")}
    metrics = {}
    for spec in specs:
        if spec["name"] in computed:
            value = computed[spec["name"]]
        elif kind == "per_layer" and spec["name"] in layer_names:
            value = 0  # layer not reached by this workload, or too few calls for percentiles
        else:
            raise BenchError(f"BENCHMARK.json names {spec['name']!r}, which the benchmark does not compute")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return metrics


def print_report(report: dict) -> None:
    err = sys.stderr
    print(f"== {report['workload']} seed={report['seed']} case={report['case']} "
          f"trace={report['trace']} passes={report['passes']} rows/pass={report['rows_per_pass']}", file=err)
    print("   environment: " + json.dumps(report["environment"]), file=err)
    print(f"   fail_frac: {report['fail_frac']:.6g} ({report['result']['failed']} of "
          f"{report['result']['attempted']} rows)", file=err)
    for problem in report["problems"]:
        print(f"   PROBLEM: {problem}", file=err)
    for name, m in report["result"]["metrics"].items():
        value = f"{m['value']:.6g}" if isinstance(m["value"], float) else str(m["value"])
        print(f"   {name:40s} {value:<14s} {m['unit']}", file=err)
    if report["trace"]:
        for name, _, _ in BASELINE_SHAPES:
            if not report["computed"][name]:
                print(f"   {name}: shape not reached by this workload", file=err)


def record(names: list) -> None:
    """Re-record the named workloads' reference rows, one untraced pass per case."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        cases = {}
        for case in range(CASES):
            calls = workload.calls(case)
            with workdir_for(calls) as workdir:
                p = run_pass(calls, workdir, traced=False, threads=workload.threads)
            for res in p["calls"]:
                if res["rows"] is None or any(r.get("ok", 1) != 1 for r in res["rows"]):
                    raise BenchError(f"{name} case {case} {res['label']}: failed, not recorded")
            cases[str(case)] = {
                call.label: reference_rows(call, res["rows"]) for call, res in zip(calls, p["calls"])
            }
            print(f"recorded {name} case {case}: {p['wall_s']:.2f} s", file=sys.stderr)
        with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(cases, fh, separators=(",", ":"))
            fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record the workload's reference rows")
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not (ROOT / "src" / "skewcmv" / "cli.py").is_file():
            raise BenchError(f"no skewcmv sources under {ROOT / 'src'}")
        if args.record:
            record(names)
            return 0
        combined = {}
        traces = (False, True) if args.workload == "all" else (bool(args.trace),)
        for name in names:
            for trace in traces:
                result, report = bench(name, args.seed, args.seconds, trace)
                print_report(report)
                with open(OUT / f"report-{name}-trace{int(trace)}.json", "w") as fh:
                    json.dump(report, fh, indent=1)
                combined.setdefault(name, {})["per_layer" if trace else "end_to_end"] = result
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result if args.workload != "all" else combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
