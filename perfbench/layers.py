"""Per-layer numbers from the spans that tracer.py records.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Counts (calls, orbit points, cocycle steps, sites) are
read from the spans' shape attributes and must repeat exactly between passes.
"""

from __future__ import annotations

import numpy as np

# per-call timing percentiles are reported for layers with at least this many calls in a pass
PERCENTILE_MIN_CALLS = 100

# ROADMAP baseline-table rows as (metric, span site suffix, attributes); the
# value is the median inclusive duration of the matching calls
BASELINE_SHAPES = (
    ("shape.orbit_n200_S1024.call_s", ".verblunsky_orbit_batch", {"n": 200, "S": 1024}),
    ("shape.product_n200_S1024.call_s", ".product_batch", {"n": 200, "S": 1024}),
    ("shape.estimate_many_z512.call_s", ".estimate_Ln_many", {"z": 512}),
    ("shape.window_spectrum_512.call_s", ".window_spectrum", {"size": 512}),
    ("shape.localization_scan_512.call_s", ".localization_scan", {"size": 512}),
)


def _union_length(intervals) -> float:
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _clip(intervals, lo: float, hi: float) -> list:
    return [(max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi]


class CallSpans:
    """The spans of one traced CLI process, indexed for parent and child lookups."""

    def __init__(self, spans: list):
        self.spans = [
            {"layer": s[0], "site": s[1], "t0": s[2], "t1": s[3], "parent": s[4], "attrs": s[6]}
            for s in spans
        ]
        self.children = {}
        for i, s in enumerate(self.spans):
            self.children.setdefault(s["parent"], []).append(i)

    def self_time(self, i: int) -> float:
        s = self.spans[i]
        kids = [(self.spans[c]["t0"], self.spans[c]["t1"]) for c in self.children.get(i, ())]
        return s["t1"] - s["t0"] - _union_length(_clip(kids, s["t0"], s["t1"]))

    def has_ancestor(self, i: int, layer: str) -> bool:
        p = self.spans[i]["parent"]
        while p >= 0:
            if self.spans[p]["layer"] == layer:
                return True
            p = self.spans[p]["parent"]
        return False


def pass_summary(calls: list, threads: int) -> dict:
    """Totals over the traced processes of one pass of a workload."""
    per_layer = {}  # layer -> list of per-call self times
    counts = {"model.orbit.points": 0, "cocycle.steps": 0, "cocycle.alpha_bytes": 0, "cmv.sites": 0}
    z_evaluated = orbits = 0
    main_s = covered_s = 0.0
    cells, sweep_s = [], 0.0
    shapes = {name: [] for name, _, _ in BASELINE_SHAPES}
    hits = {}
    for call in calls:
        cs = CallSpans(call["spans"])
        for site, n in call["hits"].items():
            hits[site] = hits.get(site, 0) + n
        library = []
        for i, s in enumerate(cs.spans):
            layer, site, attrs = s["layer"], s["site"], s["attrs"]
            dur = s["t1"] - s["t0"]
            per_layer.setdefault(layer, []).append(cs.self_time(i))
            counts["model.orbit.points"] += attrs.get("points", 0)
            counts["cmv.sites"] += attrs.get("sites", 0)
            if layer == "cocycle.product":
                steps = attrs["n"] * attrs["S"]
                counts["cocycle.steps"] += steps
                counts["cocycle.alpha_bytes"] = max(counts["cocycle.alpha_bytes"], 16 * steps)
            if layer == "lyapunov.estimate":
                z_evaluated += attrs.get("z", 0)
            if site.endswith(".verblunsky_orbit_batch") and cs.has_ancestor(i, "lyapunov.estimate"):
                orbits += 1
            if site == "cli.main":
                main_s += dur
                main_span = (s["t0"], s["t1"])
            elif site == "cli.run_sweep":
                sweep_s += dur
            elif site == "cli.run" and s["parent"] >= 0 and cs.spans[s["parent"]]["site"] == "cli.run_sweep":
                cells.append(dur)
            if layer != "cli":
                library.append((s["t0"], s["t1"]))
            for name, suffix, want in BASELINE_SHAPES:
                if site.endswith(suffix) and all(attrs.get(k) == v for k, v in want.items()):
                    shapes[name].append(dur)
        covered_s += _union_length(_clip(library, *main_span))
    counts.update({f"{layer}.calls": len(v) for layer, v in per_layer.items()})
    counts.update({f"site.{site}": n for site, n in hits.items()})
    return {
        "per_layer": per_layer,
        "counts": counts,
        "hits": hits,
        "uncovered_frac": 1.0 - covered_s / main_s,
        "orbit_reuse": z_evaluated / orbits if orbits else 0.0,
        "cell_s_max": max(cells, default=0.0),
        "parallel_eff": sum(cells) / (threads * sweep_s) if sweep_s else 0.0,
        "shapes": shapes,
    }


def layer_metrics(passes: list) -> dict:
    """Per-layer metrics over the traced passes: medians of per-pass values, pooled percentiles."""
    out = {}
    layers = sorted({layer for p in passes for layer in p["per_layer"]})
    for layer in layers:
        per_pass = [p["per_layer"].get(layer, []) for p in passes]
        out[f"{layer}.calls"] = len(per_pass[0])
        out[f"{layer}.self_s"] = float(np.median([sum(v) for v in per_pass]))
        if len(per_pass[0]) >= PERCENTILE_MIN_CALLS:
            pooled = np.concatenate(per_pass)
            out[f"{layer}.call_p50_s"], out[f"{layer}.call_p90_s"] = (
                float(x) for x in np.percentile(pooled, [50, 90])
            )
    for key in ("model.orbit.points", "cocycle.steps", "cocycle.alpha_bytes", "cmv.sites"):
        out[key] = passes[0]["counts"][key]
    for name, key in (
        ("uncovered_frac", "uncovered_frac"),
        ("lyapunov.orbit_reuse", "orbit_reuse"),
        ("cli.sweep.cell_s_max", "cell_s_max"),
        ("cli.sweep.parallel_eff", "parallel_eff"),
    ):
        out[name] = float(np.median([p[key] for p in passes]))
    for name, _, _ in BASELINE_SHAPES:
        durations = [d for p in passes for d in p["shapes"][name]]
        out[name] = float(np.median(durations)) if durations else 0.0
    return out
