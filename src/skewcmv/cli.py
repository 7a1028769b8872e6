"""Batch experiment runner: every diagnostic as a subcommand with reproducible outputs.

One binary, one task per invocation, JSON config file overridable by flags.
Runs are deterministic given the config: sampling seeds are explicit, sweep
cells derive their seeds by hashing (base seed, cell index), and the hash of
the effective config is embedded in every output row.  Outputs are written
atomically; the exit status is nonzero exactly when a hard invariant
(unitarity, determinant preservation, oracle agreement) fails somewhere in the
batch.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import io
import itertools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .cmv import BoundaryPair, assemble_window
from .cocycle import scaling_factor, transfer_product, transfer_via_determinants
from .green import davis_simon_gap, green_entry_via_polys, green_matrix, restriction_residual
from .localization import localization_scan, window_spectrum
from .lyapunov import (
    SamplingConfig,
    avalanche_residual,
    deviation_profile,
    estimate_Ln,
    multiscale_residual,
    positivity_margin,
    uniform_bound_check,
)
from .model import (
    Frequency,
    Phase,
    TrigPolynomial,
    VerblunskyScheme,
    diophantine_margin,
    scheme_from_json,
    scheme_to_json,
)

TASKS = (
    "lyapunov",
    "ldt",
    "avalanche",
    "multiscale",
    "positivity",
    "uniform-bound",
    "green-check",
    "davis-simon",
    "restriction-check",
    "spectrum",
    "localize",
    "dio-check",
    "detform-check",
)


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    scheme: VerblunskyScheme | None
    params: dict
    sampling: SamplingConfig
    out_path: str
    out_format: str  # "csv" | "json"
    threads: int

    def canonical(self) -> dict:
        return {
            "task": self.task,
            "scheme": json.loads(scheme_to_json(self.scheme)) if self.scheme else None,
            "params": self.params,
            "sampling": {
                "mode": self.sampling.mode,
                "grid_side": self.sampling.grid_side,
                "sample_count": self.sampling.sample_count,
                "rng_seed": self.sampling.rng_seed,
            },
        }

    @property
    def config_hash(self) -> str:
        text = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _param(p: dict, key: str, default, kind=float, lo=None):
    """`p[key]`, or `default` when absent, converted by `kind`; ConfigError naming the key if not finite or below `lo`."""
    try:
        value = kind(p.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"params.{key}: {exc}") from exc
    if not cmath.isfinite(value):
        raise ConfigError(f"params.{key} must be finite, got {value}")
    if lo is not None and value < lo:
        raise ConfigError(f"params.{key} must be >= {lo}, got {value}")
    return value


def _param_list(p: dict, key: str, default, kind=float, lo=None, ascending=False) -> list:
    """`p[key]`, or `default` when absent, as a nonempty list whose entries `_param` converts and checks.

    ConfigError naming the key when the value is not a nonempty list, when an
    entry fails, or, with `ascending`, when the entries are not sorted.
    """
    values = p.get(key, default)
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"params.{key} must be a nonempty list, got {values!r}")
    out = [_param({key: v}, key, None, kind, lo) for v in values]
    if ascending and any(b < a for a, b in zip(out, out[1:])):
        raise ConfigError(f"params.{key} must be sorted ascending, got {out}")
    return out


def _complex(value) -> complex:
    """A complex parameter given as [re, im], a number, or a string such as "1+2j"."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    if isinstance(value, (int, float, str)):
        return complex(value)
    raise TypeError(f"cannot parse {value!r} as a complex number")


def _z_list(params: dict) -> list:
    if "z_list" in params:
        return _param_list(params, "z_list", None, _complex)
    if "z_circle" in params:
        k = _param(params, "z_circle", None, int, lo=1)
        return [np.exp(2j * np.pi * (i + 0.5) / k) for i in range(k)]
    return [_param(params, "z", [1.0, 0.0], _complex)]


def _derive_seed(base: int, index: int) -> int:
    digest = hashlib.sha256(f"{base}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def _random_scheme(rng: np.random.Generator, max_coupling: float = 0.9) -> VerblunskyScheme:
    """Deterministic random scheme for the self-checking tasks."""
    n_terms = int(rng.integers(1, 4))
    coeffs = {}
    for _ in range(n_terms):
        k = int(rng.integers(-2, 3))
        l = int(rng.integers(-2, 3))
        if (k, l) == (0, 0) and n_terms > 1:
            k = 1
        coeffs[(k, l)] = (rng.random() + 0.2) * np.exp(2j * np.pi * rng.random())
    poly = TrigPolynomial(coeffs)
    scale = poly.ell1()
    poly = TrigPolynomial({kl: c / scale for kl, c in poly.coefficients.items()})
    coupling = float(rng.uniform(0.0, max_coupling))
    return VerblunskyScheme(
        sampler=poly,
        coupling=coupling,
        frequency=Frequency(float(rng.random())),
        base=Phase(float(rng.random()), float(rng.random())),
    )


def _random_unimodular(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.random()))


def _offcircle_z(rng, eigs, dist_min: float, radius_range=(1.0, 1.5)) -> complex:
    for _ in range(256):
        z = rng.uniform(*radius_range) * np.exp(2j * np.pi * rng.random())
        if np.min(np.abs(z - eigs)) >= dist_min:
            return complex(z)
    raise RuntimeError("could not place z away from the spectrum")


def _oncircle_z(rng, eigs, dist_min: float) -> complex:
    for _ in range(256):
        z = np.exp(2j * np.pi * rng.random())
        if np.min(np.abs(z - eigs)) >= dist_min:
            return complex(z)
    raise RuntimeError("could not place z away from the spectrum")


# --- task implementations ----------------------------------------------------
# each returns (rows, hard_failures, summary_fragment)

def _task_dio_check(cfg: ExperimentConfig, rng):
    p = cfg.params
    omega = _param(p, "omega", cfg.scheme.frequency.omega if cfg.scheme else 0.5)
    eps = _param(p, "epsilon", 0.1)
    horizon = _param(p, "horizon", 10000, int, lo=1)
    cert = diophantine_margin(Frequency(omega), eps, horizon)
    row = {
        "omega": omega,
        "epsilon": eps,
        "horizon": horizon,
        "margin": cert.margin,
        "worst_n": cert.worst_n,
        "passes": int(cert.passes),
    }
    return [row], 0, f"margin={cert.margin:.6g} at n={cert.worst_n}"


def _task_lyapunov(cfg: ExperimentConfig, rng):
    p = cfg.params
    n = _param(p, "n", 100, int, lo=1)
    zs = _z_list(p)
    rows = [
        {
            "n": n,
            "z_re": z.real,
            "z_im": z.imag,
            "mean": est.mean,
            "stderr": est.std_error,
            "samples": est.samples,
            "seed": cfg.sampling.rng_seed,
        }
        for z, est in zip(zs, estimate_Ln(cfg.scheme, zs, n, cfg.sampling))
    ]
    return rows, 0, f"{len(rows)} estimates at n={n}"


def _task_ldt(cfg: ExperimentConfig, rng):
    p = cfg.params
    z = _param(p, "z", [1.0, 0.0], _complex)
    n_list = _param_list(p, "n_list", [20, 40, 80], int, lo=1)
    P = scaling_factor(cfg.scheme, z).value
    if "thresholds" in p:
        thresholds = _param_list(p, "thresholds", None, ascending=True)
    else:
        thresholds = [f * P for f in _param_list(p, "threshold_factors", [0.1], ascending=True)]
    rows = []
    for n in n_list:
        prof = deviation_profile(cfg.scheme, z, n, thresholds, cfg.sampling)
        for t, m in zip(prof.thresholds, prof.measure):
            rows.append(
                {"n": n, "z_re": z.real, "z_im": z.imag, "threshold": t, "measure": m, "P": P}
            )
    return rows, 0, f"profiles at n={n_list}"


def _task_avalanche(cfg: ExperimentConfig, rng):
    p = cfg.params
    mode = p.get("mode", "hyperbolic")
    count = _param(p, "count", 50, int, lo=3)
    mu = _param(p, "mu", 1e3)
    if mode == "diagonal":
        mats = [np.diag([mu, 1.0 / mu]) for _ in range(count)]
    elif mode == "hyperbolic":
        mats = []
        for _ in range(count):
            m = mu * rng.uniform(1.0, 10.0)
            phi = rng.uniform(-0.3, 0.3)
            c, s = np.cos(phi), np.sin(phi)
            mats.append(np.array([[c, -s], [s, c]]) @ np.diag([m, 1.0 / m]))
    elif mode == "cocycle":
        if cfg.scheme is None:
            raise ConfigError("scheme: avalanche cocycle mode requires a scheme")
        from .model import orbit_point

        block = _param(p, "block", 40, int, lo=1)
        z = _param(p, "z", [1.0, 0.0], _complex)
        mats = []
        for j in range(count):
            start = orbit_point(cfg.scheme.base, cfg.scheme.frequency, j * block)
            fp = transfer_product(cfg.scheme, block, z, base=np.array([start.x, start.y]))
            if fp.log_scale > 600.0:
                raise ConfigError("params.block: block products overflow; reduce block length")
            mats.append(fp.value())
    else:
        raise ConfigError(f"params.mode: unknown avalanche mode {mode!r}")
    rep = avalanche_residual(mats)
    row = {
        "mode": mode,
        "count": count,
        "residual": rep.residual,
        "mu_floor": rep.mu_floor,
        "gap": rep.gap,
        "n_over_mu": rep.n_over_mu,
        "hypothesis_ok": int(rep.hypothesis_ok),
    }
    failures = 1 if (mode == "diagonal" and rep.residual > 1e-8) else 0
    return [row], failures, f"residual={rep.residual:.3e} (n/mu={rep.n_over_mu:.2e})"


def _task_multiscale(cfg: ExperimentConfig, rng):
    p = cfg.params
    n = _param(p, "n", 10, int, lo=1)
    N = _param(p, "N", 100, int, lo=n * n)
    z = _param(p, "z", [1.0, 0.0], _complex)
    res = multiscale_residual(cfg.scheme, z, n, N, cfg.sampling)
    P = scaling_factor(cfg.scheme, z).value
    row = {
        "n": n,
        "N": N,
        "z_re": z.real,
        "z_im": z.imag,
        "residual": res.residual,
        "P": P,
        "bound_5PnN": 5.0 * P * n / N,
        "L_n": res.at_n.mean,
        "L_2n": res.at_2n.mean,
        "L_N": res.at_N.mean,
        "stderr_N": res.at_N.std_error,
    }
    return [row], 0, f"residual={res.residual:.4f} vs 5Pn/N={row['bound_5PnN']:.4f}"


def _task_positivity(cfg: ExperimentConfig, rng):
    p = cfg.params
    n = _param(p, "n", 200, int, lo=1)
    z = _param(p, "z", [1.0, 0.0], _complex)
    pm = positivity_margin(cfg.scheme, z, n, cfg.sampling)
    row = {
        "lambda": cfg.scheme.coupling,
        "n": n,
        "z_re": z.real,
        "z_im": z.imag,
        "mean": pm.estimate.mean,
        "stderr": pm.estimate.std_error,
        "bound": pm.bound,
        "margin": pm.margin,
    }
    return [row], 0, f"margin={pm.margin:.4f}"


def _task_uniform_bound(cfg: ExperimentConfig, rng):
    p = cfg.params
    n0 = _param(p, "n0", 50, int, lo=1)
    N = _param(p, "N", 500, int, lo=n0 + 1)
    grid = _param(p, "grid_side", 32, int, lo=1)
    sigma0 = _param(p, "sigma0", 0.5)
    z = _param(p, "z", [1.0, 0.0], _complex)
    rep = uniform_bound_check(cfg.scheme, z, n0, N, grid, sigma0)
    row = {
        "n0": n0,
        "N": N,
        "grid_side": grid,
        "sigma0": sigma0,
        "max_over_grid": rep.max_over_grid,
        "reference": rep.reference,
        "holds": int(rep.holds),
    }
    return [row], 0, f"max={rep.max_over_grid:.4f} ref={rep.reference:.4f}"


def _task_green_check(cfg: ExperimentConfig, rng):
    p = cfg.params
    instances = _param(p, "instances", 100, int, lo=1)
    max_size = _param(p, "max_size", 32, int, lo=4)
    tol = _param(p, "tolerance", 1e-8)
    rows = []
    failures = 0
    for i in range(instances):
        s = _random_scheme(rng)
        size = int(rng.integers(4, max_size + 1))
        a = int(rng.integers(-3, 4))
        bc = BoundaryPair(_random_unimodular(rng), _random_unimodular(rng))
        w = assemble_window(s, (a, a + size - 1), bc)
        eigs = np.linalg.eigvals(w.matrix)
        z = _oncircle_z(rng, eigs, _param(p, "dist_min", 1e-3))
        j = int(rng.integers(w.a, w.b + 1))
        k = int(rng.integers(j, w.b + 1))
        direct = abs(green_matrix(w, z).entry(j, k))
        formula = green_entry_via_polys(w, j, k, z)
        rel = abs(formula - direct) / max(direct, 1e-300)
        ok = rel < tol
        failures += 0 if ok else 1
        rows.append(
            {"instance": i, "size": size, "a": w.a, "b": w.b, "j": j, "k": k,
             "z_re": z.real, "z_im": z.imag, "rel_err": rel, "ok": int(ok)}
        )
    return rows, failures, f"{instances} instances, {failures} failures"


def _task_davis_simon(cfg: ExperimentConfig, rng):
    p = cfg.params
    instances = _param(p, "instances", 200, int, lo=1)
    max_size = _param(p, "max_size", 32, int, lo=2)
    rows = []
    failures = 0
    for i in range(instances):
        s = _random_scheme(rng)
        size = int(rng.integers(2, max_size + 1))
        a = int(rng.integers(-3, 4))
        bc = BoundaryPair(_random_unimodular(rng), _random_unimodular(rng))
        w = assemble_window(s, (a, a + size - 1), bc)
        eigs = np.linalg.eigvals(w.matrix)
        z = _offcircle_z(rng, eigs, 1e-6)
        gap = davis_simon_gap(w, z)
        ok = gap.holds
        failures += 0 if ok else 1
        rows.append(
            {"instance": i, "size": size, "z_re": z.real, "z_im": z.imag,
             "product": gap.product, "bound": gap.bound, "ok": int(ok)}
        )
    return rows, failures, f"{instances} instances, {failures} failures"


def _task_restriction_check(cfg: ExperimentConfig, rng):
    p = cfg.params
    instances = _param(p, "instances", 40, int, lo=1)
    tol = _param(p, "tolerance", 1e-8)
    rows = []
    failures = 0
    parities = [(8, 24), (9, 25), (8, 25), (9, 24)]
    for i in range(instances):
        s = _random_scheme(rng, max_coupling=0.8)
        a, b = parities[i % 4]
        bc_outer = BoundaryPair(_random_unimodular(rng), _random_unimodular(rng))
        big = assemble_window(s, (0, 31), bc_outer)
        vals, vecs = np.linalg.eig(big.matrix)
        bc_inner = BoundaryPair(_random_unimodular(rng), _random_unimodular(rng))
        inner = assemble_window(s, (a, b), bc_inner)
        inner_eigs = np.linalg.eigvals(inner.matrix)
        dists = np.array([np.min(np.abs(zv - inner_eigs)) for zv in vals])
        pick = int(np.argmax(dists))
        z, v = complex(vals[pick]), vecs[:, pick]
        psi = v[a - 1 : b + 2]
        resid = restriction_residual(inner, z, psi)
        ok = resid < tol
        failures += 0 if ok else 1
        rows.append(
            {"instance": i, "a": a, "b": b,
             "parity": f"{'e' if a % 2 == 0 else 'o'}{'e' if b % 2 == 0 else 'o'}",
             "dist": float(dists[pick]), "residual": resid, "ok": int(ok)}
        )
    return rows, failures, f"{instances} instances, {failures} failures"


def _task_spectrum(cfg: ExperimentConfig, rng):
    p = cfg.params
    size = _param(p, "size", 64, int, lo=2)
    a = _param(p, "a", 0, int)
    bc = BoundaryPair(_param(p, "beta", [1.0, 0.0], _complex), _param(p, "gamma", [1.0, 0.0], _complex))
    w = assemble_window(cfg.scheme, (a, a + size - 1), bc)
    pairs = window_spectrum(w)
    rows = []
    for pr in pairs:
        ok = _eigenpair_ok(pr.value, pr.residual, bc)
        rows.append(
            {"eig_re": pr.value.real, "eig_im": pr.value.imag,
             "modulus_dev": abs(abs(pr.value) - 1.0), "residual": pr.residual, "ok": int(ok)}
        )
    failures = sum(1 - r["ok"] for r in rows)
    return rows, failures, f"{size} eigenpairs, {failures} failures"


def _eigenpair_ok(value: complex, residual: float, bc: BoundaryPair) -> bool:
    """The eigen invariants: residual below 1e-8 and, under a unimodular boundary, |w| = 1 to 1e-8."""
    return residual < 1e-8 and (abs(abs(value) - 1.0) < 1e-8 or not bc.unimodular)


def _task_localize(cfg: ExperimentConfig, rng):
    p = cfg.params
    size = _param(p, "size", 128, int, lo=64)
    bc = BoundaryPair(_param(p, "beta", [1.0, 0.0], _complex), _param(p, "gamma", [1.0, 0.0], _complex))
    reports = localization_scan(
        cfg.scheme,
        size,
        bc,
        cfg.sampling,
        rate_factor=_param(p, "rate_factor", 0.5),
        r2_min=_param(p, "r2_min", 0.9),
        scale=_param(p, "scale", None, int, lo=1) if "scale" in p else None,
    )
    rows = [
        {
            "size": size,
            "lambda": cfg.scheme.coupling,
            "omega": cfg.scheme.frequency.omega,
            "eig_re": r.eigenvalue.real,
            "eig_im": r.eigenvalue.imag,
            "center": r.center,
            "rate": r.rate,
            "r2": r.r2,
            "ipr": r.ipr,
            "L_ref": r.lyapunov_ref,
            "localized_flag": int(r.localized),
        }
        for r in reports
    ]
    frac = float(np.mean([r.localized for r in reports])) if reports else 0.0
    failures = sum(not _eigenpair_ok(r.eigenvalue, r.residual, bc) for r in reports)
    return rows, failures, f"{len(rows)} eigenpairs, localized fraction {frac:.3f}"


def _task_detform_check(cfg: ExperimentConfig, rng):
    p = cfg.params
    instances = _param(p, "instances", 100, int, lo=1)
    n_min = _param(p, "n_min", 2, int, lo=2)
    n_max = _param(p, "n_max", 12, int, lo=n_min)
    tol = _param(p, "tolerance", 1e-8)
    rows = []
    failures = 0
    for i in range(instances):
        s = _random_scheme(rng)
        n = int(rng.integers(n_min, n_max + 1))
        z = complex(np.exp(2j * np.pi * rng.random()))
        direct = transfer_product(s, n, z).value()
        viadet = transfer_via_determinants(s, n, z)
        scale = float(np.max(np.abs(direct)))
        rel = min(
            float(np.max(np.abs(viadet - direct))), float(np.max(np.abs(viadet + direct)))
        ) / max(scale, 1e-300)
        ok = rel < tol
        failures += 0 if ok else 1
        rows.append({"instance": i, "n": n, "z_re": z.real, "z_im": z.imag,
                     "rel_err": rel, "ok": int(ok)})
    return rows, failures, f"{instances} instances, {failures} failures"


_TASK_FNS = {
    "dio-check": _task_dio_check,
    "lyapunov": _task_lyapunov,
    "ldt": _task_ldt,
    "avalanche": _task_avalanche,
    "multiscale": _task_multiscale,
    "positivity": _task_positivity,
    "uniform-bound": _task_uniform_bound,
    "green-check": _task_green_check,
    "davis-simon": _task_davis_simon,
    "restriction-check": _task_restriction_check,
    "spectrum": _task_spectrum,
    "localize": _task_localize,
    "detform-check": _task_detform_check,
}

_NEEDS_SCHEME = {
    "lyapunov", "ldt", "multiscale", "positivity", "uniform-bound", "spectrum", "localize",
}


def run(cfg: ExperimentConfig):
    """Execute one task; returns (rows, failures, summary). Rows carry the config hash."""
    if cfg.task not in _TASK_FNS:
        raise ConfigError(f"task: unknown task {cfg.task!r}")
    if cfg.task in _NEEDS_SCHEME and cfg.scheme is None:
        raise ConfigError(f"scheme: task {cfg.task!r} requires a scheme")
    rng = np.random.default_rng(cfg.sampling.rng_seed)
    rows, failures, summary = _TASK_FNS[cfg.task](cfg, rng)
    h = cfg.config_hash
    for r in rows:
        r["config_hash"] = h
    return rows, failures, summary


# --- sweep -------------------------------------------------------------------

_AXIS_TARGETS = {"lambda", "omega", "n", "size", "z"}


def _apply_axis(doc: dict, parameter: str, value) -> dict:
    doc = json.loads(json.dumps(doc))  # deep copy
    if parameter == "lambda":
        doc["scheme"]["lambda"] = value
    elif parameter == "omega":
        doc["scheme"]["omega"] = value
    elif parameter in ("n", "size"):
        doc.setdefault("params", {})[parameter] = value
    elif parameter == "z":
        doc.setdefault("params", {})["z"] = value
    else:
        raise ConfigError(f"sweep.axes: unsupported parameter {parameter!r}")
    return doc


def run_sweep(doc: dict, axes: list, threads: int):
    """Cartesian sweep; per-cell seed = hash(base seed, cell index); merged in cell order."""
    for ax in axes:
        if ax["parameter"] not in _AXIS_TARGETS:
            raise ConfigError(f"sweep.axes: unsupported parameter {ax['parameter']!r}")
    base_seed = int(doc.get("sampling", {}).get("rng_seed", 0))
    cells = list(itertools.product(*[[(ax["parameter"], v) for v in ax["values"]] for ax in axes]))

    def one(idx_cell):
        idx, cell = idx_cell
        cell_doc = doc
        for parameter, value in cell:
            cell_doc = _apply_axis(cell_doc, parameter, value)
        cell_doc.setdefault("sampling", {})["rng_seed"] = _derive_seed(base_seed, idx)
        cell_cfg = config_from_doc(cell_doc)
        rows, failures, _ = run(cell_cfg)
        for r in rows:
            r["cell"] = idx
            for parameter, value in cell:
                r[f"axis_{parameter}"] = json.dumps(value) if isinstance(value, list) else value
        return idx, rows, failures

    indexed = list(enumerate(cells))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, indexed))
    else:
        results = [one(ic) for ic in indexed]
    results.sort(key=lambda t: t[0])
    rows = [r for _, cell_rows, _ in results for r in cell_rows]
    failures = sum(f for _, _, f in results)
    return rows, failures, f"{len(cells)} cells, {failures} failures"


# --- config handling and entry point ------------------------------------------

def config_from_doc(doc: dict) -> ExperimentConfig:
    task = doc.get("task")
    if not task:
        raise ConfigError("task: missing")
    scheme = None
    if doc.get("scheme") is not None:
        try:
            scheme = scheme_from_json(json.dumps(doc["scheme"]))
        except (KeyError, TypeError, ValueError) as exc:  # SchemeError is a ValueError
            raise ConfigError(f"scheme: {exc}") from exc
    sampling_doc = doc.get("sampling", {})
    try:
        sampling = SamplingConfig(
            mode=sampling_doc.get("mode", "grid"),
            grid_side=int(sampling_doc.get("grid_side", 24)),
            sample_count=int(sampling_doc.get("sample_count", 1024)),
            rng_seed=int(sampling_doc.get("rng_seed", 0)),
        )
    except ValueError as exc:
        raise ConfigError(f"sampling: {exc}") from exc
    output = doc.get("output", {})
    return ExperimentConfig(
        task=task,
        scheme=scheme,
        params=doc.get("params", {}),
        sampling=sampling,
        out_path=output.get("path", "-"),
        out_format=output.get("format", "csv"),
        threads=int(doc.get("threads", 1)),
    )


def _rows_to_csv(rows: list) -> str:
    if not rows:
        return ""
    fields = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow(r)
    return buf.getvalue()


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit(doc: dict, cfg: ExperimentConfig, rows: list, summary: str) -> None:
    if cfg.out_format == "csv":
        text = _rows_to_csv(rows)
    else:
        text = json.dumps(
            {"config": doc, "config_hash": cfg.config_hash, "summary": summary, "rows": rows},
            sort_keys=True,
            indent=1,
            default=str,
        ) + "\n"
    if cfg.out_path == "-":
        sys.stdout.write(text)
    else:
        _write_atomic(cfg.out_path, text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="skewcmv",
        description="Batch diagnostics for skew-shift CMV operator experiments.",
    )
    parser.add_argument("task", nargs="?", choices=TASKS, help="task name (or use --task / config)")
    parser.add_argument("--task", dest="task_flag", choices=TASKS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="overrides sampling.rng_seed")
    parser.add_argument("--out", help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument(
        "--threads",
        type=int,
        default=int(os.environ.get("CMV_THREADS", "1")),
        help="sweep worker count; affects speed only, never output",
    )
    args = parser.parse_args(argv)

    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"--config: {exc}")
    if args.task or args.task_flag:
        doc["task"] = args.task_flag or args.task
    if args.seed is not None:
        doc.setdefault("sampling", {})["rng_seed"] = args.seed
    if args.out:
        doc.setdefault("output", {})["path"] = args.out
    if args.format:
        doc.setdefault("output", {})["format"] = args.format
    doc["threads"] = args.threads

    try:
        cfg = config_from_doc(doc)
        if "sweep" in doc:
            rows, failures, summary = run_sweep(doc, doc["sweep"]["axes"], cfg.threads)
        else:
            rows, failures, summary = run(cfg)
    except ConfigError as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error exits
    _emit(doc, cfg, rows, summary)
    print(f"task={cfg.task} rows={len(rows)} failures={failures} hash={cfg.config_hash} {summary}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
