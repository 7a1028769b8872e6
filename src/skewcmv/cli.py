"""Batch experiment runner: every diagnostic as a subcommand with reproducible outputs.

One binary, one task per invocation, JSON config file overridable by flags.
Runs are deterministic given the config: sampling seeds are explicit, sweep
cells derive their seeds by hashing (base seed, cell index), and every output
row embeds the hash of the config as written (`params` as given, so a default
written out changes the hash but not the rows).  Outputs are written
atomically.  The exit status is 1 when a checked invariant fails somewhere in
the batch: an oracle row of `green-check`, `davis-simon`, `restriction-check`
or `detform-check`, an eigen residual or |w| - 1 of `spectrum` and `localize`,
or the residual of `avalanche` in diagonal mode.  The other tasks check no
invariant and always count 0 failures; ROADMAP item 2 (a run ledger) is to
change that.
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
from dataclasses import asdict, dataclass, replace

import numpy as np

from .cmv import BoundaryPair, _in_disk, assemble_window
from .cocycle import product_batch, scaling_factor, transfer_product, transfer_via_determinants
from .green import davis_simon_gap, green_entry_via_polys, green_matrix, restriction_residual
from .localization import localization_scan, window_spectrum
from .lyapunov import (
    PHASE_TILE,
    SamplingConfig,
    _fork_map,
    _phase_workers,
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
    verblunsky_range,
)


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    scheme: VerblunskyScheme | None
    params: dict  # as given; the hash is taken over these
    values: dict  # every parameter of the task, parsed and checked, defaults filled in
    sampling: SamplingConfig
    out_path: str
    out_format: str  # "csv" | "json"

    def canonical(self) -> dict:
        return {
            "task": self.task,
            "scheme": json.loads(scheme_to_json(self.scheme)) if self.scheme else None,
            "params": self.params,
            "sampling": asdict(self.sampling),
        }

    @property
    def config_hash(self) -> str:
        text = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class Param:
    """One config field: its converter, its default and its checks.

    With default None the field is None unless given.  `lo` and `hi` are bounds,
    each a value or a function of the fields parsed before this one.
    """

    name: str
    kind: object = float
    default: object = None
    lo: object = None
    hi: object = None
    choices: tuple = ()
    many: bool = False  # a nonempty list of such values
    ascending: bool = False


@dataclass(frozen=True)
class Task:
    fn: object  # fn(cfg, rng, **parsed params) -> (rows, hard_failures, summary)
    needs_scheme: bool
    params: tuple
    exclusive: tuple = ()  # groups of params of which at most one may be given
    sampled: bool = False  # reads the sampling plan; other tasks take only sampling.rng_seed


def _complex(value) -> complex:
    """A complex parameter given as [re, im], a number, or a string such as "1+2j"."""
    if isinstance(value, (list, tuple)) and len(value) == 2 and not any(isinstance(v, bool) for v in value):
        return complex(float(value[0]), float(value[1]))
    if isinstance(value, (int, float, str)):
        return complex(value)
    raise TypeError(f"cannot parse {value!r} as a complex number")


def _positive(value) -> float:
    v = float(value)
    if not v > 0:
        raise ValueError(f"must be > 0, got {v}")
    return v


def _boundary(value) -> complex:
    """A boundary value beta or gamma: complex, in the closed unit disk as BoundaryPair requires."""
    return _in_disk("value", _complex(value))


def _spectral(value) -> complex:
    """A spectral parameter z: complex and nonzero, since the cocycle divides by sqrt(z)."""
    z = _complex(value)
    if z == 0:
        raise ValueError("the spectral parameter must be nonzero")
    return z


def _text(value) -> str:
    if not isinstance(value, str) or not value:
        raise TypeError(f"expected a nonempty string, got {value!r}")
    return value


def _as_is(value):
    return value


def _value(where: str, p: Param, value, earlier: dict):
    """`value` converted by `p.kind` and checked against `p`; ConfigError naming `where` if it fails."""
    if p.many:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{where} must be a nonempty list, got {value!r}")
        out = [_value(where, replace(p, many=False), v, earlier) for v in value]
        if p.ascending and any(b < a for a, b in zip(out, out[1:])):
            raise ConfigError(f"{where} must be sorted ascending, got {out}")
        return out
    if isinstance(value, bool):  # int() and float() would read true as 1
        raise ConfigError(f"{where} must not be a boolean, got {json.dumps(value)}")
    if p.kind is int and isinstance(value, float) and not value.is_integer():  # int() would truncate
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    try:
        value = p.kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if p.choices and value not in p.choices:
        raise ConfigError(f"{where} must be one of {', '.join(p.choices)}, got {value!r}")
    if isinstance(value, (int, float, complex)) and not cmath.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value}")
    if p.kind is int and not -(2**63) <= value < 2**63:  # numpy takes the sizes and seeds as int64
        raise ConfigError(f"{where} must fit in int64, got {value:.6g}")
    lo = p.lo(earlier) if callable(p.lo) else p.lo
    if lo is not None and value < lo:
        raise ConfigError(f"{where} must be >= {lo}, got {value}")
    hi = p.hi(earlier) if callable(p.hi) else p.hi
    if hi is not None and value > hi:
        raise ConfigError(f"{where} must be <= {hi}, got {value}")
    return value


def _keys(task: str, where: str, obj, allowed) -> dict:
    """`obj` if it is a JSON object whose keys all lie in `allowed`; else ConfigError naming the key."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object, got {obj!r}")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}{'.' if where else ''}{key}: unknown key for task {task!r}")
    return obj


def _fields(task: str, where: str, obj, params: tuple, exclusive: tuple = ()) -> dict:
    """Each of `params` parsed from the JSON object `obj`, in order, its default filled in when absent."""
    _keys(task, where, obj, [p.name for p in params])
    for group in exclusive:
        clash = [f"{where}.{key}" for key in group if key in obj]
        if len(clash) > 1:
            raise ConfigError(f"{' and '.join(clash)}: give at most one of them")
    values = {}
    for p in params:
        given = p.name in obj
        value = obj[p.name] if given else p.default
        values[p.name] = _value(f"{where}.{p.name}", p, value, values) if given or value is not None else None
    return values


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


def _random_boundary(rng) -> BoundaryPair:
    """Random unimodular beta and gamma, drawn in that order."""
    beta = np.exp(2j * np.pi * rng.random())
    return BoundaryPair(beta, np.exp(2j * np.pi * rng.random()))


def _random_z(rng, window, dist_min: float, max_radius: float = 1.0) -> complex:
    """A random z at distance >= dist_min from the window's spectrum, with |z| drawn from [1, max_radius) if above 1."""
    eigs = np.linalg.eigvals(window.matrix)
    for _ in range(256):
        radius = rng.uniform(1.0, max_radius) if max_radius > 1.0 else 1.0
        z = radius * np.exp(2j * np.pi * rng.random())
        if np.min(np.abs(z - eigs)) >= dist_min:
            return complex(z)
    raise ConfigError(f"params.dist_min: could not place z at distance >= {dist_min} from the spectrum")


# --- task implementations ----------------------------------------------------
# each takes its parsed params as keywords and returns (rows, hard_failures, summary_fragment)

def _checked(rows: list, unit: str = "instances"):
    """The result of a task whose rows each carry ok = 0 or 1; each ok = 0 is a hard failure."""
    failures = sum(1 - r["ok"] for r in rows)
    return rows, failures, f"{len(rows)} {unit}, {failures} failures"


def _task_dio_check(cfg: ExperimentConfig, rng, omega, epsilon, horizon):
    if omega is None:
        omega = cfg.scheme.frequency.omega if cfg.scheme else 0.5
    cert = diophantine_margin(Frequency(omega), epsilon, horizon)
    row = {
        "omega": omega,
        "epsilon": epsilon,
        "horizon": horizon,
        "margin": cert.margin,
        "worst_n": cert.worst_n,
        "passes": int(cert.passes),
    }
    return [row], 0, f"margin={cert.margin:.6g} at n={cert.worst_n}"


def _task_lyapunov(cfg: ExperimentConfig, rng, n, z, z_list, z_circle):
    zs = z_list or [z]
    if z_circle is not None:
        zs = [np.exp(2j * np.pi * (i + 0.5) / z_circle) for i in range(z_circle)]
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


def _task_ldt(cfg: ExperimentConfig, rng, z, n_list, thresholds, threshold_factors):
    P = scaling_factor(cfg.scheme, z).value
    thresholds = thresholds or [f * P for f in threshold_factors]
    rows = [
        {"n": prof.n, "z_re": z.real, "z_im": z.imag, "threshold": t, "measure": m, "P": P}
        for prof in deviation_profile(cfg.scheme, z, n_list, thresholds, cfg.sampling)
        for t, m in zip(prof.thresholds, prof.measure)
    ]
    return rows, 0, f"profiles at n={n_list}"


def _hyperbolic_blocks(rng, count: int, mu: float) -> np.ndarray:
    """rotation(phi) diag(m, 1/m) per block, m / mu and phi drawn in turn per block; its
    temporaries are freed when it returns, before avalanche_residual copies the blocks."""
    m, phi = rng.uniform([1.0, -0.3], [10.0, 0.3], size=(count, 2)).T
    m, c, s = mu * m, np.cos(phi), np.sin(phi)
    return np.moveaxis(np.array([[c * m, -s * (1.0 / m)], [s * m, c * (1.0 / m)]]), -1, 0)


def _task_avalanche(cfg: ExperimentConfig, rng, mode, count, mu, block, z):
    ls = None  # raw blocks, which avalanche_residual factors itself
    if mode == "diagonal":
        mats = np.broadcast_to(np.diag([mu, 1.0 / mu]), (count, 2, 2))
    elif mode == "hyperbolic":
        mats = _hyperbolic_blocks(rng, count, mu)
    elif mode == "cocycle":
        if cfg.scheme is None:
            raise ConfigError("scheme: avalanche cocycle mode requires a scheme")
        # lane j holds alpha_{j block} .. alpha_{(j + 1) block - 1}; the lanes are independent, so the
        # blocks are formed a group of _AVALANCHE_GROUP // block at a time, each as one call would
        ls, mats = np.empty(count), np.empty((count, 2, 2), dtype=complex)
        group = max(1, _AVALANCHE_GROUP // block)
        for j in range(0, count, group):
            k = min(j + group, count)
            alphas = verblunsky_range(cfg.scheme, j * block, k * block - 1).reshape(k - j, block).T
            ls[j:k], mats[j:k] = product_batch(alphas, z)
        if ls.min() > 709.0:  # exp(709.8) is the largest float
            raise ConfigError("params.block: mu_floor = exp(min log-norm) overflows; reduce block length")
    rep = avalanche_residual(mats, ls)
    row = {"mode": mode, "count": count, "residual": rep.residual, "mu_floor": rep.mu_floor, "gap": rep.gap,
           "n_over_mu": rep.n_over_mu, "hypothesis_ok": int(rep.hypothesis_ok)}
    failures = int(mode == "diagonal" and not rep.residual <= 1e-8)  # a NaN residual fails too
    return [row], failures, f"residual={rep.residual:.3e} (n/mu={rep.n_over_mu:.2e})"


def _task_multiscale(cfg: ExperimentConfig, rng, n, N, z):
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


def _task_positivity(cfg: ExperimentConfig, rng, n, z):
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


def _task_uniform_bound(cfg: ExperimentConfig, rng, n0, N, grid_side, sigma0, z):
    rep = uniform_bound_check(cfg.scheme, z, n0, N, grid_side, sigma0)
    row = {
        "n0": n0,
        "N": N,
        "grid_side": grid_side,
        "sigma0": sigma0,
        "max_over_grid": rep.max_over_grid,
        "reference": rep.reference,
        "holds": int(rep.holds),
    }
    return [row], 0, f"max={rep.max_over_grid:.4f} ref={rep.reference:.4f}"


def _task_green_check(cfg: ExperimentConfig, rng, instances, max_size, tolerance, dist_min):
    rows = []
    for i in range(instances):
        s = _random_scheme(rng)
        size = int(rng.integers(4, max_size + 1))
        a = int(rng.integers(-3, 4))
        w = assemble_window(s, (a, a + size - 1), _random_boundary(rng))
        z = _random_z(rng, w, dist_min)
        j = int(rng.integers(w.a, w.b + 1))
        k = int(rng.integers(j, w.b + 1))
        direct = abs(green_matrix(w, z).entry(j, k))
        formula = green_entry_via_polys(w, j, k, z)
        rel = abs(formula - direct) / max(direct, 1e-300)
        rows.append(
            {"instance": i, "size": size, "a": w.a, "b": w.b, "j": j, "k": k,
             "z_re": z.real, "z_im": z.imag, "rel_err": rel, "ok": int(rel < tolerance)}
        )
    return _checked(rows)


def _task_davis_simon(cfg: ExperimentConfig, rng, instances, max_size):
    rows = []
    for i in range(instances):
        s = _random_scheme(rng)
        size = int(rng.integers(2, max_size + 1))
        a = int(rng.integers(-3, 4))
        w = assemble_window(s, (a, a + size - 1), _random_boundary(rng))
        z = _random_z(rng, w, 1e-6, max_radius=1.5)
        gap = davis_simon_gap(w, z)
        rows.append(
            {"instance": i, "size": size, "z_re": z.real, "z_im": z.imag,
             "product": gap.product, "bound": gap.bound, "ok": int(gap.holds)}
        )
    return _checked(rows)


def _task_restriction_check(cfg: ExperimentConfig, rng, instances, tolerance):
    rows = []
    parities = [(8, 24), (9, 25), (8, 25), (9, 24)]
    for i in range(instances):
        s = _random_scheme(rng, max_coupling=0.8)
        a, b = parities[i % 4]
        big = assemble_window(s, (0, 31), _random_boundary(rng))
        vals, vecs = np.linalg.eig(big.matrix)
        inner = assemble_window(s, (a, b), _random_boundary(rng))
        inner_eigs = np.linalg.eigvals(inner.matrix)
        dists = np.array([np.min(np.abs(zv - inner_eigs)) for zv in vals])
        pick = int(np.argmax(dists))
        z, v = complex(vals[pick]), vecs[:, pick]
        psi = v[a - 1 : b + 2]
        resid = restriction_residual(inner, z, psi)
        rows.append(
            {"instance": i, "a": a, "b": b,
             "parity": f"{'e' if a % 2 == 0 else 'o'}{'e' if b % 2 == 0 else 'o'}",
             "dist": float(dists[pick]), "residual": resid, "ok": int(resid < tolerance)}
        )
    return _checked(rows)


def _task_spectrum(cfg: ExperimentConfig, rng, size, a, beta, gamma):
    bc = BoundaryPair(beta, gamma)
    w = assemble_window(cfg.scheme, (a, a + size - 1), bc)
    pairs = window_spectrum(w)
    rows = []
    for pr in pairs:
        ok = _eigenpair_ok(pr.value, pr.residual, bc)
        rows.append(
            {"eig_re": pr.value.real, "eig_im": pr.value.imag,
             "modulus_dev": abs(abs(pr.value) - 1.0), "residual": pr.residual, "ok": int(ok)}
        )
    return _checked(rows, "eigenpairs")


def _eigenpair_ok(value: complex, residual: float, bc: BoundaryPair) -> bool:
    """The eigen invariants: residual below 1e-8 and, under a unimodular boundary, |w| = 1 to 1e-8."""
    return residual < 1e-8 and (abs(abs(value) - 1.0) < 1e-8 or not bc.unimodular)


def _task_localize(cfg: ExperimentConfig, rng, size, beta, gamma, rate_factor, r2_min, scale):
    bc = BoundaryPair(beta, gamma)
    reports = localization_scan(
        cfg.scheme, size, bc, cfg.sampling, rate_factor=rate_factor, r2_min=r2_min, scale=scale
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


def _task_detform_check(cfg: ExperimentConfig, rng, instances, n_min, n_max, tolerance):
    rows = []
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
        rows.append({"instance": i, "n": n, "z_re": z.real, "z_im": z.imag,
                     "rel_err": rel, "ok": int(rel < tolerance)})
    return _checked(rows)


_Z = Param("z", _spectral, [1.0, 0.0])
# the largest window a task builds: its dense matrix takes 1 GiB at 8192 sites
_MAX_SITES = 8192
# the most phases a sampling plan or uniform-bound's grid gives: the estimators tile the
# phases, so this caps time, not memory (about 6 s per z at n = 1000 and 256**2 phases)
_MAX_GRID_SIDE = 256
_MAX_SAMPLES = _MAX_GRID_SIDE**2
# the longest Diophantine scan: diophantine_margin scans in fixed chunks of n, so this caps
# time, not memory (about 0.1 s in process at 10**7; the run peaks at 41 MiB child
# ru_maxrss, against 37 MiB at horizon 1)
_MAX_HORIZON = 10**7
# avalanche's cocycle mode takes count * block <= _MAX_AVALANCHE_STEPS coefficients, at most
# _AVALANCHE_GROUP of them at once (or one block), and holds the count blocks, 64 bytes each:
# at count 2**20 and block 1 the blocks take 64 MiB and the run peaks at about 172 MiB child
# ru_maxrss (hyperbolic mode, whose real blocks take 32 MiB, at about 141 MiB).  mu lies in
# [1 / _MAX_MU, _MAX_MU], as spectral_norms_2x2 raises entries to the fourth power, so a block's norm, up to
# 10 max(mu, 1 / mu) in hyperbolic mode, must stay below 1e77
_MAX_AVALANCHE_STEPS, _AVALANCHE_GROUP, _MAX_MU = 2**20, 2**16, 1e76
_TOLERANCE = Param("tolerance", default=1e-8)
_BOUNDARY = (Param("beta", _boundary, [1.0, 0.0]), Param("gamma", _boundary, [1.0, 0.0]))

TASKS = {
    "lyapunov": Task(_task_lyapunov, True, (
        Param("n", int, 100, lo=1), _Z, Param("z_list", _spectral, many=True), Param("z_circle", int, lo=1),
    ), exclusive=(("z", "z_list", "z_circle"),), sampled=True),
    "ldt": Task(_task_ldt, True, (
        _Z, Param("n_list", int, [20, 40, 80], lo=1, many=True),
        Param("thresholds", many=True, ascending=True),
        Param("threshold_factors", default=[0.1], many=True, ascending=True),
    ), exclusive=(("thresholds", "threshold_factors"),), sampled=True),
    "avalanche": Task(_task_avalanche, False, (
        Param("mode", _text, "hyperbolic", choices=("diagonal", "hyperbolic", "cocycle")),
        Param("count", int, 50, lo=3, hi=_MAX_AVALANCHE_STEPS), Param("mu", _positive, 1e3, lo=1 / _MAX_MU, hi=_MAX_MU),
        # only cocycle mode reads block
        Param("block", int, 40, lo=1,
              hi=lambda v: _MAX_AVALANCHE_STEPS // v["count"] if v["mode"] == "cocycle" else None),
        _Z,
    )),
    "multiscale": Task(_task_multiscale, True, (
        Param("n", int, 10, lo=1), Param("N", int, 100, lo=lambda v: v["n"] * v["n"]), _Z,
    ), sampled=True),
    "positivity": Task(_task_positivity, True, (Param("n", int, 200, lo=1), _Z), sampled=True),
    "uniform-bound": Task(_task_uniform_bound, True, (
        Param("n0", int, 50, lo=1), Param("N", int, 500, lo=lambda v: v["n0"] + 1),
        Param("grid_side", int, 32, lo=1, hi=_MAX_GRID_SIDE), Param("sigma0", default=0.5), _Z,
    )),
    "green-check": Task(_task_green_check, False, (
        Param("instances", int, 100, lo=1), Param("max_size", int, 32, lo=4, hi=_MAX_SITES), _TOLERANCE,
        Param("dist_min", _positive, 1e-3),
    )),
    "davis-simon": Task(_task_davis_simon, False, (
        Param("instances", int, 200, lo=1), Param("max_size", int, 32, lo=2, hi=_MAX_SITES),
    )),
    "restriction-check": Task(_task_restriction_check, False, (
        Param("instances", int, 40, lo=1), _TOLERANCE,
    )),
    "spectrum": Task(_task_spectrum, True, (
        Param("size", int, 64, lo=2, hi=_MAX_SITES),
        # the window reads sites a - 1 .. a + size - 1, which must fit in int64
        Param("a", int, 0, lo=1 - 2**63, hi=lambda v: 2**63 - v["size"]), *_BOUNDARY,
    )),
    "localize": Task(_task_localize, True, (
        Param("size", int, 128, lo=64, hi=_MAX_SITES), *_BOUNDARY, Param("rate_factor", default=0.5),
        Param("r2_min", default=0.9), Param("scale", int, lo=1),
    ), sampled=True),
    "dio-check": Task(_task_dio_check, False, (
        Param("omega"), Param("epsilon", default=0.1), Param("horizon", int, 10000, lo=1, hi=_MAX_HORIZON),
    )),
    "detform-check": Task(_task_detform_check, False, (
        Param("instances", int, 100, lo=1), Param("n_min", int, 2, lo=2, hi=_MAX_SITES),
        Param("n_max", int, 12, lo=lambda v: v["n_min"], hi=_MAX_SITES), _TOLERANCE,
    )),
}

# the fields of a config document outside params
_TOP_KEYS = ("task", "scheme", "params", "sampling", "output", "sweep")
_SCHEME_KEYS = ("coefficients", "lambda", "omega", "base_x", "base_y")
_SEED = Param("rng_seed", int, 0, lo=0)
_SAMPLING = (
    Param("mode", _text, "grid"), Param("grid_side", int, 24, hi=_MAX_GRID_SIDE),
    Param("sample_count", int, 1024, hi=_MAX_SAMPLES), _SEED,
)
_OUTPUT = (Param("path", _text, "-"), Param("format", _text, "csv", choices=("csv", "json")))
_SCHEME_AXES = ("lambda", "omega")


def run(cfg: ExperimentConfig, threads: int = 1):
    """Execute one task, its estimates' phases split over `threads` processes; returns
    (rows, failures, summary). Rows carry the config hash."""
    rng = np.random.default_rng(cfg.sampling.rng_seed)
    with _phase_workers(threads):
        rows, failures, summary = TASKS[cfg.task].fn(cfg, rng, **cfg.values)
    h = cfg.config_hash
    for r in rows:
        r["config_hash"] = h
    return rows, failures, summary


# --- sweep -------------------------------------------------------------------

def _cell_doc(doc: dict, cell: tuple, seed: int) -> dict:
    """A deep copy of `doc` with the cell's axis values and rng seed set."""
    doc = json.loads(json.dumps(doc))
    for parameter, value in cell:
        on_scheme = parameter in _SCHEME_AXES and doc.get("scheme") is not None
        (doc["scheme"] if on_scheme else doc.setdefault("params", {}))[parameter] = value
    doc.setdefault("sampling", {})["rng_seed"] = seed
    return doc


def _phases(cfg: ExperimentConfig) -> int:
    """Phases in each of the task's estimates: uniform-bound's own grid, else the sampling plan's."""
    if cfg.task == "uniform-bound":
        return cfg.values["grid_side"] ** 2
    if not TASKS[cfg.task].sampled:
        return 0
    return cfg.sampling.grid_side**2 if cfg.sampling.mode == "grid" else cfg.sampling.sample_count


def run_sweep(doc: dict, axes: list, threads: int):
    """Cartesian sweep; per-cell seed = hash(base seed, cell index); merged in cell order.

    Every cell's config is parsed before any cell runs.  When every cell's estimates
    take at most one phase tile, the cells are cut into `threads` contiguous blocks, one
    per worker process; otherwise the cells run in order and each splits its phases
    over the workers, so workers never start workers of their own.
    """
    base_seed = config_from_doc(dict(doc, sweep={"axes": axes})).sampling.rng_seed
    cells = list(itertools.product(*[[(ax["parameter"], v) for v in ax["values"]] for ax in axes]))
    cfgs = [config_from_doc(_cell_doc(doc, cell, _derive_seed(base_seed, i))) for i, cell in enumerate(cells)]
    by_cell = max(map(_phases, cfgs)) <= PHASE_TILE

    def one(idx):
        rows, failures, _ = run(cfgs[idx], 1 if by_cell else threads)
        for r in rows:
            r["cell"] = idx
            for parameter, value in cells[idx]:
                r[f"axis_{parameter}"] = json.dumps(value) if isinstance(value, list) else value
        return rows, failures

    results = _fork_map(one, range(len(cells)), threads if by_cell else 1)
    rows = [r for cell_rows, _ in results for r in cell_rows]
    failures = sum(f for _, f in results)
    return rows, failures, f"{len(cells)} cells, {failures} failures"


# --- config handling and entry point ------------------------------------------

def config_from_doc(doc: dict) -> ExperimentConfig:
    """The one config parser: checks `doc` at every level against TASKS before any work runs.

    ConfigError names the offending field, and for an unknown key the task.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {doc!r}")
    task = doc.get("task")
    if not task:
        raise ConfigError("task: missing")
    if not isinstance(task, str) or task not in TASKS:
        raise ConfigError(f"task: unknown task {task!r}")
    spec = TASKS[task]
    _keys(task, "", doc, _TOP_KEYS)
    scheme = None
    if doc.get("scheme") is not None:
        scheme_doc = _keys(task, "scheme", doc["scheme"], _SCHEME_KEYS)
        try:
            scheme = scheme_from_json(json.dumps(scheme_doc))
        except (KeyError, TypeError, ValueError) as exc:  # SchemeError is a ValueError
            raise ConfigError(f"scheme: {exc}") from exc
    elif spec.needs_scheme:
        raise ConfigError(f"scheme: task {task!r} requires a scheme")
    params = doc.get("params", {})
    values = _fields(task, "params", params, spec.params, spec.exclusive)
    plan = _fields(task, "sampling", doc.get("sampling", {}), _SAMPLING if spec.sampled else (_SEED,))
    try:
        sampling = SamplingConfig(**plan)
    except ValueError as exc:
        raise ConfigError(f"sampling: {exc}") from exc
    output = _fields(task, "output", doc.get("output", {}), _OUTPUT)
    if "sweep" in doc:
        # an axis sets a parameter the task takes, or the scheme's lambda or omega
        takes = tuple(p.name for p in spec.params) + (_SCHEME_AXES if scheme else ())
        axis = (Param("parameter", _text, "", choices=takes), Param("values", _as_is, [], many=True))
        axes = _fields(task, "sweep", doc["sweep"], (Param("axes", _as_is, [], many=True),))["axes"]
        for i, ax in enumerate(axes):
            _fields(task, f"sweep.axes[{i}]", ax, axis)
    return ExperimentConfig(task, scheme, params, values, sampling, output["path"], output["format"])


def _rows_to_csv(rows: list) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _write_atomic(path: str, text: str) -> None:
    """Write `text` to `path` through a temporary file and a rename, so readers never see a partial file."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _check_out_path(path: str) -> None:
    """ConfigError unless `path` is '-' or names a file in an existing directory, so a run
    that could not write its rows stops before any of them is computed."""
    if path == "-":
        return
    if os.path.isdir(path):
        raise ConfigError(f"output.path: {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"output.path: {path!r}: directory {parent!r} does not exist")


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
    parser.add_argument("task", nargs="?", choices=TASKS, help="task name; overrides the config's")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="overrides sampling.rng_seed")
    parser.add_argument("--out", help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument(
        "--threads",
        type=int,
        default=os.environ.get("CMV_THREADS", "1"),  # argparse converts a string default by `type`
        help="worker processes (default: CMV_THREADS or 1), forked from this one on Linux "
        "(elsewhere the run is serial): a sweep of single-tile cells splits its cells, any "
        "other run splits each estimate's phases; affects speed only, never output",
    )
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"argument --threads: must be >= 1, got {args.threads}")

    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"--config: {exc}")
    if not isinstance(doc, dict):
        parser.error(f"config must be a JSON object, got {doc!r}")
    if args.task:
        doc["task"] = args.task
    for section, key, value in (("sampling", "rng_seed", args.seed), ("output", "path", args.out),
                                ("output", "format", args.format)):
        # a section that is not an object is left for config_from_doc to reject
        if value is not None and isinstance(doc.setdefault(section, {}), dict):
            doc[section][key] = value

    try:
        cfg = config_from_doc(doc)
        _check_out_path(cfg.out_path)
        if "sweep" in doc:
            rows, failures, summary = run_sweep(doc, doc["sweep"]["axes"], args.threads)
        else:
            rows, failures, summary = run(cfg, args.threads)
    except ConfigError as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error exits
    _emit(doc, cfg, rows, summary)
    print(f"task={cfg.task} rows={len(rows)} failures={failures} hash={cfg.config_hash} {summary}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
