"""Finite-scale Lyapunov exponents, deviation profiles, and product-norm identities.

L_n(z) is the phase average of (1/n) log ||M_n||; the estimators here replace
the integral by a deterministic midpoint grid (reproducible quadrature) or by
seeded Monte Carlo (unbiased set-measure estimates).  Identical sampling
configuration gives bit-identical results at any worker count: phase order is
fixed and the reductions use numpy's deterministic pairwise summation.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
from dataclasses import dataclass

import numpy as np

from .cocycle import RENORM_STEPS, FactoredProduct, product_batch, spectral_norms_2x2
from .model import VerblunskyScheme, verblunsky_orbit_batch

__all__ = [
    "SamplingConfig",
    "LyapunovEstimate",
    "DeviationProfile",
    "AvalancheReport",
    "MultiscaleResidual",
    "PositivityMargin",
    "UniformBoundReport",
    "estimate_Ln",
    "estimate_Ln_many",
    "deviation_profile",
    "avalanche_residual",
    "multiscale_residual",
    "positivity_margin",
    "uniform_bound_check",
    "extrapolate_limit",
]


@dataclass(frozen=True)
class SamplingConfig:
    """Deterministic phase-sampling plan for the estimators."""

    mode: str = "grid"  # "grid" | "monte-carlo"
    grid_side: int = 24
    sample_count: int = 1024
    rng_seed: int = 0

    def __post_init__(self):
        if self.mode not in ("grid", "monte-carlo"):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        for name, lo in (("grid_side", 1), ("sample_count", 1), ("rng_seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
                raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")

    def phases(self) -> np.ndarray:
        """Sample phases as an (S, 2) array in fixed order."""
        if self.mode == "grid":
            t = (np.arange(self.grid_side) + 0.5) / self.grid_side
            x, y = np.meshgrid(t, t, indexing="ij")
            return np.column_stack([x.ravel(), y.ravel()])
        rng = np.random.default_rng(self.rng_seed)
        return rng.random((self.sample_count, 2))


@dataclass(frozen=True)
class LyapunovEstimate:
    """Finite-scale estimate of L_n(z) with sampling statistics.

    std_error is the sample standard error in monte-carlo mode and 0 (flagged
    by mode) for grid quadrature.
    """

    n: int
    z: complex
    mean: float
    std_error: float
    samples: int
    mode: str
    rng_seed: int


@dataclass(frozen=True)
class DeviationProfile:
    """Empirical measure of |u_n - mean| > t for each threshold t (nonincreasing in t)."""

    n: int
    z: complex
    thresholds: tuple
    measure: tuple
    mean: float


# phases per tile and orbit steps per product call: beyond the (Z, S) output the
# working set is O(Z PHASE_TILE + ORBIT_CHUNK PHASE_TILE), whatever n and S are.  A
# chunk is one renormalization interval, so the chunked stream renormalizes where one
# product_batch call over the whole orbit would
PHASE_TILE = 1024
ORBIT_CHUNK = RENORM_STEPS
# blocks whose norms, and neighbouring pairs whose products, avalanche_residual forms at
# once: 4 MiB of complex 2x2 blocks
_PAIR_CHUNK = 2**16
# processes that _u_values deals its phase tiles to; set by _phase_workers
_workers = 1
# _fork_map forks on Linux only, where forking with OpenBLAS's thread pool alive was
# checked (its pthread_atfork handler stops the pool); macOS's Accelerate thread pool is
# not fork-safe, and Windows has no fork
_FORK_SAFE = sys.platform == "linux"


@contextlib.contextmanager
def _phase_workers(workers: int):
    """Inside the block, _u_values deals its phase tiles to `workers` processes."""
    global _workers
    outer, _workers = _workers, workers
    try:
        yield
    finally:
        _workers = outer


def _fork_map(fn, items, workers: int) -> list:
    """[fn(x) for x in items], the items cut into `workers` contiguous blocks, one per process.

    This process runs the first block.  Each other block runs in a forked child, which
    pickles its results, or the exception that stopped it, back through a pipe and exits.
    The exception of the first failing item is raised again here, as a serial run would
    raise it, and every child is reaped on every exit path.  One worker, or a platform
    other than Linux (see _FORK_SAFE), runs the items here in order.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1 or not _FORK_SAFE:
        return [fn(x) for x in items]
    cuts = [len(items) * k // workers for k in range(workers + 1)]
    children = []  # (pid, read end of its pipe)
    try:
        for a, b in zip(cuts[1:], cuts[2:]):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _fork_child(fn, items[a:b], w)
            os.close(w)
            children.append((pid, r))
        results = [fn(x) for x in items[: cuts[1]]]
        for pid, r in children:
            data = b"".join(iter(lambda: os.read(r, 1 << 20), b""))
            if not data:
                raise RuntimeError(f"worker process {pid} exited without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results += value
        return results
    except BaseException:
        for pid, _ in children:  # a child still writing would never exit
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, r in children:
            os.close(r)
            os.waitpid(pid, 0)


def _fork_child(fn, items: list, w: int) -> None:
    """A forked worker: send (True, results) or (False, exception) through w, then exit."""
    try:
        try:
            payload = pickle.dumps((True, [fn(x) for x in items]))
        except BaseException as exc:
            try:
                payload = pickle.dumps((False, exc))
            except Exception:  # an exception that does not pickle goes back as its text
                payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with os.fdopen(w, "wb") as fh:
            fh.write(payload)
    finally:
        os._exit(0)


def _u_values(s: VerblunskyScheme, z, ns, phases: np.ndarray) -> np.ndarray:
    """(1/n) log ||M_n|| per (n in ns, z, phase) from one pass: shape (len(ns),) + shape(z) + (S,).

    Each tile of phases walks its orbit once, through the distinct n in ns in ascending
    order, cutting at the nearer of the next n and the next multiple of ORBIT_CHUNK as it
    reaches it, so nothing beyond the output grows with n.  Each piece is one product_batch
    call, whose renormalized last step gives log ||M_n||; a row is bit-identical to its n
    alone when every smaller n in ns is a multiple of ORBIT_CHUNK.  The phases are cut into
    equal tiles of at most PHASE_TILE, as many as the smallest multiple of the worker count
    k that allows, dealt out by _fork_map in k contiguous blocks; u does not depend on k.
    """
    if not len(ns) or min(ns) < 1:
        raise ValueError(f"n must be >= 1, got {list(ns)}")

    def walk(tile):
        u, carry, j0 = np.empty((len(ns),) + np.shape(z) + (len(tile),)), None, 0
        for n in sorted(set(ns)):
            while j0 < n:
                end = min(n, (j0 // ORBIT_CHUNK + 1) * ORBIT_CHUNK)
                carry = product_batch(verblunsky_orbit_batch(s, end - j0, tile, start=j0), z, carry=carry)
                j0 = end
            u[np.equal(ns, n)] = carry[0] / n
        return u

    k = min(_workers, len(phases))  # a SamplingConfig gives S >= 1
    tiles = np.array_split(phases, k * -(-len(phases) // (k * PHASE_TILE)))
    return np.concatenate(_fork_map(walk, tiles, k), axis=-1)


def _estimate(n: int, z, u: np.ndarray, cfg: SamplingConfig) -> LyapunovEstimate:
    """The estimate of L_n(z) from its samples u: their mean and, in monte-carlo mode, its standard error."""
    se = float(np.std(u, ddof=1) / np.sqrt(len(u))) if cfg.mode == "monte-carlo" and len(u) > 1 else 0.0
    return LyapunovEstimate(n, complex(z), float(np.mean(u)), se, len(u), cfg.mode, cfg.rng_seed)


def _estimates(s: VerblunskyScheme, zs, n: int, cfg: SamplingConfig) -> list:
    if np.ndim(zs) != 1 or len(zs) == 0:
        raise ValueError(f"z must be a scalar or a nonempty 1-D sequence, got shape {np.shape(zs)}")
    return [_estimate(n, z, u, cfg) for z, u in zip(zs, _u_values(s, zs, [n], cfg.phases())[0])]


def estimate_Ln(s: VerblunskyScheme, z, n: int, cfg: SamplingConfig) -> LyapunovEstimate | list:
    """Estimate L_n(z) by averaging (1/n) log ||M_n|| over sampled base phases.

    A scalar z gives one LyapunovEstimate.  A 1-D sequence of z gives a list of
    them, one per z, and every orbit chunk is sampled once for all of them; each
    estimate is bit-identical to the scalar call.  The scheme's own base phase
    is ignored: the estimate is a phase average.
    """
    return _estimates(s, z, n, cfg) if np.ndim(z) else _estimates(s, [z], n, cfg)[0]


def estimate_Ln_many(s: VerblunskyScheme, zs, n: int, cfg: SamplingConfig) -> list:
    """Estimates at a common scale for many spectral parameters, sharing each orbit chunk."""
    return _estimates(s, zs, n, cfg)


def deviation_profile(
    s: VerblunskyScheme, z: complex, n, thresholds, cfg: SamplingConfig
) -> DeviationProfile | list:
    """Fraction of sampled phases with |u_n - mean| above each threshold; a sequence of n
    gives a list of profiles, one per n, from one pass along the orbits."""
    thresholds = tuple(float(t) for t in thresholds)
    if any(t2 < t1 for t1, t2 in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be sorted ascending")
    ns = n if np.ndim(n) else [n]
    profiles = []
    for m, u in zip(ns, _u_values(s, z, ns, cfg.phases())):
        mean = float(np.mean(u))
        dev = np.abs(u - mean)
        measure = tuple(float(np.mean(dev > t)) for t in thresholds)
        profiles.append(DeviationProfile(m, complex(z), thresholds, measure, mean))
    return profiles if np.ndim(n) else profiles[0]


@dataclass(frozen=True)
class AvalancheReport:
    """Residual of the pair-norm reconstruction of a long product of unimodular matrices.

    residual = | log||A_n...A_1|| + sum_{j=2}^{n-1} log||A_j||
                 - sum_{j=1}^{n-1} log||A_{j+1} A_j|| |

    hypothesis_ok requires min_j ||A_j|| >= n together with the gap condition
    max_j [log||A_{j+1}|| + log||A_j|| - log||A_{j+1}A_j||] <= (1/2) log mu,
    taking mu = min_j ||A_j|| (the largest admissible value).
    """

    residual: float
    mu_floor: float
    gap: float
    hypothesis_ok: bool
    n_over_mu: float


def _chunked_norms(U: np.ndarray) -> np.ndarray:
    """spectral_norms_2x2 of a stack of blocks, _PAIR_CHUNK blocks at a time: the norms are
    elementwise, so they equal one call's, and the temporaries stay chunk-sized."""
    norms = np.empty(len(U))
    for j in range(0, len(U), _PAIR_CHUNK):
        norms[j : j + _PAIR_CHUNK] = spectral_norms_2x2(U[j : j + _PAIR_CHUNK])
    return norms


def _product_tree(U: np.ndarray, overwrite: bool = False) -> FactoredProduct:
    """U[n-1] ... U[1] U[0] for a stack of 2x2 matrices, multiplied as a pairwise tree.

    The blocks have unit norm.  Each level is the batched product of neighbouring
    blocks, formed _PAIR_CHUNK products at a time and renormalized to unit norm, and an
    odd block is carried up as it is; every log norm taken off joins the product's log
    scale.  A level is written over the level below it, the first one into a new
    array unless `overwrite` lets it take U's blocks.
    """
    P, log_scale = U, 0.0
    while len(P) > 1:
        half, odd = divmod(len(P), 2)
        out = P if overwrite or P is not U else np.empty((half + odd, 2, 2), P.dtype)
        s = np.empty(half)
        for j in range(0, half, _PAIR_CHUNK):  # product j reads blocks 2j and 2j + 1 >= j
            k = min(j + _PAIR_CHUNK, half)
            np.matmul(P[2 * j + 1 : 2 * k : 2], P[2 * j : 2 * k : 2], out=out[j:k])
            s[j:k] = spectral_norms_2x2(out[j:k])
            out[j:k] /= s[j:k, None, None]
        out[half : half + odd] = P[2 * half :]
        P = out[: half + odd]
        log_scale += float(np.sum(np.log(s, out=s)))
    return FactoredProduct(P[0], log_scale)


def avalanche_residual(matrices, log_scales=None) -> AvalancheReport:
    """Evaluate the pair-norm identity on a sequence of 2x2 unimodular matrices.

    With `log_scales` the blocks come factored as product_batch gives them, A_j =
    exp(log_scales[j]) U_j with ||U_j|| = 1; raw blocks are divided by their norms, in
    a copy that keeps their dtype, so real blocks are multiplied in real arithmetic.
    The log norms cancel exactly, so residual = |log||U_n...U_1|| - sum_j log||U_{j+1} U_j||
    and gap = max_j -log||U_{j+1} U_j||.  Norms and products are formed _PAIR_CHUNK
    blocks at a time, and the product tree takes the raw blocks' copy once the pairs
    are done.  A hypothesis violation only clears the flag.
    """
    U = np.asarray(matrices)
    raw = log_scales is None
    # raw blocks are copied once, in their own float or complex dtype, and normalized in place
    U = U.astype(np.result_type(U, float), copy=raw)
    n = len(U)
    if n < 3:
        raise ValueError("need at least 3 matrices")
    if raw:
        norms = _chunked_norms(U)
        U /= norms[:, None, None]
        mu = float(np.min(norms))
        log_scales = np.log(norms, out=norms)
    else:
        mu = float(np.exp(np.min(log_scales)))
    later, earlier = U[1:], U[:-1]  # pair j is later[j] @ earlier[j]
    pair_logs = np.empty(n - 1)
    for j in range(0, n - 1, _PAIR_CHUNK):
        pairs = later[j : j + _PAIR_CHUNK] @ earlier[j : j + _PAIR_CHUNK]
        pair_logs[j : j + _PAIR_CHUNK] = np.log(spectral_norms_2x2(pairs))
    total = _product_tree(U, overwrite=raw)
    residual = abs(total.log_scale - float(np.sum(pair_logs)))
    gap = float(np.max(0.0 - pair_logs))  # 0.0, not -0.0, when every pair is aligned
    ok = bool(mu >= n and gap <= 0.5 * np.min(log_scales))
    return AvalancheReport(residual, mu, gap, ok, n / mu)


@dataclass(frozen=True)
class MultiscaleResidual:
    residual: float
    at_n: LyapunovEstimate
    at_2n: LyapunovEstimate
    at_N: LyapunovEstimate


def multiscale_residual(
    s: VerblunskyScheme, z: complex, n: int, N: int, cfg: SamplingConfig
) -> MultiscaleResidual:
    """|L_N + L_n - 2 L_{2n}| from estimates at the three scales, all from one pass; requires N >= n^2."""
    if N < n * n:
        raise ValueError(f"need N >= n^2, got n={n}, N={N}")
    ns = (n, 2 * n, N)
    e_n, e_2n, e_N = (_estimate(m, z, u, cfg) for m, u in zip(ns, _u_values(s, z, ns, cfg.phases())))
    return MultiscaleResidual(abs(e_N.mean + e_n.mean - 2.0 * e_2n.mean), e_n, e_2n, e_N)


@dataclass(frozen=True)
class PositivityMargin:
    """L_n estimate minus the closed-form coupling bound -1/4 log(1 - coupling^2).

    The bound is a theorem when |alpha| = coupling identically, i.e. for a
    unimodular monomial sampler e^{2 pi i (k x + l y)} with k != 0: rho is then
    constant and, for |z| = 1, subharmonicity gives L_n >= -1/2 log(1 - coupling^2),
    twice the bound.  For samplers with |f| < 1 off a thin set, L stays below
    E log||S|| (bounded as coupling -> 1) while the bound diverges, so a
    negative margin there is not an estimator fault.
    """

    margin: float
    bound: float
    estimate: LyapunovEstimate


def positivity_margin(
    s: VerblunskyScheme, z: complex, n: int, cfg: SamplingConfig
) -> PositivityMargin:
    """Compare L_n(z) with -1/4 log(1 - coupling^2); see PositivityMargin for
    the samplers on which the bound holds."""
    bound = -0.25 * np.log(1.0 - s.coupling**2)
    est = estimate_Ln(s, z, n, cfg)
    return PositivityMargin(margin=est.mean - bound, bound=float(bound), estimate=est)


@dataclass(frozen=True)
class UniformBoundReport:
    max_over_grid: float
    reference: float
    holds: bool
    at_n0: LyapunovEstimate


def uniform_bound_check(
    s: VerblunskyScheme,
    z: complex,
    n0: int,
    N: int,
    phase_grid: int,
    sigma0: float = 0.5,
) -> UniformBoundReport:
    """Check sup over a phase grid of u_N against the reference L_{n0} + n0^{-sigma0}.

    The exponent sigma0 is configuration (the underlying uniform estimate only
    asserts existence of one); the reference estimate reuses the same grid and pass.
    """
    if N <= n0:
        raise ValueError("need N > n0")
    cfg = SamplingConfig(mode="grid", grid_side=phase_grid)
    u_n0, u_N = _u_values(s, z, (n0, N), cfg.phases())
    est0 = _estimate(n0, z, u_n0, cfg)
    reference = est0.mean + n0 ** (-sigma0)
    max_u = float(np.max(u_N))
    return UniformBoundReport(max_u, float(reference), bool(max_u < reference), est0)


def extrapolate_limit(e1: LyapunovEstimate, e2: LyapunovEstimate) -> tuple[float, float]:
    """Extrapolate L = lim L_n from two scales under the model L_n = L + C/n.

    Returns (L, C).  The model is the only rate information available for the
    subadditive sequence, so this is a cheap tail correction, not a certified
    limit.
    """
    if e1.n == e2.n:
        raise ValueError("scales must differ")
    (n1, L1), (n2, L2) = (e1.n, e1.mean), (e2.n, e2.mean)
    C = (L1 - L2) / (1.0 / n1 - 1.0 / n2)
    return (L1 - C / n1, C)
