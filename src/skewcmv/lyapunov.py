"""Finite-scale Lyapunov exponents, deviation profiles, and product-norm identities.

L_n(z) is the phase average of (1/n) log ||M_n||; the estimators here replace
the integral by a deterministic midpoint grid (reproducible quadrature) or by
seeded Monte Carlo (unbiased set-measure estimates).  Identical sampling
configuration gives bit-identical results: phase order is fixed and the
reductions use numpy's deterministic pairwise summation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import FactoredProduct, product_batch, spectral_norms_2x2
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
        for name in ("grid_side", "sample_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

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
# working set is O(Z PHASE_TILE + ORBIT_CHUNK PHASE_TILE), whatever n and S are
PHASE_TILE = 1024
ORBIT_CHUNK = 64


def _u_values(s: VerblunskyScheme, z, n: int, phases: np.ndarray) -> np.ndarray:
    """(1/n) log ||M_n|| per (z, phase), shaped as product_batch's log-scales."""
    if n < 1:
        raise ValueError("n must be >= 1")
    u = np.empty(np.shape(z) + (len(phases),))
    for p0 in range(0, len(phases), PHASE_TILE):
        tile, carry = phases[p0 : p0 + PHASE_TILE], None
        for j0 in range(0, n, ORBIT_CHUNK):
            alphas = verblunsky_orbit_batch(s, min(ORBIT_CHUNK, n - j0), tile, start=j0)
            carry = product_batch(alphas, z, carry=carry)
        u[..., p0 : p0 + PHASE_TILE] = carry[0]
    u /= n
    return u


def _estimates(s: VerblunskyScheme, zs, n: int, cfg: SamplingConfig) -> list:
    if np.ndim(zs) != 1 or len(zs) == 0:
        raise ValueError(f"z must be a scalar or a nonempty 1-D sequence, got shape {np.shape(zs)}")
    out = []
    for z, u in zip(zs, _u_values(s, zs, n, cfg.phases())):
        mc = cfg.mode == "monte-carlo" and len(u) > 1
        se = float(np.std(u, ddof=1) / np.sqrt(len(u))) if mc else 0.0
        mean = float(np.mean(u))
        out.append(LyapunovEstimate(n, complex(z), mean, se, len(u), cfg.mode, cfg.rng_seed))
    return out


def estimate_Ln(s: VerblunskyScheme, z, n: int, cfg: SamplingConfig) -> LyapunovEstimate | list:
    """Estimate L_n(z) by averaging (1/n) log ||M_n|| over sampled base phases.

    A scalar z gives one LyapunovEstimate.  A 1-D sequence of z gives a list of
    them, one per z, and every orbit chunk is sampled once for all of them; each
    estimate is bit-identical to the scalar call.  The scheme's own base phase
    is ignored: the estimate is a phase average.
    """
    if np.ndim(z):
        return _estimates(s, z, n, cfg)
    return _estimates(s, [z], n, cfg)[0]


def estimate_Ln_many(s: VerblunskyScheme, zs, n: int, cfg: SamplingConfig) -> list:
    """Estimates at a common scale for many spectral parameters, sharing each orbit chunk."""
    return _estimates(s, zs, n, cfg)


def deviation_profile(
    s: VerblunskyScheme, z: complex, n: int, thresholds, cfg: SamplingConfig
) -> DeviationProfile:
    """Fraction of sampled phases with |u_n - mean| above each threshold."""
    thresholds = tuple(float(t) for t in thresholds)
    if any(t2 < t1 for t1, t2 in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be sorted ascending")
    phases = cfg.phases()
    u = _u_values(s, z, n, phases)
    mean = float(np.mean(u))
    dev = np.abs(u - mean)
    measure = tuple(float(np.mean(dev > t)) for t in thresholds)
    return DeviationProfile(n, complex(z), thresholds, measure, mean)


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


def avalanche_residual(matrices) -> AvalancheReport:
    """Evaluate the pair-norm identity on a sequence of 2x2 unimodular matrices.

    The long product is accumulated in factored form so sequences with norms
    ~1e4 and lengths ~100 stay inside floating-point range.  A hypothesis
    violation only clears the flag; the residual is still reported.
    """
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    n = len(mats)
    if n < 3:
        raise ValueError("need at least 3 matrices")
    norms = np.array([float(spectral_norms_2x2(m)) for m in mats])
    pair_norms = np.array(
        [float(spectral_norms_2x2(mats[j + 1] @ mats[j])) for j in range(n - 1)]
    )
    # the full product, folded in order; each raw factor enters at log scale 0 and compose renormalizes
    total = FactoredProduct(mats[0] / norms[0], float(np.log(norms[0])))
    for m in mats[1:]:
        total = FactoredProduct(m, 0.0).compose(total)
    interior = float(np.sum(np.log(norms[1:-1])))
    pairs = float(np.sum(np.log(pair_norms)))
    residual = abs(total.log_scale + interior - pairs)
    mu = float(np.min(norms))
    gap = float(np.max(np.log(norms[1:]) + np.log(norms[:-1]) - np.log(pair_norms)))
    ok = bool(mu >= n and gap <= 0.5 * np.log(mu))
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
    """|L_N + L_n - 2 L_{2n}| from estimates at the three scales; requires N >= n^2."""
    if N < n * n:
        raise ValueError(f"need N >= n^2, got n={n}, N={N}")
    e_n = estimate_Ln(s, z, n, cfg)
    e_2n = estimate_Ln(s, z, 2 * n, cfg)
    e_N = estimate_Ln(s, z, N, cfg)
    return MultiscaleResidual(
        residual=abs(e_N.mean + e_n.mean - 2.0 * e_2n.mean), at_n=e_n, at_2n=e_2n, at_N=e_N
    )


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
    asserts existence of one); the reference estimate reuses the same grid.
    """
    if N <= n0:
        raise ValueError("need N > n0")
    cfg = SamplingConfig(mode="grid", grid_side=phase_grid)
    phases = cfg.phases()
    u_N = _u_values(s, z, N, phases)
    est0 = estimate_Ln(s, z, n0, cfg)
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
