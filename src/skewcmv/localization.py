"""Finite-volume spectra, eigenvector decay fits, and the localization diagnostic.

An eigenvector is scored by fitting an exponential to its two-sided envelope
around the peak site and comparing the fitted rate to a Lyapunov reference at
the same spectral parameter.  The envelope uses block-of-2 running maxima to
tame the even/odd oscillation the 2x4 block structure imprints on components;
raw log fits on oscillating components systematically underestimate the fit
quality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmv import _BAND, BoundaryPair, CMVWindow, _band_dot, assemble_window
from .green import _line_fit
from .lyapunov import SamplingConfig, estimate_Ln_many
from .model import VerblunskyScheme

__all__ = [
    "EigenPair",
    "VectorDecayFit",
    "LocalizationReport",
    "window_spectrum",
    "decay_fit",
    "inverse_participation_ratio",
    "localization_scan",
    "finite_size_drift",
]


@dataclass(frozen=True)
class EigenPair:
    value: complex
    vector: np.ndarray
    residual: float


# cos values of H = (E + E*)/2 closer than this many mean spacings (2/N) share a Ritz step
_CLUSTER_SPACINGS = 0.3
# columns per block when forming E V, which bounds the temporaries to N x 64
_COLUMN_BLOCK = 64
# decay_fit drops envelope points below this fraction of the peak, the noise plateau of localized vectors
_NOISE_FLOOR = 1e-14


def window_spectrum(window: CMVWindow) -> list:
    """All eigenpairs of the window, sorted by eigenvalue angle for determinism.

    Under a unimodular boundary E is unitary, hence normal, and every eigenvalue
    lies on the unit circle: those windows take the Hermitian route of
    `_normal_eigvecs`, and each eigenvalue is the Rayleigh quotient v* E v.
    Other windows are not normal and take dense `eig`.  The per-pair residual
    ||E v - w v|| is recorded.
    """
    import scipy.linalg  # imported here so the CLI tasks without a spectrum never pay scipy's load time

    E, ab = window.matrix, window.band
    try:
        if window.unimodular:
            V = _normal_eigvecs(E, ab)
            w = None
        else:
            w, V = scipy.linalg.eig(E)
            V /= np.linalg.norm(V, axis=0)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed on window {window.scheme_ref} [{window.a},{window.b}]: {exc}") from exc
    w, resid = _residuals(ab, V, w)
    order = np.argsort(np.angle(w) % (2.0 * np.pi), kind="stable")
    return [EigenPair(complex(w[i]), V[:, i], float(resid[i])) for i in order]


def _normal_eigvecs(E: np.ndarray, ab: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of a normal E through the Hermitian H = (E + E*)/2.

    H has the eigenvectors of E and the eigenvalues cos(theta).  Its ascending
    eigenvalues are cut into groups wherever the gap reaches _CLUSTER_SPACINGS
    mean spacings.  Inside a group the vectors are rotated by one Rayleigh-Ritz
    step with E, which separates the pairs e^{+-i theta} of conjugation-symmetric
    spectra and the crowded cos values near theta = 0, pi, where H's vectors are
    poorly determined.  Last, every vector takes one step of inverse iteration
    with the band of E shifted by its Rayleigh quotient.  The back-transform
    inside `eigh` leaves a floor of 1e-15 to 1e-14 on every site, far above the
    true tail of a localized vector, and decay fits read it as a plateau; the
    banded solve removes it.
    """
    import scipy.linalg  # loaded on first use, as in window_spectrum

    n = len(E)
    H = E.conj().T
    H += E
    H *= 0.5
    c, V = scipy.linalg.eigh(H, overwrite_a=True)
    del H
    cuts = np.flatnonzero(np.diff(c) >= _CLUSTER_SPACINGS * 2.0 / n) + 1
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, n]):
        if hi - lo > 1:
            g = slice(lo, hi)
            # Y has unit columns and V[:, g] orthonormal ones, so V[:, g] Y stays unit
            _, Y = scipy.linalg.eig(V[:, g].conj().T @ _band_dot(ab, V[:, g]))
            V[:, g] = V[:, g] @ Y
    gbsv = scipy.linalg.get_lapack_funcs("gbsv", (ab,))
    for i, shift in enumerate(_residuals(ab, V)[0]):
        shifted = ab.copy()
        shifted[2 * _BAND] -= shift
        _, _, x, info = gbsv(_BAND, _BAND, shifted, V[:, i], overwrite_ab=True)
        if info == 0:  # info > 0: an exactly zero pivot, the shift is an eigenvalue to working precision; v stays
            V[:, i] = x / np.linalg.norm(x)
    return V


def _residuals(ab: np.ndarray, V: np.ndarray, w: np.ndarray | None = None) -> tuple:
    """(w, ||E v - w v||) for the unit columns v of V; w defaults to the Rayleigh quotients v* E v.

    E V is formed from the band of E in column blocks.
    """
    n = V.shape[1]
    rayleigh = w is None
    if rayleigh:
        w = np.empty(n, dtype=complex)
    resid = np.empty(n)
    for j in range(0, n, _COLUMN_BLOCK):
        blk = slice(j, j + _COLUMN_BLOCK)
        v = V[:, blk]
        ev = _band_dot(ab, v)
        if rayleigh:
            w[blk] = np.einsum("ij,ij->j", v.conj(), ev)
        resid[blk] = np.linalg.norm(ev - v * w[blk], axis=0)
    return w, resid


def inverse_participation_ratio(v: np.ndarray) -> float:
    """sum |v|^4 / (sum |v|^2)^2: ~1/size for flat vectors, ~1 for concentrated ones."""
    a2 = np.abs(np.asarray(v)) ** 2
    s = float(np.sum(a2))
    return float(np.sum(a2 * a2) / (s * s))


@dataclass(frozen=True)
class VectorDecayFit:
    center: int
    rate: float
    r2: float


def decay_fit(v: np.ndarray) -> VectorDecayFit:
    """Exponential decay rate of an eigenvector from its two-sided envelope.

    The vector is max-normalized; components are bucketed by distance from the
    peak in blocks of 2 and the block maxima are fitted against the block
    centers.  Points below _NOISE_FLOOR (relative) are dropped.  Flat vectors
    (ipr < 2/size) return rate 0 with r2 0.
    """
    v = np.asarray(v)
    size = len(v)
    if size < 32:
        raise ValueError("decay fit needs vectors of length >= 32")
    mags = np.abs(v)
    mags = mags / np.max(mags)
    center = int(np.argmax(mags))
    if inverse_participation_ratio(v) < 2.0 / size:
        return VectorDecayFit(center=center, rate=0.0, r2=0.0)
    dist = np.abs(np.arange(size) - center)
    max_d = int(np.max(dist))
    n_buckets = max_d // 2 + 1
    env = np.zeros(n_buckets)
    np.maximum.at(env, dist // 2, mags)
    xs = 2.0 * np.arange(n_buckets) + 0.5
    keep = env > _NOISE_FLOOR
    xs, ys = xs[keep], np.log(env[keep])
    if len(xs) < 3:
        return VectorDecayFit(center=center, rate=0.0, r2=0.0)
    slope, _, r2 = _line_fit(xs, ys)
    return VectorDecayFit(center=center, rate=max(-slope, 0.0) if -slope > -1e-6 else 0.0, r2=r2)


@dataclass(frozen=True)
class LocalizationReport:
    eigenvalue: complex
    residual: float  # ||E v - w v|| of the eigenpair
    center: int
    rate: float
    r2: float
    ipr: float
    lyapunov_ref: float
    localized: bool


def localization_scan(
    s: VerblunskyScheme,
    size: int,
    bc: BoundaryPair,
    lyapunov_cfg: SamplingConfig | None = None,
    rate_factor: float = 0.5,
    r2_min: float = 0.9,
    scale: int | None = None,
) -> list:
    """Decay-rate reports for every eigenpair of the window [0, size - 1].

    The Lyapunov reference for each eigenvalue is estimated at scale
    size // 4 (overridable) with a shared sampling plan; an eigenpair is
    flagged localized when rate >= rate_factor * reference and r2 >= r2_min.
    The thresholds are diagnostic conventions, not theorems.
    """
    if size < 64:
        raise ValueError("scan needs size >= 64")
    cfg = lyapunov_cfg or SamplingConfig(mode="grid", grid_side=12)
    n_scale = scale or max(size // 4, 8)
    window = assemble_window(s, (0, size - 1), bc)
    pairs = window_spectrum(window)
    ests = estimate_Ln_many(s, [p.value for p in pairs], n_scale, cfg)
    reports = []
    for pair, est in zip(pairs, ests):
        fit = decay_fit(pair.vector)
        ref = est.mean
        flagged = bool(fit.rate >= rate_factor * ref and fit.r2 >= r2_min and ref > 0)
        reports.append(
            LocalizationReport(
                eigenvalue=pair.value,
                residual=pair.residual,
                center=fit.center,
                rate=fit.rate,
                r2=fit.r2,
                ipr=inverse_participation_ratio(pair.vector),
                lyapunov_ref=ref,
                localized=flagged,
            )
        )
    return reports


def finite_size_drift(
    s: VerblunskyScheme,
    sizes,
    bc: BoundaryPair,
    lyapunov_cfg: SamplingConfig | None = None,
) -> list:
    """Stability of the diagnostic across window sizes.

    Returns one row per size with the median fitted rate, the median of
    ipr * size (an extendedness score that stays O(1) for flat states), and
    the flagged fraction.
    """
    sizes = [int(x) for x in sizes]
    if any(s2 < s1 for s1, s2 in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be ascending")
    rows = []
    for size in sizes:
        reports = localization_scan(s, size, bc, lyapunov_cfg)
        rates = np.array([r.rate for r in reports])
        iprs = np.array([r.ipr for r in reports])
        rows.append(
            {
                "size": size,
                "median_rate": float(np.median(rates)),
                "median_ipr_x_size": float(np.median(iprs * size)),
                "localized_fraction": float(np.mean([r.localized for r in reports])),
            }
        )
    return rows
