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

from .cmv import BoundaryPair, CMVWindow, _dense, _l_root, _lm_dot, _tri_dot, assemble_window
from .green import _line_fit, _resolvent_solve
from .lyapunov import SamplingConfig, estimate_Ln_many
from .model import VerblunskyScheme, _integer

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


# cos values of Re S (_normal_eigvecs) closer than this many mean spacings (2/N) share a Ritz step
_CLUSTER_SPACINGS = 0.3
# columns per block when forming E V and when fitting decay, which bounds the temporaries to N x 64
_COLUMN_BLOCK = 64
# shifts per solve (green._pencil_solve): its work array takes 16 KiB per site, 8.4 MiB at 512 sites,
# and fewer shifts per call pay the per-row Python overhead more often (all shifts on one
# core: at 512 sites 0.039-0.041 s in calls of 256, 0.032-0.039 s in calls of 512; at 2048
# sites 0.69-0.90 s in calls of 256, 0.53-0.68 s in calls of 512, 0.47-0.62 s in one call)
_LANE_BLOCK = 256
# decay_fit drops envelope points below this fraction of the peak, the noise plateau of localized vectors
_NOISE_FLOOR = 1e-14


def window_spectrum(window: CMVWindow) -> list:
    """All eigenpairs of the window, sorted by eigenvalue angle for determinism.

    Under a unimodular boundary E is unitary, hence normal, and every eigenvalue
    lies on the unit circle: those windows take the real symmetric route of
    `_normal_eigvecs`; other windows are not normal and take dense `eig`'s vectors.
    Each eigenvalue is the Rayleigh quotient v* E v, with residual ||E v - w v||.
    """
    try:
        if window.unimodular:
            V = _normal_eigvecs(window)
        else:
            V = np.linalg.eig(window.matrix)[1]
            V /= np.linalg.norm(V, axis=0)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed on window [{window.a},{window.b}]: {exc}") from exc
    w, resid = _residuals(window.lm, V)
    order = np.argsort(np.angle(w) % (2.0 * np.pi), kind="stable")
    return [EigenPair(complex(w[i]), V[:, i], float(resid[i])) for i in order]


def _normal_eigvecs(window: CMVWindow) -> np.ndarray:
    """Unit eigenvectors of a unitary window E = L M through the real symmetric Re S.

    With R the symmetric unitary square root of L (`cmv._l_root`), S = R M R =
    R^{-1} E R is complex symmetric and unitary, so its real and imaginary parts
    are real symmetric matrices that commute, and a real orthogonal U
    diagonalizes both.  Re S has the eigenvalues cos(theta) of E's e^{i theta},
    and `eigh` of that real band of seven diagonals gives U; V = R U has unit
    columns, E's eigenvectors up to clusters of cos values.  The ascending cos
    values are cut into groups wherever the gap reaches _CLUSTER_SPACINGS mean
    spacings.  Inside a group the vectors are rotated by one Rayleigh-Ritz step
    with E, which separates the pairs e^{+-i theta} that share a cos value and
    the crowded cos values near theta = 0, pi, where U is poorly determined.
    Last, every vector takes one step of inverse iteration with E shifted by its
    Rayleigh quotient.  The back-transform inside `eigh` leaves a floor of 1e-15
    to 1e-14 on every site, far above the true tail of a localized vector, and
    decay fits read it as a plateau; the solve removes it.

    The step x = (E - s)^{-1} v = -G(s) conj(L) v solves through `green`'s pencil,
    _LANE_BLOCK shifts per call.  A shift that makes the pencil exactly singular
    is an eigenvalue to working precision, and its vector stays.
    """
    lm, n = window.lm, window.size
    r = _l_root(lm, window.a)
    c, U = np.linalg.eigh(_real_s(lm, r))
    V = np.empty((n, n), dtype=complex)
    for j in range(0, n, _COLUMN_BLOCK):
        V[:, j : j + _COLUMN_BLOCK] = _tri_dot(*r, U[:, j : j + _COLUMN_BLOCK])
    del U
    cuts = np.flatnonzero(np.diff(c) >= _CLUSTER_SPACINGS * 2.0 / n) + 1
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, n]):
        if hi - lo > 1:
            g = slice(lo, hi)
            # Y has unit columns and V[:, g] orthonormal ones, so V[:, g] Y stays unit
            _, Y = np.linalg.eig(V[:, g].conj().T @ _lm_dot(lm, V[:, g]))
            V[:, g] = V[:, g] @ Y
    shifts = _residuals(lm, V)[0]
    for j in range(0, n, _LANE_BLOCK):
        blk = V[:, j : j + _LANE_BLOCK]  # a view, which the step writes back into
        x = _resolvent_solve(lm, shifts[j : j + _LANE_BLOCK], blk)
        solved = np.isfinite(x).all(axis=0)
        x = x[:, solved]  # a copy: the solve's work array, which x viewed, is freed here
        blk[:, solved] = x / np.linalg.norm(x, axis=0)
        del x  # before the next block allocates its own work array
    return V


def _real_s(lm: tuple, r: tuple) -> np.ndarray:
    """Re S for S = R M R, a dense real matrix scattered from S's seven diagonals.

    S is banded with |i - j| <= 3, so S X on the probes X[j, j % 7] = 1 holds
    every band entry once: S[i, j] = (S X)[i, j % 7].  S X is three tridiagonal
    products of an N x 7 array, and no dense complex matrix is formed.
    """
    n = len(r[0])
    j = np.arange(n)
    probes = np.zeros((n, 7))
    probes[j, j % 7] = 1.0
    SX = _tri_dot(*r, _tri_dot(lm[2], lm[3], _tri_dot(*r, probes))).real
    diagonals = {}
    for k in range(-3, 4):
        cols = np.arange(max(-k, 0), n - max(k, 0))  # S[cols + k, cols] is diagonal k
        diagonals[k] = SX[cols + k, cols % 7]
    return _dense(diagonals)


def _residuals(lm: tuple, V: np.ndarray) -> tuple:
    """(w, ||E v - w v||) for the unit columns v of V, w the Rayleigh quotients v* E v.

    For a unit v no scalar w gives a smaller residual than v* E v.  E V is formed
    as L (M V), from the window's `lm`, in column blocks.
    """
    n = V.shape[1]
    w, resid = np.empty(n, dtype=complex), np.empty(n)
    for j in range(0, n, _COLUMN_BLOCK):
        blk = slice(j, j + _COLUMN_BLOCK)
        v = V[:, blk]
        ev = _lm_dot(lm, v)
        w[blk] = np.einsum("ij,ij->j", v.conj(), ev)
        resid[blk] = np.linalg.norm(ev - v * w[blk], axis=0)
    return w, resid


def inverse_participation_ratio(v: np.ndarray):
    """sum |v|^4 / (sum |v|^2)^2: ~1/size for flat vectors, ~1 for concentrated ones.

    A matrix gives an array with the ratio of each column.
    """
    a2 = np.abs(np.asarray(v)) ** 2
    s = np.sum(a2, axis=0)
    ratio = np.sum(a2 * a2, axis=0) / (s * s)
    return float(ratio) if a2.ndim == 1 else ratio


@dataclass(frozen=True)
class VectorDecayFit:
    center: int
    rate: float
    r2: float


def decay_fit(v: np.ndarray):
    """Exponential decay rate of an eigenvector from its two-sided envelope.

    The vector is max-normalized; components are bucketed by distance from the
    peak in blocks of 2 and the block maxima are fitted against the block
    centers.  Points below _NOISE_FLOOR (relative) are dropped.  Flat vectors
    (ipr < 2/size) return rate 0 with r2 0.  A matrix is read as column
    vectors and gives a list with the fit of each column, fitted _COLUMN_BLOCK
    columns at a time.  Each column is fitted as a contiguous row, so its fit is
    bit-identical to the fit of that column alone.
    """
    v = np.asarray(v)
    size = len(v)
    if size < 32:
        raise ValueError("decay fit needs vectors of length >= 32")
    columns = v.reshape(size, -1)
    fits = []
    for j in range(0, columns.shape[1], _COLUMN_BLOCK):
        fits += _fit_rows(np.abs(columns[:, j : j + _COLUMN_BLOCK].T, order="C"))
    return fits if v.ndim == 2 else fits[0]


def _fit_rows(mags: np.ndarray) -> list:
    """decay_fit of each row of mags, the magnitudes of one block of vectors; mags is overwritten."""
    size = mags.shape[1]
    mags /= np.max(mags, axis=1, keepdims=True)
    centers = np.argmax(mags, axis=1)
    # env[j, b]: the largest mags[j] at distance 2b or 2b + 1 from its center, 0 where no site lies
    n_buckets = (size + 1) // 2
    d = np.arange(2 * n_buckets)
    env = np.maximum(_take_or_zero(mags, centers[:, None] + d), _take_or_zero(mags, centers[:, None] - d))
    env = env.reshape(-1, n_buckets, 2).max(axis=2)
    keep = env > _NOISE_FLOOR
    # mags.T has contiguous columns, so each of its column sums runs along one vector alone
    fitted = (np.sum(keep, axis=1) >= 3) & (inverse_participation_ratio(mags.T) >= 2.0 / size)
    rates, r2s = np.zeros(len(centers)), np.zeros(len(centers))
    if fitted.any():
        xs = 2.0 * np.arange(n_buckets) + 0.5
        ys = np.log(np.where(keep[fitted], env[fitted], 1.0))
        slope, _, r2s[fitted] = _line_fit(xs, ys, keep[fitted])
        rates[fitted] = np.where(slope < 0, -slope, 0.0)
    return [VectorDecayFit(center=int(c), rate=float(r), r2=float(q)) for c, r, q in zip(centers, rates, r2s)]


def _take_or_zero(mags: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """mags[j, idx[j, i]] for every row j, and 0 where idx[j, i] lies outside the row."""
    size = mags.shape[1]
    inside = (idx >= 0) & (idx < size)
    return np.where(inside, np.take_along_axis(mags, np.clip(idx, 0, size - 1), axis=1), 0.0)


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
    # w / |w| lies within 2 eps of the circle, where the references carry one column
    zs = [p.value / abs(p.value) if window.unimodular else p.value for p in pairs]
    ests = estimate_Ln_many(s, zs, n_scale, cfg)
    vectors = np.column_stack([p.vector for p in pairs])
    fits = decay_fit(vectors)
    iprs = inverse_participation_ratio(vectors)
    reports = []
    for pair, est, fit, ipr in zip(pairs, ests, fits, iprs):
        ref = est.mean
        flagged = bool(fit.rate >= rate_factor * ref and fit.r2 >= r2_min and ref > 0)
        reports.append(
            LocalizationReport(
                eigenvalue=pair.value,
                residual=pair.residual,
                center=fit.center,
                rate=fit.rate,
                r2=fit.r2,
                ipr=float(ipr),
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
    sizes = [_integer(f"sizes[{i}]", x) for i, x in enumerate(sizes)]
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
