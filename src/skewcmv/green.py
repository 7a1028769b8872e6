"""Finite-volume Green's functions, determinant-ratio entries, and boundary identities.

The Green operator of a window is G = (z L* - M)^{-1} built from the window's
factorization; since (z L* - M) = L* (z - E) this is the resolvent of the
window followed by L; inverse iteration solves through the same pencil.
Entry magnitudes factor into ratios of characteristic
polynomials of sub-windows (the determinant identity is a unit-circle
statement: it equates moduli of dual polynomial pairs, which agree only for
|z| = 1).  Restricting a whole-line solution of E psi = z psi to a window
leaves a two-point boundary inhomogeneity whose values depend on the parity of
the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmv import CMVWindow, _dense, _diagonals, _lm_dot, _tri_dot, _window_lm

__all__ = [
    "SpectrumError",
    "SolutionError",
    "GreenMatrix",
    "DecayFit",
    "DavisSimonGap",
    "TildeBoundaryValues",
    "green_matrix",
    "green_entry_via_polys",
    "green_decay_fit",
    "davis_simon_gap",
    "tilde_boundary_values",
    "restriction_residual",
]

# green_matrix raises SpectrumError when max |(z L* - M) G - I| exceeds this
_RESIDUAL_TOL = 1e-6
# restriction_residual requires the difference equation to hold this well on the interior
_EIGEN_TOL = 1e-10
# green_decay_fit drops envelope values at or below this, the zeros a window can leave
_ENVELOPE_FLOOR = 1e-300


class SpectrumError(ValueError):
    """Raised when z is (numerically) in the spectrum of the window."""


class SolutionError(ValueError):
    """Raised when a claimed eigen-sequence fails the difference equation."""


@dataclass(frozen=True)
class GreenMatrix:
    window: CMVWindow
    z: complex
    entries: np.ndarray
    residual: float  # max |(z L* - M) G - I|

    def entry(self, j: int, k: int) -> complex:
        return complex(self.entries[j - self.window.a, k - self.window.a])


def _pencil(window: CMVWindow, z: complex) -> np.ndarray:
    """z L* - M, dense; L is symmetric, so L* = conj(L) and the pencil is tridiagonal."""
    l_diag, l_off, m_diag, m_off = window.lm
    off = z * l_off.conj() - m_off
    return _dense({0: z * l_diag.conj() - m_diag, 1: off, -1: off})


def green_matrix(window: CMVWindow, z: complex) -> GreenMatrix:
    """Dense solve for G = (z L* - M)^{-1}; a residual above 1e-6 raises SpectrumError."""
    z = complex(z)
    A = _pencil(window, z)
    try:
        G = np.linalg.solve(A, np.eye(window.size))
    except np.linalg.LinAlgError as exc:
        raise SpectrumError(f"solve failed at z = {z}: {exc}") from exc
    residual = float(np.max(np.abs(A @ G - np.eye(window.size))))
    if residual > _RESIDUAL_TOL:
        raise SpectrumError(f"residual {residual:.3e} > {_RESIDUAL_TOL:.0e}; z too close to spectrum")
    return GreenMatrix(window, z, G, residual)


def _pencil_solve(a_diag, a_off, b_diag, b_off, shifts, rhs) -> np.ndarray:
    """Y with (A - s_k B) Y[:, k] = rhs[:, k] for every shift s_k; A and B are symmetric tridiagonal.

    A and B are given by their diagonals (n) and off-diagonals (n - 1).  Every
    lane k is eliminated at once with partial pivoting by rows, as LAPACK
    `gtsv` does, so the Python loop runs over the n rows.  A lane whose system
    has an exactly zero pivot, or whose solution overflows, comes back with
    non-finite entries and no warning.
    """
    n = len(a_diag)
    # W[i] = (T[i, i - 1], T[i, i], T[i, i + 1], rhs[i]); row i of U and its rhs replace it
    # in columns i .. i + 2 as the elimination passes, and two zero rows pad the back substitution
    W = np.zeros((n + 2, 4, len(shifts)), dtype=complex)
    for band, a, b in ((W[:n, 1], a_diag, b_diag), (W[1:n, 0], a_off, b_off)):  # a - b s, formed in place
        np.multiply(b[:, None], shifts, out=band)
        np.subtract(a[:, None], band, out=band)
    W[: n - 1, 2] = W[1:n, 0]
    W[:n, 3] = rhs
    row = np.zeros((4, len(shifts)), dtype=complex)  # row i in columns i .. i + 2 (the last stays 0), then its rhs
    row[[0, 1, 3]] = W[0, 1:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(n - 1):
            nxt = W[i + 1]  # row i + 1 in columns i .. i + 2, then its rhs
            swap = np.abs(row[0]) < np.abs(nxt[0])
            pivot, other = np.where(swap, nxt, row), np.where(swap, row, nxt)
            rest = other[1:] - (other[0] / pivot[0]) * pivot[1:]
            W[i] = pivot
            row[:2], row[3] = rest[:2], rest[2]
        W[n - 1] = row
        y = W[:, 3]
        for i in range(n - 1, -1, -1):
            y[i] = (y[i] - W[i, 1] * y[i + 1] - W[i, 2] * y[i + 2]) / W[i, 0]
    return y[:n]


def _resolvent_solve(lm: tuple, shifts, rhs) -> np.ndarray:
    """(E - s_k)^{-1} rhs[:, k] = -G(s_k) conj(L) rhs[:, k] for every shift s_k, E unitary.

    L is unitary and symmetric, so E - s = -L (s conj(L) - M); an exactly singular lane is non-finite.
    """
    l_diag, l_off, m_diag, m_off = lm
    l_diag, l_off = l_diag.conj(), l_off.conj()
    return _pencil_solve(m_diag, m_off, l_diag, l_off, shifts, _tri_dot(l_diag, l_off, rhs))


def _logabs_charpoly(window: CMVWindow, lo: int, hi: int, z: complex) -> float:
    """log |det(z - E_sub)| for the sub-window [lo, hi] of the window; empty intervals give 0, singular ones -inf.

    A sub-window reaching a cut keeps the window's beta at a-1 or gamma at b;
    an inner cut keeps the raw coefficient.
    """
    if hi < lo:
        return 0.0
    cuts = {window.a - 1: window.beta, window.b: window.gamma}
    E = _dense(_diagonals(_window_lm(window.raw_alphas[lo - window.a : hi - window.a + 2], lo, cuts)))
    return float(np.linalg.slogdet(z * np.eye(hi - lo + 1) - E)[1])


def green_entry_via_polys(window: CMVWindow, j: int, k: int, z: complex) -> float:
    """|G(j, k; z)| from characteristic polynomials of sub-windows, z on the circle.

    For j <= k the magnitude factors as

        |G(j,k)| = (prod_{i=j}^{k-1} rho_i) |P_[a,j-1] P_[k+1,b] / P_[a,b]|

    with P the characteristic polynomials of the left (beta kept), right
    (gamma kept) and full windows; empty sub-intervals contribute 1.
    Equivalently, with the rho-normalized polynomials, the prefactor is
    1/rho_k.  Computed in log space so large windows cannot overflow.
    """
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-9:
        raise ValueError("determinant-ratio entries require |z| = 1")
    if j > k:
        j, k = k, j  # G is symmetric
    if not (window.a <= j and k <= window.b):
        raise IndexError(f"indices ({j}, {k}) outside window [{window.a}, {window.b}]")
    log_left = _logabs_charpoly(window, window.a, j - 1, z)
    log_right = _logabs_charpoly(window, k + 1, window.b, z)
    log_full = _logabs_charpoly(window, window.a, window.b, z)
    if log_full == -np.inf:
        raise SpectrumError("z is in the window spectrum")
    log_rho = float(np.sum([np.log(window.raw_rho(i)) for i in range(j, k)])) if k > j else 0.0
    return float(np.exp(log_rho + log_left + log_right - log_full))


@dataclass(frozen=True)
class DecayFit:
    rate: float
    intercept: float
    r2: float


def _line_fit(x: np.ndarray, y: np.ndarray, keep: np.ndarray) -> tuple:
    """Least-squares lines through the points (x[i], y[j, i]) with keep[j, i], one per row j.

    Returns (slope, intercept, r2) arrays over the rows, from the centred
    closed form; r2 is 0 for a row whose kept y are constant.  Every row
    needs two kept points with distinct x, and y must be finite where keep is
    False.  Each sum runs along a row, so a row's line does not depend on the
    other rows.
    """
    w = keep.astype(float)
    count = np.sum(w, axis=1)
    mx = np.sum(w * x, axis=1) / count
    my = np.sum(w * y, axis=1) / count
    dx, dy = w * (x - mx[:, None]), w * (y - my[:, None])
    slope = np.sum(dx * dy, axis=1) / np.sum(dx * dx, axis=1)
    intercept = my - slope * mx
    ss_res = np.sum(w * (y - slope[:, None] * x - intercept[:, None]) ** 2, axis=1)
    ss_tot = np.sum(dy * dy, axis=1)
    r2 = np.where(ss_tot > 0, 1.0 - ss_res / np.where(ss_tot > 0, ss_tot, 1.0), 0.0)
    return slope, intercept, r2


def green_decay_fit(g: GreenMatrix) -> DecayFit:
    """Off-diagonal decay rate of log |G(j,k)| against |j - k|.

    A window with unimodular boundary is a closed cycle, so entries connecting
    j to k "the long way around" do not decay in lattice distance; a plain fit
    over all pairs sees them and reports garbage.  The fit therefore uses the
    per-distance envelope max_{|j-k|=d} |G|, restricted to d below half the
    window (where the direct path dominates the wrap-around), with block-of-2
    maxima to bridge the parity sublattices.  Envelope values that are zero
    (at or below _ENVELOPE_FLOOR) are dropped.
    """
    size = g.window.size
    if size < 16:
        raise ValueError("decay fit needs window size >= 16")
    dmax = size // 2 - 2
    mags = np.abs(g.entries)
    # envelope[d]: the largest |G(j, k)| with |j - k| = d, read off G's diagonals d and -d
    envelope = np.array([max(np.diagonal(mags, d).max(), np.diagonal(mags, -d).max()) for d in range(dmax + 1)])
    m = np.arange(1, dmax // 2 + 1)
    e = np.maximum(envelope[2 * m - 1], envelope[2 * m])
    keep = e > _ENVELOPE_FLOOR
    if np.count_nonzero(keep) < 3:
        return DecayFit(rate=0.0, intercept=0.0, r2=0.0)
    slope, intercept, r2 = _line_fit(2.0 * m - 0.5, np.log(np.where(keep, e, 1.0))[None], keep[None])
    return DecayFit(rate=-float(slope[0]), intercept=float(intercept[0]), r2=float(r2[0]))


@dataclass(frozen=True)
class DavisSimonGap:
    product: float
    bound: float
    dist: float
    resolvent_norm: float

    @property
    def holds(self) -> bool:
        return self.product <= self.bound * (1.0 + 1e-8)


def davis_simon_gap(window_or_matrix, z: complex) -> DavisSimonGap:
    """dist(z, spec) * ||(z - A)^{-1}|| against the dimension bound cot(pi / (4 n)).

    Requires |z| >= ||A|| and z off the spectrum.  Normal matrices (every
    unitary window) attain product = 1 exactly; the cot bound is what survives
    for arbitrary non-normal A.
    """
    A = window_or_matrix.matrix if isinstance(window_or_matrix, CMVWindow) else np.asarray(window_or_matrix, dtype=complex)
    z = complex(z)
    n = A.shape[0]
    svals = np.linalg.svd(z * np.eye(n) - A, compute_uv=False)
    norm_A = float(np.linalg.svd(A, compute_uv=False)[0]) if n > 1 else float(abs(A[0, 0]))
    if abs(z) < norm_A - 1e-12:
        raise ValueError(f"|z| = {abs(z):.6f} < ||A|| = {norm_A:.6f}")
    smin = float(svals[-1])
    if smin < 1e-14:
        raise SpectrumError("z is in the spectrum")
    eigs = np.linalg.eigvals(A)
    dist = float(np.min(np.abs(z - eigs)))
    resolvent_norm = 1.0 / smin
    bound = 1.0 / np.tan(np.pi / (4.0 * n))
    return DavisSimonGap(product=dist * resolvent_norm, bound=float(bound), dist=dist, resolvent_norm=resolvent_norm)


@dataclass(frozen=True)
class TildeBoundaryValues:
    """Boundary inhomogeneity of the restricted difference equation at the two endpoints."""

    at_a: complex
    at_b: complex
    parity_a: str
    parity_b: str


def tilde_boundary_values(window: CMVWindow, z: complex, psi_a, psi_a1, psi_b, psi_b1) -> TildeBoundaryValues:
    """Boundary values from psi at the endpoint pairs (a, a+1) and (b, b-1).

    The formulas come from the window factorization and pass the forward-solve
    oracle at machine precision:

        a even:  (z alpha_a + beta) psi(a) + z rho_a psi(a+1)
        a odd:   (-z conj(beta) - conj(alpha_a)) psi(a) - rho_a psi(a+1)
        b even:  (z gamma + alpha_{b-1}) psi(b) - rho_{b-1} psi(b-1)
        b odd:   (-z conj(alpha_{b-1}) - conj(gamma)) psi(b) + z rho_{b-1} psi(b-1)
    """
    z = complex(z)
    a, b = window.a, window.b
    beta, gamma = window.beta, window.gamma
    alpha_a = window.raw_alpha(a)
    rho_a = window.raw_rho(a)
    alpha_bm1 = window.raw_alpha(b - 1)
    rho_bm1 = window.raw_rho(b - 1)

    if a % 2 == 0:
        va = (z * alpha_a + beta) * psi_a + z * rho_a * psi_a1
    else:
        va = (-z * np.conj(beta) - np.conj(alpha_a)) * psi_a - rho_a * psi_a1
    if b % 2 == 0:
        vb = (z * gamma + alpha_bm1) * psi_b - rho_bm1 * psi_b1
    else:
        vb = (-z * np.conj(alpha_bm1) - np.conj(gamma)) * psi_b + z * rho_bm1 * psi_b1
    return TildeBoundaryValues(
        at_a=complex(va),
        at_b=complex(vb),
        parity_a="even" if a % 2 == 0 else "odd",
        parity_b="even" if b % 2 == 0 else "odd",
    )


def restriction_residual(window: CMVWindow, z: complex, psi: np.ndarray) -> float:
    """Worst interior defect of psi(n) = G(n,a) psi~(a) + G(n,b) psi~(b).

    `psi` is the solution sampled on lattice sites a-1 .. b+1 (index 0 is
    a-1).  The solution must satisfy the raw difference equation on the
    interior to 1e-10, otherwise SolutionError is raised.
    """
    psi = np.asarray(psi, dtype=complex)
    a, b = window.a, window.b
    if len(psi) != window.size + 2:
        raise ValueError(f"psi must cover [a-1, b+1] ({window.size + 2} values), got {len(psi)}")
    z = complex(z)
    # E psi = z psi on the raw rows over [a-1, b+1]; the interior rows a+1 .. b-1 read only
    # alpha_{a-1} .. alpha_b, so the padding is free
    resid = _lm_dot(_window_lm(np.pad(window.raw_alphas, 1), a - 1), psi[:, None])[:, 0] - z * psi
    defect = float(np.max(np.abs(resid[2:-2]))) if len(resid) > 4 else float(np.max(np.abs(resid)))
    if defect > _EIGEN_TOL:
        raise SolutionError(f"eigen-equation residual {defect:.3e} > {_EIGEN_TOL:.0e} on the interior")

    def at(n):
        return psi[n - (a - 1)]

    tv = tilde_boundary_values(window, z, at(a), at(a + 1), at(b), at(b - 1))
    A = _pencil(window, z)
    ends = np.zeros((window.size, 2), dtype=complex)
    ends[0, 0] = ends[-1, 1] = 1.0
    col_a, col_b = np.linalg.solve(A, ends).T  # the columns of G at a and at b
    worst = 0.0
    for n in range(a + 1, b):
        pred = col_a[n - a] * tv.at_a + col_b[n - a] * tv.at_b
        worst = max(worst, abs(at(n) - pred))
    return float(worst)
