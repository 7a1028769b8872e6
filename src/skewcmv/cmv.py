"""Finite boundary-modified CMV windows, their LM factorization, and characteristic polynomials.

A window over the lattice interval [a, b] is the submatrix of the extended CMV
operator whose coefficient sequence has been substituted at the two cut
positions: alpha_{a-1} -> beta and alpha_b -> gamma.  Unimodular beta, gamma
set rho = 0 at the cuts, decouple the window from the rest of the lattice, and
make the window unitary with an exact factorization E = L M into direct sums of
2x2 blocks (even-indexed blocks in L, odd-indexed in M; parity is anchored to
the absolute lattice index).

Every window comes from one builder, `_window_band`, and it is the only place
that knows which block belongs to which factor.  From the coefficients
alpha_{a-1} .. alpha_b, the only ones E over [a, b] reads, and a substitution
map it forms all Theta blocks at once and cuts them into `lm`, the diagonals
and off-diagonals of the symmetric tridiagonals L and M.  E's five diagonals
(Cantero, Moral & Velazquez 2003) are read off `lm`, each entry the single
product L[i, k] M[k, j] that parity selects, in LAPACK's general band layout.
The dense E that dense eigensolvers and the dense oracles need is
scattered from the band on first use, and the dense L and M from `lm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import VerblunskyScheme, scheme_hash, verblunsky_range

__all__ = [
    "CoefficientError",
    "BoundaryPair",
    "CMVWindow",
    "CharPoly",
    "theta_block",
    "assemble_window",
    "char_poly",
    "scheme_submatrix",
]

_UNIMODULAR_TOL = 1e-12
# half-bandwidth of E; the band layout is band[_BAND + i - j, j] = E[i, j]
_BAND = 2


class CoefficientError(ValueError):
    """Raised for coefficients outside the closed unit disk."""


def _in_disk(name: str, value) -> complex:
    """`value` as a complex number; CoefficientError naming it unless |value|^2 <= 1 + 4e-16, as in _theta."""
    value = complex(value)
    if abs(value) ** 2 > 1.0 + 4e-16:
        raise CoefficientError(f"|{name}| = {abs(value):.6f} > 1")
    return value


def _theta(alphas) -> np.ndarray:
    """Blocks [[conj(alpha), rho], [rho, -alpha]] for every alpha at once, shape alphas.shape + (2, 2)."""
    alphas = np.asarray(alphas, dtype=complex)
    a2 = np.abs(alphas) ** 2
    if (a2 > 1.0 + 4e-16).any():
        raise CoefficientError(f"|alpha| = {np.sqrt(np.max(a2)):.6f} > 1")
    th = np.empty(alphas.shape + (2, 2), dtype=complex)
    th[..., 0, 0] = alphas.conj()
    th[..., 0, 1] = th[..., 1, 0] = np.sqrt(np.maximum(1.0 - a2, 0.0))
    th[..., 1, 1] = -alphas
    return th


def theta_block(alpha: complex) -> np.ndarray:
    """The 2x2 block [[conj(alpha), rho], [rho, -alpha]] with rho = sqrt(1 - |alpha|^2).

    Unitary for |alpha| <= 1; |alpha| = 1 gives rho = 0 and decouples the two sites.
    """
    return _theta(complex(alpha))


def _window_band(alphas, a: int, substitutions: dict | None = None) -> tuple[np.ndarray, tuple]:
    """E over [a, b] in band layout, and lm = (l_diag, l_off, m_diag, m_off), from alphas[m] = alpha_{a-1+m}.

    `substitutions` maps lattice sites to replacement coefficients; sites
    outside a-1 .. b do not enter E and are ignored.  L and M are symmetric
    tridiagonal over [a, b]: site j takes the [0, 0] entry of its own Theta
    block and the [1, 1] entry of the block at j - 1; its own block belongs to
    L at even j and to M at odd j, and so does the off-diagonal entry rho_j
    that couples j and j + 1.  Each entry of E = L M is the one product that
    parity selects, so no zero term is summed into it.
    """
    alphas = np.array(alphas, dtype=complex)
    for site, value in (substitutions or {}).items():
        if 0 <= site - (a - 1) < len(alphas):
            alphas[site - (a - 1)] = value
    blocks = _theta(alphas)  # blocks[m] sits at site a - 1 + m
    n = len(alphas) - 1
    own_is_l = (a + np.arange(n)) % 2 == 0
    own, before, rho = blocks[1:, 0, 0], blocks[:-1, 1, 1], blocks[1:-1, 0, 1]
    ld, md = np.where(own_is_l, own, before), np.where(own_is_l, before, own)
    pair = own_is_l[:-1]  # pair[i]: L couples i and i + 1, else M does
    lo, mo = np.where(pair, rho, 0.0), np.where(pair, 0.0, rho)
    band = np.zeros((2 * _BAND + 1, n), dtype=complex)
    band[_BAND] = ld * md
    band[_BAND - 1, 1:] = np.where(pair, lo * md[1:], ld[:-1] * mo)   # E[i, i + 1]
    band[_BAND + 1, :-1] = np.where(pair, lo * md[:-1], ld[1:] * mo)  # E[i + 1, i]
    band[_BAND - 2, 2:] = np.where(pair[:-1], lo[:-1] * mo[1:], 0.0)  # E[i, i + 2]
    band[_BAND + 2, :-2] = np.where(pair[1:], lo[1:] * mo[:-1], 0.0)  # E[i + 2, i]
    return band, (ld, lo, md, mo)


def _dense(band: np.ndarray) -> np.ndarray:
    """The dense matrix of a band layout."""
    n = band.shape[1]
    E = np.zeros((n, n), dtype=complex)
    flat = E.reshape(-1)
    for k in range(-_BAND, _BAND + 1):  # E[j + k, j] for j0 <= j < j1, a stride of n + 1 in `flat`
        j0, j1 = max(-k, 0), n - max(k, 0)
        flat[(j0 + k) * n + j0 :: n + 1][: j1 - j0] = band[_BAND + k, j0:j1]
    return E


def _band_dot(band: np.ndarray, X: np.ndarray) -> np.ndarray:
    """E X for a 2-D X, from the band layout of E."""
    n = len(X)
    out = np.zeros(X.shape, dtype=complex)
    for k in range(-_BAND, _BAND + 1):  # out[i] += E[i, i - k] X[i - k]
        lo, hi = max(k, 0), n + min(k, 0)
        out[lo:hi] += band[_BAND + k, lo - k : hi - k, None] * X[lo - k : hi - k]
    return out


def _hermitian_part(band: np.ndarray) -> np.ndarray:
    """(E + E*)/2 in band layout, from the band layout of E."""
    n = band.shape[1]
    hb = np.zeros_like(band)
    for k in range(-_BAND, _BAND + 1):  # H[j + k, j] = (E[j + k, j] + conj(E[j, j + k])) / 2
        j0, j1 = max(-k, 0), n - max(k, 0)
        hb[_BAND + k, j0:j1] = 0.5 * (band[_BAND + k, j0:j1] + band[_BAND - k, j0 + k : j1 + k].conj())
    return hb


def _tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The dense symmetric tridiagonal matrix with these diagonal and off-diagonal entries."""
    n = len(diag)
    T = np.zeros((n, n), dtype=complex)
    flat = T.reshape(-1)
    flat[:: n + 1] = diag
    flat[1 :: n + 1] = flat[n :: n + 1] = off
    return T


@dataclass(frozen=True)
class BoundaryPair:
    """Boundary values (beta, gamma) substituted at the cut positions a-1 and b.

    Unimodular values (the usual case) give unitary windows; beta = -1 on a
    window starting at 0 reproduces the half-line operator.
    """

    beta: complex
    gamma: complex

    def __post_init__(self):
        for name in ("beta", "gamma"):
            object.__setattr__(self, name, _in_disk(name, getattr(self, name)))

    @property
    def unimodular(self) -> bool:
        return (
            abs(abs(self.beta) - 1.0) < _UNIMODULAR_TOL
            and abs(abs(self.gamma) - 1.0) < _UNIMODULAR_TOL
        )


def scheme_submatrix(
    s: VerblunskyScheme, a: int, b: int, substitutions: dict | None = None
) -> np.ndarray:
    """Dense submatrix over [a, b] of the extended operator generated by `s`.

    `substitutions` maps lattice indices to replacement coefficient values
    (used for boundary modifications and for the determinant identities, where
    sub-windows keep raw coefficients at the inner cuts).
    """
    return _dense(_window_band(verblunsky_range(s, a - 1, b), a, substitutions)[0])


@dataclass(frozen=True)
class CMVWindow:
    """A finite boundary-modified window with its factorization.

    `raw_alphas` holds the scheme's unmodified coefficients on [a-1, b]
    (needed by the determinant identities and the boundary-value formulas);
    the effective sequence replaces the values at a-1 and b by beta and gamma.
    `band` holds E's five diagonals and `lm` the diagonals and off-diagonals of
    the symmetric tridiagonal factors L and M.  The dense `matrix` (E) is
    scattered from `band` on first use, and the dense `L` and `M` from `lm`.
    """

    a: int
    b: int
    beta: complex
    gamma: complex
    raw_alphas: np.ndarray  # scheme values on lattice sites a-1 .. b
    band: np.ndarray        # E in band layout, band[_BAND + i - j, j] = E[i, j]
    lm: tuple               # (l_diag, l_off, m_diag, m_off) of E = L M
    unimodular: bool
    scheme_ref: str = ""

    @property
    def size(self) -> int:
        return self.b - self.a + 1

    @cached_property
    def matrix(self) -> np.ndarray:
        """E = submatrix of the modified operator."""
        return _dense(self.band)

    @cached_property
    def L(self) -> np.ndarray:
        return _tridiagonal(*self.lm[:2])

    @cached_property
    def M(self) -> np.ndarray:
        return _tridiagonal(*self.lm[2:])

    def raw_alpha(self, n: int) -> complex:
        if not self.a - 1 <= n <= self.b:
            raise IndexError(f"site {n} outside stored range [{self.a - 1}, {self.b}]")
        return complex(self.raw_alphas[n - (self.a - 1)])

    def raw_rho(self, n: int) -> float:
        return float(np.sqrt(1.0 - abs(self.raw_alpha(n)) ** 2))


def assemble_window(s: VerblunskyScheme, interval, bc: BoundaryPair) -> CMVWindow:
    """Build the window over `interval` = (a, b) with boundary pair `bc`.

    The block parity is taken from the absolute lattice index, so windows with
    odd a match the infinite-volume factorization.  A non-unimodular boundary is
    permitted but flagged: the window is still built (as a submatrix of the
    modified operator) and the unitarity and E = L M identities are waived.
    """
    a, b = int(interval[0]), int(interval[1])
    if b < a:
        raise ValueError(f"empty interval [{a}, {b}]")
    if b - a + 1 < 2:
        raise ValueError("window size must be >= 2")
    raw = verblunsky_range(s, a - 1, b)
    band, lm = _window_band(raw, a, {a - 1: bc.beta, b: bc.gamma})
    return CMVWindow(
        a=a,
        b=b,
        beta=bc.beta,
        gamma=bc.gamma,
        raw_alphas=raw,
        band=band,
        lm=lm,
        unimodular=bc.unimodular,
        scheme_ref=scheme_hash(s),
    )


@dataclass(frozen=True)
class CharPoly:
    """Characteristic polynomial values at a point z.

    Phi = det(z - E) is monic in z; phi divides out the product of the
    scheme's (unsubstituted) rho_j over the window interval, which is the
    normalization under which the Green's-function determinant identity holds.
    Empty intervals give Phi = phi = 1 by convention.
    """

    Phi: complex
    phi: complex


def char_poly(window: CMVWindow, z: complex) -> CharPoly:
    z = complex(z)
    E = window.matrix
    Phi = complex(np.linalg.det(z * np.eye(window.size) - E))
    rho_prod = float(np.prod([window.raw_rho(n) for n in range(window.a, window.b + 1)]))
    return CharPoly(Phi=Phi, phi=Phi / rho_prod)
