"""Finite boundary-modified CMV windows, their LM factorization, and characteristic polynomials.

A window over the lattice interval [a, b] is the submatrix of the extended CMV
operator whose coefficient sequence has been substituted at the two cut
positions: alpha_{a-1} -> beta and alpha_b -> gamma.  Unimodular beta, gamma
set rho = 0 at the cuts, decouple the window from the rest of the lattice, and
make the window unitary with an exact factorization E = L M into direct sums of
2x2 blocks (even-indexed blocks in L, odd-indexed in M; parity is anchored to
the absolute lattice index).

Every window comes from one builder, `_window_lm`, and `_own_is_l` is the
only place that knows which block belongs to which factor.  From the
coefficients alpha_{a-1} .. alpha_b, the only ones E over [a, b] reads, and a
substitution map the builder forms all Theta blocks at once and cuts them into
`lm`, the diagonals and off-diagonals of the symmetric tridiagonals L and M.
A window stores `lm` and nothing derived from it: E X is computed as L (M X),
and E's five diagonals (Cantero, Moral & Velazquez 2003) are formed from `lm`
on demand, each entry the single nonzero product L[i, k] M[k, j], when a
dense E is scattered for dense eigensolvers and the dense oracles.  A unitary
window's L has a symmetric unitary square root R (`_l_root`), block by block,
and R^{-1} E R = R M R is symmetric as well as unitary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import VerblunskyScheme, verblunsky_range

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


def _window_lm(alphas, a: int, substitutions: dict | None = None) -> tuple:
    """lm = (l_diag, l_off, m_diag, m_off) of E = L M over [a, b], from alphas[m] = alpha_{a-1+m}.

    `substitutions` maps lattice sites to replacement coefficients; sites
    outside a-1 .. b do not enter E and are ignored.  L and M are symmetric
    tridiagonal over [a, b]: site j takes the [0, 0] entry of its own Theta
    block and the [1, 1] entry of the block at j - 1; its own block belongs to
    L at even j and to M at odd j, and so does the off-diagonal entry rho_j
    that couples j and j + 1.
    """
    alphas = np.array(alphas, dtype=complex)
    for site, value in (substitutions or {}).items():
        if 0 <= site - (a - 1) < len(alphas):
            alphas[site - (a - 1)] = value
    blocks = _theta(alphas)  # blocks[m] sits at site a - 1 + m
    own_is_l = _own_is_l(a, len(alphas) - 1)
    own, before, rho = blocks[1:, 0, 0], blocks[:-1, 1, 1], blocks[1:-1, 0, 1]
    pair = own_is_l[:-1]  # pair[i]: L couples i and i + 1, else M does
    return (np.where(own_is_l, own, before), np.where(pair, rho, 0.0),
            np.where(own_is_l, before, own), np.where(pair, 0.0, rho))


def _own_is_l(a: int, n: int) -> np.ndarray:
    """Whether the Theta block of each site a .. a + n - 1 belongs to L (even sites) rather than M."""
    return (a + np.arange(n)) % 2 == 0


def _l_root(lm: tuple, a: int) -> tuple:
    """(r_diag, r_off) of the symmetric unitary square root R of a unitary window's L over [a, b].

    L is a direct sum of the 2x2 blocks Theta on the sites i, i + 1 that it
    couples (a + i even) and of 1x1 entries at the edges.  A block's root is
    (Theta + s I) / t with s^2 = det Theta and t^2 = tr Theta + 2 s, a
    polynomial in Theta whose eigenvalues are roots of Theta's, so it is
    symmetric and unitary.  The two signs of s give values of |t|^2 that sum
    to 4, and the sign with |t|^2 >= 2 is taken.  An edge entry takes its
    principal root.
    """
    l_diag, l_off = lm[0], lm[1]
    i = np.flatnonzero(_own_is_l(a, len(l_off)))  # L's blocks sit on the sites i, i + 1
    p, q, r = l_diag[i], l_off[i], l_diag[i + 1]
    tr, s = p + r, np.sqrt(p * r - q * q)
    s = np.where((tr.conj() * s).real >= 0.0, s, -s)  # |tr + 2s|^2 - |tr - 2s|^2 = 8 Re(conj(tr) s)
    t = np.sqrt(tr + 2.0 * s)
    r_diag, r_off = np.sqrt(l_diag), np.zeros_like(l_off)
    r_diag[i], r_diag[i + 1], r_off[i] = (p + s) / t, (r + s) / t, q / t
    return r_diag, r_off


def _tri_dot(diag: np.ndarray, off: np.ndarray, X: np.ndarray) -> np.ndarray:
    """T X for a 2-D X and the symmetric tridiagonal T with these diagonal and off-diagonal entries."""
    out = diag[:, None] * X
    out[:-1] += off[:, None] * X[1:]
    out[1:] += off[:, None] * X[:-1]
    return out


def _lm_dot(lm: tuple, X: np.ndarray) -> np.ndarray:
    """E X = L (M X) for a 2-D X."""
    return _tri_dot(lm[0], lm[1], _tri_dot(lm[2], lm[3], X))


def _diagonals(lm: tuple) -> dict:
    """E's diagonals by offset k, the entries E[j + k, j] in order of j, for |k| <= 2.

    L and M never couple the same pair of sites, so of the products summed
    into an entry at most one is nonzero, and the sum is that product.
    """
    ld, lo, md, mo = lm
    return {0: ld * md, 1: lo * md[:-1] + ld[1:] * mo, -1: ld[:-1] * mo + lo * md[1:],
            2: lo[1:] * mo[:-1], -2: lo[:-1] * mo[1:]}


def _dense(diagonals: dict) -> np.ndarray:
    """The dense matrix with these diagonals, given as by `_diagonals`; offset 0 sets the size, their dtype its dtype."""
    n = len(diagonals[0])
    A = np.zeros((n, n), dtype=np.result_type(*diagonals.values()))
    flat = A.reshape(-1)
    for k, d in diagonals.items():  # A[j + k, j] is a stride of n + 1 in `flat`, from A[max(k, 0), max(-k, 0)]
        flat[max(k, 0) * n + max(-k, 0) :: n + 1][: len(d)] = d
    return A


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
    return _dense(_diagonals(_window_lm(verblunsky_range(s, a - 1, b), a, substitutions)))


@dataclass(frozen=True)
class CMVWindow:
    """A finite boundary-modified window with its factorization.

    `raw_alphas` holds the scheme's unmodified coefficients on [a-1, b]
    (needed by the determinant identities and the boundary-value formulas);
    the effective sequence replaces the values at a-1 and b by beta and gamma.
    `lm` holds the diagonals and off-diagonals of the symmetric tridiagonal
    factors L and M, and nothing derived from them is stored: the dense
    `matrix` (E), `L` and `M` are scattered from `lm` on first use.
    """

    a: int
    b: int
    beta: complex
    gamma: complex
    raw_alphas: np.ndarray  # scheme values on lattice sites a-1 .. b
    lm: tuple               # (l_diag, l_off, m_diag, m_off) of E = L M
    unimodular: bool

    @property
    def size(self) -> int:
        return self.b - self.a + 1

    @cached_property
    def matrix(self) -> np.ndarray:
        """E = submatrix of the modified operator."""
        return _dense(_diagonals(self.lm))

    @cached_property
    def L(self) -> np.ndarray:
        return _dense({0: self.lm[0], 1: self.lm[1], -1: self.lm[1]})

    @cached_property
    def M(self) -> np.ndarray:
        return _dense({0: self.lm[2], 1: self.lm[3], -1: self.lm[3]})

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
    return CMVWindow(
        a=a,
        b=b,
        beta=bc.beta,
        gamma=bc.gamma,
        raw_alphas=raw,
        lm=_window_lm(raw, a, {a - 1: bc.beta, b: bc.gamma}),
        unimodular=bc.unimodular,
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
