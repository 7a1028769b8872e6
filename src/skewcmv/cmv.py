"""Finite boundary-modified CMV windows, their LM factorization, and characteristic polynomials.

A window over the lattice interval [a, b] is the submatrix of the extended CMV
operator whose coefficient sequence has been substituted at the two cut
positions: alpha_{a-1} -> beta and alpha_b -> gamma.  Unimodular beta, gamma
set rho = 0 at the cuts, decouple the window from the rest of the lattice, and
make the window unitary with an exact factorization E = L M into direct sums of
2x2 blocks (even-indexed blocks in L, odd-indexed in M; parity is anchored to
the absolute lattice index).  Windows are stored dense: desk-scale sizes make
dense storage and dense eigensolvers adequate.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

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
    "window_to_matrixmarket",
    "window_metadata",
    "export_window",
]

_UNIMODULAR_TOL = 1e-12


class CoefficientError(ValueError):
    """Raised for coefficients outside the closed unit disk."""


def theta_block(alpha: complex) -> np.ndarray:
    """The 2x2 block [[conj(alpha), rho], [rho, -alpha]] with rho = sqrt(1 - |alpha|^2).

    Unitary for |alpha| <= 1; |alpha| = 1 gives rho = 0 and decouples the two sites.
    """
    alpha = complex(alpha)
    a2 = abs(alpha) ** 2
    if a2 > 1.0 + 4e-16:
        raise CoefficientError(f"|alpha| = {abs(alpha):.6f} > 1")
    rho = float(np.sqrt(max(1.0 - a2, 0.0)))
    return np.array([[np.conj(alpha), rho], [rho, -alpha]], dtype=complex)


@dataclass(frozen=True)
class BoundaryPair:
    """Boundary values (beta, gamma) substituted at the cut positions a-1 and b.

    Unimodular values (the usual case) give unitary windows; beta = -1 on a
    window starting at 0 reproduces the half-line operator.
    """

    beta: complex
    gamma: complex

    def __post_init__(self):
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "gamma", complex(self.gamma))
        for name, v in (("beta", self.beta), ("gamma", self.gamma)):
            if abs(v) > 1.0 + 4e-16:
                raise CoefficientError(f"|{name}| = {abs(v):.6f} > 1")

    @property
    def unimodular(self) -> bool:
        return (
            abs(abs(self.beta) - 1.0) < _UNIMODULAR_TOL
            and abs(abs(self.gamma) - 1.0) < _UNIMODULAR_TOL
        )


def _build_lm(alpha_of, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense L, M over lattice sites [lo, hi] from the coefficient lookup alpha_of(n).

    L collects the blocks anchored at even n (coupling sites n, n+1), M the odd
    ones; blocks sticking out of [lo, hi] are truncated.
    """
    size = hi - lo + 1
    L = np.zeros((size, size), dtype=complex)
    M = np.zeros((size, size), dtype=complex)
    for n in range(lo - 1, hi + 1):
        th = theta_block(alpha_of(n))
        tgt = L if n % 2 == 0 else M
        for di in (0, 1):
            i = n + di - lo
            if not 0 <= i < size:
                continue
            for dj in (0, 1):
                j = n + dj - lo
                if 0 <= j < size:
                    tgt[i, j] = th[di, dj]
    return L, M


def _padded_product(alpha_of, a: int, b: int) -> np.ndarray:
    """Submatrix over [a, b] of the infinite product L M, via a one-site padding.

    Interior entries of the product only involve blocks anchored in [a-1, b], so
    padding by one site on each side and cutting back is exact.
    """
    Lp, Mp = _build_lm(alpha_of, a - 1, b + 1)
    return (Lp @ Mp)[1:-1, 1:-1]


def scheme_submatrix(
    s: VerblunskyScheme, a: int, b: int, substitutions: dict | None = None
) -> np.ndarray:
    """Dense submatrix over [a, b] of the extended operator generated by `s`.

    `substitutions` maps lattice indices to replacement coefficient values
    (used for boundary modifications and for the determinant identities, where
    sub-windows keep raw coefficients at the inner cuts).
    """
    subs = substitutions or {}
    lo, hi = a - 2, b + 1
    raw = verblunsky_range(s, lo, hi)

    def alpha_of(n):
        if n in subs:
            return subs[n]
        if lo <= n <= hi:
            return raw[n - lo]
        return 0.0

    return _padded_product(alpha_of, a, b)


@dataclass(frozen=True)
class CMVWindow:
    """A finite boundary-modified window with its factorization.

    `raw_alphas` holds the scheme's unmodified coefficients on [a-1, b]
    (needed by the determinant identities and the boundary-value formulas);
    the effective sequence replaces the values at a-1 and b by beta and gamma.
    """

    a: int
    b: int
    beta: complex
    gamma: complex
    raw_alphas: np.ndarray  # scheme values on lattice sites a-1 .. b
    matrix: np.ndarray      # E = submatrix of the modified operator
    L: np.ndarray
    M: np.ndarray
    unimodular: bool
    scheme_ref: str = ""

    @property
    def size(self) -> int:
        return self.b - self.a + 1

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

    def alpha_of(n):
        if n == a - 1:
            return bc.beta
        if n == b:
            return bc.gamma
        if a - 1 <= n <= b:
            return raw[n - (a - 1)]
        return 0.0

    E = _padded_product(alpha_of, a, b)
    L, M = _build_lm(alpha_of, a, b)
    return CMVWindow(
        a=a,
        b=b,
        beta=bc.beta,
        gamma=bc.gamma,
        raw_alphas=raw,
        matrix=E,
        L=L,
        M=M,
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


# --- export -----------------------------------------------------------------

def window_to_matrixmarket(window: CMVWindow) -> str:
    """Dense text dump in MatrixMarket array format (column-major, complex general)."""
    E = window.matrix
    n = E.shape[0]
    lines = [
        "%%MatrixMarket matrix array complex general",
        f"% cmv window [{window.a}, {window.b}]",
        f"{n} {n}",
    ]
    for j in range(n):
        for i in range(n):
            lines.append(f"{float(E[i, j].real)!r} {float(E[i, j].imag)!r}")
    return "\n".join(lines) + "\n"


def window_metadata(window: CMVWindow) -> dict:
    return {
        "a": window.a,
        "b": window.b,
        "beta": [window.beta.real, window.beta.imag],
        "gamma": [window.gamma.real, window.gamma.imag],
        "scheme_hash": window.scheme_ref,
        "unimodular": window.unimodular,
    }


def export_window(window: CMVWindow, path_base: str) -> tuple[str, str]:
    """Write `<path_base>.mtx` and `<path_base>.json` atomically; returns the paths."""
    mtx_path = path_base + ".mtx"
    json_path = path_base + ".json"
    for path, text in (
        (mtx_path, window_to_matrixmarket(window)),
        (json_path, json.dumps(window_metadata(window), sort_keys=True, indent=2) + "\n"),
    ):
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    return mtx_path, json_path
