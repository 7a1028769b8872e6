"""Szego cocycle matrices, renormalized transfer products, and related identities.

The one-step cocycle at coefficient alpha and spectral parameter z is the
determinant-one matrix

    M = (1/rho) [[sqrt(z), -conj(alpha)/sqrt(z)], [-alpha sqrt(z), 1/sqrt(z)]].

n-step products are accumulated in factored form (unit-spectral-norm matrix
plus a running log of the norms), which keeps arbitrarily long products inside
floating-point range.  The square root uses the principal branch
exp(i theta / 2) with theta in [0, 2 pi); all identities that depend on the
branch are stated up to a global sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmv import scheme_submatrix
from .model import VerblunskyScheme, verblunsky_orbit_batch

__all__ = [
    "ConjugationError",
    "CocycleError",
    "FactoredProduct",
    "ScalingFactor",
    "circle_sqrt",
    "szego_matrix",
    "transfer_product",
    "product_batch",
    "sl2r_conjugate",
    "scaling_factor",
    "transfer_via_determinants",
    "spectral_norms_2x2",
]

# unitary conjugator taking the cocycle matrices into SL(2, R)
SL2R_CONJUGATOR = -(1.0 / (1.0 + 1.0j)) * np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=complex)

# lanes of the (z, phase) grid multiplied together; bounds the kernel's temporaries.  It
# splits z rows only, so a call over one z and more than LANE_BLOCK phases runs unsplit
# (callers with long lane arrays, such as avalanche's cocycle mode, group them themselves).
# _u_values on one core, best of 5, with every row on the two-column step, at LANE_BLOCK
# 8192 / untiled / 2048: Z = 512 z over S = 144 phases at n = 128 (localize's references)
# 0.15 / 0.24 / 0.27 s; Z = 4, S = 1024, n = 1000 (lyapunov-sweep) 0.14 / 0.13 / 0.18 s;
# Z = 64, S = 1024, n = 200 0.22 / 0.32 / 0.36 s
LANE_BLOCK = 8192
# steps between renormalizations, counted from a call's first step.  A lane grows by
# less than 2 sqrt(2) a step, so by a log-growth below 67 over 64 steps, and
# spectral_norms_2x2 raises entries to the fourth power: 4 * 67 stays below the float64
# exponent limit of 709.  The cadence does not depend on the alphas, so a stream cut at
# multiples of RENORM_STEPS rounds as one call over the whole orbit does
RENORM_STEPS = 64
# rows with ||z| - 1| at most this take the one-column circle step: exp(i theta) and the
# w / |w| of a unit-circle eigenvalue lie within 2 eps of the circle
_CIRCLE_TOL = 4 * np.finfo(float).eps
# sl2r_conjugate rejects a matrix whose conjugate keeps an imaginary part this large
_CONJUGATION_TOL = 1e-6
# the strip widths h1 = h2 of scaling_factor's coefficient bound: chosen, not derived, and conservative
_STRIP_WIDTH = 0.5


class CocycleError(ValueError):
    """Raised for invalid cocycle inputs (|alpha| >= 1, z zero or not finite)."""


class ConjugationError(RuntimeError):
    """Raised when the SL(2,R) conjugation leaves a non-negligible imaginary part."""


def circle_sqrt(z):
    """sqrt(z), elementwise, on the branch exp(i theta / 2) with theta = arg(z) mod 2 pi.

    Zero and non-finite z raise CocycleError.
    """
    z = np.asarray(z, dtype=complex)
    bad = z[~np.isfinite(z) | (z == 0)]
    if bad.size:
        raise CocycleError(f"spectral parameter z = {bad[0]} must be finite and nonzero")
    theta = np.angle(z) % (2.0 * np.pi)
    return np.sqrt(np.abs(z)) * np.exp(0.5j * theta)


def szego_matrix(alpha: complex, z: complex) -> np.ndarray:
    """One-step determinant-one cocycle matrix at coefficient alpha and parameter z."""
    alpha = complex(alpha)
    if abs(alpha) >= 1.0:
        raise CocycleError(f"|alpha| = {abs(alpha):.6f} >= 1")
    rho = np.sqrt(1.0 - abs(alpha) ** 2)
    sz = circle_sqrt(z)
    return np.array(
        [[sz, -np.conj(alpha) / sz], [-alpha * sz, 1.0 / sz]], dtype=complex
    ) / rho


def spectral_norms_2x2(B: np.ndarray) -> np.ndarray:
    """Spectral norms of a batch of 2x2 matrices, shape (..., 2, 2) -> (...).

    Largest eigenvalue of the Hermitian Gram matrix B* B in closed form.  The
    discriminant is a sum of squares, so near-unitary matrices do not suffer
    the sqrt(eps) cancellation of the Frobenius/determinant formula.
    """
    B = np.asarray(B)
    b00, b01 = B[..., 0, 0], B[..., 0, 1]
    b10, b11 = B[..., 1, 0], B[..., 1, 1]
    h00 = np.abs(b00) ** 2 + np.abs(b10) ** 2
    h11 = np.abs(b01) ** 2 + np.abs(b11) ** 2
    h01 = np.conj(b00) * b01 + np.conj(b10) * b11
    half_gap = 0.5 * (h00 - h11)
    disc = np.sqrt(half_gap**2 + np.abs(h01) ** 2)
    return np.sqrt(0.5 * (h00 + h11) + disc)


@dataclass(frozen=True)
class FactoredProduct:
    """A 2x2 product stored as exp(log_scale) * matrix with ||matrix||_2 = 1.

    The determinant is not carried: every factor has determinant one, and a
    determinant formed apart from the matrix would never read it.  det(value())
    checks a short product; once the product is hyperbolic det(matrix) =
    exp(-2 log_scale) cancels catastrophically.
    """

    matrix: np.ndarray
    log_scale: float

    def value(self) -> np.ndarray:
        """The represented matrix; may overflow for log_scale beyond ~709."""
        return np.exp(self.log_scale) * self.matrix

    def compose(self, first: "FactoredProduct") -> "FactoredProduct":
        """The product (self o first), i.e. self applied after first; its matrix has unit norm."""
        prod = self.matrix @ first.matrix
        s = float(spectral_norms_2x2(prod))
        return FactoredProduct(prod / s, self.log_scale + first.log_scale + np.log(s))

    def distance(self, other: "FactoredProduct") -> float:
        """Relative distance: ||exp(dls) A - B||_2 with dls = self.ls - other.ls."""
        dls = self.log_scale - other.log_scale
        return float(spectral_norms_2x2(np.exp(dls) * self.matrix - other.matrix))


def product_batch(alphas: np.ndarray, z, carry=None):
    """Renormalized transfer products over a (Z, S) grid of spectral parameters x orbits.

    `alphas` has shape (n, S): column s holds alpha_0..alpha_{n-1} of one orbit.
    A scalar z gives (log_scales, B) of shapes (S,), (S, 2, 2); an array of Z
    values gives (Z, S), (Z, S, 2, 2), B a view of one (2, 2, Z, S) lane array.
    A lane's product is exp(log_scale) * B, the j = n-1 factor leftmost.  `carry`,
    an earlier result, is continued by these n factors in place: its arrays are
    updated and returned.

    A factor is (1/rho) A D, A = [[1, -conj(alpha)], [-alpha, 1]], D = diag(sqrt z,
    1/sqrt z).  Lanes multiply A D / 2^e, 2^e the power of two nearest ||D|| =
    exp(|log|z||/2) (an exact scaling); log(1/rho) and e log 2 are summed apart.  A lane
    so grows by at most sqrt(2) (1 + max|alpha|) per step, whatever z is, and its norm
    is refactored every RENORM_STEPS steps and at the last.  A z's row is bit-identical
    alone or in a batch, and a carry continued from cuts at multiples of RENORM_STEPS
    has the lanes of one call over all the steps: a hyperbolic product that grows and
    then shrinks amplifies a rounding by up to its lost growth, so a renormalization
    anywhere else could move log_scale far more than one rounding.

    On the unit circle A D has the form [[p, q], [conj q, conj p]], and so has every
    product of such factors: it is fixed by its first column (a, d), and its norm is
    |a| + |d|.  A row with ||z| - 1| <= _CIRCLE_TOL whose lanes all have exactly that
    form (a fresh product has) carries (a, d) alone, steps by sqrt z / |sqrt z|, and
    rebuilds B from it at the end of the call.  Other rows, off the circle or carried
    from a product that is not of that form, multiply both columns.
    """
    alphas = np.atleast_2d(np.asarray(alphas, dtype=complex))
    n, S = alphas.shape
    zs = np.reshape(z, -1)
    sz = circle_sqrt(zs)
    a2 = alphas.real**2 + alphas.imag**2
    amax = float(np.sqrt(a2.max(initial=0.0)))
    if amax >= 1.0:
        raise CocycleError(f"|alpha| = {amax:.6f} >= 1")
    if carry is None:  # X[i, j] = entry (i, j), of shape (Z, S)
        ls, X = np.zeros((len(sz), S)), np.multiply.outer(np.eye(2, dtype=complex), np.ones((len(sz), S)))
    else:  # the carry's own arrays, continued in place
        ls, X = np.reshape(carry[0], (len(sz), S)), np.moveaxis(carry[1], (-2, -1), (0, 1)).reshape(2, 2, len(sz), S)
    e = np.round(0.5 * np.abs(np.log2(np.abs(zs))))  # ||D|| ~ 2^e; e = 0 for 1/2 < |z| < 2
    ls += n * np.log(2.0) * e[:, None] - np.log(np.sqrt(1.0 - a2)).sum(axis=0)
    on_circle = np.abs(np.abs(zs) - 1.0) <= _CIRCLE_TOL
    su11 = (X[1, 1] == X[0, 0].conj()) & (X[0, 1] == X[1, 0].conj())  # [[a, conj d], [d, conj a]] exactly
    one_column = on_circle & su11.all(axis=-1)
    abar, rows = alphas.conj(), max(1, LANE_BLOCK // S)
    two, one = np.flatnonzero(~one_column), np.flatnonzero(one_column)
    # each kind of row is gathered into contiguous work arrays, a block of rows at a time
    for r in range(0, len(two), rows):
        i = two[r : r + rows]
        Xb, lb = np.take(X, i, axis=2), ls[i]
        _two_column_steps(Xb, lb, alphas, abar, sz[i] * 2.0 ** -e[i], (1.0 / sz[i]) * 2.0 ** -e[i])
        X[:, :, i], ls[i] = Xb, lb
    for r in range(0, len(one), rows):
        i = one[r : r + rows]
        if len(i) * S == 1:
            # numpy multiplies a one-element array in place by an unfused scalar loop;
            # a repeated lane keeps the row bit-identical to larger calls
            i = np.repeat(i, 2)
        V, lb = np.take(X[:, 0], i, axis=1), ls[i]
        _one_column_steps(V, lb, alphas, abar, sz[i] / np.abs(sz[i]))
        X[:, 0, i], X[:, 1, i], ls[i] = V, V[::-1].conj(), lb
    B = np.moveaxis(X, (0, 1), (2, 3))
    return (ls, B) if np.ndim(z) else (ls[0], B[0])


def _two_column_steps(X: np.ndarray, ls: np.ndarray, alphas, abar, zt, zb) -> None:
    """Multiply the (2, 2, R, S) lanes X in place by the n factors, rows scaled by zt and zb.

    ls, of shape (R, S), gains the log norms taken off.
    """
    top, bot = X
    for j in range(len(alphas)):
        top *= zt[:, None]
        bot *= zb[:, None]
        t = alphas[j] * top
        top -= abar[j] * bot
        bot -= t
        if (j + 1) % RENORM_STEPS == 0 or j == len(alphas) - 1:
            s = spectral_norms_2x2(np.moveaxis(X, (0, 1), (2, 3)))
            X *= 1.0 / s
            ls += np.log(s)


def _one_column_steps(V: np.ndarray, ls: np.ndarray, alphas, abar, c) -> None:
    """Advance the first columns V = (a, d), of shape (2, R, S), in place by the n circle factors.

    c holds the unit sqrt z of each row; ls, of shape (R, S), gains the log norms taken off.
    """
    a, d = V
    cs = np.repeat(np.stack([c, c.conj()]), a.shape[1], axis=1).reshape(V.shape)  # full size: a broadcast is slower
    t, u = np.empty_like(a), np.empty_like(a)
    for j in range(len(alphas)):
        V *= cs
        np.multiply(alphas[j], a, out=t)
        np.multiply(abar[j], d, out=u)
        a -= u
        d -= t
        if (j + 1) % RENORM_STEPS == 0 or j == len(alphas) - 1:
            s = np.abs(a)
            s += np.abs(d)
            V *= 1.0 / s
            ls += np.log(s)


def transfer_product(s: VerblunskyScheme, n: int, z: complex, base: np.ndarray | None = None) -> FactoredProduct:
    """The n-step product M(T^{n-1}) ... M(T^0) in factored form.

    `base` optionally overrides the scheme's base phase as an (x, y) pair.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if base is None:
        base = np.array([s.base.x, s.base.y])
    alphas = verblunsky_orbit_batch(s, n, np.asarray(base, dtype=float).reshape(1, 2))
    ls, B = product_batch(alphas, z)
    return FactoredProduct(B[0], float(ls[0]))


def sl2r_conjugate(m: np.ndarray) -> np.ndarray:
    """Conjugate a cocycle matrix into SL(2, R) by the fixed unitary Q: A = Q* m Q.

    The result is returned with the imaginary part stripped; a residual
    imaginary part >= 1e-6 signals a matrix outside the expected family
    (for example |z| != 1) and raises ConjugationError.
    """
    Q = SL2R_CONJUGATOR
    A = Q.conj().T @ np.asarray(m, dtype=complex) @ Q
    resid = float(np.max(np.abs(A.imag)))
    if resid >= _CONJUGATION_TOL:
        raise ConjugationError(f"conjugation residual {resid:.3e} >= {_CONJUGATION_TOL:.0e}")
    return A.real.copy()


@dataclass(frozen=True)
class ScalingFactor:
    """Uniform a-priori bound: (1/n) log ||M_n|| <= value for all n.

    value = max(1, log(sup_inv_rho + c_alpha + coupling_term + abs_z)) with
    sup_inv_rho = (1 - coupling^2 sup|alpha|^2)^{-1/2} from the construction-time
    grid supremum, c_alpha the coefficient bound on the analytic strip, and
    coupling_term = (1 - coupling^2)^{-1}.
    """

    value: float
    sup_inv_rho: float
    c_alpha: float
    coupling_term: float
    abs_z: float


def scaling_factor(s: VerblunskyScheme, z: complex) -> ScalingFactor:
    """Scaling factor used to normalize deviation thresholds and norm bounds.

    c_alpha is the coefficient bound on the analytic strip of widths h1 = h2 = 0.5.
    """
    lam = s.coupling
    sup_inv_rho = float((1.0 - lam**2 * s.grid_sup**2) ** -0.5)
    c_alpha = s.sampler.strip_bound(_STRIP_WIDTH, _STRIP_WIDTH)
    coupling_term = float((1.0 - lam**2) ** -1)
    raw = np.log(sup_inv_rho + c_alpha + coupling_term + abs(complex(z)))
    return ScalingFactor(
        value=float(max(1.0, raw)),
        sup_inv_rho=sup_inv_rho,
        c_alpha=c_alpha,
        coupling_term=coupling_term,
        abs_z=abs(complex(z)),
    )


def transfer_via_determinants(s: VerblunskyScheme, n: int, z: complex) -> np.ndarray:
    """Independent determinant route to the n-step transfer matrix, z on the circle.

    Entries are built from characteristic polynomials of the raw windows
    [1, n-1] and [0, n-1], the latter with the half-line value alpha_{-1} = -1:

        M_n = (sqrt z)^{-n} (prod_{j<n} 1/rho_j) [[z p1, q], [z q*, p1*]]

    with p1 = det(z - E_[1,n-1]), q = p0 - z p1, p0 = det(z - E_[0,n-1]), and
    f* the reversed-conjugate polynomial evaluated on the circle as
    z^deg conj(f(z)).  Both q and p1 have degree n-1 (the leading terms of q
    cancel).  Agrees with transfer_product up to a global sign fixed by the
    branch of sqrt(z).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-9:
        raise CocycleError("determinant route requires |z| = 1")
    E1 = scheme_submatrix(s, 1, n - 1)
    E0 = scheme_submatrix(s, 0, n - 1, substitutions={-1: -1.0})
    p1 = complex(np.linalg.det(z * np.eye(n - 1) - E1))
    p0 = complex(np.linalg.det(z * np.eye(n) - E0))
    q = (z * p1 - p0) / (-1.0)  # alpha_{-1} = -1
    p1_star = z ** (n - 1) * np.conj(p1)
    q_star = z ** (n - 1) * np.conj(q)
    alphas = verblunsky_orbit_batch(s, n, np.array([[s.base.x, s.base.y]]))[:, 0]
    rhos = np.sqrt(1.0 - np.abs(alphas) ** 2)
    prefactor = circle_sqrt(z) ** (-n) / np.prod(rhos)
    return prefactor * np.array([[z * p1, q], [z * q_star, p1_star]], dtype=complex)
