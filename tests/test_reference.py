"""The cocycle kernel against exact references: a 50-digit Szegő product, and the gauge identity of monomial samplers.

Each check runs on both kinds of lane: a z on the unit circle carries one column,
|z| = 1.3 carries two.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from mpmath import mp

from skewcmv.cocycle import product_batch
from skewcmv.model import verblunsky_orbit_batch
from schemes import make_scheme, random_scheme

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
Z_CIRCLE, Z_OFF = np.exp(0.7j), 1.3 * np.exp(0.4j)
NS = (100, 1000, 10_000)
_rng = np.random.default_rng(2)
# the reference sampler (e^{2 pi i x} + e^{2 pi i y}) / 2, and two drawn schemes of 1 to 3 terms
SCHEMES = (make_scheme({(1, 0): 0.5, (0, 1): 0.5}, 0.5, GOLDEN), random_scheme(_rng, 0.9), random_scheme(_rng, 0.95))
PHASES = _rng.random((len(SCHEMES), 2))


def _units(t: float) -> int:
    """t as an integer multiple of 2^-64, which it must be exactly (true for floats >= 2^-11)."""
    f = Fraction(t) * 2**64
    assert f.denominator == 1
    return int(f)


@lru_cache(maxsize=None)
def _reference_alphas(i: int) -> tuple:
    """alpha_0 .. alpha_{max NS - 1} of scheme i at its phase, to 50 digits.

    The orbit (x + j y + C(j,2) w, y + j w) is taken in exact integers mod 2^64,
    and each e^{2 pi i t} from mpmath.
    """
    s, (x, y) = SCHEMES[i], PHASES[i]
    X, Y, W = _units(x), _units(y), _units(s.frequency.omega)
    terms = [(k, l, s.coupling * mp.mpc(c)) for k, l, c in s.sampler.terms]
    alphas = []
    with mp.workdps(50):
        for j in range(NS[-1]):
            ex = mp.expjpi(mp.mpf((X + j * Y + j * (j - 1) // 2 * W) % 2**64) / 2**63)
            ey = mp.expjpi(mp.mpf((Y + j * W) % 2**64) / 2**63)
            alphas.append(mp.fsum(c * ex**k * ey**l for k, l, c in terms))
    return tuple(alphas)


def _reference_log_scales(alphas, z) -> dict:
    """{n: log ||M_n||} for n in NS, from the product of the factors A D with the 1/rho taken out, to 50 digits.

    A z on the circle is taken as z / |z|, the unit parameter its lanes step by.
    """
    with mp.workdps(50):
        z = mp.mpc(z)
        zt = mp.sqrt(z / abs(z) if abs(abs(z) - 1) < 1e-15 else z)
        zb = 1 / zt
        a, b, c, d = mp.mpc(1), mp.mpc(0), mp.mpc(0), mp.mpc(1)
        rho2, out = mp.mpf(1), {}
        for j, al in enumerate(alphas):
            a, b, c, d = zt * a, zt * b, zb * c, zb * d
            ab = mp.conj(al)
            a, b, c, d = a - ab * c, b - ab * d, c - al * a, d - al * b
            rho2 *= 1 - al.real**2 - al.imag**2
            if j + 1 in NS:
                # the largest eigenvalue of B* B, as spectral_norms_2x2 takes it
                h00, h11 = abs(a) ** 2 + abs(c) ** 2, abs(b) ** 2 + abs(d) ** 2
                h01 = mp.conj(a) * b + mp.conj(c) * d
                norm2 = (h00 + h11) / 2 + mp.sqrt(((h00 - h11) / 2) ** 2 + abs(h01) ** 2)
                out[j + 1] = float((mp.log(norm2) - mp.log(rho2)) / 2)
    return out


# Relative log-scale error bounds per kind of lane.  Over 45 drawn lanes (three
# seeds of these three kinds of scheme, five phases each) the error read at most
# 2.3e-14 on the circle and 1.4e-15 at |z| = 1.3; products on the circle amplify
# the roundings of the alphas more
@pytest.mark.parametrize("z, rel_bound", [(Z_CIRCLE, 1e-13), (Z_OFF, 1e-14)], ids=["one-column", "two-column"])
@pytest.mark.parametrize("i", range(len(SCHEMES)))
def test_log_scale_matches_a_50_digit_product(i, z, rel_bound):
    ref = _reference_log_scales(_reference_alphas(i), z)
    alphas = verblunsky_orbit_batch(SCHEMES[i], NS[-1], PHASES[i : i + 1])
    for n in NS:
        ls, _ = product_batch(alphas[:n], z)
        assert abs(ls[0] - ref[n]) <= rel_bound * abs(ref[n]), (n, ls[0], ref[n])


# Absolute bounds at n = 512.  Over 300 draws of 8 phases for each sampler below the
# gap read at most 8.5e-10 on the circle (median 6.8e-13), where the product is
# sensitive to the roundings of z e^{2 pi i m y} and of the alphas, and 2.3e-13 at |z| = 1.3
@pytest.mark.parametrize("z, bound", [(Z_CIRCLE, 5e-9), (Z_OFF, 1e-12)], ids=["one-column", "two-column"])
@pytest.mark.parametrize("coeffs", [{(1, 0): 1.0}, {(-2, 1): 0.6j}], ids=["e(x)", "0.6i e(-2x + y)"])
def test_monomial_gauge_identity(coeffs, z, bound):
    # for the sampler c e^{2 pi i (m x + l y)} the coefficients at (x, y) are those at
    # (0, 0) times e^{2 pi i (m x + l y)} e^{2 pi i j m y}: a constant phase, a unitary
    # conjugation, and a linear one, a rotation of z.  So
    # log ||M_n(x, y; z)|| = log ||M_n(0, 0; z e^{+2 pi i m y})||; the sign - misses by O(1)
    s, n = make_scheme(coeffs, 0.7, GOLDEN), 512
    (m, _), = coeffs
    xy = np.random.default_rng(0).random((8, 2))
    ls, _ = product_batch(verblunsky_orbit_batch(s, n, xy), z)
    ls0, _ = product_batch(verblunsky_orbit_batch(s, n, np.zeros((1, 2))), z * np.exp(2j * np.pi * m * xy[:, 1]))
    assert np.max(np.abs(ls - ls0[:, 0])) <= bound
