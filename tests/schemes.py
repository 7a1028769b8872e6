"""Scheme constructors shared by the test modules.

`random_scheme` draws from `rng` in a fixed order, so a seed names one scheme;
callers that relied on another default pass `max_coupling` explicitly.
"""

import numpy as np

from skewcmv.model import Frequency, Phase, TrigPolynomial, VerblunskyScheme


def make_scheme(coeffs, lam, omega, base=(0.0, 0.0)):
    return VerblunskyScheme(TrigPolynomial(coeffs), lam, Frequency(omega), Phase(*base))


def random_scheme(rng, max_coupling=0.9):
    """An l1-normalized sampler of 1 to 3 terms with |k|, |l| <= 2, coupling uniform in [0, max_coupling)."""
    coeffs = {}
    for _ in range(int(rng.integers(1, 4))):
        kl = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
        coeffs[kl] = (0.2 + rng.random()) * np.exp(2j * np.pi * rng.random())
    poly = TrigPolynomial(coeffs)
    coeffs = {kl: c / poly.ell1() for kl, c in poly.coefficients.items()}
    return make_scheme(coeffs, float(rng.uniform(0, max_coupling)), float(rng.random()),
                       base=(float(rng.random()), float(rng.random())))
