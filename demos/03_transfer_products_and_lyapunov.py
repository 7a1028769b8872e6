#!/usr/bin/env python3
"""Renormalized transfer products, the determinant route, and Lyapunov estimates."""

import numpy as np

from skewcmv import (
    Frequency,
    Phase,
    SamplingConfig,
    TrigPolynomial,
    VerblunskyScheme,
    estimate_Ln,
    extrapolate_limit,
    positivity_margin,
    scaling_factor,
    sl2r_conjugate,
    transfer_product,
    transfer_via_determinants,
)

golden = (np.sqrt(5) - 1) / 2
scheme = VerblunskyScheme(
    sampler=TrigPolynomial({(1, 0): 0.5, (0, 1): 0.5}),
    coupling=0.99,
    frequency=Frequency(golden),
    base=Phase(0.1, 0.3),
)

# long products stay in range because the norm is refactored every step
fp = transfer_product(scheme, 10_000, 1.0)
print(f"n = 10000 product: log||M_n|| = {fp.log_scale:.2f}, growth rate {fp.log_scale / 10_000:.4f}")
# every factor has determinant one; det(value()) resolves that on a short product only
short = transfer_product(scheme, 8, 1.0)
print(f"n = 8 product: |det - 1| = {abs(np.linalg.det(short.value()) - 1):.2e}")

# the independent determinant route agrees with the ordered product
z = np.exp(1.1j)
md = transfer_via_determinants(scheme, 8, z)
direct = transfer_product(scheme, 8, z).value()
print(f"determinant route, n = 8: max entry deviation = {np.max(np.abs(md - direct)):.2e}")

# one-step matrices conjugate into SL(2, R) without changing norms
m = transfer_product(scheme, 1, 1.0).matrix
A = sl2r_conjugate(m)
print(f"SL(2,R) conjugate of a one-step factor:\n{np.round(A, 4)}")

# finite-scale Lyapunov estimates, with the a-priori ceiling P(z)
cfg = SamplingConfig(mode="monte-carlo", sample_count=2000, rng_seed=7)
P = scaling_factor(scheme, 1.0).value
print(f"\nscaling factor P(1) = {P:.3f} (uniform bound on log||M_n||/n)")
for n in (50, 100, 200, 400):
    est = estimate_Ln(scheme, 1.0, n, cfg)
    print(f"  L_{n:<4d} = {est.mean:.4f} +- {est.std_error:.4f}")

e1 = estimate_Ln(scheme, 1.0, 200, cfg)
e2 = estimate_Ln(scheme, 1.0, 400, cfg)
L_inf, C = extrapolate_limit(e1, e2)
print(f"extrapolated limit under L_n = L + C/n: L = {L_inf:.4f} (C = {C:.2f})")

pm = positivity_margin(scheme, 1.0, 200, cfg)
print(f"\ncoupling bound -log(1 - lambda^2)/4 = {pm.bound:.4f}; "
      f"measured margin {pm.margin:+.4f}")
print("(this sampler lies outside the bound's regime: its ceiling E log||S|| stays"
      " below 1.17 as lambda -> 1; see the reference-sampler note in the README)")
