"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 9 asserts the
coupling-bound inequality L(1) >= -1/4 log(1 - lambda^2) unchanged, on the
unimodular monomial e^{2 pi i x}.  With |alpha| = lambda the factor rho is
constant and subharmonicity in e^{2 pi i y} gives L_n >= -1/2 log(1 - lambda^2),
so the scheme lies inside the bound's regime, and e^{2 pi i x} depends on the
coordinate the skew-shift moves.  The reference sampler cannot meet the bound
near lambda = 1 (|f| = 1 only on x = y, so L <= E log||S|| stays below 1.17
while the bound diverges; see README); its margin is printed on the same line.
"""

import time

import numpy as np
import pytest

from skewcmv.cmv import BoundaryPair, assemble_window
from skewcmv.cocycle import (
    SL2R_CONJUGATOR,
    scaling_factor,
    spectral_norms_2x2,
    szego_matrix,
    transfer_product,
    transfer_via_determinants,
)
from skewcmv.green import davis_simon_gap, green_entry_via_polys, green_matrix, restriction_residual
from skewcmv.localization import localization_scan
from skewcmv.lyapunov import (
    SamplingConfig,
    avalanche_residual,
    deviation_profile,
    estimate_Ln,
    multiscale_residual,
    positivity_margin,
)
from skewcmv.model import diophantine_margin, orbit_point
from schemes import make_scheme, random_scheme

GOLDEN = (np.sqrt(5) - 1) / 2
REFERENCE_SAMPLER = {(1, 0): 0.5, (0, 1): 0.5}  # (e^{2 pi i x} + e^{2 pi i y}) / 2
UNIMODULAR_SAMPLER = {(1, 0): 1.0}  # e^{2 pi i x}, so |alpha_n| = lambda


def random_bc(rng):
    return BoundaryPair(np.exp(2j * np.pi * rng.random()), np.exp(2j * np.pi * rng.random()))


def report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status} ({detail}, {elapsed:.1f}s/{budget:.0f}s)"
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_01_unitarity_suite():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst_unitary = 0.0
    worst_factor = 0.0
    for _ in range(200):
        s = random_scheme(rng)
        size = int(rng.integers(8, 129))
        a = int(rng.integers(-4, 5))
        w = assemble_window(s, (a, a + size - 1), random_bc(rng))
        eye = np.eye(size)
        worst_unitary = max(worst_unitary, float(np.max(np.abs(w.matrix.conj().T @ w.matrix - eye))))
        worst_factor = max(worst_factor, float(np.max(np.abs(w.L @ w.M - w.matrix))))
    elapsed = time.time() - t0
    ok = worst_unitary < 1e-12 and worst_factor < 1e-13
    report(1, "unitarity suite", ok,
           f"200 windows, worst E*E-I {worst_unitary:.2e}, worst LM-E {worst_factor:.2e}",
           elapsed, 10.0)


def test_02_cocycle_suite():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    worst_det = 0.0
    for n in (10, 100, 1000, 10000):
        s = random_scheme(rng)
        fp = transfer_product(s, n, np.exp(2j * np.pi * rng.random()))
        worst_det = max(worst_det, abs(fp.det() - 1.0))
    worst_split = 0.0
    for _ in range(100):
        s = random_scheme(rng)
        z = np.exp(2j * np.pi * rng.random())
        n1 = int(rng.integers(1, 150))
        n2 = int(rng.integers(1, 150))
        shifted = orbit_point(s.base, s.frequency, n1)
        left = transfer_product(s, n2, z, base=np.array([shifted.x, shifted.y]))
        right = transfer_product(s, n1, z)
        worst_split = max(worst_split, left.compose(right).distance(transfer_product(s, n1 + n2, z)))
    Q = SL2R_CONJUGATOR
    worst_conj = 0.0
    for _ in range(100):
        a = 0.95 * rng.random() * np.exp(2j * np.pi * rng.random())
        m = szego_matrix(a, np.exp(2j * np.pi * rng.random()))
        nm = float(spectral_norms_2x2(m))
        na = float(spectral_norms_2x2(Q.conj().T @ m @ Q))
        worst_conj = max(worst_conj, abs(na - nm))
    elapsed = time.time() - t0
    ok = worst_det < 1e-6 and worst_split < 1e-8 and worst_conj < 1e-12
    report(2, "cocycle suite", ok,
           f"det {worst_det:.2e}, splits {worst_split:.2e}, conj-norm {worst_conj:.2e}",
           elapsed, 30.0)


def test_03_determinant_form_oracle():
    t0 = time.time()
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(100):
        s = random_scheme(rng)
        n = int(rng.integers(2, 13))
        z = np.exp(2j * np.pi * rng.random())
        md = transfer_via_determinants(s, n, z)
        direct = transfer_product(s, n, z).value()
        scale = float(np.max(np.abs(direct)))
        rel = min(float(np.max(np.abs(md - direct))), float(np.max(np.abs(md + direct)))) / scale
        worst = max(worst, rel)
    elapsed = time.time() - t0
    report(3, "determinant-form oracle", worst < 1e-8,
           f"100 instances n in 2..12, worst rel {worst:.2e}", elapsed, 10.0)


def test_04_green_oracle():
    t0 = time.time()
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(100):
        s = random_scheme(rng)
        size = int(rng.integers(4, 33))
        a = int(rng.integers(-3, 4))
        w = assemble_window(s, (a, a + size - 1), random_bc(rng))
        eigs = np.linalg.eigvals(w.matrix)
        while True:
            z = np.exp(2j * np.pi * rng.random())
            if np.min(np.abs(z - eigs)) >= 1e-3:
                break
        j = int(rng.integers(w.a, w.b + 1))
        k = int(rng.integers(j, w.b + 1))
        direct = abs(green_matrix(w, z).entry(j, k))
        rel = abs(green_entry_via_polys(w, j, k, z) - direct) / max(direct, 1e-300)
        worst = max(worst, rel)
    elapsed = time.time() - t0
    report(4, "green entry oracle", worst < 1e-8,
           f"100 instances size<=32, worst rel {worst:.2e}", elapsed, 30.0)


def test_05_restriction_identity():
    t0 = time.time()
    rng = np.random.default_rng(1005)
    parities = [(8, 24), (9, 25), (8, 25), (9, 24)]
    worst = 0.0
    seen = set()
    for i in range(40):
        s = random_scheme(rng, max_coupling=0.8)
        a, b = parities[i % 4]
        big = assemble_window(s, (0, 31), random_bc(rng))
        vals, vecs = np.linalg.eig(big.matrix)
        w = assemble_window(s, (a, b), random_bc(rng))
        inner_eigs = np.linalg.eigvals(w.matrix)
        dists = np.array([np.min(np.abs(zv - inner_eigs)) for zv in vals])
        pick = int(np.argmax(dists))
        psi = vecs[:, pick][a - 1 : b + 2]
        worst = max(worst, restriction_residual(w, complex(vals[pick]), psi))
        seen.add((a % 2, b % 2))
    elapsed = time.time() - t0
    ok = worst < 1e-8 and len(seen) == 4
    report(5, "restriction identity", ok,
           f"40 instances, all four parities, worst residual {worst:.2e}", elapsed, 10.0)


def test_06_davis_simon():
    t0 = time.time()
    rng = np.random.default_rng(1006)
    worst_excess = -np.inf
    worst_normal_dev = 0.0
    # scalar equality case
    gap = davis_simon_gap(np.array([[0.4 * np.exp(0.9j)]]), 1.2 * np.exp(0.3j))
    worst_normal_dev = max(worst_normal_dev, abs(gap.product - 1.0))
    for i in range(200):
        lam_zero = i % 4 == 0
        s = random_scheme(rng, max_coupling=0.0 if lam_zero else 0.9)
        size = int(rng.integers(2, 33))
        a = int(rng.integers(-3, 4))
        w = assemble_window(s, (a, a + size - 1), random_bc(rng))
        eigs = np.linalg.eigvals(w.matrix)
        while True:
            z = rng.uniform(1.0, 1.5) * np.exp(2j * np.pi * rng.random())
            if np.min(np.abs(z - eigs)) > 1e-6:
                break
        gap = davis_simon_gap(w, z)
        worst_excess = max(worst_excess, gap.product - gap.bound * (1 + 1e-8))
        if lam_zero:
            worst_normal_dev = max(worst_normal_dev, abs(gap.product - 1.0))
    elapsed = time.time() - t0
    ok = worst_excess <= 0 and worst_normal_dev < 1e-10
    report(6, "davis-simon gap", ok,
           f"200 windows, worst excess {worst_excess:.2e}, normal-case dev {worst_normal_dev:.2e}",
           elapsed, 60.0)


def test_07_avalanche_principle():
    t0 = time.time()
    mu = 1e3
    diag_rep = avalanche_residual([np.diag([mu, 1 / mu])] * 10)
    rng = np.random.default_rng(1007)
    worst_ratio = 0.0
    hypotheses = True
    for _ in range(50):
        n = int(rng.integers(10, 101))
        mats = []
        for _ in range(n):
            m = rng.uniform(1e3, 1e5)
            phi = rng.uniform(-0.3, 0.3)
            c, s = np.cos(phi), np.sin(phi)
            mats.append(np.array([[c, -s], [s, c]]) @ np.diag([m, 1 / m]))
        rep = avalanche_residual(mats)
        hypotheses = hypotheses and rep.hypothesis_ok
        worst_ratio = max(worst_ratio, rep.residual / rep.n_over_mu)
    elapsed = time.time() - t0
    ok = diag_rep.residual == 0.0 and diag_rep.hypothesis_ok and hypotheses and worst_ratio <= 10.0
    report(7, "avalanche principle", ok,
           f"diagonal residual {diag_rep.residual:.1e}, fitted C {worst_ratio:.2f} <= 10",
           elapsed, 5.0)


def test_08_constant_cocycle_oracle():
    t0 = time.time()
    s = make_scheme({(0, 0): 5 / 9}, 0.9, 0.37, base=(0.6, 0.1))  # lambda * c = 0.5
    cfg = SamplingConfig(mode="monte-carlo", sample_count=1000, rng_seed=1008)
    est = estimate_Ln(s, 1.0, 500, cfg)
    target = 0.5 * np.log(3.0)
    dev = abs(est.mean - target)
    tol = max(3 * est.std_error, 1e-9)
    s0 = make_scheme(REFERENCE_SAMPLER, 0.0, GOLDEN)
    est0 = estimate_Ln(s0, 1.0, 100, SamplingConfig(mode="grid", grid_side=8))
    elapsed = time.time() - t0
    ok = dev <= tol and est0.mean == 0.0
    report(8, "constant-cocycle oracle", ok,
           f"|L-log(3)/2| = {dev:.2e} <= {tol:.2e}, free case {est0.mean!r}", elapsed, 60.0)


def test_09_positivity_desk_check():
    t0 = time.time()
    s = make_scheme(UNIMODULAR_SAMPLER, 0.99, GOLDEN)
    cert = diophantine_margin(s.frequency, 0.1, 10_000)
    cfg = SamplingConfig(mode="monte-carlo", sample_count=1000, rng_seed=1009)
    pm = positivity_margin(s, 1.0, 200, cfg)
    ref = positivity_margin(make_scheme(REFERENCE_SAMPLER, 0.99, GOLDEN), 1.0, 200, cfg)
    elapsed = time.time() - t0
    ok = cert.passes and pm.margin > 0
    report(9, "coupling-bound desk check", ok,
           f"dio margin {cert.margin:.4f}, L_200 = {pm.estimate.mean:.4f} "
           f"+- {pm.estimate.std_error:.4f} vs bound {pm.bound:.4f} (margin {pm.margin:.4f}); "
           f"reference sampler L_200 = {ref.estimate.mean:.3f} vs {ref.bound:.3f} "
           f"(margin {ref.margin:.3f}, outside the bound's regime)",
           elapsed, 300.0)


def test_10_localization_diagnostic():
    t0 = time.time()
    s = make_scheme(REFERENCE_SAMPLER, 0.99, GOLDEN)
    bc = BoundaryPair(np.exp(0.4j), np.exp(-0.8j))
    size = 512
    reports = localization_scan(s, size, bc, SamplingConfig(mode="grid", grid_side=10))
    bulk = [r for r in reports if size // 8 <= r.center < size - size // 8]
    frac = float(np.mean([r.localized for r in bulk]))
    s0 = make_scheme(REFERENCE_SAMPLER, 0.0, GOLDEN)
    null_reports = localization_scan(s0, size, bc, SamplingConfig(mode="grid", grid_side=6))
    null_flags = sum(r.localized for r in null_reports)
    elapsed = time.time() - t0
    ok = frac >= 0.9 and null_flags == 0
    report(10, "localization diagnostic", ok,
           f"size 512: {100 * frac:.1f}% of {len(bulk)} bulk pairs flagged, null flags {null_flags}",
           elapsed, 600.0)


def test_11_multiscale_identity():
    t0 = time.time()
    s = make_scheme(REFERENCE_SAMPLER, 0.99, GOLDEN)
    cfg = SamplingConfig(mode="grid", grid_side=24)
    ok = True
    details = []
    for (n, N) in ((10, 100), (14, 196)):
        res = multiscale_residual(s, 1.0, n, N, cfg)
        P = scaling_factor(s, 1.0).value
        bound = 5.0 * P * n / N
        ok = ok and res.residual <= bound
        details.append(f"(n={n},N={N}): {res.residual:.4f} <= {bound:.4f}")
    elapsed = time.time() - t0
    report(11, "multiscale identity", ok, "; ".join(details), elapsed, 300.0)


def test_12_deviation_monotone_decay():
    t0 = time.time()
    s = make_scheme(REFERENCE_SAMPLER, 0.95, GOLDEN)
    P = scaling_factor(s, 1.0).value
    votes = 0
    for seed in (1, 2, 3):
        cfg = SamplingConfig(mode="monte-carlo", sample_count=3000, rng_seed=seed)
        measures = [deviation_profile(s, 1.0, n, [0.1 * P], cfg).measure[0] for n in (20, 40, 80)]
        if measures[0] >= measures[1] >= measures[2]:
            votes += 1
    elapsed = time.time() - t0
    report(12, "deviation monotone decay", votes >= 2,
           f"monotone in {votes}/3 seeds at threshold 0.1 P", elapsed, 300.0)
