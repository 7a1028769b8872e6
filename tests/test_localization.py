import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from skewcmv.cmv import BoundaryPair, assemble_window
from skewcmv.localization import (
    decay_fit,
    finite_size_drift,
    inverse_participation_ratio,
    localization_scan,
    window_spectrum,
)
from skewcmv.cli import config_from_doc, run
from skewcmv.lyapunov import SamplingConfig, estimate_Ln_many
from schemes import make_scheme

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up
_spec.loader.exec_module(workloads)

GOLDEN = (np.sqrt(5) - 1) / 2


TRIG = {(1, 0): 0.5, (0, 1): 0.5}
# (cos 2 pi x + cos 2 pi y) / 2: real coefficients, so E is real and its spectrum conjugation-symmetric
REAL_TRIG = {(1, 0): 0.25, (-1, 0): 0.25, (0, 1): 0.25, (0, -1): 0.25}


def multiset_gap(a, b) -> float:
    """Largest distance in the best one-to-one matching of two eigenvalue lists (order-free)."""
    a, b = np.asarray(a), np.asarray(b)
    assert len(a) == len(b)
    d = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(d)
    return float(np.max(d[rows, cols]))


class TestWindowSpectrum:
    def test_free_window_permutation_oracle(self):
        s = make_scheme(TRIG, 0.0, 0.3)
        w = assemble_window(s, (0, 3), BoundaryPair(1.0, 1.0))
        pairs = window_spectrum(w)
        # oracle: eigensolve the hand-built signed permutation directly
        perm = np.zeros((4, 4), dtype=complex)
        perm[1, 0] = -1.0
        perm[3, 1] = 1.0
        perm[0, 2] = 1.0
        perm[2, 3] = 1.0
        want = np.linalg.eigvals(perm)
        got = np.array([p.value for p in pairs])
        assert multiset_gap(got, want) < 1e-10

    def test_eigenpair_quality(self):
        rng = np.random.default_rng(12)
        s = make_scheme(TRIG, 0.9, GOLDEN, base=(0.23, 0.71))
        w = assemble_window(s, (0, 63), BoundaryPair(np.exp(0.3j), np.exp(1.9j)))
        pairs = window_spectrum(w)
        assert len(pairs) == 64
        mods = np.array([abs(p.value) for p in pairs])
        assert np.max(np.abs(mods - 1.0)) < 1e-8
        assert np.sum(mods) == pytest.approx(64.0, abs=1e-6)
        assert max(p.residual for p in pairs) < 1e-8

    def test_spectrum_invariant_under_sign_rephasing(self):
        s = make_scheme(TRIG, 0.85, GOLDEN, base=(0.4, 0.9))
        w = assemble_window(s, (0, 31), BoundaryPair(1.0, -1.0))
        D = np.diag([(-1.0) ** j for j in range(32)])
        rephased = np.linalg.eigvals(D @ w.matrix @ D)
        original = np.array([p.value for p in window_spectrum(w)])
        a = np.sort(np.angle(original) % (2 * np.pi))
        b = np.sort(np.angle(rephased) % (2 * np.pi))
        assert np.max(np.abs(a - b)) < 1e-8


class TestNormalPath:
    """Unimodular windows go through eigh on (E + E*)/2; dense eig is the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["real", "free", "complex"]),
        lam=st.sampled_from([0.0, 0.3, 0.9, 0.99]),
        size=st.integers(4, 256),
        a=st.integers(-50, 50),
        signs=st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0])),
        angles=st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi)),
        omega=st.floats(0.05, 0.95),
        base=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_eig(self, kind, lam, size, a, signs, angles, omega, base, seed):
        if kind == "complex":
            rng = np.random.default_rng(seed)
            keys = [(1, 0), (0, 1), (1, 1), (2, -1)]
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            coeffs = dict(zip(keys, c / np.sum(np.abs(c))))
            bc = BoundaryPair(np.exp(1j * angles[0]), np.exp(1j * angles[1]))
        else:
            coeffs = REAL_TRIG
            lam = 0.0 if kind == "free" else lam
            bc = BoundaryPair(*signs)
        w = assemble_window(make_scheme(coeffs, lam, omega, base), (a, a + size - 1), bc)
        pairs = window_spectrum(w)
        assert len(pairs) == size
        assert multiset_gap([p.value for p in pairs], scipy.linalg.eigvals(w.matrix)) <= 1e-12
        assert max(p.residual for p in pairs) <= 1e-11
        for p in pairs:
            assert np.linalg.norm(w.matrix @ p.vector - p.value * p.vector) <= 1e-11
            assert np.linalg.norm(p.vector) == pytest.approx(1.0, abs=1e-12)

    def test_decay_fits_match_dense_eig(self):
        # eigh's back-transform leaves a ~1e-15 floor on every site of its vectors; unless the
        # inverse-iteration step removes it, localized tails read as plateaus in the fits
        s = make_scheme(TRIG, 0.9, GOLDEN, base=(0.31, 0.77))
        w = assemble_window(s, (0, 255), BoundaryPair(1.0, 1.0))
        vals, vecs = scipy.linalg.eig(w.matrix)
        drate, dr2 = [], []
        for p in window_spectrum(w):
            j = int(np.argmin(np.abs(vals - p.value)))
            got, want = decay_fit(p.vector), decay_fit(vecs[:, j])
            drate.append(abs(got.rate - want.rate))
            dr2.append(abs(got.r2 - want.r2))
        assert np.median(drate) < 1e-3
        assert np.mean(np.array(drate) > 0.05) <= 0.01
        assert np.mean(np.array(dr2) > 0.05) <= 0.01

    @pytest.mark.parametrize("gamma,dense", [(0.5, True), (1.0, False)])
    def test_route_follows_unimodularity(self, monkeypatch, gamma, dense):
        calls = {"eig": [], "eigh": 0}
        eig, eigh = scipy.linalg.eig, scipy.linalg.eigh

        def spy_eig(A, *args, **kwargs):
            calls["eig"].append(len(A))
            return eig(A, *args, **kwargs)

        def spy_eigh(A, *args, **kwargs):
            calls["eigh"] += 1
            return eigh(A, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eig", spy_eig)
        monkeypatch.setattr(scipy.linalg, "eigh", spy_eigh)
        s = make_scheme(TRIG, 0.9, GOLDEN, base=(0.2, 0.6))
        w = assemble_window(s, (0, 47), BoundaryPair(np.exp(0.7j), gamma))
        pairs = window_spectrum(w)
        assert (48 in calls["eig"]) == dense
        assert calls["eigh"] == (0 if dense else 1)
        assert multiset_gap([p.value for p in pairs], eig(w.matrix, right=False)) < 1e-12
        assert max(p.residual for p in pairs) < 1e-11


# the localize-scan benchmark's schemes for cases 3 and 7
THOULESS_SCHEMES = [
    ({(1, 0): -0.061779854423289385 - 0.38966617186906427j, (2, 0): 0.2334760604120627 + 0.5586402501279615j},
     0.47131339168211883, (0.37003621064256664, 0.08213985264452461)),
    ({(1, 0): 0.46961068634655123 - 0.2001934878669405j, (1, -1): -0.019556765111907553 + 0.4891078207986741j},
     0.7421815553386005, (0.34880221153142443, 0.10202513746069275)),
]


@pytest.mark.parametrize("coeffs,omega,base", THOULESS_SCHEMES)
def test_thouless_formula_off_the_circle(coeffs, omega, base):
    """Window eigenvalues and the cocycle agree off the circle (Thouless formula for OPUC).

    L_n(z) = (1/N) sum_j log|z - w_j| - E log rho - (1/2) log|z|, the last term from
    the sqrt(z) normalization of the determinant-one cocycle.
    """
    s = make_scheme(coeffs, 0.9, omega, base)
    size = 1024
    w = np.array([p.value for p in window_spectrum(assemble_window(s, (0, size - 1), BoundaryPair(1.0, 1.0)))])
    grid = (np.arange(256) + 0.5) / 256
    x, y = np.meshgrid(grid, grid)
    e_log_rho = float(np.mean(0.5 * np.log1p(-np.abs(s.coupling * s.sampler(x, y)) ** 2)))
    zs = [1.5 * np.exp(0.7j), 0.6 * np.exp(2.1j), 2.0, 1.2j]
    ests = estimate_Ln_many(s, zs, 2000, SamplingConfig(mode="grid", grid_side=8))
    for z, est in zip(zs, ests):
        thouless = np.mean(np.log(np.abs(z - w))) - e_log_rho - 0.5 * np.log(abs(z))
        assert abs(est.mean - thouless) <= 0.02, z


class TestDecayFit:
    def test_synthetic_exponential(self):
        n = 128
        c = 40
        v = np.exp(-0.3 * np.abs(np.arange(n) - c))
        fit = decay_fit(v)
        assert fit.center == c
        assert fit.rate == pytest.approx(0.3, abs=1e-6)
        assert fit.r2 > 0.999

    def test_constant_vector_flagged_flat(self):
        fit = decay_fit(np.ones(64))
        assert fit.rate == 0.0 and fit.r2 == 0.0

    def test_oscillating_envelope_recovered(self):
        # parity oscillation on top of exponential decay: block-2 envelope sees through
        n = 128
        c = 64
        d = np.abs(np.arange(n) - c)
        v = np.exp(-0.25 * d) * (1.0 - 0.9 * (np.arange(n) % 2))
        fit = decay_fit(v)
        assert fit.rate == pytest.approx(0.25, abs=0.01)
        assert fit.r2 > 0.99

    def test_free_eigenvectors_not_localized(self):
        s = make_scheme(TRIG, 0.0, GOLDEN)
        w = assemble_window(s, (0, 63), BoundaryPair(1.0, 1.0))
        rates = [decay_fit(p.vector).rate for p in window_spectrum(w)]
        assert np.median(rates) < 0.02

    def test_short_vector_rejected(self):
        with pytest.raises(ValueError):
            decay_fit(np.ones(16))

    def test_ipr_bounds(self):
        assert inverse_participation_ratio(np.ones(50)) == pytest.approx(1 / 50)
        e = np.zeros(50)
        e[3] = 1.0
        assert inverse_participation_ratio(e) == pytest.approx(1.0)


class TestLocalizationScan:
    def test_strong_coupling_flags_bulk(self):
        s = make_scheme(TRIG, 0.99, GOLDEN)
        bc = BoundaryPair(np.exp(0.4j), np.exp(-0.8j))
        reports = localization_scan(s, 128, bc, SamplingConfig(mode="grid", grid_side=8))
        assert len(reports) == 128
        bulk = [r for r in reports if 16 <= r.center < 112]
        frac = np.mean([r.localized for r in bulk])
        assert frac >= 0.9

    def test_zero_coupling_flags_nothing(self):
        s = make_scheme(TRIG, 0.0, GOLDEN)
        bc = BoundaryPair(1.0, 1.0)
        reports = localization_scan(s, 64, bc, SamplingConfig(mode="grid", grid_side=6))
        assert sum(r.localized for r in reports) == 0

    def test_reports_reproducible(self):
        s = make_scheme(TRIG, 0.95, GOLDEN, base=(0.11, 0.47))
        bc = BoundaryPair(1.0, -1.0)
        cfg = SamplingConfig(mode="monte-carlo", sample_count=100, rng_seed=77)
        a = localization_scan(s, 64, bc, cfg)
        b = localization_scan(s, 64, bc, cfg)
        for ra, rb in zip(a, b):
            assert ra == rb

    def test_ipr_in_range(self):
        s = make_scheme(TRIG, 0.9, GOLDEN)
        reports = localization_scan(s, 64, BoundaryPair(1.0, 1.0), SamplingConfig(mode="grid", grid_side=6))
        for r in reports:
            assert 1 / 64 - 1e-12 <= r.ipr <= 1.0 + 1e-12

    def test_size_precondition(self):
        s = make_scheme(TRIG, 0.9, GOLDEN)
        with pytest.raises(ValueError):
            localization_scan(s, 32, BoundaryPair(1.0, 1.0), SamplingConfig())


# localized pairs of 512 in the localize-scan benchmark's cases, recorded at 803eefe
LOCALIZED_OF_512 = {6: 512, 7: 474}


@pytest.mark.parametrize("case", sorted(LOCALIZED_OF_512))
def test_benchmark_localized_fraction(case):
    # the benchmark's correctness gate compares eigenvalues and L_ref only, not the flags
    (call,) = workloads._localize_scan(case)
    doc = dict(call.doc, sampling=dict(call.doc["sampling"], rng_seed=case))
    rows, failures, _ = run(config_from_doc(doc))
    assert failures == 0 and len(rows) == 512
    assert abs(sum(r["localized_flag"] for r in rows) - LOCALIZED_OF_512[case]) <= 2


class TestFiniteSizeDrift:
    def test_free_case_trendless(self):
        s = make_scheme(TRIG, 0.0, GOLDEN)
        rows = finite_size_drift(s, [64, 96], BoundaryPair(1.0, 1.0), SamplingConfig(mode="grid", grid_side=4))
        for row in rows:
            assert row["median_rate"] < 0.02
            assert row["localized_fraction"] == 0.0
            # flat states: ipr * size stays O(1)
            assert row["median_ipr_x_size"] < 10.0

    def test_localized_rate_stable_across_sizes(self):
        s = make_scheme(TRIG, 0.99, GOLDEN)
        rows = finite_size_drift(s, [96, 160], BoundaryPair(1.0, -1.0), SamplingConfig(mode="grid", grid_side=6))
        r1, r2 = rows[0]["median_rate"], rows[1]["median_rate"]
        assert abs(r1 - r2) <= 0.2 * max(r1, r2)

    def test_constant_sampler_rate_size_independent(self):
        s = make_scheme({(0, 0): 5 / 9}, 0.9, 0.37)
        rows = finite_size_drift(s, [64, 128], BoundaryPair(1.0, 1.0), SamplingConfig(mode="grid", grid_side=4))
        r1, r2 = rows[0]["median_rate"], rows[1]["median_rate"]
        assert abs(r1 - r2) <= 0.1 * max(r1, r2, 0.05)

    def test_sizes_must_ascend(self):
        s = make_scheme(TRIG, 0.9, GOLDEN)
        with pytest.raises(ValueError):
            finite_size_drift(s, [128, 64], BoundaryPair(1.0, 1.0))
