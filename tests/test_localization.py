import importlib.util
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from skewcmv.cmv import BoundaryPair, _l_root, assemble_window
from skewcmv import localization
from skewcmv.green import _pencil_solve, _resolvent_solve
from skewcmv.localization import (
    decay_fit,
    finite_size_drift,
    inverse_participation_ratio,
    localization_scan,
    window_spectrum,
)
from skewcmv.cli import config_from_doc, run
from skewcmv.lyapunov import SamplingConfig, estimate_Ln_many
from schemes import make_scheme, random_scheme

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

    @pytest.mark.parametrize("beta,gamma,a", [(0.3 + 0.4j, 0.5, 0), (1.0, 0.0, 3), (0.9j, -0.2, -4)])
    def test_non_unimodular_eigenvalues_are_rayleigh_quotients(self, beta, gamma, a):
        s = make_scheme(TRIG, 0.9, GOLDEN, base=(0.23, 0.71))
        w = assemble_window(s, (a, a + 63), BoundaryPair(beta, gamma))
        pairs = window_spectrum(w)
        assert multiset_gap([p.value for p in pairs], scipy.linalg.eigvals(w.matrix)) <= 1e-12
        for p in pairs:
            assert np.linalg.norm(p.vector) == pytest.approx(1.0, abs=1e-14)
            assert abs(p.value - p.vector.conj() @ w.matrix @ p.vector) <= 1e-14
            assert p.residual == pytest.approx(np.linalg.norm(w.matrix @ p.vector - p.value * p.vector), abs=1e-14)

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
    """Unimodular windows go through eigh on Re S, S = R M R similar to E; dense eig is the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["real", "free", "complex"]),
        lam=st.sampled_from([0.0, 0.3, 0.9, 0.99]),
        size=st.integers(4, 256),
        a=st.integers(-50, 50),
        signs=st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0])) | st.none(),
        angles=st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi)),
        omega=st.floats(0.05, 0.95),
        base=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_eig(self, kind, lam, size, a, signs, angles, omega, base, seed):
        bc = BoundaryPair(np.exp(1j * angles[0]), np.exp(1j * angles[1]))
        if kind == "complex":
            rng = np.random.default_rng(seed)
            keys = [(1, 0), (0, 1), (1, 1), (2, -1)]
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            coeffs = dict(zip(keys, c / np.sum(np.abs(c))))
        else:
            # real coefficients under +-1 or under random unimodular boundaries
            coeffs = REAL_TRIG
            lam = 0.0 if kind == "free" else lam
            bc = BoundaryPair(*signs) if signs else bc
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

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(2, 128),
        a=st.integers(-6, 6),
        lam=st.sampled_from([0.0, 0.5, 0.92, 0.99]),
    )
    @example(seed=0, size=2, a=-3, lam=0.92)  # one block of L or of M, no +-2 diagonals in E
    @example(seed=1, size=3, a=4, lam=0.5)    # one block and one edge entry in each factor
    @example(seed=2, size=4, a=1, lam=0.99)
    @example(seed=3, size=5, a=0, lam=0.0)
    def test_root_of_l_gives_a_commuting_real_part(self, seed, size, a, lam):
        """R is a symmetric unitary root of L, and the Re S that _normal_eigvecs hands to eigh is Re(R M R)."""
        rng = np.random.default_rng(seed)
        beta, gamma = np.exp(2j * np.pi * rng.random(2))
        s = random_scheme(rng, max_coupling=lam) if lam else make_scheme(TRIG, 0.0, GOLDEN)
        w = assemble_window(s, (a, a + size - 1), BoundaryPair(beta, gamma))
        R = tridiagonal(*_l_root(w.lm, w.a))
        # 7.0e-16 and 6.7e-16 at most over 6000 seeded draws of this property
        assert np.max(np.abs(R @ R - w.L)) <= 1e-15
        assert np.max(np.abs(R.conj().T @ R - np.eye(size))) <= 1e-15
        seen = []

        def stop_at_eigh(A):
            seen.append(A)
            raise StopIteration

        with mock.patch.object(np.linalg, "eigh", stop_at_eigh), pytest.raises(StopIteration):
            localization._normal_eigvecs(w)
        S = R @ w.M @ R
        assert seen[0].dtype == np.float64
        assert np.max(np.abs(seen[0] - S.real)) <= 1e-15  # 3.3e-16 at most over the same draws
        assert np.linalg.norm(S.real @ S.imag - S.imag @ S.real) <= 1e-14

    @pytest.mark.parametrize("gamma,dense", [(0.5, True), (1.0, False)])
    def test_route_follows_unimodularity(self, monkeypatch, gamma, dense):
        calls = {"eig": [], "eigh": 0}
        eig, eigh = np.linalg.eig, np.linalg.eigh

        def spy_eig(A, *args, **kwargs):
            calls["eig"].append(len(A))
            return eig(A, *args, **kwargs)

        def spy_eigh(A, *args, **kwargs):
            calls["eigh"] += 1
            return eigh(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eig", spy_eig)
        monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
        s = make_scheme(TRIG, 0.9, GOLDEN, base=(0.2, 0.6))
        w = assemble_window(s, (0, 47), BoundaryPair(np.exp(0.7j), gamma))
        pairs = window_spectrum(w)
        assert (48 in calls["eig"]) == dense
        assert calls["eigh"] == (0 if dense else 1)
        assert multiset_gap([p.value for p in pairs], scipy.linalg.eigvals(w.matrix)) < 1e-12
        assert max(p.residual for p in pairs) < 1e-11


def tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


class TestPencilSolve:
    """The inverse-iteration step solves (A - s B) y = v for every shift s at once; numpy's dense solve is the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 64), lanes=st.integers(1, 8), zeros=st.floats(0.0, 0.7), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_solve(self, n, lanes, zeros, seed):
        rng = np.random.default_rng(seed)

        def cnormal(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        a_diag, a_off, b_diag, b_off = cnormal(n), cnormal(n - 1), cnormal(n), cnormal(n - 1)
        # a zero diagonal in A and B zeroes that pivot for every shift, so the row below must be swapped in
        gone = rng.random(n) < zeros
        a_diag[gone] = b_diag[gone] = 0.0
        shifts, rhs = cnormal(lanes), cnormal(n, lanes)
        systems = [tridiagonal(a_diag - s * b_diag, a_off - s * b_off) for s in shifts]
        # some zero patterns are singular for every shift (zeros at all odd sites of an odd-sized system)
        assume(all(np.linalg.cond(T) < 1e10 for T in systems))
        y = _pencil_solve(a_diag, a_off, b_diag, b_off, shifts, rhs)
        for k, T in enumerate(systems):
            want = np.linalg.solve(T, rhs[:, k])
            cond = np.linalg.cond(T)
            assert np.linalg.norm(T @ y[:, k] - rhs[:, k]) <= 1e-12 * np.linalg.norm(T) * np.linalg.norm(y[:, k])
            assert np.linalg.norm(y[:, k] - want) <= 1e-12 * max(cond, 1.0) * np.linalg.norm(want)

    def test_lane_blocks_agree(self, monkeypatch):
        # windows above _LANE_BLOCK sites solve their shifts in several calls; each lane is independent
        w = assemble_window(make_scheme(TRIG, 0.9, GOLDEN, base=(0.2, 0.6)), (0, 63), BoundaryPair(1.0, -1.0))
        whole = window_spectrum(w)
        monkeypatch.setattr(localization, "_LANE_BLOCK", 7)
        for p, q in zip(whole, window_spectrum(w)):
            assert abs(p.value - q.value) <= 1e-15
            assert np.max(np.abs(p.vector - q.vector)) <= 1e-14

    def test_exactly_singular_shift_keeps_the_ritz_vector(self, monkeypatch):
        # at lambda = 0 the window is a signed permutation, and this one, E = [[0, -i], [i, 0]],
        # has the eigenvalue 1 exactly: the pencil P(1) = conj(L) - M has a zero pivot.  Its R
        # holds (1 +- i) / 2 alone and Re S = diag(-1, 1), so eigh's vectors and the quotient are exact
        w = assemble_window(make_scheme(TRIG, 0.0, GOLDEN), (0, 1), BoundaryPair(-1j, 1j))
        rhs = np.ones((w.size, 2), dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _resolvent_solve(w.lm, np.array([1.0, 1j]), rhs)
            assert not np.isfinite(x[:, 0]).all()
            assert np.allclose((w.matrix - 1j * np.eye(w.size)) @ x[:, 1], rhs[:, 1], rtol=0.0, atol=1e-13)

            seen = {}
            solve = localization._resolvent_solve

            def spy(lm, shifts, block):
                seen["ritz"], seen["shifts"] = block.copy(), shifts
                return solve(lm, shifts, block)

            monkeypatch.setattr(localization, "_resolvent_solve", spy)
            pairs = window_spectrum(w)
        at_one = np.flatnonzero(seen["shifts"] == 1.0)
        assert len(at_one) == 1
        ritz = seen["ritz"][:, at_one[0]]
        (kept,) = [p for p in pairs if p.value == 1.0]
        assert np.array_equal(kept.vector, ritz)
        assert max(p.residual for p in pairs) <= 1e-12
        assert multiset_gap([p.value for p in pairs], scipy.linalg.eigvals(w.matrix)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(2, 96),
        a=st.integers(-6, 6),
        lam=st.sampled_from([0.0, 0.5, 0.92]),
        radii=st.lists(st.sampled_from([1.0, 0.5, 1.5]), min_size=1, max_size=6),
    )
    @example(seed=0, size=22, a=0, lam=0.0, radii=[1.0])  # lambda = 0: P(s) has zero interior diagonals
    @example(seed=1, size=17, a=-3, lam=0.0, radii=[0.5, 1.5])
    def test_resolvent_solve_is_the_dense_shifted_solve(self, seed, size, a, lam, radii):
        """(E - s)^{-1} rhs through the Green pencil equals numpy's dense solve, shifts on and off the circle."""
        rng = np.random.default_rng(seed)
        beta, gamma = np.exp(2j * np.pi * rng.random(2))
        w = assemble_window(random_scheme(rng, max_coupling=lam) if lam else make_scheme(TRIG, 0.0, GOLDEN),
                            (a, a + size - 1), BoundaryPair(beta, gamma))
        shifts = np.array(radii) * np.exp(2j * np.pi * rng.random(len(radii)))
        rhs = rng.normal(size=(size, len(shifts))) + 1j * rng.normal(size=(size, len(shifts)))
        systems = [w.matrix - s * np.eye(size) for s in shifts]
        assume(all(np.linalg.cond(T) < 1e10 for T in systems))
        x = _resolvent_solve(w.lm, shifts, rhs)
        for k, T in enumerate(systems):
            want = np.linalg.solve(T, rhs[:, k])
            assert np.linalg.norm(x[:, k] - want) <= 1e-12 * np.linalg.cond(T) * np.linalg.norm(want)


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


def polyfit_decay_fit(v) -> tuple:
    """(center, rate, r2) of one vector, the envelope fitted by np.polyfit one vector at a time."""
    size = len(v)
    mags = np.abs(v) / np.max(np.abs(v))
    center = int(np.argmax(mags))
    if inverse_participation_ratio(v) < 2.0 / size:
        return center, 0.0, 0.0
    dist = np.abs(np.arange(size) - center)
    env = np.zeros(int(np.max(dist)) // 2 + 1)
    np.maximum.at(env, dist // 2, mags)
    keep = env > 1e-14
    xs, ys = 2.0 * np.arange(len(env))[keep] + 0.5, np.log(env[keep])
    if len(xs) < 3:
        return center, 0.0, 0.0
    slope, intercept = np.polyfit(xs, ys, 1)
    ss_res = np.sum((ys - slope * xs - intercept) ** 2)
    ss_tot = np.sum((ys - np.mean(ys)) ** 2)
    return center, max(-slope, 0.0), 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0


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

    def test_batch_matches_per_vector_polyfit(self):
        rng = np.random.default_rng(5)
        n = 256
        sites = np.arange(n)
        columns = []
        for _ in range(40):  # exponentials, some with parity oscillation, most with tails below the floor
            c, rate = rng.integers(n), rng.uniform(0.02, 0.6)
            v = np.exp(-rate * np.abs(sites - c) + 0.3 * rng.normal(size=n)) * (1.0 - rng.uniform(0, 0.9) * (sites % 2))
            columns.append(v * np.exp(2j * np.pi * rng.random(n)))
        columns += [np.ones(n), np.exp(2j * np.pi * rng.random(n)), np.eye(n)[17], np.eye(n)[0] + 1e-3 * np.eye(n)[2]]
        window = assemble_window(make_scheme(TRIG, 0.9, GOLDEN, base=(0.31, 0.77)), (0, n - 1), BoundaryPair(1.0, 1.0))
        V = np.column_stack(columns + [p.vector for p in window_spectrum(window)])
        fits = decay_fit(V)
        assert len(fits) == V.shape[1]
        assert decay_fit(V[:, 3]) == fits[3]
        for k, fit in enumerate(fits):
            center, rate, r2 = polyfit_decay_fit(V[:, k])
            assert fit.center == center
            assert abs(fit.rate - rate) <= 1e-12 and abs(fit.r2 - r2) <= 1e-12, k

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(32, 96),
        columns=st.integers(1, 3 * localization._COLUMN_BLOCK + 5),
    )
    @example(seed=0, size=33, columns=1)
    @example(seed=1, size=64, columns=localization._COLUMN_BLOCK + 1)
    @example(seed=2, size=96, columns=3 * localization._COLUMN_BLOCK + 5)
    def test_column_blocks_match_single_columns(self, seed, size, columns):
        # a column's fit is bit-identical whatever block it falls in and whatever its neighbours
        rng = np.random.default_rng(seed)
        sites = np.arange(size)[:, None]
        centers, rates = rng.integers(size, size=columns), rng.uniform(0.0, 0.6, size=columns)
        noise = 0.3 * rng.normal(size=(size, columns)) + 2j * np.pi * rng.random((size, columns))
        V = np.exp(-rates * np.abs(sites - centers) + noise) * (1.0 - rng.uniform(0, 0.9, columns) * (sites % 2))
        fits = decay_fit(V)
        assert len(fits) == columns
        for k, fit in enumerate(fits):
            assert decay_fit(V[:, k]) == fit, k

    def test_short_vector_rejected(self):
        with pytest.raises(ValueError):
            decay_fit(np.ones(16))

    def test_ipr_bounds(self):
        assert inverse_participation_ratio(np.ones(50)) == pytest.approx(1 / 50)
        e = np.zeros(50)
        e[3] = 1.0
        assert inverse_participation_ratio(e) == pytest.approx(1.0)


class TestMemory:
    @staticmethod
    def traced(f, *args) -> tuple:
        """(peak, held) bytes that tracemalloc sees: the peak while f(*args) runs, and what its result holds."""
        tracemalloc.start()
        try:
            result = f(*args)
            current, peak = tracemalloc.get_traced_memory()  # result is still held, so current counts it
            del result
            return peak, current
        finally:
            tracemalloc.stop()

    def test_decay_fit_memory_independent_of_column_count(self):
        # columns are fitted _COLUMN_BLOCK at a time: only the output list grows with their count
        n = 512
        rng = np.random.default_rng(3)
        sites = np.arange(n)[:, None]
        V = np.exp(-rng.uniform(0.02, 0.6, n) * np.abs(sites - rng.integers(n, size=n)) + 2j * np.pi * rng.random((n, n)))
        (narrow, narrow_out), (wide, wide_out) = self.traced(decay_fit, V[:, :64]), self.traced(decay_fit, V)
        assert wide - narrow <= 2**20 + (wide_out - narrow_out), (narrow, wide)

    def test_window_spectrum_peak(self):
        # 16.1 MiB traced at 512 sites: V (4 MiB) and one lane block's solve, its work array (8 MiB)
        # and its n x 256 temporaries.  Re S and U (2 MiB each) peak at 4 MiB before V exists, and
        # eigh's LAPACK workspace is not traced.  Keeping the last block's work array through the
        # next solve reads 24.1 MiB
        w = assemble_window(make_scheme(TRIG, 0.9, GOLDEN), (0, 511), BoundaryPair(1.0, 1.0))
        peak, _ = self.traced(window_spectrum, w)
        assert peak <= 20 * 2**20, peak


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
