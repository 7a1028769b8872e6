import numpy as np
import pytest

from skewcmv.cmv import BoundaryPair, assemble_window
from skewcmv.green import (
    SolutionError,
    SpectrumError,
    davis_simon_gap,
    green_decay_fit,
    green_entry_via_polys,
    green_matrix,
    restriction_residual,
    tilde_boundary_values,
)
from schemes import make_scheme, random_scheme


def random_bc(rng):
    return BoundaryPair(np.exp(2j * np.pi * rng.random()), np.exp(2j * np.pi * rng.random()))


def oncircle_z(rng, eigs, dist_min=1e-3):
    while True:
        z = np.exp(2j * np.pi * rng.random())
        if np.min(np.abs(z - eigs)) >= dist_min:
            return complex(z)


class TestGreenMatrix:
    def test_free_window_neumann_bound(self):
        s = make_scheme({(1, 0): 0.5}, 0.0, 0.3)
        w = assemble_window(s, (0, 3), BoundaryPair(1.0, 1.0))
        g = green_matrix(w, 2.0)
        assert g.residual < 1e-12
        assert np.linalg.norm(g.entries, 2) <= 1.0 + 1e-12  # ||(z-E)^{-1}|| <= 1/(|z|-1)

    def test_identity_residual_battery(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            s = random_scheme(rng)
            size = int(rng.integers(4, 65))
            a = int(rng.integers(-3, 4))
            w = assemble_window(s, (a, a + size - 1), random_bc(rng))
            z = 1.1 * np.exp(2j * np.pi * rng.random())
            assert green_matrix(w, z).residual < 1e-10

    def test_two_site_closed_form(self):
        # hand inversion of the 2x2 operator z L* - M at an even left endpoint
        s = make_scheme({(1, 0): 0.4, (0, 1): 0.2}, 0.8, 0.37, base=(0.3, 0.8))
        bc = BoundaryPair(np.exp(0.5j), np.exp(-0.9j))
        w = assemble_window(s, (0, 1), bc)
        z = 1.2 * np.exp(0.3j)
        a0 = w.raw_alpha(0)
        r0 = w.raw_rho(0)
        A = np.array(
            [
                [z * a0 + bc.beta, z * r0],
                [z * r0, -z * np.conj(a0) - np.conj(bc.gamma)],
            ]
        )
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        inv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / det
        g = green_matrix(w, z)
        assert np.max(np.abs(g.entries - inv)) < 1e-12

    def test_spectral_point_rejected(self):
        s = make_scheme({(1, 0): 0.5}, 0.6, 0.37)
        w = assemble_window(s, (0, 7), BoundaryPair(1.0, 1.0))
        z = np.linalg.eigvals(w.matrix)[0]
        with pytest.raises(SpectrumError):
            green_matrix(w, z)


class TestEntryFormula:
    def test_free_window_all_pairs(self):
        s = make_scheme({(1, 0): 0.5}, 0.0, 0.3)
        w = assemble_window(s, (0, 7), BoundaryPair(np.exp(0.4j), np.exp(1.3j)))
        rng = np.random.default_rng(0)
        z = oncircle_z(rng, np.linalg.eigvals(w.matrix))
        g = green_matrix(w, z)
        for j in range(0, 8):
            for k in range(j, 8):
                direct = abs(g.entry(j, k))
                formula = green_entry_via_polys(w, j, k, z)
                assert formula == pytest.approx(direct, rel=1e-8, abs=1e-12)

    def test_random_window_sampled_pairs(self):
        rng = np.random.default_rng(101)
        s = random_scheme(rng)
        a = 3
        w = assemble_window(s, (a, a + 15), random_bc(rng))
        z = oncircle_z(rng, np.linalg.eigvals(w.matrix))
        g = green_matrix(w, z)
        for _ in range(20):
            j = int(rng.integers(w.a, w.b + 1))
            k = int(rng.integers(j, w.b + 1))
            assert green_entry_via_polys(w, j, k, z) == pytest.approx(abs(g.entry(j, k)), rel=1e-8)

    def test_two_site_corner_entry(self):
        rng = np.random.default_rng(5)
        s = random_scheme(rng)
        w = assemble_window(s, (0, 1), random_bc(rng))
        z = oncircle_z(rng, np.linalg.eigvals(w.matrix))
        g = green_matrix(w, z)
        assert green_entry_via_polys(w, 0, 0, z) == pytest.approx(abs(g.entry(0, 0)), rel=1e-10)

    def test_odd_left_endpoint(self):
        rng = np.random.default_rng(6)
        s = random_scheme(rng)
        w = assemble_window(s, (1, 12), random_bc(rng))
        z = oncircle_z(rng, np.linalg.eigvals(w.matrix))
        g = green_matrix(w, z)
        for (j, k) in [(1, 1), (1, 12), (3, 9), (5, 5)]:
            assert green_entry_via_polys(w, j, k, z) == pytest.approx(abs(g.entry(j, k)), rel=1e-8)

    def test_swapped_indices_give_the_same_entry(self):
        # j > k is swapped before the sub-windows are read: the (k, j) call is the (j, k) one
        rng = np.random.default_rng(8)
        s = random_scheme(rng)
        w = assemble_window(s, (2, 13), random_bc(rng))
        z = oncircle_z(rng, np.linalg.eigvals(w.matrix))
        g = green_matrix(w, z)
        for (j, k) in [(2, 13), (4, 9), (6, 7)]:
            swapped = green_entry_via_polys(w, k, j, z)
            assert swapped == green_entry_via_polys(w, j, k, z)
            assert swapped == pytest.approx(abs(g.entry(j, k)), rel=1e-8)

    def test_spectral_point_rejected(self):
        # beta = -1 puts z = 1 exactly in the free window's spectrum, so det(z - E) is exactly 0
        w = assemble_window(make_scheme({(1, 0): 0.5}, 0.0, 0.3), (0, 7), BoundaryPair(-1.0, 1.0))
        with pytest.raises(SpectrumError):
            green_entry_via_polys(w, 0, 3, 1.0)

    def test_requires_circle(self):
        rng = np.random.default_rng(7)
        s = random_scheme(rng)
        w = assemble_window(s, (0, 7), random_bc(rng))
        with pytest.raises(ValueError):
            green_entry_via_polys(w, 0, 3, 1.2)


class TestDecayFit:
    def test_free_window_matches_neumann_oracle(self):
        s = make_scheme({(1, 0): 0.5}, 0.0, 0.3)
        w = assemble_window(s, (0, 23), BoundaryPair(1.0, -1.0))
        z = 1.5
        g = green_matrix(w, z)
        # independent oracle: Neumann series (z - E)^{-1} L = sum z^{-k-1} E^k L
        G = np.zeros_like(g.entries)
        Ek = np.eye(w.size, dtype=complex)
        for k in range(240):
            G += Ek / z ** (k + 1)
            Ek = Ek @ w.matrix
        G = G @ w.L
        assert np.max(np.abs(G - g.entries)) < 1e-12
        fit = green_decay_fit(g)

        # same fit applied to the oracle matrix
        from skewcmv.green import GreenMatrix

        fit_oracle = green_decay_fit(GreenMatrix(w, z, G, 0.0))
        assert fit.rate == pytest.approx(fit_oracle.rate, abs=1e-10)
        # nonzero entries sit on every other diagonal and scale like |z|^{-d/2}
        assert fit.rate == pytest.approx(0.5 * np.log(1.5), abs=0.05)
        assert fit.r2 > 0.99

    def test_constant_coefficient_gap_rate(self):
        # lambda * c = 0.5: spectral gap around z = 1, cocycle exponent log(sqrt(3))
        s = make_scheme({(0, 0): 5 / 9}, 0.9, 0.37)
        w = assemble_window(s, (0, 31), BoundaryPair(1.0, 1.0))
        eigs = np.linalg.eigvals(w.matrix)
        z = np.exp(1j * np.pi / 40)  # inside the gap if no boundary state is close
        if np.min(np.abs(z - eigs)) < 1e-3:
            z = np.exp(1j * np.pi / 30)
        g = green_matrix(w, z)
        fit = green_decay_fit(g)
        assert abs(fit.rate - 0.5 * np.log(3)) / (0.5 * np.log(3)) < 0.15

    def test_small_window_rejected(self):
        s = make_scheme({(1, 0): 0.5}, 0.5, 0.3)
        w = assemble_window(s, (0, 7), BoundaryPair(1.0, 1.0))
        g = green_matrix(w, 1.4)
        with pytest.raises(ValueError):
            green_decay_fit(g)


class TestDavisSimon:
    def test_scalar_equality_case(self):
        d = 0.3 * np.exp(0.8j)
        gap = davis_simon_gap(np.array([[d]]), 1.1 * np.exp(0.2j))
        assert gap.product == pytest.approx(1.0, abs=1e-12)
        assert gap.bound == pytest.approx(1.0, abs=1e-12)  # cot(pi/4)

    def test_normal_window_attains_one(self):
        s = make_scheme({(1, 0): 0.5}, 0.0, 0.3)
        w = assemble_window(s, (0, 9), BoundaryPair(1.0, 1.0))
        gap = davis_simon_gap(w, 1.2 * np.exp(0.7j))
        assert gap.product == pytest.approx(1.0, abs=1e-10)
        assert gap.bound > 1.0

    def test_random_battery(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            s = random_scheme(rng)
            size = int(rng.integers(2, 33))
            a = int(rng.integers(-3, 4))
            w = assemble_window(s, (a, a + size - 1), random_bc(rng))
            eigs = np.linalg.eigvals(w.matrix)
            while True:
                z = rng.uniform(1.0, 1.5) * np.exp(2j * np.pi * rng.random())
                if np.min(np.abs(z - eigs)) > 1e-6:
                    break
            gap = davis_simon_gap(w, z)
            assert gap.product <= gap.bound * (1 + 1e-8)

    def test_norm_precondition(self):
        s = make_scheme({(1, 0): 0.5}, 0.5, 0.3)
        w = assemble_window(s, (0, 5), BoundaryPair(1.0, 1.0))
        with pytest.raises(ValueError):
            davis_simon_gap(w, 0.5)

    def test_resolvent_equality_for_unitary_window(self):
        # the equality half for normal matrices: ||(z-E)^{-1}|| = 1/dist
        rng = np.random.default_rng(66)
        s = random_scheme(rng)
        w = assemble_window(s, (0, 15), random_bc(rng))
        z = 1.3 * np.exp(0.4j)
        gap = davis_simon_gap(w, z)
        assert gap.resolvent_norm == pytest.approx(1.0 / gap.dist, rel=1e-10)


def eigen_solution(s, outer, inner, rng):
    """Exact whole-line solution from an enclosing decoupled window, restricted to inner."""
    lo, hi = outer
    a, b = inner
    big = assemble_window(s, (lo, hi), random_bc(rng))
    vals, vecs = np.linalg.eig(big.matrix)
    w = assemble_window(s, (a, b), random_bc(rng))
    inner_eigs = np.linalg.eigvals(w.matrix)
    dists = np.array([np.min(np.abs(zv - inner_eigs)) for zv in vals])
    pick = int(np.argmax(dists))
    z = complex(vals[pick])
    psi = vecs[:, pick][a - lo - 1 : b - lo + 2]
    return w, z, psi


class TestRestrictionIdentity:
    @pytest.mark.parametrize("inner", [(8, 24), (9, 25), (8, 25), (9, 24)])
    def test_all_parity_combinations(self, inner):
        rng = np.random.default_rng(hash(inner) % 2**32)
        s = random_scheme(rng, max_coupling=0.8)
        w, z, psi = eigen_solution(s, (0, 31), inner, rng)
        assert restriction_residual(w, z, psi) < 1e-8

    def test_zero_solution(self):
        rng = np.random.default_rng(2)
        s = random_scheme(rng)
        w = assemble_window(s, (4, 20), random_bc(rng))
        psi = np.zeros(w.size + 2, dtype=complex)
        assert restriction_residual(w, 1.17, psi) == 0.0

    def test_invalid_solution_rejected(self):
        rng = np.random.default_rng(3)
        s = random_scheme(rng)
        w = assemble_window(s, (4, 20), random_bc(rng))
        psi = rng.standard_normal(w.size + 2) + 0j
        with pytest.raises(SolutionError):
            restriction_residual(w, 1.17, psi)

    def test_derived_reading_passes_oracle(self):
        worst = 0.0
        for inner in [(8, 24), (9, 25), (8, 25), (9, 24)]:
            rng = np.random.default_rng(1234)
            s = random_scheme(rng, max_coupling=0.8)
            w, z, psi = eigen_solution(s, (0, 31), inner, rng)
            worst = max(worst, restriction_residual(w, z, psi))
        assert worst < 1e-8

    def test_tilde_values_parity_record(self):
        rng = np.random.default_rng(4)
        s = random_scheme(rng)
        w = assemble_window(s, (3, 10), random_bc(rng))
        tv = tilde_boundary_values(w, 1.1, 1.0, 0.5, 0.2, 0.1)
        assert tv.parity_a == "odd" and tv.parity_b == "even"
