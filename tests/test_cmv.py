import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewcmv.cmv import (
    BoundaryPair,
    CoefficientError,
    assemble_window,
    char_poly,
    _lm_dot,
    scheme_submatrix,
    theta_block,
)
from skewcmv.model import verblunsky_range
from schemes import make_scheme, random_scheme


def dense_lm(alpha_of, lo, hi):
    """Reference: dense L, M over lattice sites [lo, hi] from the lookup alpha_of(n), one theta_block per site.

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
            for dj in (0, 1):
                i, j = n + di - lo, n + dj - lo
                if 0 <= i < size and 0 <= j < size:
                    tgt[i, j] = th[di, dj]
    return L, M


def padded_product(alpha_of, a, b):
    """Reference: the submatrix over [a, b] of the infinite product L M, as a dense product padded by one site."""
    Lp, Mp = dense_lm(alpha_of, a - 1, b + 1)
    return (Lp @ Mp)[1:-1, 1:-1]


def lookup(values, lo, substitutions):
    """alpha_of(n): substitutions first, then values[n - lo] on the stored sites, 0 elsewhere."""
    def alpha_of(n):
        if n in substitutions:
            return substitutions[n]
        return values[n - lo] if lo <= n < lo + len(values) else 0.0
    return alpha_of


def random_window(rng, s, min_size=8, max_size=128):
    size = int(rng.integers(min_size, max_size + 1))
    a = int(rng.integers(-4, 5))
    bc = BoundaryPair(np.exp(2j * np.pi * rng.random()), np.exp(2j * np.pi * rng.random()))
    return assemble_window(s, (a, a + size - 1), bc)


class TestThetaBlock:
    def test_free_case_is_swap(self):
        assert np.array_equal(theta_block(0.0), np.array([[0, 1], [1, 0]], dtype=complex))

    def test_decoupling_value(self):
        assert np.array_equal(theta_block(1.0), np.array([[1, 0], [0, -1]], dtype=complex))

    def test_unitary_at_interior_coefficient(self):
        th = theta_block(0.7 * np.exp(0.9j))
        assert np.max(np.abs(th.conj().T @ th - np.eye(2))) < 1e-14

    def test_rejects_outside_disk(self):
        with pytest.raises(CoefficientError):
            theta_block(1.0 + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(0, 1), phi=st.floats(0, 2 * np.pi))
    def test_unitary_property(self, r, phi):
        th = theta_block(r * np.exp(1j * phi))
        assert np.max(np.abs(th.conj().T @ th - np.eye(2))) < 1e-12


class TestWindowAssembly:
    def test_free_window_is_signed_permutation(self):
        s = make_scheme({(1, 0): 0.5}, 0.0, 0.3)
        w = assemble_window(s, (0, 3), BoundaryPair(1.0, 1.0))
        # alpha = 0 everywhere, alpha_{-1} = alpha_3 = 1: mapping worked out by hand
        want = np.zeros((4, 4), dtype=complex)
        want[1, 0] = -1.0  # E delta_0 = -delta_1
        want[3, 1] = 1.0   # E delta_1 = +delta_3
        want[0, 2] = 1.0   # E delta_2 = +delta_0
        want[2, 3] = 1.0   # E delta_3 = +delta_2
        assert np.array_equal(w.matrix, want)
        assert np.max(np.abs(w.matrix.conj().T @ w.matrix - np.eye(4))) == 0.0

    def test_unitarity_battery(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            s = random_scheme(rng, max_coupling=0.92)
            w = random_window(rng, s, 8, 96)
            E, L, M = w.matrix, w.L, w.M
            eye = np.eye(w.size)
            assert np.max(np.abs(E.conj().T @ E - eye)) < 1e-12
            assert np.max(np.abs(E @ E.conj().T - eye)) < 1e-12
            assert np.max(np.abs(L @ M - E)) < 1e-13
            assert np.max(np.abs(L.conj().T @ L - eye)) < 1e-12
            assert np.max(np.abs(M.conj().T @ M - eye)) < 1e-12
            assert abs(abs(np.linalg.det(E)) - 1.0) < 1e-10

    def test_pentadiagonal_entries_exactly_zero(self):
        rng = np.random.default_rng(3)
        s = random_scheme(rng, max_coupling=0.92)
        w = random_window(rng, s, 12, 24)
        for i in range(w.size):
            for j in range(w.size):
                if abs(i - j) > 2:
                    assert w.matrix[i, j] == 0.0

    def test_row_zero_entry_three_is_zero(self):
        s = make_scheme({(1, 0): 0.4, (0, 1): 0.3}, 0.8, 0.43)
        w = assemble_window(s, (0, 9), BoundaryPair(np.exp(1j), np.exp(2j)))
        assert w.matrix[0, 3] == 0.0

    def test_half_line_rows_match_reference_pattern(self):
        # window [0, 4] with beta = -1 reproduces the half-line operator's rows 0..3,
        # which involve only alpha_0..alpha_3
        s = make_scheme({(1, 0): 0.45, (0, 1): 0.35, (1, 1): 0.1}, 0.9, 0.371, base=(0.21, 0.56))
        w = assemble_window(s, (0, 4), BoundaryPair(-1.0, np.exp(0.3j)))
        a = verblunsky_range(s, 0, 4)
        r = np.sqrt(1 - np.abs(a) ** 2)
        want = np.array(
            [
                [np.conj(a[0]), np.conj(a[1]) * r[0], r[1] * r[0], 0, 0],
                [r[0], -np.conj(a[1]) * a[0], -r[1] * a[0], 0, 0],
                [0, np.conj(a[2]) * r[1], -np.conj(a[2]) * a[1], np.conj(a[3]) * r[2], r[3] * r[2]],
                [0, r[2] * r[1], -r[2] * a[1], -np.conj(a[3]) * a[2], -r[3] * a[2]],
            ],
            dtype=complex,
        )
        assert np.max(np.abs(w.matrix[:4, :] - want)) < 1e-15

    def test_odd_left_edge_matches_infinite_volume(self):
        # the window starting at odd a must be the literal submatrix of a larger window
        s = make_scheme({(1, 0): 0.5, (0, 1): 0.4}, 0.85, 0.619, base=(0.05, 0.77))
        bc = BoundaryPair(np.exp(0.7j), np.exp(-0.2j))
        big = assemble_window(s, (-3, 12), bc)
        inner = assemble_window(s, (1, 8), BoundaryPair(np.exp(0.5j), np.exp(1.1j)))
        # interior entries (away from both boundaries) agree with the big window's
        sub = big.matrix[4:12, 4:12]  # lattice sites 1..8 inside big
        mask = np.ones((8, 8), dtype=bool)
        mask[:2, :] = mask[:, :2] = mask[-2:, :] = mask[:, -2:] = False
        assert np.max(np.abs((inner.matrix - sub)[mask])) < 1e-15

    def test_non_unimodular_boundary_flagged(self):
        s = make_scheme({(1, 0): 0.5}, 0.5, 0.3)
        w = assemble_window(s, (0, 7), BoundaryPair(0.5, 1.0))
        assert not w.unimodular

    def test_size_one_rejected(self):
        s = make_scheme({(1, 0): 0.5}, 0.5, 0.3)
        with pytest.raises(ValueError):
            assemble_window(s, (3, 3), BoundaryPair(1.0, 1.0))


class TestBuilderAgainstDenseReference:
    """The builder against the dense L M product it replaced, to rounding (<= 1e-15)."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        a=st.integers(-6, 6),
        size=st.integers(2, 128),
        radii=st.tuples(st.just(1.0) | st.floats(0.0, 1.0), st.just(1.0) | st.floats(0.0, 1.0)),
        site=st.integers(-1, 128),
    )
    @example(seed=0, a=-3, size=2, radii=(1.0, 1.0), site=0)     # odd a, even b
    @example(seed=1, a=5, size=9, radii=(0.3, 1.0), site=-1)     # odd a, odd b, non-unimodular
    @example(seed=2, a=-4, size=3, radii=(1.0, 0.0), site=3)     # even a, even b
    @example(seed=3, a=2, size=128, radii=(0.7, 0.2), site=127)  # even a, odd b
    def test_matches_padded_dense_product(self, seed, a, size, radii, site):
        rng = np.random.default_rng(seed)
        s = random_scheme(rng, max_coupling=0.92)
        b = a + size - 1
        beta, gamma = (r * np.exp(2j * np.pi * rng.random()) for r in radii)
        w = assemble_window(s, (a, b), BoundaryPair(beta, gamma))
        alpha_of = lookup(verblunsky_range(s, a - 1, b), a - 1, {a - 1: w.beta, b: w.gamma})
        L, M = dense_lm(alpha_of, a, b)
        assert np.max(np.abs(w.matrix - padded_product(alpha_of, a, b))) <= 1e-15
        assert np.max(np.abs(w.L - L)) <= 1e-15
        assert np.max(np.abs(w.M - M)) <= 1e-15
        i, j = np.indices(w.matrix.shape)
        assert np.all(w.matrix[np.abs(i - j) > 2] == 0.0)
        X = rng.standard_normal((size, 3)) + 1j * rng.standard_normal((size, 3))
        assert np.max(np.abs(_lm_dot(w.lm, X) - w.matrix @ X)) <= 1e-14

        # a raw submatrix with one interior or cut site substituted, plus one site that never enters
        subs = {a - 1 + site % (size + 1): 0.6 * np.exp(1j * site), b + 5: 0.1}
        raw = lookup(verblunsky_range(s, a - 2, b + 1), a - 2, subs)
        E = scheme_submatrix(s, a, b, subs)
        assert np.max(np.abs(E - padded_product(raw, a, b))) <= 1e-15
        assert np.all(E[np.abs(i - j) > 2] == 0.0)

    @pytest.mark.parametrize("site", [-1, 3, 7])  # the left cut, an interior site, the right cut of [0, 7]
    def test_substituted_coefficient_outside_disk_rejected(self, site):
        s = make_scheme({(1, 0): 0.5}, 0.5, 0.3)
        with pytest.raises(CoefficientError):
            scheme_submatrix(s, 0, 7, {site: (1.0 + 1e-15) * np.exp(0.4j)})
        scheme_submatrix(s, 0, 7, {site: np.exp(0.4j)})  # the unit circle itself is allowed


class TestCharPoly:
    def test_free_window_unimodular_determinant(self):
        s = make_scheme({(1, 0): 0.5}, 0.0, 0.3)
        w = assemble_window(s, (0, 5), BoundaryPair(1.0, -1.0))
        cp = char_poly(w, 0.0)
        assert abs(abs(cp.Phi) - 1.0) < 1e-12  # det(-E) for unitary E

    def test_eigenvalue_product_oracle(self):
        rng = np.random.default_rng(9)
        s = random_scheme(rng, max_coupling=0.92)
        w = random_window(rng, s, 8, 8)
        z = 1.3 * np.exp(0.9j)
        eigs = np.linalg.eigvals(w.matrix)
        want = np.prod(z - eigs)
        cp = char_poly(w, z)
        assert cp.Phi == pytest.approx(want, rel=1e-8)

    def test_phi_normalization(self):
        rng = np.random.default_rng(10)
        s = random_scheme(rng, max_coupling=0.92)
        w = random_window(rng, s, 6, 6)
        cp = char_poly(w, 2.0)
        rho_prod = np.prod([w.raw_rho(n) for n in range(w.a, w.b + 1)])
        assert cp.phi * rho_prod == pytest.approx(cp.Phi, rel=1e-12)

    def test_monic_leading_behavior(self):
        s = make_scheme({(1, 0): 0.5}, 0.6, 0.37)
        w = assemble_window(s, (0, 4), BoundaryPair(1.0, 1.0))
        big = 1e6
        cp = char_poly(w, big)
        assert abs(cp.Phi) == pytest.approx(big**5, rel=1e-4)
