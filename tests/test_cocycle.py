import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcmv import cocycle
from skewcmv.cocycle import (
    LANE_BLOCK,
    RENORM_STEPS,
    SL2R_CONJUGATOR,
    CocycleError,
    ConjugationError,
    FactoredProduct,
    circle_sqrt,
    product_batch,
    scaling_factor,
    sl2r_conjugate,
    spectral_norms_2x2,
    szego_matrix,
    transfer_product,
    transfer_via_determinants,
)
from skewcmv.model import orbit_point, verblunsky_orbit_batch
from schemes import make_scheme, random_scheme


class TestSzegoMatrix:
    def test_free_at_one_is_identity(self):
        assert np.max(np.abs(szego_matrix(0.0, 1.0) - np.eye(2))) == 0.0

    def test_branch_convention_at_minus_one(self):
        m = szego_matrix(0.0, -1.0)
        assert np.max(np.abs(m - np.diag([1j, -1j]))) < 1e-15

    def test_half_coefficient_example(self):
        m = szego_matrix(0.5, 1.0)
        want = np.array([[1.0, -0.5], [-0.5, 1.0]]) / np.sqrt(0.75)
        assert np.max(np.abs(m - want)) < 1e-15
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-14)

    def test_determinant_one_generic(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = 0.97 * rng.random() * np.exp(2j * np.pi * rng.random())
            z = np.exp(2j * np.pi * rng.random())
            assert np.linalg.det(szego_matrix(a, z)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_boundary_coefficient(self):
        with pytest.raises(CocycleError):
            szego_matrix(1.0, 1.0)

    def test_principal_branch_range(self):
        for theta in (0.1, 1.5, np.pi, 4.0, 6.2):
            s = circle_sqrt(np.exp(1j * theta))
            half = np.angle(s)
            assert -1e-12 <= half <= np.pi + 1e-12  # theta/2 in [0, pi)


class TestTransferProduct:
    def test_free_case(self):
        s = make_scheme({(1, 0): 0.5}, 0.0, 0.37)
        fp = transfer_product(s, 10, 1.0)
        assert fp.log_scale == 0.0
        assert np.max(np.abs(fp.matrix - np.eye(2))) == 0.0

    def test_single_factor_matches_szego(self):
        s = make_scheme({(1, 0): 0.5, (0, 1): 0.3}, 0.8, 0.41, base=(0.2, 0.7))
        z = np.exp(0.9j)
        m = szego_matrix(s.alpha_at(0), z)
        fp = transfer_product(s, 1, z)
        nrm = float(spectral_norms_2x2(m))
        assert fp.log_scale == pytest.approx(np.log(nrm), abs=1e-12)
        assert np.max(np.abs(fp.value() - m)) < 1e-12

    def test_constant_sampler_growth_rate(self):
        # alpha == 5/9 at coupling 0.9 gives lambda*c = 0.5; the top eigenvalue of the
        # constant factor is (1 + 0.5)/sqrt(0.75) = sqrt(3)
        s = make_scheme({(0, 0): 5 / 9}, 0.9, 0.123, base=(0.6, 0.1))
        fp = transfer_product(s, 200, 1.0)
        assert fp.log_scale / 200 == pytest.approx(0.5 * np.log(3.0), abs=2e-3)

    def test_ordering_leftmost_is_last_factor(self):
        s = make_scheme({(1, 0): 0.5, (0, 1): 0.2}, 0.7, 0.3, base=(0.15, 0.85))
        z = np.exp(0.4j)
        direct = szego_matrix(s.alpha_at(2), z) @ szego_matrix(s.alpha_at(1), z) @ szego_matrix(s.alpha_at(0), z)
        fp = transfer_product(s, 3, z)
        assert np.max(np.abs(fp.value() - direct)) < 1e-12

    def test_determinant_preserved_long_products(self):
        # det(value()) is formed from entries of size e^{log_scale}, so it resolves the
        # determinant only on short products: by n = 20 its rounding can exceed 1
        rng = np.random.default_rng(17)
        for _ in range(20):
            s = random_scheme(rng)
            z = np.exp(2j * np.pi * rng.random())
            for n in (1, 2, 4, 8):
                assert abs(np.linalg.det(transfer_product(s, n, z).value()) - 1.0) < 1e-6

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            s = random_scheme(rng)
            fp = transfer_product(s, int(rng.integers(1, 400)), np.exp(2j * np.pi * rng.random()))
            assert abs(float(spectral_norms_2x2(fp.matrix)) - 1.0) < 1e-12

    def test_cocycle_composition_law(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            s = random_scheme(rng)
            z = np.exp(2j * np.pi * rng.random())
            n1 = int(rng.integers(1, 120))
            n2 = int(rng.integers(1, 120))
            shifted = orbit_point(s.base, s.frequency, n1)
            left = transfer_product(s, n2, z, base=np.array([shifted.x, shifted.y]))
            right = transfer_product(s, n1, z)
            assert left.compose(right).distance(transfer_product(s, n1 + n2, z)) < 1e-8

    def test_norm_bounded_by_scaling_factor(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            s = random_scheme(rng)
            z = np.exp(2j * np.pi * rng.random())
            P = scaling_factor(s, z).value
            n = int(rng.integers(1, 1000))
            fp = transfer_product(s, n, z)
            assert fp.log_scale / n <= P + 1e-12


def fold_reference(alphas, z) -> FactoredProduct:
    """Left fold of FactoredProduct.compose over the per-step Szego factors."""
    acc = None
    for a in alphas:
        m = szego_matrix(a, z)
        nrm = float(spectral_norms_2x2(m))
        step = FactoredProduct(m / nrm, float(np.log(nrm)))
        acc = step if acc is None else step.compose(acc)
    return acc


def streamed(alphas, z, cuts):
    """product_batch over the chunks alphas[c_i:c_{i+1}], continuing the carry."""
    carry = None
    edges = [0, *sorted(cuts), len(alphas)]
    for lo, hi in zip(edges, edges[1:]):
        carry = product_batch(alphas[lo:hi], z, carry=carry)
    return carry


z_values = st.builds(
    lambda r, theta: r * np.exp(1j * theta),
    st.sampled_from([1.0, 1.0, 0.5, 1.7]) | st.floats(0.3, 3.0),
    st.floats(0.0, 2 * np.pi),
)


class TestStreamedKernel:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 200),
        S=st.integers(512, 3000),
        zs=st.lists(z_values, min_size=2, max_size=7),
    )
    def test_batched_row_is_bit_identical_to_single(self, seed, n, S, zs):
        rng = np.random.default_rng(seed)
        alphas = 0.97 * np.sqrt(rng.random((n, S))) * np.exp(2j * np.pi * rng.random((n, S)))
        zs = zs + [zs[0]] * (-(-(LANE_BLOCK + 1) // S) - len(zs))  # Z * S > one lane block
        ls, B = product_batch(alphas, np.array(zs))
        assert ls.shape == (len(zs), S) and B.shape == (len(zs), S, 2, 2)
        for i, z in enumerate(zs):
            one = product_batch(alphas, z)
            assert np.array_equal(one[0], ls[i])
            assert np.array_equal(one[1], B[i])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), z=z_values, data=st.data())
    def test_streamed_chunks_match_compose_fold(self, seed, n, z, data):
        s = random_scheme(np.random.default_rng(seed), max_coupling=0.95)
        alphas = verblunsky_orbit_batch(s, n, np.array([[s.base.x, s.base.y]]))
        cuts = data.draw(st.lists(st.integers(0, n), max_size=4))
        ls, B = streamed(alphas, z, cuts)
        ref = fold_reference(alphas[:, 0], z)
        got = FactoredProduct(B[0], float(ls[0]))
        assert abs(got.log_scale - ref.log_scale) <= 1e-12 * n
        assert got.distance(ref) < 1e-9

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3 * RENORM_STEPS + 5), z=z_values, data=st.data())
    def test_cuts_on_the_renorm_cadence_match_one_call(self, seed, n, z, data):
        rng = np.random.default_rng(seed)
        alphas = verblunsky_orbit_batch(random_scheme(rng, max_coupling=0.95), n, rng.random((64, 2)))
        cuts = data.draw(st.lists(st.integers(0, n // RENORM_STEPS).map(lambda c: c * RENORM_STEPS), max_size=3))
        ls, B = streamed(alphas, z, cuts)
        one = product_batch(alphas, z)
        assert np.array_equal(B, one[1])
        assert np.all(np.abs(ls - one[0]) <= 1e-13 * n)

    def test_grow_then_shrink_product_streams_as_one_call(self):
        # log ||M_j|| climbs to 55.7 at j = 113, then falls to 49.9 at n = 129: a rounding
        # at j = 64 or 128 moves log ||M_n|| by ~2e-10 once it is amplified
        rng = np.random.default_rng(428382)
        s = random_scheme(rng, max_coupling=0.95)
        n, z = 2 * RENORM_STEPS + 1, np.exp(0.5005991570963576j)
        alphas = verblunsky_orbit_batch(s, n, rng.random((1025, 2))[900:901])
        ls, B = streamed(alphas, z, [RENORM_STEPS, 2 * RENORM_STEPS])
        one = product_batch(alphas, z)
        assert np.array_equal(B, one[1]) and abs(ls[0] - one[0][0]) <= 1e-13 * n

    @settings(max_examples=6, deadline=None)
    @given(r=st.sampled_from([1 / 1.5, 1.5]), theta=st.floats(0.0, 2 * np.pi))
    def test_extreme_coupling_stays_finite(self, r, theta):
        # |alpha| == lambda * sup|f| = 0.999 on every step
        s = make_scheme({(1, 0): 1.0}, 0.999, 0.618033988749895, base=(0.3, 0.7))
        z, n = r * np.exp(1j * theta), 2000
        alphas = verblunsky_orbit_batch(s, n, np.array([[0.3, 0.7]]))
        ls, B = streamed(alphas, z, range(256, n, 256))
        assert np.all(np.isfinite(ls)) and np.all(np.isfinite(B))
        ref = fold_reference(alphas[:, 0], z)
        got = FactoredProduct(B[0], float(ls[0]))
        assert abs(got.log_scale - ref.log_scale) <= 1e-12 * n
        assert got.distance(ref) < 1e-9

    @pytest.mark.parametrize("r", [1e300, 1e-300])
    def test_extreme_spectral_parameter_stays_finite(self, r):
        # one step grows by |z|^(1/2) = 1e150 here, unless D is divided by its norm
        rng = np.random.default_rng(5)
        alphas = 0.9 * np.sqrt(rng.random((200, 16))) * np.exp(2j * np.pi * rng.random((200, 16)))
        ls, B = streamed(alphas, r * np.exp(0.3j), [64, 128])
        assert np.all(np.isfinite(ls)) and np.all(np.isfinite(B))
        # the 1/sqrt z (or sqrt z) column dies out: ||M_n|| = |z|^(n/2) sqrt(1 + |alpha_{n-1}|^2) / prod rho
        rho = np.sqrt(1.0 - np.abs(alphas) ** 2)
        expected = 100 * abs(np.log(r)) - np.log(rho).sum(axis=0) + 0.5 * np.log1p(np.abs(alphas[-1]) ** 2)
        assert np.max(np.abs(ls - expected) / expected) <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_rejects_bad_spectral_parameter(self, bad):
        alphas = np.full((3, 2), 0.5)
        for z in (bad, [1.0, bad]):
            with pytest.raises(CocycleError, match="z = "):
                product_batch(alphas, z)

    def test_carry_is_continued_in_place(self):
        rng = np.random.default_rng(6)
        alphas = 0.9 * np.sqrt(rng.random((40, 5))) * np.exp(2j * np.pi * rng.random((40, 5)))
        for z in (np.exp(0.4j), np.array([0.5, 2.0j, np.exp(1.3j)])):
            carry = product_batch(alphas[:25], z)
            ls, B = product_batch(alphas[25:], z, carry=carry)
            assert np.shares_memory(ls, carry[0]) and np.shares_memory(B, carry[1])
            assert np.array_equal(ls, carry[0]) and np.array_equal(B, carry[1])  # the caller's result is updated
            last_ls, last_B = (ls, B) if np.ndim(z) == 0 else (ls[-1], B[-1])
            ref = fold_reference(alphas[:, 0], np.reshape(z, -1)[-1])
            assert FactoredProduct(last_B[0], float(last_ls[0])).distance(ref) < 1e-9

    def test_rejects_boundary_coefficients(self):
        with pytest.raises(CocycleError):
            product_batch(np.array([[0.5, 1.0]]), 1.0)


def su11_form(B) -> bool:
    """Every lane of B has exactly the form [[a, conj d], [d, conj a]]."""
    return np.array_equal(B[..., 1, 1], B[..., 0, 0].conj()) and np.array_equal(B[..., 0, 1], B[..., 1, 0].conj())


class TestCircleStep:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), theta=st.floats(0.0, 2 * np.pi), data=st.data())
    def test_circle_rows_match_the_fold(self, seed, n, theta, data):
        rng = np.random.default_rng(seed)
        s = random_scheme(rng, max_coupling=0.97)
        z = np.exp(1j * theta)
        alphas = verblunsky_orbit_batch(s, n, rng.random((3, 2)))
        ls, B = streamed(alphas, z, data.draw(st.lists(st.integers(0, n), max_size=3)))
        assert su11_form(B)  # the one-column step rebuilt B from its first column
        for k in range(3):
            ref = fold_reference(alphas[:, k], z)
            got = FactoredProduct(B[k], float(ls[k]))
            assert abs(got.log_scale - ref.log_scale) <= 1e-12 * n
            assert got.distance(ref) < 1e-9

    def test_off_circle_carry_takes_the_two_column_step(self, monkeypatch):
        # row 0 continues a product taken at |z| = 1.3, row 1 one taken on the circle
        rng = np.random.default_rng(11)
        alphas = verblunsky_orbit_batch(random_scheme(rng, max_coupling=0.95), 150, rng.random((4, 2)))
        z_off, z_on = 1.3 * np.exp(0.4j), np.exp(1.1j)
        carry = product_batch(alphas[:70], np.array([z_off, z_on]))
        assert not su11_form(carry[1][0]) and su11_form(carry[1][1])
        rows, one_column = [], cocycle._one_column_steps  # the row count of each one-column block
        monkeypatch.setattr(cocycle, "_one_column_steps", lambda V, *a: rows.append(V.shape[1]) or one_column(V, *a))
        ls, B = product_batch(alphas[70:], np.array([z_on, z_on]), carry=carry)
        assert rows == [1] and su11_form(B[1]) and not su11_form(B[0])
        for i, z_first in enumerate((z_off, z_on)):
            for k in range(4):
                ref = fold_reference(alphas[70:, k], z_on).compose(fold_reference(alphas[:70, k], z_first))
                got = FactoredProduct(B[i, k], float(ls[i, k]))
                assert abs(got.log_scale - ref.log_scale) <= 1e-12 * 150
                assert got.distance(ref) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 2 * RENORM_STEPS + 3),
        Z=st.integers(2, 5),
        S=st.integers(1, 5),
        data=st.data(),
    )
    def test_lone_lane_is_bit_identical_to_its_batch(self, seed, n, Z, S, data):
        # numpy multiplies a one-element array in place by an unfused loop, so Z = S = 1 is its own case.
        # A lane's B is elementwise; its log scale sums log rho down a column, which rounds as a
        # contiguous column only when S = 1, so it is bit-identical across z rows, not across phases
        rng = np.random.default_rng(seed)
        alphas = 0.97 * np.sqrt(rng.random((n, S))) * np.exp(2j * np.pi * rng.random((n, S)))
        zs = np.exp(2j * np.pi * rng.random(Z))
        ls, B = product_batch(alphas, zs)
        i, k = data.draw(st.integers(0, Z - 1)), data.draw(st.integers(0, S - 1))
        one_ls, one_B = product_batch(alphas[:, k : k + 1], zs[i])
        assert np.array_equal(one_B[0], B[i, k])
        assert one_ls[0] == product_batch(alphas[:, k : k + 1], zs)[0][i, 0]


class TestSL2RConjugation:
    def test_identity_fixed(self):
        assert np.max(np.abs(sl2r_conjugate(np.eye(2)) - np.eye(2))) < 1e-14

    def test_conjugator_unitary(self):
        Q = SL2R_CONJUGATOR
        assert np.max(np.abs(Q.conj().T @ Q - np.eye(2))) < 1e-15

    def test_real_symmetric_for_real_coefficient(self):
        m = szego_matrix(0.5, 1.0)
        A = sl2r_conjugate(m)
        assert np.max(np.abs(A - A.T)) < 1e-12
        assert float(spectral_norms_2x2(A)) == pytest.approx(1.5 / np.sqrt(0.75), abs=1e-12)

    def test_norms_and_determinant_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = 0.95 * rng.random() * np.exp(2j * np.pi * rng.random())
            z = np.exp(2j * np.pi * rng.random())
            m = szego_matrix(a, z)
            A = sl2r_conjugate(m)
            sv_m = np.linalg.svd(m, compute_uv=False)
            sv_A = np.linalg.svd(A, compute_uv=False)
            assert np.max(np.abs(sv_m - sv_A)) < 1e-12
            assert np.linalg.det(A) == pytest.approx(1.0, abs=1e-10)

    def test_products_stay_real(self):
        s = make_scheme({(1, 0): 0.5, (0, 1): 0.3}, 0.9, 0.618, base=(0.1, 0.2))
        fp = transfer_product(s, 50, np.exp(1.1j))
        A = sl2r_conjugate(fp.matrix)  # the unit-norm factor is in the same group
        assert A.shape == (2, 2)

    def test_rejects_off_family_input(self):
        with pytest.raises(ConjugationError):
            sl2r_conjugate(np.array([[2.0, 1.0], [0.0, 0.5]]))


class TestScalingFactor:
    def test_zero_coupling_components(self):
        s = make_scheme({(1, 0): 0.25, (0, 1): 0.25}, 0.0, 0.3)
        sf = scaling_factor(s, 1.0)
        assert sf.sup_inv_rho == 1.0
        assert sf.coupling_term == 1.0
        assert sf.abs_z == 1.0
        assert sf.value == pytest.approx(np.log(3.0 + sf.c_alpha), abs=1e-12)
        assert sf.value >= 1.0

    def test_strip_bound_arithmetic(self):
        s = make_scheme({(1, 0): 0.5, (0, 1): 0.5}, 0.5, 0.3)
        sf = scaling_factor(s, 1.0)
        assert sf.c_alpha == pytest.approx(np.exp(np.pi), rel=1e-12)

    def test_monotone_in_coupling(self):
        lo = scaling_factor(make_scheme({(1, 0): 0.5, (0, 1): 0.5}, 0.9, 0.3), 1.0)
        hi = scaling_factor(make_scheme({(1, 0): 0.5, (0, 1): 0.5}, 0.99, 0.3), 1.0)
        assert lo.value < hi.value


class TestDeterminantRoute:
    def test_free_case_identity_up_to_sign(self):
        s = make_scheme({(1, 0): 0.5}, 0.0, 0.3)
        md = transfer_via_determinants(s, 2, 1.0)
        assert min(np.max(np.abs(md - np.eye(2))), np.max(np.abs(md + np.eye(2)))) < 1e-12

    def test_two_step_symbolic_entry(self):
        # (1,1) entry of M_2 equals z (z + conj(a1) a0) / (rho0 rho1 sqrt(z)^2)
        s = make_scheme({(1, 0): 0.4, (0, 1): 0.3}, 0.8, 0.27, base=(0.35, 0.65))
        z = np.exp(0.7j)
        a0, a1 = s.alpha_at(0), s.alpha_at(1)
        r0, r1 = np.sqrt(1 - abs(a0) ** 2), np.sqrt(1 - abs(a1) ** 2)
        md = transfer_via_determinants(s, 2, z)
        want = z * (z + np.conj(a1) * a0) / (r0 * r1 * circle_sqrt(z) ** 2)
        assert md[0, 0] == pytest.approx(want, rel=1e-12)

    def test_matches_product_route(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            s = random_scheme(rng)
            n = int(rng.integers(2, 13))
            z = np.exp(2j * np.pi * rng.random())
            md = transfer_via_determinants(s, n, z)
            direct = transfer_product(s, n, z).value()
            scale = np.max(np.abs(direct))
            rel = min(np.max(np.abs(md - direct)), np.max(np.abs(md + direct))) / scale
            assert rel < 1e-8

    def test_requires_circle(self):
        s = make_scheme({(1, 0): 0.5}, 0.5, 0.3)
        with pytest.raises(CocycleError):
            transfer_via_determinants(s, 4, 1.2)
