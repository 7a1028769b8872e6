import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcmv import lyapunov
from skewcmv.cocycle import CocycleError, FactoredProduct, product_batch, scaling_factor, spectral_norms_2x2
from skewcmv.lyapunov import (
    ORBIT_CHUNK,
    PHASE_TILE,
    SamplingConfig,
    _product_tree,
    _u_values,
    avalanche_residual,
    deviation_profile,
    estimate_Ln,
    estimate_Ln_many,
    extrapolate_limit,
    multiscale_residual,
    positivity_margin,
    uniform_bound_check,
)
from skewcmv.model import verblunsky_orbit_batch
from schemes import make_scheme, random_scheme
from test_cocycle import fold_reference, z_values

HALF_LOG3 = 0.5 * np.log(3.0)


TRIG = {(1, 0): 0.5, (0, 1): 0.5}
CONST_HALF = {(0, 0): 5 / 9}  # coupling 0.9 -> lambda * c = 0.5


class TestEstimator:
    def test_zero_coupling_is_exactly_zero(self):
        s = make_scheme(TRIG, 0.0, 0.618)
        for n in (1, 10, 100):
            est = estimate_Ln(s, 1.0, n, SamplingConfig(mode="grid", grid_side=4))
            assert est.mean == 0.0 and est.std_error == 0.0
            est = estimate_Ln(s, -1.0, n, SamplingConfig(mode="grid", grid_side=4))
            assert est.mean == 0.0
        # generic circle points hit the one-ulp floor of log|exp(i theta/2)|
        est = estimate_Ln(s, np.exp(0.3j), 100, SamplingConfig(mode="grid", grid_side=4))
        assert abs(est.mean) < 1e-15

    def test_constant_cocycle_oracle(self):
        s = make_scheme(CONST_HALF, 0.9, 0.37)
        cfg = SamplingConfig(mode="monte-carlo", sample_count=1000, rng_seed=11)
        est = estimate_Ln(s, 1.0, 500, cfg)
        assert abs(est.mean - HALF_LOG3) <= max(3 * est.std_error, 1e-9)

    def test_grid_mode_flags_zero_stderr(self):
        s = make_scheme(TRIG, 0.8, 0.618)
        est = estimate_Ln(s, 1.0, 20, SamplingConfig(mode="grid", grid_side=6))
        assert est.std_error == 0.0 and est.mode == "grid" and est.samples == 36

    def test_determinism_bit_identical(self):
        s = make_scheme(TRIG, 0.9, 0.618)
        cfg = SamplingConfig(mode="monte-carlo", sample_count=200, rng_seed=42)
        a = estimate_Ln(s, np.exp(1.1j), 50, cfg)
        b = estimate_Ln(s, np.exp(1.1j), 50, cfg)
        assert a == b

    def test_doubling_subadditivity(self):
        s = make_scheme(TRIG, 0.9, 0.618)
        cfg = SamplingConfig(mode="monte-carlo", sample_count=600, rng_seed=3)
        m = 40
        e_m = estimate_Ln(s, 1.0, m, cfg)
        e_2m = estimate_Ln(s, 1.0, 2 * m, cfg)
        noise = 3 * (e_m.std_error + e_2m.std_error)
        assert e_2m.mean <= e_m.mean + noise

    def test_expectation_subadditivity_weighted(self):
        s = make_scheme(TRIG, 0.85, 0.317)
        cfg = SamplingConfig(mode="monte-carlo", sample_count=500, rng_seed=8)
        n1, n2 = 30, 50
        e1 = estimate_Ln(s, 1.0, n1, cfg)
        e2 = estimate_Ln(s, 1.0, n2, cfg)
        e12 = estimate_Ln(s, 1.0, n1 + n2, cfg)
        lhs = e12.mean * (n1 + n2)
        rhs = e1.mean * n1 + e2.mean * n2
        noise = 3 * (n1 * e1.std_error + n2 * e2.std_error + (n1 + n2) * e12.std_error)
        assert lhs <= rhs + noise

    def test_many_matches_single(self):
        s = make_scheme(TRIG, 0.9, 0.618)
        cfg = SamplingConfig(mode="grid", grid_side=5)
        zs = [1.0, np.exp(0.9j), np.exp(2.3j)]
        singles = [estimate_Ln(s, z, 25, cfg) for z in zs]
        many = estimate_Ln_many(s, zs, 25, cfg)
        assert singles == many == estimate_Ln(s, zs, 25, cfg) == estimate_Ln(s, np.array(zs), 25, cfg)
        # n = 600 streams three chunks, each shared by every z
        long = [estimate_Ln(s, z, 600, cfg) for z in zs]
        assert estimate_Ln(s, zs, 600, cfg) == long
        # a 0-d numpy complex is a scalar z
        one = estimate_Ln(s, np.complex128(zs[1]), 25, cfg)
        assert one == estimate_Ln(s, np.array(zs[1]), 25, cfg) == singles[1]

    @pytest.mark.parametrize("zs", [[], np.zeros((0,)), [[1.0, 1j]]])
    def test_empty_or_nested_z_rejected(self, zs):
        s = make_scheme(TRIG, 0.9, 0.618)
        with pytest.raises(ValueError, match="1-D"):
            estimate_Ln(s, zs, 10, SamplingConfig(grid_side=2))

    def test_nonnegative_at_positive_coupling_scale(self):
        # not an invariant claimed for the mean in general, but grid means at these
        # couplings are clearly positive
        s = make_scheme(TRIG, 0.9, 0.618)
        est = estimate_Ln(s, 1.0, 100, SamplingConfig(mode="grid", grid_side=8))
        assert est.mean > 0


    @pytest.mark.parametrize("field", ["grid_side", "sample_count"])
    def test_empty_sampling_plan_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            SamplingConfig(**{field: 0})

    @pytest.mark.parametrize(
        "field, value",
        [("grid_side", 2.5), ("grid_side", True), ("grid_side", 3.0), ("sample_count", 64.0), ("sample_count", False),
         ("rng_seed", -1), ("rng_seed", 1.5), ("rng_seed", True), ("rng_seed", "0")],
    )
    def test_non_integer_size_or_negative_seed_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SamplingConfig(**{field: value})

    def test_numpy_integer_sizes_and_seed_accepted(self):
        cfg = SamplingConfig(mode="monte-carlo", grid_side=np.int64(3), sample_count=np.int32(5), rng_seed=np.uint8(2))
        assert len(cfg.phases()) == 5 and len(SamplingConfig(grid_side=np.int64(3)).phases()) == 9

    def test_non_finite_spectral_parameter_rejected(self):
        s = make_scheme(TRIG, 0.9, 0.618)
        with pytest.raises(CocycleError, match="nan"):
            estimate_Ln(s, complex(np.nan, 0.0), 10, SamplingConfig(grid_side=2))


class TestStreaming:
    @staticmethod
    def peak_bytes(n: int, z=np.exp(0.7j), samples: int = 256, cfg=None) -> int:
        s = make_scheme(TRIG, 0.9, 0.618)
        cfg = cfg or SamplingConfig(mode="monte-carlo", sample_count=samples, rng_seed=4)
        tracemalloc.start()
        try:
            estimate_Ln(s, z, n, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_independent_of_orbit_length(self):
        short, long = self.peak_bytes(4 * ORBIT_CHUNK), self.peak_bytes(32 * ORBIT_CHUNK)
        assert long <= 1.25 * short, (short, long)

    def test_batched_memory_independent_of_orbit_length(self):
        zs = np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)
        short, long = self.peak_bytes(4 * ORBIT_CHUNK, zs), self.peak_bytes(32 * ORBIT_CHUNK, zs)
        assert long <= 1.25 * short, (short, long)

    def test_many_z_memory_independent_of_chunk_count(self):
        # localize's reference shape, 512 z over a 12 x 12 grid: continuing the carry must not
        # copy the (Z, S) products once the orbit crosses a chunk boundary
        zs = np.exp(2j * np.pi * (np.arange(512) + 0.5) / 512)
        cfg = SamplingConfig(mode="grid", grid_side=12)
        one, four = self.peak_bytes(ORBIT_CHUNK, zs, cfg=cfg), self.peak_bytes(4 * ORBIT_CHUNK, zs, cfg=cfg)
        assert four - one <= 2**20, (one, four)

    def test_memory_independent_of_sample_count(self):
        short = self.peak_bytes(2 * ORBIT_CHUNK, samples=PHASE_TILE)
        long = self.peak_bytes(2 * ORBIT_CHUNK, samples=8 * PHASE_TILE)
        assert long <= 1.25 * short, (short, long)

    def test_walk_makes_each_cut_when_it_reaches_it(self, monkeypatch):
        # both kernels stubbed: what is left is the walk's own working set, which must not
        # hold the orbit's cuts (2**17 of them at n = 2**23) at any one time
        n, ns = 2**23, (1000, 2**23, 1000, 3 * ORBIT_CHUNK)
        starts, lengths, count = np.empty(n // ORBIT_CHUNK + 8, int), np.empty(n // ORBIT_CHUNK + 8, int), [0]

        def orbit(s, steps, tile, start):
            starts[count[0]], lengths[count[0]] = start, steps
            count[0] += 1
            return start + steps

        monkeypatch.setattr(lyapunov, "verblunsky_orbit_batch", orbit)
        monkeypatch.setattr(lyapunov, "product_batch", lambda end, z, carry: (np.full(1, float(end)),))
        tracemalloc.start()
        try:
            u = _u_values(make_scheme(TRIG, 0.9, 0.618), 1.0, ns, np.array([[0.1, 0.2]]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = sorted({*range(0, n, ORBIT_CHUNK), *(m for m in ns if m < n)})
        assert starts[: count[0]].tolist() == want
        assert (starts[: count[0]] + lengths[: count[0]]).tolist() == want[1:] + [n]
        assert np.array_equal(u, np.ones((len(ns), 1)))
        assert peak < 0.1 * 2**20, peak

    def test_long_orbit_runs(self):
        s = make_scheme(TRIG, 0.9, 0.618)
        est = estimate_Ln(s, 1.0, 100_000, SamplingConfig(mode="monte-carlo", sample_count=16))
        assert np.isfinite(est.mean) and est.mean > 0


class TestTiles:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        chunks=st.integers(0, 2),
        zs=st.lists(z_values, min_size=2, max_size=3),
        data=st.data(),
    )
    def test_tail_tile_and_one_step_chunk(self, seed, chunks, zs, data):
        # a one-phase tail tile meets a one-step last chunk: the n * S == 1 orbit path
        rng = np.random.default_rng(seed)
        s = random_scheme(rng, max_coupling=0.95)
        n, phases = chunks * ORBIT_CHUNK + 1, rng.random((PHASE_TILE + 1, 2))
        u = _u_values(s, np.array(zs), [n], phases)[0]
        alphas = verblunsky_orbit_batch(s, n, phases)
        # fold_reference takes ~60 us a step, so it checks the tile edges and a few drawn phases
        checked = [0, PHASE_TILE - 1, PHASE_TILE] + data.draw(st.lists(st.integers(0, PHASE_TILE), max_size=3))
        for i, z in enumerate(zs):
            assert np.array_equal(u[i], _u_values(s, z, [n], phases)[0])
            assert np.all(np.abs(n * u[i] - product_batch(alphas, z)[0]) <= 1e-12 * n)
            for p in checked:
                assert abs(n * u[i, p] - fold_reference(alphas[:, p], z).log_scale) <= 1e-12 * n

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ns=st.lists(st.integers(1, 4 * ORBIT_CHUNK + 3), min_size=1, max_size=5),
        zs=st.lists(z_values, min_size=1, max_size=2),
    )
    def test_ladder_rows_match_each_n_alone(self, seed, ns, zs):
        # ns unsorted, duplicates allowed; a smaller n off the chunk grid adds a cut below the row's n
        rng = np.random.default_rng(seed)
        s = random_scheme(rng, max_coupling=0.95)
        phases = rng.random((5, 2))
        u = _u_values(s, np.array(zs), ns, phases)
        assert u.shape == (len(ns), len(zs), len(phases))
        for row, n in zip(u, ns):
            alone = _u_values(s, np.array(zs), [n], phases)[0]
            if all(m % ORBIT_CHUNK == 0 for m in ns if m < n):
                assert np.array_equal(row, alone)
            else:
                assert np.all(np.abs(row - alone) <= 1e-12)


class TestDeviationProfile:
    def test_threshold_zero_measures_everything(self):
        s = make_scheme(TRIG, 0.9, 0.618)
        prof = deviation_profile(s, 1.0, 20, [0.0], SamplingConfig(mode="monte-carlo", sample_count=300, rng_seed=5))
        assert prof.measure[0] > 0.99

    def test_uniform_bound_threshold_measures_nothing(self):
        s = make_scheme(TRIG, 0.9, 0.618)
        P = scaling_factor(s, 1.0).value
        prof = deviation_profile(s, 1.0, 20, [2 * P], SamplingConfig(mode="monte-carlo", sample_count=300, rng_seed=5))
        assert prof.measure[0] == 0.0

    def test_monotone_nonincreasing_in_threshold(self):
        s = make_scheme(TRIG, 0.95, 0.618)
        ts = [0.0, 0.01, 0.05, 0.1, 0.5, 1.0]
        prof = deviation_profile(s, 1.0, 30, ts, SamplingConfig(mode="monte-carlo", sample_count=400, rng_seed=9))
        assert all(m2 <= m1 for m1, m2 in zip(prof.measure, prof.measure[1:]))

    def test_unsorted_thresholds_rejected(self):
        s = make_scheme(TRIG, 0.9, 0.618)
        with pytest.raises(ValueError):
            deviation_profile(s, 1.0, 10, [0.5, 0.1], SamplingConfig())

    def test_empty_orbit_rejected(self):
        s = make_scheme(TRIG, 0.9, 0.618)
        with pytest.raises(ValueError, match="n must be"):
            deviation_profile(s, 1.0, 0, [0.1], SamplingConfig(grid_side=2))

    def test_sequence_of_n_equals_separate_calls(self):
        s = make_scheme(TRIG, 0.9, 0.618)
        cfg = SamplingConfig(mode="monte-carlo", sample_count=300, rng_seed=5)
        ns, ts = [128, 64, 200, 64], [0.0, 0.02, 0.1]
        profiles = deviation_profile(s, np.exp(0.4j), ns, ts, cfg)
        assert profiles == [deviation_profile(s, np.exp(0.4j), n, ts, cfg) for n in ns]
        assert deviation_profile(s, 1.0, (30,), ts, cfg) == [deviation_profile(s, 1.0, 30, ts, cfg)]

    def test_qualitative_decay_with_scale(self):
        s = make_scheme(TRIG, 0.95, (np.sqrt(5) - 1) / 2)
        P = scaling_factor(s, 1.0).value
        cfg = SamplingConfig(mode="monte-carlo", sample_count=2000, rng_seed=13)
        measures = [deviation_profile(s, 1.0, n, [0.1 * P], cfg).measure[0] for n in (20, 40, 80)]
        assert measures[2] <= measures[0]


class TestAvalanche:
    def test_commuting_diagonal_exact_zero(self):
        mu = 1e3
        rep = avalanche_residual([np.diag([mu, 1 / mu])] * 10)
        assert rep.residual == 0.0
        assert rep.hypothesis_ok and rep.gap <= 0.5 * np.log(mu) and rep.mu_floor == mu

    def test_identity_fails_hypothesis(self):
        rep = avalanche_residual([np.eye(2)] * 5)
        assert not rep.hypothesis_ok

    def test_random_hyperbolic_battery(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(10, 51))
            mats = []
            for _ in range(n):
                m = 1e4 * rng.uniform(1, 10)
                phi = rng.uniform(-0.3, 0.3)
                c, s = np.cos(phi), np.sin(phi)
                mats.append(np.array([[c, -s], [s, c]]) @ np.diag([m, 1 / m]))
            rep = avalanche_residual(mats)
            assert rep.hypothesis_ok
            assert rep.residual < 10 * rep.n_over_mu

    def test_factored_blocks_cancel_their_log_norms(self):
        rng = np.random.default_rng(8)
        mats = []
        for _ in range(20):
            m, phi = 1e3 * rng.uniform(1, 10), rng.uniform(-0.3, 0.3)
            mats.append(np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]]) @ np.diag([m, 1 / m]))
        raw = avalanche_residual(mats)
        norms = np.array([np.linalg.norm(m, 2) for m in mats])
        # the same unit blocks at norms e^600 times larger, beyond float range as raw matrices
        big = avalanche_residual(np.array(mats) / norms[:, None, None], np.log(norms) + 600.0)
        assert abs(big.residual - raw.residual) <= 1e-12 and abs(big.gap - raw.gap) <= 1e-12
        assert big.mu_floor == pytest.approx(raw.mu_floor * np.exp(600.0), rel=1e-12)
        assert big.hypothesis_ok and raw.hypothesis_ok

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            avalanche_residual([np.eye(2)] * 2)

    @pytest.mark.parametrize("count", range(3, 10))
    def test_product_tree_matches_left_fold(self, count):
        # odd counts carry a block up a level; the left fold composes one block at a time
        rng = np.random.default_rng(count)
        U = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
        U[:, 0] *= 1e3 * rng.uniform(1, 10, size=(count, 1))
        U /= spectral_norms_2x2(U)[:, None, None]
        fold = FactoredProduct(U[0], 0.0)
        for u in U[1:]:
            fold = FactoredProduct(u, 0.0).compose(fold)
        tree = _product_tree(U)
        overwritten = _product_tree(U.copy(), overwrite=True)
        assert overwritten.log_scale == tree.log_scale and np.array_equal(overwritten.matrix, tree.matrix)
        assert abs(tree.log_scale - fold.log_scale) <= 1e-12 * max(1.0, abs(fold.log_scale))
        assert tree.distance(fold) <= 1e-12
        pair_sum = float(np.sum(np.log(spectral_norms_2x2(U[1:] @ U[:-1]))))
        old = abs(fold.log_scale - pair_sum)
        assert abs(avalanche_residual(U, np.zeros(count)).residual - old) <= 1e-12 * max(1.0, old)

    def test_pair_chunks_and_tree_leave_the_blocks_and_match_one_pass(self, monkeypatch):
        # 23 blocks in pair chunks of 5: the last chunk is short, and levels of 11 and 5 carry a block up
        rng = np.random.default_rng(5)
        U = rng.standard_normal((23, 2, 2)) + 1j * rng.standard_normal((23, 2, 2))
        U /= spectral_norms_2x2(U)[:, None, None]
        kept = U.copy()
        whole = avalanche_residual(U, np.ones(23))
        raw = avalanche_residual(3.0 * U)  # raw blocks: the tree takes over their normalized copy
        monkeypatch.setattr(lyapunov, "_PAIR_CHUNK", 5)
        assert avalanche_residual(U, np.ones(23)) == whole
        assert avalanche_residual(3.0 * U) == raw
        assert np.array_equal(U, kept)
        pair_logs = np.log(spectral_norms_2x2(U[1:] @ U[:-1]))
        assert whole.gap == float(np.max(0.0 - pair_logs))

    def test_memory_within_the_blocks(self):
        # the tree's first level and the pair chunks, not a copy of every block or every pair product
        rng = np.random.default_rng(6)
        U = rng.standard_normal((2**18, 2, 2)) + 1j * rng.standard_normal((2**18, 2, 2))
        U /= spectral_norms_2x2(U)[:, None, None]
        log_scales = np.ones(len(U))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            avalanche_residual(U, log_scales)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * U.nbytes, peak / U.nbytes

    def test_memory_of_raw_blocks_is_one_copy(self, monkeypatch):
        # hyperbolic-mode blocks: real, and a strided view, as the avalanche task forms them.  One
        # normalized copy in their own dtype, which the product tree takes over once the pairs are
        # done, their log norms and the pairs' (1.5 times the blocks), and a tree level's norms:
        # 1.77 times.  Norms of every block at once read 2.9 times, a first tree level in a new
        # array 2.5 times.  Small chunks keep the chunks' own temporaries out of the count
        monkeypatch.setattr(lyapunov, "_PAIR_CHUNK", 2**12)
        rng = np.random.default_rng(6)
        m, phi = rng.uniform([1e3, -0.3], [1e4, 0.3], size=(2**18, 2)).T
        c, s = np.cos(phi), np.sin(phi)
        blocks = np.moveaxis(np.array([[c * m, -s / m], [s * m, c / m]]), -1, 0)
        kept = blocks.copy()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rep = avalanche_residual(blocks)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.85 * blocks.nbytes, peak / blocks.nbytes
        assert np.array_equal(blocks, kept)  # the caller's blocks are not normalized in place
        assert rep.mu_floor == float(np.min(spectral_norms_2x2(kept)))


class TestMultiscale:
    def test_zero_coupling_vanishes(self):
        s = make_scheme(TRIG, 0.0, 0.618)
        res = multiscale_residual(s, 1.0, 5, 25, SamplingConfig(mode="grid", grid_side=4))
        assert res.residual == 0.0

    def test_constant_cocycle_vanishes(self):
        s = make_scheme(CONST_HALF, 0.9, 0.37)
        res = multiscale_residual(s, 1.0, 4, 16, SamplingConfig(mode="grid", grid_side=4))
        assert res.residual < 1e-12  # L_n independent of n for the symmetric constant factor

    def test_scale_precondition(self):
        s = make_scheme(TRIG, 0.5, 0.3)
        with pytest.raises(ValueError):
            multiscale_residual(s, 1.0, 10, 50, SamplingConfig())

    def test_trig_scheme_within_fitted_bound(self):
        s = make_scheme(TRIG, 0.95, (np.sqrt(5) - 1) / 2)
        cfg = SamplingConfig(mode="grid", grid_side=16)
        res = multiscale_residual(s, 1.0, 10, 100, cfg)
        P = scaling_factor(s, 1.0).value
        assert res.residual <= 5 * P * 10 / 100


class TestPositivity:
    def test_bound_value_at_high_coupling(self):
        s = make_scheme(TRIG, 0.99, 0.618)
        pm = positivity_margin(s, 1.0, 10, SamplingConfig(mode="grid", grid_side=4))
        assert pm.bound == pytest.approx(-0.25 * np.log(1 - 0.99**2), rel=1e-12)
        assert pm.bound == pytest.approx(0.9793, abs=1e-4)

    def test_bound_degenerate_at_zero_coupling(self):
        s = make_scheme(TRIG, 0.0, 0.618)
        pm = positivity_margin(s, 1.0, 10, SamplingConfig(mode="grid", grid_side=4))
        assert pm.bound == 0.0 and pm.margin == 0.0


class TestUniformBound:
    def test_zero_coupling(self):
        s = make_scheme(TRIG, 0.0, 0.618)
        rep = uniform_bound_check(s, 1.0, 10, 100, 8)
        assert rep.max_over_grid == 0.0 and rep.holds

    def test_constant_sampler_phase_independent(self):
        s = make_scheme(CONST_HALF, 0.9, 0.37)
        rep = uniform_bound_check(s, 1.0, 20, 200, 8)
        assert rep.max_over_grid == pytest.approx(rep.at_n0.mean, abs=1e-12)
        assert rep.holds

    def test_trig_scheme_grid(self):
        s = make_scheme(TRIG, 0.9, (np.sqrt(5) - 1) / 2)
        rep = uniform_bound_check(s, 1.0, 50, 500, 16, sigma0=0.5)
        assert rep.holds

    def test_scale_order_enforced(self):
        s = make_scheme(TRIG, 0.5, 0.3)
        with pytest.raises(ValueError):
            uniform_bound_check(s, 1.0, 100, 50, 8)


class TestExtrapolation:
    def test_constant_cocycle_recovers_limit(self):
        s = make_scheme(CONST_HALF, 0.9, 0.37)
        cfg = SamplingConfig(mode="grid", grid_side=3)
        e1 = estimate_Ln(s, 1.0, 50, cfg)
        e2 = estimate_Ln(s, 1.0, 100, cfg)
        L, C = extrapolate_limit(e1, e2)
        assert L == pytest.approx(HALF_LOG3, abs=1e-10)
        assert abs(C) < 1e-7

    def test_equal_scales_rejected(self):
        s = make_scheme(CONST_HALF, 0.9, 0.37)
        cfg = SamplingConfig(mode="grid", grid_side=3)
        e = estimate_Ln(s, 1.0, 50, cfg)
        with pytest.raises(ValueError):
            extrapolate_limit(e, e)
