import cmath
import json
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewcmv import model
from skewcmv.cli import config_from_doc, run
from skewcmv.cmv import BoundaryPair, assemble_window
from skewcmv.cocycle import scaling_factor
from skewcmv.localization import finite_size_drift
from skewcmv.lyapunov import SamplingConfig
from skewcmv.model import (
    DiophantineCertificate,
    Frequency,
    Phase,
    SchemeError,
    TrigPolynomial,
    VerblunskyScheme,
    diophantine_margin,
    orbit_point,
    orbit_points,
    scheme_from_json,
    scheme_hash,
    scheme_to_json,
    skew_shift_orbit,
    skew_shift_step,
    verblunsky_at,
    verblunsky_orbit_batch,
    verblunsky_range,
)
from schemes import make_scheme


class TestSkewShift:
    def test_step_zero_phase(self):
        q = skew_shift_step(Phase(0.0, 0.0), Frequency(0.5))
        assert (q.x, q.y) == (0.0, 0.5)

    def test_step_direct_arithmetic(self):
        q = skew_shift_step(Phase(0.25, 0.5), Frequency(0.25))
        assert (q.x, q.y) == (0.75, 0.75)

    def test_two_steps_closed_form(self):
        x, y, om = 0.3, 0.7, 0.11
        q = skew_shift_step(skew_shift_step(Phase(x, y), Frequency(om)), Frequency(om))
        assert q.x == pytest.approx((x + 2 * y + om) % 1.0, abs=1e-14)
        assert q.y == pytest.approx((y + 2 * om) % 1.0, abs=1e-14)

    def test_orbit_length_zero_is_identity(self):
        orb = skew_shift_orbit(Phase(0.2, 0.9), Frequency(0.3), 0)
        assert len(orb) == 1 and orb[0] == Phase(0.2, 0.9)

    def test_orbit_matches_repeated_steps(self):
        p, w = Phase(0.123, 0.456), Frequency(0.789)
        orb = skew_shift_orbit(p, w, 50)
        q = p
        for j in range(51):
            assert abs(orb[j].x - q.x) < 1e-12 and abs(orb[j].y - q.y) < 1e-12
            q = skew_shift_step(q, w)

    def test_orbit_from_zero_x(self):
        y0, om = 0.37, 0.0521
        orb = skew_shift_orbit(Phase(0.0, y0), Frequency(om), 20)
        for j, q in enumerate(orb):
            assert q.x == pytest.approx((j * y0 + j * (j - 1) / 2 * om) % 1.0, abs=1e-12)
            assert q.y == pytest.approx((y0 + j * om) % 1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.floats(0, 1, exclude_max=True),
        y=st.floats(0, 1, exclude_max=True),
        om=st.floats(0, 1, exclude_max=True),
        j=st.integers(0, 1000),
    )
    def test_closed_form_property(self, x, y, om, j):
        p, w = Phase(x, y), Frequency(om)
        q = p
        for _ in range(j % 37):  # spot-check stepping against closed form at modest depth
            q = skew_shift_step(q, w)
        r = orbit_point(p, w, j % 37)
        assert abs(r.x - q.x) % 1.0 < 1e-10 or abs(abs(r.x - q.x) - 1.0) < 1e-10
        assert abs(r.y - q.y) % 1.0 < 1e-10 or abs(abs(r.y - q.y) - 1.0) < 1e-10

    def test_negative_index_inverts_step(self):
        p, w = Phase(0.62, 0.14), Frequency(0.251)
        back = orbit_point(p, w, -1)
        assert skew_shift_step(back, w).x == pytest.approx(p.x, abs=1e-12)
        assert skew_shift_step(back, w).y == pytest.approx(p.y, abs=1e-12)

    def test_mod1_reduction_into_unit_interval(self):
        p = Phase(-0.25, 1.75)
        assert p.x == 0.75 and p.y == 0.75
        # t - floor(t) rounds to 1.0 for tiny negative t; that is 0 mod 1
        assert Phase(-1e-20, -1e-17) == Phase(0.0, 0.0)
        assert Frequency(-1e-18).omega == 0.0

    @pytest.mark.parametrize("j", [0, 1, -1, 2, -2, 10**3, -(10**3), 10**6, -(10**6),
                                   10**9, -(10**9), 2**32 + 1, -(2**32 + 1)])
    def test_closed_form_matches_exact_rationals(self, j):
        # inputs >= 2^-11 with bits at several scales, so the results round
        p, w = Phase(0.0123456789, 0.31234), Frequency(0.1180339887)
        x, y, om = (Fraction(t) for t in (p.x, p.y, w.omega))
        exact = ((x + j * y + Fraction(j * (j - 1), 2) * om) % 1, (y + j * om) % 1)

        def torus_dist(t, ref):
            d = (Fraction(t) - ref) % 1
            return float(min(d, 1 - d))

        q = orbit_point(p, w, j)
        (qx, qy), = orbit_points(p, w, [j])
        for got in ((q.x, q.y), (qx, qy)):
            assert 0.0 <= got[0] < 1.0 and 0.0 <= got[1] < 1.0
            assert torus_dist(got[0], exact[0]) <= 1e-15
            assert torus_dist(got[1], exact[1]) <= 1e-15


class TestVerblunsky:
    def test_zero_coupling(self):
        s = make_scheme({(1, 0): 0.5, (0, 1): 0.5}, 0.0, 0.37)
        assert verblunsky_at(s, 0) == 0 and verblunsky_at(s, 17) == 0

    def test_constant_sampler_invariant(self):
        s = make_scheme({(0, 0): 0.4 + 0.2j}, 0.5, 0.37, base=(0.9, 0.1))
        for n in (0, 3, -5, 100):
            assert verblunsky_at(s, n) == pytest.approx(0.5 * (0.4 + 0.2j), abs=1e-15)

    def test_orbit_example_pure_mode(self):
        # x_2 = 2*0 + 1*0.25 for base (0,0), omega = 0.25
        s = make_scheme({(1, 0): 1.0}, 0.9, 0.25, base=(0.0, 0.0))
        assert verblunsky_at(s, 2) == pytest.approx(0.9j, abs=1e-14)

    def test_range_matches_pointwise(self):
        s = make_scheme({(1, 0): 0.3, (0, 1): 0.4, (1, -1): 0.2}, 0.8, 0.17, base=(0.3, 0.8))
        vals = verblunsky_range(s, -7, 12)
        for i, n in enumerate(range(-7, 13)):
            assert vals[i] == pytest.approx(verblunsky_at(s, n), abs=1e-13)

    def test_batch_matches_single_orbit(self):
        s = make_scheme({(1, 0): 0.5, (0, 1): 0.5}, 0.7, 0.313)
        phases = np.array([[0.1, 0.2], [0.8, 0.55]])
        batch = verblunsky_orbit_batch(s, 16, phases)
        for col, (x, y) in enumerate(phases):
            s2 = make_scheme({(1, 0): 0.5, (0, 1): 0.5}, 0.7, 0.313, base=(x, y))
            for j in range(16):
                assert batch[j, col] == pytest.approx(verblunsky_at(s2, j), abs=1e-13)

    def test_batch_chunks_concatenate_exactly(self):
        s = make_scheme({(1, 0): 0.5, (0, 1): 0.5}, 0.7, 0.313)
        phases = np.array([[0.1, 0.2], [0.8, 0.55]])
        chunks = [verblunsky_orbit_batch(s, m, phases, start=j0) for j0, m in ((0, 7), (7, 1), (8, 13))]
        assert np.array_equal(np.concatenate(chunks), verblunsky_orbit_batch(s, 21, phases))

    def test_coupling_bound_holds_in_bulk(self):
        s = make_scheme({(1, 0): 0.6, (0, 1): 0.3, (2, 1): 0.1}, 0.95, 0.7182)
        vals = verblunsky_range(s, 0, 100_000)
        worst = np.max(np.abs(vals))
        # l1 certifies the true sup; the grid certificate is within its resolution
        assert worst <= 0.95 * s.sampler.ell1() + 1e-12
        assert worst <= 0.95 * (s.grid_sup + 1e-3)
        assert worst < 1.0

    def test_invalid_scheme_rejected(self):
        with pytest.raises(SchemeError):
            make_scheme({(0, 0): 2.0}, 0.6, 0.3)
        with pytest.raises(SchemeError):
            make_scheme({(1, 0): 0.5}, 1.0, 0.3)

    def test_rho_real_positive(self):
        s = make_scheme({(1, 1): 0.9}, 0.9, 0.41)
        a = verblunsky_range(s, 0, 500)
        rho = np.sqrt(1 - np.abs(a) ** 2)
        assert np.all(rho > 0)


def exact_coefficients(s, x, y, js) -> np.ndarray:
    """coupling * sampler at the orbit points j of (x, y), each term's phase exact in rationals and rounded once."""
    X, Y, W = (Fraction(t) for t in (x, y, s.frequency.omega))
    out = []
    for j in js:
        xj, yj = (X + j * Y + Fraction(j * (j - 1), 2) * W) % 1, (Y + j * W) % 1
        out.append(s.coupling * sum(c * cmath.exp(2j * math.pi * float((k * xj + l * yj) % 1))
                                    for k, l, c in s.sampler.terms))
    return np.array(out)


# floats >= 2^-11 are exact as phases; smaller ones lose bits below 2^-64, which C(j,2) w magnifies
PHASE = st.one_of(st.just(0.0), st.floats(2**-11, 1, exclude_max=True))


class TestOrbitKernel:
    @settings(max_examples=120, deadline=None)
    @given(
        terms=st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                              st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=5),
        coupling=st.floats(0.05, 0.99),
        omega=PHASE,
        phases=st.lists(st.tuples(PHASE, PHASE), min_size=1, max_size=3),
        start=st.one_of(st.integers(-300, 300), st.sampled_from([-(10**9) - 2, 10**9 - 2])),
        n=st.integers(1, 5),
    )
    @example(terms={(0, 0): (0.5, 0.1), (3, 0): (0.3, 0.7), (0, -3): (0.2, 0.4)}, coupling=0.9, omega=0.6180339887,
             phases=[(0.0123456789, 0.31234)], start=-(10**9) - 2, n=5)
    @example(terms={(0, 0): (1.0, 0.25)}, coupling=0.5, omega=0.25, phases=[(0.5, 0.75)], start=-3, n=4)
    @example(terms={(-2, 0): (1.0, 0.0), (0, 2): (0.5, 0.5)}, coupling=0.7, omega=0.1180339887,
             phases=[(0.3, 0.9), (0.0, 0.0)], start=10**9 - 2, n=5)
    def test_matches_exact_phases(self, terms, coupling, omega, phases, start, n):
        coeffs = {kl: r * cmath.exp(2j * math.pi * t) for kl, (r, t) in terms.items()}
        ell1 = sum(abs(c) for c in coeffs.values())
        coeffs = {kl: c / ell1 for kl, c in coeffs.items()}
        s = make_scheme(coeffs, coupling, omega)
        got = verblunsky_orbit_batch(s, n, np.array(phases), start=start)
        js = range(start, start + n)
        for col, (x, y) in enumerate(phases):
            err = np.max(np.abs(got[:, col] - exact_coefficients(s, x, y, js)))
            assert err <= 1e-14 * coupling * s.sampler.ell1(), err

    @settings(max_examples=60, deadline=None)
    @given(
        terms=st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                              st.complex_numbers(min_magnitude=0.05, max_magnitude=1.0), min_size=1, max_size=4),
        base=st.tuples(PHASE, PHASE),
        lo=st.integers(-(10**9), 10**9),
        n=st.integers(1, 40),
    )
    def test_range_at_and_batch_share_the_kernel(self, terms, base, lo, n):
        ell1 = sum(abs(c) for c in terms.values())
        s = make_scheme({kl: c / ell1 for kl, c in terms.items()}, 0.9, 0.3183098861, base=base)
        rng = verblunsky_range(s, lo, lo + n - 1)
        at = np.array([verblunsky_at(s, j) for j in range(lo, lo + n)])
        batch = verblunsky_orbit_batch(s, n, [[s.base.x, s.base.y]], start=lo)[:, 0]
        assert np.array_equal(rng, at) and np.array_equal(rng, batch)
        # a phase's column does not depend on the other phases of the batch
        wide = verblunsky_orbit_batch(s, n, [[0.25, 0.5], [s.base.x, s.base.y]], start=lo)[:, 1]
        assert np.array_equal(rng, wide)

    @settings(max_examples=60, deadline=None)
    @given(
        terms=st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                              st.complex_numbers(min_magnitude=0.05, max_magnitude=1.0), min_size=1, max_size=4),
        xs=st.lists(PHASE, min_size=1, max_size=6),
        ys=st.lists(PHASE, min_size=1, max_size=3),
        start=st.integers(-(10**9), 10**9),
        n=st.integers(1, 40),
    )
    def test_phases_sharing_a_y_match_each_phase_alone(self, terms, xs, ys, start, n):
        # a grid plan's phases share their y, and the x_j factor is taken once per site and distinct y
        ell1 = sum(abs(c) for c in terms.values())
        s = make_scheme({kl: c / ell1 for kl, c in terms.items()}, 0.9, 0.3183098861)
        phases = [(x, ys[i % len(ys)]) for i, x in enumerate(xs)]
        batch = verblunsky_orbit_batch(s, n, phases, start=start)
        for col, p in enumerate(phases):
            assert np.array_equal(batch[:, col], verblunsky_orbit_batch(s, n, [p], start=start)[:, 0])
            assert np.array_equal(batch[:1, col], verblunsky_orbit_batch(s, 1, [p], start=start)[:, 0])

    def test_range_stays_in_int64(self):
        s = make_scheme({(1, 0): 0.5, (0, 1): 0.5}, 0.9, 0.3183098861)
        for lo, hi in ((-(2**63), 2 - 2**63), (2**63 - 3, 2**63 - 1)):
            assert np.array_equal(verblunsky_range(s, lo, hi), [verblunsky_at(s, j) for j in range(lo, hi + 1)])
        for lo, hi in ((-(2**63) - 1, 0), (0, 2**63), (2**63 - 8, 2**63 + 8)):
            with pytest.raises(ValueError, match="outside int64"):
                verblunsky_range(s, lo, hi)

    def test_fractional_site_raises(self):
        # int64 casts would truncate 1.5 to 1 and run the wrong site
        s = make_scheme({(1, 0): 0.5, (0, 1): 0.5}, 0.9, 0.3183098861)
        phases = [[s.base.x, s.base.y]]
        calls = (
            lambda: verblunsky_at(s, 1.5),
            lambda: orbit_points(s.base, s.frequency, [0, 1.5]),
            lambda: verblunsky_orbit_batch(s, 8, phases, start=1.5),
            lambda: verblunsky_orbit_batch(s, 2.5, phases),
            lambda: verblunsky_range(s, 0.5, 3),
        )
        for call in calls:
            with pytest.raises(ValueError, match="integer"):
                call()

    def test_boolean_or_fractional_size_or_site_raises(self):
        # int() truncated (0.5, 10.9) to the window [0, 10], and int() and operator.index read True as 1
        s = make_scheme({(1, 0): 0.5, (0, 1): 0.5}, 0.9, 0.3183098861)
        phases, bc = [[s.base.x, s.base.y]], BoundaryPair(1.0, 1.0)
        calls = (
            (lambda: verblunsky_range(s, True, 3), "lo"),
            (lambda: verblunsky_orbit_batch(s, True, phases), "n"),
            (lambda: verblunsky_orbit_batch(s, 8, phases, start=False), "start"),
            (lambda: assemble_window(s, (0.5, 10.9), bc), "interval[0]"),
            (lambda: assemble_window(s, (True, 10), bc), "interval[0]"),
            (lambda: assemble_window(s, (0, 10.0), bc), "interval[1]"),
            (lambda: finite_size_drift(s, [64, 96.5], bc), "sizes[1]"),
            (lambda: finite_size_drift(s, [True], bc), "sizes[0]"),
        )
        for call, field in calls:
            with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer")):
                call()

    def test_numpy_integer_sizes_and_sites_pass(self):
        s = make_scheme({(1, 0): 0.5, (0, 1): 0.5}, 0.9, 0.3183098861)
        bc = BoundaryPair(1.0, -1.0)
        assert np.array_equal(verblunsky_range(s, np.int64(-2), np.int32(5)), verblunsky_range(s, -2, 5))
        w = assemble_window(s, (np.int64(3), np.uint16(12)), bc)
        assert (w.a, w.b) == (3, 12) and type(w.a) is int
        assert np.array_equal(w.matrix, assemble_window(s, (3, 12), bc).matrix)
        rows = finite_size_drift(s, [np.int32(64)], bc, SamplingConfig(mode="grid", grid_side=2))
        assert rows == finite_size_drift(s, [64], bc, SamplingConfig(mode="grid", grid_side=2))

    def test_batch_stays_in_int64(self):
        # the stop 2^63 + 4 made np.arange return floats, cast back to -2^63 at every site
        s = make_scheme({(1, 0): 0.5, (0, 1): 0.5}, 0.9, 0.3183098861)
        phases = [[s.base.x, s.base.y]]
        with pytest.raises(ValueError, match="outside int64"):
            verblunsky_orbit_batch(s, 8, phases, start=2**63 - 4)
        with pytest.raises(ValueError, match="int64"):
            orbit_points(s.base, s.frequency, [2**63])
        last = verblunsky_orbit_batch(s, 8, phases, start=2**63 - 8)[:, 0]
        assert np.array_equal(last, verblunsky_range(s, 2**63 - 8, 2**63 - 1))
        assert len(set(last)) == 8

    def test_empty_sampler_gives_zeros(self):
        s = make_scheme({}, 0.5, 0.3)
        assert np.array_equal(verblunsky_orbit_batch(s, 3, [[0.1, 0.2]]), np.zeros((3, 1)))


def eager_rejects(sampler, coupling) -> bool:
    """The construction rule that evaluates the 256x256 grid for every scheme."""
    return not 0.0 <= coupling < 1.0 or coupling * sampler.grid_max(256) >= 1.0


def builds(sampler, coupling) -> bool:
    try:
        VerblunskyScheme(sampler, coupling, Frequency(0.3), Phase(0.1, 0.2))
    except SchemeError:
        return False
    return True


def no_grid(self, side=256):
    raise AssertionError("the sup-norm grid was evaluated")


class TestCouplingCertificate:
    @settings(max_examples=80, deadline=None)
    @given(
        terms=st.dictionaries(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=4,
        ),
        ell1=st.floats(0.5, 4.0),
        near=st.sampled_from(["ell1", "grid", "anywhere"]),
        rel=st.floats(-1e-9, 1e-9),
        anywhere=st.floats(0.0, 1.2),
    )
    def test_decision_equals_eager_grid_rule(self, terms, ell1, near, rel, anywhere):
        poly = TrigPolynomial({kl: r * complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))
                               for kl, (r, t) in terms.items()})
        poly = TrigPolynomial([(k, l, c * (ell1 / poly.ell1())) for k, l, c in poly.terms])
        if near == "ell1":
            coupling = (1.0 + rel) / poly.ell1()
        elif near == "grid":
            coupling = (1.0 + rel) / poly.grid_max(256)
        else:
            coupling = anywhere
        assert builds(poly, coupling) == (not eager_rejects(poly, coupling))

    @pytest.mark.parametrize("bound", ["ell1", "grid"])
    def test_decision_at_exact_reciprocals(self, bound):
        # (e^{2 pi i x} + e^{2 pi i y}) / 2 has grid max 1 + 1 ulp > ell1 = 1: the grid rejects 1 - 1 ulp
        for coeffs in ({(1, 0): 0.5, (0, 1): 0.5}, {(1, 0): 0.6, (0, 1): 0.3, (2, 1): 0.1}, {(0, 0): 1.25}):
            poly = TrigPolynomial(coeffs)
            base = 1.0 / (poly.ell1() if bound == "ell1" else poly.grid_max(256))
            for coupling in (base, math.nextafter(base, 0.0), math.nextafter(base, 2.0), base * (1 - 1e-12)):
                assert builds(poly, coupling) == (not eager_rejects(poly, coupling))

    def test_l1_proof_skips_the_grid(self, monkeypatch):
        monkeypatch.setattr(TrigPolynomial, "grid_max", no_grid)
        s = make_scheme({(1, 0): 0.6, (0, 1): 0.3, (2, 1): 0.1}, 0.95, 0.7182)
        assert "grid_sup" not in vars(s)
        with pytest.raises(AssertionError, match="grid was evaluated"):
            s.grid_sup

    def test_inconclusive_l1_evaluates_the_grid_at_construction(self):
        # (1 + u - u^2) / 2 on |u| = 1 has sup sqrt(5)/2 < ell1 = 1.5: at coupling 0.8 only the grid proves the bound
        s = make_scheme({(0, 0): 0.5, (1, 0): 0.5, (2, 0): -0.5}, 0.8, 0.3)
        assert vars(s)["grid_sup"] == s.sampler.grid_max(256)
        assert s.grid_sup == pytest.approx(math.sqrt(5) / 2, rel=1e-4)
        with pytest.raises(SchemeError, match="coupling bound violated"):
            make_scheme({(0, 0): 0.6, (1, 0): 0.6, (2, 0): -0.6}, 0.9, 0.3)

    def test_lazy_grid_sup_is_bit_identical(self):
        s = make_scheme({(1, 0): 0.6, (0, 1): 0.3, (2, 1): 0.1}, 0.95, 0.7182)
        first = s.grid_sup
        assert first == s.sampler.grid_max(256) and s.grid_sup is first
        # value recorded when the grid was evaluated at construction
        assert first == pytest.approx(0.9999728933152721, rel=1e-14, abs=0)

    @pytest.mark.parametrize(
        "coeffs, lam, value, sup_inv_rho",
        [
            ({(1, 0): 0.6, (0, 1): 0.3, (2, 1): 0.1}, 0.95, 7.150269657909766, 3.2017598322840106),
            ({(1, 0): 0.5, (0, 1): 0.5}, 0.9, 3.4562538355716557, 2.2941573387056198),
        ],
    )
    def test_scaling_factor_unchanged(self, coeffs, lam, value, sup_inv_rho):
        s = make_scheme(coeffs, lam, 0.3)
        sf = scaling_factor(s, 1.0)
        grid = s.sampler.grid_max(256)
        assert sf.sup_inv_rho == float((1.0 - lam**2 * grid**2) ** -0.5)
        # values recorded when the grid was evaluated at construction
        assert sf.value == pytest.approx(value, rel=1e-14, abs=0)
        assert sf.sup_inv_rho == pytest.approx(sup_inv_rho, rel=1e-14, abs=0)

    def test_oracle_tasks_never_evaluate_the_grid(self, monkeypatch):
        monkeypatch.setattr(TrigPolynomial, "grid_max", no_grid)
        for task in ("green-check", "detform-check", "davis-simon", "restriction-check"):
            doc = {"task": task, "params": {"instances": 4}, "sampling": {"rng_seed": 2}}
            rows, failures, _ = run(config_from_doc(doc))
            assert failures == 0 and len(rows) == 4, task

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: Frequency(math.nan), "omega"),
            (lambda: Frequency(-math.inf), "omega"),
            (lambda: Phase(math.nan, 0.1), "Phase.x"),
            (lambda: Phase(0.1, math.inf), "Phase.y"),
            (lambda: TrigPolynomial({(1, 0): complex(math.nan, 0.0)}), "coefficient (1, 0)"),
            (lambda: TrigPolynomial([(0, 2, complex(0.5, math.inf))]), "coefficient (0, 2)"),
            (lambda: make_scheme({(1, 0): 0.5}, math.nan, 0.3), "coupling lambda"),
            (lambda: scheme_from_json(json.dumps({"coefficients": [[1, 0, 0.5, 0.0]], "lambda": 0.5,
                                                  "omega": 0.3, "base_x": 0.1, "base_y": math.nan})),
             "base_y"),
        ],
    )
    def test_non_finite_input_names_the_field(self, build, field):
        with pytest.raises(SchemeError, match=re.escape(field)):
            build()

    @pytest.mark.parametrize(
        "rows",
        [
            [(1, 0, 0.5), (0, 1, 0.3), (1, 0, 0.25)],  # different coefficients: once a TypeError from the sort
            [(1, 0, 0.5), (1, 0, 0.5)],  # equal rows: once both kept, so ell1() read 1.0
        ],
    )
    def test_repeated_term_names_the_pair(self, rows):
        with pytest.raises(SchemeError, match=re.escape("coefficient (1, 0) is given twice")):
            TrigPolynomial(rows)


class TestDiophantine:
    def test_half_gives_zero_margin(self):
        cert = diophantine_margin(Frequency(0.5), 0.1, 2)
        assert cert.margin == 0.0 and cert.worst_n == 2 and not cert.passes

    def test_zero_gives_zero_margin(self):
        assert diophantine_margin(Frequency(0.0), 0.1, 1).margin == 0.0

    def test_golden_mean_against_bruteforce(self):
        om = (math.sqrt(5) - 1) / 2
        cert = diophantine_margin(Frequency(om), 0.1, 10_000)
        # independent plain-loop oracle
        best, best_n = math.inf, 0
        for n in range(1, 10_001):
            t = (n * om) % 1.0
            v = min(t, 1 - t) * n * (1 + math.log(n)) ** 2
            if v < best:
                best, best_n = v, n
        assert cert.margin == pytest.approx(best, rel=1e-12)
        assert cert.worst_n == best_n
        assert cert.margin > 0 and cert.passes

    def test_monotone_in_horizon(self):
        om = 0.2137840123
        margins = [diophantine_margin(Frequency(om), 0.0, N).margin for N in (10, 100, 1000, 10000)]
        assert all(m2 <= m1 + 1e-15 for m1, m2 in zip(margins, margins[1:]))

    @settings(max_examples=30, deadline=None)
    @given(p=st.integers(1, 30), q=st.integers(2, 40))
    def test_rationals_hit_zero_once_horizon_reaches_q(self, p, q):
        cert = diophantine_margin(Frequency(p / q), 0.0, q)
        assert cert.margin < 1e-9

    @pytest.mark.parametrize("horizon", [2.5, 3.0, True])
    def test_horizon_must_be_an_integer(self, horizon):
        # 2.5 scanned n = 1..3 and reported horizon 2, and True scanned n = 1
        with pytest.raises(ValueError, match="horizon must be an integer"):
            diophantine_margin(Frequency(0.1), 0.1, horizon)

    @settings(max_examples=40, deadline=None)
    @given(om=st.floats(0.0, 1.0, exclude_max=True), N=st.integers(1, 3000))
    def test_scan_reads_n_omega_off_the_orbit_of_the_origin(self, om, N):
        n = np.arange(1, N + 1)
        frac = orbit_points(Phase(0.0, 0.0), Frequency(om), n)[:, 1]
        vals = np.minimum(frac, 1.0 - frac) * n * (1.0 + np.log(n)) ** 2
        cert = diophantine_margin(Frequency(om), 0.1, N)
        assert (cert.margin, cert.worst_n) == (float(np.min(vals)), int(np.argmin(vals)) + 1)

    @staticmethod
    def one_array_scan(om: float, N: int) -> tuple:
        """The scan over all of n = 1..N in one array, as diophantine_margin took it before it chunked."""
        n = np.arange(1, N + 1, dtype=np.uint64)
        frac = model._mod1((n * model._fixed(Frequency(om).omega)).astype(float) * 2.0**-64)
        vals = np.minimum(frac, 1.0 - frac) * n * (1.0 + np.log(n)) ** 2
        return float(np.min(vals)), int(np.argmin(vals)) + 1

    @settings(max_examples=80, deadline=None)
    @given(
        om=st.one_of(
            st.floats(0.0, 1.0, exclude_max=True),
            st.builds(lambda p, q, e: p / q + e, st.integers(0, 40), st.integers(1, 41), st.floats(-1e-7, 1e-7)),
            # exact binary rationals: every multiple of the denominator ties at 0, and the first must win
            st.sampled_from([0.0, 0.5, 0.25, 0.75]),
        ),
        chunk=st.integers(1, 70),
        N=st.integers(1, 600),
    )
    @example(om=777777 / 7654321, chunk=None, N=3 * model._DIO_CHUNK + 5)
    @example(om=1 / 3 + 1e-7, chunk=None, N=2 * model._DIO_CHUNK)
    @example(om=0.5, chunk=None, N=model._DIO_CHUNK + 1)
    def test_chunked_scan_equals_the_one_array_scan(self, om, chunk, N):
        with mock.patch.object(model, "_DIO_CHUNK", chunk or model._DIO_CHUNK):
            cert = diophantine_margin(Frequency(om), 0.1, N)
        assert (cert.margin, cert.worst_n) == self.one_array_scan(om, N)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        s = make_scheme({(1, 0): 0.5 + 0.25j, (0, -2): 1 / 3}, 0.77, 1 / 7, base=(0.1, 2 / 3))
        s2 = scheme_from_json(scheme_to_json(s))
        assert scheme_to_json(s2) == scheme_to_json(s)
        assert s2.coupling == s.coupling and s2.frequency.omega == s.frequency.omega
        assert s2.base == s.base and s2.sampler.terms == s.sampler.terms

    def test_hash_stable_and_sensitive(self):
        s = make_scheme({(1, 0): 0.5}, 0.5, 0.25)
        t = make_scheme({(1, 0): 0.5}, 0.5001, 0.25)
        assert scheme_hash(s) == scheme_hash(s)
        assert scheme_hash(s) != scheme_hash(t)

    def test_json_fields(self):
        s = make_scheme({(1, 0): 0.5}, 0.5, 0.25, base=(0.1, 0.9))
        doc = json.loads(scheme_to_json(s))
        assert set(doc) == {"coefficients", "lambda", "omega", "base_x", "base_y"}
