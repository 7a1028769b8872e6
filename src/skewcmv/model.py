"""Skew-shift torus dynamics, sampling functions, and Verblunsky coefficient schemes.

The coefficient sequences studied here are generated by sampling a fixed
trigonometric polynomial along orbits of the skew-shift (x, y) -> (x + y, y + w)
on the two-torus, scaled by a coupling constant in [0, 1).  Everything in this
module is a pure function of its inputs and safe to call concurrently.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SchemeError",
    "Phase",
    "Frequency",
    "TrigPolynomial",
    "VerblunskyScheme",
    "DiophantineCertificate",
    "skew_shift_step",
    "skew_shift_orbit",
    "orbit_point",
    "orbit_points",
    "verblunsky_at",
    "verblunsky_range",
    "verblunsky_orbit_batch",
    "diophantine_margin",
    "scheme_to_json",
    "scheme_from_json",
    "scheme_hash",
]


class SchemeError(ValueError):
    """Raised when a coefficient scheme has a non-finite input or violates sup|lambda*alpha| < 1."""


def _finite(name: str, value) -> float:
    """`value` as a float; SchemeError naming `name` when it is NaN or infinite."""
    value = float(value)
    if not math.isfinite(value):
        raise SchemeError(f"{name} must be finite, got {value}")
    return value


def _mod1(t):
    """Reduce into [0, 1) with floor, elementwise; a result of 1.0 (tiny negative t) is 0 mod 1."""
    r = t - np.floor(t)
    return np.where(r == 1.0, 0.0, r)


def _orbit(x, y, omega, j) -> tuple:
    """Skew-shift orbit (x + j y + C(j,2) w, y + j w) mod 1, exact for every integer j.

    Inputs broadcast.  Phases become uint64 multiples of 2^-64 (exact for floats
    >= 2^-11), where wrapping arithmetic is exactly mod 1.  C(j,2) halves the
    even one of j, j-1 in int64 before the uint64 product, so negative j are
    exact too.  Returns float arrays in [0, 1), each value rounded once.
    """
    # arrays, not numpy scalars: scalar uint64 arithmetic warns when it wraps
    j = np.atleast_1d(np.asarray(j, dtype=np.int64))
    odd = j & 1
    tri = ((j - odd) >> 1).astype(np.uint64) * (j - 1 + odd).astype(np.uint64)
    x, y, om = ((_mod1(np.asarray(t, dtype=float)) * 2.0**64).astype(np.uint64) for t in (x, y, omega))
    jj = j.astype(np.uint64)
    return tuple(_mod1(u.astype(float) * 2.0**-64) for u in (x + jj * y + tri * om, y + jj * om))


@dataclass(frozen=True)
class Phase:
    """A point (x, y) on the two-torus, stored reduced into [0,1) x [0,1)."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(_mod1(_finite("Phase.x", self.x))))
        object.__setattr__(self, "y", float(_mod1(_finite("Phase.y", self.y))))


@dataclass(frozen=True)
class Frequency:
    """A rotation number on the torus, reduced into [0, 1)."""

    omega: float

    def __post_init__(self):
        object.__setattr__(self, "omega", float(_mod1(_finite("omega", self.omega))))


@dataclass(frozen=True, init=False)
class TrigPolynomial:
    """Finite trigonometric polynomial sum_{k,l} c_{k,l} e^{2 pi i (k x + l y)}.

    Coefficients are stored canonically sorted by (k, l), which makes equality,
    hashing and serialization reproducible.
    """

    terms: tuple  # ((k, l, complex), ...) sorted by (k, l)

    def __init__(self, coefficients):
        if isinstance(coefficients, TrigPolynomial):
            terms = coefficients.terms
        elif isinstance(coefficients, dict):
            terms = tuple(
                (int(k), int(l), complex(c))
                for (k, l), c in sorted(coefficients.items())
                if c != 0
            )
        else:
            rows = sorted(((int(k), int(l), complex(c)) for k, l, c in coefficients), key=lambda r: r[:2])
            for (k, l, _), nxt in zip(rows, rows[1:]):
                if (k, l) == nxt[:2]:
                    raise SchemeError(f"coefficient ({k}, {l}) is given twice")
            terms = tuple(r for r in rows if r[2] != 0)
        for k, l, c in terms:
            if not cmath.isfinite(c):
                raise SchemeError(f"coefficient ({k}, {l}) must be finite, got {c}")
        object.__setattr__(self, "terms", terms)

    @property
    def coefficients(self) -> dict:
        return {(k, l): c for k, l, c in self.terms}

    def __call__(self, x, y):
        """Evaluate at torus points; broadcasts over array inputs."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape, dtype=complex)
        for k, l, c in self.terms:
            out += c * np.exp(2j * np.pi * (k * x + l * y))
        if out.ndim == 0:
            return complex(out)
        return out

    def ell1(self) -> float:
        """Coefficient-sum bound sum |c_{k,l}| >= sup |alpha| on the torus."""
        return float(sum(abs(c) for _, _, c in self.terms))

    def strip_bound(self, h1: float, h2: float) -> float:
        """Bound sum |c_{k,l}| e^{2 pi (|k| h1 + |l| h2)} for the analytic extension to a strip."""
        return float(
            sum(abs(c) * math.exp(2 * math.pi * (abs(k) * h1 + abs(l) * h2)) for k, l, c in self.terms)
        )

    def grid_max(self, side: int = 256) -> float:
        """Max of |alpha| over a side x side uniform grid."""
        t = (np.arange(side) + 0.5) / side
        x, y = np.meshgrid(t, t, indexing="ij")
        return float(np.max(np.abs(self(x, y))))


# grid of the sup-norm test, used when the l1 bound cannot prove the coupling bound
_SUP_GRID_SIDE = 256
# coupling * ell1 below 1 - _ELL1_SLACK proves the bound with room for the
# rounding of grid_max, so the grid test would accept the scheme too
_ELL1_SLACK = 1e-12


@dataclass(frozen=True)
class VerblunskyScheme:
    """Coefficient generator alpha_n = coupling * sampler(T^n(base)) along a skew-shift orbit.

    Construction enforces the coupling bound sup |coupling * sampler| < 1 and
    raises SchemeError when it fails.  The l1 bound sampler.ell1() >= sup|sampler|
    proves it whenever coupling * ell1 < 1 - 1e-12, and then no grid is
    evaluated.  Otherwise the sampler's maximum on a 256x256 grid decides:
    coupling * grid_sup >= 1 is rejected.  The accepted set is exactly that of
    the grid test alone.  `grid_sup` is computed on first read and cached.
    """

    sampler: TrigPolynomial
    coupling: float
    frequency: Frequency
    base: Phase

    def __post_init__(self):
        if not 0.0 <= self.coupling < 1.0:
            raise SchemeError(f"coupling lambda must lie in [0, 1), got {self.coupling}")
        if self.coupling * self.sampler.ell1() < 1.0 - _ELL1_SLACK:
            return
        if self.coupling * self.grid_sup >= 1.0:
            raise SchemeError(
                f"coupling bound violated: coupling * sup_grid|alpha| = {self.coupling * self.grid_sup:.6f} >= 1"
            )

    @cached_property
    def grid_sup(self) -> float:
        """Max of |sampler| on the 256x256 grid of the sup-norm test."""
        return self.sampler.grid_max(_SUP_GRID_SIDE)

    def alpha_at(self, n: int) -> complex:
        return verblunsky_at(self, n)


def skew_shift_step(p: Phase, w: Frequency) -> Phase:
    """One application of the skew-shift: (x, y) -> (x + y, y + w) mod 1."""
    return Phase(p.x + p.y, p.y + w.omega)


def orbit_point(p: Phase, w: Frequency, j: int) -> Phase:
    """Closed form of the j-th orbit point, valid for any integer j (negative included).

    x_j = x + j y + j(j-1)/2 w,  y_j = y + j w   (mod 1).

    Evaluated in exact fixed-point arithmetic mod 1, so large |j| do not drift.
    """
    xj, yj = _orbit(p.x, p.y, w.omega, j)
    return Phase(xj[0], yj[0])


def orbit_points(p: Phase, w: Frequency, js) -> np.ndarray:
    """Vectorized closed-form orbit; returns an array of shape (len(js), 2)."""
    return np.stack(_orbit(p.x, p.y, w.omega, js), axis=-1)


def skew_shift_orbit(p: Phase, w: Frequency, n: int) -> list:
    """Orbit positions 0..n as a list of Phase (length n + 1)."""
    if n < 0:
        raise ValueError("orbit length must be nonnegative")
    pts = orbit_points(p, w, np.arange(n + 1))
    return [Phase(float(x), float(y)) for x, y in pts]


def verblunsky_at(s: VerblunskyScheme, n: int) -> complex:
    """alpha_n = coupling * sampler(T^n(base)); |result| < 1 by the construction bound."""
    q = orbit_point(s.base, s.frequency, n)
    return s.coupling * s.sampler(q.x, q.y)


def verblunsky_range(s: VerblunskyScheme, lo: int, hi: int) -> np.ndarray:
    """Coefficients alpha_lo .. alpha_hi inclusive, as a complex array."""
    pts = orbit_points(s.base, s.frequency, np.arange(lo, hi + 1))
    return s.coupling * s.sampler(pts[:, 0], pts[:, 1])


def verblunsky_orbit_batch(
    s: VerblunskyScheme, n: int, phases: np.ndarray, start: int = 0
) -> np.ndarray:
    """Coefficients alpha_start..alpha_{start+n-1} along orbits started at each row of `phases`.

    `phases` has shape (S, 2); the result has shape (n, S).  This is the sampling
    kernel behind the Lyapunov estimators: the scheme's own base phase is ignored.
    """
    phases = np.atleast_2d(np.asarray(phases, dtype=float))
    js = np.arange(start, start + n)[:, None]
    x, y = _orbit(phases[:, 0], phases[:, 1], s.frequency.omega, js)
    return s.coupling * s.sampler(x, y)


@dataclass(frozen=True)
class DiophantineCertificate:
    """Result of the brute-force scan min_{1<=n<=N} ||n w|| n (1 + log n)^2."""

    omega: Frequency
    epsilon: float
    horizon: int
    margin: float
    worst_n: int

    @property
    def passes(self) -> bool:
        return self.margin >= self.epsilon


def diophantine_margin(w: Frequency, eps: float, N: int) -> DiophantineCertificate:
    """Exact brute-force scan of ||n w|| n (1 + log n)^2 for n = 1..N.

    ||t|| denotes distance to the nearest integer.  No continued-fraction
    shortcut: N is desk-scale (up to ~1e6) and exactness beats cleverness.
    """
    if N < 1:
        raise ValueError("horizon must be >= 1")
    n = np.arange(1, N + 1, dtype=np.int64)
    _, frac = _orbit(0.0, 0.0, w.omega, n)
    dist = np.minimum(frac, 1.0 - frac)
    vals = dist * n * (1.0 + np.log(n)) ** 2
    i = int(np.argmin(vals))
    return DiophantineCertificate(w, float(eps), int(N), float(vals[i]), int(n[i]))


# --- serialization ----------------------------------------------------------

def scheme_to_json(s: VerblunskyScheme) -> str:
    """Canonical JSON encoding; floats round-trip bit-exactly through repr."""
    doc = {
        "coefficients": [[k, l, c.real, c.imag] for k, l, c in s.sampler.terms],
        "lambda": s.coupling,
        "omega": s.frequency.omega,
        "base_x": s.base.x,
        "base_y": s.base.y,
    }
    return json.dumps(doc, sort_keys=True)


def scheme_from_json(text: str) -> VerblunskyScheme:
    doc = json.loads(text)
    sampler = TrigPolynomial([(k, l, complex(re, im)) for k, l, re, im in doc["coefficients"]])
    return VerblunskyScheme(
        sampler=sampler,
        coupling=_finite("lambda", doc["lambda"]),
        frequency=Frequency(_finite("omega", doc["omega"])),
        base=Phase(_finite("base_x", doc["base_x"]), _finite("base_y", doc["base_y"])),
    )


def scheme_hash(s: VerblunskyScheme) -> str:
    return hashlib.sha256(scheme_to_json(s).encode()).hexdigest()[:16]
