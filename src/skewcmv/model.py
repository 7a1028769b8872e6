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
import operator
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
    """`value` as a float; SchemeError naming `name` when it is a boolean, NaN or infinite."""
    if isinstance(value, bool):
        raise SchemeError(f"{name} must be a number, got {value}")
    value = float(value)
    if not math.isfinite(value):
        raise SchemeError(f"{name} must be finite, got {value}")
    return value


def _index(k) -> int:
    """A frequency index as an int; SchemeError for a boolean or a non-integral value, which int() would truncate."""
    if isinstance(k, bool) or k % 1 != 0:
        raise SchemeError(f"frequency index must be an integer, got {k!r}")
    return int(k)


def _mod1(t):
    """Reduce into [0, 1) with floor, elementwise; a result of 1.0 (tiny negative t) is 0 mod 1."""
    r = t - np.floor(t)
    return np.where(r == 1.0, 0.0, r)


def _fixed(t) -> np.ndarray:
    """Floats reduced mod 1 as uint64 multiples of 2^-64 (exact for floats >= 2^-11)."""
    return (_mod1(np.asarray(t, dtype=float)) * 2.0**64).astype(np.uint64)


def _steps(j) -> tuple:
    """(j, C(j, 2)) as uint64, exact mod 2^64 for every int64 j; other sites raise ValueError.

    C(j,2) halves the even one of j, j-1 in int64 before the uint64 product, so
    negative j are exact too.
    """
    # arrays, not numpy scalars: scalar uint64 arithmetic warns when it wraps
    j = np.atleast_1d(np.asarray(j))
    # a float site would be truncated, and a uint64 one of 2^63 or more would wrap
    if j.dtype.kind not in "iu" or (j.dtype.kind == "u" and j.size and j.max() >= 2**63):
        raise ValueError(f"sites must be integers that fit in int64, got {j.dtype} sites")
    j = j.astype(np.int64)
    odd = j & 1
    return j.astype(np.uint64), ((j - odd) >> 1).astype(np.uint64) * (j - 1 + odd).astype(np.uint64)


def _orbit(x, y, omega, j) -> tuple:
    """Skew-shift orbit (x + j y + C(j,2) w, y + j w) mod 1, exact for every integer j.

    Inputs broadcast.  Phases become uint64 multiples of 2^-64, where wrapping
    arithmetic is exactly mod 1.  Returns float arrays in [0, 1), each value
    rounded once.
    """
    jj, tri = _steps(j)
    x, y, om = (_fixed(t) for t in (x, y, omega))
    return tuple(_mod1(u.astype(float) * 2.0**-64) for u in (x + jj * y + tri * om, y + jj * om))


# radians per unit of a uint64 phase: 2 pi t = (phase as int64) * 2 pi 2^-64
_RADIANS = 2.0 * math.pi * 2.0**-64


def _unit(u: np.ndarray) -> np.ndarray:
    """e^{2 pi i t} of uint64 phases t, from one cos/sin pair per value.

    The int64 view takes t into [-1/2, 1/2), so the angle lies in [-pi, pi) and
    is rounded twice.  `u` is overwritten with the angles.
    """
    theta = np.multiply(u.view(np.int64), _RADIANS, out=u.view(np.float64))
    e = np.empty(u.shape, dtype=complex)
    np.cos(theta, out=e.real)
    np.sin(theta, out=e.imag)
    return e


def _power(e: np.ndarray, l: int):
    """e^l for |e| = 1 by repeated products, conjugated for l < 0; 1.0 for l = 0."""
    if l == 0:
        return 1.0
    out = e
    for _ in range(abs(l) - 1):
        out = out * e
    return out if l > 0 else np.conj(out)


def _coefficients(s: "VerblunskyScheme", x, y, js) -> np.ndarray:
    """alpha_j = coupling * sampler(T^j(x, y)) for j in `js` and phases (x, y): shape (len(js), len(x)).

    The orbit kernel behind verblunsky_at, verblunsky_range and
    verblunsky_orbit_batch.  Phases are the exact uint64 ones of _orbit.
    e^{2 pi i x_j} is the product e^{2 pi i x} e^{2 pi i (j y + C(j,2) w)}, its
    second factor taken once per site and distinct y of the call, so a grid
    plan's phases, which share few y, need few cos/sin pairs; e^{2 pi i y_j} is
    the outer product e^{2 pi i y} e^{2 pi i j w}.  A term c e^{2 pi i (k x + l y)}
    is c (e^{2 pi i x})^k (e^{2 pi i y})^l, with the coupling folded into c, and
    the terms are accumulated in place.  Every value is computed elementwise by
    the same operations from its own point, so it is bit-identical whatever the
    other points and phases of the call.
    """
    jj, tri = _steps(js)
    x, y = np.atleast_1d(x, y)
    n, S = len(jj), len(x)
    if n * S == 1:
        # numpy multiplies a one-element array in place by an unfused scalar loop;
        # a repeated point keeps the value bit-identical to larger calls
        return _coefficients(s, x, y, np.repeat(jj.view(np.int64), 2))[:1]
    xu, yu, om = np.split(_fixed(np.concatenate([x, y, [s.frequency.omega]])), [S, 2 * S])
    # np.unique costs more than a short orbit of one phase, whose one y is its own distinct value
    yd, which = np.unique(yu, return_inverse=True) if S > 1 else (yu, np.zeros(1, dtype=np.intp))
    G = len(yd)
    # one buffer, one cos/sin pass: j y + C(j,2) w for every (j, distinct y), then x, y and j w
    u = np.empty(n * G + 2 * S + n, dtype=np.uint64)
    shift = np.multiply.outer(jj, yd, out=u[: n * G].reshape(n, G))
    shift += (tri * om)[:, None]
    u[n * G : n * G + S] = xu
    u[n * G + S : n * G + 2 * S] = yu
    np.multiply(jj, om, out=u[n * G + 2 * S :])
    e = _unit(u)
    del u, shift
    ex = np.take(e[: n * G].reshape(n, G), which, axis=1)
    ex *= e[n * G : n * G + S]
    ey, ew = e[n * G + S : n * G + 2 * S], e[n * G + 2 * S :]
    out = term = np.zeros(ex.shape, dtype=complex)  # the first term is written straight into out
    for i, (k, l, c) in enumerate(s.sampler.terms):
        if i == 1:
            term = np.empty_like(ex)
        c = s.coupling * c * _power(ey, l)  # a scalar, or (S,) when l != 0
        if k:
            # c x^k, or for k < 0 the conjugate of conj(c) x^|k|
            np.multiply(ex, c if k > 0 else np.conj(c), out=term)
            for _ in range(abs(k) - 1):
                term *= ex
            if k < 0:
                np.conjugate(term, out=term)
        else:
            term[...] = c
        if l:
            term *= _power(ew, l)[:, None]
        if i:
            out += term
    return out


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
            coefficients = coefficients.terms
        elif isinstance(coefficients, dict):
            coefficients = [(k, l, c) for (k, l), c in coefficients.items()]
        rows = sorted(((_index(k), _index(l), complex(c)) for k, l, c in coefficients), key=lambda r: r[:2])
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


def _integer(name: str, value) -> int:
    """value as a Python int; ValueError naming the field for a boolean or anything that is not an integer."""
    try:
        if isinstance(value, bool):  # operator.index reads True as 1
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _site_range(lo, hi) -> np.ndarray:
    """The sites lo .. hi inclusive as int64; ValueError unless both are integers and every site fits in int64.

    `np.arange` would return floats for a stop past int64, and with an int64
    dtype it truncates fractions and wraps past the end.
    """
    lo, hi = _integer("lo", lo), _integer("hi", hi)
    if lo < -(2**63) or hi >= 2**63:
        raise ValueError(f"sites {lo} .. {hi} lie outside int64")
    return np.arange(lo, hi + 1, dtype=np.int64)


def verblunsky_at(s: VerblunskyScheme, n: int) -> complex:
    """alpha_n = coupling * sampler(T^n(base)); |result| < 1 by the construction bound."""
    return complex(_coefficients(s, s.base.x, s.base.y, n)[0, 0])


def verblunsky_range(s: VerblunskyScheme, lo: int, hi: int) -> np.ndarray:
    """Coefficients alpha_lo .. alpha_hi inclusive, as a complex array; every site must fit in int64."""
    return _coefficients(s, s.base.x, s.base.y, _site_range(lo, hi))[:, 0]


def verblunsky_orbit_batch(
    s: VerblunskyScheme, n: int, phases: np.ndarray, start: int = 0
) -> np.ndarray:
    """Coefficients alpha_start..alpha_{start+n-1} along orbits started at each row of `phases`.

    `phases` has shape (S, 2); the result has shape (n, S).  This is the sampling
    kernel behind the Lyapunov estimators: the scheme's own base phase is ignored.
    A fractional start or n, or a site outside int64, raises ValueError.
    """
    phases = np.atleast_2d(np.asarray(phases, dtype=float))
    start = _integer("start", start)
    return _coefficients(s, phases[:, 0], phases[:, 1], _site_range(start, start + _integer("n", n) - 1))


# values of n that diophantine_margin scans at once: its arrays take about 40 bytes per n
_DIO_CHUNK = 2**16


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
    shortcut: N is desk-scale and exactness beats cleverness.  n w mod 1 is the
    y-coordinate of the orbit of (0, 0), the same exact uint64 product that _orbit takes.
    The scan takes _DIO_CHUNK values of n at a time and keeps the running minimum, the
    first n on a tie, so its memory does not grow with N.
    """
    N = _integer("horizon", N)
    if N < 1:
        raise ValueError("horizon must be >= 1")
    best, step = (np.inf, 0), _fixed(w.omega)
    for a in range(1, N + 1, _DIO_CHUNK):
        n = np.arange(a, min(a + _DIO_CHUNK, N + 1), dtype=np.uint64)
        frac = _mod1((n * step).astype(float) * 2.0**-64)
        dist = np.minimum(frac, 1.0 - frac)
        vals = dist * n * (1.0 + np.log(n)) ** 2
        i = int(np.argmin(vals))
        best = min(best, (float(vals[i]), int(n[i])))
    return DiophantineCertificate(w, float(eps), int(N), *best)


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
    if any(isinstance(v, bool) for row in doc["coefficients"] for v in row):  # complex() would read true as 1
        raise SchemeError(f"coefficients must be numbers, got {doc['coefficients']}")
    sampler = TrigPolynomial([(k, l, complex(re, im)) for k, l, re, im in doc["coefficients"]])
    return VerblunskyScheme(
        sampler=sampler,
        coupling=_finite("lambda", doc["lambda"]),
        frequency=Frequency(_finite("omega", doc["omega"])),
        base=Phase(_finite("base_x", doc["base_x"]), _finite("base_y", doc["base_y"])),
    )


def scheme_hash(s: VerblunskyScheme) -> str:
    return hashlib.sha256(scheme_to_json(s).encode()).hexdigest()[:16]
