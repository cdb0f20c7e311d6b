"""Piecewise bound-state wavefunctions built on the accumulated phase.

A solved level defines two phase anchors phi1 = -pi(n+1/2)/2 and
phi2 = +pi(n+1/2)/2 sitting at the turning points.  The state is

    psi(x) = N * exp(phi - phi1)                left of the region,
    psi(x) = N * sqrt(2) * cos(phi - phi1 - pi/4)   inside,
    psi(x) = N * (-1)^n * exp(-(phi - phi2))    right of the region,

with phi(x) accumulated from the turning points (decay exponents in the
forbidden sides).  N comes from numeric normalization; the closed-form
normalization constant applies only when the region supports a single
constant wavenumber and is exposed separately, together with its ratio to
the numeric value.

Also here: the local quasi-classicality diagnostics epsilon and delta,
which measure how fast the momentum varies on the scale of a wavelength,
and the connection checks that verify branch continuity at the anchors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .classical import (ClassicalRegion, PhaseAccumulator,
                        find_turning_points)
from .errors import NormalizationError, SingularPointError, UsageError
from .potentials import MomentumField, PotentialModel, decay_march
from .quantize import EnergyLevel

_TAIL_EXPONENT = 16.2   # |psi|^2 down to ~1e-14 of its turning-point value
_INTERIOR_POINTS = 2001
_TAIL_POINTS = 384
# region tags by left + 2 * right; an object array hands out these three
# strings instead of a new one per sample
_TAGS = np.array(["allowed", "left-forbidden", "right-forbidden"],
                 dtype=object)


@dataclass(frozen=True)
class WavefunctionSample:
    """One sample, or a column of samples for an array of positions
    (then every field is an array of the positions' shape)."""

    x: float
    phi: float
    psi: float
    region: str  # left-forbidden | allowed | right-forbidden


@dataclass(frozen=True)
class PaperNormalization:
    constant: float
    ratio_to_numeric: float


class StateFunction:
    """Normalized piecewise state for one solved level.

    Build through :func:`build_state`.  ``sample`` takes a float or an
    array of positions; an array costs one batched phase integral per
    branch, whatever its size and order.
    """

    def __init__(self, potential: PotentialModel, level: EnergyLevel,
                 accumulator: PhaseAccumulator, normalization: float):
        n = level.n
        self.potential = potential
        self.level = level
        self.anchors = (-0.5 * math.pi * (n + 0.5),
                        0.5 * math.pi * (n + 0.5))
        self.normalization_numeric = normalization
        self._acc = accumulator
        self._sign = -1.0 if n % 2 else 1.0

    @functools.cached_property
    def wavenumber(self) -> float | None:
        """Constant p/hbar of a flat-momentum region, else None (lazy)."""
        return _detect_wavenumber(self.potential, self.level)

    def _branches(self, x: np.ndarray):
        """(phi, psi, left mask, right mask) at an array of positions."""
        region = self.level.region
        phi1, phi2 = self.anchors
        n_const = self.normalization_numeric
        left = x < region.left
        right = x > region.right
        inside = ~(left | right)
        phi = np.empty(x.shape)
        psi = np.empty(x.shape)
        if inside.any():
            u = self._acc.interior(x[inside])
            phi[inside] = phi1 + u
            psi[inside] = n_const * math.sqrt(2.0) * np.cos(u - 0.25 * math.pi)
        if left.any():
            t = self._acc.left_tail(x[left])
            phi[left] = phi1 - t
            psi[left] = n_const * np.exp(-t)
        if right.any():
            t = self._acc.right_tail(x[right])
            phi[right] = phi2 + t
            psi[right] = self._sign * n_const * np.exp(-t)
        return phi, psi, left, right

    def sample(self, x) -> WavefunctionSample:
        """Sample at a float, or columns of samples at an array."""
        x = np.asarray(x, dtype=float)
        phi, psi, left, right = self._branches(x)
        tag = _TAGS[left + 2 * right]
        if x.ndim == 0:
            return WavefunctionSample(float(x), float(phi), float(psi), tag)
        return WavefunctionSample(x, phi, psi, tag)

    def branch_derivative(self, phi: float, tag: str) -> float:
        """d(psi)/d(phi) of the branch formula at a given phase."""
        phi1, phi2 = self.anchors
        n_const = self.normalization_numeric
        if tag == "allowed":
            return -n_const * math.sqrt(2.0) * math.sin(phi - phi1
                                                        - 0.25 * math.pi)
        if tag == "left-forbidden":
            return n_const * math.exp(phi - phi1)
        return -self._sign * n_const * math.exp(-(phi - phi2))


def _tail_reach(potential: PotentialModel, energy: float, start: float,
                direction: int) -> tuple[PotentialModel, float]:
    """Stop of the decay walk into one forbidden side: where the exponent
    of :func:`~phasebound.potentials.decay_march`, 512 steps a width,
    reaches 1.1 * _TAIL_EXPONENT, or a hard edge, at the model's ``ends``
    (off an open edge).  NormalizationError when no decay
    starts within a width or 200,000 steps plus edge moves pass ("decays
    too slowly"), or when V falls back to E first ("stopped decaying").
    Returns the (possibly soft-extended) model and the stop.
    """
    pot = potential
    budget = 200000     # steps plus edge moves
    flat = 0            # steps before the decay starts (exponent 0)
    for model, xs, v, expos in decay_march(potential, energy, start,
                                           direction, 512):
        budget -= model is not pot      # an edge move
        pot = model
        n = min(xs.size, budget)
        budget -= n
        v, expos = v[:n], expos[:n]
        flat += np.count_nonzero(expos == 0.0)
        if flat >= 512:
            break
        stalls = np.flatnonzero((v <= energy) & (expos > 0.0))
        stall = stalls[0] if stalls.size else n
        hit = np.flatnonzero(expos[:stall] >= 1.1 * _TAIL_EXPONENT)
        if hit.size:
            return pot, xs[hit[0]]
        if stall < n:
            raise NormalizationError(
                "forbidden tail stopped decaying; state not normalizable")
        if budget <= 0:
            break
    else:
        return pot, pot.ends[direction > 0]
    raise NormalizationError("forbidden tail decays too slowly to normalize")


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Integral of samples y on the uniform grid x (at least 3 points):
    composite Simpson, and with an even count the last interval takes
    h (5 y[-1] + 8 y[-2] - y[-3]) / 12 (Cartwright 2017, eq. 8), as in
    scipy.integrate.simpson."""
    n = len(y)
    h = (x[-1] - x[0]) / (n - 1)
    end = n - 1 + n % 2     # points under composite Simpson: odd
    total = h / 3.0 * (y[0:end - 2:2] + 4.0 * y[1:end - 1:2]
                       + y[2:end:2]).sum()
    if not n % 2:
        total += h / 12.0 * (5.0 * y[-1] + 8.0 * y[-2] - y[-3])
    return total


def _tail_integral(acc: PhaseAccumulator, start: float, stop: float,
                   side: str) -> float:
    """Integral of exp(-2 t(x)) over one forbidden tail."""
    if start == stop:
        return 0.0
    xs = np.linspace(start, stop, _TAIL_POINTS)
    tail = acc.left_tail if side == "left" else acc.right_tail
    return abs(_simpson(np.exp(-2.0 * tail(xs)), xs))


def _detect_wavenumber(potential: PotentialModel, level: EnergyLevel
                       ) -> float | None:
    """Constant wavenumber p/hbar when the momentum is flat in the region."""
    region = level.region
    field = MomentumField(potential, level.energy)
    xs = region.left + region.width * np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    ps = field.allowed_magnitude(xs)
    if np.max(ps) <= 0.0:
        return None
    if (np.max(ps) - np.min(ps)) / np.max(ps) > 1e-9:
        return None
    return float(ps[2] / potential.constants.hbar)


def build_state(potential: PotentialModel, level: EnergyLevel
                ) -> StateFunction:
    """Construct and normalize the piecewise state for a solved level."""
    region = level.region
    if region.width <= 0.0:
        raise UsageError("cannot build a state on a zero-width region")
    pot, reach_left = _tail_reach(potential, level.energy, region.left, -1)
    pot, reach_right = _tail_reach(pot, level.energy, region.right, +1)
    acc = PhaseAccumulator(pot, level.energy, region)

    xs = np.linspace(region.left, region.right, _INTERIOR_POINTS)
    us = acc.interior(xs)
    inner = _simpson(2.0 * np.cos(us - 0.25 * math.pi) ** 2, xs)
    left = _tail_integral(acc, region.left, reach_left, "left")
    right = _tail_integral(acc, region.right, reach_right, "right")
    total = inner + left + right
    if not (np.isfinite(total) and total > 0.0):
        raise NormalizationError("norm integral came out non-positive")
    norm = 1.0 / math.sqrt(total)
    return StateFunction(pot, level, acc, norm)


def paper_normalization(state: StateFunction) -> PaperNormalization:
    """Closed-form constant sqrt(k_n / (pi(n+1/2) + 1)) and its ratio
    to the numeric normalization; only standing-wave regions have one."""
    if state.wavenumber is None:
        raise UsageError(
            "no constant wavenumber for this level; the closed-form "
            "normalization applies to flat-momentum regions only")
    c = math.sqrt(state.wavenumber / (math.pi * (state.level.n + 0.5) + 1.0))
    return PaperNormalization(c, c / state.normalization_numeric)


def standing_wave(state: StateFunction, x: float) -> float:
    """Flat-region closed form sqrt(2k/(pi(n+1/2)+1)) cos(kx + pi n/2)."""
    amp = math.sqrt(2.0) * paper_normalization(state).constant
    return amp * math.cos(state.wavenumber * x + 0.5 * math.pi * state.level.n)


# -- quasi-classicality diagnostics -----------------------------------------

def _allowed_momentum(potential: PotentialModel, energy: float,
                      x: np.ndarray, region: ClassicalRegion,
                      strict: bool) -> np.ndarray:
    """Momentum p at each point, NaN where the diagnostics refuse one.

    A point is refused outside the allowed region (where V >= E) and where
    p falls below 1e-12 of sqrt(2m max(|E|, the model's energy_scale)).
    With ``strict`` the first refused point raises instead: UsageError
    outside the region, SingularPointError below the floor.
    """
    q = MomentumField(potential, energy).q(x)
    p_scale = math.sqrt(2.0 * potential.constants.mass
                        * max(abs(energy), potential.energy_scale))
    outside = (q <= 0.0) & ((x < region.left) | (x > region.right))
    p = np.sqrt(np.maximum(q, 0.0))
    refused = outside | (p < 1e-12 * p_scale)
    if strict and refused.any():
        i = np.flatnonzero(refused)[0]
        if outside.flat[i]:
            raise UsageError("point is not inside the allowed region")
        raise SingularPointError(
            f"momentum at x = {float(x.flat[i])} is below the diagnostic "
            "floor; too close to a turning point")
    return np.where(refused, np.nan, p)


def _potential_slope(potential: PotentialModel, x: np.ndarray,
                     region: ClassicalRegion) -> np.ndarray:
    if potential.has_derivative:
        return potential.derivative(x)
    h0 = 1e-6 * region.width
    h = np.minimum(h0, np.minimum(0.5 * (x - region.left),
                                  0.5 * (region.right - x)))
    h = np.where(h == 0.0, h0, h)
    v = potential.evaluate(np.concatenate((x + h, x - h)))
    return (v[:x.size] - v[x.size:]) / (2.0 * h)


def _epsilon(potential, energy, x, region, strict):
    p = _allowed_momentum(potential, energy, x, region, strict)
    ok = ~np.isnan(p)
    eps = np.full(x.shape, np.nan)
    dv = _potential_slope(potential, x[ok], region)
    hbar, mass, p = potential.constants.hbar, potential.constants.mass, p[ok]
    # at an extreme hbar both hbar m V' and p^3 leave the normal doubles
    # (near 1e375 at hbar = 1e250, 1e-450 at 1e-300), though eps is
    # scale-free: there it is taken from mantissas and exponents apart
    with np.errstate(all="ignore"):
        num, den = hbar * mass * dv, p ** 3
        e = -num / den
        lost = ~((_normal(num) | (dv == 0.0)) & _normal(den))
        if lost.any():
            (mh, eh), (mm, em) = np.frexp(hbar), np.frexp(mass)
            md, ed = np.frexp(dv[lost])
            mp, ep = np.frexp(p[lost])
            e[lost] = np.ldexp(-(mh * mm * md) / mp ** 3,
                               eh + em + ed - 3 * ep)
    eps[ok] = e
    return eps


def _normal(y: np.ndarray) -> np.ndarray:
    """Where y is a finite normal double, not 0, subnormal, inf or NaN."""
    a = np.abs(y)
    return (a >= np.finfo(float).tiny) & (a <= np.finfo(float).max)


def epsilon_parameter(potential: PotentialModel, energy: float, x,
                      region: ClassicalRegion | None = None):
    """Local expansion parameter (hbar / p^2) dp/dx.

    Zero for flat potentials, grows without bound toward turning points;
    the state construction is trustworthy where this is small.  ``x`` may
    be a float (refused points raise UsageError or SingularPointError) or
    an array (refused points come back as NaN).
    """
    x = np.asarray(x, dtype=float)
    if region is None:
        region = find_turning_points(potential, energy).require_single()
    eps = _epsilon(potential, energy, x.reshape(-1), region, x.ndim == 0)
    return float(eps[0]) if x.ndim == 0 else eps.reshape(x.shape)


def delta_functional(potential: PotentialModel, energy: float, x,
                     region: ClassicalRegion | None = None):
    """Second-order diagnostic 0.5 d(eps)/d(phi) + 0.25 eps^2.

    Takes a float or an array like :func:`epsilon_parameter`; a point
    without room for the central derivative step is refused too.
    """
    shape = np.shape(x)
    x = np.asarray(x, dtype=float).reshape(-1)
    if region is None:
        region = find_turning_points(potential, energy).require_single()
    scalar = shape == ()
    p = _allowed_momentum(potential, energy, x, region, scalar)
    h = np.minimum(1e-6 * region.width,
                   0.45 * np.minimum(x - region.left, region.right - x))
    if scalar and not h[0] > 0.0:
        raise SingularPointError("no room for a derivative step here")
    ok = ~np.isnan(p) & (h > 0.0)
    xo, ho, m = x[ok], h[ok], np.count_nonzero(ok)
    eps = _epsilon(potential, energy, np.concatenate((xo + ho, xo - ho, xo)),
                   region, scalar)
    deps_dx = (eps[:m] - eps[m:2 * m]) / (2.0 * ho)
    out = np.full(x.shape, np.nan)
    out[ok] = (0.5 * (potential.constants.hbar / p[ok]) * deps_dx
               + 0.25 * eps[2 * m:] * eps[2 * m:])
    return float(out[0]) if scalar else out.reshape(shape)


# -- connection checks -------------------------------------------------------

@dataclass(frozen=True)
class ContinuityReport:
    """Branch jumps probed at the two turning points x1, x2;
    ``max_residual`` is the largest of the four."""

    value_gap: tuple[float, float]        # |psi jump| probed at x1, x2
    derivative_gap: tuple[float, float]   # |dpsi/dphi jump| at x1, x2
    max_residual: float


def connection_check(state: StateFunction) -> ContinuityReport:
    """Verify the branch hand-off at both anchors.

    Probes the evaluated state just inside and outside each turning point
    and compares the two branches' values and phase derivatives there.
    """
    region = state.level.region
    h = 1e-8 * region.width

    gaps = []
    dgaps = []
    for anchor_x in (region.left, region.right):
        lo = state.sample(anchor_x - h)
        hi = state.sample(anchor_x + h)
        gaps.append(abs(hi.psi - lo.psi))
        dgaps.append(abs(state.branch_derivative(hi.phi, hi.region)
                         - state.branch_derivative(lo.phi, lo.region)))
    return ContinuityReport(tuple(gaps), tuple(dgaps), max(*gaps, *dgaps))
