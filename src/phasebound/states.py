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

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .classical import (ClassicalRegion, PhaseAccumulator,
                        find_turning_points)
from .errors import (DomainError, NormalizationError, SingularPointError,
                     SolverError, UsageError)
from .potentials import MomentumField, PotentialModel
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
                 accumulator: PhaseAccumulator, normalization: float,
                 wavenumber: float | None):
        n = level.n
        self.potential = potential
        self.level = level
        self.anchors = (-0.5 * math.pi * (n + 0.5),
                        0.5 * math.pi * (n + 0.5))
        self.normalization_numeric = normalization
        self.wavenumber = wavenumber
        self._acc = accumulator
        self._sign = -1.0 if n % 2 else 1.0

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
    """Coarse march into a forbidden side until the decay budget is spent.

    Steps of span/512, trapezoid sum of the decay rate.  The steps are
    evaluated one span (512 steps) per call of V; positions and sums are
    accumulated in the same order as a step-by-step loop, so the stop
    position is the same to the bit.  Returns the (possibly soft-extended)
    potential and the stop position.
    """
    field = MomentumField(potential, energy)
    pot = potential
    span = pot.domain[1] - pot.domain[0]
    step = direction * span / 512.0
    x, total = start, 0.0
    k_prev = 0.0
    hbar = pot.constants.hbar
    flat_steps = 0
    budget = 200000     # steps plus domain extensions
    while budget > 0:
        xs = np.full(min(512, budget) + 1, step)
        xs[0] = x
        xs = np.add.accumulate(xs)[1:]
        lo, hi = pot.domain
        outside = np.flatnonzero((xs < lo) | (xs > hi))
        xs = xs[:outside[0]] if outside.size else xs
        k = field.forbidden_magnitude(xs) / hbar
        if total == 0.0:
            # barely out of the region yet; keep going, but a tail that
            # has not started to decay a full domain span out never will
            flat = int(np.argmax(k != 0.0)) if k.any() else k.size
            if flat_steps + flat >= 512:
                break
            flat_steps += flat
            budget -= flat
            if flat:
                x = xs[flat - 1]
            xs, k = xs[flat:], k[flat:]
        if k.size:
            stalls = np.flatnonzero(k == 0.0)
            stall = stalls[0] if stalls.size else k.size
            sums = np.add.accumulate(np.concatenate((
                [total],
                0.5 * (k + np.concatenate(([k_prev], k[:-1])))
                * abs(step))))[1:]
            hit = np.flatnonzero(sums[:stall] >= 1.1 * _TAIL_EXPONENT)
            if hit.size:
                return pot, xs[hit[0]]
            if stall < k.size:
                raise NormalizationError(
                    "forbidden tail stopped decaying; state not normalizable")
            total, k_prev, x = sums[-1], k[-1], xs[-1]
            budget -= k.size
        if outside.size:
            budget -= 1
            soft = pot.soft_edges[0] if direction < 0 else pot.soft_edges[1]
            if not soft:
                nudge = 1e-12 * span
                if direction < 0:
                    return pot, lo + nudge if pot.lo_open else lo
                return pot, hi - nudge if pot.hi_open else hi
            pot = pot.with_domain(lo - span if direction < 0 else lo,
                                  hi + span if direction > 0 else hi)
            field = MomentumField(pot, energy)
    raise NormalizationError("forbidden tail decays too slowly to normalize")


def _tail_integral(acc: PhaseAccumulator, start: float, stop: float,
                   side: str) -> float:
    """Integral of exp(-2 t(x)) over one forbidden tail."""
    if start == stop:
        return 0.0
    xs = np.linspace(start, stop, _TAIL_POINTS)
    tail = acc.left_tail if side == "left" else acc.right_tail
    return abs(simpson(np.exp(-2.0 * tail(xs)), x=xs))


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
        raise UsageError("cannot build a state on a degenerate region")
    pot, reach_left = _tail_reach(potential, level.energy, region.left, -1)
    pot, reach_right = _tail_reach(pot, level.energy, region.right, +1)
    acc = PhaseAccumulator(pot, level.energy, region)

    xs = np.linspace(region.left, region.right, _INTERIOR_POINTS)
    us = acc.interior(xs)
    inner = simpson(2.0 * np.cos(us - 0.25 * math.pi) ** 2, x=xs)
    left = _tail_integral(acc, region.left, reach_left, "left")
    right = _tail_integral(acc, region.right, reach_right, "right")
    total = inner + left + right
    if not (np.isfinite(total) and total > 0.0):
        raise NormalizationError("norm integral came out non-positive")
    norm = 1.0 / math.sqrt(total)
    return StateFunction(pot, level, acc, norm,
                         _detect_wavenumber(pot, level))


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
    p falls below 1e-12 of the well's momentum scale.  With ``strict`` the
    first refused point raises instead: UsageError outside the region,
    SingularPointError below the floor.
    """
    q = MomentumField(potential, energy).q(x)
    try:
        _, v_min = potential.minimum()
        p_scale = math.sqrt(2.0 * potential.constants.mass
                            * max(energy - v_min, abs(energy), 1e-300))
    except (SolverError, DomainError):
        p_scale = math.sqrt(2.0 * potential.constants.mass
                            * max(abs(energy), 1.0))
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
    eps[ok] = -potential.constants.hbar * potential.constants.mass * dv \
        / p[ok] ** 3
    return eps


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
    value_gap: tuple[float, float]        # |psi jump| probed at x1, x2
    derivative_gap: tuple[float, float]   # |dpsi/dphi jump| at x1, x2
    coefficient_residual: float           # matching-system residual
    max_residual: float


def connection_check(state: StateFunction) -> ContinuityReport:
    """Verify the branch hand-off at both anchors.

    Probes the evaluated state just inside and outside each turning point
    (value and phase-derivative), and checks the two-sided matching system
    A + B = C + D, i(A - B) = C - D for the complex decomposition of the
    interior branch against the exponential coefficients on either side.
    """
    region = state.level.region
    h = 1e-8 * region.width
    n = state.level.n

    gaps = []
    dgaps = []
    for anchor_x in (region.left, region.right):
        lo = state.sample(anchor_x - h)
        hi = state.sample(anchor_x + h)
        gaps.append(abs(hi.psi - lo.psi))
        dgaps.append(abs(state.branch_derivative(hi.phi, hi.region)
                         - state.branch_derivative(lo.phi, lo.region)))

    # Interior branch sqrt(2) cos(u - pi/4) = A e^{iu} + B e^{-iu} with
    # u the phase from the left anchor; left-side coefficients (C, D) in
    # the basis (e^{u}, e^{-u}) are (1, 0).
    a = complex(math.cos(0.25 * math.pi), -math.sin(0.25 * math.pi)) \
        / math.sqrt(2.0)
    b = a.conjugate()
    c, d = 1.0, 0.0
    res = max(abs(a + b - (c + d)), abs(1j * (a - b) - (c - d)))

    # Right anchor, in the phase variable v measured from phi2: interior
    # branch is (-1)^n sqrt(2) cos(v + pi/4); right coefficients (0, (-1)^n).
    sign = -1.0 if n % 2 else 1.0
    a2 = sign * b
    b2 = sign * a
    c2, d2 = 0.0, sign
    res = max(res, abs(a2 + b2 - (c2 + d2)),
              abs(1j * (a2 - b2) - (c2 - d2)))

    return ContinuityReport(tuple(gaps), tuple(dgaps), res,
                            max(res, *gaps, *dgaps))
