"""Classical structure at fixed energy: turning points, actions, phases.

Everything here works on a single (potential, energy) pair.  The named
families with a closed-form well (harmonic, linear, Morse, square well,
Coulomb with M^2 > 0, the polar barrier) and tables (one cubic root per
cell that V crosses) state their turning points; custom callables, the
non-Coulomb ``effective_radial`` potentials and Coulomb with M^2 = 0 have
theirs located by a sign scan over the squared momentum, each sign
change refined by Brent's method.
Action-type integrals are then taken over the classically allowed region
with a sine substitution that absorbs the square-root behaviour at the
interval ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, MultiRegionError, NoClassicalMotion,
                     SolverError, UsageError)
from .potentials import SCAN_POINTS, MomentumField, PotentialModel
from .quadrature import integrate_adaptive, integrate_cells
from .rootfind import bisect_then_brent

_HALF_PI = 0.5 * np.pi
_UNIFORM_CELLS = 64
_GRADED_CELLS = 40
# extra cumulative knots, as fractions of the reach from the start
_EXTRA_KNOTS = np.concatenate((
    np.arange(1, _UNIFORM_CELLS + 1) / _UNIFORM_CELLS,
    0.5 ** np.arange(1, _GRADED_CELLS + 1)))


@dataclass(frozen=True)
class ClassicalRegion:
    """One classically allowed interval, from ``left`` to ``right``.

    A side ends at a turning point or at one of the model's ``ends``;
    :meth:`PotentialModel.leans` tells which at the region's energy.
    """

    left: float
    right: float

    @property
    def width(self) -> float:
        return self.right - self.left

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.left + self.right)


@dataclass(frozen=True)
class TurningPointReport:
    """Scan outcome at one energy: its allowed regions, at least one."""

    energy: float
    regions: tuple[ClassicalRegion, ...]

    def require_single(self) -> ClassicalRegion:
        """The lone allowed region, or a refusal when there are several."""
        if len(self.regions) > 1:
            raise MultiRegionError(
                f"{len(self.regions)} allowed regions at E = {self.energy}; "
                "tunnelling-coupled wells are not supported")
        return self.regions[0]


def find_turning_points(potential: PotentialModel,
                        energy: float) -> TurningPointReport:
    """Locate the classically allowed regions, where 2m(E - V) > 0, at
    the given energy.

    A named family with a closed-form well (harmonic, linear, Morse,
    square well, Coulomb with M^2 > 0, the polar barrier) states its two
    turning points (:attr:`PotentialModel.turns`), and a table states
    those of every region, from the cubics of the cells that V crosses.
    They pair into regions, each clipped to the model's ``ends``; a pair
    outside them, as on a sub-range of a table with two wells, gives
    none.  No scan runs, and no root is refined on V.
    Any other model (a custom callable, a radial potential that is not
    Coulomb, Coulomb with M^2 = 0) is scanned: sign changes of
    2m(E - V) over SCAN_POINTS uniform points from end to end, each
    refined by Brent's method; a scan point where V = E exactly, as on
    a plateau, counts as forbidden, so that the refinement finds where
    2m(E - V) > 0 ends.  A well narrower than the grid spacing, such as
    a Coulomb well on a domain many orders of magnitude wider than its
    classical region, leaves every scan point forbidden; then the floor
    x_min of :meth:`PotentialModel.minimum` joins the grid before the
    regions are read off it, and its two neighbours bracket the turning
    points.
    An energy at or below the floor raises NoClassicalMotion, as does
    one at which a potential with no floor allows no scan point.  Just
    above the floor the region is as narrow as its roots, down to a
    single point where they round together.
    """
    energy = float(energy)
    if potential.turns is None:
        field = MomentumField(potential, energy)
        xs = potential.grid(SCAN_POINTS)
        q = field.q(xs)
        if not (q > 0.0).any():
            try:
                x_min, v_min = potential.minimum()
            except (SolverError, DomainError):
                # V unbounded below, or not finite: no floor to insert
                x_min, v_min = None, math.inf
            if energy > v_min:
                k = int(np.searchsorted(xs, x_min))
                xs = np.insert(xs, k, x_min)
                q = np.insert(q, k, field.q(x_min))
        regions = _allowed_regions(field, xs, q)
    else:
        regions = _stated_regions(potential, energy)
    if not regions:
        raise NoClassicalMotion(
            f"no classically allowed region at E = {energy}")
    return TurningPointReport(energy, tuple(regions))


def _paired(bounds, lo: float, hi: float) -> list[ClassicalRegion]:
    """Regions between the sorted ``bounds`` taken in pairs, each clipped
    to [lo, hi]; a pair that lies outside it gives none."""
    regions = []
    for left, right in zip(bounds[::2], bounds[1::2]):
        left, right = max(left, lo), min(right, hi)
        if left <= right:
            regions.append(ClassicalRegion(left, right))
    return regions


def _stated_regions(potential: PotentialModel,
                    energy: float) -> list[ClassicalRegion]:
    """The regions between the model's stated turning points, clipped to
    its ``ends``; none at or below the floor, where they are not stated."""
    if not energy > potential.minimum()[1]:
        return []
    return _paired(potential.turns(energy), *potential.ends)


def _allowed_regions(field: MomentumField, xs: np.ndarray,
                     q: np.ndarray) -> list[ClassicalRegion]:
    """The intervals where q > 0 on the scan grid, with every sign change
    refined by Brent to a turning point and an allowed grid end as a
    region end.

    A grid value q = 0, where V meets E exactly as on a plateau, counts
    as forbidden: in its cell Brent refines q with each zero replaced by
    -|q| at the cell's allowed end, so that it finds where q > 0 ends
    rather than stopping at the zero.
    """
    mask = q > 0.0
    crossings = []
    # relative to the end nearer 0: a floor cell can reach far past the root
    for i in np.nonzero(mask[:-1] != mask[1:])[0]:
        xtol = 1e-15 * min(abs(xs[i]), abs(xs[i + 1]))
        f, fa, fb = field.q, q[i], q[i + 1]
        if fa == 0.0 or fb == 0.0:
            neg = -max(fa, fb)

            def f(x):
                return field.q(x) or neg

            fa, fb = fa or neg, fb or neg
        crossings.append(bisect_then_brent(f, xs[i], xs[i + 1], fa=fa,
                                           fb=fb, xtol=xtol))

    bounds = ([xs[0]] if mask[0] else []) + crossings + (
        [xs[-1]] if mask[-1] else [])
    return _paired(bounds, xs[0], xs[-1])


def _sine_integrand(region: ClassicalRegion, integrand, unit: float):
    """f(x) dx / unit over the region in the variable t of
    x = mid + half * sin(t), t in [-pi/2, pi/2]; the cosine factor absorbs
    the square-root behaviour at the interval ends.  The 1/unit joins the
    constant factor, so that no call divides."""
    mid, half = region.midpoint, 0.5 * region.width
    scale = half / unit

    def g(t):
        return scale * np.cos(t) * integrand(mid + half * np.sin(t))

    return g


def _over_region(region: ClassicalRegion, integrand,
                 knots: tuple[float, ...], unit: float) -> float:
    """Integrate f(x) / unit over the region via x = mid + half * sin(t).

    Taking the integral in ``unit``s of its result keeps the quadrature's
    tolerance relative to it whatever its scale.  The potential's
    ``knots`` inside the region, where f is only as smooth as an
    interpolant there, split the quadrature at their t.
    """
    if region.width == 0.0:
        return 0.0
    mid, half = region.midpoint, 0.5 * region.width
    points = [math.asin(min(max((x - mid) / half, -1.0), 1.0))
              for x in knots if region.left < x < region.right]
    return integrate_adaptive(_sine_integrand(region, integrand, unit),
                              -_HALF_PI, _HALF_PI, points).value


def _confined_region(potential: PotentialModel,
                     energy: float) -> ClassicalRegion:
    """The lone allowed region; DomainError when it leans on a soft edge,
    past which the true region, and any integral over it, goes on."""
    region = find_turning_points(potential, energy).require_single()
    if potential.widened(*potential.leans(energy)) is not potential:
        raise DomainError(f"allowed region at E = {energy} reaches a soft "
                          "domain edge; widen the domain")
    return region


def action_integral(potential: PotentialModel, energy: float,
                    region: ClassicalRegion | None = None) -> float:
    """W(E) = integral of sqrt(2m(E - V)) over the allowed region.

    The quadrature takes the phase W/hbar, the integrand of
    :meth:`PhaseAccumulator.interior`, so that its tolerance is in units
    of hbar whatever hbar is; the result is multiplied back by hbar.
    Without ``region`` the turning-point scan finds it, and one that
    reaches a soft domain edge raises DomainError.
    """
    if region is None:
        region = _confined_region(potential, energy)
    hbar = potential.constants.hbar
    two_m, energy = 2.0 * potential.constants.mass, float(energy)
    evaluate = potential.evaluate

    def momentum(x):    # MomentumField.allowed_magnitude, in one frame
        return np.sqrt(np.maximum(two_m * (energy - evaluate(x)), 0.0))

    return hbar * _over_region(region, momentum, potential.knots, hbar)


def action_energy_derivative(potential: PotentialModel, energy: float,
                             region: ClassicalRegion | None = None) -> float:
    """dW/dE = integral of m / p over the allowed region.

    The 1/sqrt endpoint behaviour is tamed by the sine substitution; the
    few points that land outside the refined region (where the clamped
    momentum is zero) lie outside the true interval too, so their
    contribution is dropped rather than divided by zero.  As W is taken
    in units of hbar, dW/dE is taken in units of hbar / |E - V| at the
    region's midpoint, rounded down to a power of two so that the scaling
    is exact, and multiplied back.  Without ``region``, one that reaches a
    soft edge raises DomainError, as in :func:`action_integral`.
    """
    if region is None:
        region = _confined_region(potential, energy)
    field = MomentumField(potential, energy)
    m = potential.constants.mass
    gap = energy - float(potential.evaluate(region.midpoint))
    unit = math.ldexp(1.0, -math.frexp(gap / potential.constants.hbar)[1])

    def integrand(x):
        p = field.allowed_magnitude(x)
        return np.where(p > 0.0, m / np.where(p > 0.0, p, 1.0), 0.0)

    return unit * _over_region(region, integrand, potential.knots, unit)


class PhaseAccumulator:
    """Phase integrals at one energy, measured from the turning points.

    ``interior`` gives (1/hbar) * integral of p from the region's left end;
    the tail methods give the decay exponent (1/hbar) * integral of |p|
    from the nearer turning point out into the forbidden side.  Each takes
    a float or an array and returns the same shape.  An array is
    integrated cumulatively over the cells between its sorted points in
    one batched pass (:func:`~phasebound.quadrature.integrate_cells`), so a
    whole grid costs a few calls of V.
    """

    def __init__(self, potential: PotentialModel, energy: float,
                 region: ClassicalRegion):
        self.potential = potential
        self.energy = float(energy)
        self.region = region
        self._field = MomentumField(potential, energy)
        self._hbar = potential.constants.hbar

    def _cumulative(self, g, start: float, u: np.ndarray):
        """Integral of g from ``start`` to each entry of ``u`` (>= start).

        The cells run between the sorted entries of ``u`` and a fixed set
        of extra knots out to the farthest entry: _UNIFORM_CELLS equal
        cells, so that a few scattered points are resolved like a grid,
        and _GRADED_CELLS cells halving in width toward ``start``, so that
        a square-root onset there is resolved in the first pass.
        """
        if u.size == 0:
            return np.zeros(u.shape)
        knots = np.concatenate((u.ravel(), start + (u.max() - start)
                                * _EXTRA_KNOTS))
        order = np.argsort(knots)
        cells = integrate_cells(g, np.concatenate(([start], knots[order])))
        phi = np.empty(knots.size)
        phi[order] = np.cumsum(cells)
        phi = phi[:u.size]
        return float(phi[0]) if u.ndim == 0 else phi.reshape(u.shape)

    def interior(self, x):
        x = np.asarray(x, dtype=float)
        region = self.region
        if (x < region.left).any() or (x > region.right).any():
            raise UsageError("point lies outside the allowed region")
        g = _sine_integrand(region, self._field.allowed_magnitude,
                            self._hbar)
        if region.width == 0.0:
            # every cell of a zero-width region is empty: no V call
            return self._cumulative(g, 0.0, np.zeros_like(x))
        sine = np.clip((x - region.midpoint) / (0.5 * region.width),
                       -1.0, 1.0)
        return self._cumulative(g, -_HALF_PI, np.arcsin(sine))

    def _tail(self, x: np.ndarray, side: int):
        # Plain x (mirrored to y = -x on the left, so both tails run
        # upward): unlike a variable such as x = x_tp - s^2, it keeps the
        # full relative precision of x next to a singular origin, as in
        # a radial tail running toward r = 0.  The graded knots of
        # _cumulative take care of the square-root onset at x_tp.
        x_tp = self.region.left if side < 0 else self.region.right
        return self._cumulative(
            lambda y: self._field.forbidden_magnitude(side * y) / self._hbar,
            side * x_tp, side * x)

    def left_tail(self, x):
        x = np.asarray(x, dtype=float)
        if (x > self.region.left).any():
            raise UsageError("point lies right of the left turning point")
        return self._tail(x, -1)

    def right_tail(self, x):
        x = np.asarray(x, dtype=float)
        if (x < self.region.right).any():
            raise UsageError("point lies left of the right turning point")
        return self._tail(x, +1)
