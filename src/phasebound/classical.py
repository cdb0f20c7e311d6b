"""Classical structure at fixed energy: turning points, actions, phases.

Everything here works on a single (potential, energy) pair.  Turning points
are located by a sign scan over the squared momentum plus root refinement,
then action-type integrals are taken over the classically allowed region
with a sine substitution that absorbs the square-root behaviour at the
interval ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, MultiRegionError, NoClassicalMotion,
                     SolverError, UsageError)
from .potentials import MomentumField, PotentialModel
from .quadrature import integrate_adaptive, integrate_cells
from .rootfind import bisect_then_brent

_HALF_PI = 0.5 * np.pi
_SCAN_POINTS = 512
_UNIFORM_CELLS = 64
_GRADED_CELLS = 40
# extra cumulative knots, as fractions of the reach from the start
_EXTRA_KNOTS = np.concatenate((
    np.arange(1, _UNIFORM_CELLS + 1) / _UNIFORM_CELLS,
    0.5 ** np.arange(1, _GRADED_CELLS + 1)))


@dataclass(frozen=True)
class ClassicalRegion:
    """One classically allowed interval.

    An edge flag marks a side that stops at the working domain boundary
    (a wall) rather than at a genuine turning point.
    """

    left: float
    right: float
    left_is_edge: bool = False
    right_is_edge: bool = False

    @property
    def width(self) -> float:
        return self.right - self.left

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.left + self.right)


@dataclass(frozen=True)
class TurningPointReport:
    """Scan outcome at one energy."""

    energy: float
    regions: tuple[ClassicalRegion, ...]
    degenerate: bool

    def require_single(self) -> ClassicalRegion:
        """The lone allowed region, or a refusal when there are several."""
        if len(self.regions) == 1:
            return self.regions[0]
        if not self.regions:
            raise NoClassicalMotion(
                f"no classically allowed region at E = {self.energy}",
                report=self)
        raise MultiRegionError(
            f"{len(self.regions)} allowed regions at E = {self.energy}; "
            "tunnelling-coupled wells are not supported", report=self)


def find_turning_points(potential: PotentialModel,
                        energy: float) -> TurningPointReport:
    """Locate the classically allowed regions at the given energy.

    A uniform scan of 2m(E - V) over _SCAN_POINTS points finds sign
    changes, each refined to root precision.  A well narrower than the
    grid spacing, such as a Coulomb well on a domain many orders of
    magnitude wider than its classical region, leaves every scan point
    forbidden; then the floor x_min of :meth:`PotentialModel.minimum`
    joins the grid, and its two neighbours bracket the turning points.
    An energy within 1e-8 (relative) of the floor yields a degenerate
    zero-width region; one below the floor, or on a potential with no
    floor, raises NoClassicalMotion.
    """
    energy = float(energy)
    field = MomentumField(potential, energy)
    xs = potential.grid(_SCAN_POINTS)
    q = field.q(xs)
    regions = _allowed_regions(field, xs, q)
    if not regions or (len(regions) == 1
                       and regions[0].width < 1e-6 * (xs[-1] - xs[0])):
        try:
            x_min, v_min = potential.minimum()
        except (SolverError, DomainError):   # V unbounded below, or not finite
            x_min = v_min = None
        if v_min is not None and abs(energy - v_min) <= 1e-8 * max(
                1.0, abs(energy), abs(v_min)):
            region = ClassicalRegion(x_min, x_min)
            return TurningPointReport(energy, (region,), True)
        if not regions:
            if v_min is None or energy < v_min:
                raise NoClassicalMotion(
                    f"no classically allowed region at E = {energy}",
                    report=TurningPointReport(energy, (), False))
            # E is above the floor, so q(x_min) > 0
            k = int(np.searchsorted(xs, x_min))
            xs = np.insert(xs, k, x_min)
            q = np.insert(q, k, field.q(x_min))
            regions = _allowed_regions(field, xs, q)
    return TurningPointReport(energy, tuple(regions), False)


def _allowed_regions(field: MomentumField, xs: np.ndarray,
                     q: np.ndarray) -> list[ClassicalRegion]:
    """The intervals where q > 0 on the scan grid, with every sign change
    refined to a turning point."""
    mask = q > 0.0
    crossings = []
    sgn = np.where(q > 0.0, 1.0, -1.0)
    for i in np.nonzero(sgn[:-1] * sgn[1:] < 0.0)[0]:
        crossings.append(bisect_then_brent(
            field.q, xs[i], xs[i + 1], fa=q[i], fb=q[i + 1],
            xtol=1e-15 * max(1.0, abs(xs[i]), abs(xs[i + 1]))))

    regions = []
    cursor = xs[0] if mask[0] else None
    cursor_is_edge = bool(mask[0])
    for c in crossings:
        if cursor is None:
            cursor, cursor_is_edge = c, False
        else:
            regions.append(ClassicalRegion(cursor, c, cursor_is_edge, False))
            cursor = None
    if cursor is not None:
        regions.append(ClassicalRegion(cursor, xs[-1], cursor_is_edge, True))
    return regions


def _sine_integrand(region: ClassicalRegion, integrand):
    """f(x) dx over the region in the variable t of x = mid + half * sin(t),
    t in [-pi/2, pi/2]; the cosine factor absorbs the square-root
    behaviour at the interval ends."""
    mid, half = region.midpoint, 0.5 * region.width

    def g(t):
        return half * np.cos(t) * integrand(mid + half * np.sin(t))

    return g


def _over_region(region: ClassicalRegion, integrand) -> float:
    """Integrate f(x) over the region via x = mid + half * sin(t)."""
    if region.width == 0.0:
        return 0.0
    return integrate_adaptive(_sine_integrand(region, integrand),
                              -_HALF_PI, _HALF_PI).value


def action_integral(potential: PotentialModel, energy: float,
                    region: ClassicalRegion | None = None) -> float:
    """W(E) = integral of sqrt(2m(E - V)) over the allowed region."""
    if region is None:
        region = find_turning_points(potential, energy).require_single()
    return _over_region(region,
                        MomentumField(potential, energy).allowed_magnitude)


def action_energy_derivative(potential: PotentialModel, energy: float,
                             region: ClassicalRegion | None = None) -> float:
    """dW/dE = integral of m / p over the allowed region.

    The 1/sqrt endpoint behaviour is tamed by the sine substitution; the
    few points that land outside the refined region (where the clamped
    momentum is zero) lie outside the true interval too, so their
    contribution is dropped rather than divided by zero.
    """
    if region is None:
        region = find_turning_points(potential, energy).require_single()
    field = MomentumField(potential, energy)
    m = potential.constants.mass

    def integrand(x):
        p = field.allowed_magnitude(x)
        return np.where(p > 0.0, m / np.where(p > 0.0, p, 1.0), 0.0)

    return _over_region(region, integrand)


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
        if np.any(x < region.left) or np.any(x > region.right):
            raise UsageError("point lies outside the allowed region")
        g = _sine_integrand(
            region, lambda s: self._field.allowed_magnitude(s) / self._hbar)
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
        if np.any(x > self.region.left):
            raise UsageError("point lies right of the left turning point")
        return self._tail(x, -1)

    def right_tail(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < self.region.right):
            raise UsageError("point lies left of the right turning point")
        return self._tail(x, +1)
