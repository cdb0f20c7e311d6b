"""Independent grid-based reference solver for auditing quantized spectra.

The potential is discretized with second-order central differences on a
Dirichlet box and the lowest eigenvalues of the resulting symmetric
tridiagonal operator come from LAPACK (stebz bisection), through
scipy.linalg.eigh_tridiagonal.  A vectorized Sturm count stays alongside
as an independent check on those eigenvalues.  Nothing here touches the
phase-integral machinery: this path exists so the two solvers can be
compared without a shared failure mode, so keep it that way.

The reference follows one fixed policy: a box sized for the requested
levels, 4001 grid points, Richardson-combined with 8001 points on the same
box.  Both box edges must clear the highest requested level by a margin of
5*hbar*omega_char (omega_char from the level spacing at the top of the
stack, or from the curvature at the well bottom when only one level is
asked for) and accumulate a decay exponent of at least 14 across the
forbidden zone, which keeps the truncation error below the
h^2 discretization error.  Where a potential flattens out below the
margin bar (Morse tails, Coulomb tails) the march stops once the decay
exponent alone reaches 16; insisting on the unreachable margin would
reject confining wells that plainly hold bound states.  Hard domain
edges (tabulated data, the r = 0 axis) are used as walls directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import OracleError, UsageError
from .potentials import PotentialModel

_DECAY_REQUIRED = 14.0
_DECAY_ENOUGH = 16.0
_GRID_POINTS = 4001     # the coarse grid; the fine one has 2 * 4001 - 1


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal Hamiltonian on an interior grid."""

    diag: np.ndarray
    off: float
    a: float
    b: float
    h: float
    x: np.ndarray

    @property
    def size(self) -> int:
        return len(self.diag)

    def counts(self, shifts: np.ndarray) -> np.ndarray:
        """Vectorized eigenvalue counting over many shifts at once.

        Counts, per shift, the negative pivots of the LDL^T factorization
        of T - shift*I, i.e. the eigenvalues strictly below the shift.
        A zero pivot sends the next one to -inf, which the IEEE
        arithmetic then recovers from on its own, so no perturbation
        loop is needed.
        """
        shifts = np.asarray(shifts, dtype=float)
        diag = self.diag
        off_sq = self.off * self.off
        d = diag[0] - shifts
        count = (d < 0.0).astype(np.int64)
        buf = np.empty_like(d)
        neg = np.empty(d.shape, dtype=bool)
        with np.errstate(divide="ignore", over="ignore"):
            for i in range(1, self.size):
                np.divide(off_sq, d, out=buf)
                np.subtract(diag[i], shifts, out=d)
                d -= buf
                np.less(d, 0.0, out=neg)
                count += neg
        return count

    def lowest(self, count: int) -> np.ndarray:
        """Lowest ``count`` eigenvalues in ascending order."""
        if not 1 <= count <= self.size:
            raise UsageError("level count must be between 1 and the grid size")
        return eigh_tridiagonal(self.diag, np.full(self.size - 1, self.off),
                                eigvals_only=True, select="i",
                                select_range=(0, count - 1))


def _char_frequency(potential: PotentialModel) -> float:
    x0, _ = potential.minimum()
    lo, hi = potential.domain
    h = 1e-4 * (hi - lo)
    x0 = min(max(x0, lo + h), hi - h)
    curv = (potential.evaluate(x0 + h) - 2.0 * potential.evaluate(x0)
            + potential.evaluate(x0 - h)) / (h * h)
    if curv > 0.0:
        return float(np.sqrt(curv / potential.constants.mass))
    return 0.0


def _estimate_top_level(potential: PotentialModel, count: int
                        ) -> tuple[float, float]:
    """Crude top-level estimate and the spacing just above it.

    A coarse solve on the raw domain for count+1 levels; the gap between
    the top target and the next level up sets the characteristic
    frequency for the box margin.
    """
    lo, hi = potential.domain
    op = discretize(potential, (lo, hi), 801)
    coarse = op.lowest(count + 1)
    e_top = float(coarse[count - 1])
    spacing = float(coarse[count] - e_top)
    return e_top, spacing


def _extend_edge(potential: PotentialModel, e_top: float, side: int,
                 margin: float) -> float:
    """Box edge on one side (-1 lower, +1 upper).

    Marches outward from the classical boundary at e_top until the
    potential clears e_top + margin (margin rule) and the accumulated
    decay exponent reaches 14, or until the exponent alone reaches 16
    (for wells whose tails flatten out below the margin bar).  A hard
    domain edge is simply the wall.
    """
    lo, hi = potential.domain
    soft = potential.soft_edges[0] if side < 0 else potential.soft_edges[1]
    if not soft:
        return lo if side < 0 else hi
    m = potential.constants.mass
    hbar = potential.constants.hbar
    span = hi - lo
    target_v = e_top + margin

    xs = potential.grid(2001)
    mask = potential.evaluate(xs) <= e_top
    if not mask.any():
        raise OracleError("no classical region at the estimated top level")
    allowed = xs[mask]
    x = float(allowed[0] if side < 0 else allowed[-1])

    # The march takes steps of span/1000, one span of steps per call of V.
    # Positions and exponents accumulate in the order of a step-by-step
    # loop, so the edge found is the same to the bit.
    pot = potential
    expo = 0.0
    k_prev = 0.0
    dx = span / 1000.0
    step = -dx if side < 0 else dx
    limit = x - 64.0 * span if side < 0 else x + 64.0 * span
    while (x > limit) if side < 0 else (x < limit):
        xs = np.full(1001, step)
        xs[0] = x
        xs = np.add.accumulate(xs)
        # a step is taken only from a position short of the limit
        short = (xs[:-1] > limit) if side < 0 else (xs[:-1] < limit)
        taken = int(np.argmin(short)) if not short.all() else short.size
        xs = xs[1:taken + 1]
        d_lo, d_hi = pot.domain
        outside = np.flatnonzero((xs < d_lo) | (xs > d_hi))
        if outside.size:
            xs = xs[:outside[0]]
        if xs.size:
            v = pot.evaluate(xs)
            k = np.sqrt(2.0 * m * np.maximum(v - e_top, 0.0)) / hbar
            expos = np.add.accumulate(np.concatenate((
                [expo],
                0.5 * (k + np.concatenate(([k_prev], k[:-1]))) * dx)))[1:]
            stop = np.flatnonzero(
                (expos >= _DECAY_ENOUGH)
                | ((expos >= _DECAY_REQUIRED) & (v >= target_v)))
            if stop.size:
                return float(xs[stop[0]])
            expo, k_prev, x = expos[-1], k[-1], xs[-1]
        if outside.size:
            pot = pot.with_domain(d_lo - span if side < 0 else d_lo,
                                  d_hi if side < 0 else d_hi + span)
    raise OracleError(
        "auto box cannot confine the requested levels "
        f"({'below' if side < 0 else 'above'} the well)")


def _auto_box(potential: PotentialModel, count: int) -> tuple[float, float]:
    e_top, spacing = _estimate_top_level(potential, count)
    _, v_min = potential.minimum()
    if e_top <= v_min:
        raise OracleError("level estimate fell below the potential floor")
    hbar = potential.constants.hbar
    scale = max(1.0, abs(e_top), abs(v_min))
    omega = spacing / hbar if spacing > 1e-9 * scale \
        else _char_frequency(potential)
    margin = 5.0 * hbar * omega if omega > 0.0 \
        else 0.5 * (e_top - v_min)
    lo = _extend_edge(potential, e_top, -1, margin)
    hi = _extend_edge(potential, e_top, +1, margin)
    if not lo < hi:
        raise OracleError("auto box collapsed; potential looks unconfined")
    return lo, hi


def discretize(potential: PotentialModel, box, points: int
               ) -> TridiagonalOperator:
    """Central-difference Hamiltonian on ``points`` grid points spanning
    ``box``, with Dirichlet walls at both ends."""
    a, b = float(box[0]), float(box[1])
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise UsageError("box must be finite with a < b")
    if points < 3:
        raise UsageError("the grid needs at least 3 points")
    pot = potential
    dom_lo, dom_hi = pot.domain
    if a < dom_lo or b > dom_hi:
        pot = pot.with_domain(min(a, dom_lo), max(b, dom_hi))
    h = (b - a) / (points - 1)
    x = a + h * np.arange(1, points - 1)
    hbar, m = pot.constants.hbar, pot.constants.mass
    diag = hbar * hbar / (m * h * h) + pot.evaluate(x)
    off = -hbar * hbar / (2.0 * m * h * h)
    return TridiagonalOperator(diag, off, a, b, h, x)


def reference_levels(potential: PotentialModel, count: int) -> np.ndarray:
    """Lowest ``count`` reference energies for a potential.

    Eigenvalues on the coarse grid and on a doubled grid over the same box
    are Richardson-combined, trading one extra solve for two orders of
    grid accuracy.
    """
    if count < 1:
        raise UsageError("level count must be at least 1")
    box = _auto_box(potential, count)
    coarse = discretize(potential, box, _GRID_POINTS).lowest(count)
    fine = discretize(potential, box, 2 * _GRID_POINTS - 1).lowest(count)
    return (4.0 * fine - coarse) / 3.0
