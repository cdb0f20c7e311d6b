"""Independent grid-based reference solver for auditing quantized spectra.

The potential is discretized with second-order central differences on a
Dirichlet box and the lowest eigenvalues of the resulting symmetric
tridiagonal operator come from LAPACK (stebz bisection), through
scipy.linalg.eigh_tridiagonal; scipy.linalg loads on the first call to
:meth:`TridiagonalOperator.lowest`, so only the audit path pays for it.
:meth:`TridiagonalOperator.counts`, a vectorized Sturm count, is no part of
the reference: no production path calls it, and the tests use it as an
independent check on the LAPACK eigenvalues.  Nothing here touches the
phase-integral machinery: this path exists so the two solvers can be
compared without a shared failure mode, so keep it that way.  It uses
only the model (V, its minimum, the scan grid and domain moves; never
``leans`` or ``turns``) and :func:`~phasebound.potentials.decay_reach`,
which the quantizer never calls.

The reference follows one fixed policy: a box sized for the requested
levels and three grids on it, of 1001, 2001 and 4001 points (steps h, h/2
and h/4).  On a smooth well the central-difference eigenvalues expand in
even powers of h (Paine, de Hoog & Anderssen, Computing 26, 1981), so
E = (64 E_{h/4} - 20 E_{h/2} + E_h) / 45 cancels the h^2 and h^4 terms.
Finer grids would not help: the eigensolver's rounding error grows like
1/h^2.  A coarse solve (801 points) estimates the top requested level
E_top on a domain that covers it: while E_top's classical region on 2001
points reaches a soft end, that side takes the model's growth step
(``widened``: the larger of the domain width and the model's
``length``) and the solve runs again, at most 20 times.  Each soft box
edge is where the walk out of E_top's classical region, 1000 steps to
that width, first takes the decay exponent (the integral of
sqrt(2m(V - E_top))/hbar from the classical boundary) to 14 within 64
widths: the state has fallen by e^-14 there, and the wall's shift of the
level, of order e^-28, stays below the discretization error.  The rule
asks nothing of the level spacing or of the height of V, so a degenerate
doublet at the top and a tail that flattens out (Morse, Coulomb) need
no special case.  Hard domain edges (tabulated data, the r = 0 axis) are
used as walls directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleError, UsageError
from .potentials import PotentialModel, decay_reach

_DECAY = 14.0           # decay exponent at each soft wall
_MAX_BOX_GROWTH = 20    # soft-edge moves of the coarse solve's domain
_GRID_POINTS = 1001     # the coarsest grid; the others halve its step twice


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal Hamiltonian on an interior grid."""

    diag: np.ndarray
    off: float

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
        """Lowest ``count`` eigenvalues in ascending order; OracleError
        when the operator has over- or underflowed."""
        if not 1 <= count <= self.size:
            raise UsageError("level count must be between 1 and the grid size")
        if not (self.off != 0.0 and np.isfinite(self.diag).all()
                and math.isfinite(self.off)):
            raise OracleError("the finite-difference operator is out of "
                              f"double range (off-diagonal {self.off!r})")
        from scipy.linalg import eigh_tridiagonal

        # stebz stops converging far from unit scale (|off| ~ 1e156 for
        # harmonic(1e150)), so it sees the operator over the power of two
        # nearest |off|: exact both ways
        k = round(math.log2(abs(self.off)))
        values = eigh_tridiagonal(np.ldexp(self.diag, -k),
                                  np.full(self.size - 1,
                                          math.ldexp(self.off, -k)),
                                  eigvals_only=True, select="i",
                                  select_range=(0, count - 1))
        return np.ldexp(values, k)


def _auto_box(potential: PotentialModel, count: int) -> tuple[float, float]:
    pot = potential
    for moves in range(_MAX_BOX_GROWTH + 1):
        e_top = float(discretize(pot, pot.domain, 801).lowest(count)[-1])
        if e_top <= pot.minimum()[1]:
            raise OracleError("level estimate fell below the potential floor")
        xs = pot.grid(2001)
        allowed = xs[pot.evaluate(xs) <= e_top]
        if not allowed.size:
            raise OracleError("no classical region at the estimated top level")
        # a soft end inside the top level's classical region squeezes it
        wider = pot.widened(allowed[0] == xs[0], allowed[-1] == xs[-1])
        if wider is pot:
            break
        if moves == _MAX_BOX_GROWTH:
            raise OracleError("auto box cannot confine the requested levels "
                              "(the top level keeps reaching a soft edge)")
        pot = wider
    walls = []
    for side, start in ((-1, allowed[0]), (+1, allowed[-1])):
        wall = pot.domain[side > 0]
        if pot.edges[side > 0] == "soft":
            _, wall = decay_reach(pot, e_top, start, side, 1000, _DECAY, 64)
        if wall is None:
            raise OracleError(
                "auto box cannot confine the requested levels "
                f"({'below' if side < 0 else 'above'} the well)")
        walls.append(wall)
    lo, hi = walls
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
    return TridiagonalOperator(diag, off)


def reference_levels(potential: PotentialModel, count: int) -> np.ndarray:
    """Lowest ``count`` reference energies for a potential.

    Eigenvalues on the coarsest grid and on two grids of half and a
    quarter its step over the same box are Richardson-combined, which
    cancels the h^2 and h^4 terms of the discretization error.
    """
    if count < 1:
        raise UsageError("level count must be at least 1")
    box = _auto_box(potential, count)
    # steps h, h/2 and h/4 on one box
    e_h, e_h2, e_h4 = (
        discretize(potential, box, (_GRID_POINTS - 1) * k + 1).lowest(count)
        for k in (1, 2, 4))
    return (64.0 * e_h4 - 20.0 * e_h2 + e_h) / 45.0
