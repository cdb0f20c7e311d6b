"""Central-potential problems split into azimuthal, polar and radial parts.

The separation constants follow from two quantizations that need no
potential at all: periodicity of the azimuthal factor gives M_z = m_z
hbar, and the phase-integral condition applied to the polar equation
(whose integral evaluates in closed form to pi (M - |M_z|)) gives
M = hbar (n_theta + 1/2) + |M_z|.  The radial problem then reduces to the
one-dimensional engine on V(r) + M^2 / (2 m r^2).

``canonical_3d_residual`` closes the loop: a product of factors solving
the three separated equations must satisfy the underlying second-order
3D equation identically, which is checked pointwise by finite
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classical import action_integral, find_turning_points
from .errors import SingularPointError, SolverError, UsageError
from .potentials import PhysicalConstants, PotentialModel, effective_radial
from .quantize import EnergyLevel, solve_level, spectrum

_CROSS_CHECK_RTOL = 1e-8


@dataclass(frozen=True)
class AngularQuantumNumbers:
    m_z: int
    n_theta: int
    M_z: float
    M: float

    @property
    def l_equivalent(self) -> int:
        return self.n_theta + abs(self.m_z)


@dataclass(frozen=True)
class RadialResult:
    """Levels of the effective radial problem; ``n`` of each is n_r."""

    angular: AngularQuantumNumbers
    m_squared: float
    levels: tuple[EnergyLevel, ...]
    truncated: bool = False
    reason: str | None = None


def _require_integer(m_z) -> int:
    if isinstance(m_z, bool) or m_z != int(m_z):
        raise UsageError(f"azimuthal number must be an integer, got {m_z!r}")
    return int(m_z)


def azimuthal_eigenvalue(m_z: int,
                         constants: PhysicalConstants | None = None) -> float:
    """M_z = m_z * hbar, fixed by single-valuedness around the axis."""
    c = constants or PhysicalConstants()
    return _require_integer(m_z) * c.hbar


def _polar_potential(m_z_momentum: float,
                     constants: PhysicalConstants) -> PotentialModel:
    """The polar problem as a 1D model on (0, pi) with auxiliary mass 1/2.

    With mass fixed at 1/2 the solved energy is exactly M^2.  The barrier
    is lowest at theta = pi/2, and its turning points are where
    sin(theta) = |M_z| / sqrt(E).
    """
    mz = abs(m_z_momentum)
    mz2 = m_z_momentum * m_z_momentum

    def f(theta):
        s = np.sin(theta)
        return mz2 / (s * s)

    def turns(e):
        theta = math.asin(mz / math.sqrt(e))
        return theta, math.pi - theta

    return PotentialModel(
        "polar_barrier", {"m_z_momentum": m_z_momentum}, f, None,
        PhysicalConstants(constants.hbar, 0.5), (0.0, math.pi),
        edges=("open", "open"), floor_at=(0.5 * math.pi,), turns=turns)


def angular_eigenvalue(n_theta: int, m_z_momentum: float,
                       constants: PhysicalConstants | None = None) -> float:
    """Total angular momentum magnitude M for (n_theta, M_z).

    Returns the closed form hbar (n_theta + 1/2) + |M_z|, which follows
    from the exact polar phase integral.  Every call checks it against
    the generic machinery on the polar model: the full quantizer when
    M_z is nonzero, or, when M_z = 0 and V vanishes, the phase integral
    W(M^2) / pi between its stated ends 0 and pi; a disagreement beyond
    1e-8 relative is an error.
    """
    if n_theta < 0 or n_theta != int(n_theta):
        raise UsageError("n_theta must be a non-negative integer")
    c = constants or PhysicalConstants()
    closed = c.hbar * (n_theta + 0.5) + abs(m_z_momentum)
    polar = _polar_potential(m_z_momentum, c)
    if m_z_momentum == 0.0:
        numeric = action_integral(polar, closed * closed) / math.pi
    else:
        numeric = math.sqrt(solve_level(polar, int(n_theta)).energy)
    if abs(numeric - closed) > _CROSS_CHECK_RTOL * closed:
        raise SolverError(
            f"polar quantization disagrees with the closed form: "
            f"{numeric!r} vs {closed!r}")
    return closed


def angular_numbers(n_theta: int, m_z: int,
                    constants: PhysicalConstants | None = None
                    ) -> AngularQuantumNumbers:
    c = constants or PhysicalConstants()
    mz_momentum = azimuthal_eigenvalue(m_z, c)
    m_total = angular_eigenvalue(n_theta, mz_momentum, c)
    return AngularQuantumNumbers(_require_integer(m_z), int(n_theta),
                                 mz_momentum, m_total)


def radial_spectrum(potential: PotentialModel, n_r_max: int, n_theta: int,
                    m_z: int) -> RadialResult:
    """Bound levels n_r = 0..n_r_max of the effective radial problem."""
    ang = angular_numbers(n_theta, m_z, potential.constants)
    m_sq = ang.M * ang.M
    v_eff = effective_radial(potential, m_sq)
    result = spectrum(v_eff, n_r_max)
    return RadialResult(ang, m_sq, result.levels, result.truncated,
                        result.reason)


# -- separated-state consistency ---------------------------------------------

@dataclass(frozen=True)
class SeparableState:
    """Product state R(r) * Theta(theta) * Phi(phi) at a given energy.

    The factors are plain callables; they are expected to solve the three
    separated equations (that is what the residual measures).  ``angular``
    is optional and only enables the turning-point proximity guard.
    """

    radial: Callable[[float], float]
    polar: Callable[[float], float]
    azimuthal: Callable[[float], float]
    energy: float
    angular: AngularQuantumNumbers | None = None


def assemble_state(radial: Callable[[float], float],
                   angular: AngularQuantumNumbers, energy: float,
                   constants: PhysicalConstants | None = None
                   ) -> SeparableState:
    """Attach closed-form angular factors to a radial profile.

    Limited to m_z = 0, where the polar equation has the elementary
    solution cos(M theta / hbar) and the azimuthal factor is constant.
    """
    if angular.m_z != 0:
        raise UsageError("closed-form polar factor exists only for m_z = 0")
    c = constants or PhysicalConstants()
    ratio = angular.M / c.hbar

    def polar(theta: float) -> float:
        return math.cos(ratio * theta)

    return SeparableState(radial, polar, lambda phi: 1.0, float(energy),
                          angular)


def _second_difference(f: Callable[[float], float], x: float,
                       h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def _guard_turning_points(potential: PotentialModel, state: SeparableState,
                          r: float, theta: float):
    energy = state.energy
    ang = state.angular
    v_eff = effective_radial(potential, ang.M * ang.M)
    for reg in find_turning_points(v_eff, energy).regions:
        for tp in (reg.left, reg.right):
            if abs(r - tp) < 1e-6 * max(1.0, abs(tp)):
                raise SingularPointError(
                    f"sample radius {r} sits on a radial turning point")
    if ang.M_z != 0.0:
        pot_theta = _polar_potential(ang.M_z, potential.constants)
        for reg in find_turning_points(pot_theta, ang.M * ang.M).regions:
            for tp in (reg.left, reg.right):
                if abs(theta - tp) < 1e-6 * max(1.0, abs(tp)):
                    raise SingularPointError(
                        f"sample angle {theta} sits on a polar turning point")


def canonical_3d_residual(potential: PotentialModel, state: SeparableState,
                          point: tuple[float, float, float],
                          step: float = 1e-4) -> float:
    """Pointwise defect of the separated product in the 3D equation.

    Evaluates -hbar^2 (d_rr + d_tt / r^2 + d_pp / (r sin th)^2) psi
    + 2m (V - E) psi with centered second differences of step ``step``
    in each coordinate.  Exact factors leave only the O(step^2)
    discretization error.
    """
    r, theta, phi = point
    if r - step <= 0.0:
        raise UsageError("radius too small for the difference stencil")
    if state.angular is not None:
        _guard_turning_points(potential, state, r, theta)
    hbar = potential.constants.hbar
    m = potential.constants.mass
    rr = state.radial(r)
    tt = state.polar(theta)
    pp = state.azimuthal(phi)
    d2r = _second_difference(state.radial, r, step)
    d2t = _second_difference(state.polar, theta, step)
    d2p = _second_difference(state.azimuthal, phi, step)
    sin_t = math.sin(theta)
    laplacian = (d2r * tt * pp
                 + rr * d2t * pp / (r * r)
                 + rr * tt * d2p / (r * r * sin_t * sin_t))
    v = potential.evaluate(r)
    psi = rr * tt * pp
    return abs(-hbar * hbar * laplacian
               + 2.0 * m * (v - state.energy) * psi)
