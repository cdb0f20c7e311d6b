"""Bound-state energies from the phase-integral quantization condition.

A level n is the root of F(E) = W(E)/hbar - pi*(n + 1/2), where W is the
action integral across the single classically allowed region.  W grows
monotonically with E for a single well, so the root is unique; it is
bracketed by geometric growth from just above the potential floor and
polished with Brent's method.

Potentials whose wells open up at finite energy (Morse, finite square
well, Coulomb tails) support finitely many levels; asking beyond the last
one raises LevelUnbound, which ``spectrum`` converts into a truncated
result with a recorded reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classical import (ClassicalRegion, TurningPointReport,
                        find_turning_points)
from .classical import action_integral
from .errors import LevelUnbound, PhaseboundError, SolverError, UsageError
from .potentials import PotentialModel
from .rootfind import bisect_then_brent

_RESIDUAL_LIMIT = 1e-10
_ENERGY_TOL = 1e-12        # relative, on the Brent energy
_MAX_ITERATIONS = 200      # bracket growth steps, and Brent steps
_BRACKET_GROWTH = 1.6      # geometric step of E - V_min while bracketing
_MAX_DOMAIN_GROWTH = 6     # soft-edge extensions before motion is unbound


@dataclass(frozen=True)
class EnergyLevel:
    """One solved bound state of the quantization condition."""

    n: int
    energy: float
    action: float
    region: ClassicalRegion
    residual: float
    iterations: int


@dataclass(frozen=True)
class SpectrumResult:
    levels: tuple[EnergyLevel, ...]
    truncated: bool = False
    reason: str | None = None

    @property
    def energies(self) -> list[float]:
        return [lv.energy for lv in self.levels]


class _Quantizer:
    """Solver state for one potential: working domain and eval counter."""

    def __init__(self, potential: PotentialModel):
        self.pot = potential
        self.evals = 0
        self.v_min = potential.minimum()[1]
        self.scale = max(1.0, abs(self.v_min))

    def survey(self, energy: float) -> tuple[float, TurningPointReport]:
        """W and turning-point report at one energy.

        Grows soft domain edges while the allowed region leans on them;
        a persistent lean means the motion escapes: LevelUnbound.  Domain
        growth is committed only when the probe succeeds, so failed
        probes above the binding ceiling cannot inflate the working
        domain for later ones.
        """
        self.evals += 1
        pot = self.pot
        for _ in range(_MAX_DOMAIN_GROWTH + 1):
            report = find_turning_points(pot, energy)
            if len(report.regions) > 1 and any(
                    (r.left_is_edge and pot.soft_edges[0])
                    or (r.right_is_edge and pot.soft_edges[1])
                    for r in report.regions):
                # A second allowed region hanging off a soft edge is the
                # continuum showing through past a barrier summit, not a
                # second well; the probe energy is not bound.  Interior
                # disjoint regions still refuse below via require_single.
                raise LevelUnbound(
                    f"motion at E = {energy:.12g} spills into an "
                    "edge-touching region beyond a barrier")
            region = report.require_single()
            grow_lo = region.left_is_edge and pot.soft_edges[0]
            grow_hi = region.right_is_edge and pot.soft_edges[1]
            if not (grow_lo or grow_hi):
                if region.left_is_edge or region.right_is_edge:
                    raise SolverError(
                        "allowed region reaches a hard domain edge; "
                        "cannot quantize against a data boundary")
                w = action_integral(pot, energy, region)
                self.pot = pot
                return w, report
            lo, hi = pot.domain
            span = hi - lo
            pot = pot.with_domain(lo - span if grow_lo else lo,
                                  hi + span if grow_hi else hi)
        raise LevelUnbound(
            f"motion at E = {energy:.12g} is not confined "
            "(allowed region keeps reaching the domain edge)")

    def condition(self, energy: float, target: float) -> float:
        w, _ = self.survey(energy)
        return w / self.pot.constants.hbar - target

    def _bracket(self, target: float, seed: float | None,
                 step_hint: float | None):
        """Return (a, fa, b, fb) with fa < 0 < fb around the level."""
        if seed is None:
            a = self.v_min + 1e-9 * self.scale
        else:
            a = seed
        fa = self.condition(a, target)
        while fa >= 0.0 and a > self.v_min:
            a = self.v_min + 0.5 * (a - self.v_min)
            fa = self.condition(a, target)
        if fa >= 0.0:
            raise SolverError("cannot find an energy below the level")

        step = step_hint if step_hint else 1e-3 * self.scale
        b = a + step
        for _ in range(_MAX_ITERATIONS):
            try:
                fb = self.condition(b, target)
            except LevelUnbound:
                return self._ceiling_bracket(a, fa, b, target)
            if fb > 0.0:
                return a, fa, b, fb
            a, fa = b, fb
            b = self.v_min + (b - self.v_min) * _BRACKET_GROWTH
            if b - self.v_min > 1e12 * self.scale:
                break
        raise SolverError(
            f"quantization target {target:.6g} not bracketed; "
            "potential may not support this level")

    def _ceiling_bracket(self, lo, flo, hi_bad, target):
        """Close in on the binding ceiling between a good and a bad energy."""
        for _ in range(128):
            if hi_bad - lo <= 1e-13 * max(1.0, abs(hi_bad)):
                break
            mid = 0.5 * (lo + hi_bad)
            try:
                fm = self.condition(mid, target)
            except LevelUnbound:
                hi_bad = mid
                continue
            if fm > 0.0:
                return lo, flo, mid, fm
            lo, flo = mid, fm
        raise LevelUnbound(
            f"quantization target {target:.6g} exceeds the phase available "
            f"below the binding ceiling (last bound probe E = {lo:.12g})")


def solve_level(potential: PotentialModel, n: int) -> EnergyLevel:
    """Energy of level n; raises LevelUnbound when the well cannot hold it."""
    return _solve(_Quantizer(potential), n, None, None)


def _solve(q: _Quantizer, n: int, seed, step_hint) -> EnergyLevel:
    if n < 0 or n != int(n):
        raise UsageError("level index must be a non-negative integer")
    target = math.pi * (n + 0.5)
    evals_before = q.evals
    a, fa, b, fb = q._bracket(target, seed, step_hint)
    hbar = q.pot.constants.hbar
    limit = _RESIDUAL_LIMIT * max(1.0, target)
    # where dW/dE is steep (weakly bound levels) the energy tolerance
    # alone leaves the residual above the limit, so also stop no coarser
    # than a tenth of the limit over the bracket's secant slope
    xtol = min(_ENERGY_TOL * max(1.0, abs(b)),
               0.1 * limit * (b - a) / (fb - fa))
    energy = bisect_then_brent(lambda e: q.condition(e, target), a, b,
                               fa=fa, fb=fb, xtol=xtol,
                               pre_bisect=2, maxiter=_MAX_ITERATIONS)
    w, report = q.survey(energy)
    residual = abs(w / hbar - target)
    if residual > limit:
        raise SolverError(
            f"level {n}: converged with residual {residual:.3e}, "
            "beyond the acceptance limit")
    return EnergyLevel(int(n), energy, w, report.require_single(),
                       residual, q.evals - evals_before)


def spectrum(potential: PotentialModel, n_max: int) -> SpectrumResult:
    """Levels 0..n_max; truncates with a reason when the well runs out."""
    if n_max < 0:
        raise UsageError("n_max must be non-negative")
    q = _Quantizer(potential)
    levels: list[EnergyLevel] = []
    for n in range(int(n_max) + 1):
        seed = levels[-1].energy if levels else None
        if len(levels) >= 2:
            hint = levels[-1].energy - levels[-2].energy
        elif levels:
            hint = max(1e-3 * q.scale, levels[-1].energy - q.v_min)
        else:
            hint = None
        try:
            level = _solve(q, n, seed, hint)
        except LevelUnbound as exc:
            return SpectrumResult(tuple(levels), True,
                                  f"level {n} is unbound: {exc}")
        if levels and not level.energy > levels[-1].energy:
            raise SolverError(
                f"spectrum not monotone at n = {n}; "
                "input potential is likely pathological")
        levels.append(level)
    return SpectrumResult(tuple(levels))


@dataclass(frozen=True)
class AuditRow:
    n: int
    quantized: float
    reference: float | None
    deviation: float | None
    note: str | None = None


def claim_audit(potential: PotentialModel, n_max: int) -> list[AuditRow]:
    """Per-level deviation of the phase-integral energies from a direct
    grid diagonalization of the same potential.

    Reference failures mark individual rows instead of failing the audit.
    """
    from numpy.linalg import LinAlgError
    from .oracle import reference_levels

    result = spectrum(potential, n_max)
    if not result.levels:
        return []
    rows: list[AuditRow] = []
    try:
        ref = reference_levels(potential, len(result.levels))
    except (PhaseboundError, LinAlgError) as exc:
        ref = None
        note = f"reference solver failed: {exc}"
    for i, lv in enumerate(result.levels):
        if ref is None:
            rows.append(AuditRow(lv.n, lv.energy, None, None, note))
            continue
        e_ref = ref[i]
        scale = max(abs(e_ref), 1e-300)
        rows.append(AuditRow(lv.n, lv.energy, e_ref,
                             abs(lv.energy - e_ref) / scale))
    return rows
