"""Bound-state energies from the phase-integral quantization condition.

A level n is the root of F(E) = W(E)/hbar - pi*(n + 1/2), where W is the
action integral across the single classically allowed region.  W grows
monotonically with E for a single well, so the root is unique.  It is
bracketed from the level below, or from the floor, where W = 0 needs no
survey, by geometric growth in E - V_min that starts at the model's
``energy_scale`` (or 1e-3 |V_min| if larger), and polished with Brent's
method.  No tolerance is an absolute energy.  Past an unbound probe it
bisects toward that binding ceiling, testing confinement at each probe;
W is taken at the first four bound ones, then only where F's sign decides.

Potentials whose wells open up at finite energy (Morse, finite square
well, Coulomb tails) support finitely many levels; asking beyond the last
one raises LevelUnbound, which ``spectrum`` converts into a truncated
result with a recorded reason.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .classical import ClassicalRegion, find_turning_points
from .classical import action_integral
from .errors import LevelUnbound, PhaseboundError, SolverError, UsageError
from .potentials import PotentialModel
from .rootfind import bisect_then_brent

_RESIDUAL_LIMIT = 1e-10
_ENERGY_TOL = 1e-12        # relative, on the Brent energy
_MAX_ITERATIONS = 200      # bracket probes: growth, then bisection
_BRACKET_GROWTH = 1.6      # geometric step of E - V_min while bracketing
_MAX_DOMAIN_GROWTH = 6     # soft-edge moves before a scanned well escapes
_EAGER_PROBES = 4          # bound ceiling probes that take F when made


@dataclass(frozen=True)
class EnergyLevel:
    """One solved bound state of the quantization condition.

    ``iterations`` counts the W integrals taken for it; a probe that only
    tests confinement is not counted."""

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
    """Solver state for one potential: the model, whose soft sides have
    moved past a stated floor (level 0 starts there, where W = 0), the
    W-integral counter, every successful survey, (W, region) by energy,
    and every passed confinement test."""

    def __init__(self, potential: PotentialModel):
        floor = potential.floor_at
        while floor and (wider := potential.widened(
                min(floor) < potential.domain[0],
                max(floor) > potential.domain[1])) is not potential:
            potential = wider
        self.pot = potential
        self.evals = 0
        self._surveys: dict[float, tuple[float, ClassicalRegion]] = {}
        self._confined: dict = {}      # (model, region) by energy
        self.v_min = potential.minimum()[1]

    def confine(self, energy: float
                ) -> tuple[PotentialModel, ClassicalRegion]:
        """The model whose domain holds the allowed region at E, and the
        region: the confinement test of a survey, kept by energy.

        A soft edge the region leans on (``pot.leans``) takes the growth
        step ``pot.widened`` until the region fits.  The motion escapes,
        LevelUnbound before any move, where a stated turning point is
        infinite on such an edge, and for a scanned well, whose scan cannot
        see past its domain, after _MAX_DOMAIN_GROWTH moves.  The region is
        found once on the domain reached; one leaning on a hard or open
        edge is a SolverError.
        """
        hit = self._confined.get(energy)
        if hit is not None:
            return hit
        pot = self.pot
        lean_lo, lean_hi = pot.leans(energy)
        if pot.turns is not None and (lean_lo or lean_hi):
            turns = pot.turns(energy)
            if (lean_lo and turns[0] == -math.inf and pot.edges[0] == "soft"
                    or lean_hi and turns[-1] == math.inf
                    and pot.edges[1] == "soft"):
                raise LevelUnbound(f"motion at E = {energy:.12g} is not "
                                   "confined (a turning point is infinite)")
        growths = 0
        while (wider := pot.widened(lean_lo, lean_hi)) is not pot:
            if pot.turns is None and growths == _MAX_DOMAIN_GROWTH:
                raise LevelUnbound(
                    f"motion at E = {energy:.12g} is not confined "
                    "(allowed region keeps reaching the domain edge)")
            pot, growths = wider, growths + 1
            lean_lo, lean_hi = pot.leans(energy)
        region = find_turning_points(pot, energy).require_single()
        if lean_lo or lean_hi:
            raise SolverError("allowed region reaches a hard domain edge; "
                              "cannot quantize against a data boundary")
        self._confined[energy] = pot, region
        return pot, region

    def survey(self, energy: float) -> tuple[float, ClassicalRegion]:
        """W and the allowed region at energy E, a function of E alone:
        the confinement test (:meth:`confine`), then the W integral, which
        ``evals`` counts.  Every success is kept."""
        hit = self._surveys.get(energy)
        if hit is not None:
            return hit
        pot, region = self.confine(energy)
        self.evals += 1
        w = action_integral(pot, energy, region)
        self._surveys[energy] = (w, region)
        return w, region

    def condition(self, energy: float, target: float) -> float:
        w, _ = self.survey(energy)
        return w / self.pot.constants.hbar - target

    def _bracket(self, target: float, seed: float | None,
                 step_hint: float | None):
        """Return (a, fa, b, fb) with fa < 0 < fb around the level, from the
        seed (F is -pi plus the residual of the level below) or the floor.
        b grows in E - V_min; after an unbound probe it bisects up to that
        binding ceiling, and LevelUnbound follows a gap of 1e-13 of it.
        Each ceiling probe tests confinement; only the first _EAGER_PROBES
        bound ones take F.  The rest are ``deferred``: F is taken at the
        last, and where it is > 0, by bisection (F rises with E) at the
        first with F > 0, so the result is that of taking F at each.
        """
        a = self.v_min if seed is None else seed
        fa = -target if seed is None else self.condition(seed, target)
        step = step_hint or max(self.pot.energy_scale, 1e-3 * abs(self.v_min))
        b = a + step
        ceiling = None
        eager = _EAGER_PROBES
        deferred: list[float] = []     # from the last probe that took F
        for _ in range(_MAX_ITERATIONS):
            if ceiling is not None:
                if ceiling - a <= 1e-13 * max(abs(ceiling),
                                              self.pot.energy_scale):
                    break
                b = 0.5 * (a + ceiling)
            try:
                if ceiling is not None and eager <= 0:
                    self.confine(b)
                    deferred = (deferred or [a]) + [b]
                    a = b
                    continue
                fb = self.condition(b, target)
            except LevelUnbound:
                ceiling = b
                continue
            except Exception:
                # taking F at each probe would have met this only when F
                # is not > 0 at any deferred one
                if not (deferred and self.condition(deferred[-1], target)
                        > 0.0):
                    raise
                break
            if fb > 0.0:
                return a, fa, b, fb
            a, fa = b, fb
            if ceiling is not None:
                eager -= 1
            b = self.v_min + (b - self.v_min) * _BRACKET_GROWTH
        if ceiling is None:
            raise SolverError(
                f"quantization target {target:.6g} not bracketed; "
                "potential may not support this level")
        if deferred and self.condition(deferred[-1], target) > 0.0:
            k = bisect.bisect_left(deferred, True, 1, key=lambda e: (
                self.condition(e, target) > 0.0))
            if k > 1:
                fa = self.condition(deferred[k - 1], target)
            return (deferred[k - 1], fa, deferred[k],
                    self.condition(deferred[k], target))
        raise LevelUnbound(
            f"quantization target {target:.6g} exceeds the phase available "
            f"below the binding ceiling (last bound probe E = {a:.12g})")


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
    limit = _RESIDUAL_LIMIT * target
    # where dW/dE is steep (weakly bound levels) the energy tolerance
    # alone leaves the residual above the limit, so also stop no coarser
    # than a tenth of the limit over the bracket's secant slope
    xtol = min(_ENERGY_TOL * abs(b),
               0.1 * limit * (b - a) / (fb - fa))
    energy = bisect_then_brent(lambda e: q.condition(e, target), a, b,
                               fa=fa, fb=fb, xtol=xtol)
    w, region = q.survey(energy)
    residual = abs(w / hbar - target)
    if residual > limit:
        # a level far nearer its floor than E = 0 can be finer than doubles
        jump = abs(q.survey(math.nextafter(energy, math.inf))[0] - w) / hbar
        raise SolverError(
            f"level {n}: residual {residual:.3e} is beyond the limit "
            f"{limit:.3e}; W/hbar moves {jump:.3e} from E = {energy:.17g} "
            "to the next double")
    return EnergyLevel(int(n), energy, w, region, residual,
                       q.evals - evals_before)


def spectrum(potential: PotentialModel, n_max: int) -> SpectrumResult:
    """Levels 0..n_max; truncates with a reason when the well runs out."""
    if n_max < 0:
        raise UsageError("n_max must be non-negative")
    q = _Quantizer(potential)
    levels: list[EnergyLevel] = []
    for n in range(int(n_max) + 1):
        seed = levels[-1].energy if levels else None
        below = levels[-2].energy if len(levels) >= 2 else q.v_min
        hint = seed - below if levels else None
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
