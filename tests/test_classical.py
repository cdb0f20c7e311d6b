import numpy as np
import pytest

import phasebound.classical as classical_mod
from phasebound.classical import (
    ClassicalRegion,
    PhaseAccumulator,
    action_energy_derivative,
    action_integral,
    find_turning_points,
)
from phasebound.errors import MultiRegionError, NoClassicalMotion
from phasebound.potentials import (
    PotentialModel,
    effective_radial,
    local_momentum,
)
from phasebound.states import epsilon_parameter

# V = -2.5/r + 0.125/r^2: floor -12.5 at r = 0.1 on a domain [0, 240] whose
# 512-point scan steps by 0.47, so no scan point is allowed below E = -4.76
NARROW_COULOMB = effective_radial(PotentialModel.coulomb(2.5), 0.25)


def test_harmonic_turning_points_refined(harmonic):
    report = find_turning_points(harmonic, 2.5)
    region = report.require_single()
    root = np.sqrt(5.0)
    assert region.left == pytest.approx(-root, abs=1e-10)
    assert region.right == pytest.approx(root, abs=1e-10)
    assert not region.left_is_edge and not region.right_is_edge
    assert not report.degenerate


def test_turning_point_bracket_ends_match_the_refined_function(
        monkeypatch):
    # Brent trusts fa and fb as f(a) and f(b); they must be on the scale
    # of the function it refines, not merely of the same sign
    pot = PotentialModel.morse(10.0, 1.0)
    refine = classical_mod.bisect_then_brent
    calls = []

    def checked(f, a, b, fa=None, fb=None, **kw):
        calls.append((f(a), fa, f(b), fb))
        return refine(f, a, b, fa=fa, fb=fb, **kw)

    monkeypatch.setattr(classical_mod, "bisect_then_brent", checked)
    find_turning_points(pot, -4.0)
    assert len(calls) == 2
    for f_a, fa, f_b, fb in calls:
        assert f_a == fa and f_b == fb


def test_no_motion_below_floor(harmonic):
    with pytest.raises(NoClassicalMotion):
        find_turning_points(harmonic, -0.5)
    with pytest.raises(NoClassicalMotion):
        find_turning_points(NARROW_COULOMB, -12.6)
    # no floor at all: -2.5/r falls without bound toward r = 0, and at
    # this energy even the first scan point is forbidden
    with pytest.raises(NoClassicalMotion):
        find_turning_points(PotentialModel.coulomb(2.5), -1e11)


def test_floor_energy_is_degenerate(harmonic):
    report = find_turning_points(harmonic, 0.0)
    assert report.degenerate
    region = report.regions[0]
    assert region.width == pytest.approx(0.0, abs=1e-6)
    report = find_turning_points(NARROW_COULOMB, -12.5 + 1e-9)
    assert report.degenerate
    region = report.require_single()
    assert region.width == 0.0
    assert region.left == pytest.approx(0.1, rel=1e-6)


@pytest.mark.parametrize("family, energy", [
    ("coulomb", -10.0), ("coulomb", -12.0), ("coulomb", -12.4),
    ("linear", 1e-2), ("linear", 1e-4)])
def test_well_narrower_than_the_scan_grid(family, energy):
    if family == "coulomb":
        pot = NARROW_COULOMB
        # roots of E r^2 + 2.5 r - 0.125, in the form that keeps both exact
        q = -0.5 * (2.5 + np.sqrt(2.5 ** 2 + 4.0 * energy * 0.125))
        left, right = sorted((q / energy, -0.125 / q))
        # pi (Z sqrt(m / 2|E|) - M) with M = 1/2
        want = np.pi * (2.5 * np.sqrt(0.5 / -energy) - 0.5)
    else:
        pot = PotentialModel.linear(1.0)
        left, right = -energy, energy
        want = 4.0 * np.sqrt(2.0) / 3.0 * energy ** 1.5
    scan = pot.grid(classical_mod._SCAN_POINTS)
    assert np.all(pot.evaluate(scan) > energy)
    report = find_turning_points(pot, energy)
    assert not report.degenerate
    region = report.require_single()
    assert region.left == pytest.approx(left, rel=1e-12)
    assert region.right == pytest.approx(right, rel=1e-12)
    assert not region.left_is_edge and not region.right_is_edge
    assert action_integral(pot, energy) == pytest.approx(want, rel=1e-12)


def test_epsilon_finds_a_narrow_well_without_a_region():
    eps = epsilon_parameter(NARROW_COULOMB, -10.0, 0.12)
    assert np.isfinite(eps)


def test_free_particle_box_keeps_edge_flags():
    box = PotentialModel.from_callable(
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        domain=(-1.0, 1.0),
        df=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    report = find_turning_points(box, 1.0)
    region = report.require_single()
    assert region.left == -1.0 and region.right == 1.0
    assert region.left_is_edge and region.right_is_edge


def test_double_well_two_regions():
    quartic = PotentialModel.from_callable(
        lambda x: (x * x - 1.0) ** 2, domain=(-3.0, 3.0),
        df=lambda x: 4.0 * x * (x * x - 1.0))
    report = find_turning_points(quartic, 0.5)
    assert len(report.regions) == 2
    outer = np.sqrt(1.0 + np.sqrt(0.5))
    inner = np.sqrt(1.0 - np.sqrt(0.5))
    assert report.regions[0].left == pytest.approx(-outer, abs=1e-9)
    assert report.regions[0].right == pytest.approx(-inner, abs=1e-9)
    assert report.regions[1].right == pytest.approx(outer, abs=1e-9)
    with pytest.raises(MultiRegionError):
        report.require_single()


def test_action_closed_forms(harmonic, morse10):
    # harmonic: W(E) = pi E / omega
    assert action_integral(harmonic, 2.5) == pytest.approx(np.pi * 2.5,
                                                           rel=1e-11)
    # linear |x|: W(E) = (4 sqrt(2) / 3) E^(3/2)
    lin = PotentialModel.linear(1.0)
    want = 4.0 * np.sqrt(2.0) / 3.0 * 2.0 ** 1.5
    assert action_integral(lin, 2.0) == pytest.approx(want, rel=1e-10)
    # morse: W(E) = (pi/a) sqrt(2m) (sqrt(D) - sqrt(-E))
    want = np.pi * np.sqrt(2.0) * (np.sqrt(10.0) - np.sqrt(5.0))
    assert action_integral(morse10, -5.0) == pytest.approx(want, rel=1e-10)


def test_action_against_blunt_midpoint_sum():
    # same integral by a method sharing no code with the quadrature stack
    quartic = PotentialModel.from_callable(
        lambda x: 0.25 * x ** 4, domain=(-6.0, 6.0),
        df=lambda x: x ** 3)
    energy = 3.0
    region = find_turning_points(quartic, energy).require_single()
    xs = np.linspace(region.left, region.right, 2_000_001)
    mids = 0.5 * (xs[1:] + xs[:-1])
    p = np.sqrt(np.maximum(2.0 * (energy - quartic.evaluate(mids)), 0.0))
    blunt = float(np.sum(p) * (xs[1] - xs[0]))
    assert action_integral(quartic, energy) == pytest.approx(blunt, rel=2e-6)


def test_action_derivative_closed_form(harmonic):
    # dW/dE is the half-period: pi/omega for any harmonic energy
    for energy in (0.3, 1.0, 7.7):
        assert action_energy_derivative(harmonic, energy) == pytest.approx(
            np.pi, rel=1e-10)


def test_action_derivative_matches_finite_difference(morse10):
    energy = -4.0
    h = 1e-6
    fd = (action_integral(morse10, energy + h)
          - action_integral(morse10, energy - h)) / (2.0 * h)
    assert action_energy_derivative(morse10, energy) == pytest.approx(
        fd, rel=1e-7)


def test_phase_accumulator_linear_in_free_region():
    box = PotentialModel.from_callable(
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        domain=(0.0, np.pi),
        df=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    region = find_turning_points(box, 2.0).require_single()
    acc = PhaseAccumulator(box, 2.0, region)
    k = 2.0  # p = sqrt(2 * 2) = 2
    a, b = 0.3, 1.1
    assert acc.interior(b) - acc.interior(a) == pytest.approx(k * (b - a),
                                                              rel=1e-12)


def test_phase_accumulator_monotone_and_consistent(harmonic):
    energy = 5.5
    region = find_turning_points(harmonic, energy).require_single()
    acc = PhaseAccumulator(harmonic, energy, region)
    xs = np.linspace(region.left, region.right, 57)
    values = [acc.interior(x) for x in xs]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[-1] == pytest.approx(action_integral(harmonic, energy),
                                       rel=1e-10)
    # revisiting out of order reproduces the same answers
    assert acc.interior(xs[11]) == pytest.approx(values[11], rel=1e-12)


def test_phase_accumulator_tails_grow_outward(harmonic):
    energy = 0.5
    region = find_turning_points(harmonic, energy).require_single()
    acc = PhaseAccumulator(harmonic, energy, region)
    l1 = acc.left_tail(region.left - 0.5)
    l2 = acc.left_tail(region.left - 1.5)
    r1 = acc.right_tail(region.right + 0.5)
    r2 = acc.right_tail(region.right + 1.5)
    assert 0.0 < l1 < l2
    assert 0.0 < r1 < r2
    # symmetric well, symmetric exponents
    assert l2 == pytest.approx(r2, rel=1e-10)


def _harmonic_accumulator(harmonic, energy):
    # turning points at +-A exactly, so the closed forms apply as written
    amp = np.sqrt(2.0 * energy)
    return amp, PhaseAccumulator(harmonic, energy, ClassicalRegion(-amp, amp))


@pytest.mark.parametrize("energy", [0.5, 10.5, 30.5])
def test_harmonic_phase_matches_closed_form_on_a_grid(harmonic, energy):
    amp, acc = _harmonic_accumulator(harmonic, energy)
    xs = np.linspace(-amp, amp, 2001)
    interior = 0.5 * (xs * np.sqrt(np.maximum(amp * amp - xs * xs, 0.0))
                      + amp * amp * (np.arcsin(np.clip(xs / amp, -1.0, 1.0))
                                     + 0.5 * np.pi))
    assert np.max(np.abs(acc.interior(xs) - interior)) <= 1e-11
    # forbidden side, out to the domain edge at 12
    ts = np.linspace(amp, 12.0, 2001)
    tail = 0.5 * (ts * np.sqrt(ts * ts - amp * amp)
                  - amp * amp * np.arccosh(ts / amp))
    assert np.max(np.abs(acc.right_tail(ts) - tail)) <= 1e-11
    assert np.max(np.abs(acc.left_tail(-ts) - tail)) <= 1e-11


@pytest.mark.parametrize("points", [2001, 2000])
def test_linear_well_phase_across_the_kink(points):
    # V = |x|, E = 4: turning points at -+4, kink at 0; an odd grid puts
    # the kink on a grid point, an even one inside a cell
    energy = 4.0
    lin = PotentialModel.linear(1.0)
    acc = PhaseAccumulator(lin, energy, ClassicalRegion(-energy, energy))
    xs = np.linspace(-energy, energy, points)
    c = 2.0 * np.sqrt(2.0) / 3.0
    want = np.where(xs <= 0.0, c * (energy + xs) ** 1.5,
                    c * (2.0 * energy ** 1.5
                         - np.maximum(energy - xs, 0.0) ** 1.5))
    assert np.max(np.abs(acc.interior(xs) - want)) <= 1e-11


@pytest.mark.parametrize("family", ["harmonic", "morse"])
def test_array_phase_equals_scalar_calls(family):
    pot = (PotentialModel.harmonic(1.0) if family == "harmonic"
           else PotentialModel.morse(10.0, 1.0))
    energy = 5.5 if family == "harmonic" else -4.0
    region = find_turning_points(pot, energy).require_single()
    acc = PhaseAccumulator(pot, energy, region)
    rng = np.random.default_rng(7)
    # unsorted, with a repeat and both turning points
    xs = np.concatenate(([region.right, region.left],
                         rng.uniform(region.left, region.right, 40)))
    xs[5] = xs[9]
    got = acc.interior(xs)
    assert got.shape == xs.shape
    assert got[5] == got[9]
    assert got[1] == 0.0
    for x, phi in zip(xs, got):
        assert acc.interior(float(x)) == pytest.approx(phi, rel=1e-12,
                                                       abs=1e-12)
    for tail, side in ((acc.left_tail, -1.0), (acc.right_tail, 1.0)):
        edge = region.left if side < 0 else region.right
        ts = edge + side * rng.uniform(0.0, 2.0, (5, 4))
        got = tail(ts)
        assert got.shape == (5, 4)
        for t, phi in zip(ts.ravel(), got.ravel()):
            assert tail(float(t)) == pytest.approx(phi, rel=1e-12,
                                                   abs=1e-12)
    assert isinstance(acc.interior(region.midpoint), float)


def test_momentum_field_boundary_classification(harmonic):
    # at E = 2 the turning points sit at x = +-2
    for x, want in ((0.0, "allowed"), (5.0, "forbidden"), (2.0, "boundary")):
        assert local_momentum(harmonic, 2.0, x)[1] == want
