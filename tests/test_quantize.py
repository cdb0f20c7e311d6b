import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasebound.classical as classical_mod
import phasebound.oracle as oracle_mod
import phasebound.quadrature as quadrature
import phasebound.quantize as quantize
from phasebound.errors import (LevelUnbound, MultiRegionError, OracleError,
                               SolverError, UsageError)
from phasebound.potentials import PhysicalConstants, PotentialModel
from phasebound.quantize import claim_audit, solve_level, spectrum
from phasebound.radial import angular_eigenvalue, radial_spectrum

_PROPERTIES = settings(derandomize=True, database=None, deadline=None,
                       max_examples=40)
# 10^u for u uniform in [-12, 12]
_LOG_UNIFORM = st.floats(-12.0, 12.0).map(lambda u: 10.0 ** u)


def _gaussian_well(depth):
    return PotentialModel.from_callable(
        lambda x: -depth * np.exp(-np.asarray(x, dtype=float) ** 2),
        domain=(-25.0, 25.0),
        df=lambda x: 2.0 * depth * np.asarray(x, dtype=float)
        * np.exp(-np.asarray(x, dtype=float) ** 2),
        edges=("soft", "soft"))


def test_harmonic_levels_exact(harmonic_spectrum):
    for lv in harmonic_spectrum.levels:
        assert lv.energy == pytest.approx(lv.n + 0.5, rel=1e-12)
        assert lv.action == pytest.approx(np.pi * (lv.n + 0.5), rel=1e-11)
        assert abs(lv.residual) < 1e-10
    assert not harmonic_spectrum.truncated
    assert harmonic_spectrum.reason is None


def test_level_count_is_inclusive():
    # n_max = 4 means five levels, 0 through 4
    result = spectrum(PotentialModel.harmonic(2.0), 4)
    assert [lv.n for lv in result.levels] == [0, 1, 2, 3, 4]
    assert result.energies == pytest.approx([1.0, 3.0, 5.0, 7.0, 9.0],
                                            rel=1e-12)


def test_survey_grows_a_soft_edge_to_hold_a_level():
    # on (-1, 1) every level above the ground state runs past both soft
    # edges, so the surveys move them out until its allowed region fits
    result = spectrum(PotentialModel.harmonic(1.0, domain=(-1.0, 1.0)), 3)
    assert not result.truncated
    for lv in result.levels:
        assert abs(lv.energy - (lv.n + 0.5)) <= 1e-12
    assert result.levels[-1].region.right == pytest.approx(np.sqrt(7.0))


def test_no_survey_repeats_the_one_before(monkeypatch):
    # the seed of the next level and Brent's last root are surveyed
    # again; the quantizer answers both from its kept surveys
    actions = []
    action = quantize.action_integral

    def recorded(pot, energy, region=None):
        actions.append(energy)
        return action(pot, energy, region)

    monkeypatch.setattr(quantize, "action_integral", recorded)
    for pot, n_max in ((PotentialModel.harmonic(1.0), 20),
                       (PotentialModel.morse(10.0, 1.0), 9),
                       (PotentialModel.square_well(8.0, 2.0), 5),
                       (PotentialModel.linear(1.7), 8)):
        actions.clear()
        result = spectrum(pot, n_max)
        assert sum(lv.iterations for lv in result.levels) <= len(actions)
        assert all(a != b for a, b in zip(actions, actions[1:]))


def test_a_narrow_well_on_a_wide_domain_keeps_its_levels():
    # the well is 2 wide on a 6000-wide domain: a scan for its floor
    # would step over it
    wide = PotentialModel.square_well(8.0, 2.0, domain=(-3000.0, 3000.0))
    got = spectrum(wide, 2).energies
    assert got == pytest.approx(
        spectrum(PotentialModel.square_well(8.0, 2.0), 2).energies,
        rel=1e-12, abs=0.0)


def test_solve_single_level(harmonic):
    lv = solve_level(harmonic, 5)
    assert lv.n == 5
    assert lv.energy == pytest.approx(5.5, rel=1e-12)
    assert lv.region.left == pytest.approx(-np.sqrt(11.0), abs=1e-8)


def test_morse_levels_and_truncation(morse10):
    result = spectrum(morse10, 10)
    closed = [-10.0 * (1.0 - (n + 0.5) / np.sqrt(20.0)) ** 2
              for n in range(4)]
    assert len(result.levels) == 4
    assert result.energies == pytest.approx(closed, rel=1e-12)
    assert result.truncated
    assert "unbound" in result.reason


def test_linear_well_closed_form():
    lin = PotentialModel.linear(1.0)
    result = spectrum(lin, 3)
    closed = [(3.0 * np.pi * (n + 0.5) / (4.0 * np.sqrt(2.0))) ** (2.0 / 3.0)
              for n in range(4)]
    assert result.energies == pytest.approx(closed, rel=1e-10)


def test_spectrum_is_strictly_increasing(morse10):
    energies = spectrum(morse10, 10).energies
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_frequency_scaling_property(rng):
    # E_n(omega) = omega * E_n(1) must hold across random frequencies
    for omega in rng.uniform(0.2, 8.0, size=5):
        result = spectrum(PotentialModel.harmonic(omega), 3)
        want = [omega * (n + 0.5) for n in range(4)]
        assert result.energies == pytest.approx(want, rel=1e-9)


def test_hbar_scaling_property(rng):
    for hbar in rng.uniform(0.3, 3.0, size=3):
        pot = PotentialModel.harmonic(
            1.0, constants=PhysicalConstants(hbar=float(hbar), mass=1.0))
        result = spectrum(pot, 2)
        want = [hbar * (n + 0.5) for n in range(3)]
        assert result.energies == pytest.approx(want, rel=1e-9)


def test_shallow_well_has_no_half_quantum():
    # peak phase ~0.79 < pi/2: nothing to bind, truncates cleanly
    result = spectrum(_gaussian_well(0.05), 0)
    assert result.levels == ()
    assert result.truncated
    assert "unbound" in result.reason


def test_shallow_well_single_level():
    result = spectrum(_gaussian_well(0.5), 3)
    assert len(result.levels) == 1
    assert -0.5 < result.levels[0].energy < 0.0
    assert result.truncated


def test_hard_wall_box_is_rejected():
    box = PotentialModel.from_callable(
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        domain=(-1.0, 1.0))
    with pytest.raises(SolverError):
        solve_level(box, 0)


def test_residual_limit_enforced(harmonic):
    # every reported level satisfies the quantization condition tightly
    for n in (0, 7, 15):
        lv = solve_level(harmonic, n)
        assert abs(lv.residual) < 1e-10 * max(1.0, np.pi * (n + 0.5))


def test_claim_audit_rows(harmonic):
    rows = claim_audit(harmonic, 2)
    assert [r.n for r in rows] == [0, 1, 2]
    for row in rows:
        assert row.note is None
        assert row.deviation < 1e-6
        assert row.reference == pytest.approx(row.quantized, rel=1e-5)


def test_claim_audit_of_a_well_with_no_bound_level_is_empty():
    # depth 0.05 binds no level: there is nothing to hand the reference
    assert claim_audit(PotentialModel.morse(0.05, 1.0), 2) == []


def test_claim_audit_marks_reference_failure(monkeypatch, harmonic):
    def boom(*args, **kwargs):
        raise OracleError("forced reference failure")

    monkeypatch.setattr(oracle_mod, "reference_levels", boom)
    rows = claim_audit(harmonic, 1)
    assert len(rows) == 2
    for row in rows:
        assert row.reference is None and row.deviation is None
        assert "forced reference failure" in row.note


def test_claim_audit_lets_unexpected_errors_through(monkeypatch, harmonic):
    def broken(*args, **kwargs):
        raise TypeError("not a reference failure")

    monkeypatch.setattr(oracle_mod, "reference_levels", broken)
    with pytest.raises(TypeError, match="not a reference failure"):
        claim_audit(harmonic, 1)


@_PROPERTIES
@given(omega=_LOG_UNIFORM)
def test_harmonic_levels_scale_with_hbar_omega(omega):
    energies = spectrum(PotentialModel.harmonic(omega), 5).energies
    assert [e / omega for e in energies] == pytest.approx(
        [n + 0.5 for n in range(6)], rel=1e-10, abs=0.0)


_LINEAR_UNIT = spectrum(PotentialModel.linear(1.0), 5).energies


@_PROPERTIES
@given(slope=_LOG_UNIFORM)
def test_linear_levels_scale_with_the_slope(slope):
    # E_n is (hbar^2 F^2 / m)^(1/3) times a number fixed by n
    energies = spectrum(PotentialModel.linear(slope), 5).energies
    unit = (slope * slope) ** (1.0 / 3.0)
    assert [e / unit for e in energies] == pytest.approx(
        _LINEAR_UNIT, rel=1e-10, abs=0.0)


@_PROPERTIES
@given(charge=_LOG_UNIFORM)
def test_coulomb_levels_scale_with_the_charge_squared(charge):
    # M^2 = 6.25: E = -Z^2 / (2 (n_r + 3)^2), and the levels follow Z^2
    energies = spectrum(PotentialModel.coulomb(charge, 6.25), 3).energies
    assert [e / charge ** 2 for e in energies] == pytest.approx(
        [-0.5 / (n + 3.0) ** 2 for n in range(4)], rel=1e-10, abs=0.0)


@pytest.mark.parametrize("omega", [1e-9, 1e12, 1e150])
def test_harmonic_far_from_unit_scale(omega):
    # any warning fails a test (pyproject.toml): 1e150 must solve without
    energies = spectrum(PotentialModel.harmonic(omega), 3).energies
    assert energies == pytest.approx(
        [omega * (n + 0.5) for n in range(4)], rel=1e-10, abs=0.0)


def test_harmonic_with_an_action_near_the_largest_double():
    # W ~ 1e300: 200 |K15 - G7| is far above 1, where the sharpened error
    # estimate is |K15 - G7| itself, and its power would overflow
    energies = spectrum(PotentialModel.harmonic(
        1.0, PhysicalConstants(1e300, 1.0)), 2).energies
    assert energies == pytest.approx(
        [1e300 * (n + 0.5) for n in range(3)], rel=1e-15, abs=0.0)


def test_harmonic_near_the_smallest_normal_stiffness():
    # m omega^2 / 2 = 5e-301 is still a normal double
    energies = spectrum(PotentialModel.harmonic(1e-150), 2).energies
    assert energies == pytest.approx(
        [1e-150 * (n + 0.5) for n in range(3)], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("hbar", [1e-12, 1e-100, 1e-150])
def test_linear_levels_at_a_tiny_hbar_match_the_closed_form(hbar):
    # W = (4 sqrt(2m) / 3F) E^(3/2) on F|x|; the action quadrature stops
    # in units of hbar, since a tolerance in units of action would accept
    # W almost unrefined, E_0 4.5e-3 off, at every hbar <= 1e-12
    pot = PotentialModel.linear(1.7, PhysicalConstants(hbar=hbar))
    closed = [(3.0 * math.pi * hbar * (n + 0.5) * 1.7
               / (4.0 * math.sqrt(2.0))) ** (2.0 / 3.0) for n in range(4)]
    assert spectrum(pot, 3).energies == pytest.approx(closed, rel=1e-12,
                                                      abs=0.0)


def test_a_subnormal_harmonic_stiffness_is_refused():
    # m omega^2 / 2 = 5e-321 is subnormal, so V would keep a few bits
    with pytest.raises(UsageError, match=r"below the smallest normal "
                       r"double 2\.23e-308"):
        PotentialModel.harmonic(1e-160)


@pytest.mark.parametrize("omega", [1e-9, 1e150])
def test_claim_audit_far_from_unit_scale(omega):
    rows = claim_audit(PotentialModel.harmonic(omega), 3)
    assert [r.n for r in rows] == [0, 1, 2, 3]
    for row in rows:
        assert row.note is None
        assert row.quantized == pytest.approx(omega * (row.n + 0.5),
                                              rel=1e-12)
        assert row.deviation < 1e-6


@pytest.mark.parametrize("half_width", [1e6, 1e8])
@pytest.mark.parametrize("family, args", [
    ("harmonic", (1.0,)), ("linear", (1.7,)), ("square_well", (8.0, 2.0))])
def test_levels_do_not_depend_on_the_domain_width(family, args, half_width):
    make = getattr(PotentialModel, family)
    wide = make(*args, domain=(-half_width, half_width))
    assert spectrum(wide, 3).energies == pytest.approx(
        spectrum(make(*args), 3).energies, rel=1e-12, abs=0.0)


def test_a_level_finer_than_the_doubles_is_refused_naming_the_limit():
    # level 0 sits ~5e-6 above a floor at -1e6, where doubles are 1.2e-10
    # apart: one of those steps moves W/hbar by far more than the limit
    with pytest.raises(SolverError, match=r"beyond the limit 1\.571e-10; "
                       r"W/hbar moves .* to the next double"):
        spectrum(PotentialModel.square_well(1e6, 1000.0), 2)


_QUARTIC = [[x, x ** 4 + x * x]
            for x in (-3.0 + 6.0 * k / 40 for k in range(41))]


def _spectrum_and_scans(monkeypatch, pot, n_max):
    """spectrum(pot, n_max) and the energy of every turning-point scan."""
    energies = []
    scan = quantize.find_turning_points

    def recorded(potential, energy):
        energies.append(energy)
        return scan(potential, energy)

    monkeypatch.setattr(quantize, "find_turning_points", recorded)
    return spectrum(pot, n_max), energies


@pytest.mark.parametrize("family, args, n_max", [
    ("harmonic", (1.0,), 20), ("morse", (10.0, 1.0), 9),
    ("square_well", (8.0, 2.0), 5), ("linear", (1.7,), 8)])
def test_no_energy_is_scanned_twice(monkeypatch, family, args, n_max):
    _, energies = _spectrum_and_scans(
        monkeypatch, getattr(PotentialModel, family)(*args), n_max)
    assert len(set(energies)) == len(energies)


@pytest.mark.parametrize("family, args, n_max", [
    ("harmonic", (1.0,), 20), ("morse", (10.0, 1.0), 9),
    ("square_well", (8.0, 2.0), 5), ("linear", (1.7,), 8)])
def test_a_spectrum_builds_no_grid_and_no_model(monkeypatch, family, args,
                                                n_max):
    # a domain move copies the model, and the edge probes read its ends
    pot = getattr(PotentialModel, family)(*args)
    calls = []
    grid, init = PotentialModel.grid, PotentialModel.__init__

    def counted(method, name):
        def wrapper(*a, **k):
            calls.append(name)
            return method(*a, **k)
        return wrapper

    monkeypatch.setattr(PotentialModel, "grid", counted(grid, "grid"))
    monkeypatch.setattr(PotentialModel, "__init__", counted(init, "init"))
    assert spectrum(pot, n_max).levels
    assert calls == []


@pytest.mark.parametrize("family, args, n_max, surveys, scans", [
    ("harmonic", (1.0,), 20, 61, 61), ("morse", (10.0, 1.0), 9, 22, 38),
    ("square_well", (8.0, 2.0), 5, 24, 43), ("linear", (1.7,), 8, 52, 52),
    ("tabulated", (_QUARTIC,), 7, 60, 60), ("harmonic", (1.3,), 20, 61, 61),
    ("coulomb", (2.5, 6.25), 4, 43, 39)])
def test_stated_turns_keep_surveys_and_scans_within_the_recorded_counts(
        monkeypatch, family, args, n_max, surveys, scans):
    # the counts when the named families first stated their turning points
    # and Brent started without forced bisections; ``scans`` counts the
    # quantizer's find_turning_points calls, unbound probes making none
    result, energies = _spectrum_and_scans(
        monkeypatch, getattr(PotentialModel, family)(*args), n_max)
    assert len(energies) <= scans
    assert sum(lv.iterations for lv in result.levels) <= surveys


@pytest.mark.parametrize("solve", [
    lambda: spectrum(PotentialModel.harmonic(1.0), 20),
    lambda: spectrum(PotentialModel.linear(1.7), 8),
    lambda: spectrum(PotentialModel.morse(10.0, 1.0), 9),
    lambda: spectrum(PotentialModel.square_well(8.0, 2.0), 5),
    lambda: spectrum(PotentialModel.coulomb(2.5, 6.25), 4),
    lambda: angular_eigenvalue(2, 1.0),
    lambda: spectrum(PotentialModel.tabulated(_QUARTIC), 7)],
    ids=["harmonic", "linear", "morse", "square_well", "coulomb", "polar",
         "tabulated"])
def test_stated_turning_points_need_no_root_refinement(monkeypatch, solve):
    def refuse(*args, **kwargs):
        raise AssertionError("a turning point was refined")

    monkeypatch.setattr(classical_mod, "bisect_then_brent", refuse)
    solve()


_W_TABLE = [[x, (x * x - 2.0) ** 2]
            for x in (-3.0 + 6.0 * k / 40 for k in range(41))]


def test_a_double_well_table_is_refused_as_two_regions():
    with pytest.raises(MultiRegionError, match="2 allowed regions"):
        spectrum(PotentialModel.tabulated(_W_TABLE), 2)


def test_a_table_whose_well_reaches_its_end_is_refused():
    # -x + 0.1 x^2 falls all the way to x = 3: every region leans there
    slope = [[x, -x + 0.1 * x * x] for x, _ in _W_TABLE]
    with pytest.raises(SolverError, match="hard domain edge"):
        spectrum(PotentialModel.tabulated(slope), 1)


def _plateau_well(half_width):
    # a harmonic well, a wall at 8 for 4 <= |x| < 5, then a plateau at 2
    # out to |x| = 20, beyond which V rises again
    def f(x):
        a = np.abs(np.asarray(x, dtype=float))
        return np.where(a < 4.0, 0.5 * a * a, np.where(
            a < 5.0, 8.0, 2.0 + 0.5 * np.maximum(a - 20.0, 0.0) ** 2))

    return PotentialModel.from_callable(f, (-half_width, half_width),
                                        edges=("soft", "soft"))


@pytest.mark.parametrize("half_width", [6.0, 60.0])
def test_a_survey_does_not_depend_on_the_window(half_width):
    # above 2 the plateau is a second and third allowed region however
    # far the window first reaches
    with pytest.raises(MultiRegionError, match="3 allowed regions"):
        spectrum(_plateau_well(half_width), 6)


def test_an_unbound_probe_scans_nothing(monkeypatch):
    # Morse states an infinite upper turning point above E = 0: the probe
    # reads V at the domain's two ends and moves no side
    q = quantize._Quantizer(PotentialModel.morse(10.0, 1.0))
    sizes = []
    evaluate = PotentialModel.evaluate

    def recorded(self, x):
        sizes.append(np.size(x))
        return evaluate(self, x)

    def refuse(*args):
        raise AssertionError("an unbound probe was scanned or moved")

    monkeypatch.setattr(PotentialModel, "evaluate", recorded)
    monkeypatch.setattr(PotentialModel, "with_domain", refuse)
    monkeypatch.setattr(quantize, "find_turning_points", refuse)
    with pytest.raises(LevelUnbound, match="not confined"):
        q.survey(0.5)
    assert sizes in ([], [2])


def test_a_survey_is_a_function_of_its_energy():
    # E = -1e-3 reaches far past the default domain of this Coulomb well
    pot = PotentialModel.coulomb(2.5, 30.25)
    q = quantize._Quantizer(pot)
    q.survey(-1e-3)
    for n in range(4):
        energy = -6.25 / (2.0 * (n + 6.0) ** 2)
        assert q.survey(energy) == quantize._Quantizer(pot).survey(energy)


def test_a_survey_at_v_of_a_soft_end_solves():
    # 2m(E - V) = 0 at the upper end, yet sqrt(E / k) rounds past it: the
    # edge flag follows the survey's own test, so the soft edge holds
    lo = PotentialModel.harmonic(1.3).domain[0]
    pot = PotentialModel.harmonic(1.3).with_domain(lo, 6.252939632682815)
    energy = pot.evaluate(pot.ends[1])
    assert energy == 33.0388696722293
    below = math.nextafter(energy, -math.inf)
    w, _ = quantize._Quantizer(pot).survey(energy)
    assert w == quantize._Quantizer(pot).survey(below)[0] == 79.8420540347586


@pytest.mark.parametrize("family, args, n_max, v_calls, panels", [
    ("harmonic", (1.0,), 20, 63, 183), ("morse", (10.0, 1.0), 9, 34, 172),
    ("square_well", (8.0, 2.0), 5, 30, 28)])
def test_the_roadmap_probes_stay_within_the_recorded_counts(
        monkeypatch, family, args, n_max, v_calls, panels):
    # counted as the benchmark's probes count them: every evaluate call
    # reaches the model's own V once, and every panel is a kronrod_panel
    pot = getattr(PotentialModel, family)(*args)
    counts = {"v": 0, "panels": 0}
    f, panel = pot._f, quadrature.kronrod_panel

    def counted_f(x):
        counts["v"] += 1
        return f(x)

    def counted_panel(*a):
        counts["panels"] += 1
        return panel(*a)

    pot._f = counted_f
    monkeypatch.setattr(quadrature, "kronrod_panel", counted_panel)
    spectrum(pot, n_max)
    assert counts["v"] <= v_calls
    assert counts["panels"] == panels


def _ceiling_cases():
    """Ladders whose top level is reached through the binding ceiling:
    named wells, seeded Morse and square wells asked 1-3 levels past
    their closed-form count, and the radial Coulomb solves of the
    ``ladder`` benchmark's six angular cycles at charges in [2, 3]."""
    cases = [("morse", lambda: spectrum(PotentialModel.morse(10.0, 1.0), 9)),
             ("square", lambda: spectrum(
                 PotentialModel.square_well(8.0, 2.0), 5)),
             ("coulomb", lambda: spectrum(
                 PotentialModel.coulomb(2.5, 6.25), 4))]
    rng = np.random.default_rng(32)
    for k in range(10):
        depth, a = rng.uniform(3.0, 15.0), rng.uniform(0.7, 1.5)
        count = math.ceil(math.sqrt(2.0 * depth) / a - 0.5)
        n_max = count + int(rng.integers(1, 4))
        cases.append((f"morse{k}", lambda d=depth, a=a, n=n_max: spectrum(
            PotentialModel.morse(d, a), n)))
        depth, width = rng.uniform(2.0, 10.0), rng.uniform(1.0, 3.0)
        count = math.ceil(width * math.sqrt(2.0 * depth) / math.pi - 0.5)
        n_max = count + int(rng.integers(1, 4))
        cases.append((f"square{k}", lambda d=depth, w=width, n=n_max:
                      spectrum(PotentialModel.square_well(d, w), n)))
    for n_theta, m_z, nr_max in ((0, 0, 1), (3, 2, 4), (1, -1, 2), (2, 1, 3),
                                 (0, -2, 1), (1, 0, 4)):
        # without eager probes, 2.8844488364687493 at (0, 0, 1) meets a
        # hard domain edge past the probe where the level is bracketed
        for charge in (2.8844488364687493, *rng.uniform(2.0, 3.0, 2)):
            cases.append((f"radial{n_theta}{m_z}{nr_max}-{charge:.4f}",
                          lambda c=charge, t=n_theta, m=m_z, n=nr_max:
                          radial_spectrum(PotentialModel.coulomb(c), n, t, m)))
    return cases


_CEILING_CASES = _ceiling_cases()


@pytest.mark.parametrize("solve", [solve for _, solve in _CEILING_CASES],
                         ids=[name for name, _ in _CEILING_CASES])
def test_deferred_ceiling_probes_give_the_results_of_taking_w_at_each(
        monkeypatch, solve):
    # the same levels, actions, residuals and truncation with W taken at
    # every bound ceiling probe, at the first four, or at none
    def outcome(eager):
        monkeypatch.setattr(quantize, "_EAGER_PROBES", eager)
        result = solve()
        return ([(lv.n, lv.energy, lv.action, lv.region, lv.residual)
                 for lv in result.levels], result.truncated, result.reason)

    every = outcome(quantize._MAX_ITERATIONS)
    assert outcome(4) == every
    assert outcome(0) == every


@pytest.mark.parametrize("family, args, n_max, integrals", [
    ("morse", (10.0, 1.0), 9, 26), ("square_well", (8.0, 2.0), 5, 28)])
def test_a_truncated_ladder_takes_w_within_the_recorded_count(
        monkeypatch, family, args, n_max, integrals):
    # every W integral of the quantizer, those of the unbound top level
    # too, which no EnergyLevel.iterations counts; 38 and 43 when W was
    # taken at every bound ceiling probe
    energies = []
    action = quantize.action_integral

    def counted(pot, energy, region=None):
        energies.append(energy)
        return action(pot, energy, region)

    monkeypatch.setattr(quantize, "action_integral", counted)
    assert spectrum(getattr(PotentialModel, family)(*args), n_max).truncated
    assert len(energies) <= integrals
