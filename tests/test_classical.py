import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phasebound.classical as classical_mod
from phasebound.classical import (
    ClassicalRegion,
    PhaseAccumulator,
    action_energy_derivative,
    action_integral,
    find_turning_points,
)
from phasebound.errors import (DomainError, MultiRegionError,
                               NoClassicalMotion, PhaseboundError,
                               SolverError)
from phasebound.potentials import (
    SCAN_POINTS,
    PhysicalConstants,
    PotentialModel,
    effective_radial,
    local_momentum,
)
from phasebound.quantize import _Quantizer
from phasebound.radial import _polar_potential
from phasebound.states import epsilon_parameter

# V = -2.5/r + 0.125/r^2: floor -12.5 at r = 0.1 on a domain [0, 240] whose
# 512-point scan (in its scan twin) steps by 0.47, so no scan point is
# allowed below E = -4.76
NARROW_COULOMB = effective_radial(PotentialModel.coulomb(2.5), 0.25)


def test_harmonic_turning_points_refined(harmonic):
    region = find_turning_points(harmonic, 2.5).require_single()
    root = np.sqrt(5.0)
    assert region.left == pytest.approx(-root, abs=1e-10)
    assert region.right == pytest.approx(root, abs=1e-10)
    assert harmonic.leans(2.5) == (False, False)


def _scan_twin(model: PotentialModel) -> PotentialModel:
    """The same V, floor and domain, built without stated turning points,
    so that find_turning_points scans it."""
    return PotentialModel(
        model.kind, model.params, model._f, model._df, model.constants,
        model.domain, edges=model.edges, knots=model.knots,
        floor_at=model.floor_at, length=model.length)


def test_turning_point_bracket_ends_match_the_refined_function(
        monkeypatch):
    # Brent trusts fa and fb as f(a) and f(b); they must be on the scale
    # of the function it refines, not merely of the same sign
    pot = _scan_twin(PotentialModel.morse(10.0, 1.0))
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


@pytest.mark.parametrize("hbar", [1.0, 1e-150])
def test_scanned_radial_turning_points_at_a_tiny_hbar(hbar):
    # r^2/2 + hbar^2/(8 r^2) = 3 hbar/2 at r = (1 -+ 1/sqrt 2) sqrt(hbar);
    # at 1e-150 the values of 2m(E - V) are ~1e-150 and the product of
    # two underflows to 0: a sign test by product puts the left root off
    # in its 8th digit
    root = np.sqrt(hbar)
    pot = effective_radial(PotentialModel.harmonic(
        1.0, PhysicalConstants(hbar=hbar), domain=(0.0, 12.0 * root)),
        (0.5 * hbar) ** 2)
    assert pot.turns is None
    region = find_turning_points(pot, 1.5 * hbar).require_single()
    assert [region.left, region.right] == pytest.approx(
        [(1.0 - 0.5 ** 0.5) * root, (1.0 + 0.5 ** 0.5) * root],
        rel=1e-14, abs=0.0)


def test_no_motion_below_floor(harmonic):
    with pytest.raises(NoClassicalMotion):
        find_turning_points(harmonic, -0.5)
    with pytest.raises(NoClassicalMotion):
        find_turning_points(NARROW_COULOMB, -12.6)
    # no floor at all: -2.5/r falls without bound toward r = 0, and at
    # this energy even the first scan point is forbidden
    with pytest.raises(NoClassicalMotion):
        find_turning_points(PotentialModel.coulomb(2.5), -1e11)


_FLOORED = [PotentialModel.harmonic(1.0), PotentialModel.linear(1.0),
            PotentialModel.morse(10.0, 1.0), NARROW_COULOMB]


@pytest.mark.parametrize("model", _FLOORED + [
    _scan_twin(model) for model in _FLOORED], ids=[
        "harmonic", "linear", "morse", "narrow_coulomb", "harmonic_scan",
        "linear_scan", "morse_scan", "narrow_coulomb_scan"])
def test_no_region_at_the_floor(model):
    with pytest.raises(NoClassicalMotion):
        find_turning_points(model, model.minimum()[1])


def _narrow_well(family, energy):
    """The model, its turning points and W at ``energy``, in closed form."""
    if family == "harmonic":
        pot = PotentialModel.harmonic(1.0)
        left, right = -np.sqrt(2.0 * energy), np.sqrt(2.0 * energy)
        return pot, left, right, np.pi * energy
    if family == "linear":
        pot = PotentialModel.linear(1.0)
        return pot, -energy, energy, 4.0 * np.sqrt(2.0) / 3.0 * energy ** 1.5
    # roots of E r^2 + 2.5 r - 0.125, in the form that keeps both exact
    q = -0.5 * (2.5 + np.sqrt(2.5 ** 2 + 4.0 * energy * 0.125))
    left, right = sorted((q / energy, -0.125 / q))
    # pi (Z sqrt(m / 2|E|) - M) with M = 1/2
    want = np.pi * (2.5 * np.sqrt(0.5 / -energy) - 0.5)
    return NARROW_COULOMB, left, right, want


@pytest.mark.parametrize("family, energy", [
    ("harmonic", 1e-11), ("linear", 1e-10), ("coulomb", -12.5 + 1e-9)],
    ids=["harmonic", "linear", "coulomb"])
def test_the_true_narrow_region_just_above_the_floor(family, energy):
    pot, left, right, want = _narrow_well(family, energy)
    region = find_turning_points(pot, energy).require_single()
    assert region.left == pytest.approx(left, rel=1e-12)
    assert region.right == pytest.approx(right, rel=1e-12)
    # W is as small as the region, and the quadrature's tolerance is
    # 1e-12 absolute
    w = action_integral(pot, energy)
    assert w > 0.0 and abs(w - want) <= 1e-12


_MORSE_50 = PotentialModel.morse(50.0, 0.5)
_STATED = [
    PotentialModel.harmonic(1.3), PotentialModel.linear(1.7),
    PotentialModel.morse(10.0, 1.0), _MORSE_50,
    PotentialModel.square_well(8.0, 2.0), PotentialModel.coulomb(2.5, 6.25),
    _polar_potential(2.0, PhysicalConstants())]
# clipped domains: past a floor (harmonic), inside a well (square
# well) or across it, with the roots beyond one or both ends
_STATED += [model.with_domain(lo, hi) for model, lo, hi in zip(
    _STATED, (0.5, -2.0, -0.5, -3.0, -0.5, 0.0, 0.3),
    (4.0, 5.0, 3.0, 60.0, 3.0, 4.0, 2.0))]


def _energies(model):
    """At and below the floor, just above it (down to 1e-14 of
    max(|V_min|, energy_scale)), near it (down to 1e-3 of the well's
    span), in the well, and for a well that opens at E = 0, at E -> 0-
    and above.  On the square well E = 0 is drawn too, where V = E on a
    whole side (see test_square_well_at_zero_energy)."""
    v_min = model.minimum()[1]
    opens = model.kind in ("morse", "square_well", "coulomb")
    top = 0.0 if opens else v_min + 30.0 * model.energy_scale
    span = max(top - v_min, model.energy_scale)
    band = 1e-8 * max(abs(v_min), model.energy_scale)
    parts = [st.just(v_min),
             st.floats(1e-6, 1.0).map(lambda u: v_min - u * span),
             st.floats(1e-6, 1.0).map(lambda u: v_min + u * band),
             st.floats(0.1, 3.0).map(lambda t: v_min + span * 10.0 ** -t),
             st.floats(1e-3, 0.999).map(lambda u: v_min + u * (top - v_min))]
    if opens:
        parts += [st.floats(1.0, 16.0).map(lambda t: v_min * 10.0 ** -t),
                  st.floats(1e-3, 1.0).map(lambda u: -u * v_min)]
    if model.kind == "square_well":
        parts.append(st.just(0.0))
    return st.one_of(parts)


_TABLE_SHAPES = {
    "single": lambda x, tilt: x * x + tilt * x,
    "double": lambda x, tilt: (x * x - 2.0) ** 2 + tilt * x,
    "one_sided": lambda x, tilt: -x + 0.1 * x * x,
}


@st.composite
def _table_cases(draw):
    """A random table on [-3, 3] and an energy.  The shapes: a single
    well, a W-shaped double well and a one-sided slope, each possibly cut
    flat at a height P (a plateau), and possibly on a sub-range.  The
    energy is drawn between the lowest and the highest V at a sample in
    the domain or at its ends, or is V at a sample (not at a strict local
    maximum, where the scan's grid steps over the point at which V
    touches E), V at the last sample as evaluate computes it, or P."""
    shape = draw(st.sampled_from(sorted(_TABLE_SHAPES)))
    count = draw(st.integers(6, 24))
    gaps = np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=count - 1,
                                  max_size=count - 1)))
    xs = -3.0 + 6.0 * np.concatenate(([0.0], np.cumsum(gaps))) / gaps.sum()
    xs[-1] = 3.0
    vs = _TABLE_SHAPES[shape](xs, draw(st.floats(-0.5, 0.5)))
    plateau = draw(st.none() | st.floats(0.2, 0.8))
    if plateau is not None:
        plateau = float(vs.min() + plateau * (vs.max() - vs.min()))
        vs = np.minimum(vs, plateau)
    height = draw(st.floats(0.1, 100.0))
    table = PotentialModel.tabulated(np.column_stack((xs, height * vs)))
    model = table
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.lists(st.floats(-2.9, 2.9), min_size=2,
                                      max_size=2, unique=True)))
        if hi - lo > 0.3:
            model = table.with_domain(lo, hi)
    v = table.evaluate(xs)
    within = (xs >= model.ends[0]) & (xs <= model.ends[1])
    peak = np.zeros(count, dtype=bool)
    peak[1:-1] = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    span = np.concatenate((v[within], model.evaluate(model.ends)))
    v_lo, v_hi = span.min(), span.max()
    parts = [st.floats(-0.2, 0.999).map(lambda u: v_lo + u * (v_hi - v_lo)),
             st.just(float(v[-1]))]
    if (within & ~peak).any():
        parts.append(st.sampled_from(v[within & ~peak].tolist()))
    if plateau is not None:
        parts.append(st.just(height * plateau))
    return model, draw(st.one_of(parts))


def _outcome(model, energy):
    try:
        return find_turning_points(model, energy)
    except PhaseboundError as exc:
        return type(exc)


def _level_with_energy(table, energy, a, b):
    """Whether V rounds to E on all of [a, b].  Where V meets E with zero
    slope, as where a plateau starts or the data turn, E - V rounds to 0
    over a band ~sqrt(eps |E| / |V''|) wide, and every point of it is a
    turning point as far as doubles can tell."""
    samples = np.array(table.params["samples"])[:, 1]
    scale = max(abs(energy), np.abs(samples).max())
    v = table.evaluate(np.linspace(min(a, b), max(a, b), 5))
    return np.abs(v - energy).max() <= 16.0 * np.finfo(float).eps * scale


def _assert_stated_match_the_scan(model, energy):
    # a table's scan twin is the same interpolant without stated turns
    assert model.turns is not None
    stated, scanned = _outcome(model, energy), _outcome(_scan_twin(model),
                                                        energy)
    if isinstance(scanned, type):
        assert stated is scanned
        return
    assert not isinstance(stated, type)
    assert len(stated.regions) == len(scanned.regions)
    table = model.kind == "tabulated"
    assert table or len(stated.regions) == 1
    # the rounding of E - V moves a turning point by ~eps |E| / |V'|, and
    # |V'| falls with E - V_min toward a floor, so there the bound grows
    # by |E| / (E - V_min)
    v_min = model.minimum()[1]
    rtol = 1e-14 * max(1.0, abs(energy) / (energy - v_min))
    for got, want in zip(stated.regions, scanned.regions):
        for a, b in ((got.left, want.left), (got.right, want.right)):
            assert (abs(a - b) <= rtol * max(abs(a), abs(b))
                    or table and _level_with_energy(model, energy, a, b))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(case=st.sampled_from(_STATED).flatmap(
    lambda m: st.tuples(st.just(m), _energies(m))))
# 1 + E/D rounds to 1 here, yet the right turning point is at 77.3 < 80
@example(case=(_MORSE_50, -1.65e-15))
def test_stated_turning_points_match_the_scan(case):
    _assert_stated_match_the_scan(*case)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=_table_cases())
def test_stated_turning_points_of_tables_match_the_scan(case):
    _assert_stated_match_the_scan(*case)


# the 41-sample x^4 + x^2 table of the golden files
_GOLDEN_TABLE = PotentialModel.tabulated(
    [[x, x ** 4 + x * x] for x in (-3.0 + 6.0 * k / 40 for k in range(41))])


@settings(derandomize=True, database=None, deadline=None, max_examples=320)
@given(model=st.sampled_from(_STATED + [_GOLDEN_TABLE]), reach=st.tuples(
    st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
    end=st.sampled_from((0, 1)), step=st.sampled_from((-1, 0, 1)))
def test_every_stated_edge_flag_is_the_survey_rule(model, reach, end, step):
    # a sub-domain around the floor, and E at V of one of its ends or a
    # double either side, where the stated roots fall on the end to
    # within a rounding; the survey refuses a region that leans on a side
    # it may not move (the table's sides are hard) and on no other
    x0 = model.minimum()[0]
    lo, hi = model.domain
    sub = model.with_domain(x0 - reach[0] * (x0 - lo),
                            x0 + reach[1] * (hi - x0))
    energy = sub.evaluate(sub.ends[end])
    if step:
        energy = np.nextafter(energy, step * np.inf)
    fixed = any(lean and kind != "soft"
                for lean, kind in zip(sub.leans(energy), sub.edges))
    try:
        _Quantizer(sub).survey(energy)
    except SolverError as exc:
        assert ("hard domain edge" in str(exc)) == fixed
    except PhaseboundError:
        pass
    else:
        assert not fixed


def test_square_well_at_zero_energy():
    # q = 0 outside |x| < 1, so only the well is allowed; the scan's
    # refinement stops at the first grid point where q = 0 instead
    report = find_turning_points(PotentialModel.square_well(8.0, 2.0), 0.0)
    assert report.require_single() == ClassicalRegion(-1.0, 1.0)


def test_the_scan_stops_where_a_plateau_at_the_energy_starts():
    # V = E = 0 on the whole outside: the scan meets q = 0 exactly on the
    # first grid point past each wall and bisects back to the wall
    twin = _scan_twin(PotentialModel.square_well(8.0, 2.0))
    region = find_turning_points(twin, 0.0).require_single()
    assert region.left == pytest.approx(-1.0, abs=1e-12)
    assert region.right == pytest.approx(1.0, abs=1e-12)
    assert twin.leans(0.0) == (False, False)


@pytest.mark.parametrize("family, energy", [
    ("coulomb", -10.0), ("coulomb", -12.0), ("coulomb", -12.4),
    ("linear", 1e-2), ("linear", 1e-4),
    ("coulomb_scan", -10.0), ("coulomb_scan", -12.0),
    ("coulomb_scan", -12.4), ("linear_scan", 1e-2), ("linear_scan", 1e-4)])
def test_well_narrower_than_the_scan_grid(family, energy):
    # the scan twins see no allowed scan point, so the floor joins the grid
    pot, left, right, want = _narrow_well(family.removesuffix("_scan"),
                                          energy)
    if family.endswith("_scan"):
        pot = _scan_twin(pot)
    scan = pot.grid(SCAN_POINTS)
    assert np.all(pot.evaluate(scan) > energy)
    region = find_turning_points(pot, energy).require_single()
    assert region.left == pytest.approx(left, rel=1e-12)
    assert region.right == pytest.approx(right, rel=1e-12)
    assert pot.leans(energy) == (False, False)
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
    assert box.leans(1.0) == (True, True)


def test_a_region_just_above_a_floor_on_an_end_leans_on_it():
    # E a double above a floor on an end of the domain: 2m(E - V) > 0 at
    # that end, so the region reaches it however narrow it is
    polar = _polar_potential(2.0, PhysicalConstants()).with_domain(0.3, 1.2)
    energy = np.nextafter(polar.minimum()[1], np.inf)
    with pytest.raises(SolverError, match="hard domain edge"):
        _Quantizer(polar).survey(energy)
    half = PotentialModel.harmonic(1.0, domain=(0.0, 12.0))
    with pytest.raises(DomainError, match="soft domain edge"):
        action_integral(half, 1e-12)


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


_W_TABLE = PotentialModel.tabulated(
    [[x, (x * x - 2.0) ** 2] for x in np.linspace(-3.0, 3.0, 41)])


def test_double_well_table_two_regions():
    # the values the scan found before tables stated their turning points
    outer, inner = 1.64479646985318, 1.13577418346551
    report = find_turning_points(_W_TABLE, 0.5)
    assert len(report.regions) == 2
    for region, (left, right) in zip(report.regions, ((-outer, -inner),
                                                      (inner, outer))):
        assert region.left == pytest.approx(left, rel=1e-14)
        assert region.right == pytest.approx(right, rel=1e-14)
    with pytest.raises(MultiRegionError):
        report.require_single()
    # on a sub-range the left well lies outside and is dropped
    region = find_turning_points(_W_TABLE.with_domain(0.2, 3.0),
                                 0.5).require_single()
    assert region.left == pytest.approx(inner, rel=1e-14)
    assert region.right == pytest.approx(outer, rel=1e-14)


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


def test_action_refuses_a_region_on_a_soft_edge():
    # on (-1, 1) the allowed region at E = 5 runs past both soft edges:
    # W there would be cut short (6.2175 where 5 pi is due)
    narrow = PotentialModel.harmonic(1.0, domain=(-1.0, 1.0))
    with pytest.raises(DomainError):
        action_integral(narrow, 5.0)
    with pytest.raises(DomainError):
        action_energy_derivative(narrow, 5.0)
    wide = PotentialModel.harmonic(1.0, domain=(-4.0, 4.0))
    assert abs(action_integral(wide, 5.0) / np.pi - 5.0) <= 1e-12


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
