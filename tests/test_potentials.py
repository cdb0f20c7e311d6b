import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebound.classical import find_turning_points
from phasebound.errors import DomainError, ParseError, SolverError, UsageError
from phasebound.potentials import (
    MomentumField,
    PhysicalConstants,
    PotentialModel,
    decay_reach,
    effective_radial,
    local_momentum,
)
from phasebound.quantize import spectrum
from phasebound.radial import _polar_potential


def test_constants_validation():
    c = PhysicalConstants(hbar=0.5, mass=2.0)
    assert c.hbar == 0.5 and c.mass == 2.0
    with pytest.raises(UsageError):
        PhysicalConstants(hbar=0.0)
    with pytest.raises(UsageError):
        PhysicalConstants(mass=-1.0)


def test_harmonic_evaluate_and_derivative():
    pot = PotentialModel.harmonic(2.0)
    xs = np.array([-1.0, 0.0, 0.5])
    assert pot.evaluate(xs) == pytest.approx([2.0, 0.0, 0.5])
    assert pot.derivative(xs) == pytest.approx([-4.0, 0.0, 2.0])


def test_effective_radial_derivative_matches_a_central_difference():
    # V' - M^2 / (m r^3), from the base model's own derivative
    pot = effective_radial(
        PotentialModel.harmonic(1.0, domain=(0.0, 12.0)), 2.5 ** 2)
    h = 1e-5
    for r in (0.3, 1.0, 2.5, 7.0):
        fd = (pot.evaluate(r + h) - pot.evaluate(r - h)) / (2.0 * h)
        assert pot.derivative(r) == pytest.approx(fd, rel=1e-8)


def test_linear_kink():
    pot = PotentialModel.linear(3.0)
    assert pot.evaluate(-2.0) == pytest.approx(6.0)
    assert pot.evaluate(2.0) == pytest.approx(6.0)
    assert pot.minimum()[1] == pytest.approx(0.0, abs=1e-12)


def test_morse_shape():
    pot = PotentialModel.morse(10.0, 1.0)
    x0, v_min = pot.minimum()
    assert x0 == pytest.approx(0.0, abs=1e-8)
    assert v_min == pytest.approx(-10.0, abs=1e-10)
    # dissociates toward zero from below on the right
    assert -1e-3 < pot.evaluate(12.0) < 0.0


def test_coulomb_domain_is_half_open():
    pot = PotentialModel.coulomb(1.0)
    lo, hi = pot.domain
    assert lo == 0.0
    assert pot.edges[0] == "open"
    with pytest.raises(DomainError):
        pot.evaluate(0.0)
    with pytest.raises(DomainError):
        pot.evaluate(-1.0)
    assert pot.evaluate(2.0) == pytest.approx(-0.5)


def test_out_of_domain_rejected():
    pot = PotentialModel.harmonic(1.0)
    lo, hi = pot.domain
    with pytest.raises(DomainError):
        pot.evaluate(hi + 1.0)


def test_square_well_profile():
    pot = PotentialModel.square_well(depth=5.0, width=2.0)
    assert pot.evaluate(0.0) == -5.0
    assert pot.evaluate(3.0) == 0.0
    assert pot.evaluate(np.array([-0.5, 1.5])) == pytest.approx([-5.0, 0.0])


def test_tabulated_interpolation():
    xs = np.linspace(-2.0, 2.0, 41)
    pot = PotentialModel.tabulated(list(zip(xs, xs * xs)))
    assert pot.evaluate(0.31) == pytest.approx(0.31 ** 2, abs=5e-4)
    with pytest.raises(UsageError):
        PotentialModel.tabulated([(0.0, 1.0), (1.0, 2.0)])  # too few
    with pytest.raises(UsageError):
        PotentialModel.tabulated([(0.0, 1.0), (0.0, 2.0), (1.0, 0.0),
                                  (2.0, 1.0)])  # not strictly increasing


def _uneven_tables(rng, count):
    """``count`` random tables of 4 to 80 unevenly spaced samples: a
    double well (quartic), noise, runs of equal V (zero slopes) and a
    zigzag whose slope changes sign on every cell, in turn."""
    for k in range(count):
        n = int(rng.integers(4, 81))
        xs = np.cumsum(rng.uniform(0.05, 1.0, n) ** 2) - rng.uniform(0.0, 9.0)
        u = xs - xs.mean()
        vs = [u ** 4 - 3.0 * u * u,
              rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0),
              np.repeat(rng.normal(size=n), rng.integers(1, 5, n))[:n],
              (-1.0) ** np.arange(n) * rng.uniform(0.5, 2.0, n)][k % 4]
        yield xs, vs


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_tabulated_cubics_are_scipys_to_the_bit():
    # the model's PCHIP is built and summed in numpy, in the operations of
    # scipy's PchipInterpolator, which this test alone imports
    from scipy.interpolate import PchipInterpolator

    from phasebound.potentials import _pchip_cells

    rng = np.random.default_rng(31)
    for xs, vs in _uneven_tables(rng, 200):
        tab = PotentialModel.tabulated(np.column_stack((xs, vs)))
        ref = PchipInterpolator(xs, vs, extrapolate=False)
        dref = ref.derivative()
        with np.errstate(all="ignore"):
            assert _bits(_pchip_cells(xs, vs)) == _bits(ref.c)
        inner = rng.uniform(xs[0], xs[-1], 64)
        points = np.concatenate((xs, inner, np.nextafter(xs[1:], -np.inf)))
        assert _bits(tab.evaluate(points)) == _bits(ref(points))
        assert _bits(tab.derivative(points)) == _bits(dref(points))
        for x in (xs[0], xs[-1], float(xs[len(xs) // 2]), float(inner[0])):
            assert type(tab.evaluate(x)) is float
            assert _bits(tab.evaluate(x)) == _bits(ref(x))
            assert _bits(tab.derivative(x)) == _bits(dref(x))
        # within evaluate's slack of 1e-9 of the range, outside the samples
        slack = 1e-10 * (xs[-1] - xs[0])
        outside = np.array([xs[0] - slack, np.nextafter(xs[-1], np.inf)])
        assert np.isnan(tab._f(outside)).all()
        assert np.isnan(ref(outside)).all()
        for x in outside.tolist():
            with pytest.raises(DomainError, match="non-finite"):
                tab.evaluate(x)


def test_json_round_trip(tmp_path):
    pot = PotentialModel.morse(7.5, 0.8, constants=PhysicalConstants(0.5, 2.0))
    blob = pot.to_dict()
    again = PotentialModel.from_dict(blob)
    xs = np.linspace(-1.0, 5.0, 7)
    assert again.evaluate(xs) == pytest.approx(pot.evaluate(xs), rel=1e-15)
    assert again.constants == pot.constants
    assert again.domain == pot.domain

    path = tmp_path / "pot.json"
    path.write_text(json.dumps(blob))
    from_file = PotentialModel.from_json_file(path)
    assert from_file.to_dict() == pot.to_dict()


def test_json_parse_error_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"type": "harmonic",\n  "params": }\n')
    with pytest.raises(ParseError) as exc:
        PotentialModel.from_json_file(path)
    msg = str(exc.value)
    assert "line 2" in msg
    assert "column" in msg


def test_json_unknown_keys_rejected():
    with pytest.raises(ParseError):
        PotentialModel.from_dict({"type": "harmonic",
                                  "params": {"omega": 1.0},
                                  "extra": True})
    with pytest.raises(ParseError):
        PotentialModel.from_dict({"type": "no_such_well", "params": {}})
    samples = [[0, 1], [1, 0], [2, 0], [3, 1]]
    for kind, params in [("harmonic", {"omgea": 2.0}),
                         ("morse", {"depth": 5.0, "width": 1.0}),
                         ("coulomb", {"charge": 1.0, "l": 1}),
                         ("tabulated", {"samples": samples, "kind": "pchip"})]:
        with pytest.raises(ParseError, match="unrecognized"):
            PotentialModel.from_dict({"type": kind, "params": params})


def test_json_round_trip_of_every_family():
    for pot in (PotentialModel.harmonic(2.0), PotentialModel.linear(0.5),
                PotentialModel.morse(3.0, 0.7),
                PotentialModel.coulomb(2.0, 1.5),
                PotentialModel.square_well(4.0, 1.5),
                PotentialModel.tabulated([[0, 1], [1, 0], [2, 0.5], [3, 2]])):
        assert PotentialModel.from_dict(pot.to_dict()).to_dict() \
            == pot.to_dict()


def test_with_domain_extends_soft_edges_only():
    morse = PotentialModel.morse(10.0, 1.0)
    wider = morse.with_domain(morse.domain[0], morse.domain[1] + 20.0)
    assert wider.domain[1] == pytest.approx(morse.domain[1] + 20.0)
    tab = PotentialModel.tabulated([(0.0, 1.0), (1.0, 0.0), (2.0, 1.0),
                                    (3.0, 4.0)])
    with pytest.raises((UsageError, DomainError)):
        tab.with_domain(-1.0, 3.0)  # hard edge: no data out there
    with pytest.raises(UsageError, match="upper"):
        tab.with_domain(0.0, 4.0)


_C = PhysicalConstants(hbar=0.7, mass=1.9)
_SAMPLES = [[x, x * x] for x in np.linspace(-2.0, 3.0, 11)]


@pytest.mark.parametrize("model, want", [
    (PotentialModel.harmonic(2.3, _C), 0.7 * 2.3),
    (PotentialModel.linear(2.3, _C), (0.49 * 2.3 ** 2 / 1.9) ** (1.0 / 3.0)),
    (PotentialModel.morse(5.0, 2.3, _C), 0.49 * 2.3 ** 2 / 1.9),
    (PotentialModel.coulomb(2.3, 0.4, _C), 1.9 * 2.3 ** 2 / 0.49),
    (PotentialModel.square_well(5.0, 2.3, _C), 0.49 / (1.9 * 2.3 ** 2)),
    (PotentialModel.tabulated(_SAMPLES, _C), 0.49 / (1.9 * 5.0 ** 2)),
    (PotentialModel.from_callable(np.abs, (-2.0, 3.0), constants=_C),
     0.49 / (1.9 * 5.0 ** 2)),
    (effective_radial(PotentialModel.from_callable(
        np.abs, (0.0, 5.0), constants=_C), 2.0), 0.49 / (1.9 * 5.0 ** 2)),
    (_polar_potential(1.0, _C), 0.49 / (0.5 * np.pi ** 2)),
], ids=["harmonic", "linear", "morse", "coulomb", "square_well", "tabulated",
        "callable", "effective_radial", "polar"])
def test_energy_scale_is_the_familys_own(model, want):
    # hbar^2 / (m L^2) with L the family's length, else the domain width;
    # moving the domain keeps it
    assert model.energy_scale == pytest.approx(want, rel=1e-14)
    lo, hi = model.domain
    wider = model.with_domain(lo - 10.0 * (model.edges[0] == "soft"),
                              hi + 10.0 * (model.edges[1] == "soft"))
    assert wider.energy_scale == model.energy_scale


_QUARTIC = [[x, x ** 4 + x * x] for x in np.linspace(-3.0, 3.0, 41)]
_EVERY_KIND = [
    PotentialModel.harmonic(2.3, _C), PotentialModel.linear(2.3, _C),
    PotentialModel.morse(5.0, 2.3, _C),
    PotentialModel.square_well(5.0, 2.3, _C),
    PotentialModel.coulomb(2.3, 0.4, _C),
    PotentialModel.tabulated(_QUARTIC, _C),
    PotentialModel.from_callable(np.abs, (-2.0, 3.0), constants=_C),
    effective_radial(PotentialModel.from_callable(
        np.abs, (0.0, 5.0), constants=_C), 2.0),
    _polar_potential(1.0, _C)]
_KIND_IDS = ["harmonic", "linear", "morse", "square_well", "coulomb",
             "tabulated", "callable", "effective_radial", "polar"]


@pytest.mark.parametrize("model", _EVERY_KIND, ids=_KIND_IDS)
def test_a_domain_move_shares_everything_but_the_domain(model):
    # and the edges, where an open side moved inward and so became hard
    model.minimum()
    lo, hi = model.domain
    for side, moved in enumerate((model.with_domain(lo + 0.1 * (hi - lo), hi),
                                  model.with_domain(lo, 0.5 * (lo + hi)))):
        own, new = vars(model), vars(moved)
        assert own.keys() == new.keys()
        was_open = model.edges[side] == "open"
        differ = {"domain", "ends", "_min_cache"}
        assert {k for k in own if new[k] is not own[k]} == (
            differ | {"edges"} if was_open else differ)
        assert moved.edges[side] == ("hard" if was_open
                                     else model.edges[side])
        assert moved.edges[1 - side] == model.edges[1 - side]
        assert new["_min_cache"] is None


@pytest.mark.parametrize("model", _EVERY_KIND, ids=_KIND_IDS)
def test_ends_are_the_grid_ends(model):
    # the domain, nudged 1e-12 of its width off each open edge
    lo, hi = model.domain
    for m in (model, model.with_domain(lo, 0.5 * (lo + hi))):
        lo, hi = m.domain
        off = 1e-12 * (hi - lo)
        assert m.ends == (lo + off if m.edges[0] == "open" else lo,
                          hi - off if m.edges[1] == "open" else hi)
        assert m.grid(2).tobytes() == np.array(m.ends).tobytes()


# V is +inf past x = 1: the one model here whose V is not finite
_INFINITE_PAST_ONE = PotentialModel.from_callable(
    lambda x: np.where(np.asarray(x) > 1.0, np.inf, np.asarray(x) ** 2),
    (-2.0, 3.0), constants=_C)


def _v_or_error(call):
    """The bits of V from ``call``, or the DomainError it raises."""
    try:
        v = call()
    except DomainError as exc:
        return "raises", str(exc)
    return "value", np.float64(v).tobytes()


@pytest.mark.parametrize("model", [*_EVERY_KIND, _INFINITE_PAST_ONE],
                         ids=[*_KIND_IDS, "infinite_past_one"])
def test_a_float_takes_v_and_its_errors_of_a_one_point_array(model):
    # a float is checked with Python comparisons, an array by reductions:
    # inside, at and just past each edge (open ones refuse), far outside,
    # where V is infinite, and NaN, which passes the domain check
    lo, hi = model.domain
    width = hi - lo
    xs = [lo, hi, *model.ends, lo + 0.3 * width, 0.5 * (lo + hi), 2.0,
          lo - 0.5e-9 * width, hi + 0.5e-9 * width, lo - 2e-9 * width,
          hi + 2e-9 * width, hi + width, math.nan, math.inf, -math.inf]
    for x in xs:
        want = _v_or_error(lambda: model.evaluate(np.array([x]))[0])
        for point in (x, np.float64(x)):
            assert _v_or_error(lambda: model.evaluate(point)) == want, x
            if want[0] == "value":
                assert type(model.evaluate(point)) is float


def test_a_floor_clipped_onto_an_open_edge_stays_inside():
    # the polar barrier is lowest at pi/2, beyond this domain, and
    # singular at both of its edges, which this domain moved off: so both
    # of its sides are hard, and the floor is at the upper one
    pot = _polar_potential(2.0, PhysicalConstants()).with_domain(0.3, 1.2)
    assert pot.edges == ("hard", "hard")
    x_min, v_min = pot.minimum()
    assert x_min == pot.ends[1] == 1.2
    assert v_min == pot.evaluate(x_min) == pytest.approx(4.0 / np.sin(1.2)
                                                         ** 2)
    region = find_turning_points(pot, 5.0).require_single()
    assert region.right == pot.ends[1]
    assert region.left == pytest.approx(np.arcsin(2.0 / np.sqrt(5.0)))
    assert pot.leans(5.0) == (False, True)
    with pytest.raises(SolverError, match="hard domain edge"):
        spectrum(pot, 0)


def test_an_open_edge_moved_inward_is_hard():
    # r = 2 is no singular point, so the floor there is reached
    pot = PotentialModel.from_callable(
        lambda r: -1 / r + 0.5 / r ** 2, (0, 50), edges=("open", "hard"))
    moved = pot.with_domain(2, 50)
    assert moved.edges == ("hard", "hard")
    assert moved.ends == (2.0, 50.0)
    assert moved.minimum() == (2.0, -0.375)
    # an open side left where it is stays open
    assert pot.with_domain(0, 40).edges == ("open", "hard")


def test_widened_moves_each_named_soft_side_by_its_step():
    # harmonic(1) has length 1: a domain narrower than that moves by it, a
    # wider one by its own width
    narrow = PotentialModel.harmonic(1.0, domain=(-1e-5, 1e-5))
    assert narrow.widened(True, False).domain == (-1.0 - 1e-5, 1e-5)
    assert narrow.widened(False, True).domain == (-1e-5, 1.0 + 1e-5)
    wide = PotentialModel.harmonic(1.0)
    assert wide.domain == (-12.0, 12.0)
    assert wide.widened(True, True).domain == (-36.0, 36.0)
    # r = 0 of Coulomb is open, so only the upper side moves, by the width
    # of 600 Bohr radii
    coulomb = PotentialModel.coulomb(1.0, 1.0)
    moved = coulomb.widened(True, True)
    assert moved.domain == (0.0, 1200.0)
    assert moved.edges == ("open", "soft")


@pytest.mark.parametrize("model, lo, hi", [
    (PotentialModel.tabulated(_QUARTIC), True, True),
    (PotentialModel.from_callable(np.abs, (-2.0, 3.0)), True, True),
    (PotentialModel.coulomb(1.0, 1.0), True, False),
    (_polar_potential(1.0, PhysicalConstants()), True, True),
    (PotentialModel.harmonic(1.0), False, False)],
    ids=["tabulated", "hard-callable", "coulomb-open-side", "polar",
         "no-side-named"])
def test_widened_without_a_soft_side_to_move_is_the_model_itself(model, lo,
                                                                 hi):
    assert model.widened(lo, hi) is model


def test_a_non_finite_energy_scale_is_refused():
    # a width of 1e-200 puts hbar^2 / (m L^2) past the largest double
    with pytest.raises(UsageError, match="not finite"):
        PotentialModel.square_well(1.0, 1e-200)
    with pytest.raises(ParseError, match="not finite"):
        PotentialModel.from_dict({"type": "square_well",
                                  "params": {"width": 1e-200}})


def test_knots_are_the_samples_of_a_table_only():
    samples = [(0.0, 4.0), (0.5, 1.0), (1.5, 0.5), (2.0, 1.0), (3.0, 2.0)]
    tab = PotentialModel.tabulated(samples)
    xs = (0.0, 0.5, 1.5, 2.0, 3.0)
    assert tab.knots == xs
    assert tab.with_domain(0.25, 2.5).knots == xs
    assert effective_radial(tab, 0.25).knots == xs
    for family in ("harmonic", "linear", "morse", "coulomb", "square_well"):
        model = getattr(PotentialModel, family)()
        assert model.knots == ()
        assert model.with_domain(*model.domain).knots == ()
    assert effective_radial(PotentialModel.coulomb(), 0.25).knots == ()
    assert PotentialModel.from_callable(np.abs, (-1.0, 1.0)).knots == ()


def test_callable_without_derivative_has_no_derivative_or_json():
    pot = PotentialModel.from_callable(lambda x: x * x, (-1.0, 1.0))
    assert not pot.has_derivative
    with pytest.raises(UsageError):
        pot.to_dict()
    with pytest.raises(UsageError):
        pot.derivative(0.5)


def test_open_upper_edge_is_refused():
    pot = PotentialModel.from_callable(lambda x: 1.0 / (1.0 - x), (0.0, 1.0),
                                       edges=("hard", "open"))
    assert pot.evaluate(0.5) == 2.0
    with pytest.raises(DomainError, match="open edge"):
        pot.evaluate(1.0)


@pytest.mark.parametrize("edges", [(True, False), ("hard", "soft open")],
                         ids=["lower", "upper"])
def test_a_soft_open_edge_is_refused(edges):
    # each side has one kind of three, so soft and open cannot both be
    # asked of it; anything else, such as a pair of flags, is refused
    with pytest.raises(UsageError, match="edges must be two of"):
        PotentialModel.from_callable(lambda x: 1.0 / x, (0.0, 1.0),
                                     edges=edges)


def test_minimum_unbounded_below():
    pot = PotentialModel.from_callable(
        lambda r: -1.0 / r**2, domain=(0.0, 10.0), edges=("open", "hard"))
    with pytest.raises(SolverError, match="lower domain edge"):
        pot.minimum()
    pot = PotentialModel.from_callable(
        lambda r: -1.0 / (5.0 - r), domain=(0.0, 5.0), edges=("hard", "open"))
    with pytest.raises(SolverError, match="upper domain edge"):
        pot.minimum()
    with pytest.raises(SolverError, match="upper domain edge"):
        spectrum(pot, 0)


def test_bare_coulomb_has_no_floor():
    # -Z/r falls into r = 0: no closed form, and the scan refuses the edge
    for pot in (PotentialModel.coulomb(2.5), PotentialModel.coulomb(2.5, 0.0),
                effective_radial(PotentialModel.coulomb(2.5), 0.0)):
        assert pot.floor_at == ()
        with pytest.raises(SolverError, match="lower domain edge"):
            pot.minimum()


_GOLDEN_QUARTIC = [[x, x ** 4 + x * x]
                   for x in (-3.0 + 6.0 * k / 40 for k in range(41))]

# Models whose V_min is known in closed form, on their default domains and
# on domains that cut the floor off, then two that take the numeric search.
_FLOORS = {
    "harmonic": lambda: PotentialModel.harmonic(1.3),
    "harmonic_off_centre": lambda: PotentialModel.harmonic(
        1.0, domain=(1.0, 5.0)),
    "linear": lambda: PotentialModel.linear(1.7),
    "linear_left": lambda: PotentialModel.linear(1.7, domain=(-5.0, -2.0)),
    "morse": lambda: PotentialModel.morse(10.0, 1.0),
    "morse_wall": lambda: PotentialModel.morse(10.0, 1.0,
                                               domain=(-4.0, -1.0)),
    "morse_tail": lambda: PotentialModel.morse(10.0, 1.0, domain=(0.5, 10.0)),
    "coulomb": lambda: PotentialModel.coulomb(2.5, 0.75),
    "coulomb_short": lambda: PotentialModel.coulomb(2.5, 0.75,
                                                    domain=(0.0, 0.1)),
    "square_well": lambda: PotentialModel.square_well(8.0, 2.0),
    "square_well_wide": lambda: PotentialModel.square_well(
        8.0, 2.0, domain=(-3000.0, 3000.0)),
    "square_well_off": lambda: PotentialModel.square_well(
        8.0, 2.0, domain=(2.0, 10.0)),
    "tabulated": lambda: PotentialModel.tabulated(_GOLDEN_QUARTIC),
    "tabulated_right": lambda: PotentialModel.tabulated(
        _GOLDEN_QUARTIC, domain=(0.5, 2.5)),
    "tabulated_left": lambda: PotentialModel.tabulated(
        _GOLDEN_QUARTIC, domain=(-2.7, -1.1)),
    "effective_coulomb": lambda: effective_radial(
        PotentialModel.coulomb(2.5), 6.25),
    "polar_barrier": lambda: _polar_potential(2.0, PhysicalConstants()),
    "effective_harmonic": lambda: effective_radial(
        PotentialModel.harmonic(1.0, domain=(0.0, 12.0)), 6.25),
    "custom": lambda: PotentialModel.from_callable(
        lambda x: np.cosh(x - 0.3), (-2.0, 2.0)),
}
_NUMERIC = ("effective_harmonic", "custom")


def _reference_floor(pot):
    """Lowest V of a 20001-point scan, refined by scipy's bounded search
    between the neighbours of the lowest point."""
    from scipy.optimize import minimize_scalar

    xs = pot.grid(20001)
    vs = pot.evaluate(xs)
    i = int(np.argmin(vs))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    res = minimize_scalar(pot.evaluate, bounds=(a, b), method="bounded",
                          options={"xatol": 1e-12 * (b - a)})
    return min(vs[i], res.fun)


@pytest.mark.parametrize("name", sorted(_FLOORS))
def test_floor_matches_a_dense_scan(name):
    pot = _FLOORS[name]()
    x, v = pot.minimum()
    ref = _reference_floor(pot)
    lo, hi = pot.domain
    assert lo <= x <= hi and pot.evaluate(x) == v
    # never above the reference beyond rounding: PCHIP's cubics round to
    # -5.2e-18 between the quartic's samples, whose lowest is 0
    assert v <= ref + 1e-15 * max(1.0, abs(ref))
    assert v == pytest.approx(ref, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("name", sorted(_FLOORS))
def test_a_stated_floor_costs_one_call_of_v(name, monkeypatch):
    pot = _FLOORS[name]()
    evaluate, calls = PotentialModel.evaluate, []

    def counting(self, x):
        calls.append(np.size(x))
        return evaluate(self, x)

    monkeypatch.setattr(PotentialModel, "evaluate", counting)
    pot.minimum()
    # the numeric path: one scan, then golden-section steps to 1e-13
    assert calls == ([2048] + [1] * 65 if name in _NUMERIC
                     else [len(pot.floor_at)])


def test_tabulated_floor_is_the_lowest_sample():
    assert PotentialModel.tabulated(_GOLDEN_QUARTIC).minimum() == (0.0, 0.0)


def test_effective_radial_adds_centrifugal_term():
    coul = PotentialModel.coulomb(1.0)
    eff = effective_radial(coul, 0.25)
    r = 2.0
    assert eff.evaluate(r) == pytest.approx(-1.0 / r + 0.25 / (2.0 * r * r))
    assert eff.domain[0] == 0.0 and eff.edges[0] == "open"
    harm = PotentialModel.harmonic(1.0)
    with pytest.raises(UsageError):
        effective_radial(harm, 0.25)  # not a half-line potential
    with pytest.raises(UsageError):
        effective_radial(coul, -1.0)


def test_local_momentum_classification():
    pot = PotentialModel.harmonic(1.0)
    p, tag = local_momentum(pot, 0.5, 0.0)
    assert tag == "allowed"
    assert p == pytest.approx(1.0)  # p = sqrt(2m(E - V)) = 1 at the bottom
    p, tag = local_momentum(pot, 0.5, 2.0)
    assert tag == "forbidden"
    assert p == pytest.approx(np.sqrt(2.0 * (2.0 - 0.5)))
    assert local_momentum(pot, 0.5, 1.0) == (0.0, "boundary")


def test_local_momentum_evaluates_the_point_once():
    # one call of V at the point, one on the grid for the boundary scale
    calls = []

    def well(x):
        calls.append(np.size(x))
        return 0.5 * np.asarray(x, dtype=float) ** 2

    pot = PotentialModel.from_callable(well, (-10.0, 10.0))
    for x in (0.0, 5.0, 2.0):
        calls.clear()
        local_momentum(pot, 2.0, x)
        assert calls == [1, 256]


def test_momentum_field_vectorized():
    pot = PotentialModel.harmonic(1.0)
    field = MomentumField(pot, 2.5)
    xs = np.linspace(-1.0, 1.0, 11)
    q = field.q(xs)
    assert np.all(q > 0.0)
    assert field.allowed_magnitude(0.0) == pytest.approx(np.sqrt(5.0))


def test_grid_avoids_open_edges():
    pot = PotentialModel.coulomb(1.0)
    xs = pot.grid(101)
    assert xs[0] > 0.0
    pot.evaluate(xs)  # must not raise


# -- property tests ------------------------------------------------------------

_PROPERTIES = settings(derandomize=True, database=None, deadline=None)


def _in_range(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _samples(draw):
    count = draw(st.integers(4, 12))
    steps = draw(st.lists(_in_range(0.05, 2.0), min_size=count,
                          max_size=count))
    values = draw(st.lists(_in_range(-10.0, 10.0), min_size=count,
                           max_size=count))
    return [[x, v] for x, v in zip(np.cumsum(steps).tolist(), values)]


@_PROPERTIES
@given(samples=_samples(), flat=st.integers(0, 10))
def test_every_pchip_cell_is_monotone(samples, flat):
    # a table's stated turning points take one root per cell that V
    # crosses, which needs V monotone on every cell; a repeated value
    # makes a flat cell (a plateau)
    if flat < len(samples) - 1:
        samples[flat + 1][1] = samples[flat][1]
    tab = PotentialModel.tabulated(samples)
    xs = np.array(tab.knots)
    ends = tab.evaluate(xs)
    rounding = 16.0 * np.finfo(float).eps * np.abs(ends).max()
    for x0, x1, v0, v1 in zip(xs[:-1], xs[1:], ends[:-1], ends[1:]):
        v = tab.evaluate(np.linspace(x0, x1, 257))
        assert (np.sign(v1 - v0) * np.diff(v)).min() >= -rounding
        assert np.abs(v - np.clip(v, min(v0, v1), max(v0, v1))).max() \
            <= rounding


_FAMILY_ARGS = {
    "harmonic": st.tuples(_in_range(0.1, 10.0)),
    "linear": st.tuples(_in_range(0.1, 10.0)),
    "morse": st.tuples(_in_range(0.5, 50.0), _in_range(0.2, 3.0)),
    "coulomb": st.tuples(_in_range(0.5, 5.0), _in_range(0.0, 20.0)),
    "square_well": st.tuples(_in_range(0.5, 50.0), _in_range(0.2, 5.0)),
    "tabulated": st.tuples(_samples()),
}


@_PROPERTIES
@given(data=st.data())
def test_json_round_trip_property(data):
    kind = data.draw(st.sampled_from(sorted(_FAMILY_ARGS)))
    args = data.draw(_FAMILY_ARGS[kind])
    constants = PhysicalConstants(data.draw(_in_range(0.2, 5.0)),
                                  data.draw(_in_range(0.2, 5.0)))
    pot = getattr(PotentialModel, kind)(*args, constants)
    again = PotentialModel.from_dict(pot.to_dict())
    assert again.to_dict() == pot.to_dict()
    xs = pot.grid(64)
    assert np.array_equal(again.evaluate(xs), pot.evaluate(xs))


_EXTREMES = st.sampled_from([1e308, -1e308, 5e-324, 1e-300, 10 ** 300,
                             10 ** 400, -10 ** 400])
_FINITE = st.integers() | st.floats(allow_nan=False, allow_infinity=False) \
    | _EXTREMES
_NUMBERS = _FINITE | st.floats()
_POSITIVE = st.floats(min_value=0.0, exclude_min=True) | _EXTREMES
_JSON = st.recursive(
    st.none() | st.booleans() | st.text("ab1.e", max_size=4) | _NUMBERS,
    lambda inner: st.lists(inner, max_size=4), max_leaves=8)
_VALUES = _POSITIVE | _NUMBERS | _JSON
# samples: increasing x with arbitrary V, arbitrary pairs, or anything
_SAMPLES = st.builds(
    lambda xs, vs: [[x, v] for x, v in zip(sorted(xs), vs)],
    st.lists(_FINITE, min_size=4, max_size=6, unique=True),
    st.lists(_FINITE, min_size=6, max_size=6)) \
    | st.lists(st.lists(_NUMBERS, min_size=2, max_size=2), max_size=6) \
    | _JSON
_DOMAINS = st.lists(_NUMBERS, min_size=2, max_size=2) \
    | st.tuples(st.just(0), _POSITIVE).map(list) | _JSON


_KEYS = {"harmonic": ["omega"], "linear": ["slope"],
         "morse": ["depth", "range"], "coulomb": ["charge", "centrifugal"],
         "square_well": ["depth", "width"], "tabulated": ["samples"]}


@st.composite
def _documents(draw):
    kind = draw(st.sampled_from(sorted(_KEYS)))
    params = {k: draw(_SAMPLES if k == "samples" else _VALUES)
              for k in _KEYS[kind] if draw(st.booleans())}
    doc = {"type": kind, "params": params}
    for key, values in (("hbar", _VALUES), ("mass", _VALUES),
                        ("domain", _DOMAINS)):
        if draw(st.booleans()):
            doc[key] = draw(values)
    return doc


@_PROPERTIES
@given(doc=_documents())
def test_from_dict_returns_a_model_or_raises_parse_error(doc):
    try:
        PotentialModel.from_dict(doc)
    except ParseError:
        pass


def _plain_reach(potential, energy, start, side, steps, exponent):
    """The decay walk one step at a time: (domain, x) at the first step at
    which the exponent reaches ``exponent``."""
    lo, hi = potential.domain
    width = max(hi - lo, potential.length)
    dx = width / steps
    two_m, hbar = 2.0 * potential.constants.mass, potential.constants.hbar
    x, expo, k_prev = start, 0.0, 0.0
    while expo < exponent:
        x_next = x + side * dx
        if not lo <= x_next <= hi:     # a soft edge in the way moves out
            lo, hi = (lo - width, hi) if side < 0 else (lo, hi + width)
            continue
        v = potential.with_domain(lo, hi).evaluate(np.array([x_next]))[0]
        k = np.sqrt(two_m * max(v - energy, 0.0)) / hbar
        expo = expo + 0.5 * (k + k_prev) * dx
        x, k_prev = x_next, k
    return (lo, hi), x


@pytest.mark.parametrize("steps", [512, 1000])
@pytest.mark.parametrize("side", [-1, 1])
def test_decay_reach_equals_a_plain_loop(steps, side, monkeypatch):
    # a harmonic tail: V is a polynomial, and an exponent of 150 from the
    # turning point at E = 1/2 stops at |x| ~ 17.4, after the soft edge of
    # the domain (-3, 3) has moved out by its width three times
    pot = PotentialModel.harmonic(1.0, domain=(-3.0, 3.0))
    start = side * 1.0
    plain = _plain_reach(pot, 0.5, start, side, steps, 150.0)
    calls = [0]
    evaluate = PotentialModel.evaluate

    def spy(self, x):
        calls[0] += 1
        return evaluate(self, x)

    monkeypatch.setattr(PotentialModel, "evaluate", spy)
    model, x = decay_reach(pot, 0.5, start, side, steps, 150.0, 10)
    assert (model.domain, x) == plain
    assert 15.0 < side * x < 21.0
    # one V call a width of steps, one more where an edge cuts it short
    assert calls[0] == 4


def test_decay_reach_from_past_the_far_edge_first_reaches_its_start(
        monkeypatch):
    # the walk to lower x from x = 2 on (-3, -1) used to grow the lower
    # side, away from its start, forever without a step; a spy on the
    # domain moves stops such a walk after 100
    moves = [0]
    with_domain = PotentialModel.with_domain

    def spy(self, lo, hi):
        moves[0] += 1
        if moves[0] > 100:
            raise AssertionError("the walk keeps moving the domain")
        return with_domain(self, lo, hi)

    pot = PotentialModel.harmonic(1.0).with_domain(-3.0, -1.0)
    monkeypatch.setattr(PotentialModel, "with_domain", spy)
    model, x = decay_reach(pot, 0.5, 2.0, -1, 512, 1.0, 1)
    assert model.domain == (-3.0, 2.0) and moves[0] == 1
    # 212 steps of the width at the call, 2/512: the integral of
    # sqrt(x^2 - 1) from x ~ 1.17 to 2 is 1
    assert x == 2.0 - 212 * (2.0 / 512)
    # from x = 2 to the turning point at 1 the exponent reaches only
    # sqrt(3) - ln(2 + sqrt(3))/2 ~ 1.07, and past it V falls back to E
    assert decay_reach(pot, 0.5, 2.0, -1, 512, 1.1, 1)[1] is None
    # a hard side refuses the move
    hard = PotentialModel.from_callable(lambda x: x * x, (-3.0, -1.0))
    with pytest.raises(UsageError, match="hard upper edge"):
        decay_reach(hard, 0.5, 2.0, -1, 512, 1.0, 1)


def test_decay_reach_ends_at_a_closed_edge_or_within_its_widths():
    pot = PotentialModel.harmonic(1.0, domain=(-3.0, 3.0))
    # no decay starts within a width: at E = 50 the turning point is x = 10
    model, x = decay_reach(pot, 50.0, 0.0, 1, 512, 1.0, 10)
    assert x is None and model.domain == (-3.0, 9.0)
    # an exponent of 1e6 lies past three widths
    model, x = decay_reach(pot, 0.5, 1.0, 1, 512, 1e6, 3)
    assert x is None and model.domain == (-3.0, 15.0)
    # a hard side ends the walk at its edge, an open one at its end, off
    # the edge
    hard = PotentialModel.from_callable(lambda x: x * x, (-3.0, 3.0))
    assert decay_reach(hard, 0.5, 1.0, 1, 512, 1e6, 3) == (hard, 3.0)
    coulomb = PotentialModel.coulomb(1.0, 1.0)
    assert decay_reach(coulomb, -0.2, 1.0, -1, 512, 1e6, 3) == (
        coulomb, coulomb.ends[0])
