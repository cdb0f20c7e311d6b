import numpy as np
import pytest
from scipy.integrate import simpson

from phasebound.errors import (
    NormalizationError,
    SingularPointError,
    UsageError,
)
from phasebound.classical import find_turning_points
from phasebound.potentials import PotentialModel, effective_radial
from phasebound.quantize import solve_level, spectrum
from phasebound.states import (
    _simpson,
    build_state,
    connection_check,
    delta_functional,
    epsilon_parameter,
    paper_normalization,
    standing_wave,
)


@pytest.fixture(scope="module")
def harmonic_states(harmonic):
    result = spectrum(harmonic, 4)
    return {lv.n: build_state(harmonic, lv) for lv in result.levels}


def _flat_box(length):
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return PotentialModel.from_callable(zero, domain=(0.0, length), df=zero)


def test_branch_continuity(harmonic_states):
    for state in harmonic_states.values():
        report = connection_check(state)
        assert max(report.value_gap) < 1e-9
        assert max(report.derivative_gap) < 1e-9
        assert report.max_residual < 1e-9


def test_region_classification(harmonic_states):
    st = harmonic_states[1]
    region = st.level.region
    assert st.sample(region.midpoint).region == "allowed"
    assert st.sample(region.left - 1.0).region == "left-forbidden"
    assert st.sample(region.right + 1.0).region == "right-forbidden"


def test_ground_state_tracks_gaussian(harmonic_states):
    # the cos-branch with a half quantum is a crude but recognizable
    # stand-in for the exact Gaussian; worst deviation sits at the
    # turning points and stays below ~0.1 in amplitude
    st = harmonic_states[0]
    xs = np.linspace(-4.0, 4.0, 161)
    exact = np.pi ** -0.25 * np.exp(-xs ** 2 / 2.0)
    got = np.array([st.sample(x).psi for x in xs])
    assert np.max(np.abs(np.abs(got) - exact)) < 0.12
    assert st.sample(0.0).psi == pytest.approx(np.pi ** -0.25, abs=0.07)


def test_normalization_against_trapezoid(harmonic_states):
    st = harmonic_states[2]
    xs = np.linspace(-7.0, 7.0, 200_001)
    psi = st.sample(xs[::20]).psi
    integral = np.trapezoid(psi * psi, xs[::20])
    assert integral == pytest.approx(1.0, abs=1e-5)


def test_parity(harmonic_states):
    xs = np.linspace(0.1, 3.0, 23)
    for n, st in harmonic_states.items():
        sign = (-1.0) ** n
        for x in xs:
            assert st.sample(-x).psi == pytest.approx(
                sign * st.sample(x).psi, abs=1e-8)


def test_node_count_matches_quantum_number(harmonic_states):
    xs = np.linspace(-4.5, 4.5, 3001)
    for n, st in harmonic_states.items():
        psi = st.sample(xs).psi
        signs = np.sign(psi[np.abs(psi) > 1e-8])
        assert int(np.sum(signs[1:] != signs[:-1])) == n


def test_widened_domain_does_not_move_the_state(harmonic, harmonic_states):
    wide = harmonic.with_domain(harmonic.domain[0] - 5.0,
                                harmonic.domain[1] + 5.0)
    lv = spectrum(wide, 0).levels[0]
    st_wide = build_state(wide, lv)
    st = harmonic_states[0]
    for x in np.linspace(-3.0, 3.0, 13):
        assert st_wide.sample(x).psi == pytest.approx(st.sample(x).psi,
                                                      abs=1e-8)


def test_constant_momentum_detection_and_closed_normalization():
    # deep square well of width pi/2: ground state momentum is exactly 1,
    # and the closed-form constant sqrt(k / (pi(n+1/2) + 1)) applies
    pot = PotentialModel.square_well(depth=200.0, width=np.pi / 2.0)
    lv = spectrum(pot, 0).levels[0]
    st = build_state(pot, lv)
    assert st.wavenumber == pytest.approx(1.0, rel=1e-10)
    pn = paper_normalization(st)
    assert pn.constant == pytest.approx(
        np.sqrt(1.0 / (np.pi / 2.0 + 1.0)), rel=1e-9)
    assert pn.ratio_to_numeric == pytest.approx(1.0, abs=0.1)
    wave = standing_wave(st, 0.2)
    # cosine branch carries sqrt(2) on top of the overall constant
    assert wave == pytest.approx(np.sqrt(2.0) * pn.constant * np.cos(0.2),
                                 rel=1e-9)


def test_varying_momentum_has_no_wavenumber(harmonic_states):
    st = harmonic_states[0]
    assert st.wavenumber is None
    with pytest.raises(UsageError):
        paper_normalization(st)
    with pytest.raises(UsageError):
        standing_wave(st, 0.0)


def test_epsilon_closed_form(harmonic):
    # epsilon = -hbar m V' / p^3; for the harmonic well at E=2, x=1 this
    # is -1/3^(3/2)
    assert epsilon_parameter(harmonic, 2.0, 1.0) == pytest.approx(
        -(3.0 ** -1.5), rel=1e-12)
    assert epsilon_parameter(harmonic, 2.0, 0.0) == pytest.approx(0.0,
                                                                  abs=1e-15)


def test_delta_closed_form_at_symmetric_point(harmonic):
    # at the well bottom delta reduces to -V''/(8 E^2)
    for energy in (3.5, 10.5):
        assert delta_functional(harmonic, energy, 0.0) == pytest.approx(
            -1.0 / (8.0 * energy * energy), rel=1e-6)


def test_delta_numeric_derivative_agrees_with_analytic(harmonic):
    # same well, but with the derivative callback withheld so the slope
    # comes from finite differences
    blind = PotentialModel.from_callable(
        lambda x: 0.5 * np.asarray(x, dtype=float) ** 2,
        domain=harmonic.domain)
    x, energy = 0.7, 3.0
    assert delta_functional(blind, energy, x) == pytest.approx(
        delta_functional(harmonic, energy, x), rel=1e-5)
    assert epsilon_parameter(blind, energy, x) == pytest.approx(
        epsilon_parameter(harmonic, energy, x), rel=1e-6)


def test_diagnostics_vanish_for_free_motion():
    box = PotentialModel.from_callable(
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        domain=(-1.0, 1.0),
        df=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    assert abs(epsilon_parameter(box, 1.0, 0.3)) < 1e-12
    assert abs(delta_functional(box, 1.0, 0.3)) < 1e-12


def test_epsilon_without_a_floor_takes_the_fallback_scale():
    # bare Coulomb has no minimum, and the diagnostics ask for none:
    # eps = -hbar m V'/p^3 = -2/3^(3/2) at r = 1, E = -0.5
    pot = PotentialModel.coulomb(2.0)
    assert epsilon_parameter(pot, -0.5, 1.0) == pytest.approx(
        -2.0 * 3.0 ** -1.5, rel=1e-12)


def test_epsilon_grows_toward_turning_point(harmonic):
    values = [abs(epsilon_parameter(harmonic, 0.5, x))
              for x in (0.2, 0.6, 0.9, 0.99)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_diagnostics_refuse_singular_points(harmonic):
    with pytest.raises(SingularPointError):
        epsilon_parameter(harmonic, 0.5, 1.0)  # exactly at the turning point
    with pytest.raises(UsageError):
        epsilon_parameter(harmonic, 0.5, 2.5)  # outside the allowed region


@pytest.mark.parametrize("family, args, energy", [
    ("harmonic", (1.0,), 5.5),
    ("morse", (10.0, 1.0), -4.0),
    ("linear", (1.0,), 2.0),
])
def test_array_diagnostics_match_scalar_calls(family, args, energy):
    pot = getattr(PotentialModel, family)(*args)
    region = find_turning_points(pot, energy).require_single()
    # inside, both turning points exactly, and points on either side
    # of the region
    xs = np.concatenate((np.linspace(region.left - 1.0, region.right + 1.0,
                                     61),
                         [region.left, region.right, region.midpoint]))
    for fn in (epsilon_parameter, delta_functional):
        got = fn(pot, energy, xs, region)
        assert got.shape == xs.shape
        for x, value in zip(xs, got):
            try:
                want = fn(pot, energy, float(x), region)
            except (SingularPointError, UsageError):
                assert np.isnan(value), (fn.__name__, x)
                continue
            assert value == pytest.approx(want, rel=1e-12, abs=1e-300)
        outside = (xs < region.left) | (xs > region.right)
        assert np.all(np.isnan(got[outside]))
        assert np.isnan(got[-3]) and np.isnan(got[-2])
        assert np.isfinite(got[-1])
    # without a region argument the array path finds it itself
    assert np.allclose(epsilon_parameter(pot, energy, xs[20:25]),
                       epsilon_parameter(pot, energy, xs[20:25], region),
                       equal_nan=True)


def test_build_state_makes_no_per_point_integrals():
    # V calls of build_state at n = 10: a few batched passes, against
    # ~3,000 with one adaptive integral per grid point
    calls = [0]

    def well(x):
        calls[0] += 1
        return 0.5 * np.asarray(x, dtype=float) ** 2

    pot = PotentialModel.from_callable(well, (-12.0, 12.0),
                                       df=lambda x: np.asarray(x, dtype=float),
                                       edges=("soft", "soft"))
    level = spectrum(pot, 10).levels[10]
    calls[0] = 0
    state = build_state(pot, level)
    assert calls[0] < 100
    assert state.normalization_numeric > 0.0


def test_sample_takes_arrays(harmonic_states):
    st = harmonic_states[3]
    xs = np.array([[-5.0, -1.0], [0.3, 4.5]])
    cols = st.sample(xs)
    assert cols.psi.shape == xs.shape
    for x, phi, psi, tag in zip(xs.ravel(), cols.phi.ravel(),
                                cols.psi.ravel(), cols.region.ravel()):
        one = st.sample(float(x))
        assert one.region == tag
        assert one.phi == pytest.approx(phi, rel=1e-12)
        assert one.psi == pytest.approx(psi, rel=1e-10, abs=1e-14)
    assert cols.phi.shape == xs.shape


def test_tabulate_columns(harmonic_states):
    # the columns a table of the state reads, one entry per position;
    # the turning points of n = 1 sit at -sqrt(3) and sqrt(3)
    st = harmonic_states[1]
    xs = np.linspace(-3.0, 3.0, 7)
    cols = st.sample(xs)
    assert cols.x.tolist() == xs.tolist()
    assert cols.region.tolist() == ["left-forbidden"] * 2 + ["allowed"] * 3 \
        + ["right-forbidden"] * 2
    assert np.all(np.diff(cols.phi) > 0.0)


def test_unbound_tail_refused():
    # an energy above the well rim has no decaying tail to normalize, and
    # the refusal must come at once, not after a long march outward
    calls = [0]

    def square_well(x):
        calls[0] += 1
        return np.where(np.abs(x) < 0.5, -1.0, 0.0)

    pot = PotentialModel.from_callable(square_well, (-40.5, 40.5),
                                       edges=("soft", "soft"))
    from phasebound.classical import ClassicalRegion
    from phasebound.quantize import EnergyLevel
    fake = EnergyLevel(n=0, energy=0.5,
                       region=ClassicalRegion(-0.5, 0.5),
                       action=1.0, residual=0.0, iterations=1)
    with pytest.raises((NormalizationError, UsageError)):
        build_state(pot, fake)
    assert calls[0] < 2000


def test_build_state_refuses_a_zero_width_region(harmonic):
    from phasebound.classical import ClassicalRegion
    from phasebound.quantize import EnergyLevel
    fake = EnergyLevel(n=0, energy=0.5, region=ClassicalRegion(0.0, 0.0),
                       action=0.0, residual=0.0, iterations=1)
    with pytest.raises(UsageError, match="zero-width region"):
        build_state(harmonic, fake)


def _falling_well():
    # x^2 exp(-(x/6)^4) rises to a rim of 36/sqrt(e) ~ 15.4 at
    # |x| = 648^(1/4) ~ 5.05, just past the soft edges, and falls back to 0
    return PotentialModel.from_callable(
        lambda x: x ** 2 * np.exp(-(x / 6.0) ** 4), (-5.0, 5.0),
        edges=("soft", "soft"))


def test_tail_reach_on_a_falling_well():
    pot = _falling_well()
    state = build_state(pot, solve_level(pot, 0))
    assert state.normalization_numeric == 0.5321365551132915
    # the left tail moves the lower edge out by the width 10, the right
    # tail the upper one by the new width 20
    assert state.potential.domain == (-15.0, 25.0)


def test_tail_that_stops_decaying_is_refused():
    # level 3 sits so close to the rim that V falls back to E before the
    # tail has spent its decay budget
    pot = _falling_well()
    with pytest.raises(NormalizationError, match="stopped decaying"):
        build_state(pot, solve_level(pot, 3))


def test_a_state_on_an_open_edge_stops_at_it():
    # r = 0 is open, so the left tail ends there; moving the edge out put
    # the well's mirror image at r < 0 in the tail's way
    pot = effective_radial(PotentialModel.harmonic(1.0, domain=(0.0, 12.0)),
                           0.25)
    state = build_state(pot, solve_level(pot, 0))
    assert state.potential.domain == (0.0, 12.0)
    xs = np.linspace(pot.ends[0], 8.0, 20001)
    psi = state.sample(xs).psi
    assert np.trapezoid(psi * psi, xs) == pytest.approx(1.0, abs=1e-5)


def _simpson_grids():
    for n in (3, 4, 5, 6, 384, 2001):
        yield f"uniform-{n}", np.linspace(-1.3, 2.9, n)
    yield "uniform-decreasing-384", np.linspace(4.0, 1.5, 384)


_SIMPSON_GRIDS = dict(_simpson_grids())


@pytest.mark.parametrize("name", sorted(_SIMPSON_GRIDS))
def test_simpson_matches_scipy_bit_for_bit(name):
    # scipy weighs a uniform grid by its uneven-spacing formula, so the two
    # round differently; the bound is relative to the integral of |y|, as
    # the cos(3x) samples cancel to ~1e-2 of it
    xs = _SIMPSON_GRIDS[name]
    rng = np.random.default_rng(len(xs))
    for y in (rng.normal(size=len(xs)), np.exp(-xs ** 2), np.cos(3.0 * xs)):
        assert abs(_simpson(y, xs) - simpson(y, x=xs)) <= 1e-14 * abs(
            simpson(np.abs(y), x=xs))
