import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from phasebound import classical, potentials, rootfind
from phasebound.errors import SolverError, UsageError
from phasebound.potentials import PotentialModel
from phasebound.quantize import spectrum
from phasebound.rootfind import bisect_then_brent, golden_minimum


def test_cubic_root():
    root = bisect_then_brent(lambda x: x**3 - 2.0, 0.0, 2.0)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)


def test_exact_zero_at_endpoint_returned():
    assert bisect_then_brent(np.sin, 0.0, 1.0, fa=0.0) == 0.0
    assert bisect_then_brent(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_flat_then_steep():
    # Brent's own bisection safeguard keeps the secant steps from
    # stalling on the plateaus either side of the step
    f = lambda x: np.tanh(50.0 * (x - 0.737)) + x * 1e-6
    root = bisect_then_brent(f, -4.0, 5.0)
    assert abs(f(root)) < 1e-10


@pytest.mark.parametrize("x_scale, f_scale", [(1e-75, 1e150),
                                               (1e75, 1e-150)])
def test_interpolation_far_from_unit_scale(x_scale, f_scale):
    # the turning points of harmonic(1e150) sit at x ~ 1e-75 with
    # 2m(E - V) ~ 1e150: slopes ~ 1e225, whose products overflow
    def f(x):
        return np.float64(f_scale) * (1.0 - (x / x_scale) ** 2)

    a, b = np.float64(0.9 * x_scale), np.float64(1.7 * x_scale)
    root = bisect_then_brent(f, a, b, xtol=1e-15 * float(a))
    assert root == pytest.approx(x_scale, rel=1e-14)


def test_running_out_of_brent_steps_is_an_error(monkeypatch):
    # an unconverged point is not returned as a root
    monkeypatch.setattr(rootfind, "_BRENT_STEPS", 2)
    with pytest.raises(SolverError, match=r"2 steps on \[0\.0, 2\.0\]"):
        bisect_then_brent(lambda x: x**3 - 2.0, 0.0, 2.0)


def test_unbracketed_rejected():
    with pytest.raises((SolverError, UsageError, ValueError)):
        bisect_then_brent(lambda x: x * x + 1.0, -1.0, 1.0)


def test_values_whose_product_underflows_still_bracket():
    # f(0) * f(1) = -2.1e-341 rounds to -0.0: the signs must be compared
    assert bisect_then_brent(lambda x: 1e-170 * (x - 0.3), 0.0, 1.0) \
        == pytest.approx(0.3, abs=1e-12)


def test_a_root_on_a_flat_floor_is_found_to_xtol():
    # f(0) = -1e-300 times any f below ~2e-8 underflows, so a sign test
    # by product moves the bracket the wrong way; the root is
    # sqrt(2e-300 / 3) = 8.2e-151
    def f(x):
        return -x ** 3 + 1.5 * x * x - 1e-300

    root = bisect_then_brent(f, 0.0, 0.5, xtol=1e-12)
    assert abs(root - math.sqrt(2e-300 / 3.0)) <= 1e-12


# Scanned wells: a step, a kink and a cusp, each with soft edges
_SCANNED = {
    "square_well": (lambda x: np.where(np.abs(x) < 1.0, -8.0, 0.0),
                    (-40.0, 40.0)),
    "abs": (np.abs, (-10.0, 10.0)),
    "cusp": (lambda x: np.sqrt(np.abs(x - 0.3)), (-10.0, 10.0)),
}


@pytest.mark.parametrize("name", sorted(_SCANNED))
def test_every_scanned_root_costs_far_fewer_calls_than_the_cap(
        name, monkeypatch):
    # Brent's bisection safeguard alone bounds the steps on a jump or a
    # kink: the square well takes ~74 calls of f at most, |x| 2, the cusp 6
    f, domain = _SCANNED[name]
    calls = []

    def counted(g, *args, **kwargs):
        count = [0]

        def h(x):
            count[0] += 1
            return g(x)

        try:
            return bisect_then_brent(h, *args, **kwargs)
        finally:
            calls.append(count[0])

    monkeypatch.setattr(classical, "bisect_then_brent", counted)
    pot = PotentialModel.from_callable(f, domain, edges=("soft", "soft"))
    assert spectrum(pot, 3).levels
    assert calls and max(calls) <= 100


# -- golden_minimum: the numeric floor search, against scipy ---------------

_QUARTIC = [[x, x ** 4 + x * x]
            for x in (-3.0 + 6.0 * k / 50 for k in range(51))]

# Each family's V as a custom callable, which states no floor, so that
# minimum() takes the scan and the golden-section search.
_FAMILIES = {
    "harmonic": lambda: PotentialModel.harmonic(1.3),
    "morse": lambda: PotentialModel.morse(10.0, 1.0),
    "linear": lambda: PotentialModel.linear(1.7),
    "square_well_flat": lambda: PotentialModel.square_well(
        8.0, 2.0, domain=(-0.5, 0.5)),
    "square_well_jump": lambda: PotentialModel.square_well(8.0, 2.0),
    "coulomb_centrifugal": lambda: PotentialModel.coulomb(2.5, 0.75),
    "tabulated_quartic": lambda: PotentialModel.tabulated(_QUARTIC),
}


def _scipy_minimum(f, a, b, xatol):
    res = minimize_scalar(f, bounds=(a, b), method="bounded",
                          options={"xatol": xatol})
    return res.x, res.fun


def _rise(f, x, h):
    """How much f grows within h of x: what an error of h in x can cost."""
    return max(abs(f(x + h) - f(x)), abs(f(x - h) - f(x)))


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_numeric_minimum_matches_scipy_on_each_family_bracket(
        family, monkeypatch):
    named = _FAMILIES[family]()
    lower = "open" if named.edges[0] == "open" else "hard"
    pot = PotentialModel.from_callable(
        named.evaluate, named.domain, edges=(lower, "hard"))
    calls = []

    def spy(f, a, b, rtol):
        calls.append((a, b, rtol))
        return golden_minimum(f, a, b, rtol)

    monkeypatch.setattr(potentials, "golden_minimum", spy)
    x_min, v_min = pot.minimum()
    assert len(calls) == 1
    a, b, rtol = calls[0]
    assert rtol == 1e-13 and a <= x_min <= b
    x, v = _scipy_minimum(pot.evaluate, a, b, rtol * (b - a))
    assert v_min <= v + _rise(pot.evaluate, x, rtol * (b - a)) \
        + 1e-15 * abs(v)
    assert v_min == pytest.approx(named.minimum()[1], rel=1e-12, abs=1e-12)


_SHAPES = {
    "quadratic": lambda c: lambda x: (x - c) ** 2 + 0.25,
    "quartic": lambda c: lambda x: (x - c) ** 4 - 3.0 * (x - c) ** 2,
    "abs": lambda c: lambda x: abs(x - c),
}


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(sorted(_SHAPES)),
       c=st.floats(-50.0, 50.0),
       a=st.floats(-100.0, 100.0),
       width=st.floats(1e-9, 200.0),
       rtol=st.sampled_from([1e-13, 1e-8, 1e-5, 1e-3, 0.1]))
def test_golden_minimum_is_no_worse_than_scipy_on_random_brackets(
        shape, c, a, width, rtol):
    # the quartic is a double well: keep its hump at x = c out of the
    # bracket, so that both searches look at one well
    assume(shape != "quartic" or not a < c < a + width)
    f = _SHAPES[shape](c)
    b = a + width
    x, v = golden_minimum(f, a, b, rtol)
    assert a <= x <= b and v == f(x)
    sx, sv = _scipy_minimum(f, a, b, rtol * width)
    # golden's x is within rtol * width of the minimizer (and a few ulps,
    # where the bracket is that narrow)
    h = rtol * width + 4.0 * math.ulp(max(abs(a), abs(b)))
    assert v <= sv + _rise(f, sx, h) + 1e-15 * abs(sv)


def test_golden_minimum_evaluates_a_fixed_count():
    # two inner points, then one call per 1/phi shrink of the bracket: at
    # 1e-13 that is 63 shrinks; a bracket as narrow as one ulp still ends
    for a, b in ((-1.0, 2.0), (1.0, math.nextafter(1.0, 2.0)), (3.0, 3.0)):
        calls = []

        def f(x):
            calls.append(x)
            return abs(x)

        x, v = golden_minimum(f, a, b, 1e-13)
        assert len(calls) == 65
        assert abs(x - min(max(0.0, a), b)) <= 1e-13 * (b - a) + math.ulp(b)
        assert v == abs(x)
    calls.clear()
    golden_minimum(f, -1.0, 2.0, 0.1)
    assert len(calls) == 2 + 5
