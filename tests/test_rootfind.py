import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from phasebound import potentials
from phasebound.errors import SolverError, UsageError
from phasebound.potentials import PotentialModel
from phasebound.rootfind import bisect_then_brent, bounded_minimum


def test_cubic_root():
    root = bisect_then_brent(lambda x: x**3 - 2.0, 0.0, 2.0)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)


def test_exact_zero_at_endpoint_returned():
    assert bisect_then_brent(np.sin, 0.0, 1.0, fa=0.0) == 0.0
    assert bisect_then_brent(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_flat_then_steep():
    # pre-bisection keeps the secant steps from stalling on a plateau
    f = lambda x: np.tanh(50.0 * (x - 0.737)) + x * 1e-6
    root = bisect_then_brent(f, -4.0, 5.0)
    assert abs(f(root)) < 1e-10


def test_unbracketed_rejected():
    with pytest.raises((SolverError, UsageError, ValueError)):
        bisect_then_brent(lambda x: x * x + 1.0, -1.0, 1.0)


# -- bounded_minimum: scipy's bounded Brent search, bit for bit -------------

_QUARTIC = [[x, x ** 4 + x * x]
            for x in (-3.0 + 6.0 * k / 50 for k in range(51))]

# The families minimum() searches, each on the bracket it builds there.
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


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_bounded_minimum_matches_scipy_on_each_family_bracket(
        family, monkeypatch):
    calls = []

    def spy(f, a, b, xatol):
        calls.append((f, a, b, xatol))
        return bounded_minimum(f, a, b, xatol)

    monkeypatch.setattr(potentials, "bounded_minimum", spy)
    pot = _FAMILIES[family]()
    x_min, v_min = pot.minimum()
    assert len(calls) == 1
    f, a, b, xatol = calls[0]
    x, v = _scipy_minimum(f, a, b, xatol)
    assert bounded_minimum(f, a, b, xatol) == (x, v)
    assert (x_min, v_min) == (float(x), float(v))


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
       rel_tol=st.sampled_from([1e-13, 1e-8, 1e-5, 1e-3, 0.1]))
def test_bounded_minimum_matches_scipy_on_random_brackets(shape, c, a, width,
                                                          rel_tol):
    f = _SHAPES[shape](c)
    b = a + width
    xatol = rel_tol * (b - a) + 1e-300
    assert bounded_minimum(f, a, b, xatol) == _scipy_minimum(f, a, b, xatol)


def test_bounded_minimum_stops_after_500_evaluations():
    # with xatol 0 and the minimum at x = 0 the tolerance shrinks with x,
    # so only the evaluation budget ends the search
    calls = []

    def f(x):
        calls.append(x)
        return abs(x)

    got = bounded_minimum(f, -1.0, 2.0, 0.0)
    assert len(calls) == 500
    res = minimize_scalar(abs, bounds=(-1.0, 2.0), method="bounded",
                          options={"xatol": 0.0})
    assert res.nfev == 500 and res.status == 1
    assert got == (res.x, res.fun)
