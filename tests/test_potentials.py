import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebound.errors import DomainError, ParseError, SolverError, UsageError
from phasebound.potentials import (
    MomentumField,
    PhysicalConstants,
    PotentialModel,
    effective_radial,
    local_momentum,
)


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
    assert pot.lo_open
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


def test_minimum_unbounded_below():
    pot = PotentialModel.from_callable(
        lambda r: -1.0 / r**2, domain=(0.0, 10.0), lo_open=True)
    with pytest.raises(SolverError):
        pot.minimum()


def test_effective_radial_adds_centrifugal_term():
    coul = PotentialModel.coulomb(1.0)
    eff = effective_radial(coul, 0.25)
    r = 2.0
    assert eff.evaluate(r) == pytest.approx(-1.0 / r + 0.25 / (2.0 * r * r))
    assert eff.domain[0] == 0.0 and eff.lo_open
    harm = PotentialModel.harmonic(1.0)
    with pytest.raises(UsageError):
        effective_radial(harm, 0.25)  # not a half-line potential


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
