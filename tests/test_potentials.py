import json

import numpy as np
import pytest

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
    assert from_file.descriptor() == pot.descriptor()


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
    _, tag = local_momentum(pot, 0.5, 1.0)
    assert tag == "boundary"


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
