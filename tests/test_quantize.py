import numpy as np
import pytest

import phasebound.oracle as oracle_mod
from phasebound.errors import OracleError, SolverError
from phasebound.potentials import PhysicalConstants, PotentialModel
from phasebound.quantize import claim_audit, solve_level, spectrum


def _gaussian_well(depth, soft=True):
    return PotentialModel.from_callable(
        lambda x: -depth * np.exp(-np.asarray(x, dtype=float) ** 2),
        domain=(-25.0, 25.0),
        df=lambda x: 2.0 * depth * np.asarray(x, dtype=float)
        * np.exp(-np.asarray(x, dtype=float) ** 2),
        soft_edges=(soft, soft))


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
