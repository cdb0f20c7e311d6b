"""Separation of central problems: angular eigenvalues, radial ladders,
and the pointwise consistency of assembled product states."""

import math

import numpy as np
import pytest
from scipy.special import hyperu

from phasebound.errors import SingularPointError, UsageError
from phasebound.oracle import reference_levels
from phasebound.potentials import PhysicalConstants, PotentialModel
from phasebound.radial import (
    SeparableState,
    angular_eigenvalue,
    angular_numbers,
    assemble_state,
    azimuthal_eigenvalue,
    canonical_3d_residual,
    radial_spectrum,
)


def test_azimuthal_eigenvalue_scaling():
    assert azimuthal_eigenvalue(-3, PhysicalConstants(hbar=0.5)) == -1.5
    assert azimuthal_eigenvalue(2) == 2.0
    assert azimuthal_eigenvalue(0) == 0.0


def test_azimuthal_rejects_non_integers():
    with pytest.raises(UsageError):
        azimuthal_eigenvalue(1.5)
    with pytest.raises(UsageError):
        azimuthal_eigenvalue(True)


def test_angular_closed_form():
    # hbar (n_theta + 1/2) + |M_z|, returned exactly once the solver
    # agrees; the quantizer's own M for (3, 2) is 5.4999999999999991
    value = angular_eigenvalue(1, 0.75, PhysicalConstants(hbar=0.5))
    assert value == 0.5 * 1.5 + 0.75
    assert angular_numbers(3, 2).M == 5.5
    assert angular_numbers(2, -2).M == 4.5
    assert angular_numbers(0, 0).M == 0.5


def test_angular_cross_check_routes():
    # m_z = 0 goes through the flat phase integral, m_z != 0 through the
    # full quantizer on the polar barrier; both must land on the closed form.
    assert angular_eigenvalue(2, 0.0) == pytest.approx(2.5, rel=1e-8)
    ang = angular_numbers(0, 1)
    assert ang.M == pytest.approx(1.5, rel=1e-8)
    assert ang.M_z == 1.0
    ang = angular_numbers(2, -2)
    assert ang.M == pytest.approx(4.5, rel=1e-8)
    assert ang.l_equivalent == 4


def test_angular_rejects_bad_n_theta():
    with pytest.raises(UsageError):
        angular_eigenvalue(-1, 0.0)


def test_hydrogen_partitions_share_principal_energy():
    # Every (n_r, n_theta, m_z) split with n_r + n_theta + |m_z| + 1 = 3
    # must give the same energy -1/18.
    coul = PotentialModel.coulomb(1.0)
    expected = -1.0 / 18.0
    for n_r, n_theta, m_z in ((2, 0, 0), (1, 1, 0), (1, 0, 1),
                              (0, 2, 0), (0, 0, 2)):
        res = radial_spectrum(coul, n_r, n_theta, m_z)
        assert not res.truncated
        level = res.levels[n_r]
        assert level.energy == pytest.approx(expected, rel=1e-8)
        assert res.angular.l_equivalent == n_theta + abs(m_z)


@pytest.mark.parametrize("charge", [0.505, 0.55, 0.6, 0.8886])
def test_weakly_bound_coulomb_ladder_passes_acceptance(charge):
    # n_theta = 3, m_z = 2 puts the levels at -Z^2 / (2 (n_r + 6)^2); at
    # these charges dW/dE/hbar reaches ~2000, so a root tolerance of 1e-12
    # in E alone would leave the residual above the acceptance limit
    res = radial_spectrum(PotentialModel.coulomb(charge), 4, 3, 2)
    assert not res.truncated
    energies = [lv.energy for lv in res.levels]
    exact = [-charge ** 2 / (2.0 * (n_r + 6) ** 2) for n_r in range(5)]
    assert energies == pytest.approx(exact, rel=1e-10)


def test_isotropic_quadratic_ladder():
    osc = PotentialModel.from_callable(
        lambda r: 0.5 * np.asarray(r, dtype=float) ** 2, (0.0, 40.0),
        df=lambda r: np.asarray(r, dtype=float),
        edges=("open", "soft"))
    res = radial_spectrum(osc, 1, 0, 0)
    assert not res.truncated
    assert res.m_squared == pytest.approx(0.25, rel=1e-12)
    energies = [lv.energy for lv in res.levels]
    assert energies == pytest.approx([1.5, 3.5], rel=1e-8)


@pytest.mark.parametrize("hbar", [1.0, 1e-12, 1e-100, 1e-150])
def test_radial_harmonic_ladder_at_a_tiny_hbar(hbar):
    # M = 5 hbar / 2 for n_theta = m_z = 1, so E = hbar (2 n_r + 7/2); a
    # quadrature tolerance in units of action would leave 4e-11 of it at
    # hbar = 1e-12
    pot = PotentialModel.harmonic(1.0, PhysicalConstants(hbar=hbar),
                                  domain=(0.0, 12.0 * math.sqrt(hbar)))
    res = radial_spectrum(pot, 2, 1, 1)
    assert not res.truncated
    assert [lv.energy / hbar for lv in res.levels] == pytest.approx(
        [3.5, 5.5, 7.5], rel=1e-14)


def test_independent_route_confirms_radial_levels():
    # The grid route solves the conventional radial equation, whose
    # inverse-square strength for l = 1 is l (l + 1) = 2; the phase-space
    # route uses the (l + 1/2)^2 strength through the angular eigenvalue.
    # Both must produce the same two lowest levels.
    direct = PotentialModel.from_callable(
        lambda r: -1.0 / r + 1.0 / r ** 2, (1e-3, 120.0),
        df=lambda r: 1.0 / r ** 2 - 2.0 / r ** 3)
    # hard edges: the reference box is the domain itself
    ref = reference_levels(direct, 2)
    exact = np.array([-0.125, -1.0 / 18.0])
    assert np.max(np.abs(ref - exact) / np.abs(exact)) < 1e-7

    res = radial_spectrum(PotentialModel.coulomb(1.0), 1, 1, 0)
    engine = np.array([lv.energy for lv in res.levels])
    assert np.max(np.abs(engine - exact) / np.abs(exact)) < 1e-8
    assert np.max(np.abs(engine - ref) / np.abs(exact)) < 1e-7


def test_truncation_reported_for_shallow_radial_well():
    well = PotentialModel.from_callable(
        lambda r: -3.0 * np.exp(-0.5 * np.asarray(r, dtype=float)),
        (0.0, 60.0),
        df=lambda r: 1.5 * np.exp(-0.5 * np.asarray(r, dtype=float)),
        edges=("open", "soft"))
    res = radial_spectrum(well, 8, 0, 0)
    assert res.truncated
    assert "unbound" in res.reason
    energies = [lv.energy for lv in res.levels]
    assert len(energies) == 3
    assert all(e < 0.0 for e in energies)
    assert energies == sorted(energies)


def _zero_radial_model():
    return PotentialModel.from_callable(
        lambda r: np.zeros_like(np.asarray(r, dtype=float)), (0.0, 50.0),
        df=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        edges=("open", "soft"))


def test_free_product_satisfies_3d_equation():
    # sin(k r) with constant angular factors solves the V = 0 equation at
    # E = k^2 / 2 exactly; only stencil error remains.
    state = SeparableState(radial=lambda r: math.sin(2.0 * r),
                           polar=lambda th: 1.0,
                           azimuthal=lambda ph: 1.0,
                           energy=2.0)
    resid = canonical_3d_residual(_zero_radial_model(), state,
                                  (1.3, 0.7, 0.2))
    assert resid < 1e-6


def _coulomb_radial_factor(r):
    # Exact decaying solution of the radial equation for V = -1/r at
    # E = -1/2 with inverse-square strength 1/4 (the partner of the
    # polar factor cos(theta / 2)), written via the confluent
    # hypergeometric U function.
    mu = 1.0 / math.sqrt(2.0)
    z = 2.0 * r
    return math.exp(-0.5 * z) * z ** (mu + 0.5) * hyperu(mu + 0.5 - 1.0,
                                                         1.0 + 2.0 * mu, z)


def test_coulomb_product_residual_shrinks_quadratically():
    coul = PotentialModel.coulomb(1.0)
    state = SeparableState(radial=_coulomb_radial_factor,
                           polar=lambda th: math.cos(0.5 * th),
                           azimuthal=lambda ph: 1.0,
                           energy=-0.5)
    point = (1.3, 0.9, 0.4)
    resids = [canonical_3d_residual(coul, state, point, step=h)
              for h in (1e-2, 5e-3, 2.5e-3)]
    assert resids[0] / resids[1] == pytest.approx(4.0, abs=0.5)
    assert resids[1] / resids[2] == pytest.approx(4.0, abs=0.5)
    # default step: measured 6.6e-8, dominated by stencil round-off
    assert canonical_3d_residual(coul, state, point) < 1e-6


def test_residual_guard_refuses_turning_point_radius():
    ang = angular_numbers(0, 0)
    state = assemble_state(lambda r: 1.0, ang, -0.5)
    coul = PotentialModel.coulomb(1.0)
    # outer turning point of -1/r + 1/(8 r^2) at E = -1/2
    r_tp = 1.0 + math.sqrt(3.0) / 2.0
    with pytest.raises(SingularPointError):
        canonical_3d_residual(coul, state, (r_tp, 0.9, 0.4))
    with pytest.raises(UsageError):
        canonical_3d_residual(coul, state, (5e-5, 0.9, 0.4))


def test_assemble_state_requires_zero_mz():
    ang = angular_numbers(0, 1)
    with pytest.raises(UsageError):
        assemble_state(lambda r: 1.0, ang, -0.5)


def test_assembled_polar_factor_is_cos_m_theta_over_hbar():
    c = PhysicalConstants(hbar=0.5)
    ang = angular_numbers(2, 0, c)   # M = 2.5 hbar
    state = assemble_state(lambda r: 1.0, ang, -0.5, c)
    for theta in (0.0, 0.4, 1.3, 2.9):
        assert state.polar(theta) == math.cos(2.5 * theta)
    assert state.azimuthal(0.7) == 1.0
