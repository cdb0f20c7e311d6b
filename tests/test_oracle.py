import importlib
import pkgutil

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import ai_zeros

import phasebound
from phasebound import oracle
from phasebound.classical import PhaseAccumulator
from phasebound.errors import OracleError, UsageError
from phasebound.oracle import (
    TridiagonalOperator,
    discretize,
    reference_levels,
)
from phasebound.potentials import PotentialModel, effective_radial
from phasebound.quantize import spectrum


def _toy_operator():
    # eigenvalues of tridiag(-1, 2, -1) at size 3: 2 - sqrt(2), 2, 2 + sqrt(2)
    return TridiagonalOperator(np.array([2.0, 2.0, 2.0]), -1.0)


def test_toy_eigenvalues():
    got = _toy_operator().lowest(3)
    want = [2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)]
    assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("diag, off", [
    ([2.0, 2.0, 2.0], -0.0), ([2.0, 2.0, 2.0], -np.inf),
    ([2.0, np.inf, 2.0], -1.0), ([2.0, np.nan, 2.0], -1.0)],
    ids=["underflow", "overflow", "infinite-diagonal", "nan-diagonal"])
def test_an_operator_out_of_double_range_is_an_oracle_error(diag, off):
    # -hbar^2 / (2 m h^2) underflows to -0 at hbar = 1e-170 on harmonic,
    # and overflows to -inf at hbar = 1e160
    with pytest.raises(OracleError, match="double"):
        TridiagonalOperator(np.array(diag), off).lowest(1)


def test_sturm_count_brackets_spectrum():
    counts = _toy_operator().counts([0.0, 1.0, 2.5, 10.0])
    assert counts.tolist() == [0, 1, 2, 3]


def test_sturm_count_survives_exact_pivot_zero():
    op = TridiagonalOperator(np.array([1.0, 1.0]), 1.0)
    # sigma = 1 makes the first pivot exactly zero; eigenvalues are 0 and 2
    assert op.counts([1.0]).tolist() == [1]


def test_sturm_monotone_over_random_shifts(rng):
    op = discretize(PotentialModel.harmonic(1.0), (-6.0, 6.0), 401)
    shifts = np.sort(rng.uniform(-5.0, 120.0, size=100))
    counts = op.counts(shifts)
    assert np.all(np.diff(counts) >= 0)


def test_counts_bracket_lapack_eigenvalues(harmonic):
    # the Sturm count shares no code with LAPACK, so it audits it
    op = discretize(harmonic, (-8.0, 8.0), 1001)
    levels = op.lowest(10)
    pad = 1e-9 * np.maximum(1.0, np.abs(levels))
    assert op.counts(levels - pad).tolist() == list(range(10))
    assert op.counts(levels + pad).tolist() == list(range(1, 11))


def test_box_ground_state():
    flat = PotentialModel.from_callable(
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        domain=(0.0, np.pi))
    refs = reference_levels(flat, 1)
    assert refs[0] == pytest.approx(0.5, abs=1e-6)


def test_harmonic_fixed_box_accuracy(harmonic):
    # h^2 floor for this grid sits near 7.8e-7; anything much worse
    # means the discretization or the eigensolver regressed
    e0 = discretize(harmonic, (-10.0, 10.0), 4001).lowest(1)[0]
    assert e0 == pytest.approx(0.5, abs=2e-6)


def test_grid_halving_is_second_order(harmonic):
    box = (-8.0, 8.0)
    e = [discretize(harmonic, box, n).lowest(1)[0]
         for n in (1001, 2001, 4001)]
    ratio = (e[0] - e[1]) / (e[1] - e[2])
    assert 3.8 < ratio < 4.2


def _grids(potential, count, points):
    box = oracle._auto_box(potential, count)
    return [discretize(potential, box, n).lowest(count) for n in points]


def test_reference_levels_are_richardson_combined(harmonic):
    # grids of step h, h/2 and h/4 on one box, combined to cancel the h^2
    # and h^4 terms: the reference beats the finest grid alone by far
    exact = np.arange(6) + 0.5
    ref = reference_levels(harmonic, 6)
    e_h, e_h2, e_h4 = _grids(harmonic, 6, (1001, 2001, 4001))
    assert ref.tobytes() == ((64.0 * e_h4 - 20.0 * e_h2 + e_h)
                             / 45.0).tobytes()
    ref_err = np.max(np.abs(ref - exact))
    assert ref_err < 1e-9
    assert 100.0 * ref_err < np.max(np.abs(e_h4 - exact))


def _morse_levels(depth, a, count):
    lam = np.sqrt(2.0 * depth) / a
    return -depth * (1.0 - (np.arange(count) + 0.5) / lam) ** 2


def _linear_levels(count):
    # |x| with hbar = m = 1: even levels at the zeros of Ai', odd ones at
    # the zeros of Ai, scaled by 2^(-1/3)
    zeros, dzeros, _, _ = ai_zeros(count)
    return np.sort(-np.concatenate((zeros, dzeros)))[:count] / 2 ** (1 / 3)


_EXACT = [
    (PotentialModel.harmonic(1.0), np.arange(6) + 0.5),
    (PotentialModel.linear(1.0), _linear_levels(6)),
    (PotentialModel.morse(10.0, 1.0), _morse_levels(10.0, 1.0, 4)),
    # depth and range as drawn by the audit benchmark
    (PotentialModel.morse(30.0, 0.8), _morse_levels(30.0, 0.8, 8))]


def _worst_relative_errors(potential, exact):
    """Worst relative error of the reference and of the two-grid
    combination (4 E_{h/2} - E_h) / 3 on 4001 and 8001 points."""
    coarse, fine = _grids(potential, exact.size, (4001, 8001))
    two = (4.0 * fine - coarse) / 3.0
    three = reference_levels(potential, exact.size)
    return (np.max(np.abs(three - exact) / np.abs(exact)),
            np.max(np.abs(two - exact) / np.abs(exact)))


@pytest.mark.parametrize("potential, exact", _EXACT,
                         ids=["harmonic", "linear", "morse", "morse-audit"])
def test_three_grids_land_no_farther_from_exact_than_two(potential, exact):
    three, two = _worst_relative_errors(potential, exact)
    assert three <= two


def test_three_grids_cut_the_harmonic_error_fourfold(harmonic):
    # measured: 4.4e-12 against 3.9e-11
    three, two = _worst_relative_errors(harmonic, np.arange(6) + 0.5)
    assert three <= 0.25 * two


def _decay_exponent(potential, energy, a, b):
    """Integral of sqrt(2m(V - E))/hbar from a to b, by quad."""
    c = potential.constants

    def kappa(x):
        return np.sqrt(2.0 * c.mass * max(float(potential.evaluate(x))
                                          - energy, 0.0)) / c.hbar

    return abs(quad(kappa, min(a, b), max(a, b), limit=200)[0])


@pytest.mark.parametrize("potential, count", [
    (PotentialModel.harmonic(1.0), 3), (PotentialModel.morse(10.0, 1.0), 4)],
    ids=["harmonic", "morse"])
def test_each_soft_wall_is_where_the_decay_exponent_reaches_14(potential,
                                                               count):
    # from the classical boundary of the coarse top level, the wall is the
    # first step of width/1000 at which the exponent reaches 14; quad
    # differs from the walk's trapezoid sums by far less than one step adds
    # (0.14 for harmonic, 0.04 in Morse's flat tail)
    e_top = discretize(potential, potential.domain, 801).lowest(count)[-1]
    lo, hi = potential.domain
    step = (hi - lo) / 1000
    a, b = oracle._auto_box(potential, count)
    x_min = potential.minimum()[0]
    for side, wall in ((-1, a), (+1, b)):
        turn = brentq(lambda x: potential.evaluate(x) - e_top, x_min, wall)
        assert _decay_exponent(potential, e_top, turn, wall) > 14.0 - 1e-2
        assert _decay_exponent(potential, e_top, turn,
                               wall - side * step) < 14.0 + 1e-2


def test_auto_box_refuses_unconfined_request():
    # the edge march must refuse after its 64 spans without one call of V
    # per step (64,000 steps)
    calls = [0]

    def gaussian(x):
        calls[0] += 1
        return -0.05 * np.exp(-np.asarray(x, dtype=float) ** 2)

    shallow = PotentialModel.from_callable(
        gaussian, domain=(-25.0, 25.0), edges=("soft", "soft"))
    with pytest.raises(OracleError):
        reference_levels(shallow, 2)
    assert calls[0] < 2000


def test_eigenvector_nodes(harmonic):
    op = discretize(harmonic, (-8.0, 8.0), 1001)
    energies, vectors = eigh_tridiagonal(
        op.diag, np.full(op.size - 1, op.off), select="i",
        select_range=(0, 3))
    assert np.array_equal(energies, op.lowest(4))
    for n, vec in enumerate(vectors.T):
        # interior sign changes, ignoring entries lost in numerical noise
        v = vec / np.max(np.abs(vec))
        signs = np.sign(v[np.abs(v) > 1e-8])
        assert int(np.sum(signs[1:] * signs[:-1] < 0.0)) == n
    # each column should be a true eigenpair to working accuracy
    v = vectors[:, 2]
    dense_action = (op.diag * v
                    + op.off * np.concatenate(([0.0], v[:-1]))
                    + op.off * np.concatenate((v[1:], [0.0])))
    resid = np.linalg.norm(dense_action - energies[2] * v)
    assert resid / np.linalg.norm(v) < 1e-8


def test_discretize_validation(harmonic):
    with pytest.raises(UsageError):
        discretize(harmonic, (1.0, 1.0), 401)
    with pytest.raises(UsageError):
        discretize(harmonic, (0.0, np.inf), 401)
    with pytest.raises(UsageError):
        discretize(harmonic, (-1.0, 1.0), 2)
    assert discretize(harmonic, (-1.0, 1.0), 3).size == 1
    with pytest.raises(UsageError):
        reference_levels(harmonic, 0)
    with pytest.raises(UsageError):
        _toy_operator().lowest(4)


def test_discretize_grows_a_soft_domain_to_the_box(harmonic):
    assert harmonic.domain == (-12.0, 12.0)
    op = discretize(harmonic, (-20.0, 20.0), 2001)
    assert op.size == 1999
    assert abs(op.lowest(1)[0] - 0.5) < 2e-5


def test_an_open_edge_bounds_the_box():
    # r = 0 is open: a box past it held the well's mirror image at r < 0,
    # which split each level into a doublet
    pot = effective_radial(PotentialModel.harmonic(1.0, domain=(0.0, 12.0)),
                           0.25)
    ell = (np.sqrt(2.0) - 1.0) / 2.0          # l (l + 1) = 0.25
    assert reference_levels(pot, 2) == pytest.approx(
        [ell + 1.5, ell + 3.5], rel=1e-5)


def test_morse_reference_within_2e_11_of_exact():
    # measured 1.4e-11; a box sized by five level spacings gave 4.7e-11
    potential, exact = _EXACT[2]
    ref = reference_levels(potential, exact.size)
    assert np.max(np.abs(ref - exact) / np.abs(exact)) < 2e-11


def test_morse_reference_matches_closed_form(morse10):
    refs = reference_levels(morse10, 4)
    closed = [-10.0 * (1.0 - (n + 0.5) / np.sqrt(20.0)) ** 2
              for n in range(4)]
    assert refs == pytest.approx(closed, rel=1e-6)


def test_a_top_doublet_needs_no_wall_rule_of_its_own():
    # double well (x^2 - 9)^2: the coarse solve puts the second doublet
    # at one value; the decay exponent alone still sets both walls where V
    # is over 1.5 times the top level, the floor being V = 0
    def well(x):
        x = np.asarray(x, dtype=float)
        return (x * x - 9.0) ** 2

    pot = PotentialModel.from_callable(
        well, (-8.0, 8.0), df=lambda x: 4.0 * x * (x * x - 9.0),
        edges=("soft", "soft"))
    e_top = discretize(pot, pot.domain, 801).lowest(3)[-1]
    for wall in oracle._auto_box(pot, 3):
        assert pot.evaluate(wall) >= 1.5 * e_top
    levels = reference_levels(pot, 3)
    assert abs(levels[1] - levels[0]) < 1e-9
    assert levels[0] == pytest.approx(4.21443981, abs=1e-7)
    assert 4.1 < levels[0] < 0.5 * np.sqrt(72.0)


def _refuse_everywhere(monkeypatch, names):
    """Make each named function raise in every phasebound module that
    holds it, the package's own namespace included; a name that no module
    holds fails, so that a rename cannot leave the refusal switched off."""
    def refuse(*args, **kwargs):
        raise AssertionError("a path that must stay separate was taken")

    modules = [phasebound] + [
        importlib.import_module(f"phasebound.{info.name}")
        for info in pkgutil.iter_modules(phasebound.__path__)]
    for name in names:
        holders = [module for module in modules if hasattr(module, name)]
        assert holders, f"no phasebound module holds {name!r}"
        for module in holders:
            monkeypatch.setattr(module, name, refuse)
    return refuse


def test_oracle_shares_no_code_with_the_quantizer(monkeypatch):
    # the audit compares two solvers, so neither may lean on the other:
    # the reference runs with the phase-integral code and the survey's
    # edge rule switched off, and the quantizer with the decay walk that
    # the oracle uses switched off
    want_ref = reference_levels(PotentialModel.harmonic(1.0), 4)
    want_levels = spectrum(PotentialModel.harmonic(1.0), 5).energies
    with monkeypatch.context() as patch:
        refuse = _refuse_everywhere(patch, (
            "find_turning_points", "action_integral", "integrate_adaptive",
            "integrate_cells", "bisect_then_brent"))
        for name, member in vars(PhaseAccumulator).items():
            if callable(member):
                patch.setattr(PhaseAccumulator, name, refuse)
        patch.setattr(PotentialModel, "leans", refuse)
        got_ref = reference_levels(PotentialModel.harmonic(1.0), 4)
    assert got_ref.tobytes() == want_ref.tobytes()
    with monkeypatch.context() as patch:
        _refuse_everywhere(patch, ("decay_reach",))
        got_levels = spectrum(PotentialModel.harmonic(1.0), 5).energies
    assert got_levels == want_levels
