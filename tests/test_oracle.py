import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from phasebound import oracle
from phasebound.errors import OracleError, UsageError
from phasebound.oracle import (
    TridiagonalOperator,
    discretize,
    reference_levels,
)
from phasebound.potentials import PotentialModel


def _toy_operator():
    # eigenvalues of tridiag(-1, 2, -1) at size 3: 2 - sqrt(2), 2, 2 + sqrt(2)
    return TridiagonalOperator(np.array([2.0, 2.0, 2.0]), -1.0,
                               0.0, 4.0, 1.0, np.array([1.0, 2.0, 3.0]))


def test_toy_eigenvalues():
    got = _toy_operator().lowest(3)
    want = [2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)]
    assert got == pytest.approx(want, abs=1e-10)


def test_sturm_count_brackets_spectrum():
    counts = _toy_operator().counts([0.0, 1.0, 2.5, 10.0])
    assert counts.tolist() == [0, 1, 2, 3]


def test_sturm_count_survives_exact_pivot_zero():
    op = TridiagonalOperator(np.array([1.0, 1.0]), 1.0,
                             0.0, 3.0, 1.0, np.array([1.0, 2.0]))
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


def test_reference_levels_are_richardson_combined(harmonic):
    # the reference beats the plain 4001-point grid on its own box by far
    exact = np.arange(6) + 0.5
    ref_err = np.max(np.abs(reference_levels(harmonic, 6) - exact))
    plain = discretize(harmonic, oracle._auto_box(harmonic, 6),
                       4001).lowest(6)
    assert ref_err < 1e-9
    assert 100.0 * ref_err < np.max(np.abs(plain - exact))


def test_auto_box_margin_clears_top_level(harmonic):
    a, b = oracle._auto_box(harmonic, 3)
    # top target is E_2 = 2.5 and the level spacing is 1, so both walls
    # must sit where V >= 7.5
    assert harmonic.evaluate(a) >= 7.5 - 1e-6
    assert harmonic.evaluate(b) >= 7.5 - 1e-6


def test_auto_box_refuses_unconfined_request():
    # the edge march must refuse after its 64 spans without one call of V
    # per step (64,000 steps)
    calls = [0]

    def gaussian(x):
        calls[0] += 1
        return -0.05 * np.exp(-np.asarray(x, dtype=float) ** 2)

    shallow = PotentialModel.from_callable(
        gaussian, domain=(-25.0, 25.0), soft_edges=(True, True))
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


def test_morse_reference_matches_closed_form(morse10):
    refs = reference_levels(morse10, 4)
    closed = [-10.0 * (1.0 - (n + 0.5) / np.sqrt(20.0)) ** 2
              for n in range(4)]
    assert refs == pytest.approx(closed, rel=1e-6)


def test_curvature_sets_the_margin_when_the_top_spacing_vanishes(
        monkeypatch):
    # double well (x^2 - 9)^2: the coarse solve puts the lowest doublet
    # at one value, so the top spacing is 0 and the box margin comes from
    # the curvature at the well floor, omega = sqrt(V''(3) / m) = sqrt(72)
    def well(x):
        x = np.asarray(x, dtype=float)
        return (x * x - 9.0) ** 2

    pot = PotentialModel.from_callable(
        well, (-8.0, 8.0), df=lambda x: 4.0 * x * (x * x - 9.0),
        soft_edges=(True, True))
    seen = []
    real = oracle._char_frequency

    def spy(potential):
        seen.append(real(potential))
        return seen[-1]

    monkeypatch.setattr(oracle, "_char_frequency", spy)
    levels = reference_levels(pot, 3)
    assert len(seen) == 1
    assert seen[0] == pytest.approx(np.sqrt(72.0), rel=1e-6)
    assert abs(levels[1] - levels[0]) < 1e-9
    assert levels[0] == pytest.approx(4.21443981, abs=1e-7)
    assert 4.1 < levels[0] < 0.5 * np.sqrt(72.0)
