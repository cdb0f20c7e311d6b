import heapq
import warnings

import numpy as np
import pytest

from phasebound import classical, quadrature, spectrum
from phasebound.errors import QuadratureError, UsageError
from phasebound.quadrature import (
    integrate_adaptive,
    integrate_cells,
    kronrod_panel,
)
from phasebound.potentials import PotentialModel


def test_panel_exact_on_gauss_degree_polynomials():
    # the embedded 7-point Gauss rule is exact through degree 13, so a
    # single panel must nail these and report a tiny error estimate
    for deg in (0, 1, 5, 9, 13):
        poly = np.polynomial.Polynomial(np.arange(1.0, deg + 2.0))
        exact = poly.integ()(2.0) - poly.integ()(-1.0)
        val, err = kronrod_panel(poly, -1.0, 2.0)
        assert val == pytest.approx(exact, rel=1e-13)
        assert err < 1e-9 * max(1.0, abs(exact))


def test_adaptive_sine():
    res = integrate_adaptive(np.sin, 0.0, np.pi)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.error_bound <= 1e-12 or res.error_bound < 1e-10


def test_adaptive_inverse_sqrt_endpoint():
    # integrable endpoint singularity forces real subdivision work; plain
    # bisection cannot do much better than ~1e-8 here, short of the fixed
    # 1e-12 tolerance, which is why the action integrals remove their
    # singularities by substitution first
    with pytest.raises(QuadratureError) as exc:
        integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert exc.value.estimate == pytest.approx(2.0, abs=1e-7)
    assert 0.0 < exc.value.error_bound < 1e-7
    # the bound given up with covers the true error
    assert exc.value.error_bound >= abs(exc.value.estimate - 2.0)


def test_zero_width_interval():
    res = integrate_adaptive(np.exp, 1.5, 1.5)
    assert res.value == 0.0
    assert res.panels == 0


def test_reversed_limits_rejected():
    with pytest.raises(UsageError):
        integrate_adaptive(np.sin, 1.0, 0.0)


def test_budget_exhaustion_carries_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 4)
    with pytest.raises(QuadratureError) as exc:
        integrate_adaptive(lambda x: np.abs(x) ** -0.9, 1e-12, 1.0)
    assert exc.value.estimate is not None
    assert exc.value.error_bound > 0.0


def test_non_finite_integrand_rejected():
    with pytest.raises(QuadratureError):
        integrate_adaptive(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


def test_cells_match_adaptive_per_cell():
    edges = np.array([0.0, 0.3, 0.3, 1.1, 2.0, np.pi])
    got = integrate_cells(np.sin, edges)
    want = [integrate_adaptive(np.sin, a, b).value
            for a, b in zip(edges[:-1], edges[1:])]
    assert got == pytest.approx(want, abs=1e-14)
    assert got[1] == 0.0  # an empty cell


def test_cells_one_integrand_call_per_round():
    # smooth integrand on small cells: one pass, one call on the 15
    # Kronrod nodes plus both ends of every cell
    calls = []

    def f(x):
        calls.append(x.size)
        return np.exp(x)

    got = integrate_cells(f, np.linspace(0.0, 1.0, 101))
    assert calls == [100 * 17]
    assert np.cumsum(got)[-1] == pytest.approx(np.e - 1.0, rel=1e-14)


def test_cells_bisect_only_the_kinked_cell():
    # |x - 0.37| has its kink inside one of ten cells; only that cell's
    # panels are passed again, so every later round is small
    calls = []

    def f(x):
        calls.append(x.size)
        return np.abs(x - 0.37)

    got = integrate_cells(f, np.linspace(0.0, 1.0, 11))
    assert calls[0] == 10 * 17 and len(calls) > 1
    assert max(calls[1:]) <= 2 * 17
    assert got.sum() == pytest.approx(0.5 * (0.37 ** 2 + 0.63 ** 2),
                                      abs=1e-12)


def test_cells_see_a_kink_next_to_a_cell_end():
    # the kink lies between the last Kronrod node (0.99146) and the end
    # of [-1, 1], where both rules agree on the smooth branch; the miss
    # at the end still flags the cell
    kink = 0.996
    got = integrate_cells(lambda x: np.abs(x - kink), [-1.0, 1.0])
    want = 0.5 * ((1.0 + kink) ** 2 + (1.0 - kink) ** 2)
    assert got[0] == pytest.approx(want, abs=1e-12)


def test_cells_validation_and_failure(monkeypatch):
    assert integrate_cells(np.sin, [1.0]).size == 0
    assert integrate_cells(np.sin, [2.0, 2.0, 2.0]).tolist() == [0.0, 0.0]
    with pytest.raises(UsageError):
        integrate_cells(np.sin, [0.0, 1.0, 0.5])
    with pytest.raises(UsageError):
        integrate_cells(np.sin, [0.0, np.inf])
    with pytest.raises(QuadratureError):
        integrate_cells(lambda x: np.full_like(x, np.nan), [0.0, 1.0])
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 4)
    with pytest.raises(QuadratureError) as exc:
        integrate_cells(lambda x: np.abs(x) ** -0.9, [1e-12, 1.0])
    assert exc.value.estimate is not None
    assert exc.value.error_bound > 0.0


def test_points_outside_at_the_ends_or_repeated_are_ignored():
    plain = integrate_adaptive(np.exp, 0.0, 1.0)
    for points in ([], [-0.5, 1.5], [0.0, 1.0], [0.0, 0.0, 1.0, 2.0]):
        assert integrate_adaptive(np.exp, 0.0, 1.0, points) == plain
    once = integrate_adaptive(np.exp, 0.0, 1.0, [0.25])
    assert integrate_adaptive(np.exp, 0.0, 1.0,
                              [0.25, 0.25, 0.0, 1.0, 7.0]) == once
    assert once.panels == 2
    assert integrate_adaptive(np.exp, 1.5, 1.5, [1.5]).panels == 0


def test_a_kink_at_a_point_is_exact_in_two_panels():
    # each side of the kink is linear, which a single G7/K15 pass nails;
    # both start panels share one call of f
    calls = []

    def f(x):
        calls.append(x.size)
        return np.abs(x - 0.3)

    res = integrate_adaptive(f, 0.0, 1.0, [0.3])
    assert res.panels == 2 and calls == [30]
    assert res.value == pytest.approx(0.5 * (0.3 ** 2 + 0.7 ** 2),
                                      abs=1e-15)
    # without the point the heap bisects toward the kink
    assert integrate_adaptive(lambda x: np.abs(x - 0.3), 0.0, 1.0).panels > 2


def test_panels_count_the_kronrod_passes(monkeypatch):
    # one kronrod_panel call may carry several panels: count its panels
    passes = []
    panel = quadrature.kronrod_panel

    def counted(f, a, b):
        passes.append(np.size(a))
        return panel(f, a, b)

    monkeypatch.setattr(quadrature, "kronrod_panel", counted)
    for f, points in ((np.sin, ()), (lambda x: np.abs(x - 0.3), ()),
                      (lambda x: np.abs(x - 0.3), [0.3]),
                      (lambda x: np.sqrt(np.abs(x - 0.61)), [0.2, 0.9])):
        passes.clear()
        res = integrate_adaptive(f, 0.0, 1.0, points)
        assert res.panels == sum(passes)


def test_panels_passed_together_get_the_bits_of_panels_passed_alone():
    # a numpy that stacks its products in another order fails here
    def smooth(x):
        return np.exp(np.sin(3.0 * x)) * np.sqrt(np.abs(x))

    def wild(x):
        # magnitudes from 1e-200 to 1e200 and both signs in every row
        return np.sin(713.0 * x) * 10.0 ** (200.0 * np.cos(517.0 * x))

    rng = np.random.default_rng(3)
    for size in (1, 2, 7, 40, 22, 300):
        ends = np.sort(rng.uniform(-5.0, 5.0, size + 1))
        a, b = ends[:-1], ends[1:]
        for g in (smooth, wild):
            calls = []

            def f(x):
                calls.append(x.size)
                return g(x)

            vals, diffs = kronrod_panel(f, a, b)
            assert calls == [15 * size]
            assert vals.shape == diffs.shape == (size,)
            alone = [kronrod_panel(f, pa, pb)
                     for pa, pb in zip(a.tolist(), b.tolist())]
            assert vals.tolist() == [val for val, _ in alone]
            assert diffs.tolist() == [diff for _, diff in alone]
            assert all(type(val) is float for val, _ in alone)


def test_action_on_the_golden_quartic_is_within_its_bound(monkeypatch):
    """W(3.0) on the 41-sample PCHIP table of x^4 + x^2, split at its
    samples, against a 30-digit mpmath value: the exact PCHIP cubics
    (scipy's coefficients) integrated cell by cell."""
    from test_golden import _QUARTIC

    results = []

    def recorded(*args, **kwargs):
        results.append(integrate_adaptive(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(classical, "integrate_adaptive", recorded)
    w = classical.action_integral(PotentialModel.tabulated(_QUARTIC), 3.0)
    (res,) = results
    assert w == res.value
    assert abs(w - 4.683257644869101527462) <= max(res.error_bound,
                                                   1e-14 * w)


def _one_call_per_panel(f, a, b, points=()):
    """The heap loop of integrate_adaptive as it was before it called f
    ahead of its splits: one kronrod_panel call, and so one call of f, per
    panel.  The reference for the bits of the shared calls."""
    inner = {p for p in points if a < p < b}
    if not inner:
        starts = [(a, b, *kronrod_panel(f, a, b))]
    else:
        ends = [a, *sorted(inner), b]
        vals, diffs = kronrod_panel(f, ends[:-1], ends[1:])
        starts = zip(ends[:-1], ends[1:], vals.tolist(), diffs.tolist())
    heap = []
    total = total_err = 0.0
    for counter, (pa, pb, val, diff) in enumerate(starts):
        err = quadrature._sharpened(diff)
        heap.append((-err, counter, pa, pb, val, diff))
        total += val
        total_err += err
    heapq.heapify(heap)
    counter = len(heap)
    width_floor = quadrature._ROUNDING * max(abs(a), abs(b), 1.0)
    for split in range(quadrature._MAX_SUBDIVISIONS):
        if total_err <= max(quadrature._ABS_TOL,
                            quadrature._REL_TOL * abs(total)):
            return quadrature.QuadratureResult(total, total_err, counter)
        neg_err, _, pa, pb, pval, pdiff = heapq.heappop(heap)
        if pb - pa <= width_floor:
            heapq.heappush(heap, (neg_err, -1, pa, pb, pval, pdiff))
            break
        pm = 0.5 * (pa + pb)
        lval, ldiff = kronrod_panel(f, pa, pm)
        rval, rdiff = kronrod_panel(f, pm, pb)
        lerr, rerr = quadrature._sharpened(ldiff), quadrature._sharpened(rdiff)
        total += (lval + rval) - pval
        total_err += (lerr + rerr) - (-neg_err)
        heapq.heappush(heap, (-lerr, counter, pa, pm, lval, ldiff))
        heapq.heappush(heap, (-rerr, counter + 1, pm, pb, rval, rdiff))
        counter += 2
    if total_err <= max(quadrature._ABS_TOL, quadrature._REL_TOL * abs(total)):
        return quadrature.QuadratureResult(total, total_err, counter)
    bound = sum(panel[-1] for panel in heap)
    raise QuadratureError(
        f"quadrature did not converge: estimate {total!r}, "
        f"error bound {bound!r} after {counter} panels",
        estimate=total, error_bound=bound)


def _outcome(integrate, f, a, b, points):
    """The result's value, bound (both as hex, so bit for bit) and panels,
    or the error's message, estimate and bound."""
    try:
        res = integrate(f, a, b, points)
    except QuadratureError as exc:
        return str(exc), exc.estimate.hex(), exc.error_bound.hex()
    return res.value.hex(), res.error_bound.hex(), res.panels


def _region_integrands(monkeypatch):
    """(label, f, a, b, points) of every sine-substituted W integral that
    a short ladder of each named family and of the 41-sample table takes,
    and of dW/dE at each of its levels, as classical hands them over."""
    from test_golden import _QUARTIC

    taken = []

    def recorded(f, a, b, points=()):
        taken.append((label, f, a, b, tuple(points)))
        return integrate_adaptive(f, a, b, points)

    monkeypatch.setattr(classical, "integrate_adaptive", recorded)
    for label, pot, n_max in (
            ("harmonic", PotentialModel.harmonic(1.0), 4),
            ("morse", PotentialModel.morse(10.0, 1.0), 4),
            ("coulomb", PotentialModel.coulomb(2.5, 6.25), 3),
            ("linear", PotentialModel.linear(1.7), 4),
            ("square", PotentialModel.square_well(8.0, 2.0), 3),
            ("quartic", PotentialModel.tabulated(_QUARTIC), 3)):
        for level in spectrum(pot, n_max).levels:
            classical.action_energy_derivative(pot, level.energy)
    monkeypatch.undo()
    return taken


def test_shared_calls_keep_the_bits_of_one_call_per_panel(monkeypatch):
    def smooth(x):
        return np.exp(np.sin(3.0 * x)) * np.cos(x)

    cases = [("smooth", smooth, -2.0, 5.0, ()),
             ("kink", lambda x: np.abs(x - 0.3), 0.0, 1.0, ()),
             ("kink-point", lambda x: np.abs(x - 0.3), 0.0, 1.0, (0.3,)),
             ("inverse-sqrt", lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, ())]
    cases += _region_integrands(monkeypatch)
    labels = {case[0] for case in cases}
    assert {"harmonic", "morse", "coulomb", "linear", "square",
            "quartic"} <= labels
    assert any(case[0] == "quartic" and case[4] for case in cases)
    split = 0
    for label, f, a, b, points in cases:
        want = _outcome(_one_call_per_panel, f, a, b, points)
        got = _outcome(integrate_adaptive, f, a, b, points)
        assert got == want, label
        split += want[-1] != 1
    assert split > 50
    # and when the split budget runs out, the same estimate, bound and
    # message
    for budget in (0, 1, 2, 5):
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", budget)
        for label, f, a, b, points in cases[:4] + cases[4::7]:
            want = _outcome(_one_call_per_panel, f, a, b, points)
            got = _outcome(integrate_adaptive, f, a, b, points)
            assert got == want, (label, budget)


def _faulty(fault, at):
    """1 / (1 + x^2), which takes the root panel of [0, 1] and its two
    halves, except at the node ``at``: there it raises, gives NaN or
    overflows with numpy's warning.  Records every call's nodes."""
    calls = []

    def f(x):
        calls.append(x)
        hit = x == at
        if fault == "raise" and hit.any():
            raise ValueError(f"no value at {at!r}")
        y = 1.0 / (1.0 + x * x)
        if fault == "nan":
            return np.where(hit, np.nan, y)
        return y * (np.where(hit, 1e300, 1.0) * 1e10)     # overflow at `at`

    return f, calls


@pytest.mark.parametrize("fault", ["raise", "nan", "overflow"])
def test_a_fault_only_where_no_panel_needs_it_is_never_seen(fault):
    # 0.875 is the middle node of the quarter [0.75, 1], which the start
    # call takes ahead of the splits; the heap stops at the halves
    f, calls = _faulty(fault, 0.875)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        want = _outcome(_one_call_per_panel, f, 0.0, 1.0, ())
        assert calls and not any((x == 0.875).any() for x in calls)
        calls.clear()
        got = _outcome(integrate_adaptive, f, 0.0, 1.0, ())
    assert any((x == 0.875).any() for x in calls)
    assert got == want and want[-1] == 3
    assert seen == []


@pytest.mark.parametrize("fault", ["raise", "nan", "overflow"])
@pytest.mark.parametrize("at", [0.5 + 0.5 * 0.40584515137739716691, 0.75],
                         ids=["root-node", "half-node"])
def test_a_fault_where_a_panel_needs_it_is_the_serial_error(fault, at):
    # a node of the root panel, or the middle node of the half [0.5, 1]
    outcomes = []
    for integrate in (_one_call_per_panel, integrate_adaptive):
        f, _ = _faulty(fault, at)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(Exception) as exc:
                integrate(f, 0.0, 1.0)
        outcomes.append((type(exc.value), str(exc.value),
                         [(w.category, str(w.message)) for w in seen]))
    assert outcomes[0] == outcomes[1]
    kind, message, warned = outcomes[0]
    if fault == "raise":
        assert kind is ValueError and warned == []
    else:
        assert kind is QuadratureError
        assert message == "integrand returned a non-finite value"
        assert len(warned) == (fault == "overflow")


def test_a_complex_integrand_warns_as_with_one_call_per_panel():
    # numpy drops the imaginary part with a ComplexWarning per call of f;
    # a call ahead must not warn in place of the panels' own calls
    def f(x):
        return (1.0 + 1j) / (1.0 + x * x)

    outcomes = []
    for integrate in (_one_call_per_panel, integrate_adaptive):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            res = integrate(f, 0.0, 1.0)
        outcomes.append((res.value.hex(), res.panels,
                         [w.category for w in seen]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2] == [np.exceptions.ComplexWarning] * 3


def test_a_harmonic_w_in_three_panels_calls_its_integrand_once(monkeypatch):
    # root and halves come from the start call, which also takes the
    # quarters that the heap never needs here
    calls, results = [], []

    def recorded(f, a, b, points=()):
        def counted(x):
            calls.append(x.size)
            return f(x)

        results.append(integrate_adaptive(counted, a, b, points))
        return results[-1]

    monkeypatch.setattr(classical, "integrate_adaptive", recorded)
    classical.action_integral(PotentialModel.harmonic(1.0), 10.5)
    assert [res.panels for res in results] == [3]
    assert calls == [7 * 15]
