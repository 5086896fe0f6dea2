import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damplab import linalg, stability
from damplab.errors import (
    MatrixShapeError,
    SingularInertia,
    SingularLeadingCoefficient,
)
from conftest import L_CASE1, OMEGA_CASE1


def charpoly_roots(a2, a1, a0):
    """Independent pencil-root oracle: interpolate det P on a circle, take roots.

    det P(lam) is a polynomial of degree 2n; sampling it at 2n + 1 points and
    solving the Vandermonde system recovers its coefficients without any
    companion linearization.
    """
    n = a2.shape[0]
    deg = 2 * n
    smin = np.linalg.svd(a2, compute_uv=False)[-1]
    bound = (
        np.linalg.norm(a1, 2)
        + np.sqrt(np.linalg.norm(a1, 2) ** 2 + 4 * np.linalg.norm(a0, 2) * smin)
    ) / (2 * smin)
    radius = 1.0 + bound
    points = radius * np.exp(2j * np.pi * np.arange(deg + 1) / (deg + 1))
    values = [np.linalg.det((z * z) * a2 + z * a1 + a0) for z in points]
    vander = np.vander(points, deg + 1, increasing=False)
    coeffs = np.linalg.solve(vander, values)
    return np.roots(coeffs)


class TestPencilEigenvalues:
    def test_harmonic_oscillator(self):
        eigs = linalg.QuadraticPencil(np.eye(1), np.zeros((1, 1)), np.eye(1)).eigenvalues()
        assert linalg.matching_distance(eigs, [1j, -1j]) < 1e-12

    def test_case1_contains_axis_pair(self):
        eigs = linalg.QuadraticPencil(
            np.eye(3), np.diag([0.0, 0.0, 1.5]), L_CASE1
        ).eigenvalues()
        for target in (1j * OMEGA_CASE1, -1j * OMEGA_CASE1):
            assert np.abs(eigs - target).min() < 1e-10

    def test_matches_characteristic_polynomial_oracle(self):
        # Moderately scaled matrices keep the interpolation oracle itself
        # accurate well below the comparison threshold.
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = 0.25 * rng.normal(size=(4, 4))
            a2 = np.eye(4) + g @ g.T  # symmetric positive definite
            h = 0.4 * rng.normal(size=(4, 4))
            a1 = h @ h.T  # PSD damping
            a0 = rng.normal(size=(4, 4))
            got = linalg.QuadraticPencil(a2, a1, a0).eigenvalues()
            want = charpoly_roots(a2, a1, a0)
            assert linalg.matching_distance(got, want) < 1e-8

    def test_singular_leading_coefficient(self):
        with pytest.raises(SingularLeadingCoefficient):
            linalg.QuadraticPencil(np.zeros((2, 2)), np.eye(2), np.eye(2)).eigenvalues()

    def test_residual_contract(self):
        rng = np.random.default_rng(3)
        a2 = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        a1 = rng.normal(size=(3, 3))
        a0 = rng.normal(size=(3, 3))
        pencil = linalg.QuadraticPencil(a2, a1, a0)
        for lam in pencil.eigenvalues():
            smin = np.linalg.svd(pencil.evaluate(lam), compute_uv=False)[-1]
            assert smin <= 1e-10 * pencil.residual_scale(lam)

    def test_mismatched_blocks(self):
        with pytest.raises(MatrixShapeError):
            linalg.QuadraticPencil(np.eye(2), np.eye(3), np.eye(2))

    def test_nan_rejected(self):
        bad = np.array([[np.nan]])
        with pytest.raises(MatrixShapeError):
            linalg.QuadraticPencil(bad, np.eye(1), np.eye(1)).eigenvalues()


class TestJacobian2n:
    def test_rotation_block(self):
        got = linalg.jacobian_2n(np.eye(1), np.zeros((1, 1)), np.eye(1))
        np.testing.assert_allclose(got, [[0.0, 1.0], [-1.0, 0.0]])

    def test_scaled_blocks(self):
        got = linalg.jacobian_2n(2 * np.eye(1), [[4.0]], [[6.0]])
        np.testing.assert_allclose(got, [[0.0, 1.0], [-3.0, -2.0]])

    def test_singular_inertia(self):
        with pytest.raises(SingularInertia):
            linalg.jacobian_2n(np.zeros((2, 2)), np.eye(2), np.eye(2))

    def test_case2_near_axis_pair_at_tracked_crossing(self, case2, case2_path):
        # The paper-rounded parameters put the crossing at ~0.19978, not at
        # the printed 0.2; at the refined crossing the pair real part
        # vanishes to refinement accuracy, while at the literal 0.2 it is
        # still below 5e-4.
        from damplab import hopf

        crossings = hopf.track_axis_crossing(case2_path, samples=21)
        assert len(crossings) == 1
        g0 = crossings[0].gamma
        model, eq = case2
        system = model.with_damping([g0, 1.0]).to_second_order()
        eigs = np.linalg.eigvals(system.jacobian_at(eq.delta0))
        complex_eigs = eigs[np.abs(eigs.imag) > 1e-6]
        assert np.abs(complex_eigs.real).min() <= 1e-6

        system02 = model.to_second_order()  # gamma = 0.2 damping
        eigs02 = np.linalg.eigvals(system02.jacobian_at(eq.delta0))
        complex02 = eigs02[np.abs(eigs02.imag) > 1e-6]
        assert np.abs(complex02.real).min() <= 5e-4


class TestClassifySpectrum:
    def test_pure_pair(self):
        report = linalg.classify_spectrum([1j, -1j], tol_axis=1e-9)
        assert report.axis_count == 2
        assert report.inertia == (0, 2, 0)

    def test_mixed(self):
        report = linalg.classify_spectrum([-1, -2 + 3j, -2 - 3j, 0])
        assert report.inertia == (3, 1, 0)

    def test_case1_axis_count(self, case1):
        model, eq = case1
        eigs = np.linalg.eigvals(model.to_second_order().jacobian_at(eq.delta0))
        report = linalg.classify_spectrum(eigs)
        assert report.axis_count == 3  # the pair plus the structural zero

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            linalg.classify_spectrum([1.0], tol_axis=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance(self, tol):
        with pytest.raises(ValueError):
            linalg.classify_spectrum([1.0], tol_axis=tol)

    def test_nonzero_axis_set_drops_the_zero_box(self):
        band = 1e-7
        report = linalg.classify_spectrum([0.9 * band * (1 + 1j), 2j, -2j, -1.0])
        assert report.inertia == (1, 3, 0)
        np.testing.assert_array_equal(report.nonzero_axis_set, [2j, -2j])

    def test_conjugate_closure_real_input(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(6, 6))
            eigs = np.linalg.eigvals(a)
            dist = linalg.matching_distance(eigs, np.conj(eigs))
            assert dist < 1e-8 * max(1.0, np.abs(eigs).max())


class TestSpectralRules:
    BAND = linalg.axis_band(1.0)

    def test_axis_band_is_relative(self):
        assert linalg.axis_band(5.0, tol_axis=1e-3) == 5e-3

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_axis_band_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError):
            linalg.axis_band(1.0, tol)

    def test_on_axis_includes_the_band_edge(self):
        eigs = np.array([self.BAND, -self.BAND + 3j, 1.1 * self.BAND])
        np.testing.assert_array_equal(linalg.on_axis(eigs, self.BAND),
                                      [True, True, False])

    def test_structural_zero_is_a_box(self):
        b = self.BAND
        eigs = np.array([0.9 * b * (1 + 1j), -0.9 * b * (1 + 1j), 1.1 * b,
                         1.1j * b, 0.5 * b + 2j])
        np.testing.assert_array_equal(linalg.structural_zero(eigs, b),
                                      [True, True, False, False, False])

    def test_pair_upper_is_strict_and_relative(self):
        eigs = np.array([1e-9j, 1.1e-9j, 3e-9j, -1j, 1.0])
        np.testing.assert_array_equal(linalg.pair_upper(eigs, 1.0),
                                      [False, True, True, False, False])
        np.testing.assert_array_equal(linalg.pair_upper(eigs, 2.0),
                                      [False, False, True, False, False])


def brute_subset_distance(sub, full):
    """Least largest distance over all injective matchings of ``sub``
    into ``full``, by enumeration."""
    if len(sub) > len(full):
        return math.inf
    cost = np.abs(np.subtract.outer(sub, full))
    return min(max(cost[range(len(sub)), cols], default=0.0)
               for cols in itertools.permutations(range(len(full)), len(sub)))


class TestSubsetDistance:
    @pytest.mark.parametrize("lattice", [False, True],
                             ids=["continuous", "ties_and_repeats"])
    def test_equals_brute_force_bottleneck(self, lattice):
        # On the integer lattice, distances tie and values repeat, so
        # nearest partners are shared and the augmenting paths decide.
        rng = np.random.default_rng(11)
        for _ in range(300):
            k, m = (int(v) for v in rng.integers(0, 7, size=2))
            if lattice:
                sub, full = (rng.integers(-1, 2, size=(size, 2)) @ [1, 1j]
                             for size in (k, m))
            else:
                sub, full = (rng.normal(size=size) + 1j * rng.normal(size=size)
                             for size in (k, m))
            want = brute_subset_distance(sub, full)
            assert linalg.subset_distance(sub, full) == want
            if k == m:
                assert linalg.matching_distance(sub, full) == want

    def test_shared_nearest_partner(self):
        # Both elements are nearest to 0.  The least-total matching
        # (0 -> 0, 3i -> 4) has largest distance 5; pairing 0 -> 4 and
        # 3i -> 0 keeps every distance within 4.
        assert linalg.subset_distance([0, 3j], [0, 4]) == 4.0
        assert linalg.matching_distance([0, 3j], [0, 4]) == 4.0
        assert linalg.subset_distance([0, 0.1], [0, 10]) == 9.9

    def test_distinct_nearest_partners(self):
        assert linalg.subset_distance([0, 3j], [0, 4, 3j + 0.5]) == 0.5

    def test_sizes(self):
        assert linalg.subset_distance([], [1j]) == 0.0
        assert linalg.subset_distance([], []) == 0.0
        assert linalg.subset_distance([0, 1], [0]) == math.inf
        assert linalg.matching_distance([0], [0, 1]) == math.inf
        assert linalg.matching_distance([], []) == 0.0

    @pytest.mark.parametrize("shift, holds", [(0.5, True), (1.5, False)])
    def test_monotonicity_subset_moves_with_one_eigenvalue(self, monkeypatch,
                                                           shift, holds):
        # Extra damping on the third generator keeps case1's unobservable
        # pair; moving the more damped system's upper pair member by
        # ``shift * MATCH_TOL`` along the axis decides the subset test.
        first = stability.SecondOrderSystem.linear(
            np.eye(3), np.diag([0.0, 0.0, 1.5]), L_CASE1)
        second = first.with_damping(np.diag([0.0, 0.0, 3.0]))
        classify = linalg.classify_spectrum
        reports = []

        def moved(eigs, tol_axis):
            report = classify(eigs, tol_axis)
            reports.append(report)
            if len(reports) == 2:
                axis = report.axis_set.copy()
                axis[axis.imag.argmax()] += 1j * shift * stability.MATCH_TOL
                report = dataclasses.replace(report, axis_set=axis)
            return report

        monkeypatch.setattr(linalg, "classify_spectrum", moved)
        report = stability.monotonicity_compare(first, second, np.zeros(3))
        assert len(report.axis_set_second) == 3
        assert report.subset_holds is holds


def test_pencil_residual_scale_computes_norms_once(monkeypatch):
    pencil = linalg.QuadraticPencil(2 * np.eye(2), 3 * np.eye(2), 5 * np.eye(2))
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm",
                        lambda *a, **k: calls.append(1) or norm(*a, **k))
    assert [pencil.residual_scale(lam) for lam in (1j, 2.0, -3j)] == [
        10.0, 19.0, 32.0]
    assert len(calls) == 3


class TestNumericalRank:
    def test_identity(self):
        assert linalg.numerical_rank(np.eye(3)) == 3

    def test_ones(self):
        assert linalg.numerical_rank([[1.0, 1.0], [1.0, 1.0]]) == 1

    def test_zero(self):
        assert linalg.numerical_rank(np.zeros((3, 3))) == 0

    def test_imaginary_update_drops_rank_for_unsymmetric_matrix(self):
        s = np.array([[1 + 1j, math.sqrt(2)], [-math.sqrt(2), -1]])
        assert linalg.numerical_rank(s) == 2
        assert linalg.numerical_rank(s + 1j * np.diag([0.0, 1.0])) == 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_under_principal_submatrix(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(0, n + 1))
        g = rng.normal(size=(rank, n)) if rank else np.zeros((1, n))
        a = g.T @ g
        k = int(rng.integers(1, n + 1))
        idx = rng.permutation(n)[:k]
        sub = a[np.ix_(idx, idx)]
        assert linalg.numerical_rank(sub) <= linalg.numerical_rank(a)


def test_pencil_jacobian_correspondence():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = rng.normal(size=(n, n)) + 2 * np.eye(n)
        d = rng.normal(size=(n, n))
        l = rng.normal(size=(n, n))
        pencil = linalg.QuadraticPencil(m, d, l).eigenvalues()
        direct = np.linalg.eigvals(linalg.jacobian_2n(m, d, l))
        scale = max(1.0, np.abs(direct).max())
        assert linalg.matching_distance(pencil, direct) < 1e-8 * scale
