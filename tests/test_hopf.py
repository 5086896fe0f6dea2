import math
from dataclasses import replace

import numpy as np
import pytest

from damplab import hopf, simulate, suites, swing
from damplab.errors import (
    AssumptionViolated,
    MatrixShapeError,
    NormalizationFailure,
    NotAnAxisEigenvalue,
    TheoremViolation,
    TrackingAmbiguity,
)
from damplab.linalg import QuadraticPencil, jacobian_2n, referenced_jacobian
from conftest import (OMEGA_CASE1, count_lapack, crossing_bits, random_rank_one_path,
                      sampled, tally)


def tied_case2_pair(rng, n, base_grid):
    """The case2 pair (line -1 + 5.7978i, angle difference 1.4905, dampings
    0.25 and 1) tied by a 0.3 line to the random grid ``base_grid(rng,
    n - 2)`` of n - 2 generators; returns the model and its equilibrium."""
    base, base_eq = base_grid(rng, n - 2)
    y, theta = np.zeros((n, n)), np.full((n, n), math.pi / 2)
    y[2:, 2:], theta[2:, 2:] = base.y_mag, base.theta
    line = complex(-1.0, 5.7978)
    y[0, 1] = y[1, 0] = abs(line)
    theta[0, 1] = theta[1, 0] = math.atan2(line.imag, line.real)
    theta[0, 0] = theta[1, 1] = 0.0
    tie = 2 + int(rng.integers(0, n - 2))
    y[1, tie] = y[tie, 1] = 0.3
    anchor = base_eq.delta0[tie - 2]
    delta = np.concatenate([[anchor + 1.4905, anchor], base_eq.delta0])
    model = replace(
        base, y_mag=y, theta=theta, p_mech=np.zeros(n),
        voltage=np.concatenate([[1.0, 1.0], base.voltage]),
        inertia_const=np.concatenate([[1.0, 1.0], base.inertia_const]),
        damping_coeff=np.concatenate([[0.25, 1.0], base.damping_coeff]),
    )
    model = replace(model, p_mech=model.flow(delta))
    return model, model.equilibrium_at(delta)


class TestDampingPath:
    def test_derivative_consistency_enforced(self):
        with pytest.raises(AssumptionViolated):
            hopf.DampingPath(
                inertia=np.eye(2),
                stiffness=np.eye(2),
                damping_of=lambda g: g * np.eye(2),
                damping_derivative=lambda g: 3.0 * np.eye(2),  # wrong slope
                gamma_range=(0.0, 1.0),
            )

    def test_referenced_requires_gauge_mode(self):
        with pytest.raises(AssumptionViolated):
            hopf.DampingPath(
                inertia=np.eye(2),
                stiffness=np.eye(2),  # row sums not zero
                damping_of=lambda g: g * np.eye(2),
                gamma_range=(0.0, 1.0),
                referenced=True,
            )

    def test_fd_derivative_fallback(self):
        path = hopf.DampingPath(
            inertia=np.eye(2),
            stiffness=np.eye(2),
            damping_of=lambda g: (g**2) * np.eye(2),
            gamma_range=(0.0, 1.0),
        )
        np.testing.assert_allclose(
            path.damping_prime(0.5), np.eye(2), rtol=1e-6
        )

    @pytest.mark.parametrize("referenced", [False, True])
    def test_damping_shape_checked(self, referenced):
        path = hopf.DampingPath(
            inertia=np.eye(2),
            stiffness=np.array([[1.0, -1.0], [-1.0, 1.0]]),
            damping_of=lambda g: g * np.eye(3),
            gamma_range=(0.0, 1.0),
            referenced=referenced,
        )
        with pytest.raises(MatrixShapeError):
            path.jacobian(0.5)

    def test_bad_path_raises_its_error(self):
        m, l, d0 = np.diag([2.0, 1.0, 3.0]), np.eye(3), 0.5 * np.eye(3)

        def path(inertia=m, stiffness=l, damping=d0, referenced=False):
            return hopf.DampingPath(inertia=inertia, stiffness=stiffness,
                                    damping_of=lambda g: damping + g * np.eye(3),
                                    gamma_range=(0.0, 2.0), referenced=referenced)

        with pytest.raises(AssumptionViolated, match="inertia"):
            path(inertia=np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(MatrixShapeError, match="shape"):
            path(stiffness=l[:2, :2])
        wrong = path()
        wrong.damping_of = lambda g: np.zeros((2, 2))
        with pytest.raises(MatrixShapeError, match="3x3"):
            wrong.jacobian(0.0)
        nan = d0.copy()
        nan[0, 1] = np.nan
        with pytest.raises(MatrixShapeError, match="NaN"):
            path(damping=nan).jacobian(0.0)
        laplacian = np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        laplacian[0, 0] = 3.0
        with pytest.raises(AssumptionViolated, match="gauge mode"):
            path(stiffness=laplacian, referenced=True)
        assert path(stiffness=laplacian - np.diag([1.0, 0, 0]), referenced=True).n == 3

    @staticmethod
    def random_path(rng, referenced):
        n = int(rng.integers(2, 7))
        g = rng.normal(size=(n, n))
        m = g @ g.T + 0.1 * np.eye(n)
        if referenced:
            w = np.abs(rng.normal(size=(n, n)))
            stiffness = np.diag((w + w.T).sum(axis=1)) - (w + w.T)
        else:
            stiffness = rng.normal(size=(n, n))
        d0, d1 = rng.normal(size=(2, n, n))
        return hopf.DampingPath(
            inertia=m, stiffness=stiffness, damping_of=lambda g: d0 + g * d1,
            gamma_range=(0.0, 1.0), referenced=referenced,
        )

    @staticmethod
    def assembled(path, gamma):
        """``[[0, T1], [-(M^-1 L)[:, :k], -M^-1 D]]`` block by block."""
        n = path.n
        k = n - 1 if path.referenced else n
        minv_l = np.linalg.solve(path.inertia, path.stiffness)
        minv_d = np.linalg.solve(path.inertia, path.damping_of(gamma))
        t1 = np.hstack([np.eye(k), -np.ones((k, n - k))])
        return np.block([[np.zeros((k, k)), t1], [-minv_l[:, :k], -minv_d]])

    def test_jacobian_equals_block_assembly(self):
        # The template built at construction, filled with M^-1 D(gamma),
        # against jacobian_2n and a block-by-block assembly.
        rng = np.random.default_rng(5)
        for _ in range(50):
            path = self.random_path(rng, referenced=False)
            for gamma in rng.uniform(0.0, 1.0, size=3):
                got = path.jacobian(gamma)
                want = jacobian_2n(path.inertia, path.damping_of(gamma),
                                   path.stiffness)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
                np.testing.assert_allclose(got, self.assembled(path, gamma),
                                           rtol=1e-13, atol=0)

    def test_referenced_jacobian_equals_reduction(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            path = self.random_path(rng, referenced=True)
            minv_l = np.linalg.solve(path.inertia, path.stiffness)
            for gamma in rng.uniform(0.0, 1.0, size=3):
                got = path.jacobian(gamma)
                minv_d = np.linalg.solve(path.inertia, path.damping_of(gamma))
                np.testing.assert_array_equal(got, referenced_jacobian(minv_l, minv_d))
                np.testing.assert_array_equal(got, self.assembled(path, gamma))

    def test_sweep_runs_no_svd(self, monkeypatch):
        # The inertia is rank-checked once, at construction: a sweep of a
        # suite_safe_damping_region path then needs no SVD, and one solve
        # per Jacobian.
        rng = np.random.default_rng(8)
        n = 4
        m, l, d0 = (suites._spd(rng, n, ridge=r) for r in (0.1, 0.1, 0.05))
        g = rng.normal(size=(n, n))
        path = hopf.DampingPath(
            inertia=m, stiffness=l, damping_of=lambda gamma: d0 + gamma * g.T @ g,
            gamma_range=(0.0, 2.0),
        )
        calls = count_lapack(monkeypatch)
        assert hopf.track_axis_crossing(path, samples=9) == []
        assert tally(calls) == {"solve": 9, "eigvals": 9}


class TestTrackAxisCrossing:
    def test_case2_single_crossing(self, case2_path):
        # The frequency route, and the sampled route on the same path.
        for path in (case2_path, sampled(case2_path)):
            crossings = hopf.track_axis_crossing(path, samples=21)
            assert len(crossings) == 1
            c = crossings[0]
            assert abs(c.gamma - 0.2) <= 1e-3
            assert not c.boundary
            assert abs(c.eigenvalue.real) <= 1e-10 * abs(c.eigenvalue)

    def test_case1_boundary_crossing(self, case1_path):
        crossings = hopf.track_axis_crossing(case1_path, samples=21)
        assert len(crossings) == 1
        c = crossings[0]
        assert c.boundary and c.gamma == 0.0
        assert abs(c.omega - OMEGA_CASE1) < 1e-9

    def test_constant_damping_no_crossing(self):
        path = hopf.DampingPath(
            inertia=np.eye(3),
            stiffness=np.diag([1.0, 2.0, 3.0]),
            damping_of=lambda g: np.eye(3),
            gamma_range=(0.0, 1.0),
        )
        assert hopf.track_axis_crossing(path, samples=11) == []

    def test_coarse_grid_ambiguity(self):
        # A fast branch crosses the axis and ends 0.2 from a fixed branch
        # (-0.8 + 3.919i): with two samples both branches pair with that one
        # eigenvalue, with a fine grid the crossing is resolved.
        stiffness = np.diag([16.0, 16.0])

        def damping_of(g):
            return np.diag([4.0 * g - 2.0, 1.6])

        path = hopf.DampingPath(
            inertia=np.eye(2),
            stiffness=stiffness,
            damping_of=damping_of,
            gamma_range=(0.0, 1.0),
        )
        with pytest.raises(TrackingAmbiguity) as info:
            hopf.track_axis_crossing(path, samples=2)
        assert info.value.gamma == 0.0
        # 81 samples place the crossing exactly on a grid point, a run of
        # one in-band sample refined between its neighbours; 80 bracket it
        # in one interval.
        for samples in (81, 80):
            fine = hopf.track_axis_crossing(path, samples=samples)
            assert len(fine) == 1
            assert abs(fine[0].gamma - 0.5) < 1e-8
            assert not fine[0].boundary

    def test_case2_refinement_jacobian_count(self, case2_path, monkeypatch):
        # The frequency route builds the Jacobians at the two range ends
        # and at the crossing.  The sampled route builds one per sample
        # (21) plus the crossing's refinement: Brent's method needs four
        # Jacobians where bisection needed 22.
        for path, most in ((case2_path, 3), (sampled(case2_path), 27)):
            built = []
            jacobian = path.jacobian
            monkeypatch.setattr(path, "jacobian",
                                lambda g: built.append(g) or jacobian(g))
            crossings = hopf.track_axis_crossing(path, samples=21)
            assert len(crossings) == 1
            assert len(built) <= most

    def test_distant_close_pair_is_no_ambiguity(self):
        # The case2 pair tied to a random lossy grid: two close eigenvalues
        # of the random part, 0.89 from the moving Hopf branch, must not
        # stop the sweep, nor the frequency route.
        rng = np.random.default_rng(1)
        path = swing.grid_damping_path(*tied_case2_pair(rng, 100, suites.random_lossy_grid),
                                       np.arange(100) == 0, (0.1, 0.3))
        for route in (path, sampled(path)):
            crossings = hopf.track_axis_crossing(route, samples=21)
            assert len(crossings) == 1
            assert abs(crossings[0].gamma - 0.264) <= 1e-3
            assert not crossings[0].boundary

    def test_brent_keeps_refinement_short(self):
        # Re lam(gamma) = (e^1.5 - e^(5 gamma)) / 2 bends strongly on the
        # bracket, so plain regula falsi keeps one end and creeps in from
        # the other for 176 Jacobians; Brent's method, seeded with the two
        # sampled ends, gets the crossing at gamma = 0.3 in 10 more.
        calls = []

        def damping_of(g):
            calls.append(g)
            return np.array([[math.exp(5 * g) - math.exp(1.5)]])

        path = hopf.DampingPath(
            inertia=np.eye(1), stiffness=np.array([[1e4]]),
            damping_of=damping_of, gamma_range=(0.0, 1.0),
        )
        crossings = hopf.track_axis_crossing(path, samples=2)
        assert len(crossings) == 1
        assert abs(crossings[0].gamma - 0.3) <= 1e-9
        assert len(calls) <= 20

    def test_slow_crossing_is_one_crossing(self):
        # A random rank-one path whose pair stays in the axis band for four
        # samples around gamma = 1.2086: one crossing, refined between the
        # samples before and after the run, where the frequency route
        # finds it.
        path = random_rank_one_path(194)
        found = hopf.sweep(path, 801)
        band = 1e-7 * found.scale
        assert sum(bool((np.abs(e.real) <= band).any()) for e in found.spectra) == 4
        (got,), (want,) = found.crossings, hopf.track_axis_crossing(path)
        assert abs(got.gamma - want.gamma) <= 1e-9
        assert abs(got.omega - want.omega) <= 1e-9
        assert not got.boundary

    @pytest.mark.parametrize("seed, gammas", [(2, [0.550742, 0.689786]), (16, []),
                                              (326, [0.068146, 0.083456, 0.303472])])
    def test_collisions_off_the_axis_keep_the_crossings(self, seed, gammas):
        # Branches collide far off the axis.  On seed 2 a pair turns real
        # near gamma = 1.05, about 1e5 bands right of it, and its branch
        # shares the match of another; seed 16 has no Hopf point at all.
        # The branch nearer the real axis ends, and the sweep gives the
        # frequency route's crossings.  On seed 326 the other branch
        # crosses at 0.3035, and ending it instead would lose that crossing.
        path = random_rank_one_path(seed)
        got, want = hopf.sweep(path, 201).crossings, hopf.track_axis_crossing(path)
        assert [round(c.gamma, 6) for c in want] == gammas
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert abs(a.gamma - b.gamma) <= 1e-9
            assert not a.boundary

    @pytest.mark.parametrize("stiffness, damping", [([1.0], []), ([1.0, 100.0], [1.0])])
    def test_run_is_reported_where_pairing_ends(self, stiffness, damping):
        # The pair of the first mode, with d(gamma) = 5 gamma^2 - 1.5 gamma
        # - 0.5 and stiffness 1, is right of the axis at gamma = 0, on it
        # (+-i) at 0.5 and real at 1 (d = 3).  Alone, no pair is left at
        # 1; with a second mode (stiffness 100, damping 1) its branch
        # shares the match -0.5 + 9.99i and ends.  Either way the open
        # run is reported at its sample nearest the axis.
        path = hopf.DampingPath(
            inertia=np.eye(len(stiffness)), stiffness=np.diag(stiffness),
            damping_of=lambda g: np.diag([5 * g * g - 1.5 * g - 0.5] + damping),
            gamma_range=(0.0, 1.0),
        )
        (c,) = hopf.sweep(path, 3).crossings
        assert (c.gamma, c.boundary) == (0.5, False)
        assert abs(c.omega - 1.0) <= 1e-12

    def test_shared_match_where_no_pair_turns_real_raises(self):
        # The pair +-0.5i moves to 0.49 +- 0.0995i, and its nearest match
        # is the fixed -0.55 + 0.5i, 0.55 away, which is farther than the
        # real axis.  No pair turns real, so the branch does not end.
        path = hopf.DampingPath(
            inertia=np.eye(2), stiffness=np.diag([0.25, 0.5525]),
            damping_of=lambda g: np.diag([-0.98 * g, 1.1]),
            gamma_range=(0.0, 1.0),
        )
        with pytest.raises(TrackingAmbiguity, match="share one continuation match"):
            hopf.sweep(path, 2)

    @pytest.mark.parametrize("seed, count", [(66, 3), (102, 4)])
    def test_crossings_confirmed_by_dense_spectra(self, seed, count):
        # Two of these crossings on each path are a pair that crosses and
        # returns between two frequencies the frequency route scans; the
        # sampled route sees them.  Each crossing moves two eigenvalues
        # across the axis.
        path = random_rank_one_path(seed)
        crossings = hopf.sweep(path, 201).crossings
        assert len(crossings) == count
        for c in crossings:
            assert not c.boundary
            before, after = (
                np.count_nonzero(np.linalg.eigvals(path.jacobian(c.gamma + h)).real > 0)
                for h in (-1e-3, 1e-3))
            assert abs(after - before) == 2

    def test_pair_on_the_axis_throughout_gives_two_boundary_crossings(self, case1):
        # Generator 3's damping leaves mode (1, -1, 0) unobservable: the
        # pair stays on the axis, one run from end to end.
        model, eq = case1
        path = swing.grid_damping_path(model, eq, [False, False, True], (0.5, 1.5))
        crossings = hopf.track_axis_crossing(path, samples=11)
        assert [(c.gamma, c.boundary) for c in crossings] == [(0.5, True), (1.5, True)]
        assert all(abs(c.omega - OMEGA_CASE1) < 1e-9 for c in crossings)

    def test_touch_is_one_unrefined_crossing(self):
        # D(gamma) = 4e-5 (gamma - 0.5)^2: the pair -D/2 +- i sqrt(1 - D^2/4)
        # enters the axis band from the left at 0.45 and leaves it to the
        # left after 0.55; the one crossing is the sample nearest the axis.
        path = hopf.DampingPath(
            inertia=np.eye(1), stiffness=np.eye(1),
            damping_of=lambda g: np.array([[4e-5 * (g - 0.5) ** 2]]),
            gamma_range=(0.0, 1.0),
        )
        (c,) = hopf.track_axis_crossing(path, samples=21)
        assert (c.gamma, c.omega, c.eigenvalue, c.boundary) == (0.5, 1.0, 1j, False)

    def test_bad_sample_count(self):
        path = hopf.DampingPath(
            inertia=np.eye(1),
            stiffness=np.eye(1),
            damping_of=lambda g: g * np.eye(1),
            gamma_range=(0.0, 1.0),
        )
        with pytest.raises(AssumptionViolated):
            hopf.track_axis_crossing(path, samples=1)

    def test_safe_region_suite(self):
        result = suites.suite_safe_damping_region(seed=41, trials=150)
        assert result.passed, result.failures[:1]


def lossless_base(rng, n):
    return suites.random_lossless_grid(rng, n, "positive")


def tied_pair_paths(seeds=range(4)):
    """Generator 0's damping paths on (0.1, 0.3) of tied case2 pairs with
    10-40 generators, on a lossless and on a lossy random grid per seed."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for base_grid in (lossless_base, suites.random_lossy_grid):
            n = int(rng.integers(10, 41))
            model, eq = tied_case2_pair(rng, n, base_grid)
            yield swing.grid_damping_path(model, eq, np.arange(n) == 0, (0.1, 0.3))


class TestFrequencyRoute:
    """Rank-one affine paths: crossings from the pencil's frequency response,
    confirmed by dense spectra at the range ends and at each crossing."""

    @staticmethod
    def assert_agrees_with_sweep(path, samples):
        got = hopf.track_axis_crossing(path, samples=samples)
        want = hopf.sweep(path, samples).crossings
        assert len(got) == len(want)
        for c, w in zip(got, want):
            assert abs(c.gamma - w.gamma) <= 1e-9
            assert abs(c.omega - w.omega) <= 1e-9
            assert not c.boundary and not w.boundary
            assert abs(c.eigenvalue - 1j * c.omega) <= 1e-7 * abs(c.eigenvalue)
        return got

    def test_agrees_with_sweep_on_case2_and_tied_pairs(self, case2_path):
        paths = [(case2_path, 21)] + [(path, 41) for path in tied_pair_paths()]
        found = [len(self.assert_agrees_with_sweep(path, samples))
                 for path, samples in paths]
        assert found == [1] * 9

    def test_no_crossing_in_range(self, case2_path):
        path = replace(case2_path, gamma_range=(0.22, 0.3))
        assert hopf.track_axis_crossing(path) == []

    def test_other_paths_take_the_sampled_route_bit_for_bit(self, case1, case2_path,
                                                           case1_path):
        model, eq = case1
        # Generator 1 stays undamped, so the pair is on the axis at 0.
        axis_at_lo = swing.grid_damping_path(model, eq, [True, False, False], (0.0, 0.5))
        # w^T D(gamma) 1, w the left null vector of L, changes sign at
        # gamma = 2.749: a real eigenvalue of the reduced Jacobian crosses 0.
        real_through_zero = replace(case2_path, gamma_range=(0.1, 3.0))
        for path in (sampled(case2_path), case1_path, real_through_zero, axis_at_lo):
            got = hopf.track_axis_crossing(path, samples=21)
            assert crossing_bits(got) == crossing_bits(hopf.sweep(path, 21).crossings)
        assert [c.boundary for c in got] == [True]

    def test_axis_eigenvalues_stay_below_the_band(self):
        # omega_max^2 = lambda_max(M^-1 sym L) from scipy's symmetric-definite
        # solver; every axis eigenvalue of every sampled Jacobian and every
        # crossing lies below it.
        from scipy.linalg import eigh

        for path in tied_pair_paths(seeds=range(2)):
            sym_l = 0.5 * (path.stiffness + path.stiffness.T)
            omega_max = math.sqrt(eigh(sym_l, path.inertia, eigvals_only=True)[-1])
            found = hopf.sweep(path, 41)
            band = 1e-7 * found.scale
            for eigs in found.spectra:
                axis = eigs[np.abs(eigs.real) <= band]
                assert (axis.imag <= omega_max + band).all()
            crossings = hopf.track_axis_crossing(path)
            assert crossings
            for c in crossings:
                assert c.omega < omega_max and c.eigenvalue.imag < omega_max

    def test_perturbed_direction_in_the_frequency_verdict_raises(self, case2_path,
                                                                 monkeypatch):
        rank_one = hopf._rank_one
        monkeypatch.setattr(hopf, "_rank_one", lambda slope: (
            lambda s, u: (s, 1.01 * u))(*rank_one(slope)))
        with pytest.raises(TheoremViolation) as info:
            hopf.track_axis_crossing(case2_path)
        gamma0, omega0 = info.value.first_verdict
        assert abs(gamma0 - 0.19978) <= 1e-2
        # The dense spectrum there has the pair well off the axis.
        assert abs(info.value.second_verdict.real) > 1e-4

    def test_perturbed_end_spectrum_raises(self, case2_path, monkeypatch):
        # The Jacobian at the upper end shifted right by 1: the count of
        # eigenvalues with Re > 0 no longer drops by the root's 2.
        lo, hi = case2_path.gamma_range
        jacobian = case2_path.jacobian
        monkeypatch.setattr(case2_path, "jacobian", lambda g: (
            jacobian(g) + (g == hi) * np.eye(3)))
        with pytest.raises(TheoremViolation) as info:
            hopf.track_axis_crossing(case2_path)
        (gamma0, omega0, dlam), = info.value.first_verdict
        assert abs(gamma0 - 0.19978) <= 1e-4 and dlam.real < 0
        before, after = info.value.second_verdict
        assert before == 2 and after != 0

    def test_seeded_brent_is_bit_for_bit(self, case2_path, monkeypatch):
        # The scan's values at the bracket ends seed Brent's method, and the
        # response at the root is kept: evaluating all three afresh gives
        # the same crossings bit for bit.
        paths = [case2_path, *tied_pair_paths()]
        seeded = [crossing_bits(hopf.track_axis_crossing(p)) for p in paths]
        brackets = []

        def fresh(f, a, b, at_a, at_b, xtol, rtol):
            brackets.append((a, b))
            root = simulate._brent(lambda x: f(x)[0], a, b, xtol, rtol)
            return root, f(root)

        monkeypatch.setattr(hopf, "_refine", fresh)
        assert [crossing_bits(hopf.track_axis_crossing(p)) for p in paths] == seeded
        assert all(len(c) == 1 for c in seeded) and len(brackets) >= len(paths)

    @staticmethod
    def tied_path_30():
        rng = np.random.default_rng(3)
        model, eq = tied_case2_pair(rng, 30, lossless_base)
        return swing.grid_damping_path(model, eq, np.arange(30) == 0, (0.1, 0.3))

    def test_lapack_calls(self, monkeypatch):
        # n = 30: two end spectra and one per crossing, one Cholesky factor
        # of M and one eigvalsh for the band, no eig and no SVD.  The 82
        # solves: 2 for the band, 64 for the scan, 12 Brent steps inside its
        # two sign changes (the scan holds g at the bracket ends, Brent at
        # the roots), y at the root kept, and M^-1 D for the 3 Jacobians.
        path = self.tied_path_30()
        calls = count_lapack(monkeypatch)
        crossings = hopf.track_axis_crossing(path)
        assert len(crossings) == 1
        assert tally(calls) == {"cholesky": 1, "eigvals": 3, "eigvalsh": 1, "solve": 82}

    def test_certificate_lapack_calls(self, monkeypatch):
        # The certificate at that crossing reads the route's spectrum at the
        # root from the path's memo: its one eigvals is that of M^-1 L for
        # the resonance cutoff.  A fresh path computes the root spectrum
        # too.  r0, l0 and lambda(gamma0 +- h) come from shifted solves, so
        # there is no eig (an eig-based certificate made 1 eig, 3 eigvals
        # and 7 solves either way).  The 10 solves: M^-1 D for J at gamma0
        # and gamma0 +- h, M^-1 D' for J', r0, l0, one shifted solve at
        # each of gamma0 +- h, and 2 in l1.
        path = self.tied_path_30()
        fresh = replace(path)
        crossing, = hopf.track_axis_crossing(path)
        for certified, eigvals in ((path, 1), (fresh, 2)):
            calls = count_lapack(monkeypatch)
            hopf.hopf_conditions(certified, crossing.gamma, omega_hint=crossing.omega)
            assert tally(calls) == {"eigvals": eigvals, "solve": 10}

    def test_certificate_takes_no_matrix_2_norm(self, monkeypatch):
        # A matrix 2-norm is an SVD inside np.linalg.norm, which
        # count_lapack cannot see: the eigenpair residual tolerance scales
        # with the largest column 2-norm of J instead of ||J||_2.
        path = self.tied_path_30()
        crossing, = hopf.track_axis_crossing(path)
        norm, matrix_norms = np.linalg.norm, []

        def recorded(x, ord=None, axis=None, keepdims=False):
            if ord in (2, -2) and (np.ndim(axis) == 1 or axis is None and np.ndim(x) == 2):
                matrix_norms.append(np.shape(x))
            return norm(x, ord, axis, keepdims)

        monkeypatch.setattr(np.linalg, "norm", recorded)
        hopf.hopf_conditions(path, crossing.gamma, omega_hint=crossing.omega)
        assert matrix_norms == []

    def test_certificates_share_the_radius_of_minv_l(self, monkeypatch):
        # rho(M^-1 L) sets the resonance cutoff and is fixed with the path:
        # two certificates on one path make one 30 x 30 eigvals.
        path = self.tied_path_30()
        crossing, = hopf.track_axis_crossing(path)
        shapes = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: shapes.append(np.shape(a)) or eigvals(a))
        first, second = (hopf.hopf_conditions(path, crossing.gamma, omega_hint=crossing.omega)
                         for _ in range(2))
        assert shapes.count((30, 30)) == 1
        assert first.resonance_kmax == second.resonance_kmax
        assert path.minv_l_radius == max(np.abs(eigvals(path.minv_l)))


def test_a_path_is_not_a_stack(case2_path):
    # A DampingPath is one path; linalg.jacobian_2n builds stacked Jacobians.
    with pytest.raises(MatrixShapeError, match="inertia must be 2-d"):
        hopf.DampingPath(inertia=np.stack([case2_path.inertia, 2 * case2_path.inertia]),
                         stiffness=np.stack([case2_path.stiffness] * 2),
                         damping_of=case2_path.damping_of,
                         gamma_range=case2_path.gamma_range, referenced=True)


@pytest.mark.parametrize("analysis", [
    lambda path: hopf.sweep(path, 21),
    lambda path: hopf.track_axis_crossing(path, samples=21),
    lambda path: hopf.hopf_conditions(path, 0.2, omega_hint=1.0),
], ids=["sweep", "track_axis_crossing", "hopf_conditions"])
def test_analyses_refuse_a_stack(case2_path, analysis):
    # One-path inertia and stiffness build, but a damping that returns a
    # stack of two members is refused by each analysis on its first Jacobian.
    stacked = hopf.DampingPath(
        inertia=case2_path.inertia, stiffness=case2_path.stiffness,
        damping_of=lambda g: np.stack([case2_path.damping_of(g)] * 2),
        gamma_range=case2_path.gamma_range, referenced=True)
    with pytest.raises(MatrixShapeError, match="damping must be 2-d"):
        analysis(stacked)


class TestHopfConditions:
    def test_case1_certificate(self, case1_path):
        cert = hopf.hopf_conditions(
            case1_path, 0.0, omega_hint=OMEGA_CASE1, boundary=True
        )
        assert abs(cert.omega0 - OMEGA_CASE1) < 1e-9
        # eigenvalue drift per unit damping parameter is exactly -1/2
        assert abs(abs(cert.transversality) - 0.5) <= 1e-4
        assert cert.transversality < 0
        assert cert.simple
        assert cert.resonance_clear
        assert cert.boundary
        assert cert.kind == hopf.SUPERCRITICAL
        assert -2.0e-3 <= cert.l1 <= -1.2e-3
        # normalization invariant
        assert abs(np.vdot(cert.l0, cert.r0) - 1.0) <= 1e-10
        # the mode vector is the unobservable direction (1, -1, 0)
        direction = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
        assert abs(abs(np.vdot(direction, cert.v)) - 1.0) < 1e-8

    def test_case1_no_second_harmonic_resonance(self, case1_path):
        # kappa = 2 harmonic: det P(2 i omega0) well away from zero
        pencil = QuadraticPencil(
            case1_path.inertia, case1_path.damping_of(0.0), case1_path.stiffness
        )
        p = pencil.evaluate(2j * OMEGA_CASE1)
        assert np.linalg.svd(p, compute_uv=False)[-1] > 1e-2

    @pytest.mark.parametrize(
        "stiffness, damping",
        [
            ((1.0, 4.0), (-0.5, 0.0)),  # 1:2, pencil root at 2i
            ((1.0, 9.0), (-0.5, 0.0)),  # 1:3, pencil root at 3i
            ((1.0, 0.0), (-0.5, 1.0)),  # zero eigenvalue
        ],
    )
    def test_resonance_detected(self, stiffness, damping):
        base = np.array(damping)
        path = hopf.DampingPath(
            inertia=np.eye(2),
            stiffness=np.diag(stiffness),
            damping_of=lambda g: np.diag(base + [g, 0.0]),
            gamma_range=(0.0, 1.0),
        )
        cert = hopf.hopf_conditions(path, 0.5, omega_hint=1.0)
        assert abs(cert.omega0 - 1.0) <= 1e-12
        assert not cert.resonance_clear

    def test_case2_certificate(self, case2_path):
        crossings = hopf.track_axis_crossing(case2_path, samples=21)
        cert = hopf.hopf_conditions(
            case2_path, crossings[0].gamma, omega_hint=crossings[0].omega
        )
        assert cert.transversality != 0
        assert cert.simple and cert.resonance_clear
        assert cert.kind == hopf.SUBCRITICAL
        assert 1.03 <= cert.l1 <= 1.27

    def test_transversality_vs_finite_difference(self, case1_path):
        # hopf_conditions raises TheoremViolation if the eigenvector
        # projection and the finite-difference derivative disagree; also
        # compare against an explicit independent finite difference here.
        cert = hopf.hopf_conditions(case1_path, 0.0, omega_hint=OMEGA_CASE1)
        h = 1e-6
        lams = []
        for g in (h, -h):
            eigs = np.linalg.eigvals(case1_path.jacobian(g))
            lams.append(eigs[np.argmin(np.abs(eigs - 1j * cert.omega0))])
        fd = (lams[0] - lams[1]) / (2 * h)
        assert abs(fd - cert.dlambda_dgamma) <= 1e-5 * abs(cert.dlambda_dgamma)

    def test_scaled_derivative_fails_the_cross_check(self, case2):
        # J' 1.01 times too large moves the projection by 1 %, and not the
        # finite differences: both verdicts are in the exception.
        path = swing.grid_damping_path(*case2, [True, False], (0.1, 0.3))
        crossing, = hopf.track_axis_crossing(path)
        jacobian_prime = path.jacobian_prime
        path.jacobian_prime = lambda g: 1.01 * jacobian_prime(g)
        with pytest.raises(TheoremViolation) as info:
            hopf.hopf_conditions(path, crossing.gamma, omega_hint=crossing.omega)
        projection, fd = info.value.first_verdict, info.value.second_verdict
        assert projection.real < 0
        assert abs(projection - 1.01 * fd) <= 1e-6 * abs(projection)

    def test_patched_jacobian_misses_the_memo(self, case2_path, monkeypatch):
        # After a certificate, J(gamma0) shifted right by 1 as in
        # test_perturbed_end_spectrum_raises: the memo, keyed on the
        # Jacobian's content, does not answer, and the pair is off the axis.
        crossing, = hopf.track_axis_crossing(case2_path)
        gamma0 = hopf.hopf_conditions(case2_path, crossing.gamma,
                                      omega_hint=crossing.omega).gamma0
        jacobian = case2_path.jacobian
        monkeypatch.setattr(case2_path, "jacobian", lambda g: (
            jacobian(g) + (g == gamma0) * np.eye(3)))
        calls = count_lapack(monkeypatch)
        with pytest.raises(NotAnAxisEigenvalue):
            hopf.hopf_conditions(case2_path, gamma0, omega_hint=crossing.omega)
        assert tally(calls) == {"eigvals": 1, "solve": 1}

    def test_off_axis_gamma_rejected(self, case1_path):
        with pytest.raises(NotAnAxisEigenvalue):
            hopf.hopf_conditions(case1_path, 0.4)

    def test_off_axis_hinted_eigenvalue_rejected(self, case1_path):
        # The hint finds the pair, but at gamma = 0.01 its real part, about
        # -0.005, lies far outside the band.
        with pytest.raises(NotAnAxisEigenvalue, match="outside the axis band"):
            hopf.hopf_conditions(case1_path, 0.01, omega_hint=OMEGA_CASE1)

    def test_decided_from_its_own_spectrum(self, case1_path, monkeypatch):
        # The axis and resonance checks read the eigenvalues of the one
        # eigvals(J0): no SVD of J, of J - i omega0 I or of a pencil.
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a))
        cert = hopf.hopf_conditions(case1_path, 0.0, omega_hint=OMEGA_CASE1)
        assert cert.resonance_clear and cert.resonance_kmax >= 2
        assert calls == []


class TestEigenvalueParameterDerivative:
    @pytest.fixture()
    def eigentriple(self):
        rng = np.random.default_rng(47)
        jac = rng.normal(size=(5, 5))
        eigs, vecs = np.linalg.eig(jac)
        idx = np.argmax(eigs.imag)
        lam = eigs[idx]
        r = vecs[:, idx]
        eigs_t, vecs_t = np.linalg.eig(jac.T)
        jdx = np.argmin(np.abs(eigs_t - np.conj(lam)))
        l = vecs_t[:, jdx]
        l = l / np.conj(np.vdot(l, r))
        return jac, lam, r, l

    def test_zero_direction(self, eigentriple):
        jac, lam, r, l = eigentriple
        val = hopf.eigenvalue_parameter_derivative(jac, np.zeros_like(jac), lam, r, l)
        assert abs(val) < 1e-12

    def test_self_direction_returns_eigenvalue(self, eigentriple):
        jac, lam, r, l = eigentriple
        val = hopf.eigenvalue_parameter_derivative(jac, jac, lam, r, l)
        assert abs(val - lam) < 1e-8 * abs(lam)

    def test_normalization_enforced(self, eigentriple):
        jac, lam, r, l = eigentriple
        with pytest.raises(NormalizationFailure):
            hopf.eigenvalue_parameter_derivative(jac, jac, lam, r, 2 * l)

    def test_matches_finite_difference_on_random_path(self, eigentriple):
        jac, lam, r, l = eigentriple
        rng = np.random.default_rng(53)
        djac = rng.normal(size=jac.shape)
        analytic = hopf.eigenvalue_parameter_derivative(jac, djac, lam, r, l)
        h = 1e-7
        lam_p = _nearest(np.linalg.eigvals(jac + h * djac), lam)
        lam_m = _nearest(np.linalg.eigvals(jac - h * djac), lam)
        fd = (lam_p - lam_m) / (2 * h)
        assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(analytic))


def _nearest(eigs, lam):
    return eigs[np.argmin(np.abs(eigs - lam))]


def _closed_form_l1(model, eq, jac, cert):
    """l1 of the referenced swing flow from its exact multilinear forms.

    With ``H = conj(z)_j G_jk z_k`` at the equilibrium and
    ``du_jk = u_k - u_j`` on the angle part ``(psi, 0)`` of a direction,
    the flow's forms are ``B_P = -sum_k Re H du dw`` and
    ``C_P = sum_k Im H du dv dw``; the field's are ``(0, -(omega_s/m) B_P)``
    and likewise for C.
    """
    n = model.n
    z = np.exp(1j * eq.delta0)
    h = z.conj()[:, None] * model._coupling * z[None, :]
    minv = model.omega_s / model.inertia_const

    def diff(u):
        angles = np.concatenate([u[: n - 1], [0.0]])
        return angles[None, :] - angles[:, None]

    def field(flow_form):
        return np.concatenate([np.zeros(n - 1), -minv * flow_form])

    def b(u, w):
        return field(-(h.real * diff(u) * diff(w)).sum(axis=1))

    def c(u, v, w):
        return field((h.imag * diff(u) * diff(v) * diff(w)).sum(axis=1))

    q = cert.r0 / np.linalg.norm(cert.r0)
    p = cert.l0 / np.conj(np.vdot(cert.l0, q))
    w0 = cert.omega0
    s1 = np.linalg.solve(jac, b(q, q.conj()))
    s2 = np.linalg.solve(2j * w0 * np.eye(jac.shape[0]) - jac, b(q, q))
    value = (
        np.vdot(p, c(q, q, q.conj()))
        - 2.0 * np.vdot(p, b(q, s1))
        + np.vdot(p, b(q.conj(), s2))
    )
    return value.real / (2.0 * w0)


class TestCentralDifference:
    def test_first_order_is_two_point_quotient(self):
        def f(g):
            return np.array([math.exp(g), math.sin(3 * g)])

        h = 1e-6
        expected = (f(0.3 + h) - f(0.3 - h)) / (2 * h)
        assert np.array_equal(hopf._central(f, 0.3, h, 1.0), expected)

    def test_exact_forms_of_a_cubic_map(self):
        # Mixed differences of order 2 and 3 have no truncation error on a
        # cubic, so only rounding separates them from the exact forms.
        rng = np.random.default_rng(3)
        m = 4
        lin = rng.normal(size=(m, m))
        quad = rng.normal(size=(m, m, m))
        quad = 0.5 * (quad + quad.transpose(0, 2, 1))
        cub = rng.normal(size=(m, m, m, m))
        cub = sum(cub.transpose(0, *perm) for perm in
                  ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))) / 6

        def f(x):
            return (lin @ x + np.einsum("ijk,j,k", quad, x, x)
                    + np.einsum("ijkl,j,k,l", cub, x, x, x))

        x0 = rng.normal(size=m)
        u, v, w = (rng.normal(size=m) + 1j * rng.normal(size=m) for _ in range(3))
        b_exact = 2 * np.einsum("ijk,j,k", quad, u, w) + 6 * np.einsum(
            "ijkl,j,k,l", cub, x0, u, w)
        c_exact = 6 * np.einsum("ijkl,j,k,l", cub, u, v, w)
        np.testing.assert_allclose(hopf._central(f, x0, 0.5, u, w), b_exact,
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(hopf._central(f, x0, 0.5, u, v, w), c_exact,
                                   rtol=0, atol=1e-10)


class TestFirstLyapunovCoefficient:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_cubic_normal_form_sign(self, sign):
        def rhs(z, s=sign):
            x, y = z
            r2 = x * x + y * y
            return np.array([-y + s * x * r2, x + s * y * r2])

        jac = np.array([[0.0, -1.0], [1.0, 0.0]])
        q = np.array([1.0, -1j]) / math.sqrt(2)
        p = np.array([1.0, -1j]) / math.sqrt(2)
        l1 = hopf.first_lyapunov_coefficient(
            rhs, np.zeros(2), 1.0, q, p, jac=jac
        )
        assert math.copysign(1.0, l1) == sign
        assert abs(l1) > 0.1

    def test_step_halving_stability_case1(self, case1_path):
        values = []
        scale = np.linalg.norm(case1_path.x0) + 1.0
        eps = np.finfo(float).eps
        cert = hopf.hopf_conditions(case1_path, 0.0, omega_hint=OMEGA_CASE1,
                                    compute_l1=False)
        f = case1_path.rhs_of(0.0)
        for fac in (1.0, 0.5):
            values.append(
                hopf.first_lyapunov_coefficient(
                    f, case1_path.x0, cert.omega0, cert.r0, cert.l0,
                    jac=case1_path.jacobian(0.0),
                    h2=fac * eps**0.25 * scale,
                    h3=fac * eps**0.2 * scale,
                )
            )
        assert abs(values[1] - values[0]) < 1e-5 * abs(values[0])

    def test_step_halving_stability_case2(self, case2_path):
        crossings = hopf.track_axis_crossing(case2_path, samples=21)
        cert = hopf.hopf_conditions(
            case2_path, crossings[0].gamma, omega_hint=crossings[0].omega,
            compute_l1=False,
        )
        f = case2_path.rhs_of(cert.gamma0)
        scale = np.linalg.norm(case2_path.x0) + 1.0
        eps = np.finfo(float).eps
        values = [
            hopf.first_lyapunov_coefficient(
                f, case2_path.x0, cert.omega0, cert.r0, cert.l0,
                jac=case2_path.jacobian(cert.gamma0),
                h2=fac * eps**0.25 * scale,
                h3=fac * eps**0.2 * scale,
            )
            for fac in (1.0, 0.5)
        ]
        assert abs(values[1] - values[0]) < 1e-5 * abs(values[0])

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_matches_closed_form(self, case, request):
        model, eq = request.getfixturevalue(case)
        path = request.getfixturevalue(f"{case}_path")
        if case == "case1":
            gamma0, omega = 0.0, OMEGA_CASE1
        else:
            crossing = hopf.track_axis_crossing(path, samples=21)[0]
            gamma0, omega = crossing.gamma, crossing.omega
        cert = hopf.hopf_conditions(path, gamma0, omega_hint=omega)
        exact = _closed_form_l1(model, eq, path.jacobian(gamma0), cert)
        assert abs(cert.l1 - exact) <= 1e-6 * abs(exact)

    def test_classify(self):
        assert hopf.classify_lyapunov(-1.0) == hopf.SUPERCRITICAL
        assert hopf.classify_lyapunov(1.0) == hopf.SUBCRITICAL
        assert hopf.classify_lyapunov(1e-7) == hopf.DEGENERATE
        assert hopf.classify_lyapunov(None) == hopf.DEGENERATE
