import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from damplab import simulate, suites, swing
from damplab.errors import (
    AssumptionViolated,
    ModelFormatError,
    NoConvergence,
    NoRepairIndex,
    NotInOmega,
    NotLossless,
    PreconditionViolated,
    SingularReducedJacobian,
)
from damplab.linalg import classify_spectrum
from damplab.stability import ObservabilityWitness
from conftest import L_CASE1, MODELS, ROOT3, case1_model


class TestFlowFunction:
    def test_translational_invariance(self, case1):
        model, eq = case1
        delta = np.array([0.3, -0.2, 0.9])
        shifted = model.flow(delta + 0.37)
        np.testing.assert_allclose(shifted, model.flow(delta), atol=1e-12)

    def test_case1_equilibrium_powers(self, case1):
        model, _ = case1
        delta = np.array([0.0, math.pi / 3, math.pi / 3])
        want = np.array([-ROOT3, ROOT3 / 2, ROOT3 / 2])
        assert np.abs(model.flow(delta) - want).max() <= 1e-12

    def test_two_bus_quarter_turn_line(self):
        model = swing.PowerGridModel(
            y_mag=np.array([[0.0, 1.0], [1.0, 0.0]]),
            theta=np.array([[0.0, math.pi / 2], [math.pi / 2, 0.0]]),
            voltage=np.ones(2),
            p_mech=np.zeros(2),
            inertia_const=np.ones(2),
            damping_coeff=np.zeros(2),
        )
        np.testing.assert_allclose(model.flow(np.zeros(2)), [0.0, 0.0],
                                   atol=1e-15)


class TestFlowJacobian:
    def test_case1_value(self, case1):
        model, _ = case1
        delta = np.array([0.0, math.pi / 3, math.pi / 3])
        np.testing.assert_allclose(model.flow_jacobian(delta), L_CASE1,
                                   atol=1e-12)

    def test_zero_row_sums(self, case2):
        model, _ = case2
        rng = np.random.default_rng(2)
        for _ in range(5):
            delta = rng.uniform(-1, 1, size=2)
            rows = model.flow_jacobian(delta).sum(axis=1)
            assert np.abs(rows).max() <= 1e-12

    def test_finite_difference_suite(self):
        result = suites.suite_flow_jacobian_fd(seed=7, trials=60)
        assert result.passed, result.failures[:1]

    def test_simple_zero_eigenvalue_on_connected_graph(self, case1):
        model, eq = case1
        jac = model.flow_jacobian(eq.delta0)
        svals = np.linalg.svd(jac, compute_uv=False)
        assert svals[-1] <= 1e-12      # the gauge zero
        assert svals[-2] > 1e-2        # and only that one

    def test_lossless_in_omega_is_symmetric_psd(self, case1):
        model, eq = case1
        jac = model.flow_jacobian(eq.delta0)
        assert np.abs(jac - jac.T).max() <= 1e-12
        assert np.linalg.eigvalsh(jac).min() >= -1e-12
        w = model.weights(eq.delta0)
        for j, k in model.edges():
            assert w[j, k] > 0  # admissible-set equilibria have positive weights

    def test_admissible_equilibrium_gives_m_matrix(self):
        # nonpositive off-diagonal entries and nonzero eigenvalues in the
        # right half-plane, for lossy grids as well
        rng = np.random.default_rng(59)
        for _ in range(25):
            from damplab.suites import random_lossy_grid

            model, eq = random_lossy_grid(rng, int(rng.integers(2, 4)))
            jac = model.flow_jacobian(eq.delta0)
            off = jac - np.diag(np.diag(jac))
            assert off.max() <= 1e-12
            eigs = np.linalg.eigvals(jac)
            nonzero = eigs[np.abs(eigs) > 1e-9 * max(1, np.abs(eigs).max())]
            assert np.all(nonzero.real > 0)


def _trig_flow(model, delta):
    """P_e, the weights and the flow Jacobian as trigonometric sums over
    every bus pair, and the largest absolute row sum of the terms."""
    n = model.n
    p, w, size = np.zeros(n), np.zeros((n, n)), np.zeros(n)
    for j in range(n):
        for k in range(n):
            c = model.voltage[j] * model.voltage[k] * model.y_mag[j, k]
            phase = model.theta[j, k] - delta[j] + delta[k]
            p[j] += c * math.cos(phase)
            size[j] += c
            if j != k:
                w[j, k] = c * math.sin(phase)
    jac = -w
    np.fill_diagonal(jac, w.sum(axis=1))
    return p, w, jac, size.max()


class TestFlowKernel:
    @pytest.mark.parametrize("n", [2, 10, 100])
    @pytest.mark.parametrize("kind", ["lossy", "lossless"])
    def test_matches_trigonometric_sum(self, kind, n):
        rng = np.random.default_rng(n)
        make = suites.random_lossy_grid if kind == "lossy" else suites.random_lossless_grid
        model, _ = make(rng, n)
        for _ in range(3):
            delta = rng.uniform(-math.pi, math.pi, size=n)
            p, w, jac, size = _trig_flow(model, delta)
            tol = 1e-12 * size
            assert np.abs(model.flow(delta) - p).max() <= tol
            assert np.abs(model.weights(delta) - w).max() <= tol
            assert np.abs(model.flow_jacobian(delta) - jac).max() <= 2 * tol


class TestReferencedRhs:
    @pytest.mark.parametrize("n", [2, 3, 10, 100])
    @pytest.mark.parametrize("kind", ["lossy", "lossless"])
    def test_equals_reference_expression_bitwise(self, kind, n):
        # The kernel writes the flow out; every bit must stay that of the
        # expression through PowerGridModel.flow, near the equilibrium and
        # far from it, and after with_damping.
        rng = np.random.default_rng(100 + n)
        make = suites.random_lossy_grid if kind == "lossy" else suites.random_lossless_grid
        model, eq = make(rng, n)
        for m in (model, model.with_damping(rng.uniform(0.0, 3.0, size=n))):
            ref = m.referenced(eq)
            minv = m.omega_s / m.inertia_const
            for size in (1e-7, 1e-2, 1.0, 20.0):
                u = ref.equilibrium_state + size * rng.normal(size=ref.dim)
                psi, omega = u[: n - 1], u[n - 1 :]
                want = np.concatenate([
                    omega[:-1] - omega[-1],
                    minv * (m.p_mech - m.flow(np.concatenate([psi, [0.0]])))
                    - minv * m.damping_coeff * omega,
                ])
                assert np.array_equal(ref.rhs(0.0, u), want)


class TestLosslessDetection:
    def test_case1_lossless(self, case1):
        assert case1[0].is_lossless()

    def test_case2_lossy(self, case2):
        assert not case2[0].is_lossless()

    def test_perturbed_angle_detected(self, case1):
        model, _ = case1
        theta = model.theta.copy()
        theta[0, 1] += 1e-3
        assert not replace(model, theta=theta).is_lossless()


def _loop_predicates(model, delta):
    """``edges``, ``is_lossless`` and ``in_omega`` as loops over all index pairs."""
    n = model.n
    edges = [(j, k) for j in range(n) for k in range(n)
             if j != k and model.y_mag[j, k] > 0]
    lossless = all(
        abs(model.theta[j, j] + math.pi / 2) <= swing.LOSSLESS_TOL
        for j in range(n) if model.y_mag[j, j] > 0
    ) and all(abs(model.theta[j, k] - math.pi / 2) <= swing.LOSSLESS_TOL
              for j, k in edges)
    phase = model.theta - delta[:, None] + delta[None, :]
    in_omega = all(swing.OMEGA_MARGIN < phase[j, k] < math.pi - swing.OMEGA_MARGIN
                   for j, k in edges)
    return edges, lossless, in_omega


class TestStructuralMasks:
    def test_masks_equal_pair_loops(self):
        # Random lossless and lossy grids, their zero-admittance entries
        # (absent lines, absent shunts) carrying arbitrary angles, one line
        # angle nudged off pi/2 and angles spread across the admissible set.
        rng = np.random.default_rng(61)
        seen = set()
        for trial in range(60):
            n = int(rng.integers(2, 7))
            model, eq = (suites.random_lossless_grid(rng, n) if trial % 2
                         else suites.random_lossy_grid(rng, min(n, 4)))
            theta = model.theta.copy()
            zero = model.y_mag == 0
            theta[zero] = rng.uniform(-3.0, 3.0, size=int(zero.sum()))
            if trial % 3 == 0:
                j, k = model.edges()[0]
                theta[j, k] += rng.choice([-1.0, 1.0]) * 2e-9
            model = replace(model, theta=theta)
            delta = eq.delta0 + rng.uniform(-1.0, 1.0, size=model.n) * (trial % 4 < 2)
            edges, lossless, in_omega = _loop_predicates(model, delta)
            assert model.edges() == edges
            assert all(type(j) is int and type(k) is int for j, k in model.edges())
            assert model.is_lossless() is lossless
            assert model.in_omega(delta) is in_omega
            seen.add((lossless, in_omega))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}


class TestSolveEquilibrium:
    def test_case1_from_generic_guess(self, case1):
        model, _ = case1
        eq = model.solve_equilibrium([0.1, 1.0, 1.0])
        assert eq.residual <= 1e-10
        assert eq.in_omega
        # equal to the reference angles up to a uniform shift
        want = np.array([0.0, math.pi / 3, math.pi / 3])
        shift = eq.delta0 - want
        assert np.abs(shift - shift[0]).max() <= 1e-9

    def test_case2_newton(self, case2):
        model, _ = case2
        eq = model.solve_equilibrium([1.4, 0.0])
        np.testing.assert_allclose(eq.delta0, [1.4905, 0.0], atol=1e-9)
        assert eq.residual <= 1e-10
        assert not eq.in_omega  # reversed-direction line angle exceeds pi

    def test_already_at_equilibrium(self, case1):
        model, eq = case1
        again = model.solve_equilibrium(eq.delta0)
        np.testing.assert_allclose(again.delta0, eq.delta0, atol=1e-12)

    def test_unreachable_power_raises(self, case1):
        model, _ = case1
        hungry = replace(model, p_mech=np.array([50.0, -25.0, -25.0]))
        with pytest.raises(NoConvergence):
            hungry.solve_equilibrium([0.0, 0.0, 0.0])


class TestToSecondOrder:
    def test_case1_matrices(self):
        model = case1_model(0.25)
        system = model.to_second_order()
        np.testing.assert_allclose(system.inertia, np.eye(3))
        np.testing.assert_allclose(system.damping, np.diag([0.25, 0.25, 1.5]))

    def test_case2_matrices(self, case2):
        system = case2[0].to_second_order()
        np.testing.assert_allclose(system.inertia, np.eye(2))
        np.testing.assert_allclose(system.damping, np.diag([0.2, 1.0]))

    def test_synchronous_speed_scaling(self, case1):
        # Scaling omega_s by c multiplies inertia and damping by 1/c, so the
        # ratio M^-1 D is invariant while the stiffness term M^-1 grad(f)
        # (and hence the modal frequencies) picks up the factor c.
        model, eq = case1
        c = 7.0
        fast = replace(model, omega_s=c)
        base_sys = model.to_second_order()
        fast_sys = fast.to_second_order()
        np.testing.assert_allclose(fast_sys.inertia, base_sys.inertia / c)
        np.testing.assert_allclose(fast_sys.damping, base_sys.damping / c)
        ratio_base = np.linalg.solve(base_sys.inertia, base_sys.damping)
        ratio_fast = np.linalg.solve(fast_sys.inertia, fast_sys.damping)
        np.testing.assert_allclose(ratio_fast, ratio_base, atol=1e-12)
        stiff_base = np.linalg.solve(base_sys.inertia, base_sys.jac(eq.delta0))
        stiff_fast = np.linalg.solve(fast_sys.inertia, fast_sys.jac(eq.delta0))
        np.testing.assert_allclose(stiff_fast, c * stiff_base, atol=1e-12)

    def test_residual_is_vector_field_zero(self, case1):
        model, eq = case1
        assert np.abs(model.flow(eq.delta0) - model.p_mech).max() <= 1e-12


class TestReferencedReduction:
    def test_dimension(self, case2):
        model, eq = case2
        assert model.referenced(eq).dim == 3

    def test_inertia_shift_case1_damped(self):
        model = case1_model(0.1)
        eq = model.solve_equilibrium([0.1, 1.0, 1.0])
        full = classify_spectrum(
            np.linalg.eigvals(model.to_second_order().jacobian_at(eq.delta0))
        )
        reduced = classify_spectrum(np.linalg.eigvals(model.referenced(eq).jacobian()))
        assert full.left_count == reduced.left_count
        assert full.axis_count == reduced.axis_count + 1
        assert full.right_count == reduced.right_count

    def test_nonzero_spectra_match_random_grids(self):
        result = suites.suite_referenced_spectrum(seed=11, trials=100)
        assert result.passed, result.failures[:1]

    def test_equilibrium_state_is_fixed_point(self, case1):
        model, eq = case1
        ref = model.referenced(eq)
        rhs = ref.rhs(0.0, ref.equilibrium_state)
        assert np.abs(rhs).max() <= 1e-12

    def test_drift_equilibrium_is_fixed_point(self, case2):
        model, eq = case2
        ref = model.with_damping([0.34, 1.0]).referenced(eq)
        saddle = ref.drift_equilibrium([1.8, -0.5, -0.5])
        assert np.abs(ref.rhs(0.0, saddle)).max() <= 1e-9
        eigs = np.linalg.eigvals(ref.jacobian(saddle))
        assert np.count_nonzero(eigs.real > 0) == 1

    def test_drift_equilibrium_pinned_saddle(self, case2):
        # The saddle of the homoclinic search at gamma = 0.34, as the plain
        # Newton of the parent solver reached it: the damped Newton with its
        # least-squares steps moves it only in the last bits.
        model, eq = case2
        ref = model.with_damping([0.34, 1.0]).referenced(eq)
        saddle = ref.drift_equilibrium([1.8, -0.5, -0.5])
        np.testing.assert_allclose(
            saddle, [1.8205905840230585, -0.48867862209446394, -0.48867862209446394],
            rtol=0, atol=1e-12)

    def test_drift_equilibrium_undamped_is_singular(self, case2):
        # Without damping the drift frequency has a zero column.
        model, eq = case2
        ref = model.with_damping([0.0, 0.0]).referenced(eq)
        with pytest.raises(SingularReducedJacobian, match="rank deficient"):
            ref.drift_equilibrium([1.8, -0.5, -0.5])

    def test_drift_equilibrium_without_drift(self, case2):
        model, eq = case2
        ref = model.referenced(eq)
        x = ref.drift_equilibrium(ref.equilibrium_state + 0.01)
        np.testing.assert_allclose(x, ref.equilibrium_state, atol=1e-9)


class TestLocateHomoclinic:
    @staticmethod
    def damping_of(gamma):
        return np.array([gamma, 1.0])

    def test_unstable_equilibrium_rejected(self, case2):
        # below the Hopf point (gamma0 = 0.2) nothing can be captured
        model, eq = case2
        with pytest.raises(PreconditionViolated):
            swing.locate_homoclinic(model, eq, self.damping_of, (0.15, 0.35),
                                    [1.8, -0.5, -0.5])

    def test_bracket_without_switch_rejected(self, case2):
        # Branch -1 runs only because branch +1 does not switch, so the
        # message lists the fates of both branches at both ends.
        model, eq = case2
        with pytest.raises(PreconditionViolated) as err:
            swing.locate_homoclinic(model, eq, self.damping_of, (0.30, 0.33),
                                    [1.8, -0.5, -0.5])
        fates = re.findall(f"{swing.POLE_SLIP}|{swing.CAPTURED}", str(err.value))
        assert len(fates) == 4
        assert "[0.3, 0.33]" in str(err.value)

    @pytest.mark.parametrize("gamma, fired", [(0.33, 0), (0.35, 1)])
    def test_manifold_orbit_matches_dop853_events(self, case2, gamma, fired):
        # The saddle's branch toward eq slips at 0.33 and is captured at
        # 0.35.  scipy's slip event (either direction) and capture event
        # (downward) are the step loop's upward stops slip and -capture.
        from scipy.integrate import solve_ivp

        model, eq = case2
        ref = model.with_damping(self.damping_of(gamma)).referenced(eq)
        x_eq = ref.equilibrium_state
        saddle = ref.drift_equilibrium([1.8, -0.5, -0.5])
        saddle[0] -= 2 * math.pi * round((saddle[0] - x_eq[0]) / (2 * math.pi))
        eigs, vecs = np.linalg.eig(ref.jacobian(saddle))
        v = np.real(vecs[:, np.argmax(eigs.real)])
        v *= np.sign(v @ (x_eq - saddle)) / np.linalg.norm(v)
        x0 = saddle + swing.MANIFOLD_OFFSET * v

        def slip(t, y):
            return abs(y[0] - x_eq[0]) - 2 * math.pi

        def capture(t, y):
            return np.linalg.norm(y - x_eq) - swing.MANIFOLD_CAPTURE_RADIUS

        slip.terminal = capture.terminal = True
        capture.direction = -1
        calls = []

        def rhs(t, x):
            calls.append(t)
            return ref.rhs(t, x)

        sol = solve_ivp(rhs, (0.0, swing.MANIFOLD_T_MAX), x0, method="DOP853",
                        rtol=swing.MANIFOLD_RTOL, atol=swing.MANIFOLD_ATOL,
                        events=[slip, capture])
        assert [e.size for e in sol.t_events] == [fired == 0, fired == 1]
        scipy_calls, calls = len(calls), []
        hit, t, y = simulate._shoot(
            rhs, x0, swing.MANIFOLD_T_MAX,
            (lambda y: slip(0.0, y), lambda y: -capture(0.0, y)),
            swing.MANIFOLD_RTOL, swing.MANIFOLD_ATOL,
        )
        assert (hit, t) == (fired, sol.t_events[fired][0])
        assert np.array_equal(y, sol.y_events[fired][0])
        assert len(calls) == scipy_calls

    def test_case2_rhs_evaluation_count(self, case2, monkeypatch):
        # Counter gate on the case2 bracket over (0.33, 0.35): 13 DOP853
        # manifold orbits take 28,985 evaluations.  Branch +1 switches, so
        # branch -1 is not integrated; both branches at both ends took
        # 30,579, and RK45 orbits 75,006.
        calls = []
        rhs = swing.ReferencedGridSystem.rhs

        def counted(self, t, x):
            calls.append(t)
            return rhs(self, t, x)

        monkeypatch.setattr(swing.ReferencedGridSystem, "rhs", counted)
        model, eq = case2
        end = swing.locate_homoclinic(model, eq, self.damping_of, (0.33, 0.35),
                                      [1.8, -0.5, -0.5])
        assert (end.gamma_low, end.gamma_high) == pytest.approx(
            (0.342578125, 0.342587890625), abs=1e-12
        )
        assert calls
        assert len(calls) <= 30_000


class TestLosslessCriterion:
    def test_case1_undamped_pair(self, case1):
        model, eq = case1
        verdict = swing.lossless_imaginary_criterion(model, eq)
        assert verdict.imaginary_pair_exists
        assert len(verdict.witnesses) == 1
        w = verdict.witnesses[0]
        assert abs(w.eigenvalue - 1.5) < 1e-9
        direction = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
        assert abs(abs(np.vdot(direction, w.vector)) - 1.0) < 1e-8

    def test_case1_damped_no_pair(self):
        model = case1_model(0.3)
        eq = model.solve_equilibrium([0.1, 1.0, 1.0])
        verdict = swing.lossless_imaginary_criterion(model, eq)
        assert not verdict.imaginary_pair_exists

    def test_rejects_lossy_model(self, case2):
        model, eq = case2
        with pytest.raises(NotLossless):
            swing.lossless_imaginary_criterion(model, eq)

    def test_rejects_inadmissible_equilibrium(self, case1):
        model, _ = case1
        bad = model.equilibrium_at(np.array([0.0, 2.5, -2.5]))
        assert not bad.in_omega
        with pytest.raises(NotInOmega):
            swing.lossless_imaginary_criterion(model, bad)

    def test_fully_damped_random_grids(self):
        result = suites.suite_lossless_criterion(seed=43, trials=120)
        assert result.passed, result.failures[:1]


class TestDampingRepair:
    def test_case1_suggests_first_undamped_generator(self, case1):
        model, eq = case1
        verdict = swing.lossless_imaginary_criterion(model, eq)
        repairs = swing.damping_repair_suggestion(model, eq, verdict.witnesses)
        assert repairs == [0]

    def test_repair_removes_the_pair(self, case1):
        model, eq = case1
        repaired = model.with_damping([0.1, 0.0, 1.5])
        verdict = swing.lossless_imaginary_criterion(repaired, eq)
        assert not verdict.imaginary_pair_exists

    def test_no_repair_index(self, case1):
        model, eq = case1
        witness = ObservabilityWitness(
            eigenvalue=1.5 + 0j, vector=np.array([0.0, 0.0, 1.0]), residual=0.0
        )
        with pytest.raises(NoRepairIndex):
            swing.damping_repair_suggestion(model, eq, [witness])


class TestNonhyperbolicFamily:
    def test_three_machine_member(self):
        m, d, l = swing.build_nonhyperbolic_family(2, [1.3])
        assert m.shape == (3, 3)
        np.testing.assert_allclose(np.diag(l), np.ones(3))
        beta2 = 1.5
        assert abs(np.linalg.eigvals(l).max() - beta2) < 1e-12

    def test_larger_member_keeps_pair(self):
        m, d, l = swing.build_nonhyperbolic_family(5, [0.7, 1.9, 0.4, 2.2])
        from damplab.linalg import jacobian_2n

        beta = math.sqrt(1.2)
        eigs = np.linalg.eigvals(jacobian_2n(m, d, l))
        assert np.abs(eigs - 1j * beta).min() <= 1e-8

    def test_rank_one_shift(self):
        n = 4
        m, d, l = swing.build_nonhyperbolic_family(n, [1.0, 1.0, 1.0])
        from damplab.linalg import numerical_rank

        beta2 = 1.0 + 1.0 / n
        assert numerical_rank(l - beta2 * np.eye(n + 1)) == 1

    def test_too_small(self):
        with pytest.raises(AssumptionViolated):
            swing.build_nonhyperbolic_family(1, [])

    def test_suite_records_a_lost_pair(self, monkeypatch):
        # The suite checks the pair as a pencil root, apart from the
        # builder's spectral check: damping generator 0 moves the pair off
        # the axis, and every peer count is recorded.
        build = swing.build_nonhyperbolic_family

        def damped(n_peers, d_tail):
            m, d, l = build(n_peers, d_tail)
            d[0, 0] = 1e-3
            return m, d, l

        monkeypatch.setattr(swing, "build_nonhyperbolic_family", damped)
        result = suites.suite_undamped_pair_family()
        assert [f["n"] for f in result.failures] == [2, 3, 4, 5, 6]
        assert all(1e-5 < f["error"] < 1e-3 for f in result.failures)


class TestSmallGridHyperbolicity:
    def test_case2_with_one_undamped(self):
        model = swing.demo_lossy_two_machine(0.2).with_damping([0.0, 1.0])
        eq = model.equilibrium_at(np.array([1.4905, 0.0]))
        assert swing.small_n_hyperbolicity_check(model, eq)

    def test_two_undamped_rejected(self):
        model = case1_model(0.0)  # two undamped
        eq = model.solve_equilibrium([0.1, 1.0, 1.0])
        with pytest.raises(AssumptionViolated):
            swing.small_n_hyperbolicity_check(model, eq)

    def test_random_lossy_suite(self):
        result = suites.suite_small_grid_hyperbolicity(seed=47, trials=150)
        assert result.passed, result.failures[:1]


class TestModelValidation:
    def test_disconnected_graph_rejected(self):
        y = np.zeros((3, 3))
        y[0, 1] = y[1, 0] = 1.0  # node 2 isolated
        with pytest.raises(ModelFormatError):
            swing.PowerGridModel(
                y_mag=y,
                theta=np.zeros((3, 3)),
                voltage=np.ones(3),
                p_mech=np.zeros(3),
                inertia_const=np.ones(3),
                damping_coeff=np.zeros(3),
            )

    def test_negative_damping_rejected(self):
        with pytest.raises(ModelFormatError, match="damping"):
            case1_model(-0.1)


class TestModelFiles:
    def test_case2_demo_is_the_bundled_file(self):
        # The perfbench twin of models/case2.json: equal in every field but
        # the metadata it records, p_mech to 1 ulp.
        bundled = swing.load_grid_model(MODELS / "case2.json")
        for gamma in (0.0, 0.2, 0.25):
            demo, model = swing.demo_lossy_two_machine(gamma), bundled.model(gamma)
            for f in fields(model):
                if f.name == "p_mech":
                    ulp = np.spacing(np.abs(model.p_mech))
                    assert (np.abs(demo.p_mech - model.p_mech) <= ulp).all()
                elif f.name != "metadata":
                    assert np.array_equal(getattr(demo, f.name), getattr(model, f.name))

    def base_data(self):
        return {
            "n": 2,
            "Y": [{"from": 1, "to": 2, "mag": 1.0, "angle": math.pi / 2}],
            "V": [1.0, 1.0],
            "Pm": [0.0, 0.0],
            "inertia": [1.0, 1.0],
            "damping": [0.1, 0.2],
        }

    def test_round_trip(self, model_file):
        spec = swing.load_grid_model(model_file(self.base_data()))
        model = spec.model()
        assert model.n == 2
        # one quarter-turn line, no self terms: a lossless network
        assert model.is_lossless()
        np.testing.assert_allclose(model.y_mag, [[0, 1], [1, 0]])

    def test_complex_entry(self, model_file):
        data = self.base_data()
        data["Y"] = [{"from": 1, "to": 2, "re": -1.0, "im": 5.7978}]
        model = swing.load_grid_model(model_file(data)).model()
        assert abs(model.y_mag[0, 1] - abs(complex(-1, 5.7978))) < 1e-12
        assert abs(model.theta[0, 1] - math.atan2(5.7978, -1.0)) < 1e-12

    def test_missing_field(self, model_file):
        data = self.base_data()
        del data["Pm"]
        with pytest.raises(ModelFormatError, match="Pm"):
            swing.load_grid_model(model_file(data))

    def test_bad_bus_number(self, model_file):
        data = self.base_data()
        data["Y"][0]["to"] = 7
        with pytest.raises(ModelFormatError, match=r"Y\[0\]"):
            swing.load_grid_model(model_file(data)).model()

    def test_duplicate_edge(self, model_file):
        data = self.base_data()
        data["Y"].append({"from": 2, "to": 1, "mag": 2.0, "angle": 0.0})
        with pytest.raises(ModelFormatError, match="duplicate"):
            swing.load_grid_model(model_file(data)).model()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("damping", 0.5, "damping must be a list of length 2"),
            ("damping", [0.1], "damping must be a list of length 2"),
            ("Y", 5, "Y must be a list"),
        ],
    )
    def test_field_shapes_checked(self, model_file, field, value, message):
        data = self.base_data()
        data[field] = value
        path = model_file(data)
        with pytest.raises(ModelFormatError, match=message) as info:
            swing.load_grid_model(path)
        assert str(info.value).count(path) == 1

    def test_gamma_placeholder_requires_value(self, model_file):
        data = self.base_data()
        data["damping"] = ["gamma", 0.2]
        spec = swing.load_grid_model(model_file(data))
        assert spec.has_gamma
        with pytest.raises(ModelFormatError, match="gamma"):
            spec.model()
        model = spec.model(gamma=0.7)
        np.testing.assert_allclose(model.damping_coeff, [0.7, 0.2])

    def test_absorbed_offsets_recorded(self, case2):
        offsets = case2[0].metadata["absorbed_power_offsets"]
        assert all(abs(c - 1.0) < 1e-3 for c in offsets)


def _grid_built_twice(rng, y, theta, d, delta):
    """The random grids' construction before the flow was computed first: a
    model with zero powers, then a second one with the flow at ``delta``."""
    n = y.shape[0]
    model = swing.PowerGridModel(
        y_mag=y, theta=theta, voltage=rng.uniform(0.95, 1.05, size=n),
        p_mech=np.zeros(n), inertia_const=rng.uniform(0.5, 2.0, size=n),
        damping_coeff=d, omega_s=1.0,
    )
    model = replace(model, p_mech=model.flow(delta))
    return model, model.equilibrium_at(delta)


@pytest.mark.parametrize("draw", [
    lambda rng, n: suites.random_lossless_grid(rng, n, "positive"),
    lambda rng, n: suites.random_lossless_grid(rng, n, "one_undamped"),
    lambda rng, n: suites.random_lossy_grid(rng, n),
])
def test_random_grid_is_built_once_with_the_same_bits(monkeypatch, draw):
    # A draw builds its model without validation and with one coupling
    # matrix; the model is the one the validating constructor builds.
    built = []
    post_init = swing.PowerGridModel.__post_init__
    monkeypatch.setattr(swing.PowerGridModel, "__post_init__",
                        lambda model: built.append(model) or post_init(model))
    couplings = []
    coupling_matrix = swing._coupling_matrix
    monkeypatch.setattr(swing, "_coupling_matrix",
                        lambda *args: couplings.append(1) or coupling_matrix(*args))
    draws = [draw(np.random.default_rng(seed), n)
             for seed in range(8) for n in (1, 2, 3, 5)]
    assert built == []
    # one coupling matrix per draw: the flow at the equilibrium reuses it
    assert len(couplings) == len(draws)
    for model, eq in draws:
        model.flow(eq.delta0)
    assert len(couplings) == len(draws)
    names = {f.name for f in fields(swing.PowerGridModel)}
    for model, _ in draws:
        assert names <= vars(model).keys()
        replace(model)  # the full validation passes
    assert len(built) == len(draws)
    monkeypatch.setattr(suites, "_grid_at", _grid_built_twice)
    twice = [draw(np.random.default_rng(seed), n)
             for seed in range(8) for n in (1, 2, 3, 5)]
    assert len(built) == 3 * len(draws)
    for (model, eq), (want, want_eq) in zip(draws, twice):
        for name in ("y_mag", "theta", "voltage", "p_mech", "inertia_const",
                     "damping_coeff"):
            assert getattr(model, name).tobytes() == getattr(want, name).tobytes()
        assert (model.omega_s, model.metadata) == (want.omega_s, want.metadata)
        assert eq.delta0.tobytes() == want_eq.delta0.tobytes()
        assert eq.residual.hex() == want_eq.residual.hex()
        assert eq.in_omega == want_eq.in_omega


def _lossless_by_loops(rng, n, profile):
    """``random_lossless_grid`` with one rng call per spanning-path line: the
    reference for its one call of size n - 1."""
    y = np.zeros((n, n))
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        y[a, b] = y[b, a] = rng.uniform(0.5, 2.0)
    for _ in range(rng.integers(0, n)):
        a, b = rng.integers(0, n, size=2)
        if a != b and y[a, b] == 0:
            y[a, b] = y[b, a] = rng.uniform(0.5, 2.0)
    theta = np.full((n, n), math.pi / 2)
    np.fill_diagonal(theta, -math.pi / 2)
    delta = rng.uniform(-0.3, 0.3, size=n)
    d = np.zeros(n) if profile == "undamped" else rng.uniform(0.1, 2.0, size=n)
    if profile == "one_undamped":
        d[rng.integers(0, n)] = 0.0
    return suites._grid_at(rng, y, theta, d, delta)


def _lossy_by_loops(rng, n, _):
    """``random_lossy_grid`` with one rng call per number: the reference for
    its calls of shape (lines, 2) and (n, 2)."""
    delta = rng.uniform(-0.1, 0.1, size=n)
    y = np.zeros((n, n))
    theta = np.zeros((n, n))
    order = rng.permutation(n)
    edges = list(zip(order[:-1], order[1:]))
    if n == 3 and rng.random() < 0.5:
        edges.append((order[0], order[2]))
    for a, b in edges:
        y[a, b] = y[b, a] = rng.uniform(0.5, 2.0)
        theta[a, b] = theta[b, a] = rng.uniform(0.5, math.pi - 0.5)
    for j in range(n):
        y[j, j] = rng.uniform(0.0, 1.0)
        theta[j, j] = rng.uniform(-math.pi / 2 + 1e-3, -0.8)
    d = rng.uniform(0.1, 2.0, size=n)
    d[rng.integers(0, n)] = 0.0
    return suites._grid_at(rng, y, theta, d, delta)


@pytest.mark.parametrize("draw, reference, profiles", [
    (suites.random_lossless_grid, _lossless_by_loops, ("positive", "one_undamped", "undamped")),
    (lambda rng, n, _: suites.random_lossy_grid(rng, n), _lossy_by_loops, (None,)),
])
def test_random_grid_draws_equal_one_call_per_number(draw, reference, profiles):
    # numpy's uniform gives the same stream for one call of size k as for
    # k scalar calls, and for interleaved pairs with bounds of shape (k, 2).
    for seed in range(30):
        for n in range(1, 7):
            for profile in profiles:
                rngs = np.random.default_rng(seed), np.random.default_rng(seed)
                model, eq = draw(rngs[0], n, profile)
                want, want_eq = reference(rngs[1], n, profile)
                for f in fields(swing.PowerGridModel):
                    got, expected = getattr(model, f.name), getattr(want, f.name)
                    assert (got.tobytes() == expected.tobytes() if isinstance(got, np.ndarray)
                            else got == expected)
                assert (eq.delta0.tobytes(), eq.residual, eq.in_omega) == (
                    want_eq.delta0.tobytes(), want_eq.residual, want_eq.in_omega)
                assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("profile", ["damped", "Positive", "one-undamped", None])
def test_random_lossless_grid_rejects_an_unknown_profile(profile):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(AssumptionViolated, match="unknown profile") as info:
        suites.random_lossless_grid(rng, 3, profile)
    assert info.value.hypothesis == "damping profile"
    assert rng.bit_generator.state == state  # refused before any draw
