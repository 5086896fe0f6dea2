import math
from dataclasses import replace

import numpy as np
import pytest

from damplab import linalg, stability, suites
from damplab.errors import AssumptionViolated, MatrixShapeError
from damplab.linalg import jacobian_2n, matching_distance
from conftest import L_CASE1, OMEGA_CASE1

# Unsymmetric vector-field Jacobian for which extra damping *creates* an
# imaginary pair: the monotonicity hypothesis is sharp.
L_REMARK = np.array([[2.0, math.sqrt(2)], [-math.sqrt(2), 0.0]])


class TestSecondOrderSystem:
    def test_jacobian_at_reuses_rank_check(self, monkeypatch):
        # The inertia is rank-checked at construction only; the Jacobian
        # equals the checked assembly bit for bit.
        rng = np.random.default_rng(9)
        m, d, l = (suites._spd(rng, 3) for _ in range(3))
        system = stability.SecondOrderSystem.linear(m, d, l)
        want = jacobian_2n(m, d, l)
        svd = []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svd.append(a))
        assert np.array_equal(system.jacobian_at(np.zeros(3)), want)
        assert svd == []

    def test_mismatched_damping_is_a_shape_error(self):
        # The fourth shape fault raises MatrixShapeError like the other three.
        with pytest.raises(MatrixShapeError, match="damping must be 2x2"):
            stability.SecondOrderSystem(np.eye(2), np.eye(3), lambda x: np.eye(2))
        with pytest.raises(MatrixShapeError):
            stability.SecondOrderSystem.linear(np.eye(2), np.ones((2, 3)), np.eye(2))

    def test_with_damping_checks_only_the_damping(self, monkeypatch):
        rng = np.random.default_rng(10)
        m, d1, d2, l = (suites._spd(rng, 3) for _ in range(4))
        first = stability.SecondOrderSystem.linear(m, d1, l)
        ranks = []
        monkeypatch.setattr(stability, "numerical_rank",
                            lambda a: ranks.append(a) or linalg.numerical_rank(a))
        second = first.with_damping(d2)
        assert ranks == []
        assert second.inertia is first.inertia and second.jac is first.jac
        assert first.damping is d1 and second.damping is d2
        assert np.array_equal(second.jacobian_at(np.zeros(3)), jacobian_2n(m, d2, l))
        with pytest.raises(MatrixShapeError, match="damping must be 3x3"):
            first.with_damping(np.eye(2))
        with pytest.raises(MatrixShapeError, match="NaN"):
            first.with_damping(np.full((3, 3), np.nan))


def count_inertia_ranks(monkeypatch):
    """Record each matrix whose rank a ``numerical_rank`` call made through
    ``linalg`` (pencils, ``jacobian_2n``) or ``stability`` (systems) decides,
    one entry per member of a stack."""
    calls = []
    rank = linalg.numerical_rank

    def counted(a):
        a = np.asarray(a)
        calls.extend(x.tobytes() for x in a.reshape((-1,) + a.shape[-2:]))
        return rank(a)

    monkeypatch.setattr(linalg, "numerical_rank", counted)
    monkeypatch.setattr(stability, "numerical_rank", counted)
    return calls


@pytest.mark.parametrize("name, trials", [("pencil_vs_jacobian", 200),
                                          ("damping_monotonicity", 500)])
def test_suites_check_each_inertia_once(monkeypatch, name, trials):
    # Both suites used to decide the rank of their one M twice per trial;
    # pencil_vs_jacobian now decides them in one stacked call per size.
    calls = count_inertia_ranks(monkeypatch)
    assert suites.SUITES[name]().passed
    assert len(calls) == trials
    assert len(set(calls)) == trials


class TestObservability:
    def test_zero_output_pair(self):
        verdict = stability.observability_test(np.eye(2), np.zeros((2, 2)))
        assert not verdict.observable
        assert len(verdict.witnesses) == 2

    def test_separating_row(self):
        verdict = stability.observability_test(
            np.diag([1.0, 2.0]), np.array([[1.0, 1.0]])
        )
        assert verdict.observable
        assert verdict.witnesses == ()

    def test_case1_witness_mode(self):
        a = L_CASE1  # inertia is the identity
        b = np.diag([0.0, 0.0, 1.5])
        verdict = stability.observability_test(a, b)
        assert not verdict.observable
        assert len(verdict.witnesses) == 1
        w = verdict.witnesses[0]
        assert abs(w.eigenvalue - 1.5) < 1e-10
        direction = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
        overlap = abs(np.vdot(direction, w.vector))
        assert overlap > 1 - 1e-8
        assert w.residual < 1e-12

    def test_margins_reported_for_observable_modes(self):
        verdict = stability.observability_test(np.diag([1.0, 2.0]), np.eye(2))
        assert verdict.observable
        assert len(verdict.margins) == 2
        assert all(res > 0.5 for _, res in verdict.margins)


def _kernel_damping(rng, vectors):
    """Random PSD damping whose kernel contains ``vectors`` (columns)."""
    n, k = vectors.shape
    basis = np.linalg.qr(np.column_stack([vectors, rng.normal(size=(n, n - k))]))[0]
    tail = basis[:, k:] * rng.uniform(0.5, 2.0, size=n - k)
    return tail @ tail.T


def _clusters(verdict):
    """{cluster eigenvalue: [witness residuals]} in eigenvalue order."""
    out = {}
    for w in verdict.witnesses:
        out.setdefault(round(complex(w.eigenvalue).real, 6), []).append(w.residual)
    return out


def _assert_agrees_with_pbh(m, l, d):
    sym = stability.observability_symmetric(m, l, d)
    a, b = np.linalg.solve(m, l), np.linalg.solve(m, d)
    pbh = stability.observability_test(a, b)
    threshold = 1e-8 * max(1.0, np.linalg.norm(a, 2), np.linalg.norm(b, 2))
    assert sym.observable == pbh.observable
    got, want = _clusters(sym), _clusters(pbh)
    assert got.keys() == want.keys()
    for lam in want:
        assert len(got[lam]) == len(want[lam])
        for r_sym, r_pbh in zip(got[lam], want[lam]):
            assert abs(r_sym - r_pbh) <= threshold
    for w in sym.witnesses:
        v = w.vector
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert np.linalg.norm(a @ v - w.eigenvalue.real * v) <= 1e-8 * np.linalg.norm(a, 2)
        assert abs(np.linalg.norm(b @ v) - w.residual) <= 1e-14
    assert len(sym.margins) == len(pbh.margins)
    return sym


class TestObservabilitySymmetric:
    def test_random_small_instances_match_pbh(self):
        rng = np.random.default_rng(7)
        unobservable = 0
        for k in range(200):
            n = int(rng.integers(1, 7))
            m = suites._spd(rng, n)
            l = suites._sym(rng, n) if k % 2 else suites._psd(rng, n)
            if k % 3:
                d = suites._psd(rng, n, rank=int(rng.integers(0, n + 1)))
            else:
                vecs = np.linalg.eig(np.linalg.solve(m, l))[1].real
                d = _kernel_damping(rng, vecs[:, :1])
            unobservable += not _assert_agrees_with_pbh(m, l, d).observable
        assert 60 <= unobservable < 200

    def test_repeated_eigenvalue_two_dimensional_kernel(self):
        rng = np.random.default_rng(3)
        n = 5
        m = suites._spd(rng, n)
        c = np.linalg.cholesky(m)
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        l = c @ q @ np.diag([0.5, 2.0, 2.0, 3.0, 4.5]) @ q.T @ c.T
        eigvecs = np.linalg.solve(c.T, q)  # eigenvectors of M^-1 L
        d = _kernel_damping(rng, eigvecs[:, 1:3])
        verdict = _assert_agrees_with_pbh(m, l, d)
        assert [complex(w.eigenvalue).real for w in verdict.witnesses] == pytest.approx(
            [2.0, 2.0], abs=1e-10)
        # the two witnesses span the damped-free eigenspace
        span = np.column_stack([w.vector for w in verdict.witnesses])
        assert np.linalg.matrix_rank(span, tol=1e-8) == 2
        assert np.linalg.norm(d @ span) <= 1e-10

    def test_mirror_grid_n100(self):
        model, eq = suites.random_lossless_grid(np.random.default_rng(12), 98)
        n = 100
        y = np.zeros((n, n))
        y[:98, :98] = model.y_mag
        for a in (98, 99):
            y[a, [3, 40, 77]] = y[[3, 40, 77], a] = [0.7, 1.3, 1.9]
        y[98, 99] = y[99, 98] = 1.1
        theta = np.full((n, n), math.pi / 2)
        np.fill_diagonal(theta, -math.pi / 2)
        pair = lambda values, value: np.concatenate([values, [value, value]])
        delta = pair(eq.delta0, 0.1)
        mirror = replace(
            model, y_mag=y, theta=theta, voltage=pair(model.voltage, 1.0),
            p_mech=np.zeros(n), inertia_const=pair(model.inertia_const, 1.5),
            damping_coeff=pair(model.damping_coeff, 0.0),
        )
        system = mirror.to_second_order()
        verdict = _assert_agrees_with_pbh(
            system.inertia, system.jac(delta), system.damping)
        assert len(verdict.witnesses) == 1
        direction = np.zeros(n)
        direction[98], direction[99] = 1.0, -1.0
        assert abs(np.vdot(direction, verdict.witnesses[0].vector)) > (1 - 1e-10) * math.sqrt(2)

    def test_rejects_unsymmetric_stiffness(self):
        with pytest.raises(AssumptionViolated):
            stability.observability_symmetric(np.eye(2), L_REMARK, np.eye(2))

    def test_rejects_indefinite_inertia(self):
        with pytest.raises(AssumptionViolated):
            stability.observability_symmetric(np.diag([1.0, -1.0]), np.eye(2), np.eye(2))


class TestHyperbolicitySymmetric:
    def test_full_damping_is_observable_and_hyperbolic(self):
        system = stability.SecondOrderSystem.linear(np.eye(2), np.eye(2), np.eye(2))
        verdict = stability.hyperbolicity_symmetric(system, np.zeros(2))
        assert verdict.hyperbolic and verdict.via_observability

    def test_undamped_never_hyperbolic(self):
        system = stability.SecondOrderSystem.linear(
            np.eye(2), np.zeros((2, 2)), np.eye(2)
        )
        verdict = stability.hyperbolicity_symmetric(system, np.zeros(2))
        assert not verdict.hyperbolic and not verdict.via_observability
        # the pair +-i with multiplicity two sits on the axis
        assert len(verdict.axis_eigenvalues) == 4

    def test_ridged_case1_keeps_unobservable_mode(self):
        # Adding a small ridge makes the stiffness positive definite without
        # damping the (1, -1, 0) mode, so hyperbolicity still fails.
        ridge = L_CASE1 + 1e-3 * np.eye(3)
        system = stability.SecondOrderSystem.linear(
            np.eye(3), np.diag([0.0, 0.0, 1.5]), ridge
        )
        verdict = stability.hyperbolicity_symmetric(system, np.zeros(3))
        assert not verdict.hyperbolic
        omega = math.sqrt(1.5 + 1e-3)
        assert min(abs(z - 1j * omega) for z in verdict.axis_eigenvalues) < 1e-8

    def test_rejects_indefinite_stiffness(self):
        system = stability.SecondOrderSystem.linear(
            np.eye(2), np.eye(2), -np.eye(2)
        )
        with pytest.raises(AssumptionViolated):
            stability.hyperbolicity_symmetric(system, np.zeros(2))

    def test_equivalence_suite(self):
        result = suites.suite_observability_equivalence(seed=5, trials=150)
        assert result.passed, result.failures[:1]

    def test_constructed_unobservable_instances(self):
        # Kernel-aligned damping makes the pair unobservable; the spectrum
        # must then carry the imaginary pair (both verdicts agree inside
        # hyperbolicity_symmetric, which would raise otherwise).
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            g = rng.normal(size=(n, n))
            m = g @ g.T + 0.2 * np.eye(n)
            h = rng.normal(size=(n, n))
            l = h @ h.T + 0.2 * np.eye(n)
            lam, vecs = np.linalg.eig(np.linalg.solve(m, l))
            v = np.real(vecs[:, 0])
            # damping PSD with v in its kernel -> M^-1 D v = 0
            basis = np.linalg.qr(
                np.column_stack([v, rng.normal(size=(n, n - 1))])
            )[0][:, 1:]
            d = basis @ basis.T
            system = stability.SecondOrderSystem.linear(m, d, l)
            verdict = stability.hyperbolicity_symmetric(system, np.zeros(n))
            assert not verdict.hyperbolic


class TestSufficientUnsymmetric:
    def test_partially_damped_family(self):
        m = np.eye(3)
        d = np.diag([0.0, 0.0, 1.5])
        pair = stability.imaginary_pair_sufficient_unsymmetric(m, d, L_CASE1)
        assert pair is not None
        assert abs(pair[0] - 1j * OMEGA_CASE1) < 1e-10

    def test_scale_norms_taken_once(self, monkeypatch):
        # The witness filter reads the scale of the verdict it filters: one
        # pair of 2-norms (||M^-1 L||, ||M^-1 D||) per call, not two.
        norm = np.linalg.norm
        two_norms = []

        def counted(x, ord=None, *args, **kwargs):
            if ord == 2:
                two_norms.append(x.shape)
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        stability.imaginary_pair_sufficient_unsymmetric(
            np.eye(3), np.diag([0.0, 0.0, 1.5]), L_CASE1
        )
        assert two_norms == [(3, 3), (3, 3)]

    def test_no_positive_real_eigenvalue(self):
        assert (
            stability.imaginary_pair_sufficient_unsymmetric(
                np.eye(2), np.eye(2), -np.eye(2)
            )
            is None
        )

    def test_condition_only_sufficient(self):
        # The unsymmetric example has +-i in its spectrum at full damping,
        # yet M^-1 L has no real positive eigenvalue: the test finds no
        # witness, which proves nothing.
        m = np.eye(2)
        d = np.eye(2)
        pair = stability.imaginary_pair_sufficient_unsymmetric(m, d, L_REMARK)
        assert pair is None
        eigs = np.linalg.eigvals(jacobian_2n(m, d, L_REMARK))
        assert np.abs(eigs - 1j).min() < 1e-9


class TestMonotonicityCompare:
    def test_identical_damping(self):
        first = stability.SecondOrderSystem.linear(
            np.eye(3), np.diag([0.0, 0.0, 1.5]), L_CASE1
        )
        report = stability.monotonicity_compare(first, first, np.zeros(3))
        assert report.damping_increase_psd and report.subset_holds
        assert len(report.axis_set_first) == len(report.axis_set_second)

    def test_case1_pair_removed_by_extra_damping(self):
        first = stability.SecondOrderSystem.linear(
            np.eye(3), np.diag([0.0, 0.0, 1.5]), L_CASE1
        )
        second = first.with_damping(np.diag([0.1, 0.1, 1.5]))
        report = stability.monotonicity_compare(first, second, np.zeros(3))
        assert report.damping_increase_psd and report.subset_holds
        # the +-i sqrt(1.5) pair disappears; only the structural zero stays
        assert len(report.axis_set_first) == 3
        assert len(report.axis_set_second) == 1

    def test_unsymmetric_counterexample(self):
        first = stability.SecondOrderSystem.linear(
            np.eye(2), np.diag([1.0, 0.0]), L_REMARK
        )
        second = first.with_damping(np.eye(2))
        with pytest.raises(AssumptionViolated):
            stability.monotonicity_compare(first, second, np.zeros(2))
        report = stability.monotonicity_compare(
            first, second, np.zeros(2), check=False
        )
        assert report.damping_increase_psd
        assert not report.subset_holds
        assert len(report.axis_set_first) == 0
        assert matching_distance(report.axis_set_second, [1j, -1j]) < 1e-9

    def test_inertia_rank_not_rechecked(self, monkeypatch):
        # SecondOrderSystem rank-checks the inertia on construction; the
        # hypothesis check does not decide it again.
        first = stability.SecondOrderSystem.linear(
            np.eye(3), np.diag([0.0, 0.0, 1.5]), L_CASE1
        )
        second = first.with_damping(np.diag([0.1, 0.1, 1.5]))
        rank = stability.numerical_rank
        calls = []
        monkeypatch.setattr(stability, "numerical_rank",
                            lambda a: calls.append(a) or rank(a))
        report = stability.monotonicity_compare(first, second, np.zeros(3),
                                                check=True)
        assert report.subset_holds
        assert calls == []

    def test_permuted_jacobian_entries_rejected(self):
        # Same multiset of entries, different matrices: the hypothesis
        # "identical vector-field Jacobian" fails.
        first = stability.SecondOrderSystem.linear(
            np.eye(2), np.eye(2), np.array([[2.0, 1.0], [1.0, 3.0]])
        )
        second = stability.SecondOrderSystem.linear(
            np.eye(2), np.eye(2), np.array([[3.0, 1.0], [1.0, 2.0]])
        )
        with pytest.raises(AssumptionViolated, match="jacobian"):
            stability.monotonicity_compare(first, second, np.zeros(2))

    def test_monotonicity_suite(self):
        result = suites.suite_damping_monotonicity(seed=13, trials=150)
        assert result.passed, result.failures[:1]


class TestUndampedMap:
    def test_unit_system(self):
        mu, lam = stability.undamped_spectral_map(np.eye(1), np.eye(1))
        assert matching_distance(mu, [-1.0]) < 1e-12
        assert matching_distance(lam, [1j, -1j]) < 1e-12

    def test_case1_flow_jacobian(self):
        mu, lam = stability.undamped_spectral_map(np.eye(3), L_CASE1)
        assert matching_distance(mu, [0.0, -1.5, -1.5]) < 1e-10
        want = [0.0, 0.0, 1j * OMEGA_CASE1, -1j * OMEGA_CASE1,
                1j * OMEGA_CASE1, -1j * OMEGA_CASE1]
        assert matching_distance(lam, want) < 1e-8

    def test_random_instances(self):
        result = suites.suite_undamped_map(seed=19, trials=100)
        assert result.passed, result.failures[:1]


class TestAsymptoticStability:
    def test_scalar_triple(self):
        assert stability.asymptotic_stability_full_damping(
            np.eye(1), np.eye(1), np.eye(1)
        )
        eigs = np.linalg.eigvals(jacobian_2n(np.eye(1), np.eye(1), np.eye(1)))
        want = [(-1 + 1j * math.sqrt(3)) / 2, (-1 - 1j * math.sqrt(3)) / 2]
        assert matching_distance(eigs, want) < 1e-12

    def test_semidefinite_damping_rejected(self):
        with pytest.raises(AssumptionViolated):
            stability.asymptotic_stability_full_damping(
                np.eye(2), np.diag([1.0, 0.0]), np.eye(2)
            )

    def test_inertia_rank_not_rechecked(self, monkeypatch):
        # The symmetric setting proves M positive definite, so the Jacobian
        # is built without a second rank decision by SVD.
        calls = []
        for module in (linalg, stability):
            rank = module.numerical_rank
            monkeypatch.setattr(module, "numerical_rank",
                                lambda a, rank=rank: calls.append(a) or rank(a))
        assert stability.asymptotic_stability_full_damping(
            np.diag([1.0, 2.0]), np.eye(2), np.array([[2.0, -1.0], [-1.0, 2.0]])
        )
        assert calls == []

    def test_random_spd_triples(self):
        result = suites.suite_full_damping_stability(seed=23, trials=150)
        assert result.passed, result.failures[:1]


def test_fold_exclusion_suite():
    result = suites.suite_fold_exclusion(seed=37, trials=100)
    assert result.passed, result.failures[:1]
