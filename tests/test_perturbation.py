import math

import numpy as np
import pytest

from damplab import perturbation, suites
from damplab.errors import PreconditionViolated, SingularMatrix
from damplab.linalg import numerical_rank

# The unsymmetric pair for which the PSD imaginary update *does* drop the
# rank, showing the symmetry hypothesis is sharp.
S_UNSYM = np.array([[1 + 1j, math.sqrt(2)], [-math.sqrt(2), -1.0]])
E_UNSYM = np.diag([0.0, 1.0])


class TestInverseImagDuality:
    def test_scalar_imaginary(self):
        assert perturbation.check_inverse_imag_duality([[1j]]) == (True, True)

    def test_diagonal(self):
        s = np.diag([1 + 2j, 3 + 0j])
        assert perturbation.check_inverse_imag_duality(s) == (True, True)

    def test_rejects_singular(self):
        with pytest.raises(SingularMatrix):
            perturbation.check_inverse_imag_duality(np.zeros((2, 2), complex))

    def test_rejects_unsymmetric(self):
        with pytest.raises(PreconditionViolated):
            perturbation.check_inverse_imag_duality(S_UNSYM)

    def test_random_conforming_instances(self):
        result = suites.suite_imag_duality(seed=101, trials=300)
        assert result.passed, result.failures[:1]


class TestRankOneUpdate:
    def test_scalar(self):
        assert perturbation.rank_one_imag_update_nonsingular([[1.0]], [1.0])

    def test_mixed_diagonal(self):
        s = np.diag([1j, 1.0 + 0j])
        assert perturbation.rank_one_imag_update_nonsingular(s, [1.0, 1.0])

    def test_rejects_indefinite_imaginary_part(self):
        s = np.diag([-1j, 1.0 + 0j])
        with pytest.raises(PreconditionViolated):
            perturbation.rank_one_imag_update_nonsingular(s, [1.0, 0.0])

    def test_random_conforming_instances(self):
        result = suites.suite_imag_updates(seed=17, trials=300)
        assert result.passed, result.failures[:1]

    def test_suite_svds_per_trial(self, monkeypatch):
        # One SVD per accepted trial, the sampling filter; then, per matrix
        # size, one stacked SVD for numerical_rank(S), shared by both update
        # predicates, and one for each updated stack.
        svd = np.linalg.svd
        calls = []

        def counted(*args, **kw):
            calls.append(args[0])
            return svd(*args, **kw)

        monkeypatch.setattr(np.linalg, "svd", counted)
        result = suites.suite_imag_updates(seed=17, trials=40)
        assert result.passed
        single = [a for a in calls if a.ndim == 2]
        stacked = [a for a in calls if a.ndim == 3]
        assert len(single) == 40
        sizes = {a.shape[-1] for a in single}
        assert len(stacked) == 3 * len(sizes)
        assert sum(a.shape[0] for a in stacked) == 3 * 40


class TestPsdUpdate:
    def test_zero_update(self):
        s = np.diag([1 + 1j, 2 + 0j])
        assert perturbation.psd_imag_update_nonsingular(s, np.zeros((2, 2)))

    def test_unsymmetric_matrix_refused(self):
        with pytest.raises(PreconditionViolated):
            perturbation.psd_imag_update_nonsingular(S_UNSYM, E_UNSYM)

    def test_non_psd_update_refused(self):
        s = np.diag([1 + 1j, 2 + 0j])
        with pytest.raises(PreconditionViolated):
            perturbation.psd_imag_update_nonsingular(s, -np.eye(2))


class TestRankMonotonicity:
    def test_zero_base(self):
        assert perturbation.rank_monotonicity_holds(
            np.zeros((3, 3)), np.zeros((3, 3)), np.eye(3))

    def test_unsymmetric_a_rejected(self):
        # Re(S_UNSYM) is not symmetric, so the precondition fires.
        with pytest.raises(PreconditionViolated):
            perturbation.rank_monotonicity_holds(
                S_UNSYM.real + np.array([[0.0, 0.0], [0.0, 0.0]]),
                np.diag([1.0, 0.0]), E_UNSYM)

    def test_counterexample_under_bypass(self):
        # With the symmetry check bypassed the inequality genuinely fails:
        # the update drops the rank from 2 to 1.
        assert not perturbation.rank_monotonicity_holds(
            S_UNSYM.real, S_UNSYM.imag, E_UNSYM, check=False)
        assert numerical_rank(S_UNSYM) == 2
        assert numerical_rank(S_UNSYM + 1j * E_UNSYM) == 1

    def test_random_conforming_instances(self):
        result = suites.suite_rank_monotonicity(seed=3, trials=400)
        assert result.passed, result.failures[:1]


def test_singular_s_raises_one_type_from_every_predicate():
    s = np.diag([1.0 + 1j, 0.0])
    for check in (
        lambda: perturbation.check_inverse_imag_duality(s),
        lambda: perturbation.rank_one_imag_update_nonsingular(s, np.ones(2)),
        lambda: perturbation.psd_imag_update_nonsingular(s, np.eye(2)),
    ):
        with pytest.raises(SingularMatrix, match="s must be nonsingular"):
            check()
        with pytest.raises(PreconditionViolated):
            check()
