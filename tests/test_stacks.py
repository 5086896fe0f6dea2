"""Predicates on stacks of matrices: one verdict per matrix, bit for bit the
verdict of one call per matrix, and one LAPACK call per matrix size in the
perturbation and full-damping suites."""

import json

import numpy as np
import pytest

from damplab import _validation as val
from damplab import linalg, perturbation, stability, suites
from damplab.errors import (AssumptionViolated, MatrixShapeError,
                            PreconditionViolated, SingularMatrix)

SIZES = range(1, 9)

#: The boundary spectra of ``tests/test_validation.py``: margins of
#: ``TOL_PSD`` and ``TOL_PD`` on both sides, singular, zero and indefinite.
BOUNDARY_SPECTRA = (
    [1.0] * 5 + [-0.5 * val.TOL_PSD],
    [1.0] * 5 + [-2.0 * val.TOL_PSD],
    [-1.0] + [1.0] * 4 + [-0.5 * val.TOL_PSD],
    [3.0, 1.0, 0.0],
    [0.0, 0.0, 0.0],
    [2.0, -1.0, 0.5],
    [4.0, 4.0, 4.0, 2.0 * 4.0 * val.TOL_PD],
    [4.0, 4.0, 4.0, 0.5 * 4.0 * val.TOL_PD],
)


def assert_same_bits(stacked, looped):
    stacked, looped = np.asarray(stacked), np.asarray(looped)
    assert stacked.shape == looped.shape
    assert stacked.dtype == looped.dtype
    assert stacked.tobytes() == looped.tobytes()


def loop(fn, *stacks):
    """``fn`` on each matrix (tuple of members) of the stacks, over their
    leading axes."""
    lead = stacks[0].shape[:-2]
    flat = [s.reshape((-1,) + s.shape[len(lead):]) for s in stacks]
    out = [fn(*members) for members in zip(*flat)]
    return np.reshape(np.array(out), lead + np.shape(out[0]))


def with_eigenvalues(rng, eigs):
    q, _ = np.linalg.qr(rng.normal(size=(len(eigs), len(eigs))))
    return val.sym_part((q * np.asarray(eigs, dtype=float)) @ q.T)


def psd(rng, n, rank):
    g = rng.normal(size=(rank, n))
    return g.T @ g


def real_stack(rng, n):
    """Symmetric, unsymmetric, indefinite, rank-deficient PSD, zero and
    tiny members, with two leading axes."""
    members = [
        val.sym_part(rng.normal(size=(n, n))),
        rng.normal(size=(n, n)),
        psd(rng, n, n),
        psd(rng, n, n - 1),
        psd(rng, n, max(n // 2, 1)) * 1e-8,
        np.zeros((n, n)),
    ]
    members += [with_eigenvalues(rng, eigs) for eigs in BOUNDARY_SPECTRA
                if len(eigs) == n]
    if len(members) % 2:
        members.append(np.eye(n))
    return np.stack(members).reshape((2, -1, n, n))


def complex_symmetric(rng, n, count=6):
    """Complex symmetric S with PSD imaginary part, every fifth one of
    rank n - 1."""
    out = []
    for k in range(count):
        s = val.sym_part(rng.normal(size=(n, n))) + 1j * psd(rng, n, n)
        if k % 5 == 4 and n > 1:
            g = rng.normal(size=(n - 1, n))
            s = g.T @ (val.sym_part(rng.normal(size=(n - 1, n - 1))) + 1j * np.eye(n - 1)) @ g
        out.append(s)
    return np.stack(out)


def spd(rng, n, count=5):
    return np.stack([psd(rng, n, n) + 0.1 * np.eye(n) for _ in range(count)])


# -- bit-for-bit equality with one call per matrix --------------------------


@pytest.mark.parametrize("n", SIZES)
def test_validation_predicates_on_stacks(n):
    rng = np.random.default_rng(100 + n)
    stack = real_stack(rng, n)
    for fn in (val.is_symmetric, val.sym_part, val.is_psd, val.is_pd):
        assert_same_bits(fn(stack), loop(fn, stack))
    assert len({(bool(p), bool(q)) for p, q in zip(val.is_psd(stack).ravel(),
                                                  val.is_pd(stack).ravel())}) >= 2


@pytest.mark.parametrize("eigs", BOUNDARY_SPECTRA)
def test_definiteness_rule_keeps_the_spectral_norm_verdict(eigs):
    # The scale max(lambda_max, 1e-300) gives the verdicts of
    # max(-lambda_min, lambda_max, 1e-300), the spectral norm.
    rng = np.random.default_rng(5)
    for scale in (1e-200, 1e-6, 1.0, 1e6, -1.0):
        a = scale * with_eigenvalues(rng, eigs)
        low, high = np.linalg.eigvalsh(a)[[0, -1]]
        norm = max(-low, high, 1.0e-300)
        assert val.is_psd(a) == (low >= -val.TOL_PSD * norm)
        assert val.is_pd(a) == (low > val.TOL_PD * norm)


@pytest.mark.parametrize("n", SIZES)
def test_numerical_rank_on_stacks(n):
    rng = np.random.default_rng(200 + n)
    real = real_stack(rng, n)
    assert_same_bits(linalg.numerical_rank(real), loop(linalg.numerical_rank, real))
    cplx = complex_symmetric(rng, n)
    ranks = linalg.numerical_rank(cplx)
    assert_same_bits(ranks, loop(linalg.numerical_rank, cplx))
    if n > 1:
        assert ranks[4] == n - 1
    wide = rng.normal(size=(3, n, n + 2))
    assert_same_bits(linalg.numerical_rank(wide), loop(linalg.numerical_rank, wide))
    assert linalg.numerical_rank(np.zeros((2, 0, 0))).tolist() == [0, 0]


@pytest.mark.parametrize("n", SIZES)
def test_perturbation_predicates_on_stacks(n):
    rng = np.random.default_rng(300 + n)
    a = real_stack(rng, n)[0]
    a = val.sym_part(a)
    d = np.stack([psd(rng, n, int(rng.integers(0, n + 1))) for _ in a])
    e = np.stack([psd(rng, n, int(rng.integers(0, n + 1))) for _ in a])
    holds = perturbation.rank_monotonicity_holds(
        perturbation.PsdPerturbationInstance(a=a, d=d, e=e))
    assert_same_bits(holds, loop(
        lambda *m: perturbation.rank_monotonicity_holds(
            perturbation.PsdPerturbationInstance(*m)), a, d, e))

    s = complex_symmetric(rng, n)
    s = s[linalg.numerical_rank(s) == n]
    v = rng.normal(size=s.shape[:-1])
    e = np.stack([psd(rng, n, int(rng.integers(0, n + 1))) for _ in s])
    flags = perturbation.check_inverse_imag_duality(s)
    looped = loop(lambda m: np.array(perturbation.check_inverse_imag_duality(m)), s)
    assert_same_bits(np.stack(flags, axis=-1), looped)
    assert_same_bits(perturbation.rank_one_imag_update_nonsingular(s, v),
                     np.array([perturbation.rank_one_imag_update_nonsingular(m, x)
                               for m, x in zip(s, v)]))
    assert_same_bits(perturbation.psd_imag_update_nonsingular(s, e),
                     loop(perturbation.psd_imag_update_nonsingular, s, e))


@pytest.mark.parametrize("n", SIZES)
def test_full_damping_on_stacks(n):
    rng = np.random.default_rng(400 + n)
    m, d, l = spd(rng, n), spd(rng, n), spd(rng, n)
    assert_same_bits(linalg._solved_jacobian(m, d, l), loop(linalg._solved_jacobian, m, d, l))
    minv = np.linalg.solve(m, l)
    for referenced in (False, True):
        assert_same_bits(linalg._block_jacobian(minv, minv, referenced),
                         loop(lambda x, y: linalg._block_jacobian(x, y, referenced),
                              minv, minv))
    stable = stability.asymptotic_stability_full_damping(m, d, l)
    assert_same_bits(stable, loop(stability.asymptotic_stability_full_damping, m, d, l))
    assert stable.all()
    # one matrix keeps a scalar verdict
    assert stability.asymptotic_stability_full_damping(m[0], d[0], l[0]).ndim == 0


# -- a failed precondition anywhere in a stack ------------------------------


def test_one_bad_member_raises_the_single_matrix_error():
    rng = np.random.default_rng(9)
    s = complex_symmetric(rng, 3, count=4)[:3]
    bad = s.copy()
    bad[1, 0, 1] += 1.0
    with pytest.raises(PreconditionViolated, match="complex symmetric"):
        perturbation.check_inverse_imag_duality(bad)
    singular = s.copy()
    singular[2] = 0.0
    with pytest.raises(SingularMatrix):
        perturbation.check_inverse_imag_duality(singular)
    with pytest.raises(PreconditionViolated, match="nonsingular"):
        perturbation.rank_one_imag_update_nonsingular(singular, np.ones((3, 3)))
    with pytest.raises(MatrixShapeError):
        perturbation.rank_one_imag_update_nonsingular(s, np.ones(3))
    negative = np.stack([np.eye(3), -np.eye(3), np.eye(3)])
    with pytest.raises(PreconditionViolated, match="e must be positive"):
        perturbation.psd_imag_update_nonsingular(s, negative)
    with pytest.raises(PreconditionViolated, match="d must be positive"):
        perturbation.PsdPerturbationInstance(
            a=np.zeros((3, 3, 3)), d=negative, e=np.zeros((3, 3, 3))).validate()
    with pytest.raises(AssumptionViolated, match="inertia"):
        stability.asymptotic_stability_full_damping(negative, np.eye(3) + 0 * negative,
                                                    np.eye(3) + 0 * negative)
    nan = spd(rng, 3, count=3)
    nan[1, 0, 0] = np.nan
    with pytest.raises(MatrixShapeError, match="NaN"):
        stability.asymptotic_stability_full_damping(nan, nan, nan)
    with pytest.raises(MatrixShapeError, match="at least 2 axes"):
        linalg.numerical_rank(np.ones(3))


# -- the suites: one LAPACK call per size, failures in trial order ----------


def count_lapack(monkeypatch):
    """Record ``(name, ndim of the first argument)`` for each call of the
    LAPACK drivers the four suites use."""
    calls = []
    for name in ("svd", "eigvalsh", "eigvals", "inv", "solve"):
        fn = getattr(np.linalg, name)

        def counted(a, *args, fn=fn, name=name, **kw):
            calls.append((name, np.ndim(a)))
            return fn(a, *args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def tally(calls, ndim=None):
    out = {}
    for name, dims in calls:
        if ndim is None or dims == ndim:
            out[name] = out.get(name, 0) + 1
    return out


def test_rank_monotonicity_calls_per_size(monkeypatch):
    # The per-trial loop made 2 SVDs and 2 eigvalsh per trial: 4,000 each.
    calls = count_lapack(monkeypatch)
    assert suites.suite_rank_monotonicity().passed
    assert tally(calls) == {"svd": 16, "eigvalsh": 16}


def test_imag_duality_calls_per_size(monkeypatch):
    # Only the sampling filter runs once per candidate, on one matrix.
    calls = count_lapack(monkeypatch)
    assert suites.suite_imag_duality().passed
    assert tally(calls, ndim=3) == {"svd": 8, "eigvalsh": 16, "inv": 8}
    assert tally(calls, ndim=2) == {"svd": 1000}


def test_imag_updates_calls_per_size(monkeypatch):
    calls = count_lapack(monkeypatch)
    assert suites.suite_imag_updates().passed
    assert tally(calls, ndim=3) == {"svd": 32, "eigvalsh": 24}
    assert tally(calls, ndim=2) == {"svd": 1000}


def test_full_damping_calls_per_size(monkeypatch):
    # The per-trial loop made 4 eigvalsh, 1 solve and 1 eigvals per trial.
    calls = count_lapack(monkeypatch)
    assert suites.suite_full_damping_stability().passed
    assert tally(calls) == {"eigvalsh": 32, "solve": 8, "eigvals": 8}


def per_trial_full_damping(seed, trials):
    """The suite as a per-trial loop: one predicate call per trial."""
    rng = np.random.default_rng(seed)
    result = suites.SuiteResult("full_damping_stability", trials)
    for k in range(trials):
        n = int(rng.integers(1, 9))
        m = suites._spd(rng, n)
        d = suites._spd(rng, n, ridge=0.05)
        l = suites._spd(rng, n)
        if not stability.asymptotic_stability_full_damping(m, d, l):
            result.record(trial=k, m=m, d=d, l=l)
    return result


def per_trial_imag_duality(seed, trials):
    rng = np.random.default_rng(seed)
    result = suites.SuiteResult("imag_duality", trials)
    done = 0
    while done < trials:
        n = int(rng.integers(1, 9))
        s = suites._sym(rng, n) + 1j * suites._psd(rng, n)
        if np.linalg.svd(s, compute_uv=False)[-1] < 1e-8:
            continue
        done += 1
        flags = perturbation.check_inverse_imag_duality(s)
        if flags != (True, True):
            result.record(trial=done, s=s, flags=[bool(f) for f in flags])
    return result


def test_injected_failures_recorded_as_the_per_trial_loop(monkeypatch):
    # Fail the instances whose inertia (or S) has a large leading entry:
    # the same trials, in order, with byte-identical payloads.
    full = stability.asymptotic_stability_full_damping
    monkeypatch.setattr(stability, "asymptotic_stability_full_damping",
                        lambda m, d, l: full(m, d, l) & (m[..., 0, 0] < 8.0))
    want = per_trial_full_damping(seed=11, trials=300)
    got = suites.suite_full_damping_stability(seed=11, trials=300)
    assert 3 <= len(want.failures) < 300
    assert json.dumps(got.failures) == json.dumps(want.failures)

    duality = perturbation.check_inverse_imag_duality

    def injected(s):
        psd_flag, nsd_flag = duality(s)
        return psd_flag, (nsd_flag & (s.real[..., 0, 0] < 1.0)).tolist()

    monkeypatch.setattr(perturbation, "check_inverse_imag_duality", injected)
    monkeypatch.setattr(suites, "check_inverse_imag_duality", injected)
    want = per_trial_imag_duality(seed=11, trials=300)
    got = suites.suite_imag_duality(seed=11, trials=300)
    assert 3 <= len(want.failures) < 300
    assert json.dumps(got.failures) == json.dumps(want.failures)
