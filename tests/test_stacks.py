"""Predicates, spectra, grid criteria and damping paths on stacks: one
verdict per matrix (or grid), bit for bit the verdict of one call per
member, and one LAPACK call per routine and matrix size in the suites that
decide per size."""

import json

import numpy as np
import pytest

from damplab import _validation as val
from damplab import hopf, linalg, perturbation, stability, suites, swing
from damplab.errors import (AssumptionViolated, MatrixShapeError, NotInOmega, NotLossless,
                            PreconditionViolated, SingularInertia,
                            SingularLeadingCoefficient, SingularMatrix,
                            TheoremViolation)
from conftest import count_lapack, tally

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
    holds = perturbation.rank_monotonicity_holds(a, d, e)
    assert_same_bits(holds, loop(perturbation.rank_monotonicity_holds, a, d, e))

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
    base = perturbation.UpdateBase(s)  # S checked once, for both updates
    assert_same_bits(perturbation.rank_one_imag_update_nonsingular(base, v),
                     perturbation.rank_one_imag_update_nonsingular(s, v))
    assert_same_bits(perturbation.psd_imag_update_nonsingular(base, e),
                     perturbation.psd_imag_update_nonsingular(s, e))


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


def as_complex(spectra):
    """Eigenvalues as complex: ``eigvals`` returns a real array only when
    every matrix of its stack has a real spectrum."""
    return np.asarray(spectra, dtype=complex)


def symmetric_triples(rng, n, count=6):
    """SPD inertia M = C C^T, symmetric stiffness and PSD damping.  Every
    third stiffness is ``C S C^T`` with a repeated eigenvalue of S (a
    repeated cluster of M^-1 L) and a zero damping (witnesses); the others
    have a damping of rank n - 1."""
    m = spd(rng, n, count)
    l, d = [], []
    for k, c in enumerate(np.linalg.cholesky(m)):
        eigs = rng.normal(size=n)
        if k % 3 == 0:
            eigs[-1] = eigs[0]
        l.append(val.sym_part(c @ with_eigenvalues(rng, eigs) @ c.T))
        d.append(np.zeros((n, n)) if k % 3 == 0 else psd(rng, n, n - 1))
    return m, np.stack(l), np.stack(d)


def verdict_bits(verdict):
    """The bits of an observability verdict's scale, margins and witnesses."""
    def z(x):
        return complex(x).real.hex(), complex(x).imag.hex()
    return (float(verdict.scale).hex(),
            [(z(lam), float(res).hex()) for lam, res in verdict.margins],
            [(z(w.eigenvalue), np.asarray(w.vector).tobytes(), float(w.residual).hex())
             for w in verdict.witnesses])


@pytest.mark.parametrize("n", range(2, 7))
def test_pencils_and_jacobians_on_stacks(n):
    rng = np.random.default_rng(500 + n)
    m, d, l = spd(rng, n), rng.normal(size=(5, n, n)), rng.normal(size=(5, n, n))
    pencil = linalg.QuadraticPencil(m, d, l)
    assert_same_bits(pencil.companion(),
                     loop(lambda *b: linalg.QuadraticPencil(*b).companion(), m, d, l))
    assert_same_bits(as_complex(pencil.eigenvalues()), as_complex(
        loop(lambda *b: linalg.QuadraticPencil(*b).eigenvalues(), m, d, l)))
    assert_same_bits(pencil.residual_scale(2j), loop(
        lambda *b: np.float64(linalg.QuadraticPencil(*b).residual_scale(2j)), m, d, l))
    assert_same_bits(linalg.jacobian_2n(m, d, l), loop(linalg.jacobian_2n, m, d, l))
    # the companion stays the reference the Jacobian is checked against
    assert np.allclose(pencil.companion(), linalg.jacobian_2n(m, d, l), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 7))
def test_symmetric_observability_and_undamped_map_on_stacks(n):
    rng = np.random.default_rng(600 + n)
    m, l, d = symmetric_triples(rng, n)
    stacked = stability.observability_symmetric(m, l, d)
    assert [verdict_bits(v) for v in stacked] == [
        verdict_bits(stability.observability_symmetric(*x)) for x in zip(m, l, d)]
    assert not stacked[0].observable and any(len(v.witnesses) > 1 for v in stacked)
    mu, lam = stability.undamped_spectral_map(m, l)
    assert_same_bits(as_complex(mu), as_complex(loop(
        lambda *x: stability.undamped_spectral_map(*x)[0], m, l)))
    assert_same_bits(as_complex(lam), as_complex(loop(
        lambda *x: stability.undamped_spectral_map(*x)[1], m, l)))
    two = stability.observability_symmetric(m.reshape(2, 3, n, n), l.reshape(2, 3, n, n),
                                            d.reshape(2, 3, n, n))
    assert [verdict_bits(v) for v in two] == [verdict_bits(v) for v in stacked]


def lossless_grids(rng, n, count=6):
    """Lossless grids with damped, one undamped and all undamped generators."""
    profiles = ("positive", "one_undamped", "undamped")
    return [suites.random_lossless_grid(rng, n, profiles[k % 3]) for k in range(count)]


def result_bits(result):
    return (result.imaginary_pair_exists, result.spectrum.inertia,
            result.spectrum.eigenvalues.tobytes(),
            verdict_bits(stability.ObservabilityVerdict(result.witnesses, (), 1.0)))


@pytest.mark.parametrize("n", range(2, 7))
def test_grid_criteria_on_stacks(n):
    rng = np.random.default_rng(700 + n)
    models, eqs = map(list, zip(*lossless_grids(rng, n)))
    stacked = swing.lossless_imaginary_criterion(models, eqs)
    alone = [swing.lossless_imaginary_criterion(*x) for x in zip(models, eqs)]
    assert [result_bits(r) for r in stacked] == [result_bits(r) for r in alone]
    assert {r.imaginary_pair_exists for r in alone} == {True, False}
    system = swing._second_order(models)
    assert_same_bits(system.jacobian_at([eq.delta0 for eq in eqs]),
                     np.stack([model.to_second_order().jacobian_at(eq.delta0)
                               for model, eq in zip(models, eqs)]))
    if n <= 3:
        models, eqs = map(list, zip(*(suites.random_lossy_grid(rng, n) for _ in range(6))))
        assert swing.small_n_hyperbolicity_check(models, eqs) == [
            swing.small_n_hyperbolicity_check(*x) for x in zip(models, eqs)] == [True] * 6


def symmetric_systems(rng, n, count=6):
    """SPD inertia and stiffness with PSD dampings: every third damping is
    zero (every eigenvalue on the axis), the others of rank n - 1."""
    m, l = spd(rng, n, count), spd(rng, n, count)
    d = np.stack([np.zeros((n, n)) if k % 3 == 0 else psd(rng, n, n - 1)
                  for k in range(count)])
    return m, l, d


def hyperbolicity_bits(verdict):
    return (verdict.hyperbolic, verdict.via_observability,
            verdict.axis_eigenvalues.tobytes(), verdict_bits(verdict.observability),
            verdict.spectrum.inertia, verdict.spectrum.eigenvalues.tobytes())


def monotonicity_bits(report):
    return (report.damping_increase_psd, report.subset_holds,
            report.axis_set_first.tobytes(), report.axis_set_second.tobytes())


@pytest.mark.parametrize("n", range(2, 7))
def test_symmetric_verdicts_on_stacks(n):
    # Each member's verdict and report equal one call's, bit for bit.
    rng = np.random.default_rng(800 + n)
    m, l, d = symmetric_systems(rng, n)
    x0 = np.zeros(n)
    stacked = stability.hyperbolicity_symmetric(stability.SecondOrderSystem.linear(m, d, l), x0)
    alone = [stability.hyperbolicity_symmetric(stability.SecondOrderSystem.linear(*x), x0)
             for x in zip(m, d, l)]
    assert [hyperbolicity_bits(v) for v in stacked] == [hyperbolicity_bits(v) for v in alone]
    assert {v.hyperbolic for v in alone} == {True, False}
    two = stability.hyperbolicity_symmetric(stability.SecondOrderSystem.linear(
        *(x.reshape(2, 3, n, n) for x in (m, d, l))), x0)
    assert [hyperbolicity_bits(v) for v in two] == [hyperbolicity_bits(v) for v in stacked]

    # Every third second damping swaps the first for another; the others add
    # PSD damping of rank 0 or 1.
    d2 = np.stack([psd(rng, n, n - 1) if k % 3 == 2 else x + psd(rng, n, k % 2)
                   for k, x in enumerate(d)])
    first = stability.SecondOrderSystem.linear(m, d, l)
    stacked = stability.monotonicity_compare(first, first.with_damping(d2), x0)
    alone = []
    for x in zip(m, d, l, d2):
        one = stability.SecondOrderSystem.linear(*x[:3])
        alone.append(stability.monotonicity_compare(one, one.with_damping(x[3]), x0))
    assert [monotonicity_bits(r) for r in stacked] == [monotonicity_bits(r) for r in alone]
    assert {r.damping_increase_psd for r in alone} == {True, False}
    assert any(r.axis_set_second.size for r in alone)
    # one system keeps a single record
    assert isinstance(alone[0], stability.MonotonicityReport)


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
    with pytest.raises(PreconditionViolated, match="nonsingular"):
        perturbation.UpdateBase(singular)
    with pytest.raises(MatrixShapeError):
        perturbation.rank_one_imag_update_nonsingular(s, np.ones(3))
    negative = np.stack([np.eye(3), -np.eye(3), np.eye(3)])
    with pytest.raises(PreconditionViolated, match="e must be positive"):
        perturbation.psd_imag_update_nonsingular(s, negative)
    with pytest.raises(PreconditionViolated, match="d must be positive"):
        perturbation.rank_monotonicity_holds(
            np.zeros((3, 3, 3)), negative, np.zeros((3, 3, 3)))
    with pytest.raises(AssumptionViolated, match="inertia"):
        stability.asymptotic_stability_full_damping(negative, np.eye(3) + 0 * negative,
                                                    np.eye(3) + 0 * negative)
    nan = spd(rng, 3, count=3)
    nan[1, 0, 0] = np.nan
    with pytest.raises(MatrixShapeError, match="NaN"):
        stability.asymptotic_stability_full_damping(nan, nan, nan)
    with pytest.raises(MatrixShapeError, match="at least 2 axes"):
        linalg.numerical_rank(np.ones(3))


def test_one_bad_member_raises_the_single_matrix_error_in_spectra():
    rng = np.random.default_rng(10)
    m, l, d = symmetric_triples(rng, 3, count=3)
    singular = m.copy()
    singular[1] = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(SingularInertia):
        linalg.jacobian_2n(singular, d, l)
    with pytest.raises(SingularLeadingCoefficient):
        linalg.QuadraticPencil(singular, d, l).eigenvalues()
    with pytest.raises(AssumptionViolated, match="inertia nonsingular"):
        stability.SecondOrderSystem.linear(singular, d, l)
    with pytest.raises(AssumptionViolated, match="inertia symmetric positive definite"):
        stability.observability_symmetric(singular, l, d)
    unsymmetric = l.copy()
    unsymmetric[2, 0, 1] += 1.0
    with pytest.raises(AssumptionViolated, match="jacobian symmetric"):
        stability.observability_symmetric(m, unsymmetric, d)
    nan = l.copy()
    nan[0, 1, 1] = np.nan
    with pytest.raises(MatrixShapeError, match="NaN"):
        stability.undamped_spectral_map(m, nan)
    with pytest.raises(MatrixShapeError, match="one dimension"):
        linalg.QuadraticPencil(m, d[:2], l)

    models, eqs = map(list, zip(*lossless_grids(rng, 3, count=3)))
    lossy, lossy_eq = suites.random_lossy_grid(rng, 3)
    with pytest.raises(NotLossless):
        swing.lossless_imaginary_criterion(models + [lossy], eqs + [lossy_eq])
    far = models[1].equilibrium_at(np.array([0.0, 2.5, -2.5]))
    with pytest.raises(NotInOmega):
        swing.lossless_imaginary_criterion(models, [eqs[0], far, eqs[2]])
    with pytest.raises(AssumptionViolated, match="found 0"):
        swing.small_n_hyperbolicity_check([lossy, models[0]], [lossy_eq, eqs[0]])


def raised(fn, *args):
    """The exception ``fn(*args)`` raises."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.value


def test_one_bad_member_raises_the_single_error_in_symmetric_verdicts():
    rng = np.random.default_rng(11)
    m, l, d = symmetric_systems(rng, 3)
    x0 = np.zeros(3)

    def hyperbolicity(m, d, l):
        return stability.hyperbolicity_symmetric(stability.SecondOrderSystem.linear(m, d, l), x0)

    indefinite = l.copy()
    indefinite[4] = -np.eye(3)
    negative = d.copy()
    negative[2] = -np.eye(3)
    for ls, ds, k, message in ((indefinite, d, 4, "jacobian symmetric positive definite"),
                               (l, negative, 2, "damping symmetric positive semidefinite")):
        want = raised(hyperbolicity, m[k], ds[k], ls[k])
        got = raised(hyperbolicity, m, ds, ls)
        assert type(got) is type(want) is AssumptionViolated
        assert str(got) == str(want) == f"assumption violated: {message}"

    def monotonicity(m, d1, l1, d2, l2):
        first = stability.SecondOrderSystem.linear(m, d1, l1)
        second = stability.SecondOrderSystem.linear(m, d2, l2)
        return stability.monotonicity_compare(first, second, x0)

    # Member 0's stiffness is large, and member 1's moves by 1e-6: within
    # member 0's bound 1e-10 * max|L|, beyond member 1's own.
    big = l.copy()
    big[0] *= 1e6
    moved = big.copy()
    moved[1, 0, 0] += 1e-6
    unsymmetric = l.copy()
    unsymmetric[5, 0, 1] += 1.0
    cases = ((d, big, d, moved, 1, "identical vector-field jacobian"),
             (d, l, negative, l, 2, "second damping symmetric PSD"),
             (d, unsymmetric, d, unsymmetric, 5, "jacobian symmetric"))
    for d1, l1, d2, l2, k, message in cases:
        want = raised(monotonicity, m[k], d1[k], l1[k], d2[k], l2[k])
        got = raised(monotonicity, m, d1, l1, d2, l2)
        assert type(got) is type(want) is AssumptionViolated
        assert str(got) == str(want) == f"assumption violated: {message}"
    # the bound is the member's own: member 0 alone passes
    monotonicity(m[0], d[0], big[0], d[0], big[0] * (1 + 1e-15))


def observability_draws(seed, trials):
    """The instances ``(m, l, d)`` of ``suites.suite_observability_equivalence``."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        yield (suites._spd(rng, n), suites._spd(rng, n),
               suites._psd(rng, n, rank=int(rng.integers(0, n + 1))))


def per_trial_observability(seed, trials):
    """The suite as a per-trial loop: one verdict and one PBH test per trial."""
    result = suites.SuiteResult("observability_equivalence", trials)
    for k, (m, l, d) in enumerate(observability_draws(seed, trials)):
        system = stability.SecondOrderSystem.linear(m, d, l)
        try:
            verdict = stability.hyperbolicity_symmetric(system, np.zeros(len(m)))
        except Exception as exc:
            result.record(trial=k, m=m, d=d, l=l, error=str(exc))
            continue
        pbh = stability.observability_test(np.linalg.solve(m, l), np.linalg.solve(m, d))
        if len(pbh.witnesses) != len(verdict.observability.witnesses):
            result.record(trial=k, m=m, d=d, l=l,
                          error="symmetric and PBH observability disagree")
    return result


def test_disagreeing_member_raises_and_keeps_its_own_payload():
    # Trial 173 of seed 1 is one of the suite's known failures: its
    # two verdicts disagree.  A stack of its size holding it raises the
    # TheoremViolation of the single call, and the suite records it on its
    # own trial, with the other members' verdicts as in a per-trial loop.
    draws = list(observability_draws(seed=1, trials=200))
    m, l, d = draws[173]
    same = [k for k, x in enumerate(draws) if x[0].shape == m.shape][:8] + [173]
    stack = [np.stack([draws[k][i] for k in same]) for i in range(3)]
    want = raised(stability.hyperbolicity_symmetric,
                  stability.SecondOrderSystem.linear(m, d, l), np.zeros(3))
    got = raised(stability.hyperbolicity_symmetric,
                 stability.SecondOrderSystem.linear(stack[0], stack[2], stack[1]),
                 np.zeros(3))
    assert type(got) is type(want) is TheoremViolation
    assert str(got) == str(want)
    assert verdict_bits(got.first_verdict) == verdict_bits(want.first_verdict)
    assert got.second_verdict.eigenvalues.tobytes() == want.second_verdict.eigenvalues.tobytes()
    suite = suites.suite_observability_equivalence(seed=1, trials=200)
    assert [f["trial"] for f in suite.failures] == [173]
    assert json.dumps(suite.failures) == json.dumps(per_trial_observability(1, 200).failures)


def pbh_bits(verdict):
    """``verdict_bits`` with the types the bits are held in: a member whose
    spectrum is real keeps real eigenvalues and witness vectors."""
    return (verdict_bits(verdict), type(verdict.scale),
            [type(lam) for lam, _ in verdict.margins],
            [w.vector.dtype for w in verdict.witnesses])


def assert_pbh_per_member(a, b):
    """``observability_test`` on the stacks ``(a, b)`` with one leading axis
    equals one call per member bit for bit; returns the stacked verdicts."""
    stacked = stability.observability_test(a, b)
    assert [pbh_bits(v) for v in stacked] == [
        pbh_bits(stability.observability_test(x, y)) for x, y in zip(a, b)]
    assert {type(v.scale) for v in stacked} == {float}
    return stacked


def test_pbh_on_stacks_of_the_suite_draws():
    # The suite's reference, grouped by n as the suite decides it: seed 1
    # holds trial 173, whose two verdicts disagree, and dampings of rank 0.
    draws = list(observability_draws(seed=1, trials=200))
    for n in range(2, 7):
        m, l, d = (np.stack(x) for x in zip(*(t for t in draws if len(t[0]) == n)))
        stacked = assert_pbh_per_member(np.linalg.solve(m, l), np.linalg.solve(m, d))
        assert any(v.witnesses for v in stacked) and any(v.observable for v in stacked)


def test_pbh_on_stacks_mixing_real_and_complex_spectra():
    # A stacked eigvals returns complex rows for every member once one
    # member has a complex eigenvalue; a real member still gets the verdict
    # of its real spectrum.  Every third A keeps e1 as an eigenvector that B
    # annihilates, and the last A, 2 I, has the two-dimensional kernel of B
    # as unobservable subspace.
    rng = np.random.default_rng(700)
    a = rng.normal(size=(40, 4, 4))
    b = rng.normal(size=(40, 2, 4))
    a[::3, 1:, 0] = 0.0
    b[::3, :, 0] = 0.0
    a[-1] = 2.0 * np.eye(4)
    stacked = assert_pbh_per_member(a, b)
    assert np.iscomplexobj(np.linalg.eigvals(a))
    assert {type(v.margins[0][0]) for v in stacked} == {np.float64, np.complex128}
    assert all(v.witnesses for v in stacked[::3])
    assert len(stacked[-1].witnesses) == 2 and len(stacked[-1].margins) == 1
    two = stability.observability_test(a.reshape(2, 20, 4, 4), b.reshape(2, 20, 2, 4))
    assert [pbh_bits(v) for v in two] == [pbh_bits(v) for v in stacked]
    for bad in (b[:-1], b[0], b.reshape(2, 20, 2, 4)):
        with pytest.raises(AssumptionViolated):
            stability.observability_test(a, bad)


def test_damping_monotonicity_failure_recorded_as_the_per_trial_loop(monkeypatch):
    # Seed 0 fails at trial 495 (a known failure); the suite, deciding on stacks
    # only, records the per-trial loop's payload.
    rng = np.random.default_rng(0)
    want = suites.SuiteResult("damping_monotonicity", 500)
    for k in range(500):
        n = int(rng.integers(2, 7))
        m = suites._sym(rng, n) + np.eye(n) * 0.1
        if abs(np.linalg.det(m)) < 1e-6:
            m += 0.5 * np.eye(n)
        l = suites._sym(rng, n)
        d1 = suites._psd(rng, n, rank=int(rng.integers(0, n + 1)))
        d2 = d1 + suites._psd(rng, n, rank=int(rng.integers(0, n + 1)))
        first = stability.SecondOrderSystem.linear(m, d1, l)
        report = stability.monotonicity_compare(first, first.with_damping(d2), np.zeros(n))
        if not (report.damping_increase_psd and report.subset_holds):
            want.record(trial=k, m=m, l=l, d1=d1, d2=d2, axis_first=report.axis_set_first,
                        axis_second=report.axis_set_second)
    calls = count_lapack(monkeypatch)
    got = suites.suite_damping_monotonicity(seed=0)
    assert tally(calls, ndim=2) == {"det": 500}  # the draw's inertia bump
    assert [f["trial"] for f in got.failures] == [495]
    assert json.dumps(got.failures) == json.dumps(want.failures)


# -- the suites: one LAPACK call per size, failures in trial order ----------


def test_rank_monotonicity_calls_per_size(monkeypatch):
    # The per-trial loop made 2 SVDs and 2 eigvalsh per trial: 4,000 each.
    # The draw's common kernels take one QR each.
    calls = count_lapack(monkeypatch)
    assert suites.suite_rank_monotonicity().passed
    assert tally(calls) == {"svd": 16, "eigvalsh": 16, "qr": 494}


def test_imag_duality_calls_per_size(monkeypatch):
    # Only the sampling filter runs once per candidate, on one matrix.
    calls = count_lapack(monkeypatch)
    assert suites.suite_imag_duality().passed
    assert tally(calls, ndim=3) == {"svd": 8, "eigvalsh": 16, "inv": 8}
    assert tally(calls, ndim=2) == {"svd": 1000}


def test_imag_updates_calls_per_size(monkeypatch):
    # S is checked once per size for both updates: 3 SVDs and 2 eigvalsh
    # per size, where checking it in each predicate made 4 and 3.
    calls = count_lapack(monkeypatch)
    assert suites.suite_imag_updates().passed
    assert tally(calls, ndim=3) == {"svd": 24, "eigvalsh": 16}
    assert tally(calls, ndim=2) == {"svd": 1000}


def test_full_damping_calls_per_size(monkeypatch):
    # The per-trial loop made 4 eigvalsh, 1 solve and 1 eigvals per trial.
    calls = count_lapack(monkeypatch)
    assert suites.suite_full_damping_stability().passed
    assert tally(calls) == {"eigvalsh": 32, "solve": 8, "eigvals": 8}


def test_pencil_vs_jacobian_calls_per_size(monkeypatch):
    # The per-trial loop made 1 SVD, 2 solves and 2 eigvals per trial: 200,
    # 400 and 400 calls; per size, the pencil and the Jacobian each take one
    # solve and one eigvals.
    calls = count_lapack(monkeypatch)
    assert suites.suite_pencil_vs_jacobian().passed
    assert tally(calls, ndim=3) == tally(calls) == {"svd": 5, "solve": 10, "eigvals": 10}


def test_undamped_map_calls_per_size(monkeypatch):
    # The per-trial loop made 1 SVD, 2 solves and 2 eigvals per trial: 200,
    # 400 and 400 calls; per size, -M^-1 L and the undamped Jacobian each
    # take one solve and one eigvals.
    calls = count_lapack(monkeypatch)
    assert suites.suite_undamped_map().passed
    assert tally(calls, ndim=3) == tally(calls) == {"svd": 5, "solve": 10, "eigvals": 10}


def test_referenced_spectrum_calls_per_size(monkeypatch):
    # The per-trial loop made 1 SVD, 1 solve and 2 eigvals per trial: 200,
    # 200 and 400 calls; per size, one eigvals for each of the two spectra.
    calls = count_lapack(monkeypatch)
    assert suites.suite_referenced_spectrum().passed
    assert tally(calls, ndim=3) == tally(calls) == {"svd": 5, "solve": 5, "eigvals": 10}


def test_small_grid_hyperbolicity_calls_per_size(monkeypatch):
    # The per-trial loop made 1 SVD, 1 solve and 1 eigvals per trial: 500
    # calls each, for two sizes.
    calls = count_lapack(monkeypatch)
    assert suites.suite_small_grid_hyperbolicity().passed
    assert tally(calls, ndim=3) == tally(calls) == {"svd": 2, "solve": 2, "eigvals": 2}


def test_lossless_criterion_calls_per_size(monkeypatch):
    # The per-trial loop made 1 SVD, 1 Cholesky, 1 eigh, 6 solves and 1
    # eigvals per trial: 300 calls each and 1,800 solves.  Per size,
    # observability takes five solves and the Jacobian one.
    calls = count_lapack(monkeypatch)
    assert suites.suite_lossless_criterion().passed
    assert tally(calls, ndim=3) == tally(calls) == {
        "svd": 4, "cholesky": 4, "eigh": 4, "solve": 24, "eigvals": 4}


def test_fold_exclusion_calls_per_size(monkeypatch):
    # The per-trial loop made 1 SVD, 1 solve and 1 eigvals per trial: 200
    # calls each.
    calls = count_lapack(monkeypatch)
    assert suites.suite_fold_exclusion().passed
    assert tally(calls, ndim=3) == tally(calls) == {"svd": 5, "solve": 5, "eigvals": 5}


def test_observability_equivalence_calls_per_size(monkeypatch):
    # The per-trial loop made 1 SVD, 3 eigvalsh, 1 Cholesky, 1 eigh, 6
    # solves and 1 eigvals per trial for the symmetric side, and 1 eigvals,
    # 2 solves and one SVD per eigenvalue cluster for the PBH reference.
    # Per size the reference takes 2 solves and 1 eigvals; its SVDs stay
    # one per cluster and trial.
    calls = count_lapack(monkeypatch)
    assert suites.suite_observability_equivalence().passed
    assert tally(calls, ndim=3) == {"svd": 5, "eigvalsh": 15, "cholesky": 5, "eigh": 5,
                                    "solve": 40, "eigvals": 10}
    assert tally(calls, ndim=2) == {"svd": 2031}


def test_damping_monotonicity_calls_per_size(monkeypatch):
    # The per-trial loop made 1 SVD, 3 eigvalsh, 2 solves and 2 eigvals per
    # trial: 500, 1,500, 1,000 and 1,000 calls.
    calls = count_lapack(monkeypatch)
    assert suites.suite_damping_monotonicity().passed
    assert tally(calls, ndim=3) == {"svd": 5, "eigvalsh": 15, "solve": 10, "eigvals": 10}
    assert tally(calls, ndim=2) == {"det": 500}  # the draw's inertia bump


def test_every_random_suite_decides_per_size(monkeypatch):
    # One path through the suite skeleton: each random suite hands all its
    # instances to ``_by_size`` once.  ``undamped_pair_family`` checks a
    # fixed family of peer counts in its own loop.
    by_size = suites._by_size
    seen = []
    monkeypatch.setattr(suites, "_by_size", lambda instances, decide: (
        seen.append(len(instances)) or by_size(instances, decide)))
    for name, suite in suites.SUITES.items():
        seen.clear()
        if name == "undamped_pair_family":
            suite(seed=3, peers=range(2, 4))
            assert seen == []
        else:
            suite(seed=3, trials=7)
            assert seen == [7], name


def test_no_suite_decides_in_its_failures(monkeypatch):
    # Every LAPACK call of a random suite is made by its draw or by its
    # ``decide``: none follows the return of ``_by_size``, after which only
    # ``failures`` runs.
    calls = count_lapack(monkeypatch)
    by_size = suites._by_size
    ends = []
    monkeypatch.setattr(suites, "_by_size", lambda instances, decide: (
        by_size(instances, decide), ends.append(len(calls)))[0])
    for name, suite in suites.SUITES.items():
        if name != "undamped_pair_family":
            calls.clear()
            ends.clear()
            suite()
            assert len(ends) == 1 and calls[ends[0]:] == [], name


def test_numpy_scalars_in_payloads_serialize():
    result = suites.SuiteResult("flags", 1)
    result.record(flag=np.bool_(True), count=np.int64(3), x=np.float32(0.5),
                  z=np.complex128(1 - 2j), name=np.str_("m"), flags=np.array([True, False]))
    assert json.dumps(result.failures) == (
        '[{"flag": true, "count": 3, "x": 0.5, "z": {"re": 1.0, "im": -2.0}, '
        '"name": "m", "flags": [true, false]}]')


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
        flags = perturbation.check_inverse_imag_duality(s)
        if flags != (True, True):
            result.record(trial=done, s=s, flags=[bool(f) for f in flags])
        done += 1
    return result


def per_trial_imag_updates(seed, trials):
    rng = np.random.default_rng(seed)
    result = suites.SuiteResult("imag_updates", trials)
    done = 0
    while done < trials:
        n = int(rng.integers(1, 9))
        s = suites._sym(rng, n) + 1j * suites._psd(rng, n)
        if np.linalg.svd(s, compute_uv=False)[-1] < 1e-8:
            continue
        v = rng.normal(size=n)
        e = suites._psd(rng, n, rank=int(rng.integers(0, n + 1)))
        rank_one = perturbation.rank_one_imag_update_nonsingular(s, v)
        psd = perturbation.psd_imag_update_nonsingular(s, e)
        if not (rank_one and psd):
            result.record(trial=done, s=s, v=v, e=e, rank_one=bool(rank_one), psd=bool(psd))
        done += 1
    return result


def per_trial_undamped_map(seed, trials):
    """The suite as a per-trial loop: one map per trial, its error recorded."""
    rng = np.random.default_rng(seed)
    result = suites.SuiteResult("undamped_map", trials)
    for k in range(trials):
        n = int(rng.integers(2, 7))
        m, l = suites._spd(rng, n), suites._sym(rng, n)
        try:
            stability.undamped_spectral_map(m, l)
        except Exception as exc:
            result.record(trial=k, m=m, l=l, error=str(exc))
    return result


def per_trial_lossless(seed, trials):
    rng = np.random.default_rng(seed)
    result = suites.SuiteResult("lossless_criterion", trials)
    for k in range(trials):
        n = int(rng.integers(2, 6))
        profile = "positive" if rng.random() < 0.7 else "one_undamped"
        model, eq = suites.random_lossless_grid(rng, n, gamma_profile=profile)
        try:
            verdict = swing.lossless_imaginary_criterion(model, eq)
        except Exception as exc:
            result.record(trial=k, n=model.n, error=str(exc))
            continue
        if profile == "positive" and verdict.imaginary_pair_exists:
            result.record(trial=k, n=model.n, error="pair under full damping")
    return result


def test_errors_of_a_stack_recorded_on_their_own_trials(monkeypatch):
    # A member with a heavy first inertia raises an error naming it, for a
    # stack as for one matrix or model: the stack's size is decided again
    # member by member, and each error lands on its own trial with its own
    # message, as in the per-trial loop.
    undamped_map = stability.undamped_spectral_map

    def heavy_map(m, l):
        for first in np.reshape(m, (-1,) + np.shape(m)[-2:])[:, 0, 0]:
            if first > 3.0:
                raise TheoremViolation(f"injected map at {first!r}")
        return undamped_map(m, l)

    monkeypatch.setattr(stability, "undamped_spectral_map", heavy_map)
    want = per_trial_undamped_map(seed=11, trials=200)
    got = suites.suite_undamped_map(seed=11, trials=200)
    assert 3 <= len(want.failures) < 200
    assert len({f["error"] for f in want.failures}) == len(want.failures)
    assert json.dumps(got.failures) == json.dumps(want.failures)

    criterion = swing.lossless_imaginary_criterion

    def heavy_grid(model, eq):
        for grid in [model] if isinstance(model, swing.PowerGridModel) else model:
            if grid.inertia_const[0] > 1.7:
                raise AssumptionViolated("light first generator",
                                         f"inertia {grid.inertia_const[0]!r}")
        return criterion(model, eq)

    monkeypatch.setattr(swing, "lossless_imaginary_criterion", heavy_grid)
    want = per_trial_lossless(seed=11, trials=300)
    got = suites.suite_lossless_criterion(seed=11, trials=300)
    assert 3 <= len(want.failures) < 300
    assert len({f["error"] for f in want.failures}) == len(want.failures)
    assert json.dumps(got.failures) == json.dumps(want.failures)


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

    rank_one = perturbation.rank_one_imag_update_nonsingular
    psd = perturbation.psd_imag_update_nonsingular
    for name, injected in (
        ("rank_one_imag_update_nonsingular", lambda s, v: rank_one(s, v) & (v[..., 0] < 1.0)),
        ("psd_imag_update_nonsingular", lambda s, e: psd(s, e) & (e[..., 0, 0] < 2.0)),
    ):
        monkeypatch.setattr(perturbation, name, injected)
        monkeypatch.setattr(suites, name, injected)
    want = per_trial_imag_updates(seed=11, trials=300)
    got = suites.suite_imag_updates(seed=11, trials=300)
    assert 3 <= len(want.failures) < 300
    assert json.dumps(got.failures) == json.dumps(want.failures)


# -- damping paths and the safe-damping suite -------------------------------


def sweep_members(rng, n, referenced, count=9):
    """Inertia, stiffness, start damping and growth of ``count`` paths on
    (0, 2): every third starts undamped (boundary crossings), every third
    loses damping along an NSD growth (refined interior crossings), the
    rest gain it (no crossing)."""
    out = []
    for i in range(count):
        m = suites._spd(rng, n)
        if referenced:
            w = np.abs(rng.normal(size=(n, n)))
            w = w + w.T
            l = np.diag(w.sum(axis=1)) - w
        else:
            l = suites._spd(rng, n)
        g = rng.normal(size=(n, n))
        growth = 0.1 * (g.T @ g)
        if i % 3 == 0:
            d0 = np.zeros((n, n))
        elif i % 3 == 1:
            d0 = 0.1 * suites._spd(rng, n, ridge=0.05)
            growth = -growth
        else:
            d0 = suites._spd(rng, n, ridge=0.05)
        out.append((m, l, d0, growth))
    return [np.stack(x) for x in zip(*out)]


def bend(m, d0, d):
    """``D(gamma) = D0 + gamma G`` bent to ``-0.2 D0 + 0.05 gamma G`` where
    the inertia ``m`` has a leading entry above 3 and n < 4: those paths
    start anti-damped, gain damping slowly and cross the axis on most
    draws.  ``m`` and ``d`` are one path's or stacks of one shape, ``d0``
    broadcasts against ``d``."""
    hit = (m[..., 0, 0] > 3.0) & (m.shape[-1] < 4)
    return np.where(hit[..., None, None], 0.05 * d - 0.25 * d0, d)


def safe_damping_paths(seed, trials, bent=False):
    """The draws of ``suites.suite_safe_damping_region``, one path each, with
    the damping bent by :func:`bend` if ``bent``: ``(m, l, d0, growth,
    path)`` per trial."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        m = suites._spd(rng, n)
        l = suites._spd(rng, n)
        d0 = suites._spd(rng, n, ridge=0.05)
        g = rng.normal(size=(n, n))
        growth = g.T @ g

        def damping_of(gamma, m=m, d0=d0, growth=growth):
            d = d0 + gamma * growth
            return bend(m, d0, d) if bent else d

        yield m, l, d0, growth, hopf.DampingPath(
            inertia=m, stiffness=l, damping_of=damping_of, gamma_range=(0.0, 2.0))


def per_trial_safe_damping(seed, trials, bent):
    """The suite as a per-trial loop: one path per trial and one spectrum
    per sample; a path fails at the samples with an eigenvalue in or right
    of the axis band of all its samples."""
    result = suites.SuiteResult("safe_damping_region", trials)
    for k, (m, l, d0, growth, path) in enumerate(safe_damping_paths(seed, trials, bent)):
        gammas = np.linspace(0.0, 2.0, 9)
        spectra = [np.linalg.eigvals(path.jacobian(g)) for g in gammas]
        band = 1e-7 * max(1.0, max(np.abs(eigs).max() for eigs in spectra))
        unstable = [float(g) for g, eigs in zip(gammas, spectra) if (eigs.real >= -band).any()]
        if unstable:
            result.record(trial=k, m=m, l=l, d0=d0, growth=growth, gammas=unstable)
    return result


def safe_damping_jacobians(monkeypatch, change):
    """Replace the damping ``d`` of the suite's stacks ``(paths, 9, n, n)`` by
    ``change(m, d0, d)`` before their Jacobians are built, with ``d0`` the
    damping at gamma = 0; other calls of ``suites._solved_jacobian`` are left
    alone."""
    build = suites._solved_jacobian
    monkeypatch.setattr(suites, "_solved_jacobian", lambda m, d, l: build(
        m, change(m, d[:, :1], d) if d.ndim == 4 else d, l))


def test_safe_damping_failures_recorded_as_the_per_trial_loop(monkeypatch):
    safe_damping_jacobians(monkeypatch, bend)
    want = per_trial_safe_damping(seed=11, trials=150, bent=True)
    got = suites.suite_safe_damping_region(seed=11, trials=150)
    assert 10 <= len(want.failures) < 150
    assert any(len(f["gammas"]) > 1 for f in want.failures)
    assert json.dumps(got.failures) == json.dumps(want.failures)
    # At least as strict as a sweep of each path alone: every path with a
    # reported crossing fails.
    paths = safe_damping_paths(seed=11, trials=150, bent=True)
    crossed = {k for k, (*_, path) in enumerate(paths)
               if hopf.track_axis_crossing(path, samples=9)}
    assert 10 <= len(crossed)
    assert crossed <= {f["trial"] for f in got.failures}


def test_safe_damping_fails_a_path_on_the_axis(monkeypatch):
    # D(gamma) = gamma G: undamped at 0, where every eigenvalue lies in the
    # axis band, as in the boundary crossing a sweep reports there.
    safe_damping_jacobians(monkeypatch, lambda m, d0, d: d - d0)
    got = suites.suite_safe_damping_region(seed=5, trials=30)
    assert [f["trial"] for f in got.failures] == list(range(30))
    assert all(f["gammas"] == [0.0] for f in got.failures)


def test_safe_damping_calls_per_size(monkeypatch):
    # The per-trial loop made 9 eigvals and 10 solves per trial: 4,500 and
    # 5,000 calls.  Per size, one SVD checks the inertias of all paths, and
    # on the stack of all paths at all samples one solve gives M^-1 [L, D]
    # and one eigvals the spectra.
    calls = count_lapack(monkeypatch)
    assert suites.suite_safe_damping_region().passed
    assert tally(calls) == {"eigvals": 3, "solve": 3, "svd": 3}
    assert tally(calls, ndim=3) == {"svd": 3}


def test_single_path_sweep_solves_one_jacobian_per_call(monkeypatch):
    # One path keeps one 2-d eigvals call per sample: a stack of all its
    # samples would hold every Jacobian at once.
    rng = np.random.default_rng(12)
    m, l, d0, growth = (x[2] for x in sweep_members(rng, 5, True, count=3))
    path = hopf.DampingPath(inertia=m, stiffness=l, damping_of=lambda g: d0 + g * growth,
                            gamma_range=(0.0, 2.0), referenced=True)
    calls = count_lapack(monkeypatch)
    assert hopf.track_axis_crossing(path, samples=31) == []
    assert tally(calls, ndim=2)["eigvals"] == 31
    assert tally(calls, ndim=3) == {}
