"""Seeded randomized verification suites.

Each suite draws random conforming instances for one theorem-level claim
and checks the claim's conclusion on every draw.  Suites are deterministic
given a seed, return a :class:`SuiteResult` with serializable failure
payloads for replay, and are shared between the test suite and the CLI
``verify`` command.

A random suite states only its draw and its check; :func:`_suite` runs
them.  Every instance is drawn first, with the rng calls in trial order;
the check then runs once per matrix size on stacks (:func:`_by_size`),
through the same stack-capable functions the CLI calls;
``safe_damping_region`` stacks the linear Jacobians of its paths at all
their samples.  Failure payloads are recorded in trial order under a
0-based ``trial`` index.  A suite that records errors decides a size
whose stack raises again member by member (:func:`_errors_recorded`), so
each error lands on its own trial.  ``suite_undamped_pair_family`` keeps
its own loop: it checks a fixed family of peer counts, not random trials,
and records the peer count ``n``.

A grid draw takes the rng stream of one scalar call per number, in order:
a loop of one call is one call of that size, which numpy answers with the
same numbers, and :func:`_grid_at` builds the model without re-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _validation as val
from . import hopf, stability, swing
from .errors import AssumptionViolated, SingularInertia
from .linalg import (
    QuadraticPencil,
    _solved_jacobian,
    axis_band,
    classify_spectrum,
    jacobian_2n,
    matching_distance,
    numerical_rank,
    structural_zero,
)
from .perturbation import (
    UpdateBase,
    check_inverse_imag_duality,
    psd_imag_update_nonsingular,
    rank_monotonicity_holds,
    rank_one_imag_update_nonsingular,
)

__all__ = ["SuiteResult", "run_all", "SUITES"]

DEFAULT_SEED = 20240501


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def record(self, **payload):
        self.failures.append(
            {k: _serialize(v) for k, v in payload.items()}
        )


def _serialize(v):
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, np.ndarray):
        if np.iscomplexobj(v):
            return {"re": v.real.tolist(), "im": v.imag.tolist()}
        return v.tolist()
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return v


# -- random generators ------------------------------------------------------


def _sym(rng, n):
    a = rng.normal(size=(n, n))
    return 0.5 * (a + a.T)


def _psd(rng, n, rank=None):
    rank = n if rank is None else rank
    if rank == 0:
        return np.zeros((n, n))
    g = rng.normal(size=(rank, n))
    return g.T @ g


def _spd(rng, n, ridge=0.1):
    return _psd(rng, n) + ridge * np.eye(n)


def _grid_at(rng, y, theta, d, delta):
    """The model with mechanical powers equal to the flow at ``delta``, and
    its equilibrium there; voltages and inertia constants are drawn here,
    in that order.

    The model is built without ``PowerGridModel.__post_init__`` (fields set
    directly, ``metadata`` empty, the coupling cached); the draw proves each
    check it skips:

    - shapes: ``y``, ``theta`` are n x n, the vectors drawn with ``size=n``;
    - finite entries: uniform draws, constants and the flow of those;
    - ``y >= 0``: ``uniform(0.5, 2.0)`` lines, ``uniform(0.0, 1.0)`` diagonal;
    - symmetric ``y``: each line sets ``y[a, b]`` and ``y[b, a]`` together;
    - positive voltages, inertias: ``uniform(0.95, 1.05)``, ``uniform(0.5, 2.0)``;
    - ``d >= 0``: ``uniform(0.1, 2.0)`` or zeros; ``omega_s`` is 1.0;
    - connected: the lines include a spanning path over ``rng.permutation(n)``.

    The residual ``p_mech - flow(delta)`` is 0.0: one flow of one coupling.
    """
    voltage = rng.uniform(0.95, 1.05, size=y.shape[0])
    inertia = rng.uniform(0.5, 2.0, size=y.shape[0])
    coupling = swing._coupling_matrix(voltage, y, theta)
    model = object.__new__(swing.PowerGridModel)
    vars(model).update(y_mag=y, theta=theta, voltage=voltage,
                       p_mech=swing._flow(coupling, delta), inertia_const=inertia,
                       damping_coeff=d, omega_s=1.0, metadata={}, _coupling=coupling)
    return model, swing.GridEquilibrium(delta0=delta, residual=0.0,
                                        in_omega=model.in_omega(delta))


def random_lossless_grid(rng, n, gamma_profile="positive"):
    """Connected lossless model with an equilibrium in the admissible set.

    Angles are drawn first and the mechanical powers set to the resulting
    flow, so the drawn angles are an exact equilibrium.  ``gamma_profile``
    is ``"positive"`` (every generator damped), ``"one_undamped"`` or
    ``"undamped"``; any other raises AssumptionViolated before a draw.
    """
    if gamma_profile not in ("positive", "one_undamped", "undamped"):
        raise AssumptionViolated("damping profile", f"unknown profile {gamma_profile!r}")
    # random connected graph: a spanning path plus extra edges
    y = np.zeros((n, n))
    order = rng.permutation(n)
    y[order[:-1], order[1:]] = y[order[1:], order[:-1]] = rng.uniform(0.5, 2.0, size=n - 1)
    for _ in range(rng.integers(0, n)):
        a, b = rng.integers(0, n, size=2)
        if a != b and y[a, b] == 0:
            y[a, b] = y[b, a] = rng.uniform(0.5, 2.0)
    theta = np.full((n, n), math.pi / 2)
    np.fill_diagonal(theta, -math.pi / 2)
    delta = rng.uniform(-0.3, 0.3, size=n)
    d = np.zeros(n) if gamma_profile == "undamped" else rng.uniform(0.1, 2.0, size=n)
    if gamma_profile == "one_undamped":
        d[rng.integers(0, n)] = 0.0
    return _grid_at(rng, y, theta, d, delta)


def random_lossy_grid(rng, n):
    """Connected lossy model whose equilibrium lies in the admissible set.

    Line angles are chosen so that both directed phase angles
    ``theta - delta_j + delta_k`` stay inside (0, pi).
    """
    delta = rng.uniform(-0.1, 0.1, size=n)
    y = np.zeros((n, n))
    theta = np.zeros((n, n))
    order = rng.permutation(n)
    a, b = order[:-1], order[1:]
    if n == 3 and rng.random() < 0.5:
        a, b = np.append(a, order[0]), np.append(b, order[2])
    # one (magnitude, angle) pair per line; both directed angles stay interior
    lines = rng.uniform([0.5, 0.5], [2.0, math.pi - 0.5], size=(a.size, 2))
    y[a, b] = y[b, a] = lines[:, 0]
    theta[a, b] = theta[b, a] = lines[:, 1]
    diag = rng.uniform([0.0, -math.pi / 2 + 1e-3], [1.0, -0.8], size=(n, 2))
    np.fill_diagonal(y, diag[:, 0])
    np.fill_diagonal(theta, diag[:, 1])
    d = rng.uniform(0.1, 2.0, size=n)
    d[rng.integers(0, n)] = 0.0
    return _grid_at(rng, y, theta, d, delta)


# -- suites -----------------------------------------------------------------


def _suite(name, seed, trials, draw, failures, decide):
    """The :class:`SuiteResult` of ``trials`` instances ``draw(rng)``, decided
    per size by :func:`_by_size`; ``failures(verdict, *instance)`` gives an
    instance's failure payloads.
    """
    rng = np.random.default_rng(seed)
    instances = [draw(rng) for _ in range(trials)]
    result = SuiteResult(name, trials)
    for k, (inst, verdict) in enumerate(zip(instances, _by_size(instances, decide))):
        for payload in failures(verdict, *inst):
            result.record(trial=k, **payload)
    return result


def _by_size(instances, decide):
    """Verdicts of ``decide`` on ``instances``, in order, with one call per
    matrix size.

    Each instance is a tuple whose first item is an n-by-n matrix or a grid
    model of n generators.  The instances of one n are passed item by
    item: arrays stacked, other items as lists.  ``decide`` returns one
    verdict per member.
    """
    groups = {}
    for i, inst in enumerate(instances):
        n = inst[0].n if isinstance(inst[0], swing.PowerGridModel) else inst[0].shape[-1]
        groups.setdefault(n, []).append(i)
    verdicts = [None] * len(instances)
    for idx in groups.values():
        columns = [np.stack(members) if isinstance(members[0], np.ndarray) else list(members)
                   for members in zip(*(instances[i] for i in idx))]
        for i, verdict in zip(idx, decide(*columns)):
            verdicts[i] = verdict
    return verdicts


def _errors_recorded(decide):
    """``decide`` for suites that record errors: when a stack raises, each
    member is decided again alone, as a stack of one, and the error of a
    lone member is its verdict."""
    def run(*columns):
        try:
            return decide(*columns)
        except Exception as exc:
            if len(columns[0]) == 1:
                return [exc]
            return [next(iter(run(*(c[k:k + 1] for c in columns))))
                    for k in range(len(columns[0]))]
    return run


def suite_pencil_vs_jacobian(seed=DEFAULT_SEED, trials=200):
    """Pencil roots equal the eigenvalues of the companion Jacobian (and the
    spectrum is closed under conjugation)."""
    def draw(rng):
        n = int(rng.integers(2, 7))
        return _spd(rng, n), rng.normal(size=(n, n)), rng.normal(size=(n, n))
    def decide(m, d, l):
        pencil = QuadraticPencil(m, d, l).eigenvalues()  # checks the rank of M once
        return zip(pencil, np.linalg.eigvals(_solved_jacobian(m, d, l)))
    def failures(spectra, m, d, l):
        pencil, direct = spectra
        dist = matching_distance(pencil, direct)
        scale = val.spectral_scale(direct)
        conj_dist = matching_distance(direct, np.conj(direct))
        if dist > 1e-8 * scale or conj_dist > 1e-8 * scale:
            yield dict(m=m, d=d, l=l, distance=dist, conj_distance=conj_dist)
    return _suite("pencil_vs_jacobian", seed, trials, draw, failures, decide)


def suite_undamped_map(seed=DEFAULT_SEED, trials=200):
    """Square-root map between sigma(-M^-1 L) and the undamped spectrum."""
    def draw(rng):
        n = int(rng.integers(2, 7))
        return _spd(rng, n), _sym(rng, n)
    def failures(verdict, m, l):
        if isinstance(verdict, Exception):  # TheoremViolation carries the mismatch
            yield dict(m=m, l=l, error=str(verdict))
    return _suite("undamped_map", seed, trials, draw, failures,
                  decide=_errors_recorded(
                      lambda m, l: zip(*stability.undamped_spectral_map(m, l))))


def suite_referenced_spectrum(seed=DEFAULT_SEED, trials=200):
    """Reference-bus reduction: same nonzero spectrum, inertia loses one zero."""
    def decide(models, eqs):
        full = swing._second_order(models).jacobian_at([eq.delta0 for eq in eqs])
        reduced = np.stack([model.referenced(eq).jacobian() for model, eq in zip(models, eqs)])
        return zip(np.linalg.eigvals(full), np.linalg.eigvals(reduced))
    def failures(spectra, model, eq):
        full, reduced = spectra
        full_report = classify_spectrum(full)
        red_report = classify_spectrum(reduced)
        band = axis_band(full_report.scale)
        dist = matching_distance(full[~structural_zero(full, band)],
                                 reduced[~structural_zero(reduced, band)])
        left, axis, right = full_report.inertia
        inertia_ok = red_report.inertia == (left, axis - 1, right)  # one zero fewer
        if dist > 1e-7 * full_report.scale or not inertia_ok:
            yield dict(n=model.n, distance=dist, full_inertia=list(full_report.inertia),
                       reduced_inertia=list(red_report.inertia))
    return _suite("referenced_spectrum", seed, trials,
                  lambda rng: random_lossless_grid(rng, int(rng.integers(2, 7))),
                  failures, decide)


def suite_rank_monotonicity(seed=DEFAULT_SEED, trials=2000):
    """PSD imaginary perturbations never lower the rank of A + iD."""
    def draw(rng):
        n = int(rng.integers(1, 9))
        style = rng.integers(0, 4)
        if style == 0:
            a = _sym(rng, n)
            d = _psd(rng, n, rank=int(rng.integers(0, n + 1)))
        elif style == 1:
            # graph-Laplacian-like A: zero row sums, so A + iD is often
            # rank deficient when D shares the kernel
            a = _sym(rng, n)
            a -= np.diag(a.sum(axis=1))
            d = _psd(rng, n, rank=int(rng.integers(0, n)))
        elif style == 2:
            # common kernel by construction
            r = int(rng.integers(0, n))
            basis = np.linalg.qr(rng.normal(size=(n, max(r, 1))))[0][:, :r]
            a = basis @ _sym(rng, r) @ basis.T if r else np.zeros((n, n))
            d = basis @ _psd(rng, r) @ basis.T if r else np.zeros((n, n))
        else:
            a = np.zeros((n, n))
            d = _psd(rng, n, rank=int(rng.integers(0, n + 1)))
        return a, d, _psd(rng, n, rank=int(rng.integers(0, n + 1)))
    return _suite(
        "rank_monotonicity", seed, trials, draw,
        lambda ok, a, d, e: () if ok else [dict(a=a, d=d, e=e)],
        decide=rank_monotonicity_holds,
    )


def _nonsingular_s(rng):
    """S complex symmetric of PSD imaginary part; a candidate with
    ``sigma_min(S) < 1e-8`` is dropped and drawn again."""
    while True:
        n = int(rng.integers(1, 9))
        s = _sym(rng, n) + 1j * _psd(rng, n)
        if np.linalg.svd(s, compute_uv=False)[-1] >= 1e-8:
            return s


def suite_imag_duality(seed=DEFAULT_SEED, trials=1000):
    """Im(S) PSD iff Im(S^-1) NSD for nonsingular complex symmetric S."""
    return _suite(
        "imag_duality", seed, trials, lambda rng: (_nonsingular_s(rng),),
        lambda flags, s: () if flags.all() else [
            dict(s=s, flags=[bool(f) for f in flags])],
        decide=lambda s: np.stack(check_inverse_imag_duality(s), axis=-1),
    )


def suite_imag_updates(seed=DEFAULT_SEED, trials=1000):
    """Rank-one and PSD imaginary updates keep S nonsingular."""
    def draw(rng):
        s = _nonsingular_s(rng)
        n = len(s)
        return s, rng.normal(size=n), _psd(rng, n, rank=int(rng.integers(0, n + 1)))
    def decide(s, v, e):
        base = UpdateBase(s)
        return np.stack([rank_one_imag_update_nonsingular(base, v),
                         psd_imag_update_nonsingular(base, e)], axis=-1)
    return _suite(
        "imag_updates", seed, trials, draw,
        lambda oks, s, v, e: () if oks.all() else [
            dict(s=s, v=v, e=e, rank_one=bool(oks[0]), psd=bool(oks[1]))],
        decide=decide,
    )


def suite_observability_equivalence(seed=DEFAULT_SEED, trials=500):
    """Symmetric setting: hyperbolic iff the damping pair is observable.

    The symmetric observability verdict inside ``hyperbolicity_symmetric``
    is also checked against the PBH test, witness count by witness count;
    the PBH reference runs per trial.
    """
    def draw(rng):
        n = int(rng.integers(2, 7))
        return _spd(rng, n), _spd(rng, n), _psd(rng, n, rank=int(rng.integers(0, n + 1)))
    def decide(m, l, d):
        return stability.hyperbolicity_symmetric(
            stability.SecondOrderSystem.linear(m, d, l), np.zeros(m.shape[-1]))
    def failures(verdict, m, l, d):
        if isinstance(verdict, Exception):
            yield dict(m=m, d=d, l=l, error=str(verdict))
            return
        pbh = stability.observability_test(np.linalg.solve(m, l), np.linalg.solve(m, d))
        if len(pbh.witnesses) != len(verdict.observability.witnesses):
            yield dict(m=m, d=d, l=l, error="symmetric and PBH observability disagree")
    return _suite("observability_equivalence", seed, trials, draw, failures,
                  decide=_errors_recorded(decide))


def suite_damping_monotonicity(seed=DEFAULT_SEED, trials=500):
    """More PSD damping never enlarges the imaginary-axis eigenvalue set."""
    def draw(rng):
        n = int(rng.integers(2, 7))
        m = _sym(rng, n) + np.eye(n) * 0.1  # symmetric nonsingular, sign-free
        if abs(np.linalg.det(m)) < 1e-6:
            m += 0.5 * np.eye(n)
        l = _sym(rng, n)
        d1 = _psd(rng, n, rank=int(rng.integers(0, n + 1)))
        return m, l, d1, d1 + _psd(rng, n, rank=int(rng.integers(0, n + 1)))
    def decide(m, l, d1, d2):
        first = stability.SecondOrderSystem.linear(m, d1, l)
        return stability.monotonicity_compare(first, first.with_damping(d2),
                                              np.zeros(m.shape[-1]))
    def failures(report, m, l, d1, d2):
        if not (report.damping_increase_psd and report.subset_holds):
            yield dict(m=m, l=l, d1=d1, d2=d2,
                       axis_first=report.axis_set_first,
                       axis_second=report.axis_set_second)
    return _suite("damping_monotonicity", seed, trials, draw, failures, decide)


def suite_full_damping_stability(seed=DEFAULT_SEED, trials=500):
    """SPD inertia, damping and stiffness force a strictly stable spectrum."""
    def draw(rng):
        n = int(rng.integers(1, 9))
        return _spd(rng, n), _spd(rng, n, ridge=0.05), _spd(rng, n)
    return _suite(
        "full_damping_stability", seed, trials, draw,
        lambda ok, m, d, l: () if ok else [dict(m=m, d=d, l=l)],
        decide=stability.asymptotic_stability_full_damping,
    )


def suite_small_grid_hyperbolicity(seed=DEFAULT_SEED, trials=500):
    """Lossy 2- and 3-generator grids with one undamped generator stay
    hyperbolic beyond the structural zero."""
    def failures(ok, model, eq):
        if isinstance(ok, Exception):
            yield dict(n=model.n, error=str(ok))
        elif not ok:
            yield dict(n=model.n, y=model.y_mag, theta=model.theta,
                       volt=model.voltage, pm=model.p_mech, inertia=model.inertia_const,
                       damping=model.damping_coeff, delta0=eq.delta0)
    return _suite("small_grid_hyperbolicity", seed, trials,
                  lambda rng: random_lossy_grid(rng, int(rng.integers(2, 4))),
                  failures, decide=_errors_recorded(swing.small_n_hyperbolicity_check))


def suite_undamped_pair_family(seed=DEFAULT_SEED, peers=range(2, 7)):
    """The two-undamped-generator family always carries its imaginary pair.

    The builder checks the pair on the Jacobian spectrum; the suite checks
    it apart from that, as a root of the pencil: the smallest singular
    value of ``P(i beta)`` relative to ``residual_scale(i beta)`` must stay
    within ``1e-8``; ``P(-i beta)`` is its conjugate, with the same singular
    values.

    It runs a fixed family of peer counts, not random trials, so it keeps
    its own loop and records the peer count ``n`` instead of a trial index.
    """
    rng = np.random.default_rng(seed)
    peers = list(peers)
    result = SuiteResult("undamped_pair_family", len(peers))
    for n in peers:
        d_tail = rng.uniform(0.1, 2.0, size=n - 1)
        try:
            m, d, l = swing.build_nonhyperbolic_family(n, d_tail)
        except Exception as exc:
            result.record(n=n, error=str(exc))
            continue
        lam = 1j * math.sqrt(1.0 + 1.0 / n)
        pencil = QuadraticPencil(m, d, l)
        smin = np.linalg.svd(pencil.evaluate(lam), compute_uv=False)[-1]
        err = smin / pencil.residual_scale(lam)
        if err > 1e-8:
            result.record(n=n, error=float(err))
    return result


def suite_lossless_criterion(seed=DEFAULT_SEED, trials=300):
    """Lossless grids: imaginary pair iff the damping pair is unobservable."""
    def draw(rng):
        n = int(rng.integers(2, 6))
        profile = "positive" if rng.random() < 0.7 else "one_undamped"
        return (*random_lossless_grid(rng, n, gamma_profile=profile), profile)
    def failures(verdict, model, eq, profile):
        if isinstance(verdict, Exception):
            yield dict(n=model.n, error=str(verdict))
        elif profile == "positive" and verdict.imaginary_pair_exists:
            yield dict(n=model.n, error="pair under full damping")
    return _suite("lossless_criterion", seed, trials, draw, failures,
                  decide=_errors_recorded(
                      lambda models, eqs, _: swing.lossless_imaginary_criterion(models, eqs)))


def suite_safe_damping_region(seed=DEFAULT_SEED, trials=500):
    """PSD-increasing damping paths from a hyperbolic point never cross.

    Each path starts stable (SPD damping at gamma = 0) and keeps
    ``det J = det(M^-1 L) > 0``, so it crosses the axis exactly when it is
    not stable at some parameter.  A path fails at the samples ``gammas``
    of gamma = 0, 0.25, ..., 2 where an eigenvalue lies in or right of the
    axis band of the path's samples.  The paths of one n give one rank
    check of their inertias, one stack ``(paths, 9, n, n)`` of damping
    matrices, one solve for their Jacobians and one ``eigvals`` call.
    """
    def draw(rng):
        n = int(rng.integers(2, 5))
        m = _spd(rng, n)
        l = _spd(rng, n)
        d0 = _spd(rng, n, ridge=0.05)  # SPD start: hyperbolic by stability
        g = rng.normal(size=(n, n))
        return m, l, d0, g.T @ g
    def unstable(m, l, d0, growth):
        if not val.every(numerical_rank(m) == m.shape[-1]):
            raise SingularInertia("inertia matrix is numerically singular")
        gammas = np.linspace(0.0, 2.0, 9)
        d = d0[:, None] + gammas[:, None, None] * growth[:, None]
        eigs = np.linalg.eigvals(_solved_jacobian(*np.broadcast_arrays(m[:, None], d, l[:, None])))
        band = axis_band(np.maximum(1.0, np.abs(eigs).max(axis=(1, 2))))
        return [gammas[hit] for hit in (eigs.real >= -band[:, None, None]).any(axis=2)]
    return _suite(
        "safe_damping_region", seed, trials, draw,
        lambda gammas, m, l, d0, growth: [
            dict(m=m, l=l, d0=d0, growth=growth, gammas=gammas)
        ] if gammas.size else (),
        decide=unstable,
    )


def suite_flow_jacobian_fd(seed=DEFAULT_SEED, trials=100):
    """Analytic flow Jacobian agrees with central finite differences."""
    def draw(rng):
        n = int(rng.integers(2, 6))
        model, eq = (random_lossy_grid(rng, min(n, 3)) if rng.random() < 0.5
                     else random_lossless_grid(rng, n))
        return model, eq.delta0 + rng.uniform(-0.05, 0.05, size=model.n)
    def decide(models, deltas):
        return [(model.flow_jacobian(delta),
                 np.stack([hopf._central(model.flow, delta, 1e-6, e_i)
                           for e_i in np.eye(model.n)], axis=1))
                for model, delta in zip(models, deltas)]
    def failures(jacobians, model, delta):
        jac, fd = jacobians
        err = np.abs(jac - fd).max()
        if err > 1e-6 * max(1.0, np.abs(jac).max()):
            yield dict(error=float(err))
        rowsum = np.abs(jac.sum(axis=1)).max()
        if rowsum > 1e-12 * max(1.0, np.abs(jac).max()):
            yield dict(rowsum=float(rowsum))
    return _suite("flow_jacobian_fd", seed, trials, draw, failures, decide)


def suite_fold_exclusion(seed=DEFAULT_SEED, trials=200):
    """Zero is a Jacobian eigenvalue iff the stiffness matrix is singular,
    independent of damping."""
    def draw(rng):
        n = int(rng.integers(2, 7))
        m = _spd(rng, n)
        singular = bool(rng.integers(0, 2))
        if singular:
            l = _sym(rng, n)
            l -= np.diag(l.sum(axis=1))  # zero row sums
        else:
            l = _spd(rng, n)
        return m, singular, l, _psd(rng, n, rank=int(rng.integers(0, n + 1)))
    def failures(eigs, m, singular, l, d):
        has_zero = structural_zero(eigs, axis_band(val.spectral_scale(eigs))).any()
        if has_zero != singular:
            yield dict(m=m, d=d, l=l, has_zero=bool(has_zero), singular=singular)
    return _suite("fold_exclusion", seed, trials, draw, failures,
                  decide=lambda m, singular, l, d: np.linalg.eigvals(jacobian_2n(m, d, l)))


#: Every ``suite_<name>`` above, by name, in the order they are defined.
SUITES = {name.removeprefix("suite_"): fn for name, fn in globals().items()
          if name.startswith("suite_")}


def run_all(seed=DEFAULT_SEED, scale=1.0):
    """Run every suite with trial counts scaled by ``scale``; returns results in order."""
    import inspect

    results = []
    for fn in SUITES.values():
        trials = inspect.signature(fn).parameters.get("trials")
        results.append(fn(seed=seed) if trials is None
                       else fn(seed=seed, trials=max(1, int(trials.default * scale))))
    return results
