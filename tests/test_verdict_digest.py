import dataclasses
import re
from types import SimpleNamespace

import numpy as np

from damplab import linalg, stability, suites, swing

import verdict_digest


def test_seed_line_is_reproducible():
    line = verdict_digest.seed_line(1, scale=0.05)
    assert line.startswith("seed 1: ")
    assert verdict_digest.seed_line(1, scale=0.05) == line


def test_main_runs_the_given_seeds_and_reports_the_time(monkeypatch, capsys):
    monkeypatch.setattr(verdict_digest, "seed_line", lambda seed: f"seed {seed}: pass")
    assert verdict_digest.main(["3", "5"]) == 0
    out, err = capsys.readouterr()
    assert out == "seed 3: pass\nseed 5: pass\n"
    assert re.fullmatch(r"\d+\.\d s\n", err)
    verdict_digest.main([])
    assert capsys.readouterr().out.splitlines()[-1] == "seed 39: pass"


def test_seed_line_names_failing_trials(monkeypatch):
    # Flipped coupling weights make the analytic flow Jacobian disagree
    # with finite differences in every trial.
    weights = swing.PowerGridModel.weights
    monkeypatch.setattr(swing.PowerGridModel, "weights",
                        lambda model, delta: -weights(model, delta))
    monkeypatch.setattr(suites, "SUITES",
                        {"flow_jacobian_fd": suites.suite_flow_jacobian_fd})
    line = verdict_digest.seed_line(3, scale=0.03)
    assert line.startswith("seed 3: flow_jacobian_fd[0, 1, 2] sha256 ")
    assert verdict_digest.seed_line(3, scale=0.03) == line


#: ``seed_line(5, scale=0.05)`` under ``_inject_failures``.  The failing
#: trials are those the per-trial loops of each suite printed before the
#: shared suite skeleton; the recorded spectral distances are bottleneck
#: matching distances (``linalg.subset_distance``).
INJECTED_LINE = (
    "seed 5: pencil_vs_jacobian[0, 1, 2, 3, 4, 5, 7, 9] undamped_map[0, "
    "1, 5, 7, 8] referenced_spectrum[0, 2, 3, 4, 5, 6, 7, 9] "
    "rank_monotonicity[7, 20, 26, 30, 32, 34, 39, 41, 44, 47, 71, 77, 80, "
    "82, 86, 89, 94] observability_equivalence[0, 1, 2, 3, 4, 5, 6, 7, 8, "
    "9, 10, 11, 13, 14, 15, 16, 17, 18, 20, 21, 23, 24] "
    "damping_monotonicity[6, 10, 12, 14, 19, 20] "
    "full_damping_stability[0, 1, 2, 5, 6, 8, 11, 13, 15, 16, 18, 19, 21, "
    "22, 23, 24] small_grid_hyperbolicity[1, 4, 8, 10, 12, 15, 16, 18, "
    "21, 22, 23, 24] undamped_pair_family[3] lossless_criterion[1, 2, 3, "
    "4, 7, 11, 12, 14] safe_damping_region[0, 3, 4, 5, 7, 12, 17, 20, 22] "
    "flow_jacobian_fd[0, 0, 1, 1, 2, 2] fold_exclusion[0, 1] "
    "sha256 f87cd33fb00faf141e34999674d13c7d6f412659a84170ffb00ed4927d522430"
)


def _inject_failures(monkeypatch):
    """Make the checks of all suites but the two imaginary-part suites fail
    on some of their instances, picked by the instance's data, through each
    kind of payload the suites record: caught errors, false verdicts and
    the numbers behind them.  (The imaginary-part suites numbered their
    trials from 1 before the shared suite skeleton; ``tests/test_stacks.py``
    pins their payloads under failure against per-trial loops.)"""
    def wrap(owner, name, make):
        monkeypatch.setattr(owner, name, make(getattr(owner, name)))

    def fail(message):
        raise ValueError(message)

    def monotonicity(f):
        def injected(first, second, x0):
            return [dataclasses.replace(report, subset_holds=report.subset_holds and m00 < 0.5)
                    for report, m00 in zip(f(first, second, x0), first.inertia[..., 0, 0])]
        return injected

    def lossless(f):
        def injected(models, eqs):
            if any(model.inertia_const[0] > 1.7 for model in models):
                fail("injected criterion")
            return [SimpleNamespace(imaginary_pair_exists=True)
                    if model.inertia_const[0] < 0.8 else verdict
                    for model, verdict in zip(models, f(models, eqs))]
        return injected

    wrap(linalg.QuadraticPencil, "eigenvalues", lambda f: lambda pencil: (
        f(pencil) + (pencil.a2[..., :1, 0] > 3.0)))
    wrap(stability, "undamped_spectral_map", lambda f: lambda m, l: (
        fail("injected map") if (m[..., 0, 0] > 3.0).any() else f(m, l)))
    wrap(swing.ReferencedGridSystem, "jacobian", lambda f: lambda system, u=None: (
        f(system, u) + 0.5 * (system.model.inertia_const[0] > 1.2)))
    wrap(suites, "rank_monotonicity_holds", lambda f: lambda a, d, e: (
        f(a, d, e) & (a[..., 0, 0] < 0.5)))
    wrap(stability, "hyperbolicity_symmetric", lambda f: lambda system, x0: (
        fail("injected verdict") if (system.inertia[..., 0, 0] > 4.0).any()
        else f(system, x0)))
    wrap(stability, "observability_test", lambda f: lambda a, b: [
        SimpleNamespace(witnesses=[None] * 7) if x[0, 0] > 3.0 else v
        for x, v in zip(a, f(a, b))])
    wrap(stability, "monotonicity_compare", monotonicity)
    wrap(stability, "asymptotic_stability_full_damping", lambda f: lambda m, d, l: (
        f(m, d, l) & (m[..., 0, 0] < 4.0)))
    wrap(swing, "small_n_hyperbolicity_check", lambda f: lambda models, eqs: (
        fail("injected check") if any(m.inertia_const[0] > 1.7 for m in models)
        else [ok and m.inertia_const[0] > 0.8 for ok, m in zip(f(models, eqs), models)]))
    wrap(swing, "build_nonhyperbolic_family", lambda f: lambda n, d_tail: (
        fail("injected family") if n == 3
        else tuple(x + 0.1 * (n == 5) for x in f(n, d_tail))))
    wrap(swing, "lossless_imaginary_criterion", lossless)
    wrap(swing.PowerGridModel, "flow_jacobian", lambda f: lambda model, delta: (
        f(model, delta) + 1e-3 * (model.inertia_const[1] > 1.2)))
    # safe_damping_region's stacks (paths, 9, n, n) gain I at sample 4,
    # gamma = 1; fold_exclusion's (trials, n, n) gain 0.5 I.
    wrap(suites, "_solved_jacobian", lambda f: lambda m, d, l: f(m, d, l) + (
        (np.arange(9)[:, None, None] == 4) * (m[..., :1, :1] > 3.0)
        * np.eye(2 * m.shape[-1]) if m.ndim == 4 else 0))
    wrap(suites, "jacobian_2n", lambda f: lambda m, d, l: f(m, d, l) + (
        0.5 * (m[..., :1, :1] > 3.0) * np.eye(2 * m.shape[-1])))


def test_failure_payload_bytes_under_injected_failures(monkeypatch):
    # The failing trials and the sha256 of their payloads are those the
    # per-trial loops recorded under the same injections.
    _inject_failures(monkeypatch)
    assert verdict_digest.seed_line(5, scale=0.05) == INJECTED_LINE

