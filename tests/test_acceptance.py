"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <id>: PASS/FAIL`` line (run with ``-s`` to
see them as they happen; they also appear in captured output).  Criteria
with stated runtime limits assert the elapsed wall time.
"""

import math
import time

import numpy as np
import pytest

from damplab import hopf, perturbation, simulate, stability, suites, swing
from damplab.errors import CycleNotFound
from damplab.linalg import jacobian_2n, matching_distance
from conftest import OMEGA_CASE1, sampled


def report(tag, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {tag}: {status}{suffix}")
    assert ok, f"criterion {tag} failed{suffix}"


@pytest.fixture(scope="module")
def case2_cycle_025():
    """Unstable cycle of the lossy two-machine system at gamma = 0.25."""
    model = swing.demo_lossy_two_machine(0.25)
    eq = model.equilibrium_at(np.array([1.4905, 0.0]))
    ref = model.referenced(eq)
    eigs, vecs = np.linalg.eig(ref.jacobian())
    r0 = vecs[:, np.argmax(eigs.imag)]
    x_eq = ref.equilibrium_state
    section = simulate.hopf_section(x_eq, r0)
    seed = x_eq + 0.05 * np.real(r0) / np.linalg.norm(np.real(r0))
    cycle = simulate.poincare_cycle_search(
        ref.rhs, section, seed, equilibrium=x_eq
    )
    return ref, x_eq, cycle


def test_criterion_01_case1_axis_pair(case1):
    start = time.time()
    model, eq = case1
    eigs = np.linalg.eigvals(model.to_second_order().jacobian_at(eq.delta0))
    err = max(
        np.abs(eigs - 1j * OMEGA_CASE1).min(),
        np.abs(eigs + 1j * OMEGA_CASE1).min(),
    )
    elapsed = time.time() - start
    report("1", err <= 1e-8 and elapsed < 1.0,
           f"pair error {err:.2e}, {elapsed:.2f}s")


def test_criterion_02_case1_transversality(case1_path):
    cert = hopf.hopf_conditions(
        case1_path, 0.0, omega_hint=OMEGA_CASE1, boundary=True,
        compute_l1=False,
    )
    value = cert.transversality
    ok = abs(abs(value) - 0.5) <= 1e-4 and abs(value) > 0
    report("2", ok, f"crossing-pair drift {value:+.6f}")


def test_criterion_03_case1_lyapunov(case1_path):
    start = time.time()
    cert = hopf.hopf_conditions(
        case1_path, 0.0, omega_hint=OMEGA_CASE1, boundary=True
    )
    elapsed = time.time() - start
    ok = (
        abs(cert.l1 - (-1.7e-3)) <= 3e-4
        and cert.kind == hopf.SUPERCRITICAL
        and elapsed < 10.0
    )
    report("3", ok, f"l1 = {cert.l1:.6g}, {cert.kind}, {elapsed:.2f}s")


def test_criterion_04_case2_hopf_location(case2_path):
    # The frequency route, then the sampled route on the same path.
    for route, path in (("frequency", case2_path), ("sampled", sampled(case2_path))):
        crossings = hopf.track_axis_crossing(path, samples=21)
        ok = len(crossings) == 1 and abs(crossings[0].gamma - 0.200) <= 1e-3
        detail = f"gamma0 = {crossings[0].gamma:.6f}" if crossings else "no crossing"
        report("4", ok, f"{route} route, {detail}")


def test_criterion_05_case2_subcritical_cycle(case2_path, case2_cycle_025):
    start = time.time()
    crossings = hopf.track_axis_crossing(case2_path, samples=21)
    cert = hopf.hopf_conditions(
        case2_path, crossings[0].gamma, omega_hint=crossings[0].omega
    )
    parts = {
        "l1": abs(cert.l1 - 1.15) <= 0.12,
        "kind": cert.kind == hopf.SUBCRITICAL,
    }

    ref, x_eq, cycle = case2_cycle_025
    parts["unstable cycle"] = (
        cycle.stability_hint == simulate.EXPANDING
        and cycle.return_error <= 1e-8 * (1 + np.linalg.norm(cycle.anchor_state))
    )
    inside = x_eq + 0.5 * (cycle.anchor_state - x_eq)
    outside = x_eq + 1.05 * (cycle.anchor_state - x_eq)
    traj_in = simulate.integrate(ref.rhs, inside, (0.0, 150.0))
    traj_out = simulate.integrate(ref.rhs, outside, (0.0, 40.0))
    parts["inside spiral_in"] = (
        simulate.classify_orbit(traj_in, x_eq) == simulate.SPIRAL_IN
    )
    parts["outside spiral_out"] = (
        simulate.classify_orbit(traj_out, x_eq) == simulate.SPIRAL_OUT
    )
    elapsed = time.time() - start
    parts["runtime < 60 s"] = elapsed < 60.0
    detail = (
        f"l1 = {cert.l1:.4f}, cycle period {cycle.period:.3f}, "
        f"amplitude {cycle.amplitude:.4f}, {elapsed:.1f}s"
    )
    report("5 (cycle at 0.25)", all(parts.values()),
           detail + "; " + ", ".join(k for k, v in parts.items() if not v))


def _case2_at(gamma):
    """Referenced case2 model, equilibrium state and Hopf section at gamma."""
    model = swing.demo_lossy_two_machine(gamma)
    eq = model.equilibrium_at(np.array([1.4905, 0.0]))
    ref = model.referenced(eq)
    eigs, vecs = np.linalg.eig(ref.jacobian())
    r0 = vecs[:, np.argmax(eigs.imag)]
    x_eq = ref.equilibrium_state
    return model, eq, ref, x_eq, r0, simulate.hopf_section(x_eq, r0)


def test_criterion_05_amplitude_growth_to_gamma_035(case2_cycle_025):
    # Growth of the unstable cycle as gamma rises to 0.35.  Continued from
    # 0.25 through 0.31 and 0.33 the cycle widens (amplitude 0.336 -> 0.573
    # -> 0.666), slows down and closes in on the frequency-drift saddle of
    # the referenced model (distance 0.575 -> 0.239 -> 0.116; the saddle
    # lies about 0.77 from the equilibrium).  The branch ends in a
    # homoclinic connection with that saddle at gamma_h = 0.3426, where one
    # branch of the saddle's unstable manifold switches from a pole slip to
    # capture by the equilibrium.  Past gamma_h no cycle surrounds the
    # equilibrium, so the cycle search at 0.35 still runs from both seeds
    # and any cycle it finds there contradicts the computed connection.
    ref25, x_eq25, cycle25 = case2_cycle_025
    saddle_guess = np.array([1.8, -0.5, -0.5])

    def saddle_distance(ref, cycle):
        saddle = ref.drift_equilibrium(saddle_guess)
        orbit = simulate.integrate(ref.rhs, cycle.anchor_state,
                                   (0.0, cycle.period))
        return float(np.linalg.norm(orbit.states - saddle, axis=1).min())

    branch = [(cycle25, saddle_distance(ref25, cycle25))]
    for gamma in (0.31, 0.33):
        _, _, ref, x_eq, _, section = _case2_at(gamma)
        cycle = simulate.poincare_cycle_search(
            ref.rhs, section, branch[-1][0].anchor_state, equilibrium=x_eq,
        )
        branch.append((cycle, saddle_distance(ref, cycle)))
    amplitudes = [c.amplitude for c, _ in branch]
    periods = [c.period for c, _ in branch]
    distances = [d for _, d in branch]

    model, eq, ref, x_eq, r0, section = _case2_at(0.35)
    end = swing.locate_homoclinic(
        model, eq, lambda g: np.array([g, 1.0]), (0.33, 0.35), saddle_guess,
    )
    unstable = end.saddle_eigenvalues[end.saddle_eigenvalues.real > 0]

    amplitude_035 = None
    for seed in (
        cycle25.anchor_state,  # continuation seed from the 0.25 cycle
        x_eq + 0.05 * np.real(r0) / np.linalg.norm(np.real(r0)),
    ):
        try:
            cycle = simulate.poincare_cycle_search(
                ref.rhs, section, seed, equilibrium=x_eq,
            )
        except CycleNotFound:
            continue
        amplitude_035 = cycle.amplitude
        break

    parts = {
        "amplitude grows": amplitudes[0] < amplitudes[1] < amplitudes[2],
        "period grows": periods[0] < periods[1] < periods[2],
        "nears saddle": distances[0] > distances[1] > distances[2],
        "gamma_h": 0.33 < end.gamma_h < 0.35
        and abs(end.gamma_h - 0.3426) <= 1e-3,
        "saddle": unstable.size == 1 and unstable[0].imag == 0
        and end.saddle_quantity > 0,
        "slip at 0.33": end.fate_low == swing.POLE_SLIP,
        "captured at 0.35": end.fate_high == swing.CAPTURED,
        "no cycle at 0.35": amplitude_035 is None,
    }
    detail = (
        "amplitude(0.25, 0.31, 0.33) = "
        + ", ".join(f"{a:.4f}" for a in amplitudes)
        + "; saddle distance = "
        + ", ".join(f"{d:.4f}" for d in distances)
        + f"; gamma_h = {end.gamma_h:.5f}, "
        f"saddle quantity {end.saddle_quantity:.4f}; "
        f"amplitude(0.35) = {amplitude_035}"
    )
    report("5 (growth to 0.35)", all(parts.values()),
           detail + "; " + ", ".join(k for k, v in parts.items() if not v))


def test_criterion_06_rank_monotonicity_suite():
    start = time.time()
    result = suites.suite_rank_monotonicity(seed=suites.DEFAULT_SEED,
                                            trials=2000)
    # sharpness: the unsymmetric pair violates the inequality under bypass
    s_unsym = np.array([[1 + 1j, math.sqrt(2)], [-math.sqrt(2), -1.0]])
    violated = not perturbation.rank_monotonicity_holds(
        s_unsym.real, s_unsym.imag, np.diag([0.0, 1.0]), check=False)
    elapsed = time.time() - start
    ok = result.passed and violated and elapsed < 30.0
    report("6", ok, f"{result.trials} trials, bypass violation {violated}, "
                    f"{elapsed:.1f}s")


def test_criterion_07_observability_equivalence_suite():
    start = time.time()
    result = suites.suite_observability_equivalence(
        seed=suites.DEFAULT_SEED, trials=500
    )
    elapsed = time.time() - start
    report("7", result.passed and elapsed < 30.0,
           f"{result.trials} trials, {elapsed:.1f}s")


def test_criterion_08_damping_monotonicity_suite():
    result = suites.suite_damping_monotonicity(seed=suites.DEFAULT_SEED,
                                               trials=500)
    # sharpness: the unsymmetric example gains the pair +-i on extra damping
    l_unsym = np.array([[2.0, math.sqrt(2)], [-math.sqrt(2), 0.0]])
    first = stability.SecondOrderSystem.linear(
        np.eye(2), np.diag([1.0, 0.0]), l_unsym
    )
    second = first.with_damping(np.eye(2))
    cmp = stability.monotonicity_compare(first, second, np.zeros(2),
                                         check=False)
    counterexample = (
        cmp.damping_increase_psd
        and not cmp.subset_holds
        and len(cmp.axis_set_first) == 0
        and matching_distance(cmp.axis_set_second, [1j, -1j]) < 1e-9
    )
    report("8", result.passed and counterexample,
           f"{result.trials} trials, counterexample {counterexample}")


def test_criterion_09_spectral_identities():
    pencil = suites.suite_pencil_vs_jacobian(seed=suites.DEFAULT_SEED,
                                             trials=200)
    undamped = suites.suite_undamped_map(seed=suites.DEFAULT_SEED, trials=200)
    referenced = suites.suite_referenced_spectrum(seed=suites.DEFAULT_SEED,
                                                  trials=200)
    ok = pencil.passed and undamped.passed and referenced.passed
    report("9", ok, "pencil/undamped/referenced suites, 200 trials each")


def test_criterion_10_full_damping_stability_suite():
    result = suites.suite_full_damping_stability(seed=suites.DEFAULT_SEED,
                                                 trials=500)
    report("10", result.passed, f"{result.trials} trials")


def test_criterion_11_small_grid_and_family():
    result = suites.suite_small_grid_hyperbolicity(seed=suites.DEFAULT_SEED,
                                                   trials=500)
    family_ok = True
    for n in range(2, 7):
        m, d, l = swing.build_nonhyperbolic_family(n, 0.5 + np.arange(n - 1))
        beta = math.sqrt(1.0 + 1.0 / n)
        eigs = np.linalg.eigvals(jacobian_2n(m, d, l))
        err = max(np.abs(eigs - 1j * beta).min(),
                  np.abs(eigs + 1j * beta).min())
        family_ok = family_ok and err <= 1e-8
    report("11", result.passed and family_ok,
           f"{result.trials} lossy grids, family pairs to 1e-8: {family_ok}")


def test_criterion_12_qualitative_orbit_classes(case1, case2_cycle_025):
    # Point-wise figure reproduction is out of reach (initial conditions and
    # parameter grids unpublished); the qualitative orbit classes around
    # both demo systems stand in for it.
    model, eq = case1
    ref1 = model.referenced(eq)
    x_eq1 = ref1.equilibrium_state
    kick = np.zeros(5)
    kick[:2] = [1.0, -1.0]
    x0 = x_eq1 + 0.02 * kick / np.linalg.norm(kick)
    traj = simulate.integrate(ref1.rhs, x0, (0.0, 120.0))
    neutral_ok = simulate.classify_orbit(traj, x_eq1) == simulate.NEAR_PERIODIC

    ref2, x_eq2, cycle = case2_cycle_025
    inside = x_eq2 + 0.5 * (cycle.anchor_state - x_eq2)
    outside = x_eq2 + 1.05 * (cycle.anchor_state - x_eq2)
    in_ok = (
        simulate.classify_orbit(
            simulate.integrate(ref2.rhs, inside, (0.0, 150.0)), x_eq2
        )
        == simulate.SPIRAL_IN
    )
    out_ok = (
        simulate.classify_orbit(
            simulate.integrate(ref2.rhs, outside, (0.0, 40.0)), x_eq2
        )
        == simulate.SPIRAL_OUT
    )
    report("12", neutral_ok and in_ok and out_ok,
           f"neutral {neutral_ok}, inside {in_ok}, outside {out_ok}")
