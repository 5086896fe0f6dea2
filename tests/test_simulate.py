import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from damplab import simulate, swing
from damplab.errors import CycleNotFound, NonTransversal, StepSizeUnderflow
from conftest import case1_model


def harmonic(t, z):
    return np.array([z[1], -z[0]])


def damped(t, z):
    return np.array([z[1], -z[0] - 0.3 * z[1]])


def van_der_pol(t, z):
    # Stiff enough at mu = 5 that steps are rejected on the fast branches.
    return np.array([z[1], 5.0 * (1.0 - z[0] ** 2) * z[1] - z[0]])


def normal_form(mu, sigma):
    def rhs(t, z):
        x, y = z
        r2 = x * x + y * y
        return np.array([mu * x - y + sigma * x * r2,
                         x + mu * y + sigma * y * r2])

    return rhs


def case2_at(gamma):
    """The referenced lossy two-machine system at ``gamma``: its right-hand
    side, equilibrium state, Hopf section and a mode kick of size 0.05."""
    model = swing.demo_lossy_two_machine(gamma)
    eq = model.equilibrium_at(np.array([1.4905, 0.0]))
    ref = model.referenced(eq)
    eigs, vecs = np.linalg.eig(ref.jacobian())
    r0 = vecs[:, np.argmax(eigs.imag)]
    x_eq = ref.equilibrium_state
    kick = x_eq + 0.05 * np.real(r0) / np.linalg.norm(np.real(r0))
    return ref.rhs, x_eq, simulate.hopf_section(x_eq, r0), kick


def counted(rhs):
    """``rhs`` and a list that grows by one entry per call of it."""
    calls = []

    def wrapped(t, x):
        calls.append(t)
        return rhs(t, x)

    return wrapped, calls


def closure(rhs, cycle):
    """Relative gap after one period, integrated apart from damplab with a
    method other than its shooting method (DOP853)."""
    from scipy.integrate import solve_ivp

    anchor = cycle.anchor_state
    sol = solve_ivp(rhs, (0.0, cycle.period), anchor, method="RK45",
                    rtol=1e-12, atol=1e-14)
    return np.linalg.norm(sol.y[:, -1] - anchor) / np.linalg.norm(anchor)


def raises_value_error(call):
    """Whether ``call``, an expression over ``math``, ``simulate`` and
    ``harmonic``, raises ValueError in a fresh interpreter; a call that runs
    on for 60 s fails the test instead of stalling the run."""
    code = (
        "import math, numpy as np\nfrom damplab import simulate\n"
        "harmonic = lambda t, z: np.array([z[1], -z[0]])\n"
        f"try:\n    {call}\nexcept ValueError:\n    print('ValueError')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    return out.stdout.strip() == "ValueError"


class TestIntegrate:
    def test_energy_conservation(self):
        traj = simulate.integrate(
            harmonic, [1.0, 0.0], (0.0, 100.0), rtol=1e-9, atol=1e-12
        )
        energy = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
        assert np.abs(energy - 1.0).max() <= 1e-6

    def test_spd_system_decays(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(3, 3))
        m = g @ g.T + 0.3 * np.eye(3)
        h = rng.normal(size=(3, 3))
        d = h @ h.T + 1.0 * np.eye(3)
        k = rng.normal(size=(3, 3))
        l = k @ k.T + 1.0 * np.eye(3)

        def rhs(t, z):
            x, y = z[:3], z[3:]
            acc = np.linalg.solve(m, -(d @ y) - l @ x)
            return np.concatenate([y, acc])

        x0 = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
        traj = simulate.integrate(rhs, x0, (0.0, 200.0))
        assert np.linalg.norm(traj.final_state) < 1e-6

    def test_tolerance_scaling(self):
        # With proportional step control the global error tracks rtol.
        reference = simulate.integrate(
            harmonic, [1.0, 0.0], (0.0, 30.0), rtol=1e-12, atol=1e-14
        ).final_state
        errors = []
        for rtol in (1e-5, 1e-8):
            final = simulate.integrate(
                harmonic, [1.0, 0.0], (0.0, 30.0), rtol=rtol, atol=1e-14
            ).final_state
            errors.append(np.linalg.norm(final - reference))
        assert errors[1] < errors[0] / 20.0

    def test_zero_length_span(self):
        traj = simulate.integrate(harmonic, [1.0, 0.0], (0.0, 0.0))
        assert traj.times.shape == (1,)
        np.testing.assert_allclose(traj.states[0], [1.0, 0.0])

    def test_blowup_reports_last_state(self):
        def rhs(t, z):
            return np.array([z[0] ** 2])

        with pytest.raises(StepSizeUnderflow) as info:
            simulate.integrate(rhs, [1.0], (0.0, 2.0))
        assert info.value.last_state is not None
        assert info.value.last_time <= 2.0

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            simulate.integrate(harmonic, [1.0, 0.0], (0.0, 1.0), rtol=0.0)

    @pytest.mark.parametrize(
        "options",
        [
            dict(atol=math.inf),
            dict(t_span=(0.0, math.nan)),
            dict(t_span=(math.nan, 1.0)),
            dict(t_span=(1.0, 0.0)),
            dict(x_init=[math.nan, 0.0]),
        ],
        ids=["atol_inf", "end_nan", "start_nan", "decreasing", "state_nan"],
    )
    def test_rejects_bad_arguments(self, options):
        call = dict(x_init=[1.0, 0.0], t_span=(0.0, 1.0)) | options
        with pytest.raises(ValueError):
            simulate.integrate(harmonic, **call)

    @pytest.mark.parametrize(
        "call",
        [
            "simulate.integrate(harmonic, [1.0, 0.0], (0.0, 1.0), rtol=math.nan)",
            "simulate.integrate(harmonic, [1.0, 0.0], (0.0, 1.0), atol=math.nan)",
            "simulate.integrate(harmonic, [1.0, 0.0], (0.0, 1.0), rtol=math.inf)",
            "simulate.integrate(harmonic, [1.0, 0.0], (0.0, math.inf))",
            "simulate.poincare_cycle_search(harmonic, simulate.PoincareSection("
            "[0.0, 1.0], [0.0, 0.0]), [1.0, 0.0], rtol=math.nan)",
        ],
        ids=["rtol_nan", "atol_nan", "rtol_inf", "end_inf", "cycle_search_rtol_nan"],
    )
    def test_rejects_tolerances_that_never_end(self, call):
        # Each of these once kept the step loop running without end, so
        # each runs in a fresh interpreter with a timeout.
        assert raises_value_error(call)

    def test_section_crossings_logged(self):
        section = simulate.PoincareSection(normal=[0.0, 1.0], anchor=[0.0, 0.0])
        traj = simulate.integrate(
            harmonic, [1.0, 0.0], (0.0, 20.0), section=section
        )
        # positive crossings of y = 0 happen once per 2 pi
        assert len(traj.event_log) == 3
        times = [c.time for c in traj.event_log]
        np.testing.assert_allclose(np.diff(times), 2 * math.pi, rtol=1e-6)

    def test_case1_oscillation_frequency(self, case1):
        model, eq = case1
        ref = model.referenced(eq)
        x_eq = ref.equilibrium_state
        # kick along the undamped mode: psi-parts of (1, -1, 0)
        kick = np.zeros(5)
        kick[:2] = [1.0, -1.0]
        kick[2:] = 0.0
        x0 = x_eq + 0.02 * kick / np.linalg.norm(kick)
        traj = simulate.integrate(
            ref.rhs, x0, (0.0, 400.0), t_eval=np.linspace(0.0, 400.0, 16384)
        )
        signal = traj.states[:, 0] - x_eq[0]
        spectrum = np.abs(np.fft.rfft(signal * np.hanning(signal.size)))
        freqs = np.fft.rfftfreq(signal.size, d=400.0 / 16384)
        peak = np.argmax(spectrum)
        # parabolic interpolation around the peak bin
        if 0 < peak < spectrum.size - 1:
            a, b, c = np.log(spectrum[peak - 1 : peak + 2])
            shift = 0.5 * (a - c) / (a - 2 * b + c)
        else:
            shift = 0.0
        f_peak = freqs[peak] + shift * (freqs[1] - freqs[0])
        f_want = math.sqrt(1.5) / (2 * math.pi)
        assert abs(f_peak - f_want) <= 0.02 * f_want


def case1_kick():
    """case1's referenced flow at gamma = 0 and a 0.02 kick along the
    undamped mode (the psi-parts of (1, -1, 0))."""
    model = case1_model(0.0)
    ref = model.referenced(model.solve_equilibrium([0.1, 1.0, 1.0]))
    kick = np.zeros(5)
    kick[:2] = [1.0, -1.0]
    return ref.rhs, ref.equilibrium_state + 0.02 * kick / np.linalg.norm(kick)


def scipy_run(rhs, x0, t_span, method="RK45", rtol=simulate.RTOL,
              atol=simulate.ATOL, **options):
    """scipy's ``solve_ivp`` (RK45 at damplab's default tolerances unless
    told otherwise), with its RHS calls."""
    from scipy.integrate import solve_ivp

    rhs, calls = counted(rhs)
    sol = solve_ivp(rhs, t_span, x0, method=method, rtol=rtol, atol=atol,
                    **options)
    assert sol.success
    return sol, calls


class TestDormandPrince:
    """damplab's step loop with either pair against scipy's RK45 and DOP853."""

    @pytest.mark.parametrize(
        "method, system",
        [
            ("RK45", lambda: (*case1_kick(), (0.0, 200.0))),
            ("RK45", lambda: (case2_at(0.25)[0], case2_at(0.25)[3], (0.0, 200.0))),
            ("RK45", lambda: (harmonic, np.array([1.0, 0.0]), (0.0, 100.0))),
            ("RK45", lambda: (van_der_pol, np.array([2.0, 0.0]), (0.0, 30.0))),
            ("DOP853", lambda: (case2_at(0.25)[0], case2_at(0.25)[3],
                                (0.0, 200.0))),
            ("DOP853", lambda: (van_der_pol, np.array([2.0, 0.0]), (0.0, 30.0))),
        ],
        ids=["case1", "case2_kick", "harmonic", "van_der_pol",
             "dop853_case2_kick", "dop853_van_der_pol"],
    )
    def test_steps_equal_rk45(self, method, system):
        # RK45 steps are integrate's trajectory at its default tolerances;
        # DOP853, the shooting pair, runs at rtol 1e-10 as the manifold
        # orbits of swing.locate_homoclinic do.
        rhs, x0, t_span = system()
        tol = (simulate.RTOL, simulate.ATOL) if method == "RK45" else (1e-10, 1e-12)
        sol, scipy_calls = scipy_run(rhs, x0, t_span, method, *tol)
        rhs, calls = counted(rhs)
        if method == "RK45":
            traj = simulate.integrate(rhs, x0, t_span)
            times, states = traj.times, traj.states
        else:
            steps = list(simulate._steps(simulate.SHOOTING_METHOD, rhs,
                                         t_span[0], x0, t_span[1], *tol))
            times = np.array([t_span[0]] + [t for t, *_ in steps])
            states = np.array([x0] + [y for _, y, *_ in steps])
        assert times.size > 200
        assert np.array_equal(times, sol.t)
        assert np.array_equal(states, sol.y.T)
        assert len(calls) == len(scipy_calls)

    def test_section_crossings_match_rk45_events(self):
        rhs, _, section, kick = case2_at(0.25)

        def event(t, y):
            return section.value(y)

        event.direction = 1
        sol, _ = scipy_run(rhs, kick, (0.0, 200.0), events=[event])
        traj = simulate.integrate(rhs, kick, (0.0, 200.0), section=section)
        assert len(traj.event_log) == sol.t_events[0].size > 20
        np.testing.assert_allclose([c.time for c in traj.event_log],
                                   sol.t_events[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose([c.state for c in traj.event_log],
                                   sol.y_events[0], rtol=0, atol=1e-12)
        assert all(c.direction == 1 for c in traj.event_log)

    @pytest.mark.parametrize("amplitude, fired", [(0.05, 0), (0.6, 1)],
                             ids=["return", "escape"])
    def test_section_return_matches_dop853_events(self, amplitude, fired):
        # A launch inside the gamma = 0.25 cycle (amplitude 0.34) returns to
        # the section; one outside it reaches the escape guard first.  The
        # step loop's stops give scipy's terminal events bit for bit.
        rhs, x_eq, section, kick = case2_at(0.25)
        x0 = x_eq + amplitude / 0.05 * (kick - x_eq)
        radius = simulate.ESCAPE_FACTOR * amplitude

        def crossing(t, y):
            return section.value(y)

        def escape(t, y):
            return np.linalg.norm(y - section.anchor) - radius

        crossing.terminal = escape.terminal = True
        crossing.direction = escape.direction = 1
        t_max, tol = simulate.T_MAX_PER_RETURN, (simulate.RTOL, simulate.ATOL)
        sol, scipy_calls = scipy_run(rhs, x0, (0.0, t_max), "DOP853", *tol,
                                     events=[crossing, escape])
        assert [e.size for e in sol.t_events] == [fired == 0, fired == 1]
        rhs, calls = counted(rhs)
        stops = (section.value, lambda y: escape(0.0, y))
        hit, t, y = simulate._shoot(rhs, x0, t_max, stops, *tol)
        assert (hit, t) == (fired, sol.t_events[fired][0])
        assert np.array_equal(y, sol.y_events[fired][0])
        assert len(calls) == len(scipy_calls)
        # The crossings of one orbit begin with the same first crossing, at
        # the same cost; an escape ends the orbit without one.
        calls.clear()
        ret = next(simulate._crossings(rhs, section, x0, *tol, radius), None)
        assert len(calls) == len(scipy_calls)
        if fired:
            assert ret is None
        else:
            assert ret[0] == t and np.array_equal(ret[1], y)

    def test_crossings_of_one_orbit(self):
        # From a start on the section each crossing is a whole return of the
        # harmonic oscillator; a start just off it crosses at once; an orbit
        # that drifts away from it ends T_MAX_PER_RETURN after its start.
        section = simulate.PoincareSection(normal=[1.0, 0.0], anchor=[0.0, 0.0])
        tol = (1e-10, 1e-12)
        times = [t for t, _ in itertools.islice(
            simulate._crossings(harmonic, section, [0.0, 1.0], *tol), 3)]
        np.testing.assert_allclose(times, [2 * math.pi, 4 * math.pi, 6 * math.pi],
                                   rtol=1e-8)
        t, x = next(simulate._crossings(harmonic, section, [-1e-3, 1.0], *tol))
        assert t == pytest.approx(math.atan(1e-3), rel=1e-8)
        assert abs(x[0]) <= 1e-15
        drift = simulate._crossings(lambda t, z: np.array([-1.0, 0.0]), section,
                                    [-1.0, 0.0], *tol)
        assert list(drift) == []

    def test_t_eval_samples_match_rk45(self):
        rhs, x0 = case1_kick()
        t_eval = np.linspace(0.0, 200.0, 1001)
        sol, _ = scipy_run(rhs, x0, (0.0, 200.0), t_eval=t_eval)
        traj = simulate.integrate(rhs, x0, (0.0, 200.0), t_eval=t_eval)
        assert np.array_equal(traj.times, t_eval)
        np.testing.assert_allclose(traj.states, sol.y.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "t_eval", [[0.0, 2.0, 1.0], [[0.0, 1.0]], [], [-1.0, 1.0], [0.0, 3.0]]
    )
    def test_rejects_bad_t_eval(self, t_eval):
        with pytest.raises(ValueError):
            simulate.integrate(harmonic, [1.0, 0.0], (0.0, 2.0), t_eval=t_eval)


class TestPoincareCycleSearch:
    def test_stable_normal_form_cycle(self):
        rhs = normal_form(0.05, -1.0)
        section = simulate.PoincareSection(normal=[0.0, 1.0], anchor=[0.0, 0.0])
        cycle = simulate.poincare_cycle_search(
            rhs, section, np.array([0.05, 0.0]), equilibrium=np.zeros(2)
        )
        assert abs(cycle.period - 2 * math.pi) <= 0.01 * 2 * math.pi
        assert cycle.stability_hint == simulate.CONTRACTING
        assert abs(cycle.amplitude - math.sqrt(0.05)) < 1e-3
        assert cycle.return_error <= 1e-8 * (1 + np.linalg.norm(cycle.anchor_state))

    def test_equilibrium_seed_not_found(self):
        rhs = normal_form(0.05, -1.0)
        section = simulate.PoincareSection(normal=[0.0, 1.0], anchor=[0.0, 0.0])
        with pytest.raises(CycleNotFound):
            simulate.poincare_cycle_search(
                rhs, section, np.zeros(2), equilibrium=np.zeros(2)
            )

    def test_tangent_seed_rejected(self):
        section = simulate.PoincareSection(normal=[0.0, 1.0], anchor=[0.0, 1.0])
        # flow of the harmonic oscillator is tangent to this section at (0, 1)
        with pytest.raises(NonTransversal):
            simulate.poincare_cycle_search(
                harmonic, section, np.array([0.0, 1.0])
            )

    def test_no_cycle_in_linear_system(self):
        section = simulate.PoincareSection(normal=[0.0, 1.0], anchor=[0.0, 0.0])
        with pytest.raises(CycleNotFound):
            simulate.poincare_cycle_search(
                damped, section, np.array([1.0, 0.0]), equilibrium=np.zeros(2)
            )

    def test_period_approaches_crossing_frequency_near_onset(self):
        # Just past the crossing the newborn cycle's period matches the
        # crossing frequency 2 pi / omega0 to a couple of percent.
        model = swing.demo_lossy_two_machine(0.205)
        eq = model.equilibrium_at(np.array([1.4905, 0.0]))
        ref = model.referenced(eq)
        eigs, vecs = np.linalg.eig(ref.jacobian())
        idx = np.argmax(eigs.imag)
        x_eq = ref.equilibrium_state
        section = simulate.hopf_section(x_eq, vecs[:, idx])
        seed = x_eq + 0.02 * np.real(vecs[:, idx]) / np.linalg.norm(
            np.real(vecs[:, idx])
        )
        cycle = simulate.poincare_cycle_search(
            ref.rhs, section, seed, equilibrium=x_eq
        )
        omega0 = 1.062951  # crossing frequency of this damping family
        assert abs(cycle.period - 2 * math.pi / omega0) <= 0.02 * cycle.period
        assert cycle.stability_hint == simulate.EXPANDING

    def test_cycle_amplitude_grows_with_damping(self):
        # Along the existing branch the unstable cycle widens as the damping
        # parameter increases (the branch itself ends in a homoclinic
        # connection with the frequency-drift saddle at gamma_h = 0.3426,
        # see swing.locate_homoclinic and the acceptance suite).
        amplitudes = []
        seed = None
        for gamma in (0.25, 0.31):
            rhs, x_eq, section, kick = case2_at(gamma)
            cycle = simulate.poincare_cycle_search(
                rhs, section, kick if seed is None else seed, equilibrium=x_eq
            )
            amplitudes.append(cycle.amplitude)
            seed = cycle.anchor_state
        assert amplitudes[0] < amplitudes[1]

    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_stable_cycle_from_outside(self, radius):
        # The defect keeps its sign on the outward walk from these seeds, so
        # the inward walk brackets the cycle.
        rhs = normal_form(0.05, -1.0)
        section = simulate.PoincareSection(normal=[0.0, 1.0], anchor=[0.0, 0.0])
        cycle = simulate.poincare_cycle_search(
            rhs, section, np.array([radius, 0.0]), equilibrium=np.zeros(2)
        )
        assert abs(cycle.period - 2 * math.pi) <= 1e-6 * 2 * math.pi
        assert cycle.stability_hint == simulate.CONTRACTING
        assert abs(cycle.amplitude - math.sqrt(0.05)) < 1e-3

    def test_case2_rhs_evaluation_counts(self):
        # Counter gate on the case2 searches: from the mode kick at 0.25 and
        # from the 0.25 anchor at 0.29.  DOP853 returns with the chord
        # re-polish, both returns of each launch amplitude off one orbit,
        # take 9,832 and 11,408 evaluations (10,335 and 12,038 with a start
        # leg before each return and a restart at P; 11,695 and 13,482 when
        # Brent re-ran the bracket ends); RK45 returns with a Newton
        # re-polish took 20,351 and 23,526, and return-map iteration with
        # amplitude bisection 48,912 and 120,020.
        rhs, x_eq, section, kick = case2_at(0.25)
        rhs, calls = counted(rhs)
        cycle = simulate.poincare_cycle_search(rhs, section, kick, equilibrium=x_eq)
        assert len(calls) <= 10_350
        rhs, x_eq, section, _ = case2_at(0.29)
        rhs, calls = counted(rhs)
        simulate.poincare_cycle_search(
            rhs, section, cycle.anchor_state, equilibrium=x_eq
        )
        assert len(calls) <= 12_000

    def test_one_step_size_start_per_launch_amplitude(self, monkeypatch):
        # Each launch amplitude's defect reads P and P^2 off one orbit, so it
        # starts the step-size control once; a start leg before each of the
        # two returns and a restart at P made 4 starts.
        starts, orbits = [], []
        crossings, initial_step = simulate._crossings, simulate._initial_step

        def orbit(*args, escape_radius=None):
            orbits.append((escape_radius, len(starts)))
            return crossings(*args, escape_radius=escape_radius)

        def start(*args):
            starts.append(args)
            return initial_step(*args)

        monkeypatch.setattr(simulate, "_crossings", orbit)
        monkeypatch.setattr(simulate, "_initial_step", start)
        rhs, x_eq, section, kick = case2_at(0.25)
        simulate.poincare_cycle_search(rhs, section, kick, equilibrium=x_eq)
        # Orbits run one after another; the amplitude orbit starts last.
        ends = [first for _, first in orbits[1:]] + [len(starts) - 1]
        per_defect = [end - first for (radius, first), end in zip(orbits, ends)
                      if radius is not None]
        assert len(per_defect) > 10 and set(per_defect) == {1}

    def test_case2_branch_continues_to_gamma_034(self):
        # Below the homoclinic end gamma_h = 0.34258 the cycle exists; its
        # return-map multiplier grows from about 29 at 0.33 to about 800 at
        # 0.34, and the anchor still closes under an independent integration.
        rhs, x_eq, section, kick = case2_at(0.25)
        seed = simulate.poincare_cycle_search(
            rhs, section, kick, equilibrium=x_eq
        ).anchor_state
        branch = []
        for gamma in (0.33, 0.335, 0.34):
            rhs, x_eq, section, _ = case2_at(gamma)
            cycle = simulate.poincare_cycle_search(
                rhs, section, seed, equilibrium=x_eq
            )
            assert cycle.stability_hint == simulate.EXPANDING
            assert closure(rhs, cycle) <= 1e-6
            branch.append(cycle)
            seed = cycle.anchor_state
        amplitudes = [c.amplitude for c in branch]
        periods = [c.period for c in branch]
        assert amplitudes[0] < amplitudes[1] < amplitudes[2]
        assert periods[0] < periods[1] < periods[2]


class TestClassifyOrbit:
    def test_damped_oscillator_spirals_in(self):
        traj = simulate.integrate(damped, [1.0, 0.0], (0.0, 60.0))
        assert simulate.classify_orbit(traj, np.zeros(2)) == simulate.SPIRAL_IN

    def test_unstable_focus_spirals_out(self):
        rhs = normal_form(0.05, 0.0)
        traj = simulate.integrate(rhs, [0.05, 0.0], (0.0, 60.0))
        assert simulate.classify_orbit(traj, np.zeros(2)) == simulate.SPIRAL_OUT

    def test_harmonic_is_near_periodic(self):
        traj = simulate.integrate(harmonic, [1.0, 0.0], (0.0, 60.0))
        assert simulate.classify_orbit(traj, np.zeros(2)) == simulate.NEAR_PERIODIC

    def test_case1_neutral_mode_near_periodic(self, case1):
        model, eq = case1
        ref = model.referenced(eq)
        x_eq = ref.equilibrium_state
        kick = np.zeros(5)
        kick[:2] = [1.0, -1.0]
        x0 = x_eq + 0.02 * kick / np.linalg.norm(kick)
        traj = simulate.integrate(ref.rhs, x0, (0.0, 120.0))
        assert simulate.classify_orbit(traj, x_eq) == simulate.NEAR_PERIODIC

    def test_short_trajectory_undetermined(self):
        traj = simulate.integrate(harmonic, [1.0, 0.0], (0.0, 1.0))
        assert simulate.classify_orbit(traj, np.zeros(2)) == simulate.UNDETERMINED


class TestHopfSection:
    def test_normal_from_imaginary_part(self):
        r0 = np.array([1.0 + 0.5j, -0.25j])
        section = simulate.hopf_section(np.zeros(2), r0)
        want = np.array([0.5, -0.25])
        np.testing.assert_allclose(
            section.normal, want / np.linalg.norm(want)
        )

    def test_real_eigenvector_fallback(self):
        section = simulate.hopf_section(np.zeros(2), np.array([1.0, 0.0]))
        np.testing.assert_allclose(section.normal, [1.0, 0.0])
