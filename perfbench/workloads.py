"""The four workloads: inputs built from a seed, a fixed operation list per
round, and a check of every output against ``independent``.

Every workload runs whole rounds of its list, one operation at a time (a
closed loop with one client), in one process.  ``Runner.op`` times each
call into damplab, counts it as attempted, counts it as failed when the
program raises, and checks the output of every call that did not fail.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from damplab import hopf, simulate, stability, suites, swing
from damplab.errors import CycleNotFound


def lazy_import(name):
    """Module ``name``, loaded on its first attribute access."""
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# The independent computations load scipy's integrators and optimizers.
# Loading them on first use keeps them out of the timed set-up, which then
# covers damplab's own imports and the building of the inputs only.
ind = lazy_import("independent")


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def require(condition, what):
    if not condition:
        raise CheckFailed(what)


@dataclass
class Record:
    kind: str
    label: str
    seconds: float
    count: int
    failed: int


class Runner:
    """Times, counts and checks the operations of whole rounds."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.records = []
        self.problems = []
        self.failures = {}

    def op(self, kind, label, call, check=None, tally=None, known_fault=None):
        """Run ``call``; ``tally(out)`` gives (operations, failed) for calls
        that stand for many operations.  ``known_fault`` is an
        (exception type, note) pair for an operation that fails every time."""
        start = time.perf_counter()
        try:
            with self.tracer.span(label):
                out = call()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.records.append(Record(kind, label, time.perf_counter() - start, 1, 1))
            known = known_fault is not None and isinstance(exc, known_fault[0])
            if label not in self.failures:
                note = known_fault[1] if known else "unexpected"
                self.failures[label] = f"{type(exc).__name__}: {exc} ({note})"
                if not known:
                    traceback.print_exc(file=sys.stderr)
            return None
        seconds = time.perf_counter() - start
        count, failed = tally(out) if tally else (1, 0)
        self.records.append(Record(kind, label, seconds, count, failed))
        if check is not None:
            try:
                check(out)
            except CheckFailed as exc:
                self.problems.append(f"{label}: {exc}")
        return out

    def problem(self, what):
        self.problems.append(what)


# -- cli_bundled ------------------------------------------------------------

#: Final-state agreement of the t = 200 case1 transient (RK45 at rtol 1e-8
#: against DOP853 at 1e-11), in state units; the kick is 0.02.
SIMULATE_TOL = 1e-6


class CliBundled:
    """Six CLI commands on the bundled models, each in a fresh interpreter.

    The seed fixes the order of the commands within a round.
    """

    COMMANDS = (
        ("spectrum_case1", "spectrum models/case1.json --gamma 0 --out {out}/spectrum_case1.json", 2),
        ("spectrum_case2", "spectrum models/case2.json --gamma 0.25 --out {out}/spectrum_case2.json", 0),
        ("hopf-scan_case2", "hopf-scan models/case2.json --gamma-range 0.1:0.3:21 --out {out}/hopf-scan_case2", 0),
        ("hopf-scan_case1", "hopf-scan models/case1.json --gamma-range 0:1:21 --out {out}/hopf-scan_case1", 0),
        ("reduce_case2", "reduce models/case2.json --gamma 0.25 --out {out}/reduce_case2.json", 0),
        ("simulate_case1", "simulate models/case1.json --gamma 0 --kick 0.02 --t-span 0 200 --out {out}/simulate_case1", 0),
    )

    def __init__(self, seed, out_dir):
        self.out = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.commands = [
            (label, argv.format(out=out_dir).split(), rc)
            for label, argv, rc in self.COMMANDS
        ]
        random.Random(seed).shuffle(self.commands)
        self.peak_rss_kb = 0

    def references(self):
        self.case1, guess1 = ind.Grid.from_file("models/case1.json", 0.0)
        self.delta1 = self.case1.equilibrium(guess1)
        self.case2, guess2 = ind.Grid.from_file("models/case2.json", 0.25)
        self.delta2 = self.case2.equilibrium(guess2)
        self.x1 = self.case1.referenced_state(self.delta1)
        self.x2 = self.case2.referenced_state(self.delta2)
        self.hopf2 = ind.hopf_root(self._jacobian_of(2), 0.1, 0.3)
        self.simulated = {}

    def _jacobian_of(self, case):
        """Referenced Jacobian at the equilibrium as a function of gamma."""
        x = self.x1 if case == 1 else self.x2
        path = f"models/case{case}.json"
        return lambda g: ind.Grid.from_file(path, g)[0].referenced_jacobian(x)

    def round(self, runner):
        for label, argv, rc in self.commands:
            runner.op("cli_call", label, lambda: self.call(argv),
                      check=lambda out, label=label, rc=rc: self.check(label, rc, out))

    def call(self, argv):
        """One command in a fresh interpreter; returns its exit code."""
        log = os.path.join(self.out, "stdout.txt")
        with open(log, "w") as fh:
            proc = subprocess.Popen(
                [sys.executable, "-m", "damplab.cli", *argv],
                stdout=fh, stderr=subprocess.STDOUT,
            )
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode not in (0, 2):
            with open(log) as fh:
                raise RuntimeError(f"exit {proc.returncode}: {fh.read()[-400:]}")
        return proc.returncode

    def check(self, label, rc_expected, rc):
        require(rc == rc_expected, f"exit code {rc}, expected {rc_expected}")
        getattr(self, "check_" + label.replace("-", "_"))()

    def _json(self, name):
        with open(os.path.join(self.out, name)) as fh:
            return json.load(fh)

    @staticmethod
    def _eigs(entries):
        return np.array([complex(e["re"], e["im"]) for e in entries])

    def _check_spectrum(self, payload, grid, delta):
        eigs = np.linalg.eigvals(grid.full_jacobian(delta))
        got = self._eigs(payload["eigenvalues"])
        require(np.abs(np.array(payload["equilibrium"]) - delta).max() <= 1e-8,
                "equilibrium differs from the independent solve")
        require(ind.match_distance(got, eigs) <= 1e-8 * ind.scale(eigs),
                "eigenvalues differ from the independently assembled Jacobian")
        require(tuple(payload["inertia"]) == ind.inertia_triple(eigs),
                f"inertia {payload['inertia']} vs {ind.inertia_triple(eigs)}")
        hyperbolic = ind.axis_pairs(eigs).size == 0
        require(payload["hyperbolic_beyond_structural_zero"] == hyperbolic,
                "hyperbolicity verdict differs from the counted axis eigenvalues")
        return got

    def check_spectrum_case1(self):
        got = self._check_spectrum(self._json("spectrum_case1.json"),
                                   self.case1, self.delta1)
        pair = 1j * math.sqrt(1.5)
        require(np.abs(got - pair).min() <= 1e-8 and np.abs(got + pair).min() <= 1e-8,
                "no axis pair at +-i sqrt(1.5)")

    def check_spectrum_case2(self):
        self._check_spectrum(self._json("spectrum_case2.json"), self.case2, self.delta2)

    def _check_locus(self, directory, jacobian_of, lo, hi, samples):
        rows = np.loadtxt(os.path.join(self.out, directory, "locus.csv"),
                          delimiter=",", skiprows=1, ndmin=2)
        for g in np.linspace(lo, hi, samples):
            eigs = np.linalg.eigvals(jacobian_of(g))
            upper = np.sort_complex(eigs[eigs.imag > 1e-9])
            got = rows[np.abs(rows[:, 0] - g) <= 1e-9 * max(1.0, abs(g))]
            require(got.shape[0] == upper.size, f"locus at gamma {g}: branch count")
            require(ind.match_distance(got[:, 2] + 1j * got[:, 3], upper)
                    <= 1e-9 * max(1.0, np.abs(eigs).max()),
                    f"locus at gamma {g} differs from the independent spectrum")

    def check_hopf_scan_case2(self):
        certs = self._json("hopf-scan_case2/certificates.json")
        g0, omega0, slope = self.hopf2
        require(len(certs) == 1, f"{len(certs)} crossings, expected 1")
        cert = certs[0]
        require(abs(cert["gamma0"] - g0) <= 1e-6,
                f"gamma0 {cert['gamma0']} vs brentq root {g0}")
        require(abs(cert["omega0"] - omega0) <= 1e-6, "omega0 differs")
        require(cert["transversality"] < 0 and slope < 0,
                "damping must stabilize: transversality < 0")
        require(cert["l1"] is not None and cert["l1"] > 0
                and cert["kind"] == hopf.SUBCRITICAL,
                "l1 > 0 (subcritical: unstable cycles above gamma0)")
        self._check_locus("hopf-scan_case2", self._jacobian_of(2), 0.1, 0.3, 21)

    def check_hopf_scan_case1(self):
        # At gamma = 0 the undamped mode v = (1, -1, 0)/sqrt(2) of M^-1 L
        # (M = I) sits at +-i sqrt(1.5), and d lambda / d gamma =
        # -v^T D' v / 2 = -1/2.
        certs = self._json("hopf-scan_case1/certificates.json")
        require(len(certs) == 1, f"{len(certs)} crossings, expected 1")
        cert = certs[0]
        require(cert["boundary"] and cert["gamma0"] == 0.0, "boundary crossing at 0")
        require(abs(cert["omega0"] - math.sqrt(1.5)) <= 1e-8, "omega0 != sqrt(1.5)")
        require(abs(cert["transversality"] + 0.5) <= 1e-6, "transversality != -1/2")
        self._check_locus("hopf-scan_case1", self._jacobian_of(1), 0.0, 1.0, 21)

    def check_reduce_case2(self):
        payload = self._json("reduce_case2.json")
        jac = self.case2.referenced_jacobian(self.x2)
        require(np.abs(np.array(payload["jacobian"]) - jac).max() <= 1e-10,
                "referenced Jacobian differs")
        eigs = np.linalg.eigvals(jac)
        require(ind.match_distance(self._eigs(payload["eigenvalues"]), eigs) <= 1e-9,
                "referenced eigenvalues differ")
        full = np.linalg.eigvals(self.case2.full_jacobian(self.delta2))
        require(tuple(payload["inertia_full"]) == ind.inertia_triple(full)
                and tuple(payload["inertia_reduced"]) == ind.inertia_triple(eigs),
                "inertia triples differ")

    def check_simulate_case1(self):
        rows = np.loadtxt(os.path.join(self.out, "simulate_case1", "trajectory.csv"),
                          delimiter=",", skiprows=1, ndmin=2)
        samples = rows[rows[:, -1] == 0]
        x0, t1, x1 = samples[0, 1:-1], samples[-1, 0], samples[-1, 1:-1]
        require(abs(np.linalg.norm(x0 - self.x1) - 0.02) <= 1e-9, "kick is not 0.02")
        key = (tuple(x0), t1)
        if key not in self.simulated:
            self.simulated[key] = ind.flow(self.case1.referenced_rhs, x0, t1).y[:, -1]
        err = np.linalg.norm(x1 - self.simulated[key])
        require(err <= SIMULATE_TOL, f"final state differs by {err:.2e}")


# -- case2_branch ----------------------------------------------------------


#: Note printed for the operation that fails every time.
STEP_FAULT = ("known fault: poincare_cycle_search leaves the section during "
              "refinement below gamma_h = 0.3426 (FOUND line in CHANGES.md)")

SADDLE_GUESS = np.array([1.8, -0.5, -0.5])


class Case2Branch:
    """The unstable cycle branch of the lossy two-machine demo, and its end.

    The seed sets the amplitude (0.01..0.02) and phase (0..1 rad) of the mode
    kick that starts the search at gamma = 0.25.  The step to 0.34 starts
    from the 0.33 anchor rounded to 6 decimals, so its input is the same for
    every seed.
    """

    GAMMAS = (0.25, 0.29, 0.33)
    STEP = 0.34
    BRACKET = (0.33, 0.35)

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        amplitude, phase = rng.uniform(0.01, 0.02), rng.uniform(0.0, 1.0)
        self.systems = {g: self._at(g) for g in self.GAMMAS + (self.STEP,)}
        model, eq, ref, x_eq, r0, _ = self.systems[self.GAMMAS[0]]
        direction = np.real(r0 * np.exp(1j * phase))
        self.kick = x_eq + amplitude * direction / np.linalg.norm(direction)
        self.model, self.eq = model, eq

    @staticmethod
    def _at(gamma):
        model = swing.demo_lossy_two_machine(gamma)
        eq = model.equilibrium_at(np.array([1.4905, 0.0]))
        ref = model.referenced(eq)
        eigs, vecs = np.linalg.eig(ref.jacobian())
        r0 = vecs[:, np.argmax(eigs.imag)]
        x_eq = ref.equilibrium_state
        return model, eq, ref, x_eq, r0, simulate.hopf_section(x_eq, r0)

    def references(self):
        self.grids = {g: ind.Grid.from_model(s[0]) for g, s in self.systems.items()}
        base = self.grids[self.GAMMAS[0]]
        self.x_eq = base.referenced_state(base.equilibrium([1.4, 0.0]))

    def search(self, runner, gamma, start, known_fault=None):
        _, _, ref, x_eq, _, section = self.systems[gamma]
        rhs = runner.tracer.counted("rhs", ref.rhs)
        return runner.op(
            "cycle", f"cycle_{gamma}",
            lambda: simulate.poincare_cycle_search(rhs, section, start, equilibrium=x_eq),
            check=lambda c: self.check_cycle(gamma, c), known_fault=known_fault,
        )

    def round(self, runner):
        found = []
        start = self.kick
        for gamma in self.GAMMAS:
            cycle = self.search(runner, gamma, start)
            if cycle is not None:
                found.append((gamma, cycle))
                start = cycle.anchor_state
        step = self.search(runner, self.STEP, np.round(start, 6),
                           known_fault=(CycleNotFound, STEP_FAULT))
        if step is not None:
            found.append((self.STEP, step))
        runner.op(
            "homoclinic", "locate_homoclinic",
            lambda: swing.locate_homoclinic(self.model, self.eq,
                                            lambda g: np.array([g, 1.0]),
                                            self.BRACKET, SADDLE_GUESS),
            check=lambda b: self.check_bracket(b, found),
        )
        amplitudes = [c.amplitude for _, c in found]
        periods = [c.period for _, c in found]
        if not (np.all(np.diff(amplitudes) > 0) and np.all(np.diff(periods) > 0)):
            runner.problem(f"amplitude {amplitudes} or period {periods} "
                           "does not rise with gamma")

    def check_cycle(self, gamma, cycle):
        grid = self.grids[gamma]
        anchor = cycle.anchor_state
        sol = ind.flow(grid.referenced_rhs, anchor, cycle.period, dense=True)
        closure = np.linalg.norm(sol.y[:, -1] - anchor) / np.linalg.norm(anchor)
        require(closure <= 1e-6, f"cycle at {gamma} does not close: {closure:.2e}")
        orbit = sol.sol(np.linspace(0.0, cycle.period, 4001))
        amplitude = np.linalg.norm(orbit - self.x_eq[:, None], axis=0).max()
        require(amplitude * (1 - 1e-3) <= cycle.amplitude <= amplitude * (1 + 1e-9),
                f"amplitude {cycle.amplitude} vs {amplitude}")

    def check_bracket(self, bracket, found):
        lo, hi = bracket.gamma_low, bracket.gamma_high
        require(self.BRACKET[0] < lo < hi < self.BRACKET[1] and hi - lo <= 1e-4,
                f"bracket ({lo}, {hi})")
        require(all(lo > g for g, _ in found), "a cycle was found above gamma_h")
        grid = self.grids[self.GAMMAS[0]].with_damping([bracket.gamma_h, 1.0])
        saddle = bracket.saddle_state
        residual = np.abs(grid.referenced_rhs(0.0, saddle)).max()
        require(residual <= 1e-9, f"saddle residual {residual:.2e}")
        eigs = np.linalg.eigvals(grid.referenced_jacobian(saddle))
        unstable = eigs[eigs.real > 0]
        require(unstable.size == 1 and abs(unstable[0].imag) <= 1e-12,
                f"saddle eigenvalues {eigs}")


# -- large_grid -------------------------------------------------------------


GRID_N = 100
TRANSIENT_T = 20.0
TRANSIENT_KICK = 0.05
#: Sweep of generator 0's damping on ``hopf_grid``; its Hopf point lies
#: near 0.27.
SWEEP_RANGE = (0.2, 0.35)
SWEEP_SAMPLES = 31
HOPF_GRID_DAMPING = 30.0
#: Restoring term ``GROUND * M`` added to the stiffness of the
#: symmetric-setting systems: it makes L positive definite, as
#: ``stability.hyperbolicity_symmetric`` requires, and shifts the spectrum
#: of ``M^-1 L`` by ``GROUND`` without moving its eigenvectors, so the
#: mirror mode stays unobservable.
GROUND = 1.0
#: The monotonicity comparison runs on a mirror grid of this size, and
#: damps its mirror pair with ``MIRROR_DAMPING``.  At n = 100 the hypothesis
#: check of ``monotonicity_compare`` alone takes 3.4 s and 2.4 GB (FOUND line
#: in CHANGES.md); at n = 50 it takes 0.16 s and 0.14 GB, still most of the
#: operation, so a fix moves ``ops_per_s`` and ``peak_rss_mb``.
MONOTONICITY_N = 50
MIRROR_DAMPING = 1.0


def mirror_grid(rng, n):
    """Lossless grid with an unobservable mode: a random fully damped grid of
    n - 2 generators plus two undamped generators with equal inertia,
    voltage and angle, coupled to each other and to the same three buses
    with the same admittances.  ``e_a - e_b`` is then an eigenvector of
    ``M^-1 L`` that the damping does not see."""
    base, base_eq = suites.random_lossless_grid(rng, n - 2, "positive")
    y = np.zeros((n, n))
    y[: n - 2, : n - 2] = base.y_mag
    buses = rng.choice(n - 2, size=3, replace=False)
    links = rng.uniform(0.5, 2.0, size=3)
    for a in (n - 2, n - 1):
        y[a, buses] = y[buses, a] = links
    y[n - 2, n - 1] = y[n - 1, n - 2] = rng.uniform(0.5, 2.0)
    theta = np.full((n, n), math.pi / 2)
    np.fill_diagonal(theta, -math.pi / 2)
    pair = lambda base_values, value: np.concatenate([base_values, [value, value]])
    delta = pair(base_eq.delta0, rng.uniform(-0.3, 0.3))
    model = swing.PowerGridModel(
        y_mag=y, theta=theta,
        voltage=pair(base.voltage, rng.uniform(0.95, 1.05)),
        p_mech=np.zeros(n),
        inertia_const=pair(base.inertia_const, rng.uniform(0.5, 2.0)),
        damping_coeff=pair(base.damping_coeff, 0.0),
    )
    model = replace(model, p_mech=model.flow(delta))
    return model, model.equilibrium_at(delta)


def grounded(model, eq):
    """Linear second-order system of a grid at its equilibrium, with
    ``GROUND * M`` added to its stiffness."""
    system = model.to_second_order()
    stiffness = system.jac(eq.delta0) + GROUND * system.inertia
    return stability.SecondOrderSystem.linear(system.inertia, system.damping, stiffness)


def hopf_grid(rng, n):
    """Grid with an interior Hopf point in generator 0's damping: the case2
    pair (line -1 + 5.7978i, angle difference 1.4905) tied by a weak
    lossless line to a random lossless grid of n - 2 generators.

    The random part gets damping ``HOPF_GRID_DAMPING``, past
    ``2 sqrt(m_max lambda_max(L))`` (m <= 2, and lambda_max(L) is at most
    twice the largest weighted degree, far below 112), so all its modes are
    overdamped and its eigenvalues real; only the pair's modes are complex.
    """
    base, base_eq = suites.random_lossless_grid(rng, n - 2, "positive")
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
    model = swing.PowerGridModel(
        y_mag=y, theta=theta,
        voltage=np.concatenate([[1.0, 1.0], base.voltage]),
        p_mech=np.zeros(n),
        inertia_const=np.concatenate([[1.0, 1.0], base.inertia_const]),
        damping_coeff=np.concatenate([[0.25, 1.0], np.full(n - 2, HOPF_GRID_DAMPING)]),
    )
    model = replace(model, p_mech=model.flow(delta))
    return model, model.equilibrium_at(delta)


class LargeGrid:
    """Hyperbolicity verdicts, a damping sweep and a kicked transient at n = 100.

    Grids come from ``suites.random_lossless_grid`` with the seed: a fully
    damped grid, one with an undamped generator, one with a mirror pair
    (``mirror_grid``), and the composite ``hopf_grid`` for the sweep.  The
    transient kicks the fully damped grid.  The fully damped and the mirror
    grid, grounded (``grounded``), also go through the symmetric-setting
    verdict ``stability.hyperbolicity_symmetric``, and a grounded mirror
    grid of ``MONOTONICITY_N`` generators through
    ``stability.monotonicity_compare`` against itself with the mirror pair
    damped.
    """

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.verdict_grids = [
            ("damped", *suites.random_lossless_grid(rng, GRID_N, "positive")),
            ("one_undamped", *suites.random_lossless_grid(rng, GRID_N, "one_undamped")),
            ("mirror_pair", *mirror_grid(rng, GRID_N)),
        ]
        self.sweep_model, self.sweep_eq = hopf_grid(rng, GRID_N)
        self.symmetric = {name: grounded(model, eq)
                          for name, model, eq in self.verdict_grids
                          if name != "one_undamped"}
        model, eq = self.verdict_grids[0][1:]
        self.ref = model.referenced(eq)
        kick = rng.normal(size=self.ref.dim)
        self.x0 = self.ref.equilibrium_state + TRANSIENT_KICK * kick / np.linalg.norm(kick)
        self.mono_model, self.mono_eq = mirror_grid(rng, MONOTONICITY_N)
        first = grounded(self.mono_model, self.mono_eq)
        extra = np.zeros(MONOTONICITY_N)
        extra[-2:] = MIRROR_DAMPING / self.mono_model.omega_s
        self.monotonicity_pair = (first, first.with_damping(first.damping + np.diag(extra)))

    def references(self):
        self.verdict_refs = {}
        for name, model, eq in self.verdict_grids:
            grid = ind.Grid.from_model(model)
            eigs = np.linalg.eigvals(grid.full_jacobian(eq.delta0))
            self.verdict_refs[name] = (grid, eq.delta0, eigs)
        self.symmetric_refs = {
            name: np.linalg.eigvals(self.verdict_refs[name][0].full_jacobian(
                self.verdict_refs[name][1], ground=GROUND))
            for name in self.symmetric
        }
        grid = ind.Grid.from_model(self.mono_model)
        damping = grid.d.copy()
        damping[-2:] = MIRROR_DAMPING
        self.monotonicity_refs = [
            np.linalg.eigvals(g.full_jacobian(self.mono_eq.delta0, ground=GROUND))
            for g in (grid, grid.with_damping(damping))
        ]
        grid = ind.Grid.from_model(self.sweep_model)
        x = grid.referenced_state(self.sweep_eq.delta0)
        damping = grid.d.copy()

        def jacobian_of(g):
            damping[0] = g
            return grid.with_damping(damping).referenced_jacobian(x)

        self.hopf = ind.hopf_root(jacobian_of, *SWEEP_RANGE)
        damped = self.verdict_grids[0]
        self.transient_grid = ind.Grid.from_model(damped[1])
        self.transient_end = ind.flow(self.transient_grid.referenced_rhs, self.x0,
                                      TRANSIENT_T).y[:, -1]

    def round(self, runner):
        for name, model, eq in self.verdict_grids:
            runner.op("verdict", f"verdict_{name}",
                      lambda: swing.lossless_imaginary_criterion(model, eq),
                      check=lambda v, name=name: self.check_verdict(name, v))
        x0 = np.zeros(GRID_N)  # the systems are linear
        for name, system in self.symmetric.items():
            runner.op("symmetric", f"symmetric_{name}",
                      lambda system=system: stability.hyperbolicity_symmetric(system, x0),
                      check=lambda v, name=name: self.check_symmetric(name, v))
        runner.op("symmetric", "monotonicity",
                  lambda: stability.monotonicity_compare(
                      *self.monotonicity_pair, np.zeros(MONOTONICITY_N)),
                  check=self.check_monotonicity)
        runner.op("sweep", "sweep", lambda: self.sweep(runner.tracer),
                  check=self.check_sweep)
        rhs = runner.tracer.counted("rhs", self.ref.rhs)
        runner.op("transient", "transient", lambda: self.transient(rhs),
                  check=self.check_transient)

    def damping_path(self, tracer):
        model, eq = self.sweep_model, self.sweep_eq
        base = model.damping_coeff

        def vector(g):
            d = base.copy()
            d[0] = g
            return d

        def rhs_of(g):
            ref = model.with_damping(vector(g)).referenced(eq)
            return tracer.counted("rhs_of", lambda x: ref.rhs(0.0, x))

        unit = np.zeros((model.n, model.n))
        unit[0, 0] = 1.0
        system = model.to_second_order()
        return hopf.DampingPath(
            inertia=system.inertia,
            stiffness=system.jac(eq.delta0),
            damping_of=tracer.counted("damping_of", lambda g: np.diag(vector(g))),
            damping_derivative=lambda g: unit,
            gamma_range=SWEEP_RANGE,
            referenced=True,
            rhs_of=rhs_of,
            x0=model.referenced(eq).equilibrium_state,
        )

    def sweep(self, tracer):
        """Crossings of the sweep and a certificate at each."""
        path = self.damping_path(tracer)
        with tracer.span("hopf.track_axis_crossing"):
            crossings = hopf.track_axis_crossing(path, samples=SWEEP_SAMPLES)
        with tracer.span("hopf.hopf_conditions"):
            return [
                hopf.hopf_conditions(path, c.gamma, omega_hint=c.omega,
                                     boundary=c.boundary)
                for c in crossings
            ]

    def transient(self, rhs):
        traj = simulate.integrate(rhs, self.x0, (0.0, TRANSIENT_T))
        return traj, simulate.classify_orbit(traj, self.ref.equilibrium_state)

    def check_verdict(self, name, verdict):
        grid, delta, eigs = self.verdict_refs[name]
        pairs = ind.axis_pairs(eigs)
        require(verdict.imaginary_pair_exists == (pairs.size > 0),
                f"verdict {verdict.imaginary_pair_exists}, {pairs.size} axis eigenvalues counted")
        require((name == "mirror_pair") == (pairs.size > 0),
                f"{name}: {pairs.size} axis eigenvalues beyond zero")
        if name != "mirror_pair":
            return
        require(len(verdict.witnesses) > 0, "no witness for the mirror mode")
        a = grid.power_jacobian(delta) * (grid.omega_s / grid.m)[:, None]
        scale = np.abs(eigs).max()
        for w in verdict.witnesses:
            v, mu = np.asarray(w.vector), w.eigenvalue.real
            require(np.linalg.norm(grid.d * v) <= 1e-8 * np.linalg.norm(v), "D v != 0")
            require(np.linalg.norm(a @ v - mu * v) <= 1e-8 * scale * np.linalg.norm(v),
                    "witness is not an eigenvector of M^-1 L")
            require(np.abs(eigs - 1j * math.sqrt(mu)).min() <= 1e-8 * scale
                    and np.abs(eigs + 1j * math.sqrt(mu)).min() <= 1e-8 * scale,
                    "no pair at +-i sqrt(mu)")

    @staticmethod
    def _check_axis_set(got, eigs, what):
        """``got`` against the axis eigenvalues of ``eigs`` counted here (a
        grounded system has no structural zero); returns the counted set."""
        axis = eigs[np.abs(eigs.real) <= ind.band(eigs)]
        require(ind.match_distance(got, axis) <= 1e-8 * ind.scale(eigs),
                f"{what}: axis set of {np.size(got)} vs {axis.size} counted")
        return axis

    def check_symmetric(self, name, verdict):
        axis = self._check_axis_set(verdict.axis_eigenvalues,
                                    self.symmetric_refs[name], name)
        require(verdict.hyperbolic == (axis.size == 0),
                f"{name}: verdict {verdict.hyperbolic}, {axis.size} axis eigenvalues")
        require(verdict.hyperbolic == (name != "mirror_pair"),
                f"{name}: the mirror mode alone is unobservable")

    def check_monotonicity(self, report):
        first, second = (
            self._check_axis_set(got, eigs, what) for got, eigs, what in zip(
                (report.axis_set_first, report.axis_set_second),
                self.monotonicity_refs, ("first", "second")))
        require(report.damping_increase_psd and report.subset_holds,
                "more damping enlarged the axis set")
        require(first.size == 2 and second.size == 0,
                "damping the mirror pair must remove its axis pair")

    def check_sweep(self, certificates):
        g0, omega0, slope = self.hopf
        interior = [c for c in certificates if not c.boundary]
        require(len(certificates) == 1 and len(interior) == 1,
                f"{len(certificates)} crossings, expected one interior crossing")
        cert = interior[0]
        require(abs(cert.gamma0 - g0) <= 1e-6, f"gamma0 {cert.gamma0} vs brentq {g0}")
        require(abs(cert.omega0 - omega0) <= 1e-6 * max(1.0, omega0), "omega0 differs")
        require(cert.transversality < 0 and slope < 0
                and abs(cert.transversality - slope) <= 1e-3 * abs(slope),
                f"transversality {cert.transversality} vs slope {slope}")
        require(cert.l1 is not None and math.isfinite(cert.l1), "no l1")

    def check_transient(self, out):
        traj, label = out
        scale = np.linalg.norm(self.x0 - self.ref.equilibrium_state)
        err = np.linalg.norm(traj.final_state - self.transient_end)
        require(traj.times[-1] == TRANSIENT_T and err <= 1e-5 * scale,
                f"final state differs by {err:.2e}")
        require(label == simulate.SPIRAL_IN, f"fully damped grid classified {label}")


# -- verify_suites ----------------------------------------------------------


class VerifySuites:
    """The verification suites at their default trial counts, as
    ``suites.run_all(seed)`` runs them, one call per suite.  One trial is
    one operation, and a failed trial a failed operation.

    ``LEFT_OUT`` fail on some seeds only (FOUND line in CHANGES.md), which
    would make the failed share depend on the seed.  The two functions only
    they call, ``hyperbolicity_symmetric`` and ``monotonicity_compare``, run
    in ``LargeGrid``.
    """

    LEFT_OUT = ("observability_equivalence", "damping_monotonicity")

    def __init__(self, seed):
        self.seed = seed

    def references(self):
        pass

    def round(self, runner):
        for name, suite in suites.SUITES.items():
            if name in self.LEFT_OUT:
                continue
            runner.op(
                "trial", name, lambda: suite(seed=self.seed),
                tally=lambda result: (result.trials,
                                      min(len(result.failures), result.trials)),
            )


def build(name, seed, out_dir):
    if name == "cli_bundled":
        return CliBundled(seed, out_dir)
    return {"case2_branch": Case2Branch, "large_grid": LargeGrid,
            "verify_suites": VerifySuites}[name](seed)

