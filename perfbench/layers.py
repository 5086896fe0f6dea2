"""Per-layer figures for the traced run, each taken through a layer's public
functions or through a callable handed to it.

Every traced run reports all of them, whatever its workload; the README
says which end-to-end metric each should move.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads as wl
from tracing import Tracer
from damplab import cli, linalg, simulate, stability, suites

#: Share of each suite's default trial count run for its per-trial time.
SUITE_TRIAL_SHARE = 0.1


def median_seconds(fn, repeat):
    """Median wall time of ``repeat`` calls of ``fn``."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def random_grid(seed, n):
    return suites.random_lossless_grid(np.random.default_rng(seed), n, "positive")


def import_s(repeat=3):
    """Fresh ``import damplab`` minus a bare interpreter start."""

    def spawn(code):
        return lambda: subprocess.run([sys.executable, "-c", code], check=True)

    return median_seconds(spawn("import damplab"), repeat) - median_seconds(spawn("pass"), repeat)


def cli_analysis_ms(out_dir):
    """In-process ``cli.main`` per bundled command (the import is done)."""
    out = {}
    for label, argv, _ in wl.CliBundled.COMMANDS:
        args = argv.format(out=out_dir).split()
        with contextlib.redirect_stdout(io.StringIO()):
            out[f"cli.analysis_ms.{label}"] = 1e3 * median_seconds(lambda: cli.main(args), 3)
    return out


def counted_run(fn, name):
    """Run ``fn(counted)``; returns (calls, share of the run inside them)."""
    tracer = Tracer()
    with tracer.span("run"):
        fn(lambda f: tracer.counted(name, f))
    calls, seconds, wall = tracer.totals("run", name)
    return calls, seconds / wall


def cycle_counts(seed):
    branch = wl.Case2Branch(seed)
    _, _, ref, x_eq, _, section = branch.systems[branch.GAMMAS[0]]
    calls, share = counted_run(
        lambda counted: simulate.poincare_cycle_search(
            counted(ref.rhs), section, branch.kick, equilibrium=x_eq),
        "rhs")
    return {"simulate.cycle_rhs_evals": calls, "simulate.cycle_rhs_share": share}


def grid_counts(seed):
    grid = wl.LargeGrid(seed)
    calls, share = counted_run(lambda counted: grid.transient(counted(grid.ref.rhs)),
                               "rhs")
    tracer = Tracer()
    with tracer.span("sweep"):
        grid.sweep(tracer)
    builds = tracer.totals("sweep", "damping_of")[0]
    l1_evals = tracer.totals("sweep", "rhs_of")[0]
    return {
        "simulate.integrate_rhs_evals": calls,
        "simulate.integrate_rhs_share": share,
        "hopf.sweep_jacobian_builds": builds,
        "hopf.l1_rhs_evals": l1_evals,
    }


def rhs_us(seed):
    out = {}
    for n, calls in ((2, 4000), (10, 4000), (100, 1000), (200, 300)):
        model, eq = random_grid(seed, n)
        ref = model.referenced(eq)
        x = ref.equilibrium_state + 1e-3
        seconds = median_seconds(lambda: [ref.rhs(0.0, x) for _ in range(calls)], 3)
        out[f"swing.rhs_us.n{n}"] = 1e6 * seconds / calls
    return out


def drift_equilibrium_ms():
    _, _, ref, _, _, _ = wl.Case2Branch._at(wl.Case2Branch.STEP)
    return 1e3 * median_seconds(lambda: ref.drift_equilibrium(wl.SADDLE_GUESS), 20)


def spectral_layers(seed):
    out = {}
    for n in (50, 100, 200):
        model, eq = random_grid(seed, n)
        system = model.to_second_order()
        a = np.linalg.solve(system.inertia, system.jac(eq.delta0))
        b = np.linalg.solve(system.inertia, system.damping)
        out[f"stability.observability_s.n{n}"] = median_seconds(
            lambda: stability.observability_test(a, b), 1)
        if n >= 100:
            jac = system.jacobian_at(eq.delta0)
            out[f"linalg.eig_classify_ms.n{n}"] = 1e3 * median_seconds(
                lambda: linalg.classify_spectrum(np.linalg.eigvals(jac)), 5)
    return out


def suite_ms_per_trial(seed):
    out = {}
    for name, fn in suites.SUITES.items():
        params = inspect.signature(fn).parameters
        kwargs = {"seed": seed}
        if "trials" in params:
            kwargs["trials"] = max(1, int(params["trials"].default * SUITE_TRIAL_SHARE))
        start = time.perf_counter()
        result = fn(**kwargs)
        out[f"suites.ms_per_trial.{name}"] = (
            1e3 * (time.perf_counter() - start) / result.trials)
    return out


def measure(seed, out_dir, tracer):
    """Every per-layer figure; each group of calls runs inside a span."""
    groups = (
        ("cli.import", lambda: {"cli.import_s": import_s()}),
        ("cli.main", lambda: cli_analysis_ms(out_dir)),
        ("simulate.poincare_cycle_search", lambda: cycle_counts(seed)),
        ("simulate.integrate+hopf.sweep", lambda: grid_counts(seed)),
        ("swing.ReferencedGridSystem.rhs", lambda: rhs_us(seed)),
        ("swing.drift_equilibrium",
         lambda: {"swing.drift_equilibrium_ms": drift_equilibrium_ms()}),
        ("stability.observability_test+linalg.classify_spectrum",
         lambda: spectral_layers(seed)),
        ("suites", lambda: suite_ms_per_trial(seed)),
    )
    out = {}
    for name, group in groups:
        with tracer.span("layer " + name):
            out.update(group())
    return out
