"""Tests of the benchmark's own checkers.

The independently assembled grid must agree with damplab on the bundled
models, each check must pass on the program's real output, and each must
fail when handed a wrong one.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import independent as ind  # noqa: E402
import workloads as wl  # noqa: E402
from damplab import cli, simulate, stability, swing  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("name, gamma", [("case1", 0.0), ("case2", 0.25)])
def test_independent_grid_agrees_with_program(name, gamma):
    path = os.path.join(ROOT, "models", f"{name}.json")
    mfile = swing.load_grid_model(path)
    model = mfile.model(gamma)
    eq = model.solve_equilibrium(mfile.delta_guess)
    grid, guess = ind.Grid.from_file(path, gamma)
    delta = grid.equilibrium(guess)
    assert np.allclose(delta, eq.delta0, rtol=0, atol=1e-10)
    assert np.allclose(grid.power(delta), model.flow(delta), rtol=0, atol=1e-12)
    assert np.allclose(grid.full_jacobian(delta),
                       model.to_second_order().jacobian_at(delta), rtol=0, atol=1e-12)
    ref = model.referenced(eq)
    x_eq = grid.referenced_state(delta)
    assert np.allclose(x_eq, ref.equilibrium_state, rtol=0, atol=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = x_eq + 0.3 * rng.normal(size=x_eq.size)
        assert np.allclose(grid.referenced_rhs(0.0, x), ref.rhs(0.0, x), rtol=0, atol=1e-12)
        assert np.allclose(grid.referenced_jacobian(x), ref.jacobian(x), rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """The bundled commands run in-process into a temporary directory."""
    old = os.getcwd()
    os.chdir(ROOT)
    try:
        bench = wl.CliBundled(0, str(tmp_path_factory.mktemp("cli")))
        codes = {}
        for label, argv, _ in bench.commands:
            with contextlib.redirect_stdout(io.StringIO()):
                codes[label] = cli.main(argv)
        bench.references()
    finally:
        os.chdir(old)
    return bench, codes


@contextlib.contextmanager
def altered(bench, name, change):
    """Temporarily rewrite one JSON output of ``bench`` with ``change``."""
    path = os.path.join(bench.out, name)
    with open(path) as fh:
        original = fh.read()
    payload = json.loads(original)
    change(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    try:
        yield
    finally:
        with open(path, "w") as fh:
            fh.write(original)


def test_cli_checks_pass_on_program_output(cli_run):
    bench, codes = cli_run
    for label, _, expected in bench.commands:
        bench.check(label, expected, codes[label])


def test_spectrum_check_rejects_shifted_eigenvalue(cli_run):
    bench, _ = cli_run

    def shift(payload):
        payload["eigenvalues"][1]["re"] += 1e-6

    with altered(bench, "spectrum_case2.json", shift):
        with pytest.raises(wl.CheckFailed, match="eigenvalues"):
            bench.check_spectrum_case2()


def test_hopf_check_rejects_moved_gamma0(cli_run):
    bench, _ = cli_run

    def move(payload):
        payload[0]["gamma0"] += 1e-4

    with altered(bench, "hopf-scan_case2/certificates.json", move):
        with pytest.raises(wl.CheckFailed, match="gamma0"):
            bench.check_hopf_scan_case2()


def test_exit_code_check_rejects_wrong_verdict(cli_run):
    bench, _ = cli_run
    with pytest.raises(wl.CheckFailed, match="exit code"):
        bench.check("spectrum_case1", 2, 0)


@pytest.fixture(scope="module")
def branch():
    bench = wl.Case2Branch(0)
    bench.references()
    return bench


def test_cycle_check_rejects_anchor_that_does_not_close(branch):
    _, _, ref, x_eq, _, section = branch.systems[0.25]
    cycle = simulate.poincare_cycle_search(ref.rhs, section, branch.kick,
                                           equilibrium=x_eq)
    branch.check_cycle(0.25, cycle)
    off = dataclasses.replace(cycle, anchor_state=cycle.anchor_state + 1e-4 * section.basis()[:, 0])
    with pytest.raises(wl.CheckFailed, match="does not close"):
        branch.check_cycle(0.25, off)


def test_bracket_check_rejects_wrong_saddle(branch):
    gamma_h = 0.342583
    ref = swing.demo_lossy_two_machine(gamma_h).referenced(branch.eq)
    saddle = ref.drift_equilibrium(wl.SADDLE_GUESS)
    bracket = swing.HomoclinicBracket(
        gamma_low=gamma_h - 5e-6, gamma_high=gamma_h + 5e-6, saddle_state=saddle,
        saddle_eigenvalues=np.linalg.eigvals(ref.jacobian(saddle)),
        saddle_quantity=0.873, fate_low=swing.POLE_SLIP, fate_high=swing.CAPTURED,
    )
    branch.check_bracket(bracket, [(0.33, None)])
    with pytest.raises(wl.CheckFailed, match="saddle residual"):
        branch.check_bracket(dataclasses.replace(bracket, saddle_state=saddle + 1e-6), [])
    with pytest.raises(wl.CheckFailed, match="above gamma_h"):
        branch.check_bracket(bracket, [(0.343, None)])


@pytest.fixture(scope="module")
def grid_bench():
    bench = wl.LargeGrid(0)
    bench.references()
    return bench


def test_verdict_check_rejects_flipped_verdict_and_bad_witness(grid_bench):
    bench = grid_bench
    name, model, eq = bench.verdict_grids[2]
    verdict = swing.lossless_imaginary_criterion(model, eq)
    bench.check_verdict(name, verdict)
    with pytest.raises(wl.CheckFailed, match="verdict"):
        bench.check_verdict(name, dataclasses.replace(verdict, imaginary_pair_exists=False))
    witness = verdict.witnesses[0]
    bent = dataclasses.replace(witness, vector=witness.vector + 1e-3)
    with pytest.raises(wl.CheckFailed):
        bench.check_verdict(name, dataclasses.replace(verdict, witnesses=(bent,)))


def test_symmetric_checks_reject_flipped_verdict_and_shifted_axis_pair(grid_bench):
    bench = grid_bench
    x0 = np.zeros(wl.GRID_N)
    verdict = stability.hyperbolicity_symmetric(bench.symmetric["mirror_pair"], x0)
    bench.check_symmetric("mirror_pair", verdict)
    with pytest.raises(wl.CheckFailed, match="verdict"):
        bench.check_symmetric("mirror_pair", dataclasses.replace(verdict, hyperbolic=True))
    shifted = verdict.axis_eigenvalues + 1e-4j
    with pytest.raises(wl.CheckFailed, match="axis set"):
        bench.check_symmetric("mirror_pair",
                              dataclasses.replace(verdict, axis_eigenvalues=shifted))

    report = stability.monotonicity_compare(*bench.monotonicity_pair,
                                            np.zeros(wl.MONOTONICITY_N))
    bench.check_monotonicity(report)
    with pytest.raises(wl.CheckFailed, match="enlarged"):
        bench.check_monotonicity(dataclasses.replace(report, subset_holds=False))
    with pytest.raises(wl.CheckFailed, match="axis set"):
        bench.check_monotonicity(dataclasses.replace(
            report, axis_set_second=report.axis_set_first))
