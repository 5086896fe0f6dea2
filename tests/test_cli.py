import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from damplab import cli, hopf, simulate, suites, swing
from damplab.errors import StepSizeUnderflow, TrackingAmbiguity
from conftest import CASE1_FILE


CASE1 = json.loads(CASE1_FILE.read_text())


def case2_dict():
    model = swing.demo_lossy_two_machine(0.2)
    return {
        "n": 2,
        "Y": [{"from": 1, "to": 2, "re": -1.0, "im": 5.7978}],
        "V": [1.0, 1.0],
        "Pm": list(model.p_mech),
        "inertia": [1.0, 1.0],
        "damping": ["gamma", 1.0],
        "omega_s": 1.0,
        "delta_guess": [1.4, 0.0],
    }


BUS_NUMBERS = r"Y\[0\]: needs integer 'from' and 'to' bus numbers"
Y_NUMBERS = r"Y\[0\]: re/im and mag/angle must be numbers"


@pytest.fixture()
def case1_file(model_file):
    return model_file(CASE1, "case1.json")


@pytest.fixture()
def case2_file(model_file):
    return model_file(case2_dict(), "case2.json")


class TestSpectrum:
    def test_undamped_pair_exits_2(self, case1_file, capsys):
        code = cli.main(["spectrum", case1_file, "--gamma", "0"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_NONHYPERBOLIC
        assert "1.224745" in out
        assert "unobservable mode" in out

    def test_damped_exits_0(self, case1_file, capsys):
        code = cli.main(["spectrum", case1_file, "--gamma", "0.3"])
        assert code == cli.EXIT_OK
        assert "hyperbolic beyond the structural zero: True" in capsys.readouterr().out

    def test_missing_file_exits_1(self, capsys):
        code = cli.main(["spectrum", "/nonexistent/model.json", "--gamma", "0"])
        assert code == cli.EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_json_report_written(self, case1_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(
            ["spectrum", case1_file, "--gamma", "0.3", "--out", str(out)]
        )
        assert code == cli.EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["hyperbolic_beyond_structural_zero"] is True
        assert len(payload["eigenvalues"]) == 6

    def test_json_eigenvalues_in_stdout_order(self, case1_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        cli.main(["spectrum", case1_file, "--gamma", "0.3", "--out", str(out)])
        text = capsys.readouterr().out
        printed = text.split("eigenvalues:\n")[1].split("inertia")[0].split()
        written = [
            cli._fmt_complex(complex(z["re"], z["im"]))
            for z in json.loads(out.read_text())["eigenvalues"]
        ]
        assert written == printed

    def test_gamma_placeholder_needs_value(self, case1_file, capsys):
        code = cli.main(["spectrum", case1_file])
        assert code == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert "'gamma' placeholders" in err
        assert err.count(case1_file) == 1

    def test_scalar_damping_exits_1(self, model_file, capsys):
        path = model_file(dict(CASE1, damping=0.5))
        code = cli.main(["spectrum", path, "--gamma", "0.3"])
        assert code == cli.EXIT_ERROR
        assert "damping must be a list of length 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("V", ["x", 1], "V must be numeric"),
            ("omega_s", "fast", "omega_s must be numeric"),
            ("omega_s", math.nan, "omega_s must be positive and finite"),
            ("omega_s", math.inf, "omega_s must be positive and finite"),
            ("inertia", [1, "heavy"], "inertia must be numeric"),
            ("Y", [{"from": 1, "to": 2, "mag": "x"}], r"Y\[0\]: re/im and mag/angle"),
            ("Y", [{"from": 1, "to": 2, "re": "x"}], r"Y\[0\]: re/im and mag/angle"),
            ("V", 5, "voltage must be 1-d"),
            ("Pm", None, "p_mech must be 1-d"),
            ("delta_guess", ["x", 0], "delta_guess must be a list of 2 numbers"),
            ("delta_guess", [[1.4], [0.0]], "delta_guess must be a list of 2 numbers"),
            ("Y", [{"from": 1.7, "to": 2, "re": -1.0, "im": 5.7978}], BUS_NUMBERS),
            ("Y", [{"from": "2", "to": 1, "re": -1.0, "im": 5.7978}], BUS_NUMBERS),
            ("Y", [{"from": True, "to": 2, "re": -1.0, "im": 5.7978}], BUS_NUMBERS),
            ("V", [True, 1.0], "V must be numeric"),
            ("Pm", [True, -1.0], "Pm must be numeric"),
            ("inertia", [1.0, True], "inertia must be numeric"),
            ("omega_s", True, "omega_s must be numeric"),
            ("damping", ["gamma", True], r"damping\[1\] must be a number or 'gamma'"),
            ("Y", [{"from": 1, "to": 2, "re": True, "im": 5.7978}], Y_NUMBERS),
            ("Y", [{"from": 1, "to": 2, "re": -1.0, "im": True}], Y_NUMBERS),
            ("Y", [{"from": 1, "to": 2, "mag": True, "angle": 1.7}], Y_NUMBERS),
            ("Y", [{"from": 1, "to": 2, "mag": 5.9, "angle": True}], Y_NUMBERS),
        ],
        ids=["V_string", "omega_s_string", "omega_s_nan", "omega_s_inf",
             "inertia_string", "Y_mag_string", "Y_re_string", "V_scalar", "Pm_null",
             "delta_guess_string", "delta_guess_nested", "Y_from_float", "Y_from_string",
             "Y_from_bool", "V_bool", "Pm_bool", "inertia_bool", "omega_s_bool",
             "damping_bool", "Y_re_bool", "Y_im_bool", "Y_mag_bool", "Y_angle_bool"],
    )
    def test_non_numeric_field_exits_1(self, model_file, capsys, field, value,
                                       message):
        path = model_file(dict(case2_dict(), **{field: value}))
        code = cli.main(["spectrum", path, "--gamma", "0.25"])
        assert code == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert re.search(message, err)
        assert err.count(path) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_tol_axis_is_a_usage_error(self, case1_file, value, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["spectrum", case1_file, "--gamma", "0", "--tol-axis", value])
        assert info.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("damplab spectrum: error: argument --tol-axis: ")


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("spectrum", "--gamma", "nan"),
        ("reduce", "--gamma", "inf"),
        ("hopf-scan", "--gamma-range", "0.1:inf:21"),
        ("hopf-scan", "--gamma-range", "nan:0.3:21"),
        ("spectrum", "--initial-state", "nan"),
    ],
    ids=["spectrum_gamma_nan", "reduce_gamma_inf", "hopf-scan_hi_inf",
         "hopf-scan_lo_nan", "spectrum_initial_state_nan"],
)
def test_non_finite_option_is_a_usage_error(case1_file, command, option, value,
                                            capsys):
    # A value from the command line is not the model file's fault.
    with pytest.raises(SystemExit) as info:
        cli.main([command, case1_file, option, value])
    assert info.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert error.startswith(f"damplab {command}: error: argument {option}: ")


class TestHopfScan:
    def test_tracking_ambiguity_hints_at_the_sample_count(self, case2_file, tmp_path,
                                                          monkeypatch, capsys):
        def ambiguous(path, samples):
            raise TrackingAmbiguity("ambiguous eigenvalue pairing", gamma=0.2)

        monkeypatch.setattr(hopf, "sweep", ambiguous)
        out = tmp_path / "out"
        code = cli.main(["hopf-scan", case2_file, "--gamma-range", "0.1:0.3:21",
                         "--out", str(out)])
        assert code == cli.EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: ambiguous eigenvalue pairing\n"
            "hint: increase the sample count in --gamma-range\n")
        assert not out.exists()

    def test_each_grid_gamma_is_solved_once(self, case2_file, tmp_path,
                                            monkeypatch, capsys):
        # locus.csv reuses the sweep's spectra instead of solving again
        gammas = []
        jacobian = hopf.DampingPath.jacobian
        monkeypatch.setattr(hopf.DampingPath, "jacobian",
                            lambda path, g: gammas.append(g) or jacobian(path, g))
        code = cli.main(["hopf-scan", case2_file, "--gamma-range", "0.1:0.3:21",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert [gammas.count(g) for g in np.linspace(0.1, 0.3, 21)] == [1] * 21

    def test_case2_certificate(self, case2_file, tmp_path, capsys):
        code = cli.main(
            ["hopf-scan", case2_file, "--gamma-range", "0.1:0.3:21",
             "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_OK
        certs = json.loads((tmp_path / "certificates.json").read_text())
        assert len(certs) == 1
        cert = certs[0]
        assert abs(cert["gamma0"] - 0.2) <= 1e-3
        assert cert["kind"] == "subcritical"
        assert 1.03 <= cert["l1"] <= 1.27
        locus = (tmp_path / "locus.csv").read_text().splitlines()
        assert locus[0] == "gamma,branch,re,im"
        assert len(locus) > 21

    def test_case1_boundary_certificate(self, case1_file, tmp_path, capsys):
        code = cli.main(
            ["hopf-scan", case1_file, "--gamma-range", "0:0.5:26",
             "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_OK
        certs = json.loads((tmp_path / "certificates.json").read_text())
        assert len(certs) == 1
        cert = certs[0]
        assert cert["boundary"] is True
        assert cert["gamma0"] == 0.0
        assert cert["kind"] == "supercritical"
        assert -2.0e-3 <= cert["l1"] <= -1.2e-3
        assert abs(abs(cert["transversality"]) - 0.5) <= 1e-4

    def test_stable_model_no_certificates(self, model_file, tmp_path, capsys):
        data = dict(CASE1)
        data["damping"] = [1.0, 1.0, 1.5]
        data["Y"] = CASE1["Y"]
        path = model_file(data, "stable.json")
        code = cli.main(
            ["hopf-scan", path, "--gamma-range", "0:1:11", "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "no axis crossings" in out
        assert json.loads((tmp_path / "certificates.json").read_text()) == []


class TestSimulate:
    def test_case1_oscillation_csv(self, case1_file, tmp_path, capsys):
        code = cli.main(
            ["simulate", case1_file, "--gamma", "0", "--kick", "0.02",
             "--t-span", "0", "400", "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_OK
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert header == ["t", "psi_1", "psi_2", "omega_1", "omega_2",
                          "omega_3", "crossing"]
        data = np.loadtxt(rows[1:], delimiter=",")
        t, psi1 = data[:, 0], data[:, 1]
        # resample uniformly and find the dominant frequency
        tu = np.linspace(t[0], t[-1], 16384)
        sig = np.interp(tu, t, psi1)
        sig -= sig.mean()
        spectrum = np.abs(np.fft.rfft(sig * np.hanning(sig.size)))
        freqs = np.fft.rfftfreq(sig.size, d=(tu[1] - tu[0]))
        f_peak = freqs[np.argmax(spectrum)]
        f_want = math.sqrt(1.5) / (2 * math.pi)
        assert abs(f_peak - f_want) <= 0.02 * f_want
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["classification"] == "near_periodic"

    def test_zero_length_span(self, case1_file, tmp_path, capsys):
        code = cli.main(
            ["simulate", case1_file, "--gamma", "0.2", "--t-span", "0", "0",
             "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_OK
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 2  # header plus the initial sample

    def test_wrong_state_length(self, case1_file, capsys):
        code = cli.main(
            ["simulate", case1_file, "--gamma", "0.2", "--state", "1", "2"]
        )
        assert code == cli.EXIT_ERROR

    def test_failed_integration_is_an_error(self, case1_file, tmp_path,
                                            monkeypatch, capsys):
        # The integrator's error reaches ``main``'s one error path: exit 1,
        # its message on stderr and no trajectory written.
        def underflow(*args, **kwargs):
            raise StepSizeUnderflow("integration failed: Required step size is "
                                    "less than spacing between numbers.")

        monkeypatch.setattr(simulate, "integrate", underflow)
        out = tmp_path / "out"
        code = cli.main(["simulate", case1_file, "--gamma", "0", "--out", str(out)])
        assert code == cli.EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: integration failed: Required step size is less than "
            "spacing between numbers.\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "option",
        [
            ["--rtol", "0"],
            ["--atol", "-1"],
            ["--t-span", "0", "nan"],
            ["--t-span", "10", "0"],
            ["--kick", "nan"],
            ["--state", "nan", "0", "0", "0", "0"],
            ["--gamma", "nan"],
        ],
        ids=["rtol_zero", "atol_negative", "end_nan", "decreasing", "kick_nan",
             "state_nan", "gamma_nan"],
    )
    def test_bad_option_is_a_usage_error(self, case1_file, option, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["simulate", case1_file, "--gamma", "0.2", *option])
        assert info.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith(f"damplab simulate: error: argument {option[0]}: ")

    @pytest.mark.parametrize(
        "option",
        [["--rtol", "nan"], ["--atol", "nan"],
         ["--rtol", "nan", "--cycle-search"], ["--atol", "nan", "--cycle-search"]],
        ids=["rtol", "atol", "rtol_cycle_search", "atol_cycle_search"],
    )
    def test_nan_tolerance_is_a_usage_error(self, case2_file, option, tmp_path):
        # These once ran without end, so each runs in a fresh interpreter
        # with a timeout.
        out = subprocess.run(
            [sys.executable, "-m", "damplab.cli", "simulate", case2_file,
             "--gamma", "0.25", *option],
            capture_output=True, text=True, timeout=60, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        )
        assert out.returncode == 2
        error = out.stderr.splitlines()[-1]
        assert error.startswith(f"damplab simulate: error: argument {option[0]}: ")

    def test_cycle_search_locates_unstable_cycle(self, case2_file, tmp_path,
                                                 capsys):
        code = cli.main(
            ["simulate", case2_file, "--gamma", "0.25", "--kick", "0.05",
             "--t-span", "0", "30", "--cycle-search", "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        cycle = summary["cycle"]
        assert cycle is not None
        assert cycle["stability_hint"] == "expanding_section"
        assert abs(cycle["period"] - 6.793) < 0.05
        assert 0.3 < cycle["amplitude"] < 0.4


class TestVerify:
    def test_deterministic_output(self, capsys):
        code1 = cli.main(["verify", "--seed", "42", "--scale", "0.02"])
        out1 = capsys.readouterr().out
        code2 = cli.main(["verify", "--seed", "42", "--scale", "0.02"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == cli.EXIT_OK
        assert out1 == out2
        assert "all suites passed" in out1

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_bad_scale_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "--scale", value])
        assert info.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("damplab verify: error: argument --scale: ")

    def test_injected_bug_trips_suite_and_dumps(self, tmp_path, monkeypatch,
                                                capsys):
        # Flip the sign of the coupling weights: the analytic flow Jacobian
        # no longer matches finite differences of the flow, and the verify
        # harness must catch it, dump the instance, and exit 3.
        original = swing.PowerGridModel.weights

        def flipped(self, delta):
            return -original(self, delta)

        monkeypatch.setattr(swing.PowerGridModel, "weights", flipped)
        result = suites.suite_flow_jacobian_fd(seed=1, trials=5)
        assert not result.passed

        monkeypatch.setattr(
            suites, "SUITES", {"flow_jacobian_fd": suites.suite_flow_jacobian_fd}
        )
        code = cli.main(["verify", "--scale", "0.05", "--out", str(tmp_path)])
        assert code == cli.EXIT_PROPERTY_FAILURE
        dump = json.loads((tmp_path / "verify_failures.json").read_text())
        assert "flow_jacobian_fd" in dump and dump["flow_jacobian_fd"]

    def test_failure_payloads_round_trip_through_json(self):
        # The replay dump is json.dumps of the failures: every numpy and
        # complex value must come out as plain JSON.
        result = suites.SuiteResult(name="replay", trials=1)
        result.record(
            matrix=np.array([[1.0, 2.0], [3.0, 4.0]]),
            eigenvalues=np.array([1 + 2j, -0.5j]),
            index=np.int64(3),
            margin=np.float32(0.5),
            eigenvalue=complex(0.25, -1.0),
        )
        assert result.failures == [{
            "matrix": [[1.0, 2.0], [3.0, 4.0]],
            "eigenvalues": {"re": [1.0, 0.0], "im": [2.0, -0.5]},
            "index": 3,
            "margin": 0.5,
            "eigenvalue": {"re": 0.25, "im": -1.0},
        }]
        assert json.loads(json.dumps(result.failures)) == result.failures


class TestReduce:
    def test_export(self, case2_file, tmp_path, capsys):
        out = tmp_path / "reduced.json"
        code = cli.main(
            ["reduce", case2_file, "--gamma", "0.25", "--out", str(out)]
        )
        assert code == cli.EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["n"] == 2
        assert len(payload["jacobian"]) == 3
        left, axis, right = payload["inertia_full"]
        rleft, raxis, rright = payload["inertia_reduced"]
        assert (left, axis - 1, right) == (rleft, raxis, rright)

    def test_eigenvalues_sorted(self, case2_file, tmp_path, capsys):
        out = tmp_path / "reduced.json"
        cli.main(["reduce", case2_file, "--gamma", "0.25", "--out", str(out)])
        eigs = [(z["re"], z["im"]) for z in json.loads(out.read_text())["eigenvalues"]]
        assert eigs == sorted(eigs)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def modules_loaded(argv, cwd, target="damplab.cli"):
    """The loaded scipy modules and the loaded damplab modules, two sorted
    lists, and whether ``numpy.random`` is loaded, after importing ``target``
    and running ``argv`` through ``damplab.cli.main`` (nothing but the import
    when empty) in a fresh interpreter where any scipy import fails."""
    code = (
        "import importlib, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "importlib.import_module(sys.argv[1])\n"
        "if sys.argv[2:]:\n"
        "    sys.modules['damplab.cli'].main(sys.argv[2:])\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == top "
        "and sys.modules[m] is not None) for top in ('scipy', 'damplab')]\n"
        "                 + ['numpy.random' in sys.modules]), file=sys.stderr)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, target, *argv], check=True, capture_output=True,
        text=True, cwd=cwd, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )
    return json.loads(out.stderr.splitlines()[-1])


#: What ``spectrum`` and ``reduce`` run: the modules the cli imports.
CLI_MODULES = ["damplab", "damplab._validation", "damplab.cli", "damplab.errors",
               "damplab.linalg", "damplab.stability", "damplab.swing"]

#: The modules each command loads beyond ``CLI_MODULES``: ``simulate`` is
#: run by no suite.
COMMAND_MODULES = {
    "spectrum": [],
    "reduce": [],
    "hopf-scan": ["damplab._roots", "damplab.hopf"],
    "simulate": ["damplab._roots", "damplab.simulate"],
    "verify": ["damplab._roots", "damplab.hopf", "damplab.perturbation", "damplab.suites"],
}


def test_package_import_loads_no_submodule(tmp_path):
    assert modules_loaded([], tmp_path, target="damplab") == [[], ["damplab"], False]


def test_cli_import_leaves_scipy_solvers_unloaded(tmp_path):
    # damplab runs on numpy alone, so every command starts at numpy speed.
    assert modules_loaded([], tmp_path) == [[], CLI_MODULES, False]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "case1.json", "--gamma", "0"],
        ["spectrum", "case2.json", "--gamma", "0.25"],
        ["hopf-scan", "case1.json", "--gamma-range", "0:1:21"],
        ["hopf-scan", "case2.json", "--gamma-range", "0.1:0.3:21"],
        ["reduce", "case2.json", "--gamma", "0.25"],
        ["simulate", "case1.json", "--gamma", "0", "--kick", "0.02",
         "--t-span", "0", "200"],
        ["simulate", "case2.json", "--gamma", "0.25", "--cycle-search"],
        ["verify", "--scale", "0.1"],
    ],
    ids=lambda argv: "_".join(argv[:2]),
)
def test_startup_bound_commands_leave_scipy_solvers_unloaded(argv, tmp_path):
    # Importing scipy.linalg alone costs about 0.17 s, more than one of
    # these commands takes (about 0.13 s), and scipy.optimize 0.4 s.
    # Trajectories, section returns and the cycle search run on damplab's
    # own step loop and root finder, and the suites' spectra are paired by
    # its own matching.  Each command loads only the damplab modules it runs,
    # and only verify, through suites, loads numpy.random: no analysis draws
    # a random start vector.
    want = sorted(CLI_MODULES + COMMAND_MODULES[argv[0]])
    if argv[0] != "verify":
        argv = [argv[0], os.path.join(ROOT, "models", argv[1]), *argv[2:]]
    assert modules_loaded(argv, tmp_path) == [[], want, argv[0] == "verify"]


@pytest.mark.parametrize("log, root_level", [(None, "not loaded"), ("debug", "DEBUG")])
def test_logging_loads_only_when_damplab_log_is_set(log, root_level, tmp_path):
    # No module logs yet, so a run without DAMPLAB_LOG does not pay the
    # import of logging (about 5 ms of a fresh command).
    code = (
        "import sys\n"
        "from damplab import cli\n"
        "cli.main(sys.argv[1:])\n"
        "logging = sys.modules.get('logging')\n"
        "print('not loaded' if logging is None\n"
        "      else logging.getLevelName(logging.getLogger().level), file=sys.stderr)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("DAMPLAB_LOG", None)
    if log:
        env["DAMPLAB_LOG"] = log
    out = subprocess.run(
        [sys.executable, "-c", code, "spectrum", os.path.join(ROOT, "models", "case2.json"),
         "--gamma", "0.25"], check=True, capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert out.stderr.splitlines()[-1] == root_level


def test_package_does_not_import_scipy_integrate():
    # Not every function is reached by a command (swing.locate_homoclinic
    # is not), so only the source shows that no scipy module is imported.
    package = os.path.join(ROOT, "src", "damplab")
    pattern = re.compile(r"^\s*(from|import)\s+scipy\b", re.M)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as f:
                assert not pattern.search(f.read()), name
