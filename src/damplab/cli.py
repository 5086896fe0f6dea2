"""Batch command-line front end.

Commands
--------
``spectrum``   eigenvalues, inertia triple and hyperbolicity verdict of a
               grid model at one damping value (exit 2 when non-hyperbolic).
``hopf-scan``  damping sweep: eigenvalue locus CSV plus one certificate JSON
               per axis crossing.
``simulate``   time-domain integration of the referenced model, optional
               Poincare cycle search; trajectory CSV and cycle JSON.
``verify``     seeded randomized suites for the theorem-level claims (exit 3
               on any failure, with the failing instance serialized for
               replay); no suite checks the unsymmetric imaginary-pair test
               ``stability.imaginary_pair_sufficient_unsymmetric`` yet.
``reduce``     referenced-model export (equilibrium, Jacobian, spectra).

The ``DAMPLAB_LOG`` environment variable (``debug``, ``info``, default
``warning``) only sets the logging level, and ``logging`` is imported only
when it is set: no command logs progress messages yet (ROADMAP item 5).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, swing
from ._validation import TOL_AXIS, spectral_scale
from .errors import (
    DampLabError,
    TrackingAmbiguity,
)
from .linalg import _reports, classify_spectrum, pair_upper

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONHYPERBOLIC = 2
EXIT_PROPERTY_FAILURE = 3


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".damplab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _fmt_complex(z):
    return f"{z.real:+.6f}{z.imag:+.6f}i"


def _sorted_eigenvalues(values):
    """Eigenvalues by (real, imaginary) part, the order of every output."""
    return sorted(values, key=lambda z: (z.real, z.imag))


def _parse_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected gamma range as lo:hi:samples")
    lo, hi, n = _finite(parts[0]), _finite(parts[1]), int(parts[2])
    if n < 2 or not lo < hi:
        raise argparse.ArgumentTypeError("need lo < hi and samples >= 2")
    return lo, hi, n


def _finite(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive(text):
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


class _TimeSpan(argparse.Action):
    """``T0 T1``, finite, with ``T0 <= T1``."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values[1] < values[0]:
            parser.error(f"argument {option_string}: the end {values[1]:g} "
                         f"precedes the start {values[0]:g}")
        setattr(namespace, self.dest, values)


def _load(args, gamma=None):
    mfile = swing.load_grid_model(args.model)
    if gamma is None:
        gamma = getattr(args, "gamma", None)
    model = mfile.model(gamma)
    return mfile, model


def _equilibrium(mfile, model, args):
    if getattr(args, "initial_state", None):
        guess = np.asarray(args.initial_state, dtype=float)
    elif mfile.delta_guess is not None:
        guess = np.asarray(mfile.delta_guess, dtype=float)
    else:
        guess = np.zeros(model.n)
    if guess.shape != (model.n,):
        raise DampLabError(
            f"equilibrium guess needs {model.n} angles, got {guess.size}"
        )
    return model.solve_equilibrium(guess)


def cmd_spectrum(args):
    mfile, model = _load(args)
    eq = _equilibrium(mfile, model, args)
    system = model.to_second_order()
    report = _reports(system.inertia, system.damping, system.jac(eq.delta0), args.tol_axis)[0]
    eigenvalues = _sorted_eigenvalues(report.eigenvalues)
    print(f"model: {args.model}")
    print(f"equilibrium angles: {np.array2string(eq.delta0, precision=6)}")
    print(f"residual: {eq.residual:.3e}   admissible-set member: {eq.in_omega}")
    print(f"lossless: {model.is_lossless()}")
    print("eigenvalues:")
    for z in eigenvalues:
        print(f"  {_fmt_complex(z)}")
    print(f"inertia (left, axis, right): {report.inertia}")

    hyperbolic = report.nonzero_axis_set.size == 0
    print(f"hyperbolic beyond the structural zero: {hyperbolic}")

    if model.is_lossless() and eq.in_omega:
        verdict = swing.lossless_imaginary_criterion(
            model, eq, tol_axis=args.tol_axis
        )
        for w in verdict.witnesses:
            vec = np.array2string(np.real_if_close(w.vector), precision=4)
            print(
                f"unobservable mode: eigenvalue {w.eigenvalue.real:.6f}, "
                f"vector {vec}, damping residual {w.residual:.2e}"
            )
        if verdict.witnesses:
            repairs = swing.damping_repair_suggestion(model, eq, verdict.witnesses)
            print(f"damping repair suggestion: generators {[j + 1 for j in repairs]}")

    if args.out:
        payload = {
            "eigenvalues": [{"re": z.real, "im": z.imag} for z in eigenvalues],
            "inertia": list(report.inertia),
            "hyperbolic_beyond_structural_zero": hyperbolic,
            "equilibrium": eq.delta0.tolist(),
            "in_omega": eq.in_omega,
            "tol_axis": args.tol_axis,
            "gamma": getattr(args, "gamma", None),
        }
        _atomic_write(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if hyperbolic else EXIT_NONHYPERBOLIC


def cmd_hopf_scan(args):
    from . import hopf

    mfile, model = _load(args, gamma=args.gamma_range[0])
    eq = _equilibrium(mfile, model, args)
    lo, hi, samples = args.gamma_range
    path = swing.grid_damping_path(model, eq, mfile.gamma_mask, (lo, hi))

    try:
        scan = hopf.sweep(path, samples=samples)
    except TrackingAmbiguity as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: increase the sample count in --gamma-range", file=sys.stderr)
        return EXIT_ERROR

    locus_rows = ["gamma,branch,re,im"]
    for g, eigs in zip(scan.gammas, scan.spectra):
        upper = sorted(eigs[pair_upper(eigs, scan.scale)], key=lambda z: z.imag)
        for branch, z in enumerate(upper):
            locus_rows.append(f"{g:.10g},{branch},{z.real:.12g},{z.imag:.12g}")

    certificates = []
    for crossing in scan.crossings:
        cert = hopf.hopf_conditions(
            path, crossing.gamma, omega_hint=crossing.omega,
            boundary=crossing.boundary,
        )
        certificates.append(cert)
        print(
            f"crossing: gamma0 = {cert.gamma0:.6f}  omega0 = {cert.omega0:.6f}"
            f"{'  (range boundary)' if cert.boundary else ''}"
        )
        print(
            f"  transversal drift Re(dxi/dgamma) = {cert.transversality:+.6f}  "
            f"simple: {cert.simple}  resonance-free (k <= {cert.resonance_kmax}): "
            f"{cert.resonance_clear}"
        )
        if cert.l1 is not None:
            print(f"  first Lyapunov coefficient = {cert.l1:+.6g}  -> {cert.kind}")

    if not certificates:
        print("no axis crossings in the scanned range")

    out_dir = args.out or "."
    locus_path = os.path.join(out_dir, "locus.csv")
    _atomic_write(locus_path, "\n".join(locus_rows) + "\n")
    cert_path = os.path.join(out_dir, "certificates.json")
    payload = [
        {
            "gamma0": c.gamma0,
            "omega0": c.omega0,
            "boundary": c.boundary,
            "transversality": c.transversality,
            "dlambda_dgamma": {"re": c.dlambda_dgamma.real,
                               "im": c.dlambda_dgamma.imag},
            "simple": c.simple,
            "eigenvalue_gap": c.eigenvalue_gap,
            "resonance_clear": c.resonance_clear,
            "resonance_kmax": c.resonance_kmax,
            "l1": c.l1,
            "kind": c.kind,
            "mode_vector": {"re": c.v.real.tolist(), "im": c.v.imag.tolist()},
        }
        for c in certificates
    ]
    _atomic_write(cert_path, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {locus_path} and {cert_path}")
    return EXIT_OK


def cmd_simulate(args):
    from . import simulate

    rtol = simulate.RTOL if args.rtol is None else args.rtol
    atol = simulate.ATOL if args.atol is None else args.atol
    mfile, model = _load(args)
    eq = _equilibrium(mfile, model, args)
    ref = model.referenced(eq)
    x_eq = ref.equilibrium_state
    eigs, vecs = np.linalg.eig(ref.jacobian())

    if args.state:
        x0 = np.asarray(args.state, dtype=float)
        if x0.shape != (ref.dim,):
            raise DampLabError(
                f"referenced state needs {ref.dim} components, got {x0.size}"
            )
    else:
        upper = np.flatnonzero(pair_upper(eigs, spectral_scale(eigs)))
        idx = (
            upper[np.argmax([eigs[i].real for i in upper])]
            if upper.size
            else np.argmax(eigs.real)
        )
        # LAPACK makes the largest component real, and which one that is
        # hangs on last bits when two tie in magnitude, as in case1's
        # symmetric mode.  The last component within 1e-8 of the largest
        # magnitude is made real positive instead (LAPACK's pick for case1).
        vec = vecs[:, idx]
        mag = np.abs(vec)
        pivot = np.flatnonzero(mag >= (1 - 1e-8) * mag.max())[-1]
        mode = np.real(vec * (mag[pivot] / vec[pivot]))
        mode /= max(np.linalg.norm(mode), 1e-300)
        x0 = x_eq + args.kick * mode

    t0, t1 = args.t_span
    section = None
    cycle = None
    if args.cycle_search:
        idx = np.argmax(eigs.imag)
        section = simulate.hopf_section(x_eq, vecs[:, idx])
        try:
            cycle = simulate.poincare_cycle_search(
                ref.rhs, section, x0, equilibrium=x_eq,
                rtol=rtol, atol=atol,
            )
        except DampLabError as exc:
            print(f"cycle search: not found ({exc})")

    traj = simulate.integrate(
        ref.rhs, x0, (t0, t1), rtol=rtol, atol=atol,
        section=section,
    )

    classification = simulate.classify_orbit(traj, x_eq)
    print(f"integrated t = [{t0:g}, {t1:g}] with {traj.times.size} samples")
    print(f"orbit classification: {classification}")
    if cycle is not None:
        print(
            f"cycle: period = {cycle.period:.6f}, amplitude = "
            f"{cycle.amplitude:.6f}, {cycle.stability_hint}, "
            f"return error = {cycle.return_error:.2e}"
        )

    n = model.n
    header = (
        ["t"]
        + [f"psi_{j + 1}" for j in range(n - 1)]
        + [f"omega_{j + 1}" for j in range(n)]
        + ["crossing"]
    )
    rows = [",".join(header)]
    for t, state in zip(traj.times, traj.states):
        cells = [f"{t:.10g}"] + [f"{x:.12g}" for x in state] + ["0"]
        rows.append(",".join(cells))
    for c in traj.event_log:
        cells = [f"{c.time:.10g}"] + [f"{x:.12g}" for x in c.state] + ["1"]
        rows.append(",".join(cells))

    out_dir = args.out or "."
    traj_path = os.path.join(out_dir, "trajectory.csv")
    _atomic_write(traj_path, "\n".join(rows) + "\n")
    summary = {
        "classification": classification,
        "samples": int(traj.times.size),
        "t_span": [t0, t1],
        "cycle": None
        if cycle is None
        else {
            "period": cycle.period,
            "anchor_state": cycle.anchor_state.tolist(),
            "return_error": cycle.return_error,
            "stability_hint": cycle.stability_hint,
            "amplitude": cycle.amplitude,
        },
    }
    summary_path = os.path.join(out_dir, "summary.json")
    _atomic_write(summary_path, json.dumps(summary, indent=2) + "\n")
    print(f"wrote {traj_path} and {summary_path}")
    return EXIT_OK


def cmd_verify(args):
    from . import suites

    seed = suites.DEFAULT_SEED if args.seed is None else args.seed
    results = suites.run_all(seed=seed, scale=args.scale)
    any_failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name:30s} trials = {res.trials:5d}  {status}")
        if not res.passed:
            any_failed = True
    if any_failed:
        dump = {
            res.name: res.failures for res in results if not res.passed
        }
        out_path = os.path.join(args.out or ".", "verify_failures.json")
        _atomic_write(out_path, json.dumps(dump, indent=2) + "\n")
        print(f"FAILURES dumped to {out_path}", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE
    print(f"all suites passed (seed = {seed})")
    return EXIT_OK


def cmd_reduce(args):
    mfile, model = _load(args)
    eq = _equilibrium(mfile, model, args)
    ref = model.referenced(eq)
    system = model.to_second_order()
    full_report = _reports(system.inertia, system.damping, system.jac(eq.delta0))[0]
    jac = ref.jacobian()
    reduced_eigs = np.linalg.eigvals(jac)
    reduced_report = classify_spectrum(reduced_eigs)
    payload = {
        "n": model.n,
        "equilibrium_angles": eq.delta0.tolist(),
        "referenced_equilibrium": ref.equilibrium_state.tolist(),
        "jacobian": jac.tolist(),
        "eigenvalues": [
            {"re": z.real, "im": z.imag} for z in _sorted_eigenvalues(reduced_eigs)
        ],
        "inertia_full": list(full_report.inertia),
        "inertia_reduced": list(reduced_report.inertia),
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        _atomic_write(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="damplab",
        description="Equilibrium stability and Hopf bifurcation analysis "
        "of swing-equation power-grid models.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p):
        p.add_argument("model", help="grid model JSON file")
        p.add_argument(
            "--initial-state", type=_finite, nargs="+", default=None,
            help="equilibrium guess angles (radians)",
        )
        p.add_argument("--out", default=None, help="output file or directory")

    p = sub.add_parser("spectrum", help="eigenvalues and hyperbolicity verdict")
    add_model(p)
    p.add_argument("--gamma", type=_finite, default=None,
                   help="value for 'gamma' damping placeholders")
    p.add_argument("--tol-axis", type=_positive, default=TOL_AXIS)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("hopf-scan", help="damping sweep with Hopf certificates")
    add_model(p)
    p.add_argument("--gamma-range", type=_parse_range, required=True,
                   metavar="LO:HI:SAMPLES")
    p.set_defaults(func=cmd_hopf_scan)

    p = sub.add_parser("simulate", help="integrate the referenced model")
    add_model(p)
    p.add_argument("--gamma", type=_finite, default=None)
    p.add_argument("--state", type=_finite, nargs="+", default=None,
                   help="initial referenced state (psi_1.. omega_1..)")
    p.add_argument("--kick", type=_finite, default=1e-2,
                   help="mode kick amplitude when --state is omitted")
    p.add_argument("--t-span", type=_finite, nargs=2, default=(0.0, 100.0),
                   action=_TimeSpan)
    # None stands for simulate.RTOL, simulate.ATOL and suites.DEFAULT_SEED,
    # which the commands read, so building the parser loads neither module.
    p.add_argument("--rtol", type=_positive, default=None)
    p.add_argument("--atol", type=_positive, default=None)
    p.add_argument("--cycle-search", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the randomized verification suites")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scale", type=_positive, default=1.0,
                   help="multiplier on per-suite trial counts")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", help="export the referenced model")
    add_model(p)
    p.add_argument("--gamma", type=_finite, default=None)
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None):
    level = os.environ.get("DAMPLAB_LOG")
    if level:  # unset, logging stays unloaded: no module logs yet
        import logging
        logging.basicConfig(level=getattr(logging, level.upper(), logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DampLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
