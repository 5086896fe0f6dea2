"""Golden-output digest of the bundled CLI commands.

Runs each command below in a fresh interpreter, from a temporary working
directory that holds a copy of ``models/``, with every output under the
relative directory ``out/<label>``.  Prints one block per command: the exit
code, the sha256 of stdout and the sha256 of every file the command wrote.
Two checkouts that print the same digest produce byte-identical CLI output.

A change that moves last bits (a different summation order in the flow, a
different refinement of the same crossing) cannot keep the bytes, so the
outputs can also be kept and compared within tolerances::

    python3 tests/cli_digest.py                  # print the digest
    python3 tests/cli_digest.py --save DIR       # keep exit codes, stdout, files
    python3 tests/cli_digest.py --compare A B    # two saved runs; exit 1 on a difference

``--compare`` requires equal exit codes, the same files, the same text
between the numbers (up to white space) and the same JSON structure; each
number pair must satisfy ``|a - b| <= atol + rtol * max(|a|, |b|)`` with
the tolerance of the first rule in ``TOLERANCES`` that matches it.

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMANDS = (
    ("spectrum_case1", "spectrum models/case1.json --gamma 0 --out out/spectrum_case1/spectrum.json"),
    ("spectrum_case2", "spectrum models/case2.json --gamma 0.25 --out out/spectrum_case2/spectrum.json"),
    ("hopf-scan_case2", "hopf-scan models/case2.json --gamma-range 0.1:0.3:21 --out out/hopf-scan_case2"),
    ("hopf-scan_case1", "hopf-scan models/case1.json --gamma-range 0:1:21 --out out/hopf-scan_case1"),
    ("reduce_case2", "reduce models/case2.json --gamma 0.25 --out out/reduce_case2/reduced.json"),
    ("simulate_case1", "simulate models/case1.json --gamma 0 --kick 0.02 --t-span 0 200 --out out/simulate_case1"),
    ("simulate_case2_cycle", "simulate models/case2.json --gamma 0.25 --cycle-search --out out/simulate_case2_cycle"),
    ("verify", "verify --out out/verify"),
)

#: ``(label, file, context, rtol, atol)``: regular expressions on the
#: command label, the output file name (``stdout`` for standard output) and
#: the number's context: the line up to the number in text, the key path
#: (``mode_vector.re.0``) in JSON.  The first rule that matches applies.
TOLERANCES = (
    # The finite-difference first Lyapunov coefficient: its error against
    # the closed form is 4e-7 (case1) and 1e-7 (case2) relative, and
    # one-ulp noise in the flow moves it by at most 2.3e-7 relative.
    ("hopf-scan", ".*", r"(^|\.)l1$|Lyapunov coefficient = $", 1e-6, 1e-9),
    # Quantities at a refined crossing: Brent's method fixes gamma0 only to
    # its tolerance in gamma, 1e-12 max(1, |gamma_hi|) for the sampled
    # sweep, and the certificate's fields move with gamma0.
    ("hopf-scan", ".*", ".*", 1e-8, 1e-9),
    # Trajectories and cycles: trajectories (RK45) and the return map
    # (DOP853), both at simulate.RTOL, and the Newton (RETURN_TOL, relative
    # to 1 + |x|) work to 1e-8 on states of order one, the angles; the
    # cycle's return error is a residual below that.
    ("simulate", ".*", ".*", 1e-8, 1e-8),
    # Spectra, equilibria and matrices: rounding of the flow kernel.
    (".*", ".*", ".*", 1e-12, 1e-14),
)

NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)\b")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run(workdir, label, argv):
    """Exit code and stdout of one command; its files land in out/<label>."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "damplab.cli", *argv.split()],
        cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    return proc.returncode, proc.stdout


def written(out_dir):
    """Relative paths of the files under ``out_dir``, sorted."""
    return sorted(
        os.path.relpath(os.path.join(base, name), out_dir)
        for base, _, files in os.walk(out_dir)
        for name in files
    )


def digest(workdir, label, argv):
    code, stdout = run(workdir, label, argv)
    lines = [f"{label}", f"  exit {code}", f"  stdout {sha256(stdout)}"]
    out_dir = os.path.join(workdir, "out", label)
    for rel in written(out_dir):
        with open(os.path.join(out_dir, rel), "rb") as fh:
            lines.append(f"  out/{label}/{rel} {sha256(fh.read())}")
    return "\n".join(lines)


def save(workdir, target):
    """Keep ``<target>/<label>/{exit,stdout,files/...}`` for every command."""
    for label, argv in COMMANDS:
        code, stdout = run(workdir, label, argv)
        keep = os.path.join(target, label)
        os.makedirs(keep, exist_ok=True)
        with open(os.path.join(keep, "exit"), "w") as fh:
            fh.write(f"{code}\n")
        with open(os.path.join(keep, "stdout"), "wb") as fh:
            fh.write(stdout)
        out_dir = os.path.join(workdir, "out", label)
        if os.path.isdir(out_dir):
            shutil.copytree(out_dir, os.path.join(keep, "files"))
        print(f"{label}: exit {code}", flush=True)


def tolerance(label, name, context):
    for pat_label, pat_name, pat_context, rtol, atol in TOLERANCES:
        if (re.match(pat_label, label) and re.match(pat_name, name)
                and re.search(pat_context, context)):
            return rtol, atol
    return 0.0, 0.0


def close(label, name, context, x, y):
    rtol, atol = tolerance(label, name, context)
    return abs(x - y) <= atol + rtol * max(abs(x), abs(y))


def compare_text(label, name, text_a, text_b):
    """Differences between two text outputs, as messages."""
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    if len(lines_a) != len(lines_b):
        return [f"{label}/{name}: {len(lines_a)} vs {len(lines_b)} lines"]
    problems = []
    for k, (a, b) in enumerate(zip(lines_a, lines_b), start=1):
        nums_a, nums_b = list(NUMBER.finditer(a)), list(NUMBER.finditer(b))
        # numpy pads a positive entry with the space a minus sign would take
        words_a = [w.split() for w in NUMBER.split(a)]
        words_b = [w.split() for w in NUMBER.split(b)]
        if words_a != words_b or len(nums_a) != len(nums_b):
            problems.append(f"{label}/{name}:{k}: text differs\n  {a}\n  {b}")
            continue
        for x, y in zip(nums_a, nums_b):
            if x.group() != y.group() and not close(
                    label, name, a[:x.start()], float(x.group()), float(y.group())):
                problems.append(f"{label}/{name}:{k}: {x.group()} vs {y.group()}")
    return problems


def compare_json(label, name, a, b, path=""):
    """Differences between two parsed JSON values, as messages."""
    where = f"{label}/{name}:{path or '/'}"
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None \
            or isinstance(a, str) or isinstance(b, str):
        return [] if a == b else [f"{where}: {a!r} vs {b!r}"]
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return [] if a == b or close(label, name, path, a, b) else [f"{where}: {a!r} vs {b!r}"]
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [f"{where}: keys {sorted(a)} vs {sorted(b)}"]
        return [msg for key in a for msg in compare_json(
            label, name, a[key], b[key], f"{path}.{key}" if path else key)]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{where}: {len(a)} vs {len(b)} entries"]
        return [msg for k, (x, y) in enumerate(zip(a, b))
                for msg in compare_json(label, name, x, y, f"{path}.{k}" if path else str(k))]
    return [f"{where}: {type(a).__name__} vs {type(b).__name__}"]


def compare(dir_a, dir_b):
    problems = []
    for label, _ in COMMANDS:
        a, b = os.path.join(dir_a, label), os.path.join(dir_b, label)
        names = ["exit", "stdout"] + [
            os.path.join("files", rel) for rel in written(os.path.join(a, "files"))
        ]
        extra = set(written(os.path.join(b, "files"))) - set(written(os.path.join(a, "files")))
        problems += [f"{label}: only in {dir_b}: {rel}" for rel in sorted(extra)]
        for name in names:
            path_b = os.path.join(b, name)
            if not os.path.exists(path_b):
                problems.append(f"{label}: only in {dir_a}: {name}")
                continue
            with open(os.path.join(a, name)) as fa, open(path_b) as fb:
                text_a, text_b = fa.read(), fb.read()
            if name == "exit" and text_a != text_b:
                problems.append(f"{label}: exit {text_a.strip()} vs {text_b.strip()}")
            elif name.endswith(".json") and text_a != text_b:
                problems += compare_json(label, os.path.basename(name),
                                         json.loads(text_a), json.loads(text_b))
            elif text_a != text_b:
                problems += compare_text(label, os.path.basename(name), text_a, text_b)
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--save", metavar="DIR", help="keep the outputs in DIR")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"),
                       help="compare two saved runs within tolerances")
    args = parser.parse_args(argv)
    if args.compare:
        problems = compare(*args.compare)
        for message in problems:
            print(message)
        print(f"{len(problems)} difference(s) beyond tolerance")
        return 1 if problems else 0
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as workdir:
        shutil.copytree(os.path.join(ROOT, "models"), os.path.join(workdir, "models"))
        if args.save:
            save(workdir, os.path.abspath(args.save))
        else:
            for label, argv in COMMANDS:
                print(digest(workdir, label, argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
