"""Golden-output digest of the bundled CLI commands.

Runs each command below in a fresh interpreter, from a temporary working
directory that holds a copy of ``models/``, with every output under the
relative directory ``out/<label>``.  Prints one block per command: the exit
code, the sha256 of stdout and the sha256 of every file the command wrote.
Two checkouts that print the same digest produce byte-identical CLI output.

Usage, from anywhere::

    python3 tests/cli_digest.py > digest.txt

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
import os
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


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def digest(workdir, label, argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "damplab.cli", *argv.split()],
        cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    lines = [f"{label}", f"  exit {proc.returncode}", f"  stdout {sha256(proc.stdout)}"]
    out_dir = os.path.join(workdir, "out", label)
    for base, _, files in sorted(os.walk(out_dir)):
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                rel = os.path.relpath(path, workdir)
                lines.append(f"  {rel} {sha256(fh.read())}")
    return "\n".join(lines)


def main():
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as workdir:
        shutil.copytree(os.path.join(ROOT, "models"), os.path.join(workdir, "models"))
        for label, argv in COMMANDS:
            print(digest(workdir, label, argv), flush=True)


if __name__ == "__main__":
    main()
