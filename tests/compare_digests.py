"""Run the four output digests in a parent tree and in this tree, and compare.

The digests are ``cli_digest.py`` (CLI bytes), ``verdict_digest.py``
(suite verdicts on seeds 0-39), ``draw_digest.py`` (the suites' draws) and
``sweep_digest.py`` (the sweep's crossings on 400 paths), about 70 s per
tree on a 2-core host.  Each runs from its own tree's ``tests/`` on that tree's
``src/``, and its wall time in both trees is printed next to its line
count.  Every line that differs is printed, ``-`` for the parent and
``+`` for this tree, under the digest's name; the exit code is 1 on any
difference, 0 when all four print the same lines and 2 when a digest
fails to run::

    git archive PARENT | tar -x -C /tmp/parent
    python3 tests/compare_digests.py /tmp/parent

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DIGESTS = ("cli_digest", "verdict_digest", "draw_digest", "sweep_digest")


def lines(tree, digest):
    """The stdout lines of ``tree/tests/<digest>.py`` and its wall time in
    seconds; a failed run prints its stderr and exits 2."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "tests", f"{digest}.py")],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode:
        print(f"{digest} failed in {tree}:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return proc.stdout.splitlines(), time.perf_counter() - start


def main(argv):
    if len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "tests")):
        print(__doc__.split("\n\n")[0], "\nusage: compare_digests.py PARENT_TREE",
              file=sys.stderr)
        return 2
    parent = os.path.abspath(argv[0])
    differ = False
    for digest in DIGESTS:
        (old, old_s), (new, new_s) = lines(parent, digest), lines(ROOT, digest)
        diff = [line for line in difflib.unified_diff(old, new, lineterm="", n=0)
                if line[:1] in "-+" and line[:3] not in ("---", "+++")]
        print(f"{digest}: {len(new)} lines, {len(diff)} differing "
              f"(parent {old_s:.1f} s, this tree {new_s:.1f} s)", flush=True)
        for line in diff:
            print(f"  {line}")
        differ = differ or bool(diff)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
