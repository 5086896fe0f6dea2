"""Sweep digest of random rank-one damping paths on seeds 0-399, or on the seeds given.

For each seed, ``conftest.random_rank_one_path(seed)`` is swept at 41 and
at 201 samples on one BLAS thread.  One line per path and sample count
gives the sweep's crossings as ``(gamma, omega, boundary)``, or
``raise at gamma`` for a ``TrackingAmbiguity``, next to the crossings of
the frequency route of ``hopf.track_axis_crossing`` (``n/a`` where that
route does not apply).  Numbers print in ``repr``, so two checkouts that
print the same line return the same crossings bit for bit.  The counts of
raising sweeps and the elapsed seconds go to stderr::

    python3 tests/sweep_digest.py > before.txt
    diff before.txt after.txt
    python3 tests/sweep_digest.py 2 16 66    # three seeds only

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from damplab import hopf  # noqa: E402
from damplab.errors import TrackingAmbiguity  # noqa: E402

from conftest import random_rank_one_path  # noqa: E402

SEEDS = range(400)
SAMPLES = (41, 201)


def listed(crossings):
    return "[" + ", ".join(f"({c.gamma!r}, {c.omega!r}, {c.boundary})"
                           for c in crossings) + "]"


def seed_lines(seed):
    """``seed N samples K: sweep [...] frequency [...]`` for each of
    ``SAMPLES``, and whether each sweep raised."""
    path = random_rank_one_path(seed)
    found = hopf._frequency_route(path)
    frequency = "n/a" if found is None else listed(found)
    lines, raised = [], []
    for samples in SAMPLES:
        try:
            swept = listed(hopf.sweep(path, samples).crossings)
        except TrackingAmbiguity as exc:
            swept = f"raise at {exc.gamma!r}"
        raised.append(swept.startswith("raise"))
        lines.append(f"seed {seed} samples {samples}: sweep {swept} frequency {frequency}")
    return lines, raised


def main(argv):
    start = time.perf_counter()
    raises = [0] * len(SAMPLES)
    for seed in [int(arg) for arg in argv] or SEEDS:
        lines, raised = seed_lines(seed)
        print("\n".join(lines), flush=True)
        raises = [r + bool(x) for r, x in zip(raises, raised)]
    counts = ", ".join(f"{r} at {s} samples" for r, s in zip(raises, SAMPLES))
    print(f"raises: {counts}; {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
