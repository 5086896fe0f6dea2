"""Draw digest of the random verification suites on seeds 0-39, or on the seeds given.

For each seed and each suite that runs through ``suites._suite``, the
suite's draws are taken at the default trial count, in trial order, and
their checks are not run.  One line per seed and suite gives the sha256
of every drawn instance: arrays by dtype, shape and bytes, grid models
and equilibria by their dataclass fields (a model's ``metadata`` and an
equilibrium's ``delta0``, ``residual`` and ``in_omega`` included), other
items by ``repr``.  Two checkouts that print the same lines draw the same
instances bit for bit.  ``verdict_digest.py`` cannot show that: it hashes
only the payloads of failing trials.  The elapsed seconds go to stderr::

    python3 tests/draw_digest.py > before.txt
    diff before.txt after.txt
    python3 tests/draw_digest.py 20240501    # the default seed only

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from damplab import suites  # noqa: E402

SEEDS = range(40)


def _feed(digest, item):
    """Add ``item`` to ``digest``: an array by dtype, shape and bytes, a
    dataclass field by field, a tuple item by item, anything else by repr."""
    if isinstance(item, np.ndarray):
        digest.update(f"{item.dtype.str}{item.shape}".encode())
        digest.update(np.ascontiguousarray(item).tobytes())
    elif dataclasses.is_dataclass(item):
        digest.update(type(item).__name__.encode())
        for f in dataclasses.fields(item):
            _feed(digest, getattr(item, f.name))
    elif isinstance(item, tuple):
        digest.update(b"(")
        for part in item:
            _feed(digest, part)
        digest.update(b")")
    else:
        digest.update(repr(item).encode())


def drawn(seed):
    """``{suite name: (trials, instances)}`` of every suite that runs
    through ``suites._suite``, at its default trial count."""
    found = {}

    def draw_only(name, seed, trials, draw, failures, decide=None):
        rng = np.random.default_rng(seed)
        found[name] = (trials, [draw(rng) for _ in range(trials)])
        return suites.SuiteResult(name, trials)

    run = suites._suite
    suites._suite = draw_only
    try:
        for fn in suites.SUITES.values():
            fn(seed=seed)
    finally:
        suites._suite = run
    return found


def seed_lines(seed):
    """``seed N <suite> <trials>: sha256 <hex>`` for each random suite."""
    lines = []
    for name, (trials, instances) in drawn(seed).items():
        digest = hashlib.sha256()
        for inst in instances:
            _feed(digest, inst)
        lines.append(f"seed {seed} {name} {trials}: sha256 {digest.hexdigest()}")
    return lines


def main(argv):
    start = time.perf_counter()
    for seed in [int(arg) for arg in argv] or SEEDS:
        print("\n".join(seed_lines(seed)), flush=True)
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
