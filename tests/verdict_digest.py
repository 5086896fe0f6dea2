"""Verdict digest of the verification suites on seeds 0-39, or on the seeds given.

Runs ``suites.run_all(seed)`` at the default trial counts for every seed,
on one BLAS thread, and prints one line per seed: the failing suites with
the indices of their failing trials, and the sha256 of the failure
payloads as JSON.  The elapsed seconds go to stderr.  Two checkouts that
print the same lines reach the same verdicts, in the same trials, with
byte-identical payloads::

    python3 tests/verdict_digest.py > before.txt
    diff before.txt after.txt
    python3 tests/verdict_digest.py 1 4 39    # three seeds only

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from damplab import suites  # noqa: E402

SEEDS = range(40)


def seed_line(seed, scale=1.0):
    """``seed N: <suite>[trials] ... sha256 <hex>``, or ``seed N: pass``."""
    failed = [res for res in suites.run_all(seed=seed, scale=scale) if not res.passed]
    if not failed:
        return f"seed {seed}: pass"
    # undamped_pair_family records the peer count n instead of a trial index
    parts = [
        f"{res.name}{[f.get('trial', f.get('n')) for f in res.failures]}"
        for res in failed
    ]
    payload = json.dumps({res.name: res.failures for res in failed}, sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return f"seed {seed}: {' '.join(parts)} sha256 {digest}"


def main(argv):
    start = time.perf_counter()
    for seed in [int(arg) for arg in argv] or SEEDS:
        print(seed_line(seed), flush=True)
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
