import json

import pytest

import cli_digest

L1 = 1.0816581
GAMMA0 = 0.19978056200246214
ANCHOR = [1.4738175332368082, -0.27121643139862145, -0.08604568357999486]


def save_run(root, label, stdout, name, payload):
    """A saved ``cli_digest.py --save`` run in which only ``label`` wrote
    something: ``stdout`` and the JSON file ``name``."""
    for other, _ in cli_digest.COMMANDS:
        keep = root / other
        keep.mkdir(parents=True)
        (keep / "exit").write_text("0\n")
        (keep / "stdout").write_text("")
    keep = root / label
    (keep / "stdout").write_text(stdout)
    (keep / "files").mkdir()
    (keep / "files" / name).write_text(json.dumps(payload))
    return str(root)


def save_l1_run(root, l1):
    """The case2 ``l1``, in both ``certificates.json`` and stdout."""
    return save_run(
        root, "hopf-scan_case2",
        f"  first Lyapunov coefficient = {l1:+.12f}  -> subcritical\n",
        "certificates.json",
        [{"gamma0": GAMMA0, "l1": l1, "kind": "subcritical"}],
    )


def save_gamma0_run(root, gamma0):
    """The case2 crossing, in ``certificates.json``; stdout prints six
    decimals, which do not move."""
    return save_run(
        root, "hopf-scan_case2",
        f"crossing: gamma0 = {gamma0:.6f}  omega0 = 1.062951\n",
        "certificates.json",
        [{"gamma0": gamma0, "omega0": 1.0629508191947792, "kind": "subcritical"}],
    )


def save_cycle_run(root, shift):
    """The case2 cycle anchor of ``simulate --cycle-search``, every entry
    moved by ``shift``; stdout prints six decimals, which do not move."""
    return save_run(
        root, "simulate_case2_cycle",
        "cycle: period = 6.792890, amplitude = 0.335711, expanding_section\n",
        "summary.json",
        {"cycle": {"period": 6.792889881770236,
                   "anchor_state": [x + shift for x in ANCHOR]}},
    )


@pytest.mark.parametrize("rel, flagged", [(1e-5, 2), (1e-8, 0)])
def test_compare_l1_tolerance(tmp_path, rel, flagged):
    before = save_l1_run(tmp_path / "a", L1)
    after = save_l1_run(tmp_path / "b", L1 * (1 + rel))
    problems = cli_digest.compare(before, after)
    assert len(problems) == flagged, problems
    assert all("hopf-scan_case2/" in p for p in problems)


@pytest.mark.parametrize("rel, flagged", [(1e-6, 1), (1e-10, 0)])
def test_compare_gamma0_tolerance(tmp_path, rel, flagged):
    before = save_gamma0_run(tmp_path / "a", GAMMA0)
    after = save_gamma0_run(tmp_path / "b", GAMMA0 * (1 + rel))
    problems = cli_digest.compare(before, after)
    assert len(problems) == flagged, problems
    assert all("hopf-scan_case2/certificates.json:0.gamma0" in p for p in problems)


@pytest.mark.parametrize("shift, flagged", [(5e-7, 3), (5e-9, 0)])
def test_compare_cycle_anchor_tolerance(tmp_path, shift, flagged):
    before = save_cycle_run(tmp_path / "a", 0.0)
    after = save_cycle_run(tmp_path / "b", shift)
    problems = cli_digest.compare(before, after)
    assert len(problems) == flagged, problems
    assert all("simulate_case2_cycle/summary.json:cycle.anchor_state." in p
               for p in problems)
