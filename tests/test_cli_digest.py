import json

import pytest

import cli_digest

L1 = 1.0816581


def save_run(root, l1):
    """A saved ``cli_digest.py --save`` run whose only number of note is
    the case2 ``l1``, in both ``certificates.json`` and stdout."""
    for label, _ in cli_digest.COMMANDS:
        keep = root / label
        keep.mkdir(parents=True)
        (keep / "exit").write_text("0\n")
        (keep / "stdout").write_text("")
    keep = root / "hopf-scan_case2"
    (keep / "stdout").write_text(
        f"  first Lyapunov coefficient = {l1:+.12f}  -> subcritical\n"
    )
    (keep / "files").mkdir()
    (keep / "files" / "certificates.json").write_text(
        json.dumps([{"gamma0": 0.19978056200246214, "l1": l1, "kind": "subcritical"}])
    )
    return str(root)


@pytest.mark.parametrize("rel, flagged", [(1e-5, 2), (1e-8, 0)])
def test_compare_l1_tolerance(tmp_path, rel, flagged):
    before = save_run(tmp_path / "a", L1)
    after = save_run(tmp_path / "b", L1 * (1 + rel))
    problems = cli_digest.compare(before, after)
    assert len(problems) == flagged, problems
    assert all("hopf-scan_case2/" in p for p in problems)
