from damplab import suites, swing

import verdict_digest


def test_seed_line_is_reproducible():
    line = verdict_digest.seed_line(1, scale=0.05)
    assert line.startswith("seed 1: ")
    assert verdict_digest.seed_line(1, scale=0.05) == line


def test_seed_line_names_failing_trials(monkeypatch):
    # Flipped coupling weights make the analytic flow Jacobian disagree
    # with finite differences in every trial.
    weights = swing.PowerGridModel.weights
    monkeypatch.setattr(swing.PowerGridModel, "weights",
                        lambda model, delta: -weights(model, delta))
    monkeypatch.setattr(suites, "SUITES",
                        {"flow_jacobian_fd": suites.suite_flow_jacobian_fd})
    line = verdict_digest.seed_line(3, scale=0.03)
    assert line.startswith("seed 3: flow_jacobian_fd[0, 1, 2] sha256 ")
    assert verdict_digest.seed_line(3, scale=0.03) == line
