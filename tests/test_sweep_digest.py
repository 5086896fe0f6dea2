import ast
import re

from damplab import hopf

import sweep_digest
from conftest import random_rank_one_path


def test_seed_lines_give_each_sample_count():
    lines, raised = sweep_digest.seed_lines(16)
    assert lines == [f"seed 16 samples {samples}: sweep [] frequency []"
                     for samples in sweep_digest.SAMPLES]
    assert raised == [False, False]


def test_seed_lines_print_crossings_bit_for_bit():
    (_, line), _ = sweep_digest.seed_lines(2)
    sweep, frequency = line.split(": sweep ")[1].split(" frequency ")
    path = random_rank_one_path(2)
    for printed, crossings in ((sweep, hopf.sweep(path, 201).crossings),
                               (frequency, hopf.track_axis_crossing(path))):
        assert len(crossings) == 2
        assert ast.literal_eval(printed) == [(c.gamma, c.omega, c.boundary)
                                             for c in crossings]


def test_main_reports_the_raises_and_the_time(monkeypatch, capsys):
    monkeypatch.setattr(sweep_digest, "seed_lines",
                        lambda seed: ([f"seed {seed}"], [seed == 5, seed > 3]))
    assert sweep_digest.main(["3", "5"]) == 0
    out, err = capsys.readouterr()
    assert out == "seed 3\nseed 5\n"
    assert re.fullmatch(r"raises: 1 at 41 samples, 1 at 201 samples; \d+\.\d s\n", err)
