import re

from damplab import suites

import draw_digest

#: ``seed_lines(suites.DEFAULT_SEED)``: the default seed's draws of every
#: random suite, bit for bit.
DEFAULT_LINES = [
    f"seed {suites.DEFAULT_SEED} {name}: sha256 {digest}" for name, digest in (
        ("pencil_vs_jacobian 200",
         "590a30e6e0bb64746200db9d7d4b058231f8841ab8e1b924cb34ddbc583b3ace"),
        ("undamped_map 200",
         "b6dc441f8b13f06db396abcced5501129e60e656dea8d95c024f164a35831d8c"),
        ("referenced_spectrum 200",
         "14590a6b8b1778808c18801138f35e6582819e22501270b5c9bc15d768e07b8f"),
        ("rank_monotonicity 2000",
         "b7e707e6e9bf988cc0cac9de75e92dce9f795228fc0f95c439b0bf02e5b8b5df"),
        ("imag_duality 1000",
         "d493fc7ea17c923b8b36e43141dd1fb0e7ed45fa4c3987aa2cf5e55f433ee409"),
        ("imag_updates 1000",
         "6fefed125c61afbccf2f49aa54b672b8fe507c7ddcf5b092dc8ad24a613b74a2"),
        ("observability_equivalence 500",
         "48a17013f7f0746cad73eb402666d8a1894b36de9228e4807586b8d84e26a3e8"),
        ("damping_monotonicity 500",
         "8e22e1cc58c7d2b57f781055c9c1780c64c6bdd7f41239c542d4a26ae7d124f9"),
        ("full_damping_stability 500",
         "5a592105b5f8de6ad3b2d48090ee40d93abf78a8edadc053d099f2d3251c91ec"),
        ("small_grid_hyperbolicity 500",
         "653f1efa8e8f95efd9260991f23f75492b163633b8e99649d85bb6fbe33610c9"),
        ("lossless_criterion 300",
         "89fe6383dcb532294ad60d3441805f82b3976ea62137edef3cde3384bdfdc2b9"),
        ("safe_damping_region 500",
         "1da440f4a55abe949059d006def9cd5c36e822a86f4874539f711122403dd5df"),
        ("flow_jacobian_fd 100",
         "1d228f9e93e822eb3783d5f5f90c2e0e6864dd79c2f04a4a17ac3e4e6981492e"),
        ("fold_exclusion 200",
         "5dc6003eda5c0f34c09691675e75fa8ad91b376b3656938d58cfdc95046be1ad"),
    )
]


def test_default_seed_draws_are_pinned():
    assert draw_digest.seed_lines(suites.DEFAULT_SEED) == DEFAULT_LINES
    assert suites._suite.__name__ == "_suite"  # restored after the draws


def test_main_runs_the_given_seeds_and_reports_the_time(monkeypatch, capsys):
    monkeypatch.setattr(draw_digest, "seed_lines",
                        lambda seed: [f"seed {seed} a", f"seed {seed} b"])
    assert draw_digest.main(["3", "5"]) == 0
    out, err = capsys.readouterr()
    assert out == "seed 3 a\nseed 3 b\nseed 5 a\nseed 5 b\n"
    assert re.fullmatch(r"\d+\.\d s\n", err)
