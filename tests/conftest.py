import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from damplab import hopf, suites, swing

ROOT3 = math.sqrt(3.0)
OMEGA_CASE1 = math.sqrt(1.5)

#: The bundled model files.
MODELS = Path(__file__).resolve().parent.parent / "models"

#: Three lossless generators, the first two sharing the damping ``gamma``,
#: with the imaginary pair +- i sqrt(1.5) at gamma = 0.
CASE1_FILE = MODELS / "case1.json"

#: Flow Jacobian of the case1 model at its equilibrium.
L_CASE1 = np.array(
    [[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5], [-0.5, -0.5, 1.0]]
)


def case1_model(gamma):
    """The model of :data:`CASE1_FILE` at damping ``gamma``."""
    return swing.load_grid_model(CASE1_FILE).model(gamma)


@pytest.fixture(scope="session")
def case1():
    model = case1_model(0.0)
    eq = model.solve_equilibrium([0.1, 1.0, 1.0])
    return model, eq


@pytest.fixture(scope="session")
def case2():
    model = swing.demo_lossy_two_machine(0.2)
    eq = model.equilibrium_at(np.array([1.4905, 0.0]))
    return model, eq


def crossing_bits(crossings):
    """The bits of each crossing's fields, for comparisons bit for bit."""
    return [(c.gamma.hex(), c.omega.hex(), c.eigenvalue.real.hex(),
             c.eigenvalue.imag.hex(), c.boundary) for c in crossings]


def sampled(path):
    """``path`` without its damping derivative: ``track_axis_crossing`` then
    takes the sampled route for a path that would take the frequency route."""
    return replace(path, damping_derivative=None)


def random_rank_one_path(seed):
    """A random path on (0, 2) with damping ``D0 + gamma s u u^T``, drawn
    from ``numpy.random.default_rng(seed)``: n in 2..8, M symmetric positive
    definite, L too or a shifted Gaussian matrix, D0 symmetric."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = suites._spd(rng, n)
    l = (suites._spd(rng, n) if rng.random() < 0.5
         else rng.normal(size=(n, n)) + 3 * np.eye(n))
    g = rng.normal(size=(n, n))
    d0 = 0.3 * (g + g.T) + rng.uniform(0, 1) * np.eye(n)
    u = rng.normal(size=n)
    slope = rng.choice([-1.0, 1.0]) * np.outer(u, u)
    return hopf.DampingPath(inertia=m, stiffness=l,
                            damping_of=lambda gamma: d0 + gamma * slope,
                            damping_derivative=lambda gamma: slope,
                            gamma_range=(0.0, 2.0))


def count_lapack(monkeypatch):
    """Record ``(name, ndim of the first argument)`` for each call of the
    ``np.linalg`` LAPACK drivers (``np.linalg.norm``'s own SVDs are not
    counted); :func:`tally` sums them."""
    calls = []
    for name in ("svd", "eig", "eigvals", "eigvalsh", "eigh", "inv", "solve", "cholesky",
                 "qr", "det"):
        fn = getattr(np.linalg, name)

        def counted(a, *args, fn=fn, name=name, **kw):
            calls.append((name, np.ndim(a)))
            return fn(a, *args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def tally(calls, ndim=None):
    """Calls per driver name, of first arguments with ``ndim`` axes if given."""
    out = {}
    for name, dims in calls:
        if ndim is None or dims == ndim:
            out[name] = out.get(name, 0) + 1
    return out


@pytest.fixture(scope="session")
def case1_path(case1):
    model, eq = case1
    return swing.grid_damping_path(model, eq, [True, True, False], (0.0, 0.5))


@pytest.fixture(scope="session")
def case2_path(case2):
    model, eq = case2
    return swing.grid_damping_path(model, eq, [True, False], (0.1, 0.3))


@pytest.fixture()
def model_file(tmp_path):
    """Write a grid model dict to a JSON file and return its path."""

    def write(data, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write
