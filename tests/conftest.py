import json

import numpy as np
import pytest

from rampc.controller import AdaptiveController, config_from_problem
from rampc.system import default_problem_path, load_problem, load_problem_dict


@pytest.fixture(scope="session")
def default_problem():
    return load_problem(default_problem_path())


@pytest.fixture(scope="session")
def default_cfg(default_problem):
    return config_from_problem(default_problem)


@pytest.fixture(scope="session")
def default_controller(default_problem, default_cfg):
    return AdaptiveController(default_problem.system, default_cfg)


def scalar_problem_dict(
    a=1.0, b=1.0, k=-0.5, da=0.0, db=0.0, w=0.1, x=1.0, u=1.0, p=1.0, r=1.0, N=3
):
    """Scalar fixture; da/db of 0 still needs one (zero) vertex matrix."""
    return {
        "A_bar": [[a]],
        "B_bar": [[b]],
        "deltaA_vertices": [[[da]], [[-da]]] if da else [[[0.0]]],
        "deltaB_vertices": [[[db]], [[-db]]] if db else [[[0.0]]],
        "W": {"box": {"lo": [-w], "hi": [w]}},
        "X": {"box": {"lo": [-x], "hi": [x]}},
        "U": {"box": {"lo": [-u], "hi": [u]}},
        "cost": {"P": [[p]], "R": [[r]]},
        "K": [[k]],
        "N": N,
    }


@pytest.fixture()
def scalar_problem():
    return load_problem_dict(scalar_problem_dict())


@pytest.fixture()
def tmp_problem_file(tmp_path):
    def write(data, name="problem.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    return write


def random_stable_system(rng, da=0.03, db=0.03, w=0.08, d=2, m=1):
    """Random uncertain system with d states, m inputs and a stabilizing gain
    (rejection sampled)."""
    from rampc.geometry import Polytope
    from rampc.system import UncertainSystem

    while True:
        A = rng.uniform(-1.0, 1.0, size=(d, d))
        A = 0.9 * A / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-6)
        B = rng.uniform(-1.0, 1.0, size=(d, m))
        if np.abs(B).max() < 0.3:
            continue
        import scipy.linalg

        Pric = scipy.linalg.solve_discrete_are(A, B, np.eye(d), np.eye(m))
        K = -np.linalg.solve(B.T @ Pric @ B + np.eye(m), B.T @ Pric @ A)
        sys = UncertainSystem(
            A_bar=A,
            B_bar=B,
            deltaA_vertices=(da * np.eye(d), -da * np.eye(d)),
            deltaB_vertices=(db * np.ones((d, m)), -db * np.ones((d, m))),
            W=Polytope.from_box(np.full(d, -w), np.full(d, w)),
            X=Polytope.from_box(np.full(d, -5.0), np.full(d, 5.0)),
            U=Polytope.from_box(np.full(m, -3.0), np.full(m, 3.0)),
        )
        cls = sys.vertex_closed_loops(K)
        if max(np.max(np.abs(np.linalg.eigvals(M))) for M in cls) < 0.95:
            return sys, K
