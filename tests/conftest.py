import json

import numpy as np
import pytest

from rampc.controller import AdaptiveController, MPCSolution, config_from_problem
from rampc.qpsolver import SolveStatus
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


def candidate_tail_cost(cfg, sys, sol, w_tilde):
    """Oracle of ``AdaptiveController.tail_cost``: the shifted candidate
    replayed step by step from x+ = x_bar_next + w_tilde, its stage costs and
    then the terminal cost (x+'P_N x+ alone when N* = 1)."""
    w = np.asarray(w_tilde, dtype=float).reshape(-1)
    x = sol.x_bar_next + w
    total = 0.0
    for k in range(1, sol.N_star):
        u = sol.u_bar_star[k] + sol.M_star.block(k, 0) @ w
        total += float(x @ cfg.P @ x + u @ cfg.R @ u)
        x = sys.A_bar @ x + sys.B_bar @ u
    return total + float(x @ cfg.terminal.P_N @ x)


def horizon_plan(ctl, n, x, out):
    """The solution that plays horizon n's OPTIMAL outcome ``out`` at x."""
    tpl = ctl.templates[n]
    u, M = tpl.extract(out.x_opt)
    return MPCSolution(
        status=SolveStatus.OPTIMAL,
        N_star=n,
        u_bar_star=u,
        M_star=M,
        J_star=out.objective + tpl.constant(x),
        x_t=x,
        x_bar_next=ctl.sys.A_bar @ x + ctl.sys.B_bar @ u[0],
        sys=ctl.sys,
    )


def assert_tail_cost_matches_oracle(ctl, sol, w_tilde, where=None):
    """``ctl.tail_cost`` equals the step-by-step oracle to 1e-12 relative."""
    got = ctl.tail_cost(sol, w_tilde)
    ref = candidate_tail_cost(ctl.cfg, ctl.sys, sol, w_tilde)
    assert abs(got - ref) <= 1e-12 * abs(ref), (where, sol.N_star, got, ref)


def tightened_row_values(tpl, u_stack, M, x):
    """Worst-case LHS of every tightened row of ``tpl`` (a ``CaseNTemplate``)
    at a fixed policy, with the rows' offsets.

    Evaluates  f'(A_stack x + C u) + w_tilde_max * ||(CM+G)'f||_1  (state
    rows) and the input analog, from the rows the template gathered.
    """
    u = np.asarray(u_stack, dtype=float).reshape(-1)
    vals = np.empty(tpl.n_main)
    for r, row in enumerate(tpl._tight):
        phi, g = row["phi"], row["g"]
        v = M.M.T @ phi + g  # equals (CM+G)'f for state rows, M'f for inputs
        vals[r] = float(phi @ u + row["rhs_map"] @ x + tpl.w_tilde_max * np.abs(v).sum())
    return vals, np.array([row["h0"] for row in tpl._tight])
