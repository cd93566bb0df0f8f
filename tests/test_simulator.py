"""Simulation traces, ROA estimation, and benchmark reports."""
import json

import numpy as np
import pytest

from rampc.baseline import make_baseline_config
from rampc.controller import config_from_problem
from rampc.report import make_manifest, trace_csv_text
from rampc.simulator import (
    benchmark,
    estimate_roa,
    estimate_roa_baseline,
    simulate_closed_loop,
    simulate_rollout,
)
from rampc.system import default_problem_path, load_problem_dict, sample_realization

from conftest import scalar_problem_dict


@pytest.fixture(scope="module")
def quiet_scalar():
    """Scalar problem with a tiny disturbance (effectively nominal)."""
    prob = load_problem_dict(scalar_problem_dict(w=1e-9, x=2.0, u=2.0, N=2))
    cfg = config_from_problem(prob, hull_samples=10)
    return prob, cfg


def test_origin_stays_at_origin(quiet_scalar):
    prob, cfg = quiet_scalar
    real = sample_realization(prob.system, 10, seed=0)
    tr = simulate_closed_loop(prob.system, cfg, [0.0], 10, real)
    assert tr.clean
    np.testing.assert_allclose(tr.states, 0.0, atol=1e-7)
    np.testing.assert_allclose(tr.inputs, 0.0, atol=1e-7)


@pytest.mark.parametrize("run", [simulate_closed_loop, simulate_rollout])
def test_infeasible_x0_flagged_not_raised(run, default_problem, default_cfg, default_controller):
    # (50, 50) lies outside X: both runs flag step 0 and count the final state
    real = sample_realization(default_problem.system, 5, seed=1)
    tr = run(default_problem.system, default_cfg, [50.0, 50.0], 5, real, controller=default_controller)
    assert tr.infeasible_at == 0
    assert tr.completed == 0
    assert not tr.clean
    assert tr.violations == 1
    assert tr.states.shape == (1, 2) and tr.inputs.shape == (0, 1) and tr.w_tilde.shape == (0, 2)


def test_replay_is_bitwise(default_problem, default_cfg, default_controller):
    real = sample_realization(default_problem.system, 15, seed=2)
    a = simulate_closed_loop(
        default_problem.system, default_cfg, [5.0, -4.0], 15, real, controller=default_controller
    )
    b = simulate_closed_loop(
        default_problem.system, default_cfg, [5.0, -4.0], 15, real, controller=default_controller
    )
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.w_tilde, b.w_tilde)


def test_trace_dynamics_replay_exact(default_problem, default_cfg, default_controller):
    real = sample_realization(default_problem.system, 10, seed=3)
    tr = simulate_closed_loop(
        default_problem.system, default_cfg, [4.0, 1.0], 10, real, controller=default_controller
    )
    A = real.A_true(default_problem.system)
    B = real.B_true(default_problem.system)
    for t in range(tr.completed):
        np.testing.assert_array_equal(
            tr.states[t + 1], A @ tr.states[t] + B @ tr.inputs[t] + real.w_sequence[t]
        )
        # margins consistent with the constraint evaluation
        rec = tr.records[t]
        assert rec.margin_x == pytest.approx(
            float(np.min(default_problem.system.X.h - default_problem.system.X.H @ tr.states[t]))
        )


def test_no_false_violation_alarms(default_problem, default_cfg, default_controller):
    for seed in range(3):
        real = sample_realization(default_problem.system, 30, seed=seed)
        tr = simulate_closed_loop(
            default_problem.system, default_cfg, [6.0, -6.0], 30, real, controller=default_controller
        )
        assert tr.clean and tr.iss_violations == 0


def test_rollout_safe_and_reconstructs(default_problem, default_cfg, default_controller):
    real = sample_realization(default_problem.system, 20, seed=5)
    tr = simulate_rollout(
        default_problem.system, default_cfg, [5.0, -5.0], 20, real, controller=default_controller
    )
    assert tr.infeasible_at is None
    assert tr.violations == 0
    assert tr.completed == 20


class _CountingController:
    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def solve(self, x):
        self.calls += 1
        return self.inner.solve(x)


@pytest.mark.parametrize("run", [simulate_closed_loop, simulate_rollout])
def test_short_realization_raises_before_any_solve(run, default_problem, default_cfg, default_controller):
    real = sample_realization(default_problem.system, 3, seed=0)
    ctl = _CountingController(default_controller)
    with pytest.raises(ValueError, match="too short"):
        run(default_problem.system, default_cfg, [5.0, -5.0], 4, real, controller=ctl)
    assert ctl.calls == 0


def test_csv_header_of_infeasible_multi_input_run():
    # the default problem with a second input that does not act on the state
    data = json.loads(default_problem_path().read_text())
    data["B_bar"] = [[0.1, 0.0], [1.1, 0.0]]
    data["deltaB_vertices"] = [[[0.06, 0.0], [0.06, 0.0]], [[-0.06, 0.0], [-0.06, 0.0]]]
    data["U"] = {"box": {"lo": [-4.0, -4.0], "hi": [4.0, 4.0]}}
    data["cost"]["R"] = [[2.0, 0.0], [0.0, 1.0]]
    data["K"] = [[-0.4866, -0.4374], [0.0, 0.0]]
    prob = load_problem_dict(data)
    cfg = config_from_problem(prob, hull_samples=10)
    real = sample_realization(prob.system, 3, seed=0)
    feasible = simulate_closed_loop(prob.system, cfg, [6.0, -6.0], 3, real)
    infeasible = simulate_closed_loop(prob.system, cfg, [50.0, 50.0], 3, real)
    assert feasible.completed == 3 and infeasible.infeasible_at == 0
    header = trace_csv_text(feasible, None).splitlines()[0]
    assert header.startswith("t,x0,x1,u0,u1,wt0,wt1,")
    assert trace_csv_text(infeasible, None).splitlines()[0] == header


def test_roa_all_feasible_when_quiet(quiet_scalar):
    prob, cfg = quiet_scalar
    est = estimate_roa(prob.system, cfg, 7)
    assert est.hull is None  # d = 1: mask only
    assert est.n_feasible == len(est.grid)


def test_roa_2d_hull(default_problem, default_cfg):
    est = estimate_roa(default_problem.system, default_cfg, 4)
    assert est.grid.shape[1] == 2
    assert est.hull is not None and est.area > 0


def test_roa_parallel_matches_serial(quiet_scalar):
    prob, cfg = quiet_scalar
    serial = estimate_roa(prob.system, cfg, 6, jobs=1)
    parallel = estimate_roa(prob.system, cfg, 6, jobs=2)
    np.testing.assert_array_equal(serial.feasible_mask, parallel.feasible_mask)
    # the workers receive the controller class; the baseline's must pickle too
    bcfg = make_baseline_config(prob.system, prob.K, prob.P, prob.R, prob.N)
    serial = estimate_roa_baseline(prob.system, bcfg, 6, jobs=1)
    parallel = estimate_roa_baseline(prob.system, bcfg, 6, jobs=2)
    np.testing.assert_array_equal(serial.feasible_mask, parallel.feasible_mask)


def test_benchmark_schema(default_problem, default_cfg):
    rep = benchmark(default_problem.system, default_cfg, [1, 2], reps=3)
    assert [r["N_t"] for r in rep["rows"]] == [1, 2]
    for row in rep["rows"]:
        assert row["median_s"] > 0 and np.isfinite(row["mean_s"])
        n = row["n_variables"]
        assert n <= row["factor_nnz"] <= n * (n + 1) // 2
    assert "kernel" in rep


def test_roa_refuses_numerical_failures(quiet_scalar, monkeypatch):
    from rampc.errors import SolverNumericalError
    from rampc.controller import _LawTable
    from rampc.qpsolver import SolveOutcome, SolveStatus
    from rampc.qpsolver.admm import ParametricQP

    prob, cfg = quiet_scalar
    # the whole solve layer fails: no ADMM solve succeeds and no law, the
    # controller's central law 0 included, passes the KKT screen
    monkeypatch.setattr(
        ParametricQP, "solve",
        lambda self, q, h_ineq: SolveOutcome(status=SolveStatus.NUMERICAL_FAILURE),
    )
    monkeypatch.setattr(_LawTable, "first", lambda self, x, q: None)
    with pytest.raises(SolverNumericalError):
        estimate_roa(prob.system, cfg, 3)


def test_csv_bytes_deterministic(default_problem, default_cfg, default_controller, tmp_path):
    real = sample_realization(default_problem.system, 8, seed=6)
    tr1 = simulate_closed_loop(
        default_problem.system, default_cfg, [3.0, 3.0], 8, real, controller=default_controller
    )
    tr2 = simulate_closed_loop(
        default_problem.system, default_cfg, [3.0, 3.0], 8, real, controller=default_controller
    )
    man = make_manifest("simulate", "problem.json", 6, {"k": 1}, {"steps": 8})
    assert trace_csv_text(tr1, man) == trace_csv_text(tr2, man)
    # wall-clock column only on request
    assert "solve_time" not in trace_csv_text(tr1, man)
    assert "solve_time" in trace_csv_text(tr1, man, with_times=True)
