"""Lumped-uncertainty baseline: conservatism and coincidence properties."""
import numpy as np
import pytest

from rampc.baseline import BaselineController, make_baseline_config
from rampc.controller import AdaptiveController, MPCConfig, synthesize_terminal
from rampc.errors import EmptyTerminalSetError
from rampc.geometry import Polytope, is_subset
from rampc.qpsolver import SolveStatus
from rampc.system import load_problem_dict, net_additive_bound

from conftest import scalar_problem_dict


def test_zero_parametric_uncertainty_coincides():
    # with dA = dB = {0} and box W, wtilde_max = w_max and the two terminal
    # sets coincide, so the fixed-horizon costs agree
    prob = load_problem_dict(scalar_problem_dict(w=0.1, x=2.0, u=2.0, N=3))
    sys = prob.system
    bound = net_additive_bound(sys)
    assert bound.w_tilde_max == pytest.approx(bound.w_max)
    term = synthesize_terminal(sys, prob.K, prob.P, prob.R, hull_samples=10)
    bcfg = make_baseline_config(sys, prob.K, prob.P, prob.R, prob.N, bound=bound)
    assert is_subset(bcfg.X_N_lump, term.X_N) and is_subset(term.X_N, bcfg.X_N_lump)
    cfg = MPCConfig(P=prob.P, R=prob.R, N=prob.N, terminal=term, bound=bound)
    ctl = AdaptiveController(sys, cfg)
    bctl = BaselineController(sys, bcfg)
    for x in ([0.5], [-1.2], [1.8]):
        bsol = bctl.solve(x)
        psol = ctl.solve(np.asarray(x))
        fixed_cost = next(r.cost for r in psol.per_horizon if r.N_t == prob.N)
        assert bsol.is_feasible
        assert bsol.J_star == pytest.approx(fixed_cost, abs=1e-6)


def test_lumped_terminal_strictly_inside_exact(default_problem, default_cfg):
    prob = default_problem
    bcfg = make_baseline_config(
        prob.system, prob.K, prob.P, prob.R, prob.N, bound=default_cfg.bound
    )
    assert is_subset(bcfg.X_N_lump, default_cfg.terminal.X_N)
    assert not is_subset(default_cfg.terminal.X_N, bcfg.X_N_lump)


def test_feasibility_dominance_on_grid(default_problem, default_cfg, default_controller):
    prob = default_problem
    bcfg = make_baseline_config(
        prob.system, prob.K, prob.P, prob.R, prob.N, bound=default_cfg.bound
    )
    bctl = BaselineController(prob.system, bcfg)
    rng = np.random.default_rng(16)
    pts = rng.uniform(-8, 8, size=(25, 2))
    for x in pts:
        bsol = bctl.solve(x)
        if bsol.is_feasible:
            assert default_controller.solve(x).is_feasible


def test_baseline_infeasibility_is_data(default_problem, default_cfg):
    prob = default_problem
    bcfg = make_baseline_config(
        prob.system, prob.K, prob.P, prob.R, prob.N, bound=default_cfg.bound
    )
    sol = BaselineController(prob.system, bcfg).solve(np.array([50.0, 50.0]))
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.per_horizon[0].N_t == prob.N


def test_empty_lumped_terminal_raises():
    # inflate the disturbance so the lumped invariant set cannot exist
    prob = load_problem_dict(scalar_problem_dict(w=0.6, x=1.0, u=1.0))
    with pytest.raises(EmptyTerminalSetError):
        make_baseline_config(prob.system, prob.K, prob.P, prob.R, prob.N)


def test_fixed_horizon_one_uses_lumped_tightening():
    # with N = 1 the baseline's single state block is the terminal one,
    # tightened by wtilde_max * ||f||_1 (not by the exact W support)
    prob = load_problem_dict(scalar_problem_dict(da=0.05, db=0.0, w=0.1, x=2.0, u=2.0, N=1))
    sys = prob.system
    bound = net_additive_bound(sys)
    bcfg = make_baseline_config(sys, prob.K, prob.P, prob.R, 1, bound=bound)
    x = np.array([0.5])
    sol = BaselineController(sys, bcfg).solve(x)
    assert sol.is_feasible
    # hand check: every lumped terminal row must hold at the nominal successor
    xn = sys.A_bar @ x + sys.B_bar @ sol.applied_input
    for f, off in zip(bcfg.X_N_lump.H, bcfg.X_N_lump.h):
        assert float(f @ xn) <= off - bound.w_tilde_max * np.abs(f).sum() + 1e-7


def test_solution_report_schema(default_problem, default_cfg):
    prob = default_problem
    bcfg = make_baseline_config(
        prob.system, prob.K, prob.P, prob.R, prob.N, bound=default_cfg.bound
    )
    sol = BaselineController(prob.system, bcfg).solve(np.array([1.0, 1.0]))
    rep = sol.report(tag="baseline")
    assert rep["controller"] == "baseline"
    assert "constraint_margins" in rep and rep["constraint_margins"]["state"] > 0
    (entry,) = rep["per_horizon"]
    # the one-horizon bank reports its pruning bound like the adaptive bank
    assert entry["bound"] <= entry["cost"] + 1e-9 * (1.0 + abs(entry["cost"]))


def test_rpi_property_of_lumped_terminal(default_problem, default_cfg):
    # X_lump is invariant for x+ = Acl x + w, |w|_inf <= wtilde_max
    prob = default_problem
    bcfg = make_baseline_config(
        prob.system, prob.K, prob.P, prob.R, prob.N, bound=default_cfg.bound
    )
    A_cl = prob.system.A_bar + prob.system.B_bar @ prob.K
    wb = bcfg.bound.w_tilde_max
    corners = Polytope.from_box([-wb, -wb], [wb, wb]).box_corners()
    rng = np.random.default_rng(17)
    lo, hi = bcfg.X_N_lump.bounding_box()
    n = 0
    while n < 200:
        x = rng.uniform(lo, hi)
        if not bcfg.X_N_lump.contains(x, tol=0.0):
            continue
        n += 1
        for w in corners:
            assert bcfg.X_N_lump.contains(A_cl @ x + w, tol=1e-7)
