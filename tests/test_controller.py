"""Controller: terminal synthesis, the two robustification cases, adaptivity."""
import dataclasses

import numpy as np
import pytest

from rampc import baseline, controller
from rampc.baseline import baseline_solve, make_baseline_config
from rampc.controller import (
    AdaptiveController,
    adaptive_solve,
    build_case1,
    build_caseN,
    candidate_tail_cost,
    lyapunov_series,
    mpc_step,
    rollout_policy,
    synthesize_terminal,
)
from rampc.errors import (
    AllHorizonsInfeasibleError,
    HistoryLengthMismatchError,
    VertexUnstableError,
)
from rampc.geometry import Polytope, is_subset
from rampc.prediction import FeedbackGainStack, build_stacked
from rampc.qpsolver import SolveStatus, solve_qp
from rampc.simulator import simulate_closed_loop
from rampc.system import UncertainSystem, load_problem_dict, sample_realization

from conftest import scalar_problem_dict

TINY_W = 1e-9  # stands in for "no disturbance" (supports must stay positive)


def _scalar_sys(a=1.0, b=1.0, da=0.0, db=0.0, w=0.1, xb=1.0, ub=1.0):
    return UncertainSystem(
        A_bar=[[a]],
        B_bar=[[b]],
        deltaA_vertices=[[[da]], [[-da]]] if da else [[[0.0]]],
        deltaB_vertices=[[[db]], [[-db]]] if db else [[[0.0]]],
        W=Polytope.from_box([-w], [w]),
        X=Polytope.from_box([-xb], [xb]),
        U=Polytope.from_box([-ub], [ub]),
    )


class TestSynthesizeTerminal:
    def test_scalar_example(self):
        # a=1, b=1, K=-0.5: a_cl = 0.5; [-1,1] is invariant for |w| <= 0.1
        sys = _scalar_sys()
        term = synthesize_terminal(sys, [[-0.5]], [[1.0]], [[1.0]], hull_samples=50)
        box = Polytope.from_box([-1], [1])
        assert is_subset(term.X_N, box) and is_subset(box, term.X_N)

    def test_scalar_lyapunov_closed_form(self):
        # p_N = (p + k^2 r) / (1 - a_cl^2) = 1.25 / 0.75 = 5/3
        sys = _scalar_sys()
        term = synthesize_terminal(sys, [[-0.5]], [[1.0]], [[1.0]], hull_samples=50)
        assert term.P_N[0, 0] == pytest.approx(5.0 / 3.0, abs=1e-10)

    def test_vertex_unstable_named(self):
        sys = _scalar_sys(da=0.6)  # a + da = 1.6, a_cl = 1.1 at one vertex
        with pytest.raises(VertexUnstableError) as exc:
            synthesize_terminal(sys, [[-0.5]], [[1.0]], [[1.0]], hull_samples=10)
        assert exc.value.vertex_pair is not None

    def test_descent_residual(self, default_problem, default_cfg):
        term = default_cfg.terminal
        A_cl = default_problem.system.A_bar + default_problem.system.B_bar @ term.K
        S = default_cfg.P + term.K.T @ default_cfg.R @ term.K
        resid = np.linalg.eigvalsh(-term.P_N + S + A_cl.T @ term.P_N @ A_cl).max()
        assert resid <= 1e-8


def test_lyapunov_series_matches_scipy():
    import scipy.linalg

    rng = np.random.default_rng(12)
    for _ in range(10):
        A = rng.normal(size=(3, 3))
        A = 0.8 * A / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
        S = rng.normal(size=(3, 3))
        S = S @ S.T + 0.1 * np.eye(3)
        P = lyapunov_series(A, S)
        ref = scipy.linalg.solve_discrete_lyapunov(A.T, S)
        np.testing.assert_allclose(P, ref, atol=1e-9)


def _interval_from_rows(G, h):
    """[lo, hi] feasible interval of a 1-variable inequality system."""
    lo, hi = -np.inf, np.inf
    for g, off in zip(G.ravel(), h):
        if g > 1e-14:
            hi = min(hi, off / g)
        elif g < -1e-14:
            lo = max(lo, off / g)
        elif off < 0:
            return None
    return None if lo > hi else (lo, hi)


class TestCase1:
    def test_origin_zero_cost(self):
        sys = _scalar_sys(w=TINY_W)
        term = synthesize_terminal(sys, [[-0.5]], [[1.0]], [[1.0]], hull_samples=10)
        prog = build_case1(sys, term, [0.0], P=[[1.0]], R=[[1.0]])
        out = solve_qp(prog)
        assert out.status is SolveStatus.OPTIMAL
        assert abs(out.x_opt[0]) < 1e-9
        assert abs(out.objective) < 1e-12

    def test_enumeration_oracle_scalar(self):
        # feasible-input interval must match the 4 vertex pairs x 2 extreme
        # disturbances brute force
        sys = _scalar_sys(da=0.1, db=0.05, w=0.1, xb=2.0, ub=4.0)
        term = synthesize_terminal(sys, [[-0.5]], [[1.0]], [[1.0]], hull_samples=10)
        x = 0.5
        prog = build_case1(sys, term, [x], P=[[1.0]], R=[[1.0]])
        got = _interval_from_rows(prog.G_ineq, prog.h_ineq)
        H_N, h_N = term.X_N.H, term.X_N.h
        lo, hi = -4.0, 4.0
        for dA in (0.1, -0.1):
            for dB in (0.05, -0.05):
                for w in (0.1, -0.1):
                    for f, off in zip(H_N.ravel(), h_N):
                        # f*((1+dA)x + (1+dB)u + w) <= off
                        g = f * (1 + dB)
                        rhs = off - f * ((1 + dA) * x + w)
                        if g > 0:
                            hi = min(hi, rhs / g)
                        elif g < 0:
                            lo = max(lo, rhs / g)
        assert got is not None
        assert got[0] == pytest.approx(lo, abs=1e-9)
        assert got[1] == pytest.approx(hi, abs=1e-9)

    def test_far_state_infeasible(self):
        sys = _scalar_sys(w=0.1)
        term = synthesize_terminal(sys, [[-0.5]], [[1.0]], [[1.0]], hull_samples=10)
        prog = build_case1(sys, term, [50.0], P=[[1.0]], R=[[1.0]])
        assert solve_qp(prog).status is SolveStatus.INFEASIBLE


class TestCaseN:
    def test_zero_bound_reduces_to_nominal(self):
        # with wtilde_max = 0 the tightenings vanish: the optimal cost equals
        # the nominal MPC cost computed from an explicitly assembled QP
        from rampc.system import NetAdditiveBound

        prob = load_problem_dict(scalar_problem_dict(w=0.05, x=2.0, u=1.0))
        sys = prob.system
        term = synthesize_terminal(sys, prob.K, prob.P, prob.R, hull_samples=10)
        bound0 = NetAdditiveBound(
            w_tilde_max=0.0, x_max=2.0, u_max=1.0, w_max=0.0, dA_norm=0.0, dB_norm=0.0
        )
        N = 3
        prog = build_caseN(sys, term, bound0, [0.8], N, P=prob.P, R=prob.R)
        out = solve_qp(prog)
        # nominal comparison: min sum x'Px + u'Ru + terminal, no tightening
        sd = build_stacked(sys.A_bar, sys.B_bar, N)
        P_bar = np.diag([1.0, 1.0, term.P_N[0, 0]])
        Q = 2 * (sd.C.T @ P_bar @ sd.C + np.eye(N))
        q = 2 * sd.C.T @ P_bar @ sd.A_stack @ np.array([0.8])
        G = np.vstack(
            [
                np.vstack([sd.C[:2], -sd.C[:2]]),  # |x_k| <= 2 for k=1,2
                term.X_N.H @ sd.C[2:],             # terminal rows
                np.eye(N),
                -np.eye(N),
            ]
        )
        Ax = sd.A_stack @ np.array([0.8])
        h = np.concatenate(
            [
                np.concatenate([2.0 - Ax[:2], 2.0 + Ax[:2]]),
                term.X_N.h - term.X_N.H @ Ax[2:],
                np.ones(2 * N),
            ]
        )
        from rampc.qpsolver import QuadraticProgram

        ref = solve_qp(QuadraticProgram(Q=Q, q=q, G_ineq=G, h_ineq=h))
        assert out.status is SolveStatus.OPTIMAL and ref.status is SolveStatus.OPTIMAL
        assert out.objective == pytest.approx(ref.objective, abs=1e-7)

    def test_tightened_rows_match_analytic_and_dominate_samples(self, default_problem, default_cfg, default_controller):
        rng = np.random.default_rng(13)
        sys = default_problem.system
        tpl = default_controller.templates[3]
        N, d, m = 3, 2, 1
        sd = build_stacked(sys.A_bar, sys.B_bar, N)
        for _ in range(5):
            Mfull = np.zeros((m * N, d * N))
            for k in range(N):
                for l in range(k):
                    Mfull[k * m : (k + 1) * m, l * d : (l + 1) * d] = 0.2 * rng.normal(size=(m, d))
            M = FeedbackGainStack(N, d, m, Mfull)
            u = rng.normal(size=m * N)
            x = rng.uniform(-2, 2, size=d)
            vals, offs = tpl.tightened_row_values(u, M, x)
            # analytic worst case via explicit (CM+G) assembly
            CMG = sd.C @ Mfull + sd.G
            wmax = default_cfg.bound.w_tilde_max
            r = 0
            Hx = sys.X.H
            rows = []
            for k in range(1, N + 1):
                Hmat = Hx if k < N else default_cfg.terminal.X_N.H
                for i in range(Hmat.shape[0]):
                    f = np.zeros(d * N)
                    f[(k - 1) * d : k * d] = Hmat[i]
                    nominal = f @ (sd.A_stack @ x + sd.C @ u)
                    rows.append(nominal + wmax * np.abs(CMG.T @ f).sum())
            Hu = sys.U.H
            for k in range(N):
                for i in range(Hu.shape[0]):
                    nominal = Hu[i] @ u[k * m : (k + 1) * m]
                    vrow = Mfull[k * m : (k + 1) * m].T @ Hu[i]
                    rows.append(nominal + wmax * np.abs(vrow).sum())
            np.testing.assert_allclose(vals, rows, atol=1e-9)
            # domination over sampled disturbances; equality at the sign extreme
            w_samples = wmax * rng.uniform(-1, 1, size=(2000, d * N))
            x_stack = sd.A_stack @ x + sd.C @ u
            r = 0
            for k in range(1, N + 1):
                Hmat = Hx if k < N else default_cfg.terminal.X_N.H
                for i in range(Hmat.shape[0]):
                    f = np.zeros(d * N)
                    f[(k - 1) * d : k * d] = Hmat[i]
                    coef = CMG.T @ f
                    nominal = f @ x_stack
                    assert (nominal + w_samples @ coef).max() <= vals[r] + 1e-9
                    extreme = nominal + wmax * np.sign(coef) @ coef
                    assert extreme == pytest.approx(vals[r], abs=1e-9)
                    r += 1


class TestAdaptive:
    def test_terminal_state_case1_feasible(self, default_problem, default_cfg, default_controller):
        # any x in X_N admits the terminal feedback as a case-1 candidate
        rng = np.random.default_rng(14)
        X_N = default_cfg.terminal.X_N
        lo, hi = X_N.bounding_box()
        count = 0
        while count < 20:
            x = rng.uniform(lo, hi)
            if not X_N.contains(x, tol=0.0):
                continue
            count += 1
            assert default_controller.solve(x).is_feasible
            # solved directly: the bank may prune horizon 1 when a longer one is cheaper
            out = default_controller.solvers[1].solve(*default_controller.templates[1].parts(x))
            assert out.status is SolveStatus.OPTIMAL

    def test_origin(self, default_problem, default_cfg):
        sol = adaptive_solve(default_problem.system, default_cfg, np.zeros(2))
        assert sol.is_feasible
        assert sol.J_star == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(sol.applied_input, [0.0], atol=1e-7)

    def test_tie_break_smallest_horizon(self, default_problem, default_cfg):
        # at the origin every horizon costs exactly 0: the shortest must win
        sol = adaptive_solve(default_problem.system, default_cfg, np.zeros(2))
        costs = [r.cost for r in sol.per_horizon]
        assert all(abs(c) < 1e-9 for c in costs)
        assert sol.N_star == 1

    def test_cost_positivity(self, default_problem, default_cfg, default_controller):
        rng = np.random.default_rng(15)
        P = default_cfg.P
        for _ in range(10):
            x = rng.uniform(-4, 4, size=2)
            sol = default_controller.solve(x)
            if sol.is_feasible:
                assert sol.J_star >= x @ P @ x - 1e-6

    def test_all_infeasible_is_data(self, default_problem, default_cfg):
        sol = adaptive_solve(default_problem.system, default_cfg, np.array([50.0, 50.0]))
        assert sol.status is SolveStatus.INFEASIBLE
        assert all(r.status is SolveStatus.INFEASIBLE for r in sol.per_horizon)
        assert any(r.farkas is not None for r in sol.per_horizon)

    def test_mpc_step_origin_and_raise(self, default_problem, default_cfg):
        u, sol = mpc_step(default_problem.system, default_cfg, np.zeros(2))
        np.testing.assert_allclose(u, [0.0], atol=1e-7)
        with pytest.raises(AllHorizonsInfeasibleError):
            mpc_step(default_problem.system, default_cfg, np.array([50.0, 50.0]))

    def test_monotone_nesting_in_bound(self, default_problem, default_cfg):
        # shrinking wtilde_max never breaks feasibility of a feasible case-N
        sys = default_problem.system
        term = default_cfg.terminal
        x = np.array([5.0, -3.0])
        for scale in (1.0, 0.5, 0.1):
            bound = dataclasses.replace(
                default_cfg.bound,
                w_tilde_max=default_cfg.bound.w_tilde_max * scale,
                w_max=default_cfg.bound.w_max * scale,
                dA_norm=default_cfg.bound.dA_norm * scale,
                dB_norm=default_cfg.bound.dB_norm * scale,
            )
            prog = build_caseN(sys, term, bound, x, 4, P=default_cfg.P, R=default_cfg.R)
            assert solve_qp(prog).status is SolveStatus.OPTIMAL

    def test_candidate_tail_decomposition(self, default_problem, default_cfg, default_controller):
        # with zero realized disturbance, J* = l(x, u0) + q(xbar_next)
        x = np.array([4.0, 2.0])
        sol = default_controller.solve(x)
        assert sol.is_feasible and sol.N_star >= 2
        q0 = candidate_tail_cost(default_cfg, default_problem.system, sol, np.zeros(2))
        stage = x @ default_cfg.P @ x + sol.applied_input @ default_cfg.R @ sol.applied_input
        assert sol.J_star == pytest.approx(stage + q0, rel=1e-6)


# ---------------------------------------------------------------------------
# horizon pruning is exact
# ---------------------------------------------------------------------------

X0_SET = [(6.0, -6.0), (-6.0, 6.0), (4.0, 4.0), (-4.0, -4.0), (7.0, 0.0)]  # acceptance suite
CLOSED_LOOP_STEPS = 50


def _exhaustive_reference(ctl, x):
    """Selection without pruning: every horizon in ascending order, strict < on cost.

    Returns (status, N*, J*, applied input, {horizon: cost of every feasible horizon},
    {horizon: solve outcome of every horizon}).
    """
    best = None
    costs = {}
    outcomes = {}
    failed = False
    for n in range(1, ctl.cfg.N + 1):
        tpl = ctl.templates[n]
        out = outcomes[n] = ctl.solvers[n].solve(*tpl.parts(x))
        if out.status is SolveStatus.OPTIMAL:
            J = out.objective + tpl.constant(x)
            costs[n] = J
            if best is None or J < best[1]:
                best = (n, J, out)
        else:
            failed = failed or out.status is not SolveStatus.INFEASIBLE
    if best is None:
        status = SolveStatus.NUMERICAL_FAILURE if failed else SolveStatus.INFEASIBLE
        return status, None, None, None, costs, outcomes
    n, J, out = best
    u, _ = ctl.templates[n].extract(out.x_opt)
    return SolveStatus.OPTIMAL, n, J, u[0], costs, outcomes


def _closed_loop_states(problem, cfg, ctl):
    states = []
    for i, x0 in enumerate(X0_SET):
        real = sample_realization(problem.system, CLOSED_LOOP_STEPS, seed=i)
        trace = simulate_closed_loop(
            problem.system, cfg, x0, CLOSED_LOOP_STEPS, real, controller=ctl
        )
        assert trace.completed == CLOSED_LOOP_STEPS
        states.extend(trace.states[:-1])
    return states


def _grid_states(problem):
    X = problem.system.X
    lo, hi = X.bounding_box()
    axes = [np.linspace(lo[j], hi[j], 10) for j in range(X.dim)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return [p for p in pts if X.contains(p)]


@pytest.fixture(scope="module")
def pruning_cases(default_problem, default_cfg, default_controller):
    """{set name: [(x, pruned solution, exhaustive reference)]}."""
    ctl = default_controller
    sets = {
        "closed_loop": _closed_loop_states(default_problem, default_cfg, ctl),
        "grid": _grid_states(default_problem),
    }
    return {
        name: [(x, ctl.solve(x), _exhaustive_reference(ctl, x)) for x in xs]
        for name, xs in sets.items()
    }


class TestPruning:
    def test_bound_below_every_cost(self, default_controller, pruning_cases):
        # (a) x'S_n x never exceeds horizon n's reported cost, pruned or not
        checked = 0
        for cases in pruning_cases.values():
            for x, sol, (_, _, _, _, costs, _) in cases:
                for n, J in costs.items():
                    bound = float(x @ default_controller.bound_maps[n] @ x)
                    assert bound <= J + 1e-9 * (1.0 + abs(J))
                    checked += 1
                for r in sol.per_horizon:
                    if r.status is SolveStatus.OPTIMAL:
                        assert r.bound <= r.cost + 1e-9 * (1.0 + abs(r.cost))
        assert checked > 0

    def test_selection_bitwise_equal_to_exhaustive(self, pruning_cases):
        # (b) status, N*, J* and the applied input match the unpruned rule exactly
        for name, cases in pruning_cases.items():
            for x, sol, (status, n_star, J_star, u, _, _) in cases:
                assert sol.status is status, (name, x)
                assert sol.N_star == n_star, (name, x)
                assert sol.J_star == J_star, (name, x)
                if u is None:
                    assert sol.applied_input is None
                else:
                    assert np.array_equal(sol.applied_input, u), (name, x)
        infeasible = [sol for _, sol, _ in pruning_cases["grid"] if not sol.is_feasible]
        assert infeasible, "the grid should contain infeasible points"
        for sol in infeasible:
            # nothing is pruned before some horizon is feasible
            assert not any(r.pruned for r in sol.per_horizon)

    def test_optimal_horizon_results_meet_kkt_contract(self, default_controller, pruning_cases):
        # every OPTIMAL horizon QP, N_t = 1 included, is a 1e-8 KKT point
        checked = dict.fromkeys(default_controller.templates, 0)
        for cases in pruning_cases.values():
            for x, _, (*_, outcomes) in cases:
                for n, out in outcomes.items():
                    if out.status is not SolveStatus.OPTIMAL:
                        continue
                    tpl = default_controller.templates[n]
                    q, h = tpl.parts(x)
                    z, y = out.x_opt, out.y_ineq
                    assert np.max(tpl.G @ z - h) <= 1e-8, (n, x)
                    assert np.min(y) >= -1e-8, (n, x)
                    stationarity = np.max(np.abs(tpl.Q @ z + q + tpl.G.T @ y))
                    assert stationarity <= 1e-8 * max(1.0, np.max(np.abs(q))), (n, x)
                    checked[n] += 1
        assert all(checked.values()), checked

    def test_pruning_skips_most_shorter_horizons(self, default_cfg, pruning_cases):
        # (c) on the closed-loop states at least 90 % of the N_t < N solves are skipped
        cases = pruning_cases["closed_loop"]
        N = default_cfg.N
        shorter = [r for _, sol, _ in cases for r in sol.per_horizon if r.N_t < N]
        assert len(shorter) == len(cases) * (N - 1)
        pruned = sum(r.pruned for r in shorter)
        assert pruned >= 0.9 * len(shorter), "%d of %d pruned" % (pruned, len(shorter))
        for _, sol, _ in cases:
            assert [r.N_t for r in sol.per_horizon] == list(range(1, N + 1))
            for r in sol.per_horizon:
                assert (r.status is None and r.cost is None) == r.pruned
                assert not (r.pruned and r.farkas is not None)

    def test_origin_prunes_nothing(self, default_controller):
        # (d) every horizon costs 0 at the origin: all are solved, the shortest wins
        sol = default_controller.solve(np.zeros(2))
        assert not any(r.pruned for r in sol.per_horizon)
        assert sol.N_star == 1

    def test_report_marks_pruned_horizons(self, default_controller):
        sol = default_controller.solve(np.array([6.0, -6.0]))
        rep = sol.report()
        entries = rep["per_horizon"]
        assert [e["N_t"] for e in entries] == [1, 2, 3, 4, 5]
        pruned = [e for e in entries if e["status"] == "pruned"]
        assert pruned and all(e["cost"] is None and e["bound"] > sol.J_star for e in pruned)
        assert entries[-1]["status"] == "optimal"


def test_free_function_caches_hold_one_entry(default_problem, default_cfg):
    prob = default_problem
    sys = prob.system
    x = np.zeros(2)
    cfgs = [dataclasses.replace(default_cfg, N=n) for n in (1, 2, 3)]
    for cfg in cfgs:
        assert adaptive_solve(sys, cfg, x).is_feasible
        assert len(controller._controller_cache) <= 1
    assert controller._controller_for(sys, cfgs[-1]) is controller._controller_for(sys, cfgs[-1])
    bcfg = make_baseline_config(sys, prob.K, prob.P, prob.R, prob.N, bound=default_cfg.bound)
    bcfgs = [dataclasses.replace(bcfg, N=n) for n in (1, 2, 3)]
    for cfg in bcfgs:
        assert baseline_solve(sys, cfg, x).is_feasible
        assert len(baseline._baseline_cache) <= 1
    assert baseline._baseline_for(sys, bcfgs[-1]) is baseline._baseline_for(sys, bcfgs[-1])


class TestRollout:
    def test_zero_uncertainty_replays_nominal(self):
        prob = load_problem_dict(scalar_problem_dict(w=0.1, x=4.0, u=2.0, N=3))
        sys = prob.system
        from rampc.controller import config_from_problem

        cfg = config_from_problem(prob, hull_samples=10)
        ctl = AdaptiveController(sys, cfg)
        sol0 = ctl.solve(np.array([2.0]))
        assert sol0.is_feasible
        # nominal evolution: reconstructed residuals are exactly zero
        states = [np.array([2.0])]
        inputs = []
        for t in range(sol0.N_star):
            u = rollout_policy(sys, sol0, cfg.terminal.K, states, inputs)
            np.testing.assert_allclose(u, sol0.u_bar_star[t], atol=1e-9)
            states.append(sys.A_bar @ states[-1] + sys.B_bar @ u)
            inputs.append(u)
        # beyond the plan: terminal feedback
        u = rollout_policy(sys, sol0, cfg.terminal.K, states, inputs)
        np.testing.assert_allclose(u, cfg.terminal.K @ states[-1], atol=1e-12)

    def test_history_mismatch(self, default_problem, default_cfg, default_controller):
        sol0 = default_controller.solve(np.array([1.0, 1.0]))
        with pytest.raises(HistoryLengthMismatchError):
            rollout_policy(
                default_problem.system, sol0, default_cfg.terminal.K, [np.zeros(2)], [np.zeros(1)]
            )
