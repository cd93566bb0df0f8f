"""Solve-layer contracts on random 2-d systems (not only the default problem).

Each example draws a stabilizable system with different deltaA and deltaB
radii, synthesizes its terminal set and runs a short closed loop from a
random state in X.  Every solve must end OPTIMAL or INFEASIBLE (never
NUMERICAL_FAILURE), every applied step must keep x in X and u in U, and
every INFEASIBLE horizon must carry a Farkas certificate that
``verify_farkas`` accepts against the template's G and ``parts(x)``.  Once
the loop is feasible it stays feasible, and each optimal cost is at most
the candidate tail cost of the step before (the descent check).  At every
step, the tail cost of each horizon's plan (the ADMM-only reference's
OPTIMAL results, so every N* from 1 to N occurs) equals its step-by-step
oracle to 1e-12 relative, at the step's realized net-additive residual.

Every OPTIMAL result, whether settled by a stored law (``backend="law"``:
the central law 0, with zero multipliers, or an active-set law) or solved
by ``ParametricQP``, meets the 1e-8 KKT
contract, recomputed here from the template's dense Q and G (the solver
checks it on its sparse copies); a horizon whose origin QP was not OPTIMAL
has no central law and is never settled by one; and N* equals that of an
ADMM-only reference (every horizon solved by ``ParametricQP``) wherever the
reference's winning cost is apart from every other horizon's by more than
1e-8 relative.
"""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_tail_cost_matches_oracle, horizon_plan, random_stable_system
from rampc.controller import AdaptiveController, MPCConfig, synthesize_terminal
from rampc.errors import EmptyTerminalSetError, VertexUnstableError
from rampc.qpsolver import SolveStatus, verify_farkas
from rampc.simulator import MARGIN_TOL
from rampc.system import net_additive_bound, sample_realization

STEPS = 8


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    radii=st.lists(st.floats(0.0, 0.05), min_size=2, max_size=2, unique=True),
)
def test_closed_loop_on_random_systems(seed, radii):
    da, db = radii
    rng = np.random.default_rng(seed)
    sys, K = random_stable_system(rng, da=da, db=db)
    P, R = np.eye(2), np.eye(1)
    try:
        term = synthesize_terminal(sys, K, P, R, hull_samples=20)
    except (EmptyTerminalSetError, VertexUnstableError):
        assume(False)  # the hull screen or the invariant set rejected this draw
    cfg = MPCConfig(P=P, R=R, N=3, terminal=term, bound=net_additive_bound(sys))
    ctl = AdaptiveController(sys, cfg)
    laws = []
    verdict = ctl._law_verdict

    def recorded(n, x, q):
        out = verdict(n, x, q)
        if out is not None:
            laws.append((n, q, ctl.templates[n].parts(x)[1], out))
        return out

    ctl._law_verdict = recorded
    real = sample_realization(sys, STEPS, seed=seed)
    A_true, B_true = real.A_true(sys), real.B_true(sys)
    lo, hi = sys.X.bounding_box()
    x = rng.uniform(lo, hi)
    prev = None  # (solution, realized net-additive residual) of the last step
    admm_states = []  # (x, horizons whose ADMM solve ended OPTIMAL there)
    for t in range(STEPS):
        sol = ctl.solve(x)
        solved = [r.N_t for r in sol.per_horizon if r.backend == "sparse" and r.cost is not None]
        if solved:
            admm_states.append((x, solved))
        assert sol.status is not SolveStatus.NUMERICAL_FAILURE, (t, x)
        for r in sol.per_horizon:
            assert r.status is not SolveStatus.NUMERICAL_FAILURE, (t, x, r.N_t)
            if r.status is SolveStatus.INFEASIBLE:
                tpl = ctl.templates[r.N_t]
                assert verify_farkas(tpl.G, tpl.parts(x)[1], None, None, r.farkas), (t, x, r.N_t)
        for n, q, h, out in laws:
            assert len(ctl.laws[n]) > 0 and out.backend == "law" and out.iterations == 0, (t, x, n)
            if ctl.laws[n].central and out.diagnostics["law"] == 0:
                assert not np.any(out.y_ineq), (t, x, n)
            _assert_kkt_contract(ctl.templates[n], q, h, out, (t, x, n))
        laws.clear()
        reference = _check_against_admm_only(ctl, x, sol)
        if not sol.is_feasible:
            assert prev is None, (t, x)  # recursive feasibility
            break
        assert sol.margin_x >= -MARGIN_TOL and sol.margin_u >= -MARGIN_TOL, (t, x)
        if prev is not None:
            tail = ctl.tail_cost(*prev)
            assert sol.J_star <= tail + MARGIN_TOL * (1.0 + abs(sol.J_star)), (t, sol.J_star, tail)
        u = sol.applied_input
        x_next = A_true @ x + B_true @ u + real.w_sequence[t]
        w_tilde = x_next - sys.A_bar @ x - sys.B_bar @ u
        for plan in [sol] + [horizon_plan(ctl, n, x, out) for n, out in reference.items()]:
            assert_tail_cost_matches_oracle(ctl, plan, w_tilde, (t, x))
        prev = (sol, w_tilde)
        x = x_next
    # each OPTIMAL ADMM result stored its law: a revisit settles by it, and a
    # state nearby may; both agree with ADMM alone
    for x, solved in admm_states:
        again = ctl.solve(x)
        assert all(again.per_horizon[n - 1].backend == "law" for n in solved), (x, solved)
        near = x + 1e-3 * rng.standard_normal(sys.d)
        for y in (x, near):
            sol = ctl.solve(y)
            _check_against_admm_only(ctl, y, sol)
        for n, q, h, out in laws:
            _assert_kkt_contract(ctl.templates[n], q, h, out, (x, n))
        laws.clear()
    for n, table in ctl.laws.items():
        # a central law 0 exists exactly when the horizon's origin QP is OPTIMAL
        if table.central is None:
            continue  # the horizon never reached the QP path
        tpl = ctl.templates[n]
        origin = ctl.solvers[n].solve(*tpl.parts(np.zeros(sys.d)))
        assert table.central == (origin.status is SolveStatus.OPTIMAL), n


def _assert_kkt_contract(tpl, q, h, out, where):
    """``out`` meets the 1e-8 KKT contract, recomputed from the dense template."""
    z, y = out.x_opt, out.y_ineq
    assert np.max(tpl.G @ z - h) <= 1e-8 and np.min(y) >= 0.0, where
    stationarity = np.max(np.abs(tpl.Q @ z + q + tpl.G.T @ y))
    assert stationarity <= 1e-8 * max(1.0, np.max(np.abs(q))), where


def _check_against_admm_only(ctl, x, sol):
    """N* of ``sol`` equals the ADMM-only selection when that one is clear;
    every OPTIMAL ADMM result meets the KKT contract.  Returns the OPTIMAL
    ADMM results, {horizon: outcome}."""
    costs, optimal = {}, {}
    for n, tpl in ctl.templates.items():
        q, h = tpl.parts(x)
        out = ctl.solvers[n].solve(q, h)
        if out.status is SolveStatus.OPTIMAL:
            _assert_kkt_contract(tpl, q, h, out, (x, n))
            costs[n] = out.objective + tpl.constant(x)
            optimal[n] = out
    if not costs:
        assert not sol.is_feasible, x
        return optimal
    n_ref = min(costs, key=lambda n: (costs[n], n))
    J = costs[n_ref]
    if all(abs(c - J) > 1e-8 * (1.0 + abs(J)) for n, c in costs.items() if n != n_ref):
        assert sol.N_star == n_ref, (x, costs)
    return optimal


def _start_state_qp(seed, da, db, n):
    """Horizon n's QP at the start state of the property test's draw (seed, [da, db])."""
    rng = np.random.default_rng(seed)
    sys, K = random_stable_system(rng, da=da, db=db)
    P, R = np.eye(2), np.eye(1)
    term = synthesize_terminal(sys, K, P, R, hull_samples=20)
    cfg = MPCConfig(P=P, R=R, N=3, terminal=term, bound=net_additive_bound(sys))
    ctl = AdaptiveController(sys, cfg)
    lo, hi = sys.X.bounding_box()
    x = rng.uniform(lo, hi)  # the start state, drawn as the property test draws it
    return x, ctl.templates[n], ctl.solvers[n]


def test_step_size_rule_does_not_cycle_near_boundary():
    # a draw of the property test above: its N = 3 QP at x0, near the
    # boundary of F_3, once flipped the step size between two scales until
    # the iteration cap and ended NUMERICAL_FAILURE
    x, tpl, solver = _start_state_qp(38815, 0.0425, 0.0, 3)
    assert np.allclose(x, [-2.883, -2.132], atol=1e-3)
    q, h = tpl.parts(x)
    out = solver.solve(q, h)
    assert out.status is SolveStatus.OPTIMAL, (out.status, out.iterations, out.diagnostics)
    _assert_kkt_contract(tpl, q, h, out, x)


def test_step_size_rule_never_returns_to_a_used_scale():
    # another draw: its N = 1 QP at x0 cycled through three or more scales,
    # returning to each, until the iteration cap and ended NUMERICAL_FAILURE
    x, tpl, solver = _start_state_qp(206, 0.009765625, 0.046875, 1)
    assert np.allclose(x, [3.481, 3.605], atol=1e-3)
    q, h = tpl.parts(x)
    out = solver.solve(q, h)
    assert out.status is SolveStatus.OPTIMAL, (out.status, out.iterations, out.diagnostics)
    assert out.diagnostics["rho_updates"] <= 16
    _assert_kkt_contract(tpl, q, h, out, x)
