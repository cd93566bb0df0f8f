"""Solve-layer contracts on random 2-d systems (not only the default problem).

Each example draws a stabilizable system with different deltaA and deltaB
radii, synthesizes its terminal set and runs a short closed loop from a
random state in X.  Every solve must end OPTIMAL or INFEASIBLE (never
NUMERICAL_FAILURE), every applied step must keep x in X and u in U, and
every INFEASIBLE horizon must carry a Farkas certificate that
``verify_farkas`` accepts against the template's G and ``parts(x)``.  Once
the loop is feasible it stays feasible, and each optimal cost is at most
the candidate tail cost of the step before (the descent check).
"""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_stable_system_2d
from rampc.controller import AdaptiveController, MPCConfig, candidate_tail_cost, synthesize_terminal
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
    sys, K = random_stable_system_2d(rng, da=da, db=db)
    P, R = np.eye(2), np.eye(1)
    try:
        term = synthesize_terminal(sys, K, P, R, hull_samples=20)
    except (EmptyTerminalSetError, VertexUnstableError):
        assume(False)  # the hull screen or the invariant set rejected this draw
    cfg = MPCConfig(P=P, R=R, N=3, terminal=term, bound=net_additive_bound(sys))
    ctl = AdaptiveController(sys, cfg)
    real = sample_realization(sys, STEPS, seed=seed)
    A_true, B_true = real.A_true(sys), real.B_true(sys)
    lo, hi = sys.X.bounding_box()
    x = rng.uniform(lo, hi)
    prev = None  # (solution, realized net-additive residual) of the last step
    for t in range(STEPS):
        sol = ctl.solve(x)
        assert sol.status is not SolveStatus.NUMERICAL_FAILURE, (t, x)
        for r in sol.per_horizon:
            assert r.status is not SolveStatus.NUMERICAL_FAILURE, (t, x, r.N_t)
            if r.status is SolveStatus.INFEASIBLE:
                tpl = ctl.templates[r.N_t]
                assert verify_farkas(tpl.G, tpl.parts(x)[1], None, None, r.farkas), (t, x, r.N_t)
        if not sol.is_feasible:
            assert prev is None, (t, x)  # recursive feasibility
            break
        assert sol.margin_x >= -MARGIN_TOL and sol.margin_u >= -MARGIN_TOL, (t, x)
        if prev is not None:
            tail = candidate_tail_cost(cfg, sys, *prev)
            assert sol.J_star <= tail + MARGIN_TOL * (1.0 + abs(sol.J_star)), (t, sol.J_star, tail)
        u = sol.applied_input
        x_next = A_true @ x + B_true @ u + real.w_sequence[t]
        prev = (sol, x_next - sys.A_bar @ x - sys.B_bar @ u)
        x = x_next
