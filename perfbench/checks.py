"""Correctness checks on the outputs of each workload.

Each check recomputes what it can from the program's outputs instead of
trusting the program's own flags, and returns the failures it found; a
workload counts an operation as failed when any check on it fails.
"""
from __future__ import annotations

import numpy as np

from rampc.qpsolver import SolveStatus, verify_farkas

# the simulator's own constraint and descent tolerance
TOL = 1e-6


def closed_loop_failures(sys, trace, realization, steps):
    """Failed steps of one closed-loop run, as {step index: reason}.

    A step fails on infeasibility, numerical failure, a state or input
    outside its constraint set, a successor state that does not replay the
    true dynamics, or a cost above the previous step's candidate tail cost
    (ISS descent).  Steps the run never reached fail as "not reached".
    """
    bad = {}
    n = trace.completed
    A, B = realization.A_true(sys), realization.B_true(sys)
    for t in range(n):
        x, u = trace.states[t], trace.inputs[t]
        if np.max(sys.X.H @ x - sys.X.h) > TOL or np.max(sys.U.H @ u - sys.U.h) > TOL:
            bad[t] = "constraint violation"
        elif np.max(np.abs(A @ x + B @ u + realization.w_sequence[t] - trace.states[t + 1])) > 1e-9:
            bad[t] = "successor does not replay the dynamics"
        rec = trace.records[t]
        if not rec.feasible:
            bad[t] = "infeasible step recorded as applied"
        elif np.isfinite(rec.iss_gap) and rec.iss_gap < -TOL * (1.0 + abs(rec.J_star)):
            bad[t] = "ISS descent violation"
    if n and np.max(sys.X.H @ trace.states[n] - sys.X.h) > TOL:
        bad[n - 1] = "final state violates the state constraints"
    for t in range(n, steps):
        bad[t] = "not reached"
    if trace.numerical_failure_at is not None:
        bad[trace.numerical_failure_at] = "numerical failure"
    elif trace.infeasible_at is not None:
        bad[trace.infeasible_at] = "infeasible"
    if (trace.violations or trace.iss_violations) and not bad:
        bad[max(n - 1, 0)] = "simulator flagged a violation"
    return bad


def classification_failure(sys, templates, x, sol):
    """Reason a grid classification is wrong, or None.

    ``templates`` maps each horizon of the controller to its QP template.
    An INFEASIBLE horizon must carry a Farkas certificate that
    ``verify_farkas`` accepts against the template's G and ``parts(x)``.
    """
    if sol.status is SolveStatus.NUMERICAL_FAILURE:
        return "numerical failure"
    if sol.status is SolveStatus.OPTIMAL:
        u = sol.applied_input
        if u is None or not np.isfinite(sol.J_star) or np.max(sys.U.H @ u - sys.U.h) > TOL:
            return "optimal result with an invalid input or cost"
        return None
    if sol.status is not SolveStatus.INFEASIBLE:
        return "unexpected status %s" % sol.status
    for res in sol.per_horizon:
        tpl = templates[res.N_t]
        _, h = tpl.parts(x)
        if res.status is not SolveStatus.INFEASIBLE or res.farkas is None:
            return "horizon %d: %s without a certificate" % (res.N_t, res.status)
        if not verify_farkas(tpl.G, h, None, None, res.farkas):
            return "horizon %d: Farkas certificate rejected" % res.N_t
    return None


def dominance_failures(adaptive_mask, baseline_mask):
    """Grid indices the baseline classifies feasible but the adaptive controller does not."""
    a = np.asarray(adaptive_mask, dtype=bool)
    b = np.asarray(baseline_mask, dtype=bool)
    return np.flatnonzero(b & ~a).tolist()


def terminal_set_failure(S):
    """Reason a synthesized terminal set is unusable, or None.

    A nonempty robust invariant set for a disturbance set around the origin
    contains the origin, so containment of 0 is checked directly rather
    than trusting the program's cached emptiness flag.
    """
    if S.is_empty() or not S.contains(np.zeros(S.dim)):
        return "empty terminal set"
    return None
