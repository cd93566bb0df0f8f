"""Convex solve layer: LPs via HiGHS, QPs via the ADMM kernel.

Every geometry LP and every MPC subproblem in the package routes through
this layer.  The ADMM iteration has one kernel: sparse (CSR) matrix-vector
products and a sparse factor of the x-update matrix, computed once per step
size and cached (``active_kernel`` names it).

Every problem has one form: inequality constraints ``G x <= h`` only, with
a quadratic (``ParametricQP``) or linear (``solve_lp``)
objective.  The ADMM constants are fixed; there is no settings object.

A QP solve runs ADMM until its residuals reach 1e-6 and verifies the
iterate against the 1e-8 KKT conditions.  If that check fails, the residual
target drops to 1e-10 and every later check tries the KKT conditions again;
an iterate that reaches 1e-10 and still fails is NUMERICAL_FAILURE.  Every
OPTIMAL QP result is the verified ADMM iterate; INFEASIBLE is reported only
with a Farkas certificate from an exact LP probe.
"""
from .admm import ParametricQP, active_kernel
from .lp import farkas_certificate, feasible_point, solve_lp, verify_farkas
from .types import SolveOutcome, SolveStatus

__all__ = [
    "ParametricQP",
    "SolveOutcome",
    "SolveStatus",
    "active_kernel",
    "farkas_certificate",
    "feasible_point",
    "solve_lp",
    "verify_farkas",
]
