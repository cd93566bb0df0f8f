"""Convex solve layer: LPs via HiGHS, QPs via the ADMM kernel.

Every geometry LP and every MPC subproblem in the package routes through
this layer.  The ADMM iteration has one kernel: sparse (CSR) matrix-vector
products and a sparse factor of the x-update matrix, computed once per step
size and cached (``active_kernel`` names it).

Every problem has one form: inequality constraints ``G x <= h`` only, with
a quadratic (``ParametricQP``) or linear (``solve_lp``)
objective.  The ADMM constants are fixed; there is no settings object.

A QP solve runs ADMM and, every 25 iterations, checks the iterate against
the KKT contract: primal feasibility G x - h <= 1e-8 (absolute), y >= 0
and stationarity |Q x + q + G'y| <= 1e-8 * max(1, |q|), in the max norm.
It returns the first iterate that passes as OPTIMAL; an iterate whose
residuals reach 1e-10 and still fails is NUMERICAL_FAILURE.  INFEASIBLE is
reported only with a Farkas certificate from an exact LP probe.
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
