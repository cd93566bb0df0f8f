"""Convex solve layer: LPs via HiGHS, QPs via the ADMM kernel.

Every geometry LP and every MPC subproblem in the package routes through
this layer.  The ADMM iteration has one kernel: sparse (CSR) matrix-vector
products and a sparse factor of the x-update matrix, computed once per step
size and cached (``active_kernel`` names it).

A QP solve runs ADMM until its residuals converge, verifies the iterate
against the 1e-8 KKT conditions, tightens the tolerance once if that check
fails, and otherwise reports NUMERICAL_FAILURE.  Every OPTIMAL QP result is
the verified ADMM iterate; INFEASIBLE is reported only with a Farkas
certificate from an exact LP probe.
"""
from .admm import ADMMSettings, ParametricQP, active_kernel, solve_qp
from .lp import farkas_certificate, feasible_point, solve_lp, verify_farkas
from .types import QuadraticProgram, SolveOutcome, SolveStatus

__all__ = [
    "ADMMSettings",
    "ParametricQP",
    "QuadraticProgram",
    "SolveOutcome",
    "SolveStatus",
    "active_kernel",
    "farkas_certificate",
    "feasible_point",
    "solve_lp",
    "solve_qp",
    "verify_farkas",
]
