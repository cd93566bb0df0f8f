"""Convex solve layer: LPs via HiGHS, QPs via the ADMM kernel.

Every geometry LP and every MPC subproblem in the package routes through
this layer.  The hot ADMM iteration loop has a compiled (Cython) kernel and
a numpy fallback; the compiled one is selected automatically at import when
available (see ``active_kernel``/``set_kernel``).

A QP solve runs ADMM until its residuals converge, verifies the iterate
against the 1e-8 KKT conditions, tightens the tolerance once if that check
fails, and otherwise reports NUMERICAL_FAILURE.  Every OPTIMAL QP result is
the verified ADMM iterate; INFEASIBLE is reported only with a Farkas
certificate from an exact LP probe.
"""
from .admm import (
    ADMMSettings,
    ParametricQP,
    active_kernel,
    available_kernels,
    set_kernel,
    solve_qp,
)
from .lp import farkas_certificate, feasible_point, solve_lp, verify_farkas
from .types import QuadraticProgram, SolveOutcome, SolveStatus

__all__ = [
    "ADMMSettings",
    "ParametricQP",
    "QuadraticProgram",
    "SolveOutcome",
    "SolveStatus",
    "active_kernel",
    "available_kernels",
    "farkas_certificate",
    "feasible_point",
    "set_kernel",
    "solve_lp",
    "solve_qp",
    "verify_farkas",
]
