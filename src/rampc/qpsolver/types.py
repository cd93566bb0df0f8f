"""Problem and outcome containers for the convex solve layer."""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical_failure"

    def __str__(self):
        return self.value


@dataclass
class SolveOutcome:
    """Result of one LP/QP solve.

    A QP solve (``ParametricQP``) ends OPTIMAL, INFEASIBLE or
    NUMERICAL_FAILURE; UNBOUNDED is a status of the LP layer only.
    When status is OPTIMAL, ``objective`` equals 1/2 x'Qx + q'x (c'x for
    LPs) evaluated at ``x_opt``, and a QP result meets the KKT contract
    with its multipliers ``y_ineq``, all in the max norm: primal
    feasibility G x - h <= 1e-8 (absolute), y >= 0, and stationarity
    |Q x + q + G'y| <= 1e-8 * max(1, |q|).  The stationarity bound is
    relative to q, so at a large q an OPTIMAL point may sit farther from
    the exact minimiser than 1e-8.
    When status is INFEASIBLE, ``farkas`` holds a verified certificate
    {"y": ..., "nu": ..., "gap": ...} with y >= 0, G'y = 0 and
    gap = h'y < 0; ``nu`` is always empty, since no problem has equality
    rows.  ``backend`` names what produced the outcome:
    "highs" for the LP layer, "sparse" for the ADMM solver, "facets" for
    an INFEASIBLE verdict a controller read off a stored facet of a
    horizon's feasible set (``diagnostics["facet"]`` is its index) and
    "central" for an OPTIMAL result a controller took from a horizon's
    central candidate, the unconstrained minimiser of its cost with a fixed
    tail, after that point passed the same 1e-8 KKT check with zero
    multipliers (``iterations`` 0, ``y_ineq`` all zero).  The check's
    residuals come from the solver's CSR products for an ADMM result and
    from affine maps of the state for a "central" one.
    ``polished`` is always False: no solver refines its result after
    convergence.  The field stays because the benchmark's tracing
    (``perfbench/tracing.py``) reads it.  Every ADMM solve (and every
    "facets" or "central" outcome, with zeros) fills ``diagnostics`` with
    ``factorizations`` (factor-cache misses during this solve) and
    ``rho_updates`` (step-size changes during this solve).
    """

    status: SolveStatus
    x_opt: np.ndarray | None = None
    objective: float = float("nan")
    solve_time: float = 0.0
    y_ineq: np.ndarray | None = None
    farkas: dict | None = None
    iterations: int = 0
    polished: bool = False
    backend: str = ""
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_optimal(self):
        return self.status is SolveStatus.OPTIMAL
