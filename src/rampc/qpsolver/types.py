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


def _as_matrix(A, name):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("%s must be a 2-d array, got shape %s" % (name, A.shape))
    return np.ascontiguousarray(A)


def _as_vector(v, name):
    v = np.asarray(v, dtype=float).reshape(-1)
    return np.ascontiguousarray(v)


def check_psd(Q, name="Q"):
    """Check symmetry and positive semidefiniteness by attempted factorization."""
    if not np.allclose(Q, Q.T, atol=1e-10, rtol=0.0):
        raise ValueError("%s must be symmetric" % name)
    jitter = 1e-10 * max(1.0, float(np.abs(Q).max(initial=0.0)))
    try:
        np.linalg.cholesky(Q + jitter * np.eye(Q.shape[0]))
    except np.linalg.LinAlgError:
        raise ValueError("%s must be positive semidefinite" % name) from None


@dataclass(frozen=True)
class QuadraticProgram:
    """min 1/2 x'Qx + q'x  s.t.  G_ineq x <= h_ineq, A_eq x = b_eq.

    Q must be symmetric PSD; all dimensions are validated on construction.
    """

    Q: np.ndarray
    q: np.ndarray
    G_ineq: np.ndarray
    h_ineq: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        Q = _as_matrix(self.Q, "Q")
        q = _as_vector(self.q, "q")
        G = _as_matrix(self.G_ineq, "G_ineq")
        h = _as_vector(self.h_ineq, "h_ineq")
        n = Q.shape[0]
        if Q.shape != (n, n):
            raise ValueError("Q must be square")
        if q.shape != (n,):
            raise ValueError("q has length %d, expected %d" % (q.shape[0], n))
        if G.shape[1] != n or h.shape[0] != G.shape[0]:
            raise ValueError("inconsistent inequality dimensions")
        check_psd(Q)
        A_eq, b_eq = self.A_eq, self.b_eq
        if (A_eq is None) != (b_eq is None):
            raise ValueError("A_eq and b_eq must be given together")
        if A_eq is not None:
            A_eq = _as_matrix(A_eq, "A_eq")
            b_eq = _as_vector(b_eq, "b_eq")
            if A_eq.shape[1] != n or b_eq.shape[0] != A_eq.shape[0]:
                raise ValueError("inconsistent equality dimensions")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "G_ineq", G)
        object.__setattr__(self, "h_ineq", h)
        object.__setattr__(self, "A_eq", A_eq)
        object.__setattr__(self, "b_eq", b_eq)

    @property
    def n(self):
        return self.Q.shape[0]


@dataclass
class SolveOutcome:
    """Result of one LP/QP solve.

    When status is OPTIMAL, ``x_opt`` satisfies the constraints to 1e-8 and
    ``objective`` equals 1/2 x'Qx + q'x (c'x for LPs) evaluated at ``x_opt``.
    When status is INFEASIBLE, ``farkas`` holds a verified certificate
    {"y": ..., "nu": ...} with y >= 0, G'y + A'nu = 0 and h'y + b'nu < 0.
    ``polished`` is always False: no solver refines its result after
    convergence.  The field stays because the benchmark's tracing
    (``perfbench/tracing.py``) reads it.
    """

    status: SolveStatus
    x_opt: np.ndarray | None = None
    objective: float = float("nan")
    solve_time: float = 0.0
    y_ineq: np.ndarray | None = None
    y_eq: np.ndarray | None = None
    farkas: dict | None = None
    iterations: int = 0
    polished: bool = False
    backend: str = ""
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_optimal(self):
        return self.status is SolveStatus.OPTIMAL
