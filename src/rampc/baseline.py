"""Conservative shrinking-tube baseline: lumped uncertainty everywhere.

Same machinery as the proposed controller's multi-step case, but the
terminal set is the robust invariant set of the *lumped* closed loop
x+ = (A_bar + B_bar K) x + w with ||w||_inf <= wtilde_max, and the horizon
is fixed (no adaptive selection).  This is the classical recipe the
proposed design improves on: identical tightenings along the horizon, a
strictly smaller terminal set, and no fallback horizons, so every state the
baseline can handle the proposed controller can too.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .controller import CaseNTemplate, HorizonResult, MPCSolution, lyapunov_series
from .errors import EmptyTerminalSetError
from .geometry import Polytope, max_robust_invariant
from .qpsolver import ADMMSettings, ParametricQP, SolveStatus
from .system import NetAdditiveBound, UncertainSystem, net_additive_bound


@dataclass(frozen=True)
class BaselineConfig:
    P: np.ndarray
    R: np.ndarray
    N: int
    K: np.ndarray
    X_N_lump: Polytope
    P_N: np.ndarray
    bound: NetAdditiveBound


def make_baseline_config(
    sys: UncertainSystem, K, P, R, N, bound: NetAdditiveBound | None = None, max_iter=500
) -> BaselineConfig:
    """Terminal ingredients for the lumped tube controller.

    Raises EmptyTerminalSetError when the lumped disturbance ball is too
    large for any invariant set to fit inside the constraints.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    P = np.atleast_2d(np.asarray(P, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    bound = bound if bound is not None else net_additive_bound(sys)
    A_cl = sys.A_bar + sys.B_bar @ K
    w_box = Polytope.from_box(
        -bound.w_tilde_max * np.ones(sys.d), bound.w_tilde_max * np.ones(sys.d)
    )
    constraint = Polytope(
        np.vstack([sys.X.H, sys.U.H @ K]), np.concatenate([sys.X.h, sys.U.h])
    )
    X_lump = max_robust_invariant(constraint, [A_cl], w_box, max_iter=max_iter)
    if X_lump.is_empty():
        raise EmptyTerminalSetError(
            "lumped terminal set is empty (wtilde_max=%.4g)" % bound.w_tilde_max
        )
    P_N = lyapunov_series(A_cl, P + K.T @ R @ K)
    return BaselineConfig(P=P, R=R, N=N, K=K, X_N_lump=X_lump, P_N=P_N, bound=bound)


class BaselineController:
    """Fixed-horizon tube controller over the lumped terminal set."""

    def __init__(self, sys: UncertainSystem, cfg: BaselineConfig, settings: ADMMSettings | None = None):
        self.sys = sys
        self.cfg = cfg
        self.template = CaseNTemplate(
            sys,
            cfg.X_N_lump.H,
            cfg.X_N_lump.h,
            cfg.P,
            cfg.R,
            cfg.P_N,
            cfg.bound.w_tilde_max,
            cfg.N,
        )
        self.solver = ParametricQP(self.template.Q, self.template.G, settings=settings)

    def solve(self, x_t) -> MPCSolution:
        x = np.asarray(x_t, dtype=float).reshape(-1)
        t0 = time.perf_counter()
        q, h = self.template.parts(x)
        out = self.solver.solve(q, h)
        elapsed = time.perf_counter() - t0
        if out.status is not SolveStatus.OPTIMAL:
            return MPCSolution(
                status=SolveStatus.INFEASIBLE
                if out.status is SolveStatus.INFEASIBLE
                else out.status,
                N_star=None,
                u_bar_star=None,
                M_star=None,
                J_star=None,
                per_horizon=[HorizonResult(self.cfg.N, out.status, None, elapsed, out.farkas)],
                x_t=x,
            )
        J = out.objective + self.template.constant(x)
        u, M = self.template.extract(out.x_opt)
        return MPCSolution(
            status=SolveStatus.OPTIMAL,
            N_star=self.cfg.N,
            u_bar_star=u,
            M_star=M,
            J_star=J,
            per_horizon=[HorizonResult(self.cfg.N, out.status, J, elapsed)],
            x_t=x,
            x_bar_next=self.sys.A_bar @ x + self.sys.B_bar @ u[0],
            margin_x=float(np.min(self.sys.X.h - self.sys.X.H @ x)),
            margin_u=float(np.min(self.sys.U.h - self.sys.U.H @ u[0])),
        )


# one-entry cache, as for the adaptive controller
_baseline_cache: dict = {}


def _baseline_for(sys, cfg) -> BaselineController:
    key = (id(sys), id(cfg))
    ctl = _baseline_cache.get(key)
    if ctl is None or ctl.sys is not sys or ctl.cfg is not cfg:
        ctl = BaselineController(sys, cfg)
        _baseline_cache.clear()
        _baseline_cache[key] = ctl
    return ctl


def baseline_solve(sys: UncertainSystem, cfg: BaselineConfig, x_t) -> MPCSolution:
    """Fixed-horizon lumped-tube solve; infeasibility is a data outcome."""
    return _baseline_for(sys, cfg).solve(x_t)
