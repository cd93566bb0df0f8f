"""Conservative shrinking-tube baseline: lumped uncertainty everywhere.

The baseline is the proposed controller with a bank of one horizon: the
same preparation, solve and result assembly (``AdaptiveController``), over
a single multi-step (dual-norm tightened) problem at the fixed horizon N,
so there is no adaptive selection.  Its terminal set is the robust
invariant set of the *lumped* closed loop x+ = (A_bar + B_bar K) x + w with
||w||_inf <= wtilde_max.  This is the classical recipe the
proposed design improves on: identical tightenings along the horizon, a
strictly smaller terminal set, and no fallback horizons, so every state the
baseline can handle the proposed controller can too.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import AdaptiveController, CaseNTemplate, lyapunov_series
from .errors import EmptyTerminalSetError
from .geometry import Polytope, max_robust_invariant
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
    sys: UncertainSystem, K, P, R, N, bound: NetAdditiveBound | None = None
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
    X_lump = max_robust_invariant(constraint, [A_cl], w_box)
    if X_lump.is_empty():
        raise EmptyTerminalSetError(
            "lumped terminal set is empty (wtilde_max=%.4g)" % bound.w_tilde_max
        )
    P_N = lyapunov_series(A_cl, P + K.T @ R @ K)
    return BaselineConfig(P=P, R=R, N=N, K=K, X_N_lump=X_lump, P_N=P_N, bound=bound)


class BaselineController(AdaptiveController):
    """Fixed-horizon tube controller: a bank of one lumped horizon, N = cfg.N.

    ``template`` and ``solver`` name the bank's only horizon problem.
    """

    def __init__(self, sys: UncertainSystem, cfg: BaselineConfig):
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
        self._prepare(sys, cfg, {cfg.N: self.template})
        self.solver = self.solvers[cfg.N]

    # ``__init__`` and ``solve`` live in this class body, and ``__init__`` does
    # not call ``AdaptiveController.__init__``: tracers that wrap a class's own
    # ``__dict__`` entries can then tell baseline spans from adaptive ones
    solve = AdaptiveController.solve

