"""Horizon-stacked prediction matrices and the feedback-gain structure.

For a horizon Nbar the stacked nominal prediction is

    [xbar_{t+1}; ...; xbar_{t+Nbar}] = A_stack x_t + C ubar,

and with net-additive disturbances w the realized stack gains + G w, where

    G = I + sum_{k=1}^{Nbar-1} L^k (x) Abar^k      (L = lower shift matrix)
    C = G (I_Nbar (x) Bbar),
    A_stack = [Abar; Abar^2; ...; Abar^Nbar].

The column-stacked form of A_stack is the unique one consistent with the
one-step recursion; the exactness is enforced by tests to 1e-12.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import HistoryLengthMismatchError


@dataclass(frozen=True)
class StackedDynamics:
    horizon: int
    A_stack: np.ndarray  # (d*N, d)
    C: np.ndarray  # (d*N, m*N)
    G: np.ndarray  # (d*N, d*N)

    @property
    def d(self):
        return self.A_stack.shape[1]

    @property
    def m(self):
        return self.C.shape[1] // self.horizon


def build_stacked(A_bar, B_bar, horizon: int) -> StackedDynamics:
    A_bar = np.atleast_2d(np.asarray(A_bar, dtype=float))
    B_bar = np.atleast_2d(np.asarray(B_bar, dtype=float))
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    d = A_bar.shape[0]
    N = horizon
    L = np.eye(N, k=-1)
    G = np.eye(d * N)
    Apow = np.eye(d)
    Lpow = np.eye(N)
    powers = []
    for _ in range(1, N):
        Apow = Apow @ A_bar
        Lpow = Lpow @ L
        powers.append(Apow.copy())
        G = G + np.kron(Lpow, Apow)
    C = G @ np.kron(np.eye(N), B_bar)
    A_stack = np.vstack([A_bar] + [p @ A_bar for p in powers]) if N > 1 else A_bar.copy()
    return StackedDynamics(horizon=N, A_stack=A_stack, C=C, G=G)


@functools.lru_cache(maxsize=None)
def _acausal_mask(N, d, m):
    """Entries of an (m N) x (d N) gain matrix in the blocks (k, l >= k),
    which causality keeps at zero."""
    mask = np.arange(d * N)[None, :] // d >= np.arange(m * N)[:, None] // m
    mask.setflags(write=False)
    return mask


class FeedbackGainStack:
    """Strictly block-lower-triangular disturbance-feedback gains.

    Block (k, l) is the m-by-d gain applied to the reconstructed net-additive
    disturbance of step l when computing the input of step k; causality
    requires it to vanish for l >= k.  ``check=False`` skips the scan of M for
    that, for gains that are causal by construction.
    """

    def __init__(self, horizon: int, d: int, m: int, M=None, *, check=True):
        self.horizon = horizon
        self.d = d
        self.m = m
        if M is None:
            M = np.zeros((m * horizon, d * horizon))
        else:
            M = np.asarray(M, dtype=float).reshape(m * horizon, d * horizon)
            if check:
                self._check_causal(M, horizon, d, m)
        self.M = M
        self.M.setflags(write=False)

    @staticmethod
    def _check_causal(M, N, d, m):
        if np.any(np.abs(M[_acausal_mask(N, d, m)]) > 0):
            raise ValueError("feedback gains must be strictly block lower triangular")

    @classmethod
    def zeros(cls, horizon, d, m):
        return cls(horizon, d, m)

    def block(self, k, l):
        """Gain M_{k,l} (zero matrix for l >= k)."""
        return self.M[k * self.m : (k + 1) * self.m, l * self.d : (l + 1) * self.d]


def policy_input(M: FeedbackGainStack, u_bar_stack, w_tilde_history) -> np.ndarray:
    """Input of predicted step k = len(w_tilde_history) under the policy.

    Returns  sum_l M_{k,l} w_l + ubar_k,  the disturbance-feedback policy
    evaluated on the recorded net-additive disturbances.
    """
    u_bar = np.asarray(u_bar_stack, dtype=float).reshape(M.horizon, M.m)
    k = len(w_tilde_history)
    if k >= M.horizon:
        raise HistoryLengthMismatchError(
            "history of length %d has no step-%d input in a horizon-%d plan"
            % (k, k, M.horizon)
        )
    u = u_bar[k].copy()
    for l, w in enumerate(w_tilde_history):
        w = np.asarray(w, dtype=float).reshape(M.d)
        u += M.block(k, l) @ w
    return u
