"""Operator-splitting QP solver with KKT-verified results.

The solver follows the standard scaled ADMM scheme for

    min 1/2 x'Qx + q'x   s.t.   G x <= h,  A_eq x = b_eq,

rewritten with a slack vector z and box bounds lo <= z <= up (equalities get
lo = up).  A ``ParametricQP`` is prepared once for fixed (Q, G, A_eq) and
solved repeatedly for varying (q, h, b_eq): the Ruiz equilibration and the
KKT Cholesky factor are computed at preparation time and reused, which is
what makes receding-horizon use cheap.  Each ``solve`` is a pure function of
its arguments (iterates and step-size adaptation always restart from the
same state), so repeated solves are bitwise reproducible.

Accuracy model: the ADMM loop runs until its residuals converge to a
moderate tolerance, then the unscaled iterate (inequality duals clipped at
zero) is verified against absolute 1e-8 primal feasibility, dual sign and
stationarity.  If the check fails, the loop is tightened once to 1e-10 and
verified again; a second failure is NUMERICAL_FAILURE, never a result that
misses the contract.  Every OPTIMAL result is the verified ADMM iterate.
An INFEASIBLE verdict is never emitted on ADMM evidence alone: it is
confirmed by an exact LP feasibility probe and carries a verified Farkas
certificate.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import _kernel_py
from .lp import feasible_point
from .types import QuadraticProgram, SolveOutcome, SolveStatus

try:  # compiled kernel is optional
    from . import _kernel as _kernel_c
except ImportError:  # pragma: no cover - depends on build environment
    _kernel_c = None

_KERNELS = {"numpy": _kernel_py.admm_batch}
if _kernel_c is not None:
    _KERNELS["cython"] = _kernel_c.admm_batch
_active_kernel = "cython" if _kernel_c is not None else "numpy"


def available_kernels():
    return sorted(_KERNELS)


def active_kernel():
    """Name of the iteration kernel selected at import (or via set_kernel)."""
    return _active_kernel


def set_kernel(name):
    """Force a specific iteration kernel ("cython" or "numpy")."""
    global _active_kernel
    if name not in _KERNELS:
        raise ValueError("unknown kernel %r; available: %s" % (name, available_kernels()))
    _active_kernel = name


@dataclass(frozen=True)
class ADMMSettings:
    sigma: float = 1e-6
    alpha: float = 1.6
    rho: float = 0.1
    rho_eq_scale: float = 1e3
    eps_abs: float = 1e-6
    eps_rel: float = 1e-6
    eps_pinf: float = 1e-4
    eps_dinf: float = 1e-4
    max_iter: int = 50_000
    check_every: int = 25
    ruiz_iters: int = 10
    adaptive_rho: bool = True
    kkt_tol: float = 1e-8


DEFAULT_SETTINGS = ADMMSettings()

_INF = np.inf


def _ruiz_equilibrate(P, A, iters):
    """Modified Ruiz equilibration of the KKT matrix [[P, A'], [A, 0]].

    Returns (d, e, c): column scaling of the variables, row scaling of the
    constraints, and a scalar cost scaling.
    """
    n = P.shape[0]
    m = A.shape[0]
    d = np.ones(n)
    e = np.ones(m)
    Pb = P.copy()
    Ab = A.copy()
    for _ in range(iters):
        col_p = np.abs(Pb).max(axis=0) if n else np.zeros(0)
        col_a = np.abs(Ab).max(axis=0) if m else np.zeros(n)
        dn = np.sqrt(np.maximum(np.maximum(col_p, col_a), 1e-12))
        row_a = np.abs(Ab).max(axis=1) if m else np.zeros(0)
        en = np.sqrt(np.maximum(row_a, 1e-12))
        dd = 1.0 / dn
        ee = 1.0 / en
        Pb = Pb * dd[:, None] * dd[None, :]
        if m:
            Ab = Ab * ee[:, None] * dd[None, :]
        d *= dd
        e *= ee
    col_p = np.abs(Pb).max(axis=0) if n else np.zeros(0)
    mean_cost = float(col_p.mean()) if n else 1.0
    c = 1.0 / min(max(mean_cost, 1e-6), 1e6) if mean_cost > 0 else 1.0
    c = min(max(c, 1e-6), 1e6)
    return d, e, c


def _quantize_rho(rho):
    # snap to powers of 10^(1/2) so the factor cache gets hits
    return float(10.0 ** (np.round(np.log10(rho) * 2.0) / 2.0))


class ParametricQP:
    """Prepared solver for fixed (Q, G_ineq, A_eq) and varying (q, h, b_eq)."""

    def __init__(self, Q, G_ineq, A_eq=None, settings: ADMMSettings | None = None):
        self.settings = settings or DEFAULT_SETTINGS
        Q = np.ascontiguousarray(np.asarray(Q, dtype=float))
        G = np.ascontiguousarray(np.atleast_2d(np.asarray(G_ineq, dtype=float)))
        self.n = Q.shape[0]
        self.Q = Q
        self.G = G
        self.m_in = G.shape[0]
        if A_eq is not None and len(A_eq):
            A_eq = np.ascontiguousarray(np.atleast_2d(np.asarray(A_eq, dtype=float)))
            self.A_eq = A_eq
            self.m_eq = A_eq.shape[0]
            self.A = np.vstack([G, A_eq]) if self.m_in else A_eq.copy()
        else:
            self.A_eq = None
            self.m_eq = 0
            self.A = G.copy()
        self.m = self.m_in + self.m_eq
        self.At = np.ascontiguousarray(self.A.T)

        s = self.settings
        self.d, self.e, self.c = _ruiz_equilibrate(Q, self.A, s.ruiz_iters)
        self.P_s = self.c * (Q * self.d[:, None] * self.d[None, :])
        self.A_s = self.A * self.e[:, None] * self.d[None, :]
        self.At_s = np.ascontiguousarray(self.A_s.T)

        rho = np.full(self.m, s.rho)
        rho[self.m_in :] *= s.rho_eq_scale
        self._base_rho = rho
        self._factor_cache = {}
        self._factor(1.0)  # warm the cache at the base step size

    # -- factorization ----------------------------------------------------
    def _factor(self, rho_scale):
        key = float(rho_scale)
        hit = self._factor_cache.get(key)
        if hit is not None:
            return hit
        rho = self._base_rho * rho_scale
        M = self.P_s + self.settings.sigma * np.eye(self.n)
        if self.m:
            M = M + (self.At_s * rho) @ self.A_s
        L = scipy.linalg.cholesky(M, lower=True, check_finite=False)
        L = np.asfortranarray(L)
        entry = (L, rho, 1.0 / rho)
        self._factor_cache[key] = entry
        return entry

    # -- residuals ---------------------------------------------------------
    def _unscale(self, x, z, y):
        xu = self.d * x
        zu = z / self.e
        yu = self.e * y / self.c
        return xu, zu, yu

    def _residuals(self, xu, zu, yu, q):
        Ax = self.A @ xu if self.m else np.zeros(0)
        r_p = float(np.max(np.abs(Ax - zu))) if self.m else 0.0
        Qx = self.Q @ xu
        Aty = self.At @ yu if self.m else 0.0
        r_d = float(np.max(np.abs(Qx + q + Aty)))
        scale_p = max(
            float(np.max(np.abs(Ax), initial=0.0)), float(np.max(np.abs(zu), initial=0.0))
        )
        scale_d = max(
            float(np.max(np.abs(Qx), initial=0.0)),
            float(np.max(np.abs(Aty), initial=0.0)) if self.m else 0.0,
            float(np.max(np.abs(q), initial=0.0)),
        )
        return r_p, r_d, scale_p, scale_d

    # -- infeasibility signals ----------------------------------------------
    def _primal_inf_signal(self, dyu, lo, up, eps):
        nrm = float(np.max(np.abs(dyu), initial=0.0))
        if nrm <= 1e-14:
            return False
        if float(np.max(np.abs(self.At @ dyu))) > eps * nrm:
            return False
        pos = np.maximum(dyu, 0.0)
        neg = np.minimum(dyu, 0.0)
        # rows with an infinite bound must not contribute in that direction
        if np.any(neg[np.isinf(lo)] < -eps * nrm):
            return False
        sup = float(up[np.isfinite(up)] @ pos[np.isfinite(up)])
        sup += float(lo[np.isfinite(lo)] @ neg[np.isfinite(lo)])
        return sup < -eps * nrm

    def _dual_inf_signal(self, dxu, q, lo, up, eps):
        nrm = float(np.max(np.abs(dxu), initial=0.0))
        if nrm <= 1e-14:
            return False
        if float(np.max(np.abs(self.Q @ dxu))) > eps * nrm:
            return False
        if float(q @ dxu) > -eps * nrm:
            return False
        Adx = self.A @ dxu if self.m else np.zeros(0)
        up_f = np.isfinite(up)
        lo_f = np.isfinite(lo)
        if np.any(Adx[up_f] > eps * nrm) or np.any(Adx[lo_f] < -eps * nrm):
            return False
        return True

    def _kkt_ok(self, x, y_in, y_eq, q, h, b):
        tol = self.settings.kkt_tol
        if self.m_in:
            if float(np.max(self.G @ x - h)) > tol:
                return False
            if float(y_in.min(initial=0.0)) < -tol:
                return False
        if self.m_eq and float(np.max(np.abs(self.A_eq @ x - b))) > tol:
            return False
        r_d = self.Q @ x + q
        if self.m_in:
            r_d = r_d + self.G.T @ y_in
        if self.m_eq:
            r_d = r_d + self.A_eq.T @ y_eq
        return float(np.max(np.abs(r_d))) <= tol * max(1.0, float(np.max(np.abs(q), initial=0.0)))

    # -- main solve -----------------------------------------------------------
    def solve(self, q, h_ineq, b_eq=None) -> SolveOutcome:
        t0 = time.perf_counter()
        s = self.settings
        q = np.ascontiguousarray(np.asarray(q, dtype=float).reshape(-1))
        h = (
            np.ascontiguousarray(np.asarray(h_ineq, dtype=float).reshape(-1))
            if self.m_in
            else np.zeros(0)
        )
        b = (
            np.ascontiguousarray(np.asarray(b_eq, dtype=float).reshape(-1))
            if self.m_eq
            else np.zeros(0)
        )
        lo = np.concatenate([np.full(self.m_in, -_INF), b])
        up = np.concatenate([h, b])
        # scaled data
        q_s = self.c * self.d * q
        lo_s = self.e * lo
        up_s = self.e * up

        kernel = _KERNELS[_active_kernel]
        rho_scale = 1.0
        L, rho, rho_inv = self._factor(rho_scale)
        x = np.zeros(self.n)
        z = np.zeros(self.m)
        y = np.zeros(self.m)
        iters = 0
        eps_pinf = s.eps_pinf
        eps_dinf = s.eps_dinf
        false_alarms = 0
        eps_abs, eps_rel = s.eps_abs, s.eps_rel
        tightened = False

        def finish(status, **kw):
            out = SolveOutcome(status=status, backend=_active_kernel, iterations=iters, **kw)
            out.solve_time = time.perf_counter() - t0
            return out

        while iters < s.max_iter:
            x, z, y, dx, dy = kernel(
                L, self.A_s, self.At_s, q_s, lo_s, up_s, rho, rho_inv,
                s.sigma, s.alpha, x, z, y, s.check_every,
            )
            iters += s.check_every
            xu, zu, yu = self._unscale(x, z, y)
            r_p, r_d, scale_p, scale_d = self._residuals(xu, zu, yu, q)
            eps_p = eps_abs + eps_rel * scale_p
            eps_d = eps_abs + eps_rel * scale_d
            if r_p <= eps_p and r_d <= eps_d:
                y_in = np.maximum(yu[: self.m_in], 0.0)
                y_eq = yu[self.m_in :]
                if self._kkt_ok(xu, y_in, y_eq, q, h, b):
                    obj = float(0.5 * xu @ (self.Q @ xu) + q @ xu)
                    return finish(
                        SolveStatus.OPTIMAL,
                        x_opt=xu,
                        objective=obj,
                        y_ineq=y_in,
                        y_eq=y_eq if self.m_eq else None,
                    )
                if not tightened:  # KKT check failed: push the loop further first
                    eps_abs = eps_rel = 1e-10
                    tightened = True
                    continue
                return finish(SolveStatus.NUMERICAL_FAILURE)
            # infeasibility detection (confirmed exactly before reporting)
            dxu = self.d * dx
            dyu = self.e * dy / self.c
            if self._primal_inf_signal(dyu, lo, up, eps_pinf):
                feas, cert = feasible_point(self.G, h, self.A_eq, b if self.m_eq else None)
                if feas is False and cert is not None:
                    return finish(SolveStatus.INFEASIBLE, farkas=cert)
                false_alarms += 1
                eps_pinf *= 1e-2
                if false_alarms > 2:
                    eps_pinf = 0.0  # stop checking; rely on convergence
            if self._dual_inf_signal(dxu, q, lo, up, eps_dinf):
                return finish(
                    SolveStatus.UNBOUNDED, diagnostics={"ray": dxu / max(np.max(np.abs(dxu)), 1e-30)}
                )
            if s.adaptive_rho and iters % (s.check_every * 8) == 0 and r_d > 0:
                ratio = (r_p / max(eps_p, 1e-30)) / (r_d / max(eps_d, 1e-30))
                new_scale = _quantize_rho(rho_scale * float(np.sqrt(ratio)))
                new_scale = min(max(new_scale, 1e-4), 1e4)
                if new_scale != rho_scale and (new_scale > 5 * rho_scale or new_scale < rho_scale / 5):
                    rho_scale = new_scale
                    L, rho, rho_inv = self._factor(rho_scale)
        # iteration cap: settle feasibility exactly, then give up honestly
        feas, cert = feasible_point(self.G, h, self.A_eq, b if self.m_eq else None)
        if feas is False and cert is not None:
            return finish(SolveStatus.INFEASIBLE, farkas=cert)
        return finish(SolveStatus.NUMERICAL_FAILURE)


def solve_qp(prog: QuadraticProgram, settings: ADMMSettings | None = None) -> SolveOutcome:
    """One-shot QP solve; see ParametricQP for the receding-horizon path."""
    pqp = ParametricQP(prog.Q, prog.G_ineq, prog.A_eq, settings)
    return pqp.solve(prog.q, prog.h_ineq, prog.b_eq)
