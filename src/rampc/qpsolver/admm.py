"""Operator-splitting QP solver with KKT-verified results.

Every QP the package poses has one form,

    min 1/2 x'Qx + q'x   s.t.   G x <= h,

and the solver follows the standard scaled ADMM scheme for it, with a slack
vector z clipped from above at h.  A ``ParametricQP`` is prepared once for
fixed (Q, G) and solved repeatedly for varying (q, h): the Ruiz
equilibration, the sparse (CSR) constraint matrices and the sparse factor of
the x-update matrix P + sigma*I + rho G'G are computed at preparation time
and reused, which is what makes receding-horizon use cheap.  The factor is a
SuperLU factorization in a fill-reducing symmetric order without pivoting,
which is exact for this symmetric positive definite matrix; one is kept per
step size the loop has visited.  Each ``solve`` is a pure function of its
arguments (iterates and step-size adaptation always restart from the same
state), so repeated solves are bitwise reproducible.  The ADMM constants are
fixed module constants; nothing about the iteration is configurable.

Stopping rule: the ADMM loop checks its iterate every ``_CHECK_EVERY``
iterations and, at every second check, adapts the step size from the ratio
of the primal to the dual residual (Boyd et al. 2011, sec. 3.4.1; Stellato
et al. 2020).  Every check verifies the unscaled iterate, duals clipped at
zero, against the KKT contract of ``_kkt_ok`` and returns it as OPTIMAL at
the first check that passes.  A check forms the CSR products G x and Q x
once; the contract, the ADMM residuals and the objective all reuse them.
The residuals only decide when to give up: an iterate whose residuals reach
1e-10 and that still fails the contract is NUMERICAL_FAILURE, never a
result that misses it.  An INFEASIBLE verdict is never emitted on ADMM
evidence alone: it is confirmed by an exact LP feasibility probe and
carries a verified Farkas certificate.  The probe runs at most once per
solve, on the first ADMM infeasibility signal or at the iteration cap; it
depends only on (G, h), so a second one could only repeat the first.
There is no unboundedness test: every QP the package poses has a PSD Q and
a q in its range, so it is bounded below.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .lp import feasible_point
from .types import SolveOutcome, SolveStatus

KERNEL = "sparse"

_SIGMA = 1e-6
_ALPHA = 1.6
_RHO = 0.1  # initial step size
# residual level (absolute and relative) at which an iterate that still
# fails the KKT contract is a numerical failure
_GIVE_UP = 1e-10
_EPS_INF = 1e-4  # threshold of the primal infeasibility signal
_MAX_ITER = 50_000
# iterations between checks of the iterate; at every second check (every
# 2 * _CHECK_EVERY iterations) the step size adapts to _RHO times a factor
# within [1e-4, 1e4], in half-decade steps and only when the new factor
# differs by more than 5x
_CHECK_EVERY = 25
_RUIZ_ITERS = 10
_KKT_TOL = 1e-8  # the contract every OPTIMAL result meets


def active_kernel():
    """Name of the ADMM iteration kernel (there is one: sparse factor and matvecs)."""
    return KERNEL


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
        col_p = np.abs(Pb).max(axis=0)
        col_a = np.abs(Ab).max(axis=0)
        dn = np.sqrt(np.maximum(np.maximum(col_p, col_a), 1e-12))
        row_a = np.abs(Ab).max(axis=1)
        en = np.sqrt(np.maximum(row_a, 1e-12))
        dd = 1.0 / dn
        ee = 1.0 / en
        Pb = Pb * dd[:, None] * dd[None, :]
        Ab = Ab * ee[:, None] * dd[None, :]
        d *= dd
        e *= ee
    col_p = np.abs(Pb).max(axis=0)
    mean_cost = float(col_p.mean())
    c = 1.0 / min(max(mean_cost, 1e-6), 1e6) if mean_cost > 0 else 1.0
    c = min(max(c, 1e-6), 1e6)
    return d, e, c


def _admm_batch(lu, A, At, q, up, rho, rho_inv, x, z, y, n_iter):
    """Run ``n_iter`` ADMM iterations on the scaled problem.

    Solves min 1/2 x'Px + q'x s.t. Ax <= up, given the factor ``lu`` of
    P + sigma*I + A' diag(rho) A and A, A' in CSR form.  Returns the new
    iterates and the last-iteration dual increment (x, z, y, dy); the
    caller uses the increment for infeasibility detection.
    """
    dy = np.zeros_like(y)
    for _ in range(n_iter):
        rhs = _SIGMA * x - q + At @ (rho * z - y)
        xt = lu.solve(rhs)
        zt = A @ xt
        x_new = _ALPHA * xt + (1.0 - _ALPHA) * x
        ztmp = _ALPHA * zt + (1.0 - _ALPHA) * z + rho_inv * y
        z_new = np.minimum(ztmp, up)
        y_new = rho * (ztmp - z_new)
        np.subtract(y_new, y, out=dy)
        x, z, y = x_new, z_new, y_new
    return x, z, y, dy


def _quantize_rho(rho):
    # snap to powers of 10^(1/2) so the factor cache gets hits
    return float(10.0 ** (np.round(np.log10(rho) * 2.0) / 2.0))


class ParametricQP:
    """Prepared solver for fixed (Q, G), G of at least one row, and varying (q, h).

    Q is taken as symmetric positive semidefinite without an eigenvalue
    check; only the shapes are validated.  A solve ends in one of three
    statuses: OPTIMAL at the 1e-8 KKT contract, INFEASIBLE with a
    HiGHS-verified Farkas certificate, or NUMERICAL_FAILURE.  A QP that is
    unbounded below, which the package never poses, runs to the iteration
    cap and ends NUMERICAL_FAILURE.
    """

    def __init__(self, Q, G_ineq):
        Q = np.ascontiguousarray(np.atleast_2d(np.asarray(Q, dtype=float)))
        G = np.ascontiguousarray(np.atleast_2d(np.asarray(G_ineq, dtype=float)))
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square, got shape %s" % (Q.shape,))
        if G.ndim != 2 or G.shape[1] != Q.shape[0]:
            raise ValueError(
                "G_ineq has %d columns, expected %d (the size of Q)" % (G.shape[-1], Q.shape[0])
            )
        if G.shape[0] == 0:
            raise ValueError("G_ineq has no rows: every QP has inequality constraints")
        self.n = Q.shape[0]
        self.m = G.shape[0]
        self.G = G  # dense, for the HiGHS feasibility probe only

        self.d, self.e, self.c = _ruiz_equilibrate(Q, G, _RUIZ_ITERS)
        # unscaled Q and G for the residuals, the KKT check and the objective;
        # the equilibrated A_s for the loop
        self.Q = sp.csr_matrix(Q)
        self.A = sp.csr_matrix(G)
        self.At = self.A.T.tocsr()
        self.A_s = sp.csr_matrix(G * self.e[:, None] * self.d[None, :])
        self.At_s = self.A_s.T.tocsr()
        self.P_s = sp.csc_matrix(self.c * (Q * self.d[:, None] * self.d[None, :]))
        self._P_sigma = self.P_s + _SIGMA * sp.identity(self.n, format="csc")

        self._base_rho = np.full(self.m, _RHO)
        self._factor_cache = {}
        self._factor(1.0)  # warm the cache at the base step size

    # -- factorization ----------------------------------------------------
    def _factor(self, rho_scale):
        key = float(rho_scale)
        hit = self._factor_cache.get(key)
        if hit is not None:
            return hit
        rho = self._base_rho * rho_scale
        M = (self._P_sigma + self.At_s @ sp.diags(rho) @ self.A_s).tocsc()
        lu = splu(
            M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        entry = (lu, rho, 1.0 / rho)
        self._factor_cache[key] = entry
        return entry

    @property
    def factor_nnz(self):
        """Nonzeros of the lower-triangular factor at the base step size."""
        return int(self._factor(1.0)[0].L.nnz)

    # -- residuals ---------------------------------------------------------
    def _unscale(self, x, z, y):
        xu = self.d * x
        zu = z / self.e
        yu = self.e * y / self.c
        return xu, zu, yu

    def _residuals(self, Ax, Qx, zu, yu, q):
        """ADMM residuals of the unscaled iterate, from its products Ax and Qx."""
        r_p = float(np.max(np.abs(Ax - zu)))
        Aty = self.At @ yu
        r_d = float(np.max(np.abs(Qx + q + Aty)))
        scale_p = max(
            float(np.max(np.abs(Ax), initial=0.0)), float(np.max(np.abs(zu), initial=0.0))
        )
        scale_d = max(
            float(np.max(np.abs(Qx), initial=0.0)),
            float(np.max(np.abs(Aty), initial=0.0)),
            float(np.max(np.abs(q), initial=0.0)),
        )
        return r_p, r_d, scale_p, scale_d

    # -- infeasibility signal ------------------------------------------------
    def _primal_inf_signal(self, dyu, up):
        nrm = float(np.max(np.abs(dyu), initial=0.0))
        if nrm <= 1e-14:
            return False
        if float(np.max(np.abs(self.At @ dyu))) > _EPS_INF * nrm:
            return False
        # every row is unbounded below, so a certificate direction is >= 0
        if np.any(dyu < -_EPS_INF * nrm):
            return False
        fin = np.isfinite(up)
        return float(up[fin] @ np.maximum(dyu, 0.0)[fin]) < -_EPS_INF * nrm

    def _kkt_ok(self, primal, y, stationarity, q):
        """The contract of every OPTIMAL result: G x - h <= 1e-8, y >= 0 and
        |Q x + q + G'y| <= 1e-8 * max(1, |q|), all in the max norm.

        It takes the residuals, not x: ``primal`` is G x - h and
        ``stationarity`` is Q x + q + G'y (entries left out are exactly
        zero).  The ADMM loop forms them from its CSR products; a
        controller's central candidate forms them from affine maps of the
        state (``AdaptiveController._central_verdict``).
        """
        # ndarray methods, not np.max: the wrappers nearly double the cost of
        # these small reductions, which run on every settled central step
        if float(primal.max()) > _KKT_TOL:
            return False
        if float(y.min(initial=0.0)) < 0.0:
            return False
        scale = max(1.0, float(abs(q).max(initial=0.0)))
        return float(abs(stationarity).max()) <= _KKT_TOL * scale

    # -- main solve -----------------------------------------------------------
    def solve(self, q, h_ineq) -> SolveOutcome:
        t0 = time.perf_counter()
        q = np.ascontiguousarray(np.asarray(q, dtype=float).reshape(-1))
        h = np.ascontiguousarray(np.asarray(h_ineq, dtype=float).reshape(-1))
        # scaled data
        q_s = self.c * self.d * q
        h_s = self.e * h

        rho_scale = 1.0
        n_factors = len(self._factor_cache)  # the cache only grows: misses = growth
        lu, rho, rho_inv = self._factor(rho_scale)
        x = np.zeros(self.n)
        z = np.zeros(self.m)
        y = np.zeros(self.m)
        iters = 0
        rho_updates = 0
        probed = False  # the probe depends only on (G, h), so one answers for the solve

        def finish(status, **kw):
            diag = {
                "factorizations": len(self._factor_cache) - n_factors,
                "rho_updates": rho_updates,
            }
            out = SolveOutcome(
                status=status, backend=KERNEL, iterations=iters, diagnostics=diag, **kw
            )
            out.solve_time = time.perf_counter() - t0
            return out

        while iters < _MAX_ITER:
            x, z, y, dy = _admm_batch(
                lu, self.A_s, self.At_s, q_s, h_s, rho, rho_inv, x, z, y, _CHECK_EVERY
            )
            iters += _CHECK_EVERY
            xu, zu, yu = self._unscale(x, z, y)
            y_ineq = np.maximum(yu, 0.0)
            Ax = self.A @ xu
            Qx = self.Q @ xu
            if self._kkt_ok(Ax - h, y_ineq, Qx + q + self.At @ y_ineq, q):
                obj = float(0.5 * xu @ Qx + q @ xu)
                return finish(SolveStatus.OPTIMAL, x_opt=xu, objective=obj, y_ineq=y_ineq)
            r_p, r_d, scale_p, scale_d = self._residuals(Ax, Qx, zu, yu, q)
            eps_p = _GIVE_UP + _GIVE_UP * scale_p
            eps_d = _GIVE_UP + _GIVE_UP * scale_d
            if r_p <= eps_p and r_d <= eps_d:
                return finish(SolveStatus.NUMERICAL_FAILURE)
            # infeasibility is settled exactly, by the HiGHS probe, when ADMM
            # signals it or at the iteration cap
            if not probed and (
                iters >= _MAX_ITER or self._primal_inf_signal(self.e * dy / self.c, h)
            ):
                probed = True
                feas, cert = feasible_point(self.G, h)
                if feas is False and cert is not None:
                    return finish(SolveStatus.INFEASIBLE, farkas=cert)
            if iters % (2 * _CHECK_EVERY) == 0 and r_p > 0 and r_d > 0:
                ratio = (r_p / eps_p) / (r_d / eps_d)
                new_scale = _quantize_rho(rho_scale * float(np.sqrt(ratio)))
                new_scale = min(max(new_scale, 1e-4), 1e4)
                if new_scale != rho_scale and (new_scale > 5 * rho_scale or new_scale < rho_scale / 5):
                    rho_scale = new_scale
                    rho_updates += 1
                    lu, rho, rho_inv = self._factor(rho_scale)
        return finish(SolveStatus.NUMERICAL_FAILURE)
