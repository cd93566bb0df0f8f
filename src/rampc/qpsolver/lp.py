"""Linear programming backend (HiGHS via scipy) with Farkas certificates.

All geometry support/containment/redundancy LPs route through here, as do
the feasibility probes and infeasibility certificates used by the QP path.
Convention: ``solve_lp`` MINIMIZES c'x; callers wanting a maximum negate.
"""
from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

from .types import SolveOutcome, SolveStatus

# HiGHS tolerances one order below the 1e-8 contract of this layer.
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}

# status codes returned by scipy.optimize.linprog
_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}

# a certificate needs a gap below -_FARKAS_GAP_TOL from the LP, and passes
# verification with residuals within _VERIFY_TOL, the 1e-8 contract
_FARKAS_GAP_TOL = 1e-9
_VERIFY_TOL = 1e-8


def _run_linprog(c, G, h):
    return linprog(
        c,
        A_ub=G,
        b_ub=h,
        bounds=(None, None),
        method="highs",
        options=_HIGHS_OPTIONS,
    )


def solve_lp(c, G_ineq, h_ineq) -> SolveOutcome:
    """Minimize c'x subject to G_ineq x <= h_ineq.

    Distinguishes INFEASIBLE from UNBOUNDED; an INFEASIBLE verdict always
    carries a verified Farkas certificate.
    """
    t0 = time.perf_counter()
    c = np.asarray(c, dtype=float).reshape(-1)
    G = np.atleast_2d(np.asarray(G_ineq, dtype=float))
    h = np.asarray(h_ineq, dtype=float).reshape(-1)
    res = _run_linprog(c, G, h)
    status = _STATUS_MAP.get(res.status, SolveStatus.NUMERICAL_FAILURE)
    out = SolveOutcome(status=status, backend="highs")
    if status is SolveStatus.OPTIMAL:
        out.x_opt = np.asarray(res.x, dtype=float)
        out.objective = float(c @ out.x_opt)
        out.y_ineq = -np.asarray(res.ineqlin.marginals, dtype=float)
    elif status is SolveStatus.INFEASIBLE:
        cert = farkas_certificate(G, h)
        if cert is None:
            out.status = SolveStatus.NUMERICAL_FAILURE
        else:
            out.farkas = cert
    out.solve_time = time.perf_counter() - t0
    return out


def feasible_point(G, h):
    """Probe feasibility of {x : Gx <= h}.

    Returns one of:
      (True, x)      the set is nonempty and x is a point in it;
      (False, cert)  HiGHS reports the set empty; cert is a verified Farkas
                     certificate, or None if none could be verified;
      (None, None)   HiGHS reached no verdict.
    Never raises on a failed LP: callers treat anything but (False, cert)
    with a certificate as no proof of infeasibility.
    """
    res = _run_linprog(np.zeros(G.shape[1]), G, h)
    if res.status == 0:
        return True, np.asarray(res.x, dtype=float)
    if res.status == 2:
        return False, farkas_certificate(G, h)
    return None, None


def farkas_certificate(G, h):
    """Produce a Farkas infeasibility certificate for {x : Gx <= h}.

    Solves the alternative LP
        min  h'y   s.t.  G'y = 0,  sum(y) = 1,  y >= 0,
    whose optimum is < 0 iff the original system is infeasible.  Returns
    {"y": y, "nu": empty, "gap": h'y} or None when no certificate could be
    produced and verified.
    """
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    m, n = G.shape
    res = linprog(
        h,
        A_eq=np.vstack([G.T, np.ones((1, m))]),
        b_eq=np.concatenate([np.zeros(n), [1.0]]),
        bounds=(0.0, None),
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if res.status != 0 or res.fun > -_FARKAS_GAP_TOL:
        return None
    cert = {"y": np.asarray(res.x, dtype=float), "nu": np.zeros(0), "gap": float(res.fun)}
    if verify_farkas(G, h, None, None, cert):
        return cert
    return None


def verify_farkas(G, h, A_eq, b_eq, cert):
    """Check a Farkas certificate: y >= 0, G'y + A'nu = 0, h'y + b'nu < 0."""
    y = np.asarray(cert["y"], dtype=float)
    nu = np.asarray(cert.get("nu", np.zeros(0)), dtype=float)
    resid = 0.0
    gap = 0.0
    if y.size:
        if y.min(initial=0.0) < -_VERIFY_TOL:
            return False
        resid = G.T @ y
        gap += float(h @ y)
    if nu.size:
        resid = resid + A_eq.T @ nu
        gap += float(b_eq @ nu)
    if np.max(np.abs(resid)) > _VERIFY_TOL:
        return False
    return gap < -_VERIFY_TOL * 0.01
