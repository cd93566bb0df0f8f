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


def _run_linprog(c, G, h, A_eq=None, b_eq=None):
    return linprog(
        c,
        A_ub=G if G is not None and len(G) else None,
        b_ub=h if G is not None and len(G) else None,
        A_eq=A_eq if A_eq is not None and len(A_eq) else None,
        b_eq=b_eq if A_eq is not None and len(A_eq) else None,
        bounds=(None, None),
        method="highs",
        options=_HIGHS_OPTIONS,
    )


def solve_lp(c, G_ineq, h_ineq, A_eq=None, b_eq=None) -> SolveOutcome:
    """Minimize c'x subject to G_ineq x <= h_ineq (and optional equalities).

    Distinguishes INFEASIBLE from UNBOUNDED; an INFEASIBLE verdict always
    carries a verified Farkas certificate.
    """
    t0 = time.perf_counter()
    c = np.asarray(c, dtype=float).reshape(-1)
    G = np.atleast_2d(np.asarray(G_ineq, dtype=float)) if G_ineq is not None else None
    h = np.asarray(h_ineq, dtype=float).reshape(-1) if h_ineq is not None else None
    res = _run_linprog(c, G, h, A_eq, b_eq)
    status = _STATUS_MAP.get(res.status, SolveStatus.NUMERICAL_FAILURE)
    out = SolveOutcome(status=status, backend="highs")
    if status is SolveStatus.OPTIMAL:
        out.x_opt = np.asarray(res.x, dtype=float)
        out.objective = float(c @ out.x_opt)
        if G is not None and res.ineqlin is not None:
            out.y_ineq = -np.asarray(res.ineqlin.marginals, dtype=float)
        if A_eq is not None and res.eqlin is not None:
            out.y_eq = -np.asarray(res.eqlin.marginals, dtype=float)
    elif status is SolveStatus.INFEASIBLE:
        cert = farkas_certificate(G, h, A_eq, b_eq)
        if cert is None:
            out.status = SolveStatus.NUMERICAL_FAILURE
        else:
            out.farkas = cert
    out.solve_time = time.perf_counter() - t0
    return out


def feasible_point(G, h, A_eq=None, b_eq=None):
    """Probe feasibility of {x : Gx <= h, A_eq x = b_eq}.

    Returns one of:
      (True, x)      the set is nonempty and x is a point in it;
      (False, cert)  HiGHS reports the set empty; cert is a verified Farkas
                     certificate, or None if none could be verified;
      (None, None)   HiGHS reached no verdict.
    Never raises on a failed LP: callers treat anything but (False, cert)
    with a certificate as no proof of infeasibility.
    """
    n = G.shape[1] if G is not None and len(G) else A_eq.shape[1]
    res = _run_linprog(np.zeros(n), G, h, A_eq, b_eq)
    if res.status == 0:
        return True, np.asarray(res.x, dtype=float)
    if res.status == 2:
        return False, farkas_certificate(G, h, A_eq, b_eq)
    return None, None


def farkas_certificate(G, h, A_eq=None, b_eq=None, tol=1e-9):
    """Produce a Farkas infeasibility certificate for {Gx<=h, A_eq x=b_eq}.

    Solves the alternative LP
        min  h'y + b'nu
        s.t. G'y + A'nu = 0,  sum(y) + sum(|nu|) = 1,  y >= 0,
    whose optimum is < 0 iff the original system is infeasible.  Returns
    {"y": y, "nu": nu, "gap": h'y + b'nu} or None when no certificate could
    be produced and verified.
    """
    m_in = G.shape[0] if G is not None and len(G) else 0
    m_eq = A_eq.shape[0] if A_eq is not None and len(A_eq) else 0
    n = G.shape[1] if m_in else A_eq.shape[1]
    # variables: [y (m_in), nu_plus (m_eq), nu_minus (m_eq)]
    blocks = []
    cost = []
    if m_in:
        blocks.append(np.asarray(G, dtype=float).T)
        cost.append(np.asarray(h, dtype=float))
    if m_eq:
        At = np.asarray(A_eq, dtype=float).T
        blocks.extend([At, -At])
        b = np.asarray(b_eq, dtype=float)
        cost.extend([b, -b])
    A_alt = np.hstack(blocks)
    c_alt = np.concatenate(cost)
    n_vars = A_alt.shape[1]
    A_aeq = np.vstack([A_alt, np.ones((1, n_vars))])
    b_aeq = np.concatenate([np.zeros(n), [1.0]])
    res = linprog(
        c_alt,
        A_eq=A_aeq,
        b_eq=b_aeq,
        bounds=(0.0, None),
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if res.status != 0 or res.fun > -tol:
        return None
    sol = np.asarray(res.x, dtype=float)
    y = sol[:m_in] if m_in else np.zeros(0)
    nu = sol[m_in : m_in + m_eq] - sol[m_in + m_eq :] if m_eq else np.zeros(0)
    cert = {"y": y, "nu": nu, "gap": float(res.fun)}
    if verify_farkas(G, h, A_eq, b_eq, cert):
        return cert
    return None


def verify_farkas(G, h, A_eq, b_eq, cert, tol=1e-8):
    """Check a Farkas certificate: y >= 0, G'y + A'nu = 0, h'y + b'nu < 0."""
    y = np.asarray(cert["y"], dtype=float)
    nu = np.asarray(cert.get("nu", np.zeros(0)), dtype=float)
    resid = 0.0
    gap = 0.0
    if y.size:
        if y.min(initial=0.0) < -tol:
            return False
        resid = G.T @ y
        gap += float(h @ y)
    if nu.size:
        resid = resid + A_eq.T @ nu
        gap += float(b_eq @ nu)
    if np.max(np.abs(resid)) > tol:
        return False
    return gap < -tol * 0.01
