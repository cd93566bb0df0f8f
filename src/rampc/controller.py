"""Adaptive-horizon robust MPC controller.

Constraint robustification is split by horizon length:

* horizon 1 solves the robust problem exactly, enumerating the vertex pairs
  of the two model-error hulls (the worst case of an affine expression over
  a product of hulls sits at a vertex pair) and tightening by the exact
  disturbance support;
* horizons >= 2 lump the model error into the net-additive ball
  ||w||_inf <= wtilde_max and tighten every stacked state/input row by the
  dual-norm term  wtilde_max * ||(C M + G)' f||_1, encoded exactly through
  per-entry absolute-value variables.

Only the constraint rows differ: both cases share the nominal cost and the
layout of the decision vector (``HorizonTemplate``).

At every step the cheapest feasible horizon wins (ties go to the shortest
horizon).  The horizons are tried longest first, and a horizon is solved
only if its exact lower bound x' S_n x -- the unconstrained minimum of its
cost over the nominal inputs, with S_n prepared once per horizon -- does not
exceed the best cost so far; a skipped horizon could not have won, so the
selection is the same as solving every horizon.  Each horizon's feasible set
F_n = {x : exists z, G z <= h_base - R x} does not depend on x; on the
horizon's first INFEASIBLE verdict its facets are computed once by support
LPs (``geometry.projection_cuts``, exact in every dimension, up to its LP
cap) and stored with their LP multipliers, and from then on a state
outside a stored facet by more than a 1e-7 margin is settled INFEASIBLE in
microseconds, with that facet's multiplier as its Farkas certificate.  A
horizon that is neither pruned nor settled by a facet tries its affine
laws (``_LawTable``): the optimiser is piecewise affine in x, and each law
is one piece, a point z(x) and multipliers y(x) affine in x whose KKT
residuals are affine in x as well.
Law 0 is the central law, the unconstrained minimiser u = K_n x in the
nominal inputs (K_n comes from the same linear solve as S_n) with a fixed,
x-independent tail of feedback gains and absolute-value variables taken
once from a QP solve at the origin, and y = 0; in closed loop most horizons
are unconstrained at their optimum, so most steps are settled by it.  Each
OPTIMAL ADMM result adds the law of its active set, anchored at the ADMM
point.  The first law whose residuals meet the solver's own 1e-8 KKT
contract at x is the horizon's OPTIMAL result (``backend="law"``, no ADMM
iteration), and only a horizon that no law settles runs ADMM.
Terminal ingredients: a robust
positive invariant terminal set computed with the exact vertex uncertainty
(and rechecked by LP), and a terminal cost from the closed-loop Lyapunov
series, which makes the descent inequality hold with equality globally.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllHorizonsInfeasibleError,
    ConvergenceError,
    DimensionMismatchError,
    EmptyTerminalSetError,
    HistoryLengthMismatchError,
    LyapunovDivergenceError,
    VertexUnstableError,
)
from .geometry import FACET_TOL, Polytope, max_robust_invariant, projection_cuts, support, support_lp_many
from .prediction import FeedbackGainStack, build_stacked, policy_input
from .qpsolver import ParametricQP, SolveOutcome, SolveStatus
from .qpsolver.admm import _KKT_TOL
from .system import NetAdditiveBound, UncertainSystem, net_additive_bound

_EQ19_TOL = 1e-8
# a stored facet settles a state only when it is violated by more than
# _FACET_MARGIN * (1 + |offset|); nearer states take the QP path
_FACET_MARGIN = 1e-7
# a row of an ADMM result is active when its slack is at most
# _ACTIVE_SLACK * (1 + |h_i|); its law keeps the active rows tight
_ACTIVE_SLACK = 1e-7
# a horizon stores at most this many active-set laws; above it, ADMM
# results are returned without a law
_MAX_LAWS = 256
# the terminal-cost series stops once a doubling adds less than this share
_LYAPUNOV_TOL = 1e-14
_LYAPUNOV_MAX_DOUBLINGS = 200


# ---------------------------------------------------------------------------
# terminal components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TerminalComponents:
    K: np.ndarray
    X_N: Polytope
    P_N: np.ndarray
    vertex_spectral_radii: tuple = ()
    hull_screen_max_radius: float = float("nan")
    hull_screen_samples: int = 0
    # max eigenvalue of -P_N + S + A_cl' P_N A_cl, checked against _EQ19_TOL
    descent_residual: float = float("nan")


def spectral_radius(A):
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def lyapunov_series(A_cl, S):
    """Sum_{k>=0} (A')^k S A^k by doubling; solves P = S + A'PA."""
    P = S.copy()
    Ak = A_cl.copy()
    norm0 = max(float(np.abs(S).max()), 1e-30)
    for _ in range(_LYAPUNOV_MAX_DOUBLINGS):
        term = Ak.T @ P @ Ak
        incr = float(np.abs(term).max())
        P = P + term
        Ak = Ak @ Ak
        if not np.isfinite(incr) or incr > 1e12 * norm0:
            raise LyapunovDivergenceError("terminal-cost series diverged")
        if incr <= _LYAPUNOV_TOL * float(np.abs(P).max()):
            return 0.5 * (P + P.T)
    raise LyapunovDivergenceError("terminal-cost series did not converge")


def synthesize_terminal(sys: UncertainSystem, K, P, R, *, hull_samples=1000) -> TerminalComponents:
    """Stability screens, maximal robust invariant terminal set, terminal cost.

    The vertex screen is exact; hull-interior stability is only sampled
    (certifying it needs machinery that is out of scope here), so failures
    of either screen raise loudly.  The hull screen draws ``hull_samples``
    closed loops at once (``_sampled_hull_radii``), raises with the radius of
    the first one in draw order at or above 1, and otherwise records the
    largest radius (0 when nothing is drawn).  The set's invariance is then
    rechecked by support LPs (one block per facet and vertex closed loop,
    solved as one LP), not from the vertex cache that synthesis used, so the
    terminal set carries an LP certificate.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    P = np.atleast_2d(np.asarray(P, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    cl = sys.vertex_closed_loops(K)
    radii = []
    for idx, A in enumerate(cl):
        j, k = divmod(idx, sys.n_b)
        rho = spectral_radius(A)
        radii.append(rho)
        if rho >= 1.0 - 1e-9:
            raise VertexUnstableError(
                "closed loop unstable at vertex pair (dA[%d], dB[%d]): "
                "spectral radius %.6f" % (j, k, rho),
                vertex_pair=(j, k),
            )
    hull_radii = _sampled_hull_radii(sys, K, hull_samples)
    unstable = np.flatnonzero(hull_radii >= 1.0)
    if unstable.size:
        raise VertexUnstableError(
            "closed loop unstable at a sampled hull point (spectral radius %.6f); "
            "vertex stability does not certify the hull" % float(hull_radii[unstable[0]])
        )
    constraint = Polytope(
        np.vstack([sys.X.H, sys.U.H @ K]), np.concatenate([sys.X.h, sys.U.h])
    )
    X_N = max_robust_invariant(constraint, cl, sys.W)
    if X_N.is_empty():
        raise EmptyTerminalSetError(
            "maximal robust invariant set inside the constraints is empty"
        )
    A_cl = sys.A_bar + sys.B_bar @ K
    S = P + K.T @ R @ K
    P_N = lyapunov_series(A_cl, S)
    resid = float(np.linalg.eigvalsh(-P_N + S + A_cl.T @ P_N @ A_cl).max())
    if resid > _EQ19_TOL:
        raise LyapunovDivergenceError(
            "terminal-cost descent residual %.2e exceeds %.0e" % (resid, _EQ19_TOL)
        )
    _recheck_invariance(X_N, cl, sys.W)
    return TerminalComponents(
        K=K,
        X_N=X_N,
        P_N=P_N,
        vertex_spectral_radii=tuple(radii),
        hull_screen_max_radius=float(hull_radii.max(initial=0.0)),
        hull_screen_samples=hull_samples,
        descent_residual=resid,
    )


def _sampled_hull_radii(sys, K, samples):
    """Spectral radii of ``samples`` closed loops drawn uniformly from the
    uncertainty hulls, in draw order.

    Sample i weights the A vertices, then the B vertices, by Dirichlet(1, ...,
    1) draws from ``default_rng(0)``.  Such a draw is a block of unit
    exponentials times the reciprocal of its sequential sum, so one
    (samples, n_a + n_b) draw of exponentials reproduces a loop of
    ``rng.dirichlet`` calls bitwise.  The weighted vertex sums run in vertex
    order, and the radii come from one stacked ``eigvals``.
    """
    if samples <= 0:
        return np.zeros(0)
    E = np.random.default_rng(0).standard_exponential((samples, sys.n_a + sys.n_b))
    blocks = ((E[:, : sys.n_a], sys.deltaA_vertices), (E[:, sys.n_a :], sys.deltaB_vertices))
    deltas = []
    for block, vertices in blocks:
        total = 0.0
        for col in block.T:
            total = total + col
        weights = block * (1.0 / total)[:, None]
        delta = 0.0
        for w, V in zip(weights.T, vertices):
            delta = delta + w[:, None, None] * V
        deltas.append(delta)
    dA, dB = deltas
    return np.abs(np.linalg.eigvals((sys.A_bar + dA) + (sys.B_bar + dB) @ K)).max(axis=1)


def _recheck_invariance(X_N, cl_vertices, W):
    """LP certificate that X_N is robustly invariant, independent of its vertex cache.

    One block-diagonal LP gives the support of X_N along A'H_i for every
    vertex closed loop A and facet i.
    """
    directions = np.vstack([X_N.H @ A for A in cl_vertices])
    w_sup = np.array([support(W, row) for row in X_N.H])
    worst = support_lp_many(X_N, directions) + np.tile(w_sup, len(cl_vertices))
    offsets = np.tile(X_N.h, len(cl_vertices))
    if np.any(worst > offsets + FACET_TOL):
        raise ConvergenceError(
            "terminal set fails its invariance recheck (violation %.2e)"
            % float(np.max(worst - offsets))
        )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MPCConfig:
    P: np.ndarray
    R: np.ndarray
    N: int
    terminal: TerminalComponents
    bound: NetAdditiveBound

    def __post_init__(self):
        for name in ("P", "R"):
            M = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if np.linalg.eigvalsh(0.5 * (M + M.T)).min() <= 0:
                raise ValueError("%s must be positive definite" % name)
            object.__setattr__(self, name, M)
        if self.N < 1:
            raise ValueError("N must be >= 1")


def config_from_problem(prob, *, hull_samples=1000) -> MPCConfig:
    terminal = synthesize_terminal(prob.system, prob.K, prob.P, prob.R, hull_samples=hull_samples)
    return MPCConfig(
        P=prob.P,
        R=prob.R,
        N=prob.N,
        terminal=terminal,
        bound=net_additive_bound(prob.system),
    )


# ---------------------------------------------------------------------------
# QP templates
# ---------------------------------------------------------------------------


class HorizonTemplate:
    """One horizon's QP, min 1/2 z'Qz + q(x)'z + constant(x) s.t. G z <= h_base - rhs_map x.

    Both cases share the cost and the layout of z, and differ only in the
    rows that a subclass hands to ``_pose``.  z = (n_u = m N nominal
    inputs, n_m causal feedback-gain entries, the rows' own variables).  Only
    the nominal inputs carry cost: Q is ``Q_uu`` padded with zeros to the
    n_vars columns of G, and q(x) = [q_map x; 0].
    """

    def __init__(self, sys, horizon):
        d, m, N = sys.d, sys.m, horizon
        self._sd = build_stacked(sys.A_bar, sys.B_bar, N)
        self.horizon = N
        self.d, self.m = d, m
        self.n_u = m * N
        # the strictly lower gain blocks (k, l < k), row-major, m x d entries each
        blocks = [(k, l) for k in range(1, N) for l in range(k)]
        self.n_m = len(blocks) * m * d
        # flat positions in the (m N) x (d N) gain matrix of z[n_u : n_u + n_m]
        i, j = np.divmod(np.arange(m * d), d)
        self._m_flat = np.array(
            [(k * m + i) * (d * N) + l * d + j for k, l in blocks], dtype=np.intp
        ).reshape(-1)

    def _pose(self, G, h_base, rhs_map, P, R, P_N):
        """Pose the QP: the rows G z <= h_base - rhs_map x and the cost over G's columns."""
        self.G, self.h_base, self.rhs_map = G, h_base, rhs_map
        self.n_vars = G.shape[1]
        d, N, sd = self.d, self.horizon, self._sd
        P_bar = np.zeros((d * N, d * N))
        for k in range(1, N):
            P_bar[(k - 1) * d : k * d, (k - 1) * d : k * d] = P
        P_bar[(N - 1) * d :, (N - 1) * d :] = P_N
        R_bar = np.kron(np.eye(N), R)
        Qu = 2.0 * (sd.C.T @ P_bar @ sd.C + R_bar)
        self.Q = np.zeros((self.n_vars, self.n_vars))
        self.Q[: self.n_u, : self.n_u] = Qu
        self.Q_uu = self.Q[: self.n_u, : self.n_u]  # the nominal-input block, a view
        self.q_map = 2.0 * sd.C.T @ P_bar @ sd.A_stack
        self.const_map = P + sd.A_stack.T @ P_bar @ sd.A_stack

    def q(self, x):
        """The QP's linear cost q(x), nonzero in the nominal inputs only."""
        q = np.zeros(self.n_vars)
        q[: self.n_u] = self.q_map @ x
        return q

    def parts(self, x):
        """(q(x), h(x)) of the QP at x."""
        return self.q(x), self.h_base - self.rhs_map @ x

    def constant(self, x):
        return float(x @ self.const_map @ x)

    def extract(self, z, gains=None):
        """(u, gains) of z; ``gains``, when given, stands in for z's own."""
        u = z[: self.n_u].reshape(self.horizon, self.m)
        if gains is not None:
            return u, gains
        M = np.zeros((self.m * self.horizon, self.d * self.horizon))
        np.put(M, self._m_flat, z[self.n_u : self.n_u + self.n_m])  # causal slots only
        return u, FeedbackGainStack(self.horizon, self.d, self.m, M, check=False)


class Case1Template(HorizonTemplate):
    """Exact robust one-step problem: vertex-pair enumeration + W support."""

    def __init__(self, sys: UncertainSystem, terminal: TerminalComponents, P, R):
        super().__init__(sys, 1)
        H_N, h_N = terminal.X_N.H, terminal.X_N.h
        w_sup = np.array([support(sys.W, row) for row in H_N])
        g_blocks = []
        rhs_maps = []
        h_base = []
        for dA in sys.deltaA_vertices:
            for dB in sys.deltaB_vertices:
                g_blocks.append(H_N @ (sys.B_bar + dB))
                rhs_maps.append(H_N @ (sys.A_bar + dA))
                h_base.append(h_N - w_sup)
        self._pose(
            np.vstack(g_blocks + [sys.U.H]),
            np.concatenate(h_base + [sys.U.h]),
            np.vstack(rhs_maps + [np.zeros((sys.U.n_rows, sys.d))]),
            P, R, terminal.P_N,
        )

    parts = HorizonTemplate.parts  # own ``__dict__`` entry: tracers tell the cases apart


class CaseNTemplate(HorizonTemplate):
    """Dual-norm tightened problem over a stacked horizon.

    z's row variables are one absolute-value variable per potentially
    nonzero entry of (CM+G)'f per tightened row.  Valid for horizon >= 1;
    with horizon 1 there are no M blocks and the construction degenerates
    to the fully lumped one-step problem (used by the conservative
    baseline).
    """

    def __init__(self, sys, terminal_H, terminal_h, P, R, P_N, w_tilde_max, horizon):
        super().__init__(sys, horizon)
        d, m, N, sd = sys.d, sys.m, horizon, self._sd
        self.w_tilde_max = float(w_tilde_max)

        # gather tightened rows: phi (input coeffs), g (constant part of
        # (CM+G)'f), the aux support size, the base offset and the x_t map
        tight = []
        Hx, hx = sys.X.H, sys.X.h
        for k in range(1, N + 1):
            Hmat, hvec = (Hx, hx) if k < N else (terminal_H, terminal_h)
            Cblk = sd.C[(k - 1) * d : k * d]
            Gblk = sd.G[(k - 1) * d : k * d]
            Ablk = sd.A_stack[(k - 1) * d : k * d]
            for i in range(Hmat.shape[0]):
                phi = Hmat[i] @ Cblk
                g = Hmat[i] @ Gblk
                tight.append(
                    dict(phi=phi, g=g, supp=k * d, h0=hvec[i], rhs_map=Hmat[i] @ Ablk)
                )
        Hu, hu = sys.U.H, sys.U.h
        for k in range(N):
            for i in range(Hu.shape[0]):
                phi = np.zeros(m * N)
                phi[k * m : (k + 1) * m] = Hu[i]
                g = np.zeros(d * N)
                tight.append(
                    dict(phi=phi, g=g, supp=k * d, h0=hu[i], rhs_map=np.zeros(d))
                )

        n_aux = sum(row["supp"] for row in tight)
        n_vars = self.n_u + self.n_m + n_aux
        n_main = len(tight)
        n_rows = n_main + 2 * n_aux
        G = np.zeros((n_rows, n_vars))
        h_base = np.zeros(n_rows)
        rhs_map = np.zeros((n_rows, d))
        aux_base = self.n_u + self.n_m
        r = 0
        for row in tight:
            phi, g, supp = row["phi"], row["g"], row["supp"]
            # main row: phi'u + w_tilde_max * sum(a) <= h0 - rhs_map @ x
            G[r, : self.n_u] = phi
            G[r, aux_base : aux_base + supp] = self.w_tilde_max
            h_base[r] = row["h0"]
            rhs_map[r] = row["rhs_map"]
            r += 1
            # abs rows: +-(M'phi + g)_t - a_t <= -+ g_t
            for t in range(supp):
                l, j = divmod(t, d)
                a_col = aux_base + t
                rp, rm = r, r + 1
                for k in range(l + 1, N):
                    mi = self.n_u + (k * (k - 1) // 2 + l) * m * d  # block (k, l)
                    for i2 in range(m):
                        coeff = phi[k * m + i2]
                        if coeff != 0.0:
                            col = mi + i2 * d + j
                            G[rp, col] = coeff
                            G[rm, col] = -coeff
                G[rp, a_col] = -1.0
                G[rm, a_col] = -1.0
                h_base[rp] = -g[t]
                h_base[rm] = g[t]
                r += 2
            aux_base += supp
        assert r == n_rows and aux_base == n_vars
        self.n_main = n_main
        self._tight = tight
        self._pose(G, h_base, rhs_map, P, R, P_N)

    parts = HorizonTemplate.parts  # own ``__dict__`` entry: tracers tell the cases apart

    def central_offset(self, z):
        """[0; M; a] with z's feedback gains M and every absolute-value
        variable at its tight value |M'phi + g|, the larger of its two rows."""
        lo, hi = self.n_u, self.n_u + self.n_m
        off = np.zeros(self.n_vars)
        off[lo:hi] = z[lo:hi]
        _, M = self.extract(z)
        off[hi:] = np.concatenate(
            [np.abs(M.M.T @ row["phi"] + row["g"])[: row["supp"]] for row in self._tight]
        )
        return off


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


def min_slack(H, h, v):
    """Smallest slack of v in the rows H v <= h (negative when one is violated)."""
    return float((h - H @ v).min())


@dataclass
class HorizonResult:
    """Outcome of one horizon.  A pruned horizon was never solved: its lower
    bound exceeded the best cost found, so ``status``, ``cost`` and
    ``backend`` are None.  ``bound`` comes from one stacked product of all
    S_n and can differ from x'S_n x in its last bit (``AdaptiveController.solve``).
    ``backend`` names what settled a solved horizon: "law", "facets", or
    the ADMM solver's "sparse"."""

    N_t: int
    status: SolveStatus | None
    cost: float | None
    solve_time: float
    farkas: dict | None = None
    pruned: bool = False
    bound: float | None = None
    backend: str | None = None


@dataclass
class MPCSolution:
    status: SolveStatus
    N_star: int | None
    u_bar_star: np.ndarray | None
    M_star: FeedbackGainStack | None
    J_star: float | None
    per_horizon: list = field(default_factory=list)
    x_t: np.ndarray | None = None
    x_bar_next: np.ndarray | None = None  # nominal successor under the plan
    sys: UncertainSystem | None = field(default=None, repr=False)  # for the margins

    @property
    def is_feasible(self):
        return self.status is SolveStatus.OPTIMAL

    @property
    def applied_input(self):
        return None if self.u_bar_star is None else self.u_bar_star[0]

    @property
    def margin_x(self):
        """Min slack of x_t in the state constraints (nan when infeasible)."""
        if self.u_bar_star is None:
            return float("nan")
        return min_slack(self.sys.X.H, self.sys.X.h, self.x_t)

    @property
    def margin_u(self):
        """Min slack of the applied input (nan when infeasible)."""
        if self.u_bar_star is None:
            return float("nan")
        return min_slack(self.sys.U.H, self.sys.U.h, self.applied_input)

    def report(self, tag="proposed"):
        return {
            "controller": tag,
            "status": str(self.status),
            "chosen_horizon": self.N_star,
            "optimal_cost": self.J_star,
            "applied_input": None
            if self.u_bar_star is None
            else self.applied_input.tolist(),
            "constraint_margins": {"state": self.margin_x, "input": self.margin_u},
            "per_horizon": [
                {
                    "N_t": r.N_t,
                    "status": "pruned" if r.pruned else str(r.status),
                    "cost": r.cost,
                    "bound": r.bound,
                    "solve_time": r.solve_time,
                }
                for r in self.per_horizon
            ],
        }


def _bound_map(tpl):
    """(S, K): x'Sx = min over z of the template's cost at x, constraints
    dropped, and u = K x the nominal inputs that attain it.

    The cost is 1/2 z'Qz + q(x)'z + constant(x), where only the nominal
    inputs (the leading block of z, with Hessian block ``Q_uu``) carry cost;
    minimizing over them gives K = -Q_uu^-1 q_map and
    S = const_map - 1/2 q_map' Q_uu^-1 q_map, from one linear solve.  S
    lower-bounds the objective at *any* z, feasible or not.
    """
    Y = np.linalg.solve(tpl.Q_uu, tpl.q_map)
    S = tpl.const_map - 0.5 * tpl.q_map.T @ Y
    return 0.5 * (S + S.T), -Y


class _LawTable:
    """The affine laws of one horizon, with their KKT residuals stacked.

    Law k is z(x) = z_k + Z (x - x_k) on the columns ``cols`` and
    y(x) = y_k + Y (x - x_k) on the rows ``active``, zero elsewhere.  Law 0
    is the central law (``add_central``): anchored at the origin,
    z(x) = z0 + [K; 0] x with K the unconstrained gain of ``_bound_map``,
    no active rows and y = 0.  z0 = [0; M0; a0] takes the feedback gains M0
    of one QP solve at the origin and sets each absolute-value variable
    tightly (``CaseNTemplate.central_offset``); a horizon without such
    variables needs no origin solve, and one whose origin solve is not
    OPTIMAL has no central law.  Every other law comes from an OPTIMAL ADMM
    result (z_k, y_k) at x_k (``add``): with A the rows active there (slack
    <= _ACTIVE_SLACK (1 + |h_i|)), [Q G_A'; G_A 0][Z; Y] = [-q_map; -R_A]
    is solved by minimum norm on the columns that Q or G_A touch (every
    other column of the system is zero, and minimum norm gives its variable
    0, so the restriction is exact).  At x_k it returns (z_k, y_k) bit for
    bit.

    A law's residuals G z(x) - h(x), y(x) and Q z(x) + q(x) + G'y(x) are
    affine in x - x_k, with those at x_k (for an ADMM law, the ADMM check's
    own) as offsets.  Of the entries with slope exactly zero only the one
    that could decide the contract is kept (``_kept``): the largest primal
    row and the largest stationarity row in magnitude (constant multipliers
    are >= 0).  Each law's entries are stacked together, its multipliers
    negated and its stationarity entries twice, with signs + and -, so the
    contract reads "every entry is at most its limit": 1e-8 for primal rows,
    0 for multipliers, 1e-8 max(1, |q|) for stationarity.  The screen
    evaluates each entry as offset + sum_j slope_j (x_j - x_k,j) and passes
    a law when every entry is at most its limit, so a NaN fails it; on
    finite residuals that is the verdict of ``ParametricQP._kkt_ok``.  Law 0
    is stacked alone (``_head``, the others in ``_rest``), so a state it
    settles reads its entries only.
    """

    def __init__(self, tpl, solver, K):
        self.tpl = tpl
        self.solver = solver
        self._K = K
        self.central = None  # whether law 0 is the central law, once add_central has run
        self.gains0 = None  # the central law's FeedbackGainStack, which x does not move
        self._laws = []  # (x_k, z_k, cols, Z, y_k, active, Y)
        self._entries = []  # per law: kept (offsets, slopes) of the three residuals
        self._head = self._rest = None  # _stack of law 0 and of the others

    def __len__(self):
        return len(self._laws)

    def add_central(self):
        """Store law 0, the central law, unless the origin solve it needs
        is not OPTIMAL; runs once, on the horizon's first QP-path visit."""
        tpl, solver, K = self.tpl, self.solver, self._K
        n_u, d = K.shape
        x, z = np.zeros(d), np.zeros(tpl.n_vars)
        q, h = tpl.parts(x)
        if tpl.n_vars > n_u:
            out = solver.solve(q, h)
            if not out.is_optimal:
                self.central = False
                return
            z = tpl.central_offset(out.x_opt)
        self.central = True
        self.gains0 = tpl.extract(z)[1]
        y, cols, active, Y = np.zeros(solver.m), slice(0, n_u), np.zeros(0, dtype=np.intp), np.zeros((0, d))
        primal = solver.A @ z - h
        stationarity = solver.Q @ z + q + solver.At @ y
        self._append((x, z, cols, K, y, active, Y), self._kept(primal, y, stationarity, cols, K, active, Y))

    def add(self, x, q, h, z, y):
        """Store the law of the OPTIMAL result (z, y) at (x, q, h) when the
        table is below _MAX_LAWS and the law meets the contract at x."""
        if len(self._laws) >= _MAX_LAWS:
            return
        tpl, solver = self.tpl, self.solver
        primal = solver.A @ z - h  # the ADMM check's residuals, bit for bit
        stationarity = solver.Q @ z + q + solver.At @ y
        active = np.flatnonzero(primal >= -_ACTIVE_SLACK * (1.0 + np.abs(h)))
        G_A = tpl.G[active]
        cols = np.union1d(np.arange(tpl.n_u), np.flatnonzero(np.any(G_A != 0.0, axis=0)))
        k = len(cols)
        kkt = np.zeros((k + len(active), k + len(active)))
        kkt[:k, :k] = tpl.Q[np.ix_(cols, cols)]
        kkt[:k, k:] = G_A[:, cols].T
        kkt[k:, :k] = G_A[:, cols]
        # cols lists the n_u nominal inputs first, and only they carry q_map
        rhs = np.vstack([-tpl.q_map, np.zeros((k - tpl.n_u, tpl.d)), -tpl.rhs_map[active]])
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        Z, Y = sol[:k], sol[k:]
        entries = self._kept(primal, y, stationarity, cols, Z, active, Y)
        if not solver._kkt_ok(*(offset for offset, _ in entries), q):
            return
        self._append((x.copy(), z.copy(), cols, Z, y.copy(), active, Y), entries)

    def _kept(self, primal, y, stationarity, cols, Z, active, Y):
        """Kept (offsets, slopes) of a law's primal, multiplier and
        stationarity residuals, from their values at the anchor."""
        tpl = self.tpl
        QZ_q = tpl.Q[:, cols] @ Z
        QZ_q[: tpl.n_u] += tpl.q_map
        # (offsets, slopes, the measure whose largest constant entry is kept)
        maps = (
            (primal, tpl.G[:, cols] @ Z + tpl.rhs_map, lambda v: v),
            (y[active], Y, None),
            (stationarity, QZ_q + tpl.G[active].T @ Y, np.abs),
        )
        entries = []
        for offset, slope, worst in maps:
            keep = np.any(slope != 0.0, axis=1)
            const = np.flatnonzero(~keep)
            if worst is not None and const.size:
                keep[const[np.argmax(worst(offset[const]))]] = True
            entries.append((offset[keep], slope[keep]))
        return entries

    def _append(self, law, entries):
        """Store ``law`` with its kept entries and restack the screen's."""
        self._laws.append(law)
        self._entries.append(entries)
        offset, slope, _, limits, starts = self._stack(0, 1)
        self._head = (offset, slope, self._laws[0][0], limits, starts)  # one anchor, broadcast
        if len(self._laws) > 1:
            self._rest = self._stack(1, None)

    def _stack(self, lo, hi):
        """The screen's entries of laws lo..hi-1, law-major: (offsets,
        slopes and anchors with one row per state, limits, each law's first
        entry).  A stationarity limit is infinite here: the screen lowers it
        to 1e-8 max(1, |q|), which is at least every other limit."""
        offsets, slopes, anchors, limits, starts = [], [], [], [], [0]
        for (x_k, *_), ((p, P), (m, M), (s, S)) in zip(self._laws[lo:hi], self._entries[lo:hi]):
            offsets += [p, -m, s, -s]
            slopes += [P, -M, S, -S]
            limits.append(np.repeat([_KKT_TOL, 0.0, np.inf, np.inf], [len(p), len(m), len(s), len(s)]))
            anchors.append(np.repeat(x_k[None], len(limits[-1]), axis=0))
            starts.append(starts[-1] + len(limits[-1]))
        return (
            np.concatenate(offsets),
            np.vstack(slopes).T.copy(),
            np.vstack(anchors).T.copy(),
            np.concatenate(limits),
            np.array(starts[:-1]),
        )

    @staticmethod
    def _screen(stack, x, tol_s):
        """Whether each law of ``stack`` passes the screen at x."""
        offset, slope, anchor, limits, starts = stack
        v = offset
        for j in range(len(x)):
            v = v + slope[j] * (x[j] - anchor[j])
        return np.logical_and.reduceat(v <= np.minimum(limits, tol_s), starts)

    def first(self, x, q):
        """Index of the first law that passes the screen at (x, q), or None;
        the table holds at least one law.  Law 0 is screened alone first."""
        tol_s = _KKT_TOL * max(1.0, *map(abs, q[: self.tpl.n_u].tolist()))
        if self._screen(self._head, x, tol_s)[0]:
            return 0
        if len(self._laws) == 1:
            return None
        ok = self._screen(self._rest, x, tol_s)
        k = int(ok.argmax())
        return k + 1 if ok[k] else None

    def point(self, k, x):
        """(z(x), y(x)) of law k."""
        x_k, z_k, cols, Z, y_k, active, Y = self._laws[k]
        dx = x - x_k
        z = z_k.copy()
        z[cols] += Z @ dx
        y = y_k.copy()
        if len(active):  # the central law 0 has none
            y[active] += Y @ dx
        return z, y


class AdaptiveController:
    """Prepared bank of horizon problems with cached factorizations.

    This bank holds horizons 1..N; the lumped baseline
    (``rampc.baseline.BaselineController``) is the same controller with a
    bank of one horizon.
    """

    def __init__(self, sys: UncertainSystem, cfg: MPCConfig):
        t = cfg.terminal
        templates = {1: Case1Template(sys, t, cfg.P, cfg.R)}
        for n in range(2, cfg.N + 1):
            templates[n] = CaseNTemplate(
                sys, t.X_N.H, t.X_N.h, cfg.P, cfg.R, t.P_N, cfg.bound.w_tilde_max, n
            )
        self._prepare(sys, cfg, templates)

    def _prepare(self, sys, cfg, templates):
        """Factor every template's QP, its pruning bound map and its unconstrained gain."""
        self.sys = sys
        self.cfg = cfg
        self.templates = templates
        self.solvers = {n: ParametricQP(tpl.Q, tpl.G) for n, tpl in templates.items()}
        maps = {n: _bound_map(tpl) for n, tpl in templates.items()}
        self.bound_maps = {n: S for n, (S, _) in maps.items()}
        self._order = sorted(templates, reverse=True)  # the horizons' visiting order
        # the S_n side by side in visiting order, d x (d H): one product gives every bound
        self._bound_stack = np.hstack([self.bound_maps[n] for n in self._order])
        # horizon -> geometry.ProjectionCuts of F_n, built on its first INFEASIBLE verdict
        self.feasible_sets = {}
        # horizon -> _LawTable of its affine laws: the central law 0, stored on
        # the first QP-path visit, then one per OPTIMAL ADMM result
        self.laws = {n: _LawTable(tpl, self.solvers[n], maps[n][1]) for n, tpl in templates.items()}

    def _law_verdict(self, n, x, q):
        """OPTIMAL outcome from horizon n's first law that passes the screen
        at x (``_LawTable.first``), or None; the horizon's first call
        stores its central law."""
        laws = self.laws[n]
        if laws.central is None:
            laws.add_central()
        if not laws:
            return None
        k = laws.first(x, q)
        if k is None:
            return None
        z, y = laws.point(k, x)
        return SolveOutcome(
            status=SolveStatus.OPTIMAL,
            x_opt=z,
            objective=float(0.5 * z @ (self.solvers[n].Q @ z) + q @ z),
            y_ineq=y,
            backend="law",
            diagnostics={"law": k, "factorizations": 0, "rho_updates": 0},
        )

    def _admm_verdict(self, n, x):
        """ADMM solve of horizon n at x.  An OPTIMAL result stores its law
        while the horizon holds fewer than _MAX_LAWS; the law returns this
        result bit for bit at x, so a later visit to x settles the same."""
        tpl = self.templates[n]
        q, h = tpl.parts(x)
        out = self.solvers[n].solve(q, h)
        if out.is_optimal:
            self.laws[n].add(x, q, h, out.x_opt, out.y_ineq)
        return out

    def _facet_verdict(self, n, x):
        """INFEASIBLE outcome when x lies outside a stored facet of F_n, else None.

        The certificate is the multiplier of the most violated facet (the
        first on ties), so it depends on x and the stored facets only.
        """
        cuts = self.feasible_sets.get(n)
        if not cuts:
            return None
        g = cuts.offsets - cuts.normals @ x
        i = int(np.argmin(g))
        if g[i] >= -_FACET_MARGIN * (1.0 + abs(cuts.offsets[i])):
            return None
        return SolveOutcome(
            status=SolveStatus.INFEASIBLE,
            farkas={"y": cuts.Y[i], "nu": np.zeros(0), "gap": float(g[i])},
            backend="facets",
            diagnostics={"facet": i, "factorizations": 0, "rho_updates": 0},
        )

    def solve(self, x_t) -> MPCSolution:
        """Minimum-cost feasible horizon at x_t, ties to the shortest.

        Horizons run longest first.  Horizon n is skipped when its lower
        bound x'S_n x exceeds the best cost so far by more than
        1e-9 (1 + |J|): its reported cost could only be larger, so it could
        not win, and the selection equals that of solving every horizon.
        All bounds come from one product (x' [S_N ... S_1]) x, which can
        differ from x'S_n x by about 4.4e-16 (1 + |b|), far inside that
        slack: a skipped horizon still has J_n >= x'S_n x > J_best, so N*,
        J* and the inputs do not move.  Nothing is
        skipped until some horizon is feasible, so an all-infeasible
        result still carries every horizon's verdict.

        A horizon that is not skipped is first tested against the stored
        facets of its feasible set F_n: a state outside one by more than the
        margin is INFEASIBLE at once (``backend="facets"``, the facet's
        multiplier as certificate).  Every other state, including those
        within the margin, tries the horizon's affine laws (``_LawTable``)
        in storage order, and the first whose point and multipliers meet
        the 1e-8 KKT contract at x is the OPTIMAL result (``backend="law"``,
        ``iterations=0``, objective 1/2 z'Qz + q'z, ``diagnostics["law"]``
        the law's index).  Law 0 is the central law z0_n + [K_n; 0] x with
        zero multipliers, stored on the horizon's first visit to this path
        (none when its origin solve fails).  Only then does the horizon run
        the ADMM solve with its HiGHS-confirmed infeasibility path
        (``backend="sparse"``), and an OPTIMAL result stores its law until
        the horizon holds _MAX_LAWS of them, law 0 included; past that cap
        ADMM results are returned without one.  A law returns
        its own ADMM result bit for bit at its own state, so a revisited
        state settles exactly as it did the first time.

        Facets and law 0 do not depend on x.  The other laws depend on which
        states came first, and the optimal gains, even the optimal inputs,
        are not unique: a state that a law settles can get a different
        point within the contract than ADMM would give.  So the statuses,
        the certificates and N* (outside ties within the contract's
        tolerance) never depend on the order in which states were visited,
        and every OPTIMAL point meets the contract; the bits of an OPTIMAL
        point may.

        Raises ``DimensionMismatchError`` when x_t does not have d entries
        and ``ValueError`` when an entry is not finite, before any horizon
        is touched.
        """
        x = np.asarray(x_t, dtype=float).reshape(-1)
        if len(x) != self.sys.d:
            raise DimensionMismatchError("state has %d entries, expected %d" % (len(x), self.sys.d))
        if not all(map(math.isfinite, x)):
            raise ValueError("state %s is not finite" % x)
        per = []
        best = None  # (J, n, outcome)
        failed = False
        bounds = (x @ self._bound_stack).reshape(len(self._order), -1) @ x
        for n, bound in zip(self._order, bounds.tolist()):
            tpl = self.templates[n]
            t0 = time.perf_counter()
            if best is not None and bound > best[0] + 1e-9 * (1.0 + abs(best[0])):
                per.append(
                    HorizonResult(n, None, None, time.perf_counter() - t0, pruned=True, bound=bound)
                )
                continue
            out = self._facet_verdict(n, x)
            if out is None:
                # h(x) is formed only for ADMM: the law verdicts read q alone
                q = tpl.q(x)
                out = self._law_verdict(n, x, q) or self._admm_verdict(n, x)
                if out.status is SolveStatus.INFEASIBLE and n not in self.feasible_sets:
                    self.feasible_sets[n] = projection_cuts(tpl.G, tpl.rhs_map, tpl.h_base)
                    out = self._facet_verdict(n, x) or out
            elapsed = time.perf_counter() - t0
            if out.status is SolveStatus.OPTIMAL:
                J = out.objective + tpl.constant(x)
                per.append(HorizonResult(n, out.status, J, elapsed, bound=bound, backend=out.backend))
                if best is None or (J, n) < best[:2]:
                    best = (J, n, out)
            else:
                failed = failed or out.status is not SolveStatus.INFEASIBLE
                per.append(
                    HorizonResult(
                        n, out.status, None, elapsed,
                        farkas=out.farkas, bound=bound, backend=out.backend,
                    )
                )
        per.reverse()  # report in horizon order 1..N
        if best is None:
            # a numerical failure must stay distinguishable from semantic
            # infeasibility (it would otherwise silently shrink ROA masks)
            status = SolveStatus.NUMERICAL_FAILURE if failed else SolveStatus.INFEASIBLE
            return MPCSolution(
                status=status,
                N_star=None,
                u_bar_star=None,
                M_star=None,
                J_star=None,
                per_horizon=per,
                x_t=x,
            )
        J, n, out = best
        law0 = out.backend == "law" and out.diagnostics["law"] == 0
        u, M = self.templates[n].extract(out.x_opt, self.laws[n].gains0 if law0 else None)
        x_next = self.sys.A_bar @ x + self.sys.B_bar @ u[0]
        return MPCSolution(
            status=SolveStatus.OPTIMAL,
            N_star=n,
            u_bar_star=u,
            M_star=M,
            J_star=J,
            per_horizon=per,
            x_t=x,
            x_bar_next=x_next,
            sys=self.sys,
        )

    def step(self, x_t):
        """Applied input (first nominal input of the winning horizon) and solution;
        raises ``AllHorizonsInfeasibleError``, with every horizon's result,
        where ``solve`` would return an all-infeasible solution."""
        sol = self.solve(x_t)
        if not sol.is_feasible:
            raise AllHorizonsInfeasibleError(
                "all %d horizon problems infeasible at x=%s" % (len(self.templates), x_t),
                per_horizon=sol.per_horizon,
            )
        return sol.applied_input, sol

    def tail_cost(self, sol: MPCSolution, w_tilde):
        """Cost of the shifted candidate from the perturbed nominal successor
        x+ = x_bar_next + w_tilde; the optimal cost at x+ can never exceed it
        (the certificate quantity of the stability argument).

        A horizon-n plan's candidate applies its remaining inputs
        u = u_bar[1:] + M[:, block 0] w_tilde from x+, so its cost is horizon
        n-1's cost at (x+, u): constant(x+) + (q_map x+)'u + 1/2 u'Q_uu u.
        With n = 1 the candidate is the terminal feedback, at cost x+'P_N x+
        (the Lyapunov series makes the descent identity exact).  Raises
        ``ValueError`` for an infeasible solution and for a plan whose
        horizon n-1 is not in this bank (the baseline's bank of one horizon).
        """
        if not sol.is_feasible:
            raise ValueError("candidate tail cost needs a feasible solution")
        n = sol.N_star
        w = np.asarray(w_tilde, dtype=float).reshape(-1)
        x = sol.x_bar_next + w
        if n == 1:
            return float(x @ self.cfg.terminal.P_N @ x)
        tpl = self.templates.get(n - 1)
        if tpl is None:
            raise ValueError(
                "the bank has no horizon %d to price the tail of a horizon-%d plan" % (n - 1, n)
            )
        m = self.sys.m
        u = sol.u_bar_star[1:].reshape(-1) + sol.M_star.M[m:, : self.sys.d] @ w
        return tpl.constant(x) + float(u @ (tpl.q_map @ x + 0.5 * (tpl.Q_uu @ u)))


# ---------------------------------------------------------------------------
# safe roll-out policy
# ---------------------------------------------------------------------------


def rollout_policy(sys: UncertainSystem, sol_0: MPCSolution, K, states, inputs):
    """Input at time t = len(inputs) under the time-0 plan, then terminal K.

    For t below the plan horizon the time-0 policy is evaluated on the
    net-additive residuals reconstructed from the history
    (w_l = x_{l+1} - A_bar x_l - B_bar u_l); afterwards the terminal
    feedback K x takes over.
    """
    if not sol_0.is_feasible:
        raise ValueError("rollout needs a feasible time-0 solution")
    states = [np.asarray(s, dtype=float).reshape(-1) for s in states]
    inputs = [np.asarray(u, dtype=float).reshape(-1) for u in inputs]
    t = len(inputs)
    if len(states) != t + 1:
        raise HistoryLengthMismatchError(
            "need %d states for %d inputs, got %d" % (t + 1, t, len(states))
        )
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if t >= sol_0.N_star:
        return K @ states[t]
    w_hist = [
        states[l + 1] - sys.A_bar @ states[l] - sys.B_bar @ inputs[l] for l in range(t)
    ]
    return policy_input(sol_0.M_star, sol_0.u_bar_star, w_hist)
