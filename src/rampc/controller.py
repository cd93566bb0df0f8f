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

At every step the cheapest feasible horizon wins (ties go to the shortest
horizon).  The horizons are tried longest first, and a horizon is solved
only if its exact lower bound x' S_n x -- the unconstrained minimum of its
cost over the nominal inputs, with S_n prepared once per horizon -- does not
exceed the best cost so far; a skipped horizon could not have won, so the
selection is the same as solving every horizon.  Each horizon's feasible set
F_n = {x : exists z, G z <= h_base - R x} does not depend on x; on the
horizon's first INFEASIBLE verdict its facets are computed once by support
LPs (``geometry.projection_cuts``, exact in 2-d) and stored with their LP
multipliers, and from then on a state outside a stored facet by more than a
1e-7 margin is settled INFEASIBLE in microseconds, with that facet's
multiplier as its Farkas certificate.  A horizon that is neither pruned nor
settled by a facet first tries its central candidate z(x) = Z_n x + z0_n:
the unconstrained minimiser u = K_n x in the nominal inputs (K_n comes from
the same linear solve as S_n) and a fixed, x-independent tail of feedback
gains and absolute-value variables, taken once from a QP solve at the
origin.  When z(x) passes the solver's own 1e-8 KKT check with zero
multipliers, it is the horizon's OPTIMAL result (``backend="central"``,
no ADMM iteration); otherwise the horizon runs ADMM.  The check's residuals
are affine in x: they come from maps with one column per state, built with
the candidate, not from products with the solver's CSR matrices.  In
closed loop most horizons are unconstrained at their optimum, so most steps
run no ADMM solve at all.  Terminal ingredients: a robust
positive invariant terminal set computed with the exact vertex uncertainty
(and rechecked by LP), and a terminal cost from the closed-loop Lyapunov
series, which makes the descent inequality hold with equality globally.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllHorizonsInfeasibleError,
    ConvergenceError,
    EmptyTerminalSetError,
    HistoryLengthMismatchError,
    LyapunovDivergenceError,
    VertexUnstableError,
)
from .geometry import FACET_TOL, Polytope, max_robust_invariant, projection_cuts, support, support_lp_many
from .prediction import FeedbackGainStack, build_stacked, policy_input
from .qpsolver import ParametricQP, SolveOutcome, SolveStatus
from .system import NetAdditiveBound, UncertainSystem, net_additive_bound

_EQ19_TOL = 1e-8
# a stored facet settles a state only when it is violated by more than
# _FACET_MARGIN * (1 + |offset|); nearer states take the QP path
_FACET_MARGIN = 1e-7
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
    of either screen raise loudly.  The set's invariance is then rechecked
    by support LPs (one block per facet and vertex closed loop, solved as
    one LP), not from the vertex cache that synthesis used, so the terminal
    set carries an LP certificate.
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
    rng = np.random.default_rng(0)  # a fixed draw: the screen is reproducible
    hull_max = 0.0
    for _ in range(hull_samples):
        wA = rng.dirichlet(np.ones(sys.n_a))
        wB = rng.dirichlet(np.ones(sys.n_b))
        dA = sum(w * V for w, V in zip(wA, sys.deltaA_vertices))
        dB = sum(w * V for w, V in zip(wB, sys.deltaB_vertices))
        rho = spectral_radius((sys.A_bar + dA) + (sys.B_bar + dB) @ K)
        hull_max = max(hull_max, rho)
        if rho >= 1.0:
            raise VertexUnstableError(
                "closed loop unstable at a sampled hull point (spectral radius %.6f); "
                "vertex stability does not certify the hull" % rho
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
        hull_screen_max_radius=hull_max,
        hull_screen_samples=hull_samples,
        descent_residual=resid,
    )


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


class Case1Template:
    """Exact robust one-step problem: vertex-pair enumeration + W support."""

    def __init__(self, sys: UncertainSystem, terminal: TerminalComponents, P, R):
        d, m = sys.d, sys.m
        H_N, h_N = terminal.X_N.H, terminal.X_N.h
        w_sup = np.array([support(sys.W, row) for row in H_N])
        g_blocks = []
        rhs_maps = []  # rhs = h_base - map @ x_t
        h_base = []
        for dA in sys.deltaA_vertices:
            for dB in sys.deltaB_vertices:
                g_blocks.append(H_N @ (sys.B_bar + dB))
                rhs_maps.append(H_N @ (sys.A_bar + dA))
                h_base.append(h_N - w_sup)
        self.G = np.vstack(g_blocks + [sys.U.H])
        self._rhs_map = np.vstack(rhs_maps + [np.zeros((sys.U.n_rows, d))])
        self._h_base = np.concatenate(h_base + [sys.U.h])
        P_N = terminal.P_N
        self.Q = 2.0 * (R + sys.B_bar.T @ P_N @ sys.B_bar)
        self._q_map = 2.0 * sys.B_bar.T @ P_N @ sys.A_bar
        self._const_map = P + sys.A_bar.T @ P_N @ sys.A_bar
        self.n_vars = m
        self.horizon = 1
        self.d, self.m = d, m

    def parts(self, x):
        q = self._q_map @ x
        h = self._h_base - self._rhs_map @ x
        return q, h

    def constant(self, x):
        return float(x @ self._const_map @ x)

    def extract(self, z):
        u = z[: self.m].reshape(1, self.m)
        return u, FeedbackGainStack.zeros(1, self.d, self.m)


class CaseNTemplate:
    """Dual-norm tightened problem over a stacked horizon.

    Decision vector z = (ubar stack, vec of strictly-lower M blocks, one
    absolute-value variable per potentially nonzero entry of (CM+G)'f per
    tightened row).  Valid for horizon >= 1; with horizon 1 there are no M
    blocks and the construction degenerates to the fully lumped one-step
    problem (used by the conservative baseline).
    """

    def __init__(self, sys, terminal_H, terminal_h, P, R, P_N, w_tilde_max, horizon):
        d, m, N = sys.d, sys.m, horizon
        sd = build_stacked(sys.A_bar, sys.B_bar, N)
        self.horizon = N
        self.d, self.m = d, m
        self.w_tilde_max = float(w_tilde_max)

        self.n_u = m * N
        self._m_index = {}
        base = self.n_u
        for k in range(1, N):
            for l in range(k):
                self._m_index[(k, l)] = base
                base += m * d
        self.n_m = base - self.n_u
        # flat positions in the (m N) x (d N) gain matrix of z[n_u : n_u + n_m]
        i, j = np.divmod(np.arange(m * d), d)
        self._m_flat = np.array(
            [(k * m + i) * (d * N) + l * d + j for k, l in self._m_index], dtype=np.intp
        ).reshape(-1)

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
        self.n_vars = self.n_u + self.n_m + n_aux
        n_main = len(tight)
        n_rows = n_main + 2 * n_aux
        G = np.zeros((n_rows, self.n_vars))
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
                    mi = self._m_index[(k, l)]
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
        assert r == n_rows and aux_base == self.n_vars
        self.G = G
        self._h_base = h_base
        self._rhs_map = rhs_map
        self.n_main = n_main
        self._tight = tight

        # cost: quadratic in the nominal input stack only
        P_bar = np.zeros((d * N, d * N))
        for k in range(1, N):
            P_bar[(k - 1) * d : k * d, (k - 1) * d : k * d] = P
        P_bar[(N - 1) * d :, (N - 1) * d :] = P_N
        R_bar = np.kron(np.eye(N), R)
        Qu = 2.0 * (sd.C.T @ P_bar @ sd.C + R_bar)
        self.Q = np.zeros((self.n_vars, self.n_vars))
        self.Q[: self.n_u, : self.n_u] = Qu
        self._q_map = 2.0 * sd.C.T @ P_bar @ sd.A_stack
        self._const_map = P + sd.A_stack.T @ P_bar @ sd.A_stack

    def parts(self, x):
        q = np.zeros(self.n_vars)
        q[: self.n_u] = self._q_map @ x
        h = self._h_base - self._rhs_map @ x
        return q, h

    def constant(self, x):
        return float(x @ self._const_map @ x)

    def extract(self, z):
        u = z[: self.n_u].reshape(self.horizon, self.m)
        M = np.zeros((self.m * self.horizon, self.d * self.horizon))
        np.put(M, self._m_flat, z[self.n_u : self.n_u + self.n_m])
        return u, FeedbackGainStack(self.horizon, self.d, self.m, M)

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

    def tightened_row_values(self, u_stack, M: FeedbackGainStack, x):
        """Worst-case LHS of every tightened row at a fixed policy.

        Evaluates  f'(A_stack x + C u) + w_tilde_max * ||(CM+G)'f||_1  (state
        rows) and the input analog; used by tests against sampling oracles.
        """
        u = np.asarray(u_stack, dtype=float).reshape(-1)
        vals = np.empty(self.n_main)
        for r, row in enumerate(self._tight):
            phi, g = row["phi"], row["g"]
            v = M.M.T @ phi + g  # equals (CM+G)'f for state rows, M'f for inputs
            vals[r] = float(phi @ u + row["rhs_map"] @ x + self.w_tilde_max * np.abs(v).sum())
        return vals, np.array([row["h0"] for row in self._tight])


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


@dataclass
class HorizonResult:
    """Outcome of one horizon.  A pruned horizon was never solved: its lower
    bound exceeded the best cost found, so ``status`` and ``cost`` are None."""

    N_t: int
    status: SolveStatus | None
    cost: float | None
    solve_time: float
    farkas: dict | None = None
    pruned: bool = False
    bound: float | None = None


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
    margin_x: float = float("nan")  # min slack of x_t in the state constraints
    margin_u: float = float("nan")  # min slack of the applied input

    @property
    def is_feasible(self):
        return self.status is SolveStatus.OPTIMAL

    @property
    def applied_input(self):
        return None if self.u_bar_star is None else self.u_bar_star[0]

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
    inputs (the leading block of z, of size ``_q_map.shape[0]``) carry cost;
    minimizing over them gives K = -Q_uu^-1 q_map and
    S = const_map - 1/2 q_map' Q_uu^-1 q_map, from one linear solve.  S
    lower-bounds the objective at *any* z, feasible or not.
    """
    n_u = tpl._q_map.shape[0]
    Q_uu = tpl.Q[:n_u, :n_u]
    Y = np.linalg.solve(Q_uu, tpl._q_map)
    S = tpl._const_map - 0.5 * tpl._q_map.T @ Y
    return 0.5 * (S + S.T), -Y


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
        self._gains = {n: K for n, (_, K) in maps.items()}
        # horizon -> geometry.ProjectionCuts of F_n, built on its first INFEASIBLE verdict
        self.feasible_sets = {}
        # horizon -> (Z_n, z0_n) of its central candidate, or None when it has
        # none; built on the horizon's first visit that reaches the QP path
        self.candidates = {}
        # horizon -> (C_n, c_n, D_n), the candidate's KKT residuals as affine
        # maps of x, built with the candidate
        self._residual_maps = {}

    def _candidate(self, n):
        """(Z_n, z0_n) of horizon n's central candidate z(x) = Z_n x + z0_n, or None.

        Z_n = [K_n; 0] puts the unconstrained minimiser in the nominal
        inputs.  z0_n = [0; M0; a0] takes the feedback gains M0 from one QP
        solve at the origin and sets each absolute-value variable tightly,
        to |M0'phi + g| (``CaseNTemplate.central_offset``).  A horizon
        without such variables needs no origin solve; one whose origin solve
        is not OPTIMAL has no candidate.  With the candidate, its residual
        maps (C_n, c_n, D_n) of ``_central_verdict`` are stored.
        """
        if n in self.candidates:
            return self.candidates[n]
        tpl = self.templates[n]
        K = self._gains[n]
        Z = np.zeros((tpl.n_vars, K.shape[1]))
        Z[: K.shape[0]] = K
        cand = (Z, np.zeros(tpl.n_vars))
        if tpl.n_vars > K.shape[0]:
            out = self.solvers[n].solve(*tpl.parts(np.zeros(K.shape[1])))
            cand = (Z, tpl.central_offset(out.x_opt)) if out.is_optimal else None
        self.candidates[n] = cand
        if cand is not None:
            n_u = K.shape[0]
            self._residual_maps[n] = (
                tpl.G @ Z + tpl._rhs_map,
                tpl.G @ cand[1] - tpl._h_base,
                tpl.Q[:n_u, :n_u] @ K + tpl._q_map,
            )
        return cand

    def _central_verdict(self, n, x, q):
        """OPTIMAL outcome at horizon n's central candidate z(x), or None.

        z(x) is accepted only when it passes the solver's own 1e-8 KKT check
        (``ParametricQP._kkt_ok``) with zero multipliers, so it is then a
        minimiser of the horizon's QP at (q, h(x)) to the same contract as an
        ADMM result.  Its residuals are affine in x and come from the maps
        stored with the candidate, of d columns each:
        G z(x) - h(x) = C_n x + c_n with C_n = G Z_n + R_n and
        c_n = G z0_n - h_base, and with y = 0 the stationarity residual
        Q z(x) + q(x) is D_n x = (Q_uu K_n + q_map) x in the nominal inputs and
        exactly zero elsewhere, where Q and q vanish.  z(x) itself is formed
        only once the check passes.
        """
        cand = self._candidate(n)
        if cand is None:
            return None
        t0 = time.perf_counter()
        C, c, D = self._residual_maps[n]
        solver = self.solvers[n]
        y = np.zeros(solver.m)
        if not solver._kkt_ok(C @ x + c, y, D @ x, q):
            return None
        Z, z0 = cand
        z = Z @ x + z0
        return SolveOutcome(
            status=SolveStatus.OPTIMAL,
            x_opt=z,
            objective=float(0.5 * z @ (solver.Q @ z) + q @ z),
            y_ineq=y,
            backend="central",
            diagnostics={"factorizations": 0, "rho_updates": 0},
            solve_time=time.perf_counter() - t0,
        )

    def _facet_verdict(self, n, x):
        """INFEASIBLE outcome when x lies outside a stored facet of F_n, else None.

        The certificate is the multiplier of the most violated facet (the
        first on ties), so it depends on x and the stored facets only.
        """
        cuts = self.feasible_sets.get(n)
        if not cuts:
            return None
        t0 = time.perf_counter()
        g = cuts.offsets - cuts.normals @ x
        i = int(np.argmin(g))
        if g[i] >= -_FACET_MARGIN * (1.0 + abs(cuts.offsets[i])):
            return None
        return SolveOutcome(
            status=SolveStatus.INFEASIBLE,
            farkas={"y": cuts.Y[i], "nu": np.zeros(0), "gap": float(g[i])},
            backend="facets",
            diagnostics={"facet": i, "factorizations": 0, "rho_updates": 0},
            solve_time=time.perf_counter() - t0,
        )

    def solve(self, x_t) -> MPCSolution:
        """Minimum-cost feasible horizon at x_t, ties to the shortest.

        Horizons run longest first.  Horizon n is skipped when its lower
        bound x'S_n x exceeds the best cost so far by more than float
        rounding: its reported cost could only be larger, so it could not
        win, and the selection equals that of solving every horizon.
        Nothing is skipped until some horizon is feasible, so an
        all-infeasible result still carries every horizon's verdict.

        A horizon that is not skipped is first tested against the stored
        facets of its feasible set F_n: a state outside one by more than the
        margin is INFEASIBLE at once (``backend="facets"``, the facet's
        multiplier as certificate).  Every other state, including those
        within the margin, tries the horizon's central candidate
        z(x) = Z_n x + z0_n: if it meets the 1e-8 KKT contract with zero
        multipliers it is the OPTIMAL result (``backend="central"``,
        ``iterations=0``, objective 1/2 z'Qz + q'z), and otherwise the
        horizon runs the ADMM solve with its HiGHS-confirmed infeasibility
        path.  The first INFEASIBLE verdict of a horizon builds its facets
        and is then taken again from them when x lies beyond the margin of
        one; the candidate, built on the horizon's first visit to this
        path, does not depend on x.  So a verdict never depends on the
        order in which states were visited.
        """
        x = np.asarray(x_t, dtype=float).reshape(-1)
        per = []
        best = None  # (J, n, outcome)
        failed = False
        for n in sorted(self.templates, reverse=True):
            tpl = self.templates[n]
            t0 = time.perf_counter()
            bound = float(x @ self.bound_maps[n] @ x)
            if best is not None and bound > best[0] + 1e-9 * (1.0 + abs(best[0])):
                per.append(
                    HorizonResult(n, None, None, time.perf_counter() - t0, pruned=True, bound=bound)
                )
                continue
            out = self._facet_verdict(n, x)
            if out is None:
                q, h = tpl.parts(x)
                out = self._central_verdict(n, x, q) or self.solvers[n].solve(q, h)
                if out.status is SolveStatus.INFEASIBLE and n not in self.feasible_sets:
                    self.feasible_sets[n] = projection_cuts(tpl.G, tpl._rhs_map, tpl._h_base)
                    out = self._facet_verdict(n, x) or out
            elapsed = time.perf_counter() - t0
            if out.status is SolveStatus.OPTIMAL:
                J = out.objective + tpl.constant(x)
                per.append(HorizonResult(n, out.status, J, elapsed, bound=bound))
                if best is None or (J, n) < best[:2]:
                    best = (J, n, out)
            else:
                failed = failed or out.status is not SolveStatus.INFEASIBLE
                per.append(
                    HorizonResult(n, out.status, None, elapsed, farkas=out.farkas, bound=bound)
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
        tpl = self.templates[n]
        u, M = tpl.extract(out.x_opt)
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
            margin_x=float(np.min(self.sys.X.h - self.sys.X.H @ x)),
            margin_u=float(np.min(self.sys.U.h - self.sys.U.H @ u[0])),
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


# ---------------------------------------------------------------------------
# candidate tail cost (the ISS certificate quantity)
# ---------------------------------------------------------------------------


def candidate_tail_cost(cfg: MPCConfig, sys: UncertainSystem, sol: MPCSolution, w_tilde):
    """Cost of the shifted/terminal candidate policy from the perturbed
    nominal successor; the optimal cost at the next step can never exceed it.

    With N*=1 the candidate is the terminal feedback and the tail cost is
    x'P_N x (the Lyapunov series makes the descent identity exact); with
    N*>=2 it is the cost of replaying the remaining plan, whose only nonzero
    disturbance argument is the realized net-additive residual.
    """
    if not sol.is_feasible:
        raise ValueError("candidate tail cost needs a feasible solution")
    w = np.asarray(w_tilde, dtype=float).reshape(-1)
    x = sol.x_bar_next + w
    if sol.N_star == 1:
        return float(x @ cfg.terminal.P_N @ x)
    total = 0.0
    M = sol.M_star
    for k in range(1, sol.N_star):
        u = sol.u_bar_star[k] + M.block(k, 0) @ w
        total += float(x @ cfg.P @ x + u @ cfg.R @ u)
        x = sys.A_bar @ x + sys.B_bar @ u
    return total + float(x @ cfg.terminal.P_N @ x)


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
