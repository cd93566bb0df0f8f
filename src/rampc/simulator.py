"""Closed-loop simulation, ROA estimation by grid feasibility, benchmarks.

One step loop (``_run``) serves both simulated runs; they differ only in how
step t's input is chosen.  ``simulate_closed_loop`` re-solves at every
state; ``simulate_rollout`` solves once and plays the time-0 plan, then the
terminal feedback.  The loop replays the true dynamics, counts constraint
violations (the final state's included) and records the net-additive
residual.  Failures are data here: an infeasible step flags the trace and
ends it, it never raises.  Each closed-loop step also records the
certificate quantity of the stability argument (the optimal cost at the
next state may not exceed the shifted-candidate tail cost), so Monte-Carlo
runs double as theorem monitors.
"""
from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .baseline import BaselineConfig, BaselineController
from .controller import (
    AdaptiveController,
    MPCConfig,
    MPCSolution,
    candidate_tail_cost,
    rollout_policy,
)
from .errors import SolverNumericalError
from .geometry import PointCloudHull2D, hull_2d
from .qpsolver import SolveStatus, active_kernel
from .system import UncertainSystem, UncertaintyRealization

MARGIN_TOL = 1e-6


@dataclass
class StepRecord:
    t: int
    N_star: int | None
    J_star: float | None
    solve_time: float
    margin_x: float
    margin_u: float
    iss_gap: float  # candidate tail cost minus realized optimal cost (>= -tol)
    feasible: bool


@dataclass
class SimulationTrace:
    x0: np.ndarray
    steps_requested: int
    states: np.ndarray = None
    inputs: np.ndarray = None
    w_tilde: np.ndarray = None
    records: list = field(default_factory=list)
    infeasible_at: int | None = None
    numerical_failure_at: int | None = None
    violations: int = 0
    iss_violations: int = 0
    final_margin_x: float = float("nan")
    completed: int = 0

    @property
    def clean(self):
        return self.infeasible_at is None and self.violations == 0


def _min_margin(P, v):
    return float(np.min(P.h - P.H @ v))


def _timed_solve(ctl, x):
    t0 = time.perf_counter()
    sol = ctl.solve(x)
    return sol, time.perf_counter() - t0


def _run(sys, x0, steps, realization, decide) -> SimulationTrace:
    """The step loop of both runs.

    ``decide(t, states, inputs, w_tilde)`` reads the history (``states[:t+1]``
    and the first t rows of the others) and returns ``(sol, u, J_star,
    solve_time, bound)``: the solution step t acts on, its input, the cost to
    record and the candidate tail cost that cost may not exceed (None: not
    monitored).  The true dynamics replay  x+ = A_true x + B_true u + w_t
    exactly and the recorded net-additive residual is  x+ - A_bar x - B_bar u.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if realization.w_sequence.shape[0] < steps:
        raise ValueError("realization too short for %d steps" % steps)
    A_true = realization.A_true(sys)
    B_true = realization.B_true(sys)
    states = np.empty((steps + 1, sys.d))
    inputs = np.empty((steps, sys.m))
    w_tilde = np.empty((steps, sys.d))
    states[0] = x0
    trace = SimulationTrace(x0=x0, steps_requested=steps)
    for t in range(steps):
        sol, u, J_star, elapsed, bound = decide(t, states, inputs, w_tilde)
        x = states[t]
        margin_x = _min_margin(sys.X, x)
        if not sol.is_feasible:
            if sol.status is SolveStatus.NUMERICAL_FAILURE:
                trace.numerical_failure_at = t
            else:
                trace.infeasible_at = t
            trace.records.append(
                StepRecord(t, None, None, elapsed, margin_x, float("nan"), float("nan"), False)
            )
            break
        iss_gap = float("nan")
        if bound is not None:
            iss_gap = bound - J_star
            if J_star > bound + MARGIN_TOL * (1.0 + abs(J_star)):
                trace.iss_violations += 1
        margin_u = _min_margin(sys.U, u)
        if margin_x < -MARGIN_TOL or margin_u < -MARGIN_TOL:
            trace.violations += 1
        x_next = A_true @ x + B_true @ u + realization.w_sequence[t]
        inputs[t] = u
        w_tilde[t] = x_next - sys.A_bar @ x - sys.B_bar @ u
        states[t + 1] = x_next
        trace.records.append(
            StepRecord(t, sol.N_star, J_star, elapsed, margin_x, margin_u, iss_gap, True)
        )
        trace.completed = t + 1
    n = trace.completed
    trace.states = states[: n + 1]
    trace.inputs = inputs[:n]
    trace.w_tilde = w_tilde[:n]
    trace.final_margin_x = _min_margin(sys.X, trace.states[-1])
    if trace.final_margin_x < -MARGIN_TOL:
        trace.violations += 1
    return trace


def simulate_closed_loop(
    sys: UncertainSystem,
    cfg: MPCConfig,
    x0,
    steps: int,
    realization: UncertaintyRealization,
    *,
    controller: AdaptiveController | None = None,
) -> SimulationTrace:
    """Run the adaptive controller against one admissible realization.

    Every step re-solves at the current state, and from the second step on
    its cost is checked against the previous solution's candidate tail cost.
    """
    ctl = controller if controller is not None else AdaptiveController(sys, cfg)
    prev: MPCSolution | None = None

    def decide(t, states, inputs, w_tilde):
        nonlocal prev
        sol, elapsed = _timed_solve(ctl, states[t])
        bound = None
        if prev is not None and sol.is_feasible:
            bound = candidate_tail_cost(cfg, sys, prev, w_tilde[t - 1])
        prev = sol
        return sol, sol.applied_input, sol.J_star, elapsed, bound

    return _run(sys, x0, steps, realization, decide)


def simulate_rollout(
    sys: UncertainSystem,
    cfg: MPCConfig,
    x0,
    steps: int,
    realization: UncertaintyRealization,
    *,
    controller: AdaptiveController | None = None,
) -> SimulationTrace:
    """Run the time-0 plan open-loop (then terminal feedback), no re-solving."""
    ctl = controller if controller is not None else AdaptiveController(sys, cfg)
    plan: MPCSolution | None = None

    def decide(t, states, inputs, w_tilde):
        nonlocal plan
        elapsed = 0.0
        if t == 0:
            plan, elapsed = _timed_solve(ctl, states[0])
            if not plan.is_feasible:
                return plan, None, None, elapsed, None
        u = rollout_policy(sys, plan, cfg.terminal.K, states[: t + 1], inputs[:t])
        return plan, u, plan.J_star if t == 0 else None, elapsed, None

    return _run(sys, x0, steps, realization, decide)


# ---------------------------------------------------------------------------
# region of attraction by grid sampling
# ---------------------------------------------------------------------------


@dataclass
class ROAEstimate:
    grid: np.ndarray  # (n_pts, d) grid points inside X
    feasible_mask: np.ndarray  # (n_pts,) bool
    hull: PointCloudHull2D | None
    area: float
    grid_n: int

    @property
    def n_feasible(self):
        return int(self.feasible_mask.sum())


def _grid_points(X, grid_n):
    lo, hi = X.bounding_box()
    axes = [np.linspace(lo[j], hi[j], grid_n) for j in range(X.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.array([X.contains(p) for p in pts])
    return pts[keep]


def _classify(sol):
    if sol.status is SolveStatus.NUMERICAL_FAILURE:
        raise SolverNumericalError(
            "solver failed at grid point %s; refusing to count it as infeasible" % sol.x_t
        )
    return bool(sol.is_feasible)


def _roa_chunk(args):
    cls, sys, cfg, pts = args
    ctl = cls(sys, cfg)
    return [_classify(ctl.solve(p)) for p in pts]


def _estimate(cls, sys, cfg, grid_n, jobs):
    pts = _grid_points(sys.X, grid_n)
    if jobs and jobs > 1 and len(pts) > 1:
        chunks = np.array_split(np.arange(len(pts)), min(jobs, len(pts)))
        payload = [(cls, sys, cfg, pts[idx]) for idx in chunks if len(idx)]
        mask = np.zeros(len(pts), dtype=bool)
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            for idx, res in zip([c for c in chunks if len(c)], ex.map(_roa_chunk, payload)):
                mask[idx] = res
    else:
        mask = np.array(_roa_chunk((cls, sys, cfg, pts)), dtype=bool)
    hull = None
    area = 0.0
    if sys.d == 2 and mask.any():
        hull = hull_2d(pts[mask])
        area = hull.area
    return ROAEstimate(grid=pts, feasible_mask=mask, hull=hull, area=area, grid_n=grid_n)


def estimate_roa(sys: UncertainSystem, cfg: MPCConfig, grid_n: int, *, jobs: int = 1) -> ROAEstimate:
    """Grid feasibility sampling of the adaptive controller over X."""
    return _estimate(AdaptiveController, sys, cfg, grid_n, jobs)


def estimate_roa_baseline(
    sys: UncertainSystem, cfg: BaselineConfig, grid_n: int, *, jobs: int = 1
) -> ROAEstimate:
    """Same protocol for the lumped baseline controller."""
    return _estimate(BaselineController, sys, cfg, grid_n, jobs)


# ---------------------------------------------------------------------------
# timing benchmark
# ---------------------------------------------------------------------------

# desk-scale reference magnitudes for a comparable 2-d setup, for context only
REFERENCE_TIMES_S = {1: 0.0026, 2: 0.0023, 3: 0.0038, 4: 0.0056, 5: 0.0078}


def benchmark(sys: UncertainSystem, cfg: MPCConfig, horizons, reps: int, x0=None) -> dict:
    """Per-horizon online times (template-cached build + solve), warm cache.

    Timing covers one horizon's ADMM path: assembling the state-dependent
    QP data and solving it with ``ParametricQP.solve``.  The controller's
    affine laws, which settle most closed-loop horizons without that solve
    (the central law 0 most of all), are not timed here.  Problem-file
    parsing and template/factorization preparation are excluded (one-time,
    reported separately).  Each rep times every horizon in turn, so a spell
    of load on the machine slows all horizons alike instead of the one whose
    block it hits.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    horizons = sorted(set(int(n) for n in horizons))
    if any(n < 1 or n > cfg.N for n in horizons):
        raise ValueError("horizons must lie in 1..N")
    x = np.zeros(sys.d) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    t_prep0 = time.perf_counter()
    ctl = AdaptiveController(sys, cfg)
    prep_time = time.perf_counter() - t_prep0
    times = {n: [] for n in horizons}
    statuses = {n: {} for n in horizons}
    for _ in range(reps):
        for n in horizons:
            t0 = time.perf_counter()
            q, h = ctl.templates[n].parts(x)
            out = ctl.solvers[n].solve(q, h)
            times[n].append(time.perf_counter() - t0)
            statuses[n][str(out.status)] = statuses[n].get(str(out.status), 0) + 1
    rows = []
    for n in horizons:
        tpl = ctl.templates[n]
        t = np.asarray(times[n])
        rows.append(
            {
                "N_t": n,
                "mean_s": float(t.mean()),
                "median_s": float(np.median(t)),
                "min_s": float(t.min()),
                "max_s": float(t.max()),
                "reps": reps,
                "statuses": statuses[n],
                "n_variables": tpl.n_vars,
                "n_constraints": tpl.G.shape[0],
                "factor_nnz": ctl.solvers[n].factor_nnz,
                "reference_time_s": REFERENCE_TIMES_S.get(n),
            }
        )
    return {
        "timing_includes": "QP data assembly + ParametricQP.solve of each horizon",
        "timing_excludes": "problem parsing, template and factorization preparation, "
        "the controller's affine laws (central law 0 and active-set laws)",
        "preparation_time_s": prep_time,
        "x0": x.tolist(),
        "kernel": active_kernel(),
        "rows": rows,
    }
