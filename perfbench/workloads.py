"""The two workloads, each closed loop with one client.

* ``mc_closed_loop``: the adaptive controller on the default problem, run
  for 50 steps from each of the five acceptance-suite initial states
  against ``sample_realization`` draws.  Operation = one closed-loop step.
  Every step solves all five horizons and never calls the LP layer, so QP
  changes show here and an LP-first infeasibility path must show nothing.
* ``roa_grid``: the 10x10 grid over X, each point classified by the adaptive
  and by the baseline controller.  Operation = one point classified by one
  controller.  It is the only workload with infeasible points, so the only
  one that runs ADMM infeasibility detection, the HiGHS feasibility probe,
  Farkas certificates and ``BaselineController``.

Terminal synthesis (geometry and HiGHS LPs, no QP solve) runs in the set-up
of both workloads, and ``setup_s`` times it; ``roa_grid`` adds the lumped
baseline terminal set.  It has no workload of its own: on identical inputs,
runs of synthesis-heavy work read up to 25 % apart as the host's speed
drifted, above any bound the benchmark may set.

Each workload's inputs are a fixed bank (the grid, and realizations drawn
once from ``BANK_SEED``); ``--seed`` sets the order in which a unit runs
them.  Realizations drawn afresh per seed made the run-to-run spread of
input variance alone exceed any allowed bound, because slow closed-loop
steps cluster in a few realizations (p90 spread 39 %, steps/s 15 % over
five seeds).

A workload runs in units (one pass over its bank), so every run measures the
same mix, and reports the median over units of each unit's statistics.  The
host's speed drifts by 10-25 % for tens of seconds at a time; a median over
units rejects a drift that hits a minority of units.  A grid pass takes
about 30 s, so only ``mc_closed_loop`` runs several units.  ``run_units``
keeps starting units while the next one is expected to end within the time
budget; the first ``min_units`` always run and the output digest covers
exactly them, taken in bank order, so every run of the same code gives the
same digest.
"""
from __future__ import annotations

import hashlib
import json
import time

import numpy as np

# modules, not names: the traced run wraps attributes of these modules
from rampc import baseline, controller, simulator, system

import checks

X0_SET = [(6.0, -6.0), (-6.0, 6.0), (4.0, 4.0), (-4.0, -4.0), (7.0, 0.0)]
STEPS = 50
GRID_N = 10
BANK_SEED = 0


def _seed(*parts):
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


class Stack:
    """The default problem brought up the way a user brings it up.

    The baseline is prepared only for the workload that runs it, so that
    each workload's set-up is what it needs before its first operation.
    """

    def __init__(self, problem_data, with_baseline):
        self.prob = system.load_problem_dict(problem_data, origin="default")
        p = self.prob
        self.cfg = controller.config_from_problem(p)
        self.ctl = controller.AdaptiveController(p.system, self.cfg)
        self.bcfg = self.bctl = None
        if with_baseline:
            self.bcfg = baseline.make_baseline_config(p.system, p.K, p.P, p.R, p.N)
            self.bctl = baseline.BaselineController(p.system, self.bcfg)

    def label_solvers(self, tracer):
        for n, solver in self.ctl.solvers.items():
            tracer.labels[id(solver)] = n
        if self.bctl is not None:
            tracer.labels[id(self.bctl.solver)] = "baseline"


class Workload:
    min_units = 1
    needs_baseline = False

    def __init__(self, stack, seed, smoke=False):
        self.stack = stack
        self.seed = seed
        self.smoke = smoke
        self.latencies_ms = []
        self.busy_s = 0.0
        self.attempted = 0
        self.failures = []  # (op description, reason)
        self.units = []  # (latencies_ms, busy_s) of each unit run
        self._digest = hashlib.sha256()
        sets = [stack.cfg.terminal.X_N] + ([stack.bcfg.X_N_lump] if stack.bcfg else [])
        for S in sets:
            reason = checks.terminal_set_failure(S)
            if reason:
                self.fail("set-up", reason)
            self.digest_update(0, S.H, S.h)

    def digest_update(self, unit, *arrays):
        if unit < self.min_units:
            for a in arrays:
                self._digest.update(np.ascontiguousarray(a, dtype=float).tobytes())

    @property
    def digest(self):
        return self._digest.hexdigest()

    def fail(self, what, reason):
        self.failures.append((what, reason))


class MonteCarlo(Workload):
    name = "mc_closed_loop"
    min_units = 5  # metrics are medians over units; a unit takes 6-9 s

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        sys_ = self.stack.prob.system
        x0s, self.steps = (X0_SET[:2], 5) if self.smoke else (X0_SET, STEPS)
        self.bank = [
            (np.asarray(x0), system.sample_realization(sys_, self.steps, seed=_seed(BANK_SEED, i)))
            for i, x0 in enumerate(x0s)
        ]

    def unit(self, k):
        s = self.stack
        sys_ = s.prob.system
        outputs = [None] * len(self.bank)
        for idx in np.random.default_rng(_seed(self.seed, k)).permutation(len(self.bank)):
            x0, real = self.bank[idx]
            t0 = time.perf_counter()
            trace = simulator.simulate_closed_loop(sys_, s.cfg, x0, self.steps, real, controller=s.ctl)
            self.busy_s += time.perf_counter() - t0
            self.attempted += self.steps
            self.latencies_ms.extend(r.solve_time * 1e3 for r in trace.records)
            for t, reason in sorted(checks.closed_loop_failures(sys_, trace, real, self.steps).items()):
                self.fail("unit %d run %d step %d" % (k, idx, t), reason)
            outputs[idx] = (trace.inputs, [-1 if r.N_star is None else r.N_star for r in trace.records])
        self.digest_update(k, *[a for pair in outputs for a in pair])


class RoaGrid(Workload):
    name = "roa_grid"
    needs_baseline = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        X = self.stack.prob.system.X
        lo, hi = X.bounding_box()
        n = 3 if self.smoke else GRID_N
        axes = [np.linspace(lo[j], hi[j], n) for j in range(X.dim)]
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        self.points = pts[[X.contains(p) for p in pts]]

    def unit(self, k):
        s = self.stack
        sys_ = s.prob.system
        rng = np.random.default_rng(_seed(self.seed, k))
        kinds = {
            "adaptive": (s.ctl, s.ctl.templates),
            "baseline": (s.bctl, {s.bcfg.N: s.bctl.template}),
        }
        n = len(self.points)
        masks = {kind: np.zeros(n, dtype=bool) for kind in kinds}
        n_star = np.full(n, -1.0)
        for idx in rng.permutation(n):
            x = self.points[idx]
            for kind in rng.permutation(list(kinds)):
                ctl, templates = kinds[kind]
                t0 = time.perf_counter()
                sol = ctl.solve(x)
                dt = time.perf_counter() - t0
                self.busy_s += dt
                self.latencies_ms.append(dt * 1e3)
                self.attempted += 1
                masks[kind][idx] = sol.is_feasible
                if kind == "adaptive" and sol.is_feasible:
                    n_star[idx] = sol.N_star
                reason = checks.classification_failure(sys_, templates, x, sol)
                if reason:
                    self.fail("unit %d point %s %s" % (k, x.tolist(), kind), reason)
        for idx in checks.dominance_failures(masks["adaptive"], masks["baseline"]):
            self.fail("unit %d point %s adaptive" % (k, self.points[idx].tolist()),
                      "baseline-feasible point classified infeasible")
        self.digest_update(k, masks["adaptive"], masks["baseline"], n_star)


WORKLOADS = {w.name: w for w in (MonteCarlo, RoaGrid)}


def run_units(work, seconds, n_units=None):
    """Run ``n_units`` units, or as many as fit in ``seconds`` (at least ``min_units``)."""
    t0 = time.perf_counter()
    k = 0
    last = 0.0
    while (k < n_units) if n_units is not None else (
        k < work.min_units or time.perf_counter() - t0 + last <= seconds
    ):
        t = time.perf_counter()
        n_lat, busy = len(work.latencies_ms), work.busy_s
        work.unit(k)
        work.units.append((work.latencies_ms[n_lat:], work.busy_s - busy))
        last = time.perf_counter() - t
        k += 1
    return k


def load_default_problem():
    return json.loads(system.default_problem_path().read_text(encoding="utf-8"))
