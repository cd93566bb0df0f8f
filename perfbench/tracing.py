"""In-memory span tracer that wraps rampc's public calls at their import sites.

Nothing under ``src/`` is changed: ``instrument`` replaces module and class
attributes for the duration of a ``with`` block and puts the originals back
on exit.  A span is ``[name, start, end, parent, op, attrs]`` with times from
``time.perf_counter``; ``parent`` is the index of the enclosing span (-1 at
the root) and ``op`` the id of the benchmark operation it belongs to (-1 in
set-up).  Calls run on one thread, so children nest strictly inside their
parent and self times never overlap.
"""
from __future__ import annotations

import csv
import functools
import json
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.labels = {}  # id(object) -> label, e.g. the horizon of a ParametricQP
        self._stack = []
        self._patches = []

    def call(self, name, fn, args, kwargs, new_op=False, attrs=None):
        if new_op:
            self.op += 1
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            self._stack.pop()
        if attrs is not None:
            span[ATTRS] = attrs(self, args, result)
        return result

    def wrap(self, owner, attr, name, *, new_op=False, attrs=None):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            return tracer.call(name, orig, args, kwargs, new_op, attrs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write_csv(self, path, t0):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "op", "attrs"])
            for i, s in enumerate(self.spans):
                out.writerow(
                    [i, s[NAME], "%.9f" % (s[START] - t0), "%.9f" % (s[END] - t0),
                     s[PARENT], s[OP], json.dumps(s[ATTRS]) if s[ATTRS] else ""]
                )


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


# -- what gets wrapped ---------------------------------------------------------

_OP_ROOTS = ("controller.solve", "baseline.solve")


def _qp_attrs(tracer, args, out):
    return {
        "label": tracer.labels.get(id(args[0])),
        "status": str(out.status),
        "iterations": out.iterations,
        "polished": bool(out.polished),
    }


def _solve_attrs(tracer, args, sol):
    ctl = args[0]
    return {"status": str(sol.status), "N_star": sol.N_star, "N": ctl.cfg.N}


def _parts_attrs(tracer, args, result):
    return {"horizon": args[0].horizon}


def _probe_attrs(tracer, args, result):
    feas, cert = result
    return {"confirmed": feas is False and cert is not None}


def _mrpi_attrs(tracer, args, result):
    return {"facets": int(result.n_rows)}


@contextmanager
def instrument(tracer):
    """Wrap every traced public call for the duration of the block.

    Each controller solve starts a new operation.
    """
    from rampc import baseline, controller, geometry, simulator, system
    from rampc.qpsolver import admm, lp

    def wrap(owner, attr, name, attrs=None):
        tracer.wrap(owner, attr, name, new_op=name in _OP_ROOTS, attrs=attrs)

    try:
        wrap(system, "load_problem_dict", "system.load")
        wrap(system, "sample_realization", "system.sample_realization")
        wrap(controller, "net_additive_bound", "system.bound")
        wrap(baseline, "net_additive_bound", "system.bound")
        wrap(system, "solve_lp", "lp.solve_lp")
        wrap(geometry, "solve_lp", "lp.solve_lp")
        wrap(admm, "feasible_point", "lp.probe", _probe_attrs)
        wrap(lp, "farkas_certificate", "lp.farkas")
        wrap(controller, "max_robust_invariant", "geometry.mrpi", _mrpi_attrs)
        wrap(baseline, "max_robust_invariant", "geometry.mrpi", _mrpi_attrs)
        wrap(geometry, "pre_set", "geometry.pre_set")
        wrap(controller, "synthesize_terminal", "controller.synthesize_terminal")
        wrap(controller, "config_from_problem", "controller.config")
        wrap(baseline, "make_baseline_config", "baseline.config")
        wrap(controller.AdaptiveController, "__init__", "controller.prepare")
        wrap(baseline.BaselineController, "__init__", "baseline.prepare")
        wrap(controller.AdaptiveController, "solve", "controller.solve", _solve_attrs)
        wrap(baseline.BaselineController, "solve", "baseline.solve", _solve_attrs)
        wrap(controller.Case1Template, "parts", "controller.parts", _parts_attrs)
        wrap(controller.CaseNTemplate, "parts", "controller.parts", _parts_attrs)
        wrap(admm.ParametricQP, "solve", "qpsolver.solve", _qp_attrs)
        wrap(simulator, "simulate_closed_loop", "simulator.simulate")
        yield tracer
    finally:
        tracer.restore()
