"""Metric catalogue and the computations behind every reported number.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` (the self-test
checks that they agree) and add, for each per-layer metric, the end-to-end
metric it should move and the workload it moves it on.  Per-layer metrics
of a layer a workload never calls read 0.
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracing import ATTRS, END, NAME, OP, PARENT, START, self_times

# name, unit, better, bound.  The bounds cover the host's own drift: over two
# sets of ten runs of identical work on a 2-vCPU VM the quartile spread was up
# to 18 % of the median for op_ms_p50, 13 % for ops_per_s and 9 % for op_ms_p90.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.2),
    ("ops_per_s", "1/s", "higher", 0.25),
]

LAYERS = ("controller", "baseline", "qpsolver", "lp", "geometry", "system", "simulator")

_STEP = "op_ms_p50 and ops_per_s on mc_closed_loop"
_INFEAS = "op_ms_p90 and ops_per_s on roa_grid"
_SYNTH = "setup_s on every workload (terminal synthesis runs in set-up)"

# name, unit, better, what it should move
PER_LAYER = (
    [("qpsolver.solve_ms_p50.N%d" % n, "ms", "lower",
      _STEP + "; op_ms_p50 on roa_grid") for n in range(1, 6)]
    + [
        ("qpsolver.solve_calls_per_op", "count", "lower", _STEP + " (pruning lowers it from 5)"),
        ("qpsolver.iters_p50.N5", "count", "lower", _STEP),
        ("qpsolver.us_per_iter.N5", "us", "lower", _STEP + " (sparse or presolve changes)"),
        ("qpsolver.polished_frac", "ratio", "higher", _STEP),
        ("qpsolver.infeasible_iters_p50", "count", "lower", _INFEAS),
        ("qpsolver.infeasible_ms_p50", "ms", "lower", _INFEAS),
        ("qpsolver.busy_frac", "ratio", "lower", _STEP),
        ("lp.probe_calls_per_op", "count", "lower", _INFEAS + "; 0 on mc_closed_loop"),
        ("lp.probe_ms_p50", "ms", "lower", _INFEAS),
        ("lp.probe_confirm_frac", "ratio", "higher", _INFEAS),
        ("lp.farkas_ms_p50", "ms", "lower", _INFEAS),
        ("lp.geometry_calls_per_setup", "count", "lower", _SYNTH),
        ("lp.geometry_ms_p50", "ms", "lower", _SYNTH),
        ("lp.busy_frac", "ratio", "lower", _SYNTH + "; " + _INFEAS),
        ("geometry.mrpi_ms_p50", "ms", "lower", _SYNTH),
        ("geometry.mrpi_iters", "count", "lower", _SYNTH),
        ("geometry.mrpi_facets", "count", "lower", _SYNTH),
        ("controller.assemble_us_p50.N5", "us", "lower", _STEP),
        ("controller.select_overhead_frac", "ratio", "lower", _STEP),
        ("controller.nstar_eq_N_frac", "ratio", "higher",
         "nothing: the share of steps horizon pruning relies on; selection must not change"),
        ("controller.feasible_ms_p50", "ms", "lower", "op_ms_p50 on mc_closed_loop and roa_grid"),
        ("controller.infeasible_ms_p50", "ms", "lower", _INFEAS),
        ("controller.synthesize_ms_p50", "ms", "lower", _SYNTH),
        ("controller.hull_screen_ms", "ms", "lower", _SYNTH + " (a certified screen replaces it)"),
        ("controller.prepare_ms", "ms", "lower", "setup_s on every workload"),
        ("baseline.solve_ms_p50", "ms", "lower", "ops_per_s on roa_grid"),
        ("baseline.infeasible_ms_p50", "ms", "lower", "ops_per_s and op_ms_p90 on roa_grid"),
        ("baseline.config_ms_p50", "ms", "lower", "setup_s on roa_grid"),
        ("simulator.overhead_frac", "ratio", "lower", "ops_per_s on mc_closed_loop"),
        ("system.load_ms", "ms", "lower", "setup_s on every workload"),
        ("system.bound_ms", "ms", "lower", "setup_s on every workload"),
        ("trace.overhead_frac", "ratio", "lower", "nothing: cost of tracing itself"),
    ]
    + [("self_frac.%s" % layer, "ratio", "lower",
        "the end-to-end metrics of the workloads whose time it holds") for layer in LAYERS]
    + [("self_frac.untraced", "ratio", "lower", "nothing: benchmark code and untraced program code")]
)


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def _parent_name(spans, i):
    parent = spans[i][PARENT]
    return spans[parent][NAME] if parent >= 0 else ""


def end_to_end(setup_times, units):
    """Median set-up time, and the median over units of each unit's statistics."""
    per_unit = [
        (np.percentile(lat, 50), np.percentile(lat, 90), len(lat) / busy) for lat, busy in units
    ]
    p50, p90, rate = (float(np.median(col)) for col in zip(*per_unit))
    return {"setup_s": float(np.median(setup_times)), "op_ms_p50": p50, "op_ms_p90": p90, "ops_per_s": rate}


def per_layer(spans, n_ops, wall, overhead):
    """Per-layer metrics from the spans of one traced region of ``wall`` seconds.

    The region holds one set-up (op -1) and then the operations.  Per-operation
    counts use the spans inside operations; latency medians use every span.
    """
    selfs = self_times(spans)
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s[NAME]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def attr(i, key):  # None when the call raised before its attributes were taken
        return spans[i][ATTRS][key] if spans[i][ATTRS] else None

    def ms(idx):
        return _median([dur(i) * 1e3 for i in idx])

    def per_op(idx):
        return sum(1 for i in idx if spans[i][OP] >= 0) / n_ops

    def frac(num, den):
        return num / den if den else 0.0

    m = {}
    qp = by["qpsolver.solve"]
    for n in range(1, 6):
        m["qpsolver.solve_ms_p50.N%d" % n] = ms([i for i in qp if attr(i, "label") == n])
    n5 = [i for i in qp if attr(i, "label") == 5]
    infeasible = [i for i in qp if attr(i, "status") == "infeasible"]
    optimal = [i for i in qp if attr(i, "status") == "optimal"]
    m["qpsolver.solve_calls_per_op"] = per_op(qp)
    m["qpsolver.iters_p50.N5"] = _median([attr(i, "iterations") for i in n5])
    m["qpsolver.us_per_iter.N5"] = frac(
        sum(dur(i) for i in n5) * 1e6, sum(attr(i, "iterations") for i in n5)
    )
    m["qpsolver.polished_frac"] = frac(sum(attr(i, "polished") for i in optimal), len(optimal))
    m["qpsolver.infeasible_iters_p50"] = _median([attr(i, "iterations") for i in infeasible])
    m["qpsolver.infeasible_ms_p50"] = ms(infeasible)
    m["qpsolver.busy_frac"] = sum(dur(i) for i in qp) / wall

    probes = by["lp.probe"]
    m["lp.probe_calls_per_op"] = per_op(probes)
    m["lp.probe_ms_p50"] = ms(probes)
    m["lp.probe_confirm_frac"] = frac(sum(attr(i, "confirmed") for i in probes), len(probes))
    m["lp.farkas_ms_p50"] = ms(by["lp.farkas"])
    m["lp.geometry_calls_per_setup"] = sum(1 for i in by["lp.solve_lp"] if spans[i][OP] < 0)
    m["lp.geometry_ms_p50"] = ms(by["lp.solve_lp"])
    m["lp.busy_frac"] = sum(
        dur(i) for i, s in enumerate(spans)
        if s[NAME].startswith("lp.") and not _parent_name(spans, i).startswith("lp.")
    ) / wall

    mrpi = by["geometry.mrpi"]
    pre_sets = defaultdict(int)
    for i in by["geometry.pre_set"]:
        pre_sets[spans[i][PARENT]] += 1
    m["geometry.mrpi_ms_p50"] = ms(mrpi)
    m["geometry.mrpi_iters"] = _median([pre_sets[i] for i in mrpi])
    m["geometry.mrpi_facets"] = _median([attr(i, "facets") for i in mrpi if spans[i][ATTRS]])

    solves = by["controller.solve"]
    m["controller.assemble_us_p50.N5"] = 1e3 * ms(
        [i for i in by["controller.parts"]
         if attr(i, "horizon") == 5 and _parent_name(spans, i) == "controller.solve"]
    )
    m["controller.select_overhead_frac"] = frac(
        sum(selfs[i] for i in solves), sum(dur(i) for i in solves)
    )
    m["controller.nstar_eq_N_frac"] = frac(
        sum(attr(i, "N_star") == attr(i, "N") for i in solves), len(solves)
    )
    m["controller.feasible_ms_p50"] = ms([i for i in solves if attr(i, "status") == "optimal"])
    m["controller.infeasible_ms_p50"] = ms([i for i in solves if attr(i, "status") == "infeasible"])
    m["controller.synthesize_ms_p50"] = ms(by["controller.synthesize_terminal"])
    m["controller.hull_screen_ms"] = _median([selfs[i] * 1e3 for i in by["controller.synthesize_terminal"]])
    m["controller.prepare_ms"] = ms(by["controller.prepare"])

    bsolves = by["baseline.solve"]
    m["baseline.solve_ms_p50"] = ms([i for i in bsolves if attr(i, "status") == "optimal"])
    m["baseline.infeasible_ms_p50"] = ms([i for i in bsolves if attr(i, "status") == "infeasible"])
    m["baseline.config_ms_p50"] = ms(by["baseline.config"])

    sims = by["simulator.simulate"]
    in_sim = sum(dur(i) for i in solves if _parent_name(spans, i) == "simulator.simulate")
    m["simulator.overhead_frac"] = frac(sum(dur(i) for i in sims) - in_sim, sum(dur(i) for i in sims))
    m["system.load_ms"] = ms(by["system.load"])
    m["system.bound_ms"] = ms(by["system.bound"])
    m["trace.overhead_frac"] = overhead

    layer_self = defaultdict(float)
    for s, t in zip(spans, selfs):
        layer_self[s[NAME].split(".")[0]] += t
    for layer in LAYERS:
        m["self_frac.%s" % layer] = layer_self.pop(layer, 0.0) / wall
    if layer_self:
        raise ValueError("spans outside the known layers: %s" % sorted(layer_self))
    roots = sum(dur(i) for i, s in enumerate(spans) if s[PARENT] < 0)
    m["self_frac.untraced"] = (wall - roots) / wall
    return m


def self_time_failure(spans, metrics):
    """Reason the self times do not add up to the traced wall time, or None."""
    if min(self_times(spans), default=0.0) < -1e-6:
        return "a child span outlasts its parent"
    total = sum(v for k, v in metrics.items() if k.startswith("self_frac."))
    if abs(total - 1.0) > 1e-6 or metrics["self_frac.untraced"] < 0:
        return "per-layer self times do not add up to the traced wall time (%.9f)" % total
    return None
