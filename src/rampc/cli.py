"""Command-line frontend.

Subcommands: terminal-set, simulate, roa, rollout, bench.  Infeasibility of
a controller at some state is a measurement, not an error: such runs exit 0
with the outcome recorded in the output file.  Exit codes: 0 success,
2 input validation failure, 3 synthesis failure, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .baseline import make_baseline_config
from .controller import config_from_problem
from .errors import (
    ConvergenceError,
    EmptyTerminalSetError,
    LyapunovDivergenceError,
    ProblemFormatError,
    SolverNumericalError,
    VertexUnstableError,
)
from .report import make_manifest, set_picture_svg, write_report_json, write_svg, write_trace_csv
from .simulator import (
    benchmark,
    estimate_roa,
    estimate_roa_baseline,
    simulate_closed_loop,
    simulate_rollout,
)
from .system import default_problem_path, load_problem, sample_realization

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SYNTHESIS = 3
EXIT_NUMERICAL = 4


def _parse_x0(text, d):
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise ProblemFormatError("--x0", "expected comma-separated numbers") from None
    if len(vals) != d:
        raise ProblemFormatError("--x0", "expected %d components, got %d" % (d, len(vals)))
    if not np.all(np.isfinite(vals)):
        raise ProblemFormatError("--x0", "expected finite numbers, got %s" % text)
    return np.asarray(vals)


def _parse_horizons(text, n_max):
    if text is None:
        return list(range(1, n_max + 1))
    try:
        if ".." in text:
            a, b = text.split("..")
            vals = list(range(int(a), int(b) + 1))
        else:
            vals = [int(v) for v in text.split(",")]
    except ValueError:
        raise ProblemFormatError("--horizons", 'expected "a..b" or "a,b,c"') from None
    if not vals or any(v < 1 or v > n_max for v in vals):
        raise ProblemFormatError("--horizons", "horizons must lie in 1..%d" % n_max)
    return vals


def _require_positive(args, *flags):
    for flag in flags:
        value = getattr(args, flag)
        if value < 1:
            raise ProblemFormatError("--" + flag, "must be at least 1, got %d" % value)


def _resolve_problem(path):
    if path == "default":
        return default_problem_path()
    return path


def _load(args):
    path = _resolve_problem(args.problem)
    prob = load_problem(path)
    return path, prob


def _flags_dict(args, keys):
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _trace_run(args, run):
    """Shared body of ``simulate`` and ``rollout``: one run written as a CSV trace."""
    _require_positive(args, "steps")
    path, prob = _load(args)
    x0 = _parse_x0(args.x0, prob.d)
    cfg = config_from_problem(prob)
    seed = args.seed if args.seed is not None else prob.default_seed
    manifest = make_manifest(
        args.command, path, seed, prob.source,
        _flags_dict(args, ["x0", "steps", "times"]),
    )
    real = sample_realization(prob.system, args.steps, seed)
    trace = run(prob.system, cfg, x0, args.steps, real)
    write_trace_csv(args.out, trace, manifest, with_times=args.times)
    return trace


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_terminal_set(args):
    path, prob = _load(args)
    cfg = config_from_problem(prob)
    term = cfg.terminal
    manifest = make_manifest(
        "terminal-set", path, None, prob.source, _flags_dict(args, [])
    )
    payload = {
        "terminal_set": term.X_N.to_dict(),
        "terminal_cost": term.P_N.tolist(),
        "feedback_gain": term.K.tolist(),
        "descent_residual": term.descent_residual,
        "screening": {
            "vertex_spectral_radii": list(term.vertex_spectral_radii),
            "hull_samples": term.hull_screen_samples,
            "hull_max_spectral_radius": term.hull_screen_max_radius,
            "note": "hull stability is sampled, not certified",
        },
        "net_additive_bound": {
            "w_tilde_max": cfg.bound.w_tilde_max,
            "x_max": cfg.bound.x_max,
            "u_max": cfg.bound.u_max,
            "w_max": cfg.bound.w_max,
            "dA_norm": cfg.bound.dA_norm,
            "dB_norm": cfg.bound.dB_norm,
        },
    }
    write_report_json(args.out, payload, manifest)
    if args.svg:
        svg = set_picture_svg(
            [
                (prob.system.X, "#cccccc", "state constraints"),
                (term.X_N, "#ffd92f", "terminal set"),
            ],
            manifest=manifest,
        )
        write_svg(args.svg, svg)
    print("terminal set: %d facets; descent residual %.2e" % (term.X_N.n_rows, term.descent_residual))
    return EXIT_OK


def cmd_simulate(args):
    trace = _trace_run(args, simulate_closed_loop)
    if trace.numerical_failure_at is not None:
        raise SolverNumericalError("solver failed at step %d" % trace.numerical_failure_at)
    if trace.infeasible_at is not None:
        print("infeasible at step %d (trace flagged; see %s)" % (trace.infeasible_at, args.out))
    else:
        print(
            "simulated %d steps; violations=%d iss_violations=%d"
            % (trace.completed, trace.violations, trace.iss_violations)
        )
    return EXIT_OK


def cmd_roa(args):
    _require_positive(args, "grid", "jobs")
    path, prob = _load(args)
    cfg = config_from_problem(prob)
    manifest = make_manifest(
        "roa", path, None, prob.source, _flags_dict(args, ["grid", "baseline"])
    )
    est = estimate_roa(prob.system, cfg, args.grid, jobs=args.jobs)
    payload = {
        "grid_n": args.grid,
        "n_points": len(est.grid),
        "n_feasible": est.n_feasible,
        "area": est.area,
        "hull": est.hull.hull.tolist() if est.hull is not None else None,
        "grid": est.grid.tolist(),
        "feasible_mask": est.feasible_mask.tolist(),
    }
    if prob.d != 2:
        payload["warning"] = "hull/area only computed for 2-d problems"
    layers = [(prob.system.X, "#cccccc", "state constraints")]
    points = (est.grid, est.feasible_mask)
    if args.baseline:
        bcfg = make_baseline_config(
            prob.system, prob.K, prob.P, prob.R, prob.N, bound=cfg.bound
        )
        best = estimate_roa_baseline(prob.system, bcfg, args.grid, jobs=args.jobs)
        contained = bool(np.all(~best.feasible_mask | est.feasible_mask))
        payload["baseline"] = {
            "n_feasible": best.n_feasible,
            "area": best.area,
            "hull": best.hull.hull.tolist() if best.hull is not None else None,
            "feasible_mask": best.feasible_mask.tolist(),
            "mask_contained_in_proposed": contained,
        }
        if est.hull is not None:
            layers.append((est.hull.hull, "#ffd92f", "feasible grid hull (adaptive)"))
        if best.hull is not None:
            layers.append((best.hull.hull, "#999999", "feasible grid hull (lumped baseline)"))
    elif est.hull is not None:
        layers.append((est.hull.hull, "#ffd92f", "feasible grid hull (adaptive)"))
    write_report_json(args.out, payload, manifest)
    if args.svg and prob.d == 2:
        write_svg(args.svg, set_picture_svg(layers, points=points, manifest=manifest))
    print("roa: %d/%d grid points feasible, hull area %.4f" % (est.n_feasible, len(est.grid), est.area))
    return EXIT_OK


def cmd_rollout(args):
    trace = _trace_run(args, simulate_rollout)
    if trace.numerical_failure_at is not None:
        raise SolverNumericalError("time-0 solve failed numerically")
    if trace.infeasible_at is not None:
        print("time-0 problem infeasible (trace flagged; see %s)" % args.out)
    else:
        print("rolled out %d steps; violations=%d" % (trace.completed, trace.violations))
    return EXIT_OK


def cmd_bench(args):
    _require_positive(args, "reps")
    path, prob = _load(args)
    cfg = config_from_problem(prob)
    horizons = _parse_horizons(args.horizons, prob.N)
    manifest = make_manifest(
        "bench", path, None, prob.source, _flags_dict(args, ["horizons", "reps"])
    )
    x0 = _parse_x0(args.x0, prob.d) if args.x0 else None
    payload = benchmark(prob.system, cfg, horizons, args.reps, x0=x0)
    write_report_json(args.out, payload, manifest)
    for row in payload["rows"]:
        print("N_t=%d  median %.6fs  mean %.6fs" % (row["N_t"], row["median_s"], row["mean_s"]))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="rampc",
        description="Robust adaptive-horizon MPC: synthesis, simulation, ROA, benchmarks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *, seed=False, x0=False, steps=False, svg=False, out_required=True):
        sp.add_argument("--problem", required=True, help='problem JSON path (or "default")')
        sp.add_argument("--out", required=out_required, help="output file path")
        if seed:
            sp.add_argument("--seed", type=int, default=None, help="RNG seed (default: problem file)")
        if x0:
            sp.add_argument("--x0", required=True, help='initial state "v1,v2,..."')
        if steps:
            sp.add_argument("--steps", type=int, default=50)
            sp.add_argument(
                "--times", action="store_true",
                help="include wall-clock solve times in the CSV (breaks byte reproducibility)",
            )
        if svg:
            sp.add_argument("--svg", default=None, help="also write an SVG picture here")

    sp = sub.add_parser("terminal-set", help="synthesize and export the terminal components")
    common(sp, svg=True)
    sp.set_defaults(func=cmd_terminal_set)

    sp = sub.add_parser("simulate", help="closed-loop simulation to a CSV trace")
    common(sp, seed=True, x0=True, steps=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("roa", help="grid-sampled region of attraction")
    common(sp, svg=True)
    sp.add_argument("--grid", type=int, default=10, help="grid points per axis")
    sp.add_argument("--baseline", action="store_true", help="also evaluate the lumped baseline")
    sp.add_argument("--jobs", type=int, default=1, help="worker cap for the grid evaluation")
    sp.set_defaults(func=cmd_roa)

    sp = sub.add_parser("rollout", help="open-loop safe rollout of the time-0 plan")
    common(sp, seed=True, x0=True, steps=True)
    sp.set_defaults(func=cmd_rollout)

    sp = sub.add_parser("bench", help="per-horizon online timing report")
    common(sp)
    sp.add_argument("--horizons", default=None, help='"a..b" or "a,b,c" (default 1..N)')
    sp.add_argument("--reps", type=int, default=30)
    sp.add_argument("--x0", default=None, help="benchmark state (default: origin)")
    sp.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProblemFormatError as exc:
        print("input validation failed: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except (VertexUnstableError, EmptyTerminalSetError, LyapunovDivergenceError, ConvergenceError) as exc:
        print("synthesis failed: %s" % exc, file=sys.stderr)
        return EXIT_SYNTHESIS
    except SolverNumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except json.JSONDecodeError as exc:  # pragma: no cover - loader wraps these
        print("input validation failed: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
