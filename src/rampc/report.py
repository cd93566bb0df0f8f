"""Output artifacts: run manifests, CSV traces, JSON reports, SVG pictures.

Every output embeds its manifest so a result can be reproduced from the
file alone.  Outputs are byte-deterministic for fixed (problem, flags,
seed): the manifest timestamp comes from SOURCE_DATE_EPOCH if set, else the
problem file's mtime, and wall-clock solve times are only written when
explicitly requested.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .geometry import Polytope, vertices_2d

TOOL_VERSION = "rampc 0.1.0"


@dataclass(frozen=True)
class RunManifest:
    command: str
    problem: str
    seed: int | None
    tool_version: str
    config_hash: str
    timestamp: str

    def as_dict(self):
        return asdict(self)

    def as_json(self):
        return json.dumps(self.as_dict(), sort_keys=True)


def config_hash(problem_dict: dict, flags: dict) -> str:
    blob = json.dumps({"problem": problem_dict, "flags": flags}, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _deterministic_timestamp(problem_path) -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        ts = float(epoch)
    else:
        try:
            ts = Path(problem_path).stat().st_mtime
        except OSError:
            ts = 0.0
    return datetime.fromtimestamp(ts, tz=timezone.utc).isoformat()


def make_manifest(command, problem_path, seed, problem_dict, flags) -> RunManifest:
    return RunManifest(
        command=command,
        problem=str(problem_path),
        seed=seed,
        tool_version=TOOL_VERSION,
        config_hash=config_hash(problem_dict, flags),
        timestamp=_deterministic_timestamp(problem_path),
    )


# ---------------------------------------------------------------------------
# CSV traces
# ---------------------------------------------------------------------------


def trace_csv_text(trace, manifest: RunManifest | None, *, with_times=False) -> str:
    """One row per step (t, state, input, residual, N*, J*, margin[, time])
    plus a trailing row holding the final state."""
    d = trace.states.shape[1]
    m = trace.inputs.shape[1]
    buf = io.StringIO()
    if manifest is not None:
        buf.write("# manifest: %s\n" % manifest.as_json())
    w = csv.writer(buf, lineterminator="\n")
    header = (
        ["t"]
        + ["x%d" % i for i in range(d)]
        + ["u%d" % i for i in range(m)]
        + ["wt%d" % i for i in range(d)]
        + ["N_star", "J_star", "margin"]
    )
    if with_times:
        header.append("solve_time")
    w.writerow(header)

    def fmt(v):
        if v is None or (isinstance(v, float) and not np.isfinite(v)):
            return ""
        return repr(float(v))

    for rec in trace.records:
        t = rec.t
        row = [t] + [fmt(v) for v in trace.states[t]]
        if rec.feasible and t < len(trace.inputs):
            row += [fmt(v) for v in trace.inputs[t]]
            row += [fmt(v) for v in trace.w_tilde[t]]
        else:
            row += [""] * (m + d)
        row += [rec.N_star if rec.N_star is not None else "", fmt(rec.J_star),
                fmt(min(rec.margin_x, rec.margin_u) if np.isfinite(rec.margin_u) else rec.margin_x)]
        if with_times:
            row.append(fmt(rec.solve_time))
        w.writerow(row)
    # trailing row: final state only
    tf = trace.completed
    row = [tf] + [fmt(v) for v in trace.states[tf]] + [""] * (m + d)
    row += ["", "", fmt(trace.final_margin_x)]
    if with_times:
        row.append("")
    w.writerow(row)
    return buf.getvalue()


def write_trace_csv(path, trace, manifest=None, *, with_times=False):
    Path(path).write_text(trace_csv_text(trace, manifest, with_times=with_times), encoding="utf-8")


# ---------------------------------------------------------------------------
# JSON reports
# ---------------------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def write_report_json(path, payload: dict, manifest: RunManifest | None = None):
    doc = dict(payload)
    if manifest is not None:
        doc["manifest"] = manifest.as_dict()
    Path(path).write_text(
        json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# SVG set pictures
# ---------------------------------------------------------------------------

_SVG_SIZE = 640.0
_PAD = 48.0


def _world_to_svg(pts, lo, hi):
    span = np.maximum(hi - lo, 1e-12)
    scale = (_SVG_SIZE - 2 * _PAD) / span.max()
    out = np.empty_like(pts, dtype=float)
    out[:, 0] = _PAD + (pts[:, 0] - lo[0]) * scale
    out[:, 1] = _SVG_SIZE - _PAD - (pts[:, 1] - lo[1]) * scale
    return out


def _polygon_tag(verts, fill, stroke, opacity, label):
    pts = " ".join("%.2f,%.2f" % (x, y) for x, y in verts)
    return (
        '<polygon points="%s" fill="%s" stroke="%s" stroke-width="1.5" '
        'fill-opacity="%.2f"><title>%s</title></polygon>' % (pts, fill, stroke, opacity, label)
    )


def set_picture_svg(
    layers,
    points=None,
    manifest: RunManifest | None = None,
) -> str:
    """Standalone SVG of 2-d sets and optional classified grid points.

    ``layers``: list of (Polytope-or-vertices, fill, label); drawn in order.
    ``points``: optional (pts, mask) pair, feasible/infeasible coloring.
    """
    all_pts = []
    polys = []
    for spec, fill, label in layers:
        verts = vertices_2d(spec) if isinstance(spec, Polytope) else np.asarray(spec, dtype=float)
        if len(verts):
            polys.append((verts, fill, label))
            all_pts.append(verts)
    if points is not None and len(points[0]):
        all_pts.append(np.asarray(points[0], dtype=float))
    stack = np.vstack(all_pts) if all_pts else np.zeros((1, 2))
    lo = stack.min(axis=0)
    hi = stack.max(axis=0)
    body = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (_SVG_SIZE, _SVG_SIZE, _SVG_SIZE, _SVG_SIZE),
    ]
    if manifest is not None:
        body.append("<!-- manifest: %s -->" % manifest.as_json())
    body.append('<rect width="100%" height="100%" fill="white"/>')
    for verts, fill, label in polys:
        svg_pts = _world_to_svg(verts, lo, hi)
        body.append(_polygon_tag(svg_pts, fill, "#333333", 0.45, label))
    if points is not None and len(points[0]):
        pts, mask = points
        svg_pts = _world_to_svg(np.asarray(pts, dtype=float), lo, hi)
        for (x, y), ok in zip(svg_pts, mask):
            color = "#1a9641" if ok else "#d7191c"
            body.append('<circle cx="%.2f" cy="%.2f" r="3" fill="%s"/>' % (x, y, color))
    ly = 20
    for _, fill, label in polys:
        body.append(
            '<rect x="12" y="%d" width="14" height="14" fill="%s" fill-opacity="0.45" '
            'stroke="#333333"/>' % (ly, fill)
        )
        body.append('<text x="32" y="%d" font-size="13" font-family="sans-serif">%s</text>' % (ly + 12, label))
        ly += 20
    if points is not None and len(points[0]):
        body.append('<circle cx="19" cy="%d" r="3" fill="#1a9641"/>' % (ly + 7))
        body.append('<text x="32" y="%d" font-size="13" font-family="sans-serif">feasible grid point</text>' % (ly + 12))
        ly += 20
        body.append('<circle cx="19" cy="%d" r="3" fill="#d7191c"/>' % (ly + 7))
        body.append('<text x="32" y="%d" font-size="13" font-family="sans-serif">infeasible grid point</text>' % (ly + 12))
    body.append("</svg>")
    return "\n".join(body) + "\n"


def write_svg(path, svg_text: str):
    Path(path).write_text(svg_text, encoding="utf-8")
