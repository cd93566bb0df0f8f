"""Uncertain-system model, constraint sets, and uncertainty handling.

The model is x+ = (A_bar + dA) x + (B_bar + dB) u + w with dA, dB confined
to convex hulls of known vertex matrices and w to a compact support W.  The
net-additive bound lumps all of it into an infinity-norm ball:

    wtilde_max = max_j ||dA_j||_inf * x_max + max_k ||dB_k||_inf * u_max + w_max,

where the matrix norm is the induced infinity norm (max absolute row sum)
and x_max/u_max/w_max are infinity-norm radii of the constraint sets.  The
vertex maximum is exact because the induced norm is convex on the hull.
The infinity norm is fixed throughout the package: its dual is the 1-norm,
which keeps every robust counterpart linear and every subproblem a QP.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ProblemFormatError, UnboundedConstraintSetError
from .geometry import Polytope
from .qpsolver import solve_lp


def _induced_inf_norm(M):
    return float(np.abs(M).sum(axis=1).max()) if M.size else 0.0


@dataclass(frozen=True)
class UncertainSystem:
    A_bar: np.ndarray
    B_bar: np.ndarray
    deltaA_vertices: tuple
    deltaB_vertices: tuple
    W: Polytope
    X: Polytope
    U: Polytope

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A_bar, dtype=float))
        B = np.atleast_2d(np.asarray(self.B_bar, dtype=float))
        d, m = A.shape[0], B.shape[1]
        if A.shape != (d, d):
            raise ValueError("A_bar must be square")
        if B.shape != (d, m):
            raise ValueError("B_bar must have %d rows" % d)
        dA = tuple(np.atleast_2d(np.asarray(V, dtype=float)) for V in self.deltaA_vertices)
        dB = tuple(np.atleast_2d(np.asarray(V, dtype=float)) for V in self.deltaB_vertices)
        if not dA or not dB:
            raise ValueError("need at least one vertex matrix for each of dA, dB")
        for V in dA:
            if V.shape != (d, d):
                raise ValueError("deltaA vertex has shape %s, expected %s" % (V.shape, (d, d)))
        for V in dB:
            if V.shape != (d, m):
                raise ValueError("deltaB vertex has shape %s, expected %s" % (V.shape, (d, m)))
        if self.W.dim != d or self.X.dim != d or self.U.dim != m:
            raise ValueError("constraint/disturbance sets have inconsistent dimensions")
        object.__setattr__(self, "A_bar", np.ascontiguousarray(A))
        object.__setattr__(self, "B_bar", np.ascontiguousarray(B))
        object.__setattr__(self, "deltaA_vertices", dA)
        object.__setattr__(self, "deltaB_vertices", dB)
        for name in ("X", "U", "W"):
            _check_compact_origin_interior(getattr(self, name), name)

    @property
    def d(self):
        return self.A_bar.shape[0]

    @property
    def m(self):
        return self.B_bar.shape[1]

    @property
    def n_a(self):
        return len(self.deltaA_vertices)

    @property
    def n_b(self):
        return len(self.deltaB_vertices)

    def vertex_closed_loops(self, K):
        """(A_bar+dA_j) + (B_bar+dB_k) K for every vertex pair, (j, k) ordered."""
        K = np.atleast_2d(np.asarray(K, dtype=float))
        out = []
        for dA in self.deltaA_vertices:
            for dB in self.deltaB_vertices:
                out.append((self.A_bar + dA) + (self.B_bar + dB) @ K)
        return out


def _check_compact_origin_interior(P, name):
    """Assumption check: compact with the origin in the interior."""
    try:
        lo, hi = P.bounding_box()
    except Exception as exc:
        raise UnboundedConstraintSetError("%s is unbounded" % name) from exc
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise UnboundedConstraintSetError("%s is unbounded" % name)
    if np.any(hi <= 0) or np.any(lo >= 0):
        raise ValueError("%s does not contain the origin in its interior" % name)


@dataclass(frozen=True)
class NetAdditiveBound:
    """Components of the lumped uncertainty bound (infinity norms)."""

    w_tilde_max: float
    x_max: float
    u_max: float
    w_max: float
    dA_norm: float
    dB_norm: float

    def __post_init__(self):
        parts = (self.w_tilde_max, self.x_max, self.u_max, self.w_max, self.dA_norm, self.dB_norm)
        if any(p < 0 for p in parts):
            raise ValueError("bound components must be nonnegative")
        composed = self.dA_norm * self.x_max + self.dB_norm * self.u_max + self.w_max
        if abs(composed - self.w_tilde_max) > 1e-12 * max(1.0, composed):
            raise ValueError("w_tilde_max does not equal its composition")


def _inf_radius(P):
    lo, hi = P.bounding_box()
    return float(max(hi.max(), -lo.min()))


def net_additive_bound(sys: UncertainSystem) -> NetAdditiveBound:
    """Lumped worst-case bound on dA x + dB u + w over X, U, W."""
    dA_norm = max(_induced_inf_norm(V) for V in sys.deltaA_vertices)
    dB_norm = max(_induced_inf_norm(V) for V in sys.deltaB_vertices)
    x_max = _inf_radius(sys.X)
    u_max = _inf_radius(sys.U)
    w_max = _inf_radius(sys.W)
    return NetAdditiveBound(
        w_tilde_max=dA_norm * x_max + dB_norm * u_max + w_max,
        x_max=x_max,
        u_max=u_max,
        w_max=w_max,
        dA_norm=dA_norm,
        dB_norm=dB_norm,
    )


@dataclass(frozen=True)
class UncertaintyRealization:
    """One admissible draw of the model error and a disturbance sequence."""

    deltaA_true: np.ndarray
    deltaB_true: np.ndarray
    weights_A: np.ndarray
    weights_B: np.ndarray
    w_sequence: np.ndarray  # (T, d)

    def A_true(self, sys: UncertainSystem):
        return sys.A_bar + self.deltaA_true

    def B_true(self, sys: UncertainSystem):
        return sys.B_bar + self.deltaB_true


def _combine(vertices, weights):
    out = np.zeros_like(vertices[0])
    for w, V in zip(weights, vertices):
        out += w * V
    return out


def sample_realization(
    sys: UncertainSystem, horizon: int, seed: int, adversarial: bool = False
) -> UncertaintyRealization:
    """Deterministic-in-seed admissible realization over ``horizon`` steps.

    Hull weights are uniform on the simplex; each w_t is a random convex
    combination of W's bounding-box corners, redrawn if it falls outside W
    (cannot happen for boxes).  Adversarial mode instead picks a vertex
    matrix for each hull and an extreme point of W per step.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rng = np.random.default_rng(seed)
    d = sys.d
    if adversarial:
        wA = np.zeros(sys.n_a)
        wA[rng.integers(sys.n_a)] = 1.0
        wB = np.zeros(sys.n_b)
        wB[rng.integers(sys.n_b)] = 1.0
        ws = np.empty((horizon, d))
        for t in range(horizon):
            sigma = rng.integers(0, 2, size=d) * 2.0 - 1.0
            if sys.W.is_box:
                lo, hi = sys.W.box_bounds
                ws[t] = np.where(sigma > 0, hi, lo)
            else:
                # extreme point of W in a random signed direction
                out = solve_lp(-sigma, sys.W.H, sys.W.h)
                ws[t] = out.x_opt
    else:
        wA = rng.dirichlet(np.ones(sys.n_a))
        wB = rng.dirichlet(np.ones(sys.n_b))
        corners = sys.W.box_corners()
        ws = np.empty((horizon, d))
        for t in range(horizon):
            for _ in range(100):
                lam = rng.dirichlet(np.ones(len(corners)))
                w = lam @ corners
                if sys.W.contains(w, tol=0.0):
                    break
            else:
                w = np.zeros(d)  # W contains the origin (Assumption check)
            ws[t] = w
    return UncertaintyRealization(
        deltaA_true=_combine(sys.deltaA_vertices, wA),
        deltaB_true=_combine(sys.deltaB_vertices, wB),
        weights_A=wA,
        weights_B=wB,
        w_sequence=ws,
    )


# ---------------------------------------------------------------------------
# problem-description files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemDefinition:
    """Everything a controller needs, as loaded from a problem file."""

    system: UncertainSystem
    P: np.ndarray
    R: np.ndarray
    K: np.ndarray
    N: int
    default_seed: int
    source: dict

    @property
    def d(self):
        return self.system.d

    @property
    def m(self):
        return self.system.m


def _require(data, key, path):
    if key not in data:
        raise ProblemFormatError("%s.%s" % (path, key) if path else key, "missing required key")
    return data[key]


def _load_matrix(obj, path, shape=None):
    try:
        M = np.atleast_2d(np.asarray(obj, dtype=float))
    except (TypeError, ValueError):
        raise ProblemFormatError(path, "not a numeric matrix") from None
    if shape is not None and M.shape != shape:
        raise ProblemFormatError(path, "shape %s, expected %s" % (M.shape, shape))
    return M

def _load_polytope(obj, path, dim=None):
    if not isinstance(obj, dict) or not ({"box"} <= set(obj) or {"H", "h"} <= set(obj)):
        raise ProblemFormatError(path, 'expected {"H": ..., "h": ...} or {"box": {...}}')
    try:
        P = Polytope.from_dict(obj)
    except Exception as exc:
        raise ProblemFormatError(path, str(exc)) from None
    if dim is not None and P.dim != dim:
        raise ProblemFormatError(path, "dimension %d, expected %d" % (P.dim, dim))
    return P


def _check_pd(M, path):
    if not np.allclose(M, M.T, atol=1e-12):
        raise ProblemFormatError(path, "must be symmetric")
    if np.linalg.eigvalsh(M).min() <= 0:
        raise ProblemFormatError(path, "must be positive definite")


def load_problem_dict(data: dict, origin="problem") -> ProblemDefinition:
    A = _load_matrix(_require(data, "A_bar", ""), "A_bar")
    d = A.shape[0]
    if A.shape != (d, d):
        raise ProblemFormatError("A_bar", "must be square")
    B = _load_matrix(_require(data, "B_bar", ""), "B_bar")
    if B.shape[0] != d:
        raise ProblemFormatError("B_bar", "row count %d, expected %d" % (B.shape[0], d))
    m = B.shape[1]
    dAs = _require(data, "deltaA_vertices", "")
    if not isinstance(dAs, list) or not dAs:
        raise ProblemFormatError("deltaA_vertices", "must be a nonempty list")
    dA = tuple(
        _load_matrix(V, "deltaA_vertices[%d]" % i, shape=(d, d)) for i, V in enumerate(dAs)
    )
    dBs = _require(data, "deltaB_vertices", "")
    if not isinstance(dBs, list) or not dBs:
        raise ProblemFormatError("deltaB_vertices", "must be a nonempty list")
    dB = tuple(
        _load_matrix(V, "deltaB_vertices[%d]" % i, shape=(d, m)) for i, V in enumerate(dBs)
    )
    W = _load_polytope(_require(data, "W", ""), "W", dim=d)
    X = _load_polytope(_require(data, "X", ""), "X", dim=d)
    U = _load_polytope(_require(data, "U", ""), "U", dim=m)
    cost = _require(data, "cost", "")
    if not isinstance(cost, dict):
        raise ProblemFormatError("cost", "must be an object with P and R")
    P = _load_matrix(_require(cost, "P", "cost"), "cost.P", shape=(d, d))
    _check_pd(P, "cost.P")
    R = _load_matrix(_require(cost, "R", "cost"), "cost.R", shape=(m, m))
    _check_pd(R, "cost.R")
    K = _load_matrix(_require(data, "K", ""), "K", shape=(m, d))
    N = _require(data, "N", "")
    if not isinstance(N, int) or N < 1:
        raise ProblemFormatError("N", "must be an integer >= 1")
    seed = 0
    if "rng" in data:
        if not isinstance(data["rng"], dict) or "seed" not in data["rng"]:
            raise ProblemFormatError("rng", 'expected {"seed": int}')
        seed = int(data["rng"]["seed"])
    try:
        system = UncertainSystem(
            A_bar=A, B_bar=B, deltaA_vertices=dA, deltaB_vertices=dB, W=W, X=X, U=U
        )
    except (ValueError, UnboundedConstraintSetError) as exc:
        raise ProblemFormatError(origin, str(exc)) from None
    return ProblemDefinition(
        system=system, P=P, R=R, K=K, N=N, default_seed=seed, source=data
    )


def load_problem(path) -> ProblemDefinition:
    """Load and validate a problem-description JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ProblemFormatError(str(path), "cannot read file: %s" % exc) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(str(path), "invalid JSON: %s" % exc) from None
    if not isinstance(data, dict):
        raise ProblemFormatError(str(path), "top level must be an object")
    return load_problem_dict(data, origin=str(path))


def default_problem_path() -> Path:
    """Path of the packaged 2-d example problem."""
    return Path(resources.files("rampc.problems") / "default_2d.json")
