"""H-representation polytope algebra backed by Qhull and linear programming.

Everything here works on sets of the form {x : Hx <= h}: constraint sets,
disturbance supports and invariant sets.  ``remove_redundant`` finds the
minimal rows with Qhull's halfspace intersection (one Chebyshev-centre LP
gives the interior point and decides emptiness) and caches the vertices
Qhull returns, so ``support`` of a reduced set is a max over vertices.
LPs remain where no vertices are known or where they certify: the centre
LP, ``support_lp`` and its many-directions form ``support_lp_many`` (one
block-diagonal LP; the terminal set's invariance recheck uses it),
``projection_cuts``, which describes the projection of a lifted set
{(x, z) : G z + R x <= h} onto x by support LPs along Qhull's hull facets
(exact in every dimension, up to its LP cap), and the per-row LP loop for
1-d, flat and unbounded sets, which Qhull cannot take.  A small 2-d
enumerator exists for plotting and polygon metrics.  Inclusion and
fixed-point tests use an absolute tolerance of 1e-7 on facet offsets, one
order above the LP layer's 1e-8 accuracy.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    EmptyPolytopeError,
    UnboundedDirectionError,
)
from .qpsolver import SolveStatus, solve_lp

FACET_TOL = 1e-7
# relative slack of a candidate vertex in ``vertices_2d``
_VERTEX_TOL = 1e-9
# cap on the support LPs of one projection_cuts build: a guard against
# rounding that keeps finding new points on a nearly flat facet
_MAX_SUPPORT_LPS = 500
# rows of [H h] scaled by max|H_i| that agree this closely are one halfspace
_COINCIDENT_TOL = 1e-9


class Polytope:
    """Immutable convex set {x : Hx <= h}.

    ``H`` has one row per facet normal, ``h`` the matching offsets.  If the
    set was constructed from axis-aligned bounds, the bounds are kept and
    support queries take an exact fast path instead of an LP.  ``vertices``
    (read-only, one vertex per array row) is the optional vertex cache that
    ``remove_redundant`` fills; support queries then take a max over it.
    """

    def __init__(self, H, h, *, box=None, vertices=None):
        H = np.atleast_2d(np.asarray(H, dtype=float))
        h = np.asarray(h, dtype=float).reshape(-1)
        if H.shape[0] != h.shape[0]:
            raise DimensionMismatchError(
                "H has %d rows but h has %d entries" % (H.shape[0], h.shape[0])
            )
        self._H = np.ascontiguousarray(H)
        self._h = np.ascontiguousarray(h)
        self._H.setflags(write=False)
        self._h.setflags(write=False)
        self._box = None
        if box is not None:
            lo, hi = (np.asarray(v, dtype=float).reshape(-1) for v in box)
            self._box = (lo, hi)
        self._vertices = None
        if vertices is not None:
            V = np.array(vertices, dtype=float).reshape(-1, self.dim)
            V.setflags(write=False)
            self._vertices = V
        # True/False once known; None until the first is_empty() solves its LP
        self._empty = None if box is None and vertices is None else False

    @classmethod
    def from_box(cls, lo, hi):
        """Axis-aligned box {lo <= x <= hi} expanded to H-form."""
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        if lo.shape != hi.shape:
            raise DimensionMismatchError("box bounds have different lengths")
        if np.any(lo > hi):
            raise ValueError("box has lo > hi")
        d = lo.shape[0]
        H = np.vstack([np.eye(d), -np.eye(d)])
        h = np.concatenate([hi, -lo])
        return cls(H, h, box=(lo, hi))

    @classmethod
    def empty(cls, dim):
        """Canonical empty marker in R^dim ({0'x <= -1}), known empty without an LP."""
        marker = cls(np.zeros((1, dim)), np.array([-1.0]))
        marker._empty = True
        return marker

    @property
    def H(self):
        return self._H

    @property
    def h(self):
        return self._h

    @property
    def dim(self):
        return self._H.shape[1]

    @property
    def n_rows(self):
        return self._H.shape[0]

    @property
    def is_box(self):
        return self._box is not None

    @property
    def box_bounds(self):
        return self._box

    @property
    def vertices(self):
        """Cached vertices (read-only array), or None when none are known."""
        return self._vertices

    def __repr__(self):
        return "Polytope(dim=%d, facets=%d)" % (self.dim, self.n_rows)

    def is_empty(self):
        if self._empty is None:
            out = solve_lp(np.zeros(self.dim), self._H, self._h)
            if out.status is SolveStatus.INFEASIBLE:
                self._empty = True
            elif out.status in (SolveStatus.OPTIMAL, SolveStatus.UNBOUNDED):
                self._empty = False
            else:
                raise EmptyPolytopeError("feasibility probe failed: %s" % out.status)
        return self._empty

    def contains(self, x, tol=FACET_TOL):
        x = np.asarray(x, dtype=float).reshape(-1)
        return bool(np.all(self._H @ x <= self._h + tol))

    def box_corners(self):
        """Corners of the bounding box (exact vertices when the set is a box)."""
        lo, hi = self.bounding_box()
        d = self.dim
        corners = np.empty((2**d, d))
        for i in range(2**d):
            for j in range(d):
                corners[i, j] = hi[j] if (i >> j) & 1 else lo[j]
        return corners

    def bounding_box(self):
        if self._box is not None:
            return self._box
        d = self.dim
        lo = np.empty(d)
        hi = np.empty(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = 1.0
            hi[j] = support(self, e)
            lo[j] = -support(self, -e)
        return lo, hi

    def to_dict(self):
        if self._box is not None:
            lo, hi = self._box
            return {"box": {"lo": lo.tolist(), "hi": hi.tolist()}}
        return {"H": self._H.tolist(), "h": self._h.tolist()}

    @classmethod
    def from_dict(cls, spec):
        if "box" in spec:
            return cls.from_box(spec["box"]["lo"], spec["box"]["hi"])
        return cls(spec["H"], spec["h"])


@dataclass(frozen=True)
class PointCloudHull2D:
    """Convex hull of a 2-d point cloud with its shoelace area."""

    points: np.ndarray
    hull: np.ndarray  # counter-clockwise vertices
    area: float


def _direction(P: Polytope, c) -> np.ndarray:
    c = np.asarray(c, dtype=float).reshape(-1)
    if c.shape[0] != P.dim:
        raise DimensionMismatchError("direction has dim %d, polytope %d" % (c.shape[0], P.dim))
    return c


def support(P: Polytope, c) -> float:
    """max_{x in P} c.x: exact for boxes, a max over cached vertices, else by LP."""
    c = _direction(P, c)
    if P.is_box:
        lo, hi = P.box_bounds
        return float(np.sum(np.where(c >= 0, c * hi, c * lo)))
    if P.vertices is not None:
        return float(np.max(P.vertices @ c))
    return support_lp(P, c)


def support_lp(P: Polytope, c) -> float:
    """max_{x in P} c.x by one LP, never from box bounds or cached vertices."""
    return float(support_lp_many(P, _direction(P, c)[None, :])[0])


def support_lp_many(P: Polytope, C) -> np.ndarray:
    """``support_lp`` of every row of C, all from one LP.

    The LP is block diagonal: block k maximizes C[k].x_k over {H x_k <= h},
    so the blocks are independent and each block's value is its support.
    One HiGHS call replaces len(C) calls, whose cost is mostly set-up.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if C.shape[1] != P.dim:
        raise DimensionMismatchError("directions have dim %d, polytope %d" % (C.shape[1], P.dim))
    k = C.shape[0]
    out = solve_lp(-C.ravel(), np.kron(np.eye(k), P.H), np.tile(P.h, k))
    if out.status is SolveStatus.OPTIMAL:
        X = out.x_opt.reshape(k, P.dim)
        return np.array([c @ x for c, x in zip(C, X)])
    if out.status is SolveStatus.INFEASIBLE:
        raise EmptyPolytopeError("support of an empty polytope")
    if out.status is SolveStatus.UNBOUNDED:
        raise UnboundedDirectionError("polytope unbounded in a direction of %s" % C)
    raise EmptyPolytopeError("support LP failed: %s" % out.status)


def is_subset(P: Polytope, Q: Polytope) -> bool:
    """True iff P is contained in Q (per-facet support test)."""
    if P.dim != Q.dim:
        raise DimensionMismatchError("dim %d vs %d" % (P.dim, Q.dim))
    for row, off in zip(Q.H, Q.h):
        if support(P, row) > off + FACET_TOL:
            return False
    return True


def remove_redundant(P: Polytope) -> Polytope:
    """Minimal representation of the same set, with its vertices cached.

    The kept rows are input rows, bitwise and in their original order.
    One Chebyshev-centre LP decides emptiness and finds an interior point;
    Qhull's halfspace intersection then keeps the rows that are facets (the
    vertices of its dual hull) and returns the vertices of the set.  Of
    coincident halfspaces (rows of [H h] scaled by max|H_i| that agree
    within 1e-9) the last is kept, as the per-row LP loop keeps it.  Sets
    Qhull cannot take -- dimension 1, no interior point (centre radius <=
    FACET_TOL), unbounded -- go through ``_remove_redundant_by_lp`` and get
    no vertex cache.
    """
    out = _minimal(P)
    if out is None:
        raise EmptyPolytopeError("remove_redundant on an empty polytope")
    return out


def _minimal(P: Polytope):
    """``remove_redundant(P)``, or None when the centre LP finds P empty."""
    H, h = P.H, P.h
    d = P.dim
    norms = np.linalg.norm(H, axis=1)
    # maximize r over (x, r): H x + ||H_i|| r <= h, r >= 0
    G = np.vstack([np.hstack([H, norms[:, None]]), np.append(np.zeros(d), -1.0)])
    out = solve_lp(np.append(np.zeros(d), -1.0), G, np.append(h, 0.0))
    if out.status is SolveStatus.INFEASIBLE:
        return None
    if out.status is SolveStatus.OPTIMAL:
        centre, radius = out.x_opt[:d], out.x_opt[d]
    elif out.status is SolveStatus.UNBOUNDED:
        centre, radius = None, np.inf
    else:
        raise EmptyPolytopeError("Chebyshev-centre LP failed: %s" % out.status)
    if d < 2 or not FACET_TOL < radius < np.inf:
        return _remove_redundant_by_lp(P)
    scale = np.max(np.abs(H), axis=1)
    live = np.flatnonzero(scale > 0.0)  # a zero row 0 <= h_i is redundant once P is nonempty
    rows = np.hstack([H[live], h[live, None]]) / scale[live, None]
    near = np.max(np.abs(rows[:, None, :] - rows[None, :, :]), axis=2) <= _COINCIDENT_TOL
    live = live[~np.any(np.triu(near, k=1), axis=1)]  # of coincident rows, the last
    try:
        with np.errstate(divide="ignore", invalid="ignore"):  # vertices at infinity
            hs = HalfspaceIntersection(np.hstack([H[live], -h[live, None]]), centre)
    except QhullError:
        return _remove_redundant_by_lp(P)
    V = hs.intersections
    # a vertex at (or numerically near) infinity: P is unbounded
    if not np.all(np.abs(V - centre) <= 1e12 * radius):
        return _remove_redundant_by_lp(P)
    # hs.dual_vertices fails on merged (non-simplicial) dual facets
    keep = live[np.unique(np.concatenate(hs.dual_facets))]
    return Polytope(H[keep], h[keep], vertices=V)


def _remove_redundant_by_lp(P: Polytope) -> Polytope:
    """Per-row LP loop for the sets Qhull cannot take (1-d, flat, unbounded).

    A row is redundant iff maximizing it subject to all other (surviving)
    rows cannot exceed its own offset.  The LP is capped at offset+1 so it
    is never unbounded in the objective.  P must be nonempty.
    """
    H, h = P.H, P.h
    keep = np.ones(len(h), dtype=bool)
    for i in range(len(h)):
        keep[i] = False
        rows = H[keep]
        offs = h[keep]
        keep[i] = True
        if len(offs) == 0:
            continue  # last remaining row always stays
        G = np.vstack([rows, H[i]])
        g = np.concatenate([offs, [h[i] + 1.0]])
        out = solve_lp(-H[i], G, g)
        if out.status is SolveStatus.OPTIMAL and -out.objective <= h[i] + FACET_TOL:
            keep[i] = False
    out = Polytope(H[keep], h[keep])
    out._empty = False
    return out


def pre_set(S: Polytope, Acl_vertices, W: Polytope, X: Polytope) -> Polytope:
    """One-step robust predecessor of S under x+ = A x + w, intersected with X.

    ``Acl_vertices`` are the closed-loop vertex matrices; the result is
    {x in X : H_S (A_m x) <= h_S - sup_{w in W} H_S w  for every vertex m},
    with redundant rows removed.  May legitimately be empty; emptiness is
    returned as an empty marker, not raised.
    """
    w_sup = np.array([support(W, row) for row in S.H])
    blocks = [S.H @ A for A in Acl_vertices]
    H = np.vstack(blocks + [X.H])
    h = np.concatenate([S.h - w_sup] * len(blocks) + [X.h])
    out = _minimal(Polytope(H, h))
    return Polytope.empty(S.dim) if out is None else out


def max_robust_invariant(
    X_and_input: Polytope, Acl_vertices, W: Polytope, max_iter=500
) -> Polytope:
    """Maximal robust positive invariant subset of ``X_and_input``.

    Iterates Omega <- pre_set(Omega, ...) /\\ Omega from the constraint set
    (a shrinking outer sequence) and stops when consecutive iterates are
    mutually included within FACET_TOL.  Returns the empty marker when the
    invariant set is empty.
    """
    omega = _minimal(X_and_input)
    if omega is None:
        return Polytope.empty(X_and_input.dim)
    for _ in range(max_iter):
        nxt = pre_set(omega, Acl_vertices, W, omega)
        if nxt.is_empty():
            return Polytope.empty(X_and_input.dim)
        # nxt is contained in omega by construction; converged iff the
        # reverse inclusion also holds.
        if is_subset(omega, nxt):
            return nxt
        omega = nxt
    raise ConvergenceError("invariant-set iteration did not converge in %d steps" % max_iter)


@dataclass(frozen=True)
class ProjectionCuts:
    """Valid cuts of F = {x : exists z, G z + R x <= h}, each with its LP dual.

    Cut i is ``normals[i] @ x <= offsets[i]`` with ``normals = Y @ R`` and
    ``offsets = Y @ h``.  Every row y of ``Y`` has y >= 0, sum(y) = 1 and
    ||G'y||_inf <= 1e-9, so at a state x with ``offsets[i] - normals[i] @ x
    < 0`` it is a Farkas certificate that {z : G z <= h - R x} is empty.
    ``n_lps`` support LPs found them in ``seconds``.
    """

    Y: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    n_lps: int
    seconds: float

    def __len__(self):
        return len(self.offsets)


def projection_cuts(G, R, h) -> ProjectionCuts:
    """Cuts of the projection of {(x, z) : G z + R x <= h} onto x, by support LPs.

    Each LP maximizes c'x over the lifted set; its dual y (G'y = 0, R'y = c,
    y >= 0), normalized to sum(y) = 1, gives the cut (R'y)'x <= h'y.  The
    directions are +-e_i, then the outward facet normals of the hull of the
    support points (the convex-hull method: Lassez & Lassez 1992; Kerrigan
    2000, ch. 3).  Each round probes every facet not yet confirmed, adds the
    points beyond their facet by more than FACET_TOL and confirms the other
    facets, until a round adds no point.  So the cuts describe F exactly in
    every dimension, up to _MAX_SUPPORT_LPS LPs.  A build cut short by that
    cap or by a support LP that is not OPTIMAL (F empty or unbounded) keeps
    its cuts, an outer bound; a dual with ||G'y||_inf > 1e-9 is dropped.
    """
    t0 = time.perf_counter()
    G = np.atleast_2d(np.asarray(G, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    h = np.asarray(h, dtype=float).reshape(-1)
    d = R.shape[1]
    lifted = np.hstack([R, G])
    pad = np.zeros(G.shape[1])
    ys = []
    n_lps = 0

    def support_point(c):
        """x-part of the maximizer of c'x over the lifted set, or None."""
        nonlocal n_lps
        n_lps += 1
        out = solve_lp(np.concatenate([-c, pad]), lifted, h)
        if out.status is not SolveStatus.OPTIMAL:
            return None
        y = np.maximum(out.y_ineq, 0.0)
        total = y.sum()
        if total > 0.0:
            y = y / total
            if np.max(np.abs(G.T @ y), initial=0.0) <= 1e-9:
                ys.append(y)
        return out.x_opt[:d]

    def result():
        Y = np.array(ys).reshape(-1, len(h))
        arrays = (Y, Y @ R, Y @ h)
        for a in arrays:
            a.setflags(write=False)
        return ProjectionCuts(*arrays, n_lps=n_lps, seconds=time.perf_counter() - t0)

    points = []
    for c in np.vstack([np.eye(d), -np.eye(d)]):
        p = support_point(c)
        if p is None:
            return result()
        points.append(p)
    confirmed = np.zeros((0, d + 1))  # [a b] of the facets no probe moved
    while d > 1:  # in 1-d the two axis LPs are exact
        pts = np.array(points)
        try:  # facets [a b] of the hull, a'x <= b, from Qhull's n'x + off <= 0
            eq = ConvexHull(pts).equations
            rows = np.hstack([eq[:, :d], -eq[:, d:]])
        except QhullError:
            # points in a flat (too few, or on one hyperplane) have no hull:
            # its two sides, normal to the points' least spread, stand in
            v = np.linalg.svd(pts - pts.mean(axis=0))[2][-1]
            rows = np.array([np.append(v, np.max(pts @ v)), np.append(-v, np.max(pts @ -v))])
        rows /= np.max(np.abs(rows[:, :d]), axis=1, keepdims=True)
        found = []
        for row in rows:
            a, b = row[:d], row[d]
            if np.any(np.max(np.abs(confirmed - row), axis=1) <= _COINCIDENT_TOL):
                continue  # confirmed already (Qhull may split a facet into pieces)
            if any(a @ q > b + FACET_TOL for q in found):
                continue  # a point of this round already cuts the facet away
            p = support_point(a) if n_lps < _MAX_SUPPORT_LPS else None
            if p is None:
                return result()
            if a @ p > b + FACET_TOL:
                found.append(p)
            else:
                confirmed = np.vstack([confirmed, row])
        if not found:
            break
        points += found
    return result()


def hull_2d(points) -> PointCloudHull2D:
    """Convex hull of 2-d points (monotone chain), CCW, with shoelace area.

    Collinear/degenerate input yields the degenerate hull and area 0.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    uniq = sorted(set(map(tuple, pts.tolist())))
    if len(uniq) <= 2:
        hull = np.asarray(uniq, dtype=float).reshape(-1, 2)
        return PointCloudHull2D(points=pts, hull=hull, area=0.0)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in uniq:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(uniq):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    verts = np.asarray(lower[:-1] + upper[:-1], dtype=float)
    area = shoelace_area(verts)
    return PointCloudHull2D(points=pts, hull=verts, area=area)


def shoelace_area(verts) -> float:
    verts = np.asarray(verts, dtype=float).reshape(-1, 2)
    if len(verts) < 3:
        return 0.0
    x, y = verts[:, 0], verts[:, 1]
    return float(0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def vertices_2d(P: Polytope) -> np.ndarray:
    """Vertices of a bounded 2-d polytope, ordered counter-clockwise.

    Small helper for plots and polygon metrics only; higher dimensions are
    out of scope by design.
    """
    if P.dim != 2:
        raise DimensionMismatchError("vertex enumeration implemented for dim 2 only")
    if P.is_empty():
        return np.zeros((0, 2))
    H, h = P.H, P.h
    n = len(h)
    pts = []
    scale = np.maximum(np.linalg.norm(H, axis=1), 1e-12)
    for i in range(n):
        for j in range(i + 1, n):
            M = np.array([H[i], H[j]])
            if abs(np.linalg.det(M)) < 1e-12:
                continue
            v = np.linalg.solve(M, np.array([h[i], h[j]]))
            if np.all(H @ v <= h + _VERTEX_TOL * np.maximum(1.0, np.abs(h)) + FACET_TOL * scale):
                pts.append(v)
    if not pts:
        return np.zeros((0, 2))
    pts = np.asarray(pts)
    # dedupe
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    kept = [pts[0]]
    for p in pts[1:]:
        if np.max(np.abs(p - kept[-1])) > 1e-8:
            kept.append(p)
    pts = np.asarray(kept)
    centroid = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - centroid[1], pts[:, 0] - centroid[0])
    return pts[np.argsort(ang)]
