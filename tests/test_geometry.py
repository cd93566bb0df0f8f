"""Geometry operations against analytic and enumeration oracles."""
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from rampc import geometry
from rampc.errors import DimensionMismatchError, EmptyPolytopeError, UnboundedDirectionError
from rampc.geometry import (
    FACET_TOL,
    Polytope,
    hull_2d,
    is_subset,
    max_robust_invariant,
    pre_set,
    projection_cuts,
    remove_redundant,
    shoelace_area,
    support,
    support_lp,
    support_lp_many,
    vertices_2d,
)
from rampc.qpsolver import SolveStatus, solve_lp

UNIT_BOX = Polytope.from_box([-1, -1], [1, 1])


class TestSupport:
    def test_box_axis(self):
        assert support(UNIT_BOX, [1, 0]) == pytest.approx(1.0)

    def test_box_corner(self):
        assert support(UNIT_BOX, [1, 1]) == pytest.approx(2.0)

    def test_simplex_vertex_oracle(self):
        # P = {x1+x2<=1, x>=0}; oracle: enumerate the 3 vertices
        P = Polytope([[1, 1], [-1, 0], [0, -1]], [1, 0, 0])
        verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        c = np.array([2.0, 1.0])
        oracle = max(c @ v for v in verts)
        assert support(P, c) == pytest.approx(oracle, abs=1e-9)

    def test_lp_path_matches_box_fast_path(self):
        rng = np.random.default_rng(0)
        box = Polytope.from_box([-2, -0.5], [1, 3])
        as_h = Polytope(box.H, box.h)  # same set, no box metadata
        for _ in range(25):
            c = rng.normal(size=2)
            assert support(box, c) == pytest.approx(support(as_h, c), abs=1e-8)

    def test_empty_raises(self):
        P = Polytope([[1.0], [-1.0]], [0.0, -1.0])
        with pytest.raises(EmptyPolytopeError):
            support(P, [1.0])

    def test_unbounded_raises(self):
        P = Polytope([[0.0, 1.0], [0.0, -1.0]], [1.0, 1.0])
        with pytest.raises(UnboundedDirectionError):
            support(P, [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            support(UNIT_BOX, [1.0])


@settings(max_examples=30, deadline=None)
@given(
    lo1=st.floats(-3, 0), hi1=st.floats(0.1, 3),
    lo2=st.floats(-3, 0), hi2=st.floats(0.1, 3),
    cx=st.floats(-2, 2), cy=st.floats(-2, 2),
)
def test_support_additive_over_minkowski_sum_of_boxes(lo1, hi1, lo2, hi2, cx, cy):
    # for boxes the Minkowski sum is the coordinate-wise sum of bounds
    P = Polytope.from_box([lo1, lo2], [hi1, hi2])
    Q = Polytope.from_box([2 * lo1, lo2 - 1], [hi1, 2 * hi2])
    S = Polytope.from_box([lo1 + 2 * lo1, lo2 + lo2 - 1], [2 * hi1, hi2 + 2 * hi2])
    c = np.array([cx, cy])
    assert support(P, c) + support(Q, c) == pytest.approx(support(S, c), abs=1e-9)


class TestSubset:
    def test_box_in_bigger_box(self):
        assert is_subset(UNIT_BOX, Polytope.from_box([-2, -2], [2, 2]))

    def test_bigger_box_not_in_box(self):
        assert not is_subset(Polytope.from_box([-2, -2], [2, 2]), UNIT_BOX)

    def test_simplex_in_box(self):
        P = Polytope([[1, 1], [-1, 0], [0, -1]], [1, 0, 0])
        assert is_subset(P, UNIT_BOX)

    def test_mutual_inclusion_implies_equal_supports(self):
        # same set, different row descriptions
        P = Polytope([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]], [1, 1, 1, 1, 3])
        Q = UNIT_BOX
        assert is_subset(P, Q) and is_subset(Q, P)
        rng = np.random.default_rng(1)
        for _ in range(100):
            c = rng.normal(size=2)
            assert support(P, c) == pytest.approx(support(Q, c), abs=1e-7)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            is_subset(UNIT_BOX, Polytope.from_box([-1], [1]))


class TestRemoveRedundant:
    def test_scalar(self):
        P = Polytope([[1.0], [1.0], [-1.0]], [1.0, 2.0, 1.0])
        Pr = remove_redundant(P)
        assert Pr.n_rows == 2
        assert is_subset(Pr, P) and is_subset(P, Pr)

    def test_duplicated_facet(self):
        P = Polytope([[1, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 1, 1])
        assert remove_redundant(P).n_rows == 4

    def test_random_polytope_same_set(self):
        rng = np.random.default_rng(2)
        H = rng.normal(size=(8, 2))
        h = np.abs(rng.normal(size=8)) + 0.5  # contains the origin
        P = Polytope(H, h)
        Pr = remove_redundant(P)
        assert is_subset(P, Pr) and is_subset(Pr, P)

    def test_idempotent_row_identical(self):
        rng = np.random.default_rng(4)
        H = rng.normal(size=(10, 2))
        h = np.abs(rng.normal(size=10)) + 0.3
        once = remove_redundant(Polytope(H, h))
        twice = remove_redundant(once)
        np.testing.assert_array_equal(once.H, twice.H)
        np.testing.assert_array_equal(once.h, twice.h)

    def test_survivor_order_preserved(self):
        P = Polytope([[1.0], [1.0], [-1.0]], [2.0, 1.0, 1.0])
        Pr = remove_redundant(P)
        # surviving rows keep their original relative order
        np.testing.assert_array_equal(Pr.H, [[1.0], [-1.0]])

    def test_empty_raises(self):
        with pytest.raises(EmptyPolytopeError):
            remove_redundant(Polytope([[1.0], [-1.0]], [0.0, -1.0]))


def _reference_remove_redundant(P):
    """The per-row LP loop that ``remove_redundant`` replaced, kept as its oracle.

    A row is redundant iff maximizing it subject to all other (surviving)
    rows cannot exceed its own offset (LP capped at offset + 1).
    """
    if P.is_empty():
        raise EmptyPolytopeError("remove_redundant on an empty polytope")
    H, h = P.H.copy(), P.h.copy()
    keep = np.ones(len(h), dtype=bool)
    for i in range(len(h)):
        keep[i] = False
        rows = H[keep]
        offs = h[keep]
        keep[i] = True
        if len(offs) == 0:
            continue
        G = np.vstack([rows, H[i]])
        g = np.concatenate([offs, [h[i] + 1.0]])
        out = solve_lp(-H[i], G, g)
        if out.status is SolveStatus.OPTIMAL and -out.objective <= h[i] + FACET_TOL:
            keep[i] = False
    return Polytope(H[keep], h[keep])


def _hull_polytope(rng, d, n_points):
    """Facets of the hull of random points: a bounded, full-dimensional set."""
    pts = rng.normal(size=(n_points, d))
    eq = ConvexHull(pts).equations
    return pts, eq[:, :d], -eq[:, d]


class TestRemoveRedundantOracle:
    """Qhull path against the LP loop: the same rows, bitwise and in order."""

    @staticmethod
    def _assert_oracle(P, *, qhull=None):
        """Same rows as the LP loop; ``qhull`` says which path must run, if given."""
        got = remove_redundant(P)
        ref = _reference_remove_redundant(P)
        np.testing.assert_array_equal(got.H, ref.H)
        np.testing.assert_array_equal(got.h, ref.h)
        if qhull is not None:
            assert (got.vertices is not None) is qhull
        return got

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_polytopes(self, d):
        rng = np.random.default_rng(10 + d)
        for _ in range(15):
            _, H, h = _hull_polytope(rng, d, int(rng.integers(d + 2, 14)))
            # strictly redundant rows, shuffled in among the facets
            extra = rng.normal(size=(4, d))
            H = np.vstack([H, extra])
            h = np.concatenate([h, 3.0 + np.abs(extra).sum(axis=1) * 3.0])
            perm = rng.permutation(len(h))
            self._assert_oracle(Polytope(H[perm], h[perm]), qhull=True)

    def test_random_halfspaces_around_origin(self):
        # random normals, the origin strictly inside; not built from a hull
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = int(rng.choice([2, 3]))
            m = int(rng.integers(d + 2, 16))
            P = Polytope(rng.normal(size=(m, d)), np.abs(rng.normal(size=m)) + 0.2)
            self._assert_oracle(P)

    @pytest.mark.parametrize("d", [2, 3])
    def test_exact_and_scaled_duplicates_keep_the_last(self, d):
        rng = np.random.default_rng(20 + d)
        for _ in range(10):
            _, H, h = _hull_polytope(rng, d, 8)
            pick = rng.choice(len(h), size=3, replace=False)
            scale = np.array([1.0, 2.5, 0.125])[:, None]
            H = np.vstack([H, H[pick] * scale])
            h = np.concatenate([h, h[pick] * scale[:, 0]])
            perm = rng.permutation(len(h))
            got = self._assert_oracle(Polytope(H[perm], h[perm]), qhull=True)
            assert got.n_rows == len(h) - 3

    def test_duplicate_square_edge_keeps_last_row(self):
        P = Polytope([[1, 0], [0, 1], [2, 0], [-1, 0], [0, -1]], [1, 1, 2, 1, 1])
        got = self._assert_oracle(P, qhull=True)
        np.testing.assert_array_equal(got.H[0], [0.0, 1.0])
        np.testing.assert_array_equal(got.H[1], [2.0, 0.0])

    @pytest.mark.parametrize("d", [2, 3])
    def test_weakly_redundant_rows_at_a_vertex(self, d):
        # a row through one vertex, its normal inside that vertex's normal cone,
        # touches the set only at the vertex
        rng = np.random.default_rng(30 + d)
        for _ in range(15):
            pts, H, h = _hull_polytope(rng, d, 9)
            vert = pts[rng.choice(ConvexHull(pts).vertices, size=2, replace=False)]
            rows, offs = [], []
            for v in vert:
                active = np.flatnonzero(np.abs(H @ v - h) <= 1e-9)
                normal = rng.random(len(active)) @ H[active]
                rows.append(normal)
                offs.append(normal @ v)
            H = np.vstack([H, rows])
            h = np.concatenate([h, offs])
            perm = rng.permutation(len(h))
            self._assert_oracle(Polytope(H[perm], h[perm]), qhull=True)

    def test_weakly_redundant_square_diagonal(self):
        P = Polytope([[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]], [1, 2, 1, 1, 1])
        assert self._assert_oracle(P, qhull=True).n_rows == 4

    def test_intervals_take_the_lp_loop(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            H = rng.choice([-1.0, 1.0], size=(6, 1)) * rng.uniform(0.5, 2.0, size=(6, 1))
            h = rng.uniform(0.1, 2.0, size=6)
            H[0, 0], H[1, 0] = 1.0, -1.0  # bounded on both sides
            self._assert_oracle(Polytope(H, h), qhull=False)

    def test_flat_sets_take_the_lp_loop(self):
        # a segment in the plane and a square in space: no interior point
        seg = Polytope([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [1, 1, 0, 0, 5])
        self._assert_oracle(seg, qhull=False)
        H = np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 0.0]]])
        flat = Polytope(H, [1, 1, 0, 1, 1, 0, 3])
        self._assert_oracle(flat, qhull=False)

    def test_unbounded_sets_take_the_lp_loop(self):
        strip = Polytope([[1, 0], [0, 1], [-1, 0], [3, 1]], [1, 1, 1, 9])
        self._assert_oracle(strip, qhull=False)
        tilted = Polytope([[1, 0], [0, 1], [-1, 1e-13], [0, 2]], [1, 1, 1, 5])
        self._assert_oracle(tilted, qhull=False)

    def test_empty_raises_like_the_reference(self):
        P = Polytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [0.0, -1.0, 1.0])
        for fn in (remove_redundant, _reference_remove_redundant):
            with pytest.raises(EmptyPolytopeError):
                fn(P)

    @pytest.mark.parametrize("d", [2, 3])
    def test_vertex_support_matches_lp_support(self, d):
        rng = np.random.default_rng(50 + d)
        for _ in range(5):
            _, H, h = _hull_polytope(rng, d, 10)
            P = remove_redundant(Polytope(H, h))
            assert P.vertices is not None
            for c in rng.normal(size=(20, d)):
                assert abs(support(P, c) - support_lp(P, c)) <= 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_many_direction_support_matches_per_direction(self, d):
        rng = np.random.default_rng(60 + d)
        for _ in range(5):
            _, H, h = _hull_polytope(rng, d, 10)
            P = Polytope(H, h)
            C = rng.normal(size=(20, d))
            many = support_lp_many(P, C)
            assert many.shape == (20,)
            for c, value in zip(C, many):
                assert abs(value - support_lp(P, c)) <= 1e-9

    def test_vertex_cache_is_read_only(self):
        P = remove_redundant(Polytope([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 1]))
        with pytest.raises(ValueError):
            P.vertices[0, 0] = 5.0


class TestCentreLP:
    """One LP per candidate: the centre LP also decides emptiness."""

    @staticmethod
    def _count_lps(monkeypatch):
        calls = []
        inner = geometry.solve_lp

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(geometry, "solve_lp", counted)
        return calls

    def test_invariant_set_costs_one_lp_per_candidate(self, monkeypatch):
        pre_sets = []
        inner_pre = geometry.pre_set

        def counted_pre(*args, **kwargs):
            pre_sets.append(1)
            return inner_pre(*args, **kwargs)

        monkeypatch.setattr(geometry, "pre_set", counted_pre)
        calls = self._count_lps(monkeypatch)
        A1 = np.array([[0.9, 0.4], [-0.3, 0.7]])
        A2 = np.array([[0.8, -0.4], [0.3, 0.7]])
        W = Polytope.from_box([-0.05, -0.05], [0.05, 0.05])
        inv = max_robust_invariant(UNIT_BOX, [A1, A2], W)
        assert not inv.is_empty() and inv.vertices is not None
        assert len(pre_sets) >= 3
        assert len(calls) == len(pre_sets) + 1

    def test_empty_candidate_is_one_lp(self, monkeypatch):
        calls = self._count_lps(monkeypatch)
        pre = pre_set(UNIT_BOX, [0.5 * np.eye(2)], Polytope.from_box([-2, -2], [2, 2]), UNIT_BOX)
        assert pre.is_empty()
        assert len(calls) == 1


def _box1(lo, hi):
    return Polytope.from_box([lo], [hi])


class TestPreSet:
    def test_scalar_fixed_point(self):
        pre = pre_set(_box1(-1, 1), [np.array([[0.5]])], _box1(-0.25, 0.25), _box1(-1, 1))
        assert is_subset(pre, _box1(-1, 1)) and is_subset(_box1(-1, 1), pre)

    def test_scalar_pure_scaling(self):
        pre = pre_set(_box1(-1, 1), [np.array([[0.5]])], _box1(0, 0), _box1(-10, 10))
        assert is_subset(pre, _box1(-2, 2)) and is_subset(_box1(-2, 2), pre)

    def test_two_vertex_matrices(self):
        pre = pre_set(
            _box1(-1, 1), [np.array([[0.5]]), np.array([[-0.5]])], _box1(0, 0), _box1(-10, 10)
        )
        assert is_subset(pre, _box1(-2, 2)) and is_subset(_box1(-2, 2), pre)

    def test_output_always_in_x(self):
        rng = np.random.default_rng(5)
        X = Polytope.from_box([-1.5, -1.5], [1.5, 1.5])
        for _ in range(5):
            A = 0.6 * rng.normal(size=(2, 2))
            pre = pre_set(UNIT_BOX, [A], Polytope.from_box([-0.1, -0.1], [0.1, 0.1]), X)
            if not pre.is_empty():
                assert is_subset(pre, X)

    def test_identity_dynamics_zero_w_returns_intersection(self):
        S = UNIT_BOX
        X = Polytope.from_box([-0.7, -3], [0.7, 3])
        pre = pre_set(S, [np.eye(2)], Polytope.from_box([0, 0], [0, 0]), X)
        expected = Polytope.from_box([-0.7, -1], [0.7, 1])
        assert is_subset(pre, expected) and is_subset(expected, pre)

    def test_empty_result_is_marker(self):
        pre = pre_set(_box1(-1, 1), [np.array([[0.5]])], _box1(-2, 2), _box1(-1, 1))
        assert pre.is_empty()


class TestMaxRobustInvariant:
    def test_scalar_fixed_point(self):
        inv = max_robust_invariant(_box1(-1, 1), [np.array([[0.5]])], _box1(-0.25, 0.25))
        assert not inv.is_empty()
        assert is_subset(inv, _box1(-1, 1)) and is_subset(_box1(-1, 1), inv)

    def test_scalar_empty(self):
        inv = max_robust_invariant(_box1(-1, 1), [np.array([[0.5]])], _box1(-0.6, 0.6))
        assert inv.is_empty()

    def test_nominal_contraction(self):
        inv = max_robust_invariant(_box1(-1, 1), [np.array([[0.5]])], _box1(0, 0))
        assert is_subset(inv, _box1(-1, 1)) and is_subset(_box1(-1, 1), inv)

    def test_sampled_invariance_2d(self):
        rng = np.random.default_rng(6)
        A1 = np.array([[0.6, 0.2], [-0.1, 0.5]])
        A2 = np.array([[0.5, -0.2], [0.2, 0.4]])
        W = Polytope.from_box([-0.05, -0.05], [0.05, 0.05])
        X = UNIT_BOX
        inv = max_robust_invariant(X, [A1, A2], W)
        assert not inv.is_empty()
        lo, hi = inv.bounding_box()
        pts = []
        while len(pts) < 1000:
            x = rng.uniform(lo, hi)
            if inv.contains(x, tol=0.0):
                pts.append(x)
        corners = W.box_corners()
        for x in pts:
            for A in (A1, A2):
                for w in corners:
                    assert inv.contains(A @ x + w, tol=1e-7)


class TestHull2D:
    def test_unit_square(self):
        h = hull_2d([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert h.area == pytest.approx(1.0)
        assert len(h.hull) == 4

    def test_interior_point_ignored(self):
        h = hull_2d([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
        assert len(h.hull) == 4
        assert h.area == pytest.approx(1.0)

    def test_random_points_inside(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 1, size=(100, 2))
        h = hull_2d(pts)
        poly = Polytope(*_hull_to_H(h.hull))
        for p in pts:
            assert poly.contains(p, tol=1e-9)

    def test_collinear_degenerate(self):
        h = hull_2d([[0, 0], [1, 1], [2, 2]])
        assert h.area == 0.0

    def test_ccw_orientation(self):
        h = hull_2d([[0, 0], [2, 0], [2, 2], [0, 2], [1, -0.5]])
        x, y = h.hull[:, 0], h.hull[:, 1]
        signed = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        assert signed > 0


def _hull_to_H(verts):
    """H-form of a CCW polygon (edge normals point outward)."""
    rows, offs = [], []
    n = len(verts)
    for i in range(n):
        p, q = verts[i], verts[(i + 1) % n]
        e = q - p
        normal = np.array([e[1], -e[0]])
        rows.append(normal)
        offs.append(normal @ p)
    return np.array(rows), np.array(offs)


def test_vertices_2d_box():
    v = vertices_2d(Polytope.from_box([-1, -2], [3, 4]))
    assert len(v) == 4
    assert shoelace_area(v) == pytest.approx(24.0)


def test_serialization_roundtrip():
    d = UNIT_BOX.to_dict()
    assert "box" in d
    P = Polytope.from_dict(d)
    assert is_subset(P, UNIT_BOX) and is_subset(UNIT_BOX, P)
    d2 = Polytope([[1.0, 0.0]], [2.0]).to_dict()
    assert set(d2) == {"H", "h"}


class TestProjectionCuts:
    """Projection of {(x, z) : G z + R x <= h} onto x by support LPs."""

    @staticmethod
    def _lifted_copy(H, h):
        # x = z with z in {H z <= h}: the projection onto x is {H x <= h}
        d = H.shape[1]
        eye = np.eye(d)
        R = np.vstack([eye, -eye, np.zeros_like(H)])
        G = np.vstack([-eye, eye, H])
        return G, R, np.concatenate([np.zeros(2 * d), h])

    @staticmethod
    def _check_multipliers(cuts, G, R, h):
        assert np.all(cuts.Y >= 0.0)
        np.testing.assert_allclose(cuts.Y.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.max(np.abs(cuts.Y @ G)) <= 1e-9
        np.testing.assert_array_equal(cuts.normals, cuts.Y @ R)
        np.testing.assert_array_equal(cuts.offsets, cuts.Y @ h)

    def test_hexagon_is_exact_in_2d(self):
        angles = np.arange(6) * np.pi / 3 + 0.1
        H = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        h = np.array([1.0, 2.0, 1.5, 1.0, 2.0, 1.5])
        G, R, hl = self._lifted_copy(H, h)
        cuts = projection_cuts(G, R, hl)
        self._check_multipliers(cuts, G, R, hl)
        got = vertices_2d(Polytope(cuts.normals, cuts.offsets))
        want = vertices_2d(Polytope(H, h))
        assert len(got) == len(want) == 6
        np.testing.assert_allclose(got, want, atol=1e-9)
        # four axis LPs, then one LP per edge confirmed and one per vertex found
        assert cuts.n_lps == len(cuts) == 12
        assert cuts.seconds > 0.0

    def test_interval_is_exact_in_1d(self):
        G, R, h = self._lifted_copy(np.array([[1.0], [-1.0]]), np.array([2.0, 3.0]))
        cuts = projection_cuts(G, R, h)
        self._check_multipliers(cuts, G, R, h)
        assert cuts.n_lps == len(cuts) == 2
        np.testing.assert_allclose(cuts.offsets / np.abs(cuts.normals[:, 0]), [2.0, 3.0], atol=1e-12)

    def test_flat_start_is_exact_in_2d(self):
        # a rhombus whose +-e_i supports are two vertices, (2, 2) and (-2, -2):
        # the first round probes both sides of the line through them
        H = np.array([[-1.0, 3.0], [1.0, -3.0], [3.0, -1.0], [-3.0, 1.0]])
        G, R, hl = self._lifted_copy(H, np.full(4, 4.0))
        cuts = projection_cuts(G, R, hl)
        self._check_multipliers(cuts, G, R, hl)
        got = vertices_2d(Polytope(cuts.normals, cuts.offsets))
        np.testing.assert_allclose(got, vertices_2d(Polytope(H, np.full(4, 4.0))), atol=1e-9)
        # four axis LPs, two across the flat, one per edge
        assert cuts.n_lps == len(cuts) == 10

    def test_octahedron_is_exact_in_3d(self):
        # |x1| + |x2| + |x3| <= 1: the axis LPs find its six vertices and one
        # round confirms its eight facets
        signs = np.array([[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)], float)
        G, R, h = self._lifted_copy(signs, np.ones(8))
        cuts = projection_cuts(G, R, h)
        self._check_multipliers(cuts, G, R, h)
        assert cuts.n_lps == len(cuts) == 14
        octahedron = Polytope(signs, np.ones(8))
        cut = Polytope(cuts.normals, cuts.offsets)
        assert is_subset(octahedron, cut) and is_subset(cut, octahedron)

    def test_lp_cap_or_qhull_error_ends_the_build_with_valid_cuts(self, monkeypatch, caplog):
        signs = np.array([[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)], float)
        G, R, h = self._lifted_copy(signs, np.ones(8))
        octahedron = Polytope(signs, np.ones(8))
        # at the cap, in the middle of the first round; the stop is logged
        monkeypatch.setattr(geometry, "_MAX_SUPPORT_LPS", 9)
        with caplog.at_level(logging.WARNING, logger="rampc"):
            cuts = projection_cuts(G, R, h)
        self._check_multipliers(cuts, G, R, h)
        assert cuts.n_lps == len(cuts) == 9
        assert is_subset(octahedron, Polytope(cuts.normals, cuts.offsets))
        assert [r.name for r in caplog.records] == ["rampc.geometry"]
        assert "the cap, 9 support LPs" in caplog.records[0].getMessage()
        monkeypatch.undo()

        # Qhull fails on every hull: the two planes that bound the points
        # across their least spread are probed, neither moves, and the build
        # stops with an outer bound
        def raises(points):
            raise geometry.QhullError("forced")

        monkeypatch.setattr(geometry, "ConvexHull", raises)
        cuts = projection_cuts(G, R, h)
        self._check_multipliers(cuts, G, R, h)
        assert cuts.n_lps == len(cuts) == 8
        assert is_subset(octahedron, Polytope(cuts.normals, cuts.offsets))

    def test_empty_or_unbounded_set_ends_the_build(self, caplog):
        # empty: the first support LP is infeasible and no cut is kept
        G, R, h = self._lifted_copy(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0]))
        with caplog.at_level(logging.WARNING, logger="rampc"):
            cuts = projection_cuts(G, R, h)
        assert len(cuts) == 0 and cuts.n_lps == 1 and not cuts
        # unbounded towards -e_1: the cuts found before that direction stay
        G, R, h = self._lifted_copy(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.ones(3))
        with caplog.at_level(logging.WARNING, logger="rampc"):
            cuts = projection_cuts(G, R, h)
        assert cuts.n_lps == 3 and len(cuts) == 2
        assert np.all(cuts.normals @ np.array([1.0, 1.0]) <= cuts.offsets + 1e-9)
        # each stop at a non-OPTIMAL support LP is logged with its status
        messages = [r.getMessage() for r in caplog.records if r.name == "rampc.geometry"]
        assert len(messages) == 2
        assert "ended infeasible" in messages[0] and "ended unbounded" in messages[1]
