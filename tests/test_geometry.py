"""Geometry operations against analytic and enumeration oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampc.errors import DimensionMismatchError, EmptyPolytopeError, UnboundedDirectionError
from rampc.geometry import (
    Polytope,
    hull_2d,
    is_subset,
    max_robust_invariant,
    pre_set,
    projection_cuts,
    remove_redundant,
    shoelace_area,
    support,
    vertices_2d,
)

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

    def test_outer_box_in_3d(self):
        # the octahedron |x1| + |x2| + |x3| <= 1 gets its bounding box
        signs = np.array([[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)], float)
        G, R, h = self._lifted_copy(signs, np.ones(8))
        cuts = projection_cuts(G, R, h)
        self._check_multipliers(cuts, G, R, h)
        assert cuts.n_lps == len(cuts) == 6
        box = Polytope(cuts.normals, cuts.offsets)
        assert is_subset(Polytope(signs, np.ones(8)), box)
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            assert support(box, e) == pytest.approx(1.0, abs=1e-9)

    def test_empty_or_unbounded_set_ends_the_build(self):
        # empty: the first support LP is infeasible and no cut is kept
        G, R, h = self._lifted_copy(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0]))
        cuts = projection_cuts(G, R, h)
        assert len(cuts) == 0 and cuts.n_lps == 1 and not cuts
        # unbounded towards -e_1: the cuts found before that direction stay
        G, R, h = self._lifted_copy(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.ones(3))
        cuts = projection_cuts(G, R, h)
        assert cuts.n_lps == 3 and len(cuts) == 2
        assert np.all(cuts.normals @ np.array([1.0, 1.0]) <= cuts.offsets + 1e-9)
