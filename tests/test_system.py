"""Uncertainty bounding, realization sampling, and the problem loader."""
import numpy as np
import pytest

from rampc.errors import ProblemFormatError, UnboundedConstraintSetError
from rampc.geometry import Polytope
from rampc.system import (
    UncertainSystem,
    load_problem,
    load_problem_dict,
    net_additive_bound,
    sample_realization,
)

from conftest import scalar_problem_dict


def _system(da_vertices, db_vertices, W, X, U):
    return UncertainSystem(
        A_bar=np.eye(X.dim) * 0.9,
        B_bar=np.ones((X.dim, U.dim)) * 0.5,
        deltaA_vertices=da_vertices,
        deltaB_vertices=db_vertices,
        W=W,
        X=X,
        U=U,
    )


def _box(r, d):
    return Polytope.from_box([-r] * d, [r] * d)


class TestNetAdditiveBound:
    def test_pure_additive(self):
        sys = _system([np.zeros((2, 2))], [np.zeros((2, 1))], _box(0.1, 2), _box(8, 2), _box(4, 1))
        b = net_additive_bound(sys)
        assert b.w_tilde_max == pytest.approx(0.1)
        assert b.dA_norm == 0.0 and b.dB_norm == 0.0

    def test_composed_example(self):
        # dA = +-0.1 I, dB = +-0.1 (1,1)', X = [-8,8]^2, U = [-4,4], W = [-0.1,0.1]^2
        sys = _system(
            [0.1 * np.eye(2), -0.1 * np.eye(2)],
            [0.1 * np.ones((2, 1)), -0.1 * np.ones((2, 1))],
            _box(0.1, 2),
            _box(8, 2),
            _box(4, 1),
        )
        b = net_additive_bound(sys)
        assert b.dA_norm == pytest.approx(0.1)
        assert b.dB_norm == pytest.approx(0.1)
        assert b.x_max == pytest.approx(8.0)
        assert b.u_max == pytest.approx(4.0)
        assert b.w_tilde_max == pytest.approx(0.1 * 8 + 0.1 * 4 + 0.1)

    def test_radius_of_asymmetric_polytope(self):
        # a general H-polytope whose largest coordinate magnitude is a lower bound
        X = Polytope(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]], [2.0, 5.0, 3.0, 1.0, 4.0]
        )
        sys = _system([np.zeros((2, 2))], [np.zeros((2, 1))], _box(0.1, 2), X, _box(4, 1))
        assert net_additive_bound(sys).x_max == 5.0

    def test_scaling_w_only_scales_w_max(self):
        mk = lambda wr: _system(
            [0.1 * np.eye(2)], [np.zeros((2, 1))], _box(wr, 2), _box(8, 2), _box(4, 1)
        )
        b1, b2 = net_additive_bound(mk(0.1)), net_additive_bound(mk(0.2))
        assert b2.w_max == pytest.approx(2 * b1.w_max)
        assert b2.dA_norm == b1.dA_norm and b2.x_max == b1.x_max
        assert b2.w_tilde_max - b1.w_tilde_max == pytest.approx(0.1)

    def test_monotone_in_set_scaling(self):
        for lam in (1.0, 1.5, 3.0):
            sys = _system(
                [0.05 * np.eye(2)],
                [0.05 * np.ones((2, 1))],
                _box(0.1 * lam, 2),
                _box(8 * lam, 2),
                _box(4 * lam, 1),
            )
            b = net_additive_bound(sys)
            if lam == 1.0:
                base = b.w_tilde_max
            else:
                assert b.w_tilde_max >= base

    def test_domination_over_random_triples(self):
        rng = np.random.default_rng(9)
        sys = _system(
            [0.08 * np.eye(2), -0.08 * np.eye(2)],
            [0.06 * np.ones((2, 1)), -0.06 * np.ones((2, 1))],
            _box(0.1, 2),
            _box(5, 2),
            _box(3, 1),
        )
        b = net_additive_bound(sys)
        for _ in range(100):
            real = sample_realization(sys, 100, seed=int(rng.integers(1 << 30)))
            xs = rng.uniform(-5, 5, size=(100, 2))
            us = rng.uniform(-3, 3, size=(100, 1))
            vals = np.abs(
                xs @ real.deltaA_true.T + us @ real.deltaB_true.T + real.w_sequence
            ).max(axis=1)
            assert vals.max() <= b.w_tilde_max + 1e-12

    def test_vertex_max_dominates_hull(self):
        rng = np.random.default_rng(10)
        V1, V2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        vmax = max(np.abs(V1).sum(axis=1).max(), np.abs(V2).sum(axis=1).max())
        for _ in range(200):
            t = rng.uniform()
            M = t * V1 + (1 - t) * V2
            assert np.abs(M).sum(axis=1).max() <= vmax + 1e-12


class TestSampleRealization:
    @pytest.fixture()
    def sys2(self):
        return _system(
            [0.1 * np.eye(2), -0.1 * np.eye(2)],
            [0.1 * np.ones((2, 1)), -0.1 * np.ones((2, 1))],
            _box(0.1, 2),
            _box(8, 2),
            _box(4, 1),
        )

    def test_deterministic(self, sys2):
        r1 = sample_realization(sys2, 10, seed=42)
        r2 = sample_realization(sys2, 10, seed=42)
        np.testing.assert_array_equal(r1.w_sequence, r2.w_sequence)
        np.testing.assert_array_equal(r1.deltaA_true, r2.deltaA_true)

    def test_membership(self, sys2):
        r = sample_realization(sys2, 50, seed=3)
        assert r.weights_A.min() >= 0 and r.weights_A.sum() == pytest.approx(1.0)
        assert r.weights_B.min() >= 0 and r.weights_B.sum() == pytest.approx(1.0)
        for w in r.w_sequence:
            assert sys2.W.contains(w, tol=1e-12)


class TestLoader:
    def test_default_example_loads(self, default_problem):
        assert default_problem.d == 2 and default_problem.m == 1
        assert default_problem.N == 5
        np.testing.assert_allclose(default_problem.K, [[-0.4866, -0.4374]])

    def test_missing_key_names_path(self, tmp_problem_file):
        data = scalar_problem_dict()
        del data["A_bar"]
        with pytest.raises(ProblemFormatError) as exc:
            load_problem(tmp_problem_file(data))
        assert exc.value.path == "A_bar"

    def test_bad_vertex_shape(self, tmp_problem_file):
        data = scalar_problem_dict()
        data["deltaA_vertices"] = [[[0.0, 0.0]]]
        with pytest.raises(ProblemFormatError) as exc:
            load_problem(tmp_problem_file(data))
        assert "deltaA_vertices[0]" == exc.value.path

    def test_cost_not_pd(self, tmp_problem_file):
        data = scalar_problem_dict()
        data["cost"]["P"] = [[0.0]]
        with pytest.raises(ProblemFormatError) as exc:
            load_problem(tmp_problem_file(data))
        assert exc.value.path == "cost.P"

    def test_origin_not_interior(self, tmp_problem_file):
        data = scalar_problem_dict()
        data["X"] = {"box": {"lo": [0.5], "hi": [1.0]}}
        with pytest.raises(ProblemFormatError):
            load_problem(tmp_problem_file(data))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ProblemFormatError):
            load_problem(path)

    def test_bad_polytope_spec(self, tmp_problem_file):
        data = scalar_problem_dict()
        data["W"] = {"lo": [-1], "hi": [1]}
        with pytest.raises(ProblemFormatError) as exc:
            load_problem(tmp_problem_file(data))
        assert exc.value.path == "W"

    def test_bad_horizon(self, tmp_problem_file):
        data = scalar_problem_dict()
        data["N"] = 0
        with pytest.raises(ProblemFormatError) as exc:
            load_problem(tmp_problem_file(data))
        assert exc.value.path == "N"

    def test_unbounded_constraint_set(self):
        with pytest.raises(UnboundedConstraintSetError):
            UncertainSystem(
                A_bar=[[1.0]],
                B_bar=[[1.0]],
                deltaA_vertices=[np.zeros((1, 1))],
                deltaB_vertices=[np.zeros((1, 1))],
                W=_box(0.1, 1),
                X=Polytope([[1.0]], [1.0]),  # no lower bound
                U=_box(1, 1),
            )

    def test_load_problem_dict_rng_default(self):
        data = scalar_problem_dict()
        data["rng"] = {"seed": 11}
        prob = load_problem_dict(data)
        assert prob.default_seed == 11
