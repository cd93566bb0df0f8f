"""Contract tests for the LP/QP layer."""
import logging
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from rampc.baseline import BaselineController, make_baseline_config
from rampc.controller import AdaptiveController, MPCConfig, synthesize_terminal
from rampc.qpsolver import ParametricQP, SolveStatus, admm, lp, solve_lp, verify_farkas
from rampc.system import net_additive_bound

from conftest import random_stable_system


def _solve(Q, q, G, h):
    """One solve of min 1/2 x'Qx + q'x s.t. G x <= h."""
    return ParametricQP(Q, G).solve(q, h)


def test_min_quadratic_above_one():
    # min x^2 s.t. x >= 1: with the 1/2 x'Qx convention Q=2 and the optimum is 1
    out = _solve([[2.0]], [0.0], [[-1.0]], [-1.0])
    assert out.status is SolveStatus.OPTIMAL
    assert abs(out.x_opt[0] - 1.0) < 1e-8
    assert abs(out.objective - 1.0) < 1e-8


def test_contradictory_rows_infeasible_with_certificate():
    G, h = np.array([[1.0], [-1.0]]), np.array([0.0, -1.0])
    out = _solve([[0.0]], [0.0], G, h)
    assert out.status is SolveStatus.INFEASIBLE
    assert out.farkas is not None
    assert verify_farkas(G, h, None, None, out.farkas)


def _projected_gradient(Q, q, lo, hi, iters=200_000):
    """Independent first-order oracle for box-constrained QPs."""
    L = np.linalg.eigvalsh(Q).max()
    x = np.zeros(len(q))
    for _ in range(iters):
        x = np.clip(x - (Q @ x + q) / L, lo, hi)
    return 0.5 * x @ Q @ x + q @ x


def test_random_psd_box_qp_matches_projected_gradient():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = 8
        A = rng.normal(size=(n, n))
        Q = A.T @ A + 0.5 * np.eye(n)
        q = rng.normal(size=n)
        lo, hi = -0.8 * np.ones(n), 0.8 * np.ones(n)
        G = np.vstack([np.eye(n), -np.eye(n)])
        h = np.concatenate([hi, -lo])
        out = _solve(Q, q, G, h)
        assert out.status is SolveStatus.OPTIMAL
        ref = _projected_gradient(Q, q, lo, hi)
        assert abs(out.objective - ref) < 1e-6


def test_objective_matches_quadratic_form_and_kkt():
    rng = np.random.default_rng(11)
    n = 12
    A = rng.normal(size=(n, n))
    Q = A.T @ A
    q = rng.normal(size=n)
    G = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(6, n))])
    h = np.concatenate([np.ones(2 * n), rng.normal(size=6) + 4.0])
    out = _solve(Q, q, G, h)
    assert out.status is SolveStatus.OPTIMAL
    x, y = out.x_opt, out.y_ineq
    assert abs(out.objective - (0.5 * x @ Q @ x + q @ x)) < 1e-8
    assert float(np.max(G @ x - h)) <= 1e-8
    assert float(np.max(np.abs(Q @ x + q + G.T @ y))) <= 1e-6
    assert y.min() >= -1e-8


def test_degenerate_cost_block():
    # zero-cost coordinates (like feedback-gain variables) must still solve
    Q = np.diag([2.0, 0.0, 0.0])
    G = np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 1.0]]])
    h = np.concatenate([np.full(3, 2.0), np.full(3, 2.0), [1.0]])
    out = _solve(Q, [-2.0, 0.0, 0.0], G, h)
    assert out.status is SolveStatus.OPTIMAL
    assert abs(out.x_opt[0] - 1.0) < 1e-7  # unconstrained minimum of (x0-1)^2


def test_unbounded_qp_ends_in_numerical_failure(monkeypatch, caplog):
    # no QP the package poses is unbounded below (see the test that follows),
    # so an unbounded one runs to the cap: the probe finds it feasible, and
    # the step-size rule at a zero primal residual raises no warning; the
    # cap is logged once to the package logger, which has a NullHandler so
    # that it stays silent until the application configures logging
    monkeypatch.setattr(admm, "_MAX_ITER", 500)
    with warnings.catch_warnings(), caplog.at_level(logging.WARNING, logger="rampc"):
        warnings.simplefilter("error")
        out = _solve([[0.0]], [-1.0], [[-1.0]], [0.0])
    assert out.status is SolveStatus.NUMERICAL_FAILURE
    assert out.iterations == 500 and out.x_opt is None
    assert [(r.name, r.levelno) for r in caplog.records] == [("rampc.qpsolver.admm", logging.WARNING)]
    assert "iteration cap (500)" in caplog.records[0].getMessage()
    assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("rampc").handlers)


def test_every_template_qp_is_bounded_below(default_problem, default_controller, baseline_controller):
    # 1/2 z'Qz + q'z with Q PSD and q in the range of Q is bounded below on
    # all of R^n, so no horizon QP of either bank can be unbounded
    lo, hi = default_problem.system.X.bounding_box()
    states = np.random.default_rng(17).uniform(lo, hi, size=(20, 2))
    templates = [*default_controller.templates.values(), baseline_controller.template]
    for tpl in templates:
        eig = np.linalg.eigvalsh(tpl.Q)
        assert eig.min() >= -1e-12 * eig.max(), (tpl.horizon, eig.min())
        for x in states:
            q, _ = tpl.parts(x)
            z = np.linalg.lstsq(tpl.Q, q, rcond=None)[0]
            assert np.max(np.abs(tpl.Q @ z - q)) <= 1e-10 * max(1.0, np.max(np.abs(q))), (tpl.horizon, x)


def test_determinism_bitwise():
    rng = np.random.default_rng(3)
    Q = np.diag(np.concatenate([np.ones(4), np.zeros(8)]))
    q = rng.normal(size=12)
    G = np.vstack([np.eye(12), -np.eye(12), rng.normal(size=(10, 12))])
    h = np.concatenate([2 * np.ones(24), rng.normal(size=10) + 3])
    o1, o2 = _solve(Q, q, G, h), _solve(Q, q, G, h)
    assert o1.status == o2.status
    assert o1.objective == o2.objective
    assert np.array_equal(o1.x_opt, o2.x_opt)


def test_lp_examples():
    # max x over [-1, 1] -> 1 (minimize -x)
    out = solve_lp([-1.0], [[1.0], [-1.0]], [1.0, 1.0])
    assert out.status is SolveStatus.OPTIMAL and abs(-out.objective - 1.0) < 1e-9
    # contradictory rows -> infeasible (never "unbounded")
    out = solve_lp([-1.0], [[1.0], [-1.0]], [0.0, -1.0])
    assert out.status is SolveStatus.INFEASIBLE
    assert out.farkas is not None
    # max (2,1).x over the simplex -> 2, by vertex enumeration oracle
    G = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    h = np.array([1.0, 0.0, 0.0])
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    oracle = max(v @ np.array([2.0, 1.0]) for v in verts)
    out = solve_lp([-2.0, -1.0], G, h)
    assert abs(-out.objective - oracle) < 1e-9
    # unbounded direction is distinguished from infeasible
    out = solve_lp([-1.0, 0.0], [[0.0, 1.0], [0.0, -1.0]], [1.0, 1.0])
    assert out.status is SolveStatus.UNBOUNDED


def test_farkas_on_random_infeasible_systems():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = rng.integers(2, 5)
        G = rng.normal(size=(6, n))
        x0 = rng.normal(size=n)
        h = G @ x0 + rng.uniform(0.1, 1.0, size=6)
        # append a contradiction of a valid row
        G = np.vstack([G, -G[0]])
        h = np.concatenate([h, [-h[0] - 1.0]])
        out = solve_lp(np.zeros(n), G, h)
        assert out.status is SolveStatus.INFEASIBLE
        assert verify_farkas(G, h, None, None, out.farkas)


@pytest.fixture(scope="module")
def baseline_controller(default_problem, default_cfg):
    prob = default_problem
    bcfg = make_baseline_config(prob.system, prob.K, prob.P, prob.R, prob.N, bound=default_cfg.bound)
    return BaselineController(prob.system, bcfg)


def test_factor_solves_dense_x_update_system(default_controller, baseline_controller):
    # every horizon QP of both banks, at the base step size and at both clamps
    banks = (default_controller, baseline_controller)
    solvers = [solver for bank in banks for solver in bank.solvers.values()]
    rng = np.random.default_rng(13)
    for solver in solvers:
        A_s = solver.A_s.toarray()
        for scale in (1e-4, 1.0, 1e4):
            lu, rho, _ = solver._factor(scale)
            M = solver.P_s.toarray() + admm._SIGMA * np.eye(solver.n) + (A_s.T * rho) @ A_s
            b = rng.normal(size=solver.n)
            residual = np.linalg.norm(M @ lu.solve(b) - b)
            assert residual <= 1e-10 * np.linalg.norm(b), (solver.n, scale, residual)


def _dense_ruiz(P, A, iters):
    """Oracle for the sparse Ruiz passes: the same passes on dense copies."""
    d = np.ones(P.shape[0])
    e = np.ones(A.shape[0])
    Pb, Ab = P.copy(), A.copy()
    for _ in range(iters):
        col = np.maximum(np.abs(Pb).max(axis=0), np.abs(Ab).max(axis=0))
        dd = 1.0 / np.sqrt(np.maximum(col, 1e-12))
        ee = 1.0 / np.sqrt(np.maximum(np.abs(Ab).max(axis=1), 1e-12))
        Pb = Pb * dd[:, None] * dd[None, :]
        Ab = Ab * ee[:, None] * dd[None, :]
        d *= dd
        e *= ee
    mean_cost = float(np.abs(Pb).max(axis=0).mean())
    c = 1.0 / min(max(mean_cost, 1e-6), 1e6) if mean_cost > 0 else 1.0
    return d, e, min(max(c, 1e-6), 1e6)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_bank(seed):
    rng = np.random.default_rng(seed)
    sys, K = random_stable_system(rng, da=0.03, db=0.02)
    term = synthesize_terminal(sys, K, np.eye(2), np.eye(1), hull_samples=20)
    cfg = MPCConfig(P=np.eye(2), R=np.eye(1), N=3, terminal=term, bound=net_additive_bound(sys))
    return AdaptiveController(sys, cfg)


def test_sparse_preparation_matches_dense_build_bitwise(default_controller, baseline_controller):
    # Ruiz on the nonzeros and every prepared CSR/CSC matrix, against the
    # dense Ruiz passes and the matrices built from dense scaled copies
    banks = [default_controller, baseline_controller, _random_bank(1), _random_bank(7)]
    for bank in banks:
        for n, tpl in bank.templates.items():
            Q, G, solver = tpl.Q, tpl.G, bank.solvers[n]
            d, e, c = _dense_ruiz(Q, G, admm._RUIZ_ITERS)
            assert _same_bits(solver.d, d) and _same_bits(solver.e, e), n
            assert _same_bits(solver.c, c), n
            A_s = sp.csr_matrix(G * e[:, None] * d[None, :])
            dense = {
                "Q": sp.csr_matrix(Q),
                "A": sp.csr_matrix(G),
                "At": sp.csr_matrix(G).T.tocsr(),
                "A_s": A_s,
                "At_s": A_s.T.tocsr(),
                "P_s": sp.csc_matrix(c * (Q * d[:, None] * d[None, :])),
            }
            for name, M in dense.items():
                got = getattr(solver, name)
                assert got.format == M.format and got.shape == M.shape, (n, name)
                for part in ("indptr", "indices", "data"):
                    assert _same_bits(getattr(got, part), getattr(M, part)), (n, name, part)


def _dense_kkt_met(tpl, q, h, x, y):
    """The 1e-8 KKT contract, recomputed from the template's dense Q and G."""
    stationarity = np.max(np.abs(tpl.Q @ x + q + tpl.G.T @ y))
    return bool(
        np.max(tpl.G @ x - h) <= 1e-8 and np.min(y) >= 0.0
        and stationarity <= 1e-8 * max(1.0, np.max(np.abs(q)))
    )


def test_solve_returns_first_check_meeting_kkt_contract(monkeypatch, default_controller, baseline_controller):
    # every check's iterate, unscaled with its duals clipped at zero, is tried
    # against the contract; the solve returns at the first one that meets it
    iterates = []
    batch = admm._admm_batch

    def recorded(*args):
        out = batch(*args)
        iterates.append(out[:3])
        return out

    monkeypatch.setattr(admm, "_admm_batch", recorded)
    cases = [(bank, n, np.zeros(2)) for bank in (default_controller, baseline_controller) for n in bank.templates]
    cases.append((default_controller, 1, np.array([3.0, -2.0])))
    for bank, n, x in cases:
        tpl, solver = bank.templates[n], bank.solvers[n]
        q, h = tpl.parts(x)
        iterates.clear()
        out = solver.solve(q, h)
        met = [
            _dense_kkt_met(tpl, q, h, solver.d * xs, np.maximum(solver.e * ys / solver.c, 0.0))
            for xs, _, ys in iterates
        ]
        assert out.is_optimal and met[-1] and not any(met[:-1]), (n, x, met)
        assert out.iterations == len(met) * admm._CHECK_EVERY, (n, x)
        assert np.array_equal(out.x_opt, solver.d * iterates[-1][0])


def test_contract_never_met_gives_up_before_the_cap(monkeypatch):
    # residuals alone never make a result OPTIMAL: when no iterate passes the
    # KKT check, 1e-10 residuals end the solve as a numerical failure
    monkeypatch.setattr(ParametricQP, "_kkt_ok", lambda self, primal, y, stationarity, q: False)
    G = np.vstack([np.eye(2), -np.eye(2), [[-1.0, -1.0]]])
    h = np.array([1.0, 1.0, 1.0, 1.0, -1.0])
    out = _solve(np.diag([2.0, 1.0]), [0.5, -0.25], G, h)
    assert out.status is SolveStatus.NUMERICAL_FAILURE
    assert out.iterations < admm._MAX_ITER


def test_diagnostics_report_factorizations(default_controller):
    def fresh(n):  # a solver whose factor cache holds only the base step size
        tpl = default_controller.templates[n]
        return tpl, ParametricQP(tpl.Q, tpl.G)

    tpl, solver = fresh(1)
    out = solver.solve(*tpl.parts(np.array([3.0, -2.0])))
    assert out.is_optimal
    tpl, solver = fresh(5)
    out = solver.solve(*tpl.parts(np.array([3.0, -2.0])))
    assert out.is_optimal and out.diagnostics == {"factorizations": 0, "rho_updates": 0}
    # N_t = 5 at (-4, -4) changes the step size; a re-solve finds its factor cached
    q, h = tpl.parts(np.array([-4.0, -4.0]))
    first, again = solver.solve(q, h), solver.solve(q, h)
    assert first.is_optimal and first.diagnostics["factorizations"] >= 1
    assert again.diagnostics["factorizations"] == 0
    assert np.array_equal(first.x_opt, again.x_opt)


def test_hard_state_adapts_step_size_reproducibly(default_problem, default_controller):
    # a far feasible grid state at N_t = 5 needs more than one step size
    lo, hi = default_problem.system.X.bounding_box()
    axis = np.linspace(lo[0], hi[0], 10)
    x = np.array([axis[2], axis[1]])  # (-4.44..., -6.22...)
    tpl = default_controller.templates[5]
    solver = ParametricQP(tpl.Q, tpl.G)
    q, h = tpl.parts(x)
    first, again = solver.solve(q, h), solver.solve(q, h)
    assert first.is_optimal and first.diagnostics["rho_updates"] >= 1
    assert again.iterations == first.iterations
    assert again.diagnostics["rho_updates"] == first.diagnostics["rho_updates"]
    assert np.array_equal(first.x_opt, again.x_opt) and np.array_equal(first.y_ineq, again.y_ineq)
    assert first.objective == again.objective


def test_false_alarms_share_one_feasibility_probe(monkeypatch, default_problem, default_controller):
    # the probe depends only on (G, h): with the ADMM signal forced at every
    # check, a feasible solve asks HiGHS once and returns the same result
    lo, hi = default_problem.system.X.bounding_box()
    axis = np.linspace(lo[0], hi[0], 10)
    tpl = default_controller.templates[5]
    solver = ParametricQP(tpl.Q, tpl.G)
    q, h = tpl.parts(np.array([axis[2], axis[1]]))
    plain = solver.solve(q, h)
    probes = []

    def probe(G, h_):
        probes.append(h_)
        return lp.feasible_point(G, h_)

    monkeypatch.setattr(admm, "feasible_point", probe)
    monkeypatch.setattr(ParametricQP, "_primal_inf_signal", lambda self, dyu, up: True)
    alarmed = solver.solve(q, h)
    assert len(probes) == 1
    assert alarmed.is_optimal and alarmed.iterations == plain.iterations > admm._CHECK_EVERY
    assert np.array_equal(alarmed.x_opt, plain.x_opt) and np.array_equal(alarmed.y_ineq, plain.y_ineq)
    assert alarmed.objective == plain.objective


def test_shape_validation_rejects_mismatch():
    # Q must be square and match G's column count; definiteness is not checked
    with pytest.raises(ValueError, match="square"):
        ParametricQP(np.ones((2, 3)), np.ones((1, 3)))
    with pytest.raises(ValueError, match="columns"):
        ParametricQP(np.eye(2), np.ones((1, 3)))
    with pytest.raises(ValueError, match="columns"):
        ParametricQP(np.eye(3), np.ones((4, 2)))


def test_qp_without_inequality_rows_rejected():
    # every QP the package poses has inequality rows; a G with none is refused
    with pytest.raises(ValueError, match="no rows"):
        ParametricQP(np.eye(2), np.zeros((0, 2)))
