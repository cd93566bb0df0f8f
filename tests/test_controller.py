"""Controller: terminal synthesis, the two robustification cases, adaptivity."""
import hashlib

import numpy as np
import pytest

from rampc import controller, geometry
from rampc.baseline import BaselineController, make_baseline_config
from rampc.controller import (
    AdaptiveController,
    Case1Template,
    CaseNTemplate,
    lyapunov_series,
    rollout_policy,
    synthesize_terminal,
)
from rampc.errors import (
    AllHorizonsInfeasibleError,
    DimensionMismatchError,
    HistoryLengthMismatchError,
    VertexUnstableError,
)
from rampc.geometry import Polytope, is_subset, support, vertices_2d
from rampc.prediction import FeedbackGainStack, _acausal_mask, build_stacked
from rampc.qpsolver import ParametricQP, SolveOutcome, SolveStatus, verify_farkas
from rampc.simulator import simulate_closed_loop
from rampc.system import UncertainSystem, load_problem_dict, sample_realization

from conftest import (
    assert_tail_cost_matches_oracle,
    horizon_plan,
    random_stable_system,
    scalar_problem_dict,
    tightened_row_values,
)

TINY_W = 1e-9  # stands in for "no disturbance" (supports must stay positive)


def _scalar_sys(a=1.0, b=1.0, da=0.0, db=0.0, w=0.1, xb=1.0, ub=1.0):
    return UncertainSystem(
        A_bar=[[a]],
        B_bar=[[b]],
        deltaA_vertices=[[[da]], [[-da]]] if da else [[[0.0]]],
        deltaB_vertices=[[[db]], [[-db]]] if db else [[[0.0]]],
        W=Polytope.from_box([-w], [w]),
        X=Polytope.from_box([-xb], [xb]),
        U=Polytope.from_box([-ub], [ub]),
    )


def _bits(v):
    return np.float64(v).tobytes()


def _per_sample_hull_radii(sys, K, samples):
    """Oracle for the vectorized hull screen: one ``rng.dirichlet`` pair, one
    vertex sum and one ``eigvals`` per sample, in draw order."""
    rng = np.random.default_rng(0)
    radii = []
    for _ in range(samples):
        wA = rng.dirichlet(np.ones(sys.n_a))
        wB = rng.dirichlet(np.ones(sys.n_b))
        dA = sum(w * V for w, V in zip(wA, sys.deltaA_vertices))
        dB = sum(w * V for w, V in zip(wB, sys.deltaB_vertices))
        radii.append(controller.spectral_radius((sys.A_bar + dA) + (sys.B_bar + dB) @ K))
    return radii


class TestSynthesizeTerminal:
    def test_scalar_example(self):
        # a=1, b=1, K=-0.5: a_cl = 0.5; [-1,1] is invariant for |w| <= 0.1
        sys = _scalar_sys()
        term = synthesize_terminal(sys, [[-0.5]], [[1.0]], [[1.0]], hull_samples=50)
        box = Polytope.from_box([-1], [1])
        assert is_subset(term.X_N, box) and is_subset(box, term.X_N)

    def test_scalar_lyapunov_closed_form(self):
        # p_N = (p + k^2 r) / (1 - a_cl^2) = 1.25 / 0.75 = 5/3
        sys = _scalar_sys()
        term = synthesize_terminal(sys, [[-0.5]], [[1.0]], [[1.0]], hull_samples=50)
        assert term.P_N[0, 0] == pytest.approx(5.0 / 3.0, abs=1e-10)

    def test_vertex_unstable_named(self):
        sys = _scalar_sys(da=0.6)  # a + da = 1.6, a_cl = 1.1 at one vertex
        with pytest.raises(VertexUnstableError) as exc:
            synthesize_terminal(sys, [[-0.5]], [[1.0]], [[1.0]], hull_samples=10)
        assert exc.value.vertex_pair is not None

    @pytest.mark.parametrize("samples", [0, 10, 1000])
    def test_hull_screen_matches_per_sample_draws_bitwise(self, default_problem, samples):
        # the default problem, and three dense A vertices (so that the order
        # of their sum matters) with one B vertex
        cases = [(default_problem.system, default_problem.K)]
        cases.append((
            UncertainSystem(
                A_bar=[[0.5, 0.2], [0.0, 0.4]],
                B_bar=[[0.0], [1.0]],
                deltaA_vertices=[
                    [[0.1, 0.05], [0.02, 0.1]], [[-0.05, 0.2], [-0.1, 0.03]], [[-0.1, -0.05], [0.1, 0.08]],
                ],
                deltaB_vertices=[[[0.1], [0.2]]],
                W=Polytope.from_box([-0.1, -0.1], [0.1, 0.1]),
                X=Polytope.from_box([-1, -1], [1, 1]),
                U=Polytope.from_box([-1], [1]),
            ),
            np.array([[-0.1, -0.3]]),
        ))
        for sys, K in cases:
            expected = _per_sample_hull_radii(sys, K, samples)
            got = controller._sampled_hull_radii(sys, K, samples)
            assert got.dtype == np.float64 and got.tobytes() == np.array(expected, dtype=float).tobytes()
            assert max(expected, default=0.0) < 1.0
            term = synthesize_terminal(sys, K, np.eye(2), np.eye(1), hull_samples=samples)
            assert _bits(term.hull_screen_max_radius) == _bits(max([0.0] + expected))

    def test_unstable_hull_point_raises_first_sample_radius(self):
        # nilpotent vertex loops (spectral radius 0) whose midpoint has radius
        # 1.01: the vertex screen passes, and the sampled hull screen fails at
        # its third sample, whose radius is below that of later ones
        a = 2.02
        sys = UncertainSystem(
            A_bar=np.zeros((2, 2)),
            B_bar=[[1.0], [0.0]],
            deltaA_vertices=[[[0.0, a], [0.0, 0.0]], [[0.0, 0.0], [a, 0.0]]],
            deltaB_vertices=[[[0.0], [0.0]]],
            W=Polytope.from_box([-0.1, -0.1], [0.1, 0.1]),
            X=Polytope.from_box([-1, -1], [1, 1]),
            U=Polytope.from_box([-1], [1]),
        )
        K = np.zeros((1, 2))
        radii = _per_sample_hull_radii(sys, K, 1000)
        first = next(r for r in radii if r >= 1.0)
        assert radii.index(first) == 2 and first < max(radii)
        with pytest.raises(VertexUnstableError) as exc:
            synthesize_terminal(sys, K, np.eye(2), np.eye(1), hull_samples=1000)
        assert str(exc.value) == (
            "closed loop unstable at a sampled hull point (spectral radius %.6f); "
            "vertex stability does not certify the hull" % first
        )
        assert exc.value.vertex_pair is None

    def test_descent_residual(self, default_problem, default_cfg):
        term = default_cfg.terminal
        A_cl = default_problem.system.A_bar + default_problem.system.B_bar @ term.K
        S = default_cfg.P + term.K.T @ default_cfg.R @ term.K
        resid = np.linalg.eigvalsh(-term.P_N + S + A_cl.T @ term.P_N @ A_cl).max()
        assert resid <= 1e-8
        assert term.descent_residual == resid  # synthesis stores the value it checked

    def test_default_terminal_sets_pinned(self, default_problem, default_cfg):
        # sha256 over the float64 bytes of H, then h, of the default adaptive
        # and lumped terminal sets as the per-row LP loop computed them
        def digest(P):
            return hashlib.sha256(P.H.tobytes() + P.h.tobytes()).hexdigest()

        prob = default_problem
        lump = make_baseline_config(
            prob.system, prob.K, prob.P, prob.R, prob.N, bound=default_cfg.bound
        ).X_N_lump
        assert (default_cfg.terminal.X_N.n_rows, lump.n_rows) == (12, 24)
        assert digest(default_cfg.terminal.X_N) == (
            "f509d0239d8df1bd473aebeb6f588232be8bee037f664fbb97645ad711d9c9d9"
        )
        assert digest(lump) == "9432575cb7e1922701dd6f56b67f7b9ab7b6426161a237ada743039afa623a15"

    def test_invariance_recheck_solves_lps(self, default_problem, default_cfg, monkeypatch):
        X_N = default_cfg.terminal.X_N
        sys = default_problem.system
        assert X_N.vertices is not None  # synthesis used the vertex cache

        def vertex_path(self):
            raise AssertionError("vertex cache read")

        monkeypatch.setattr(Polytope, "vertices", property(vertex_path))
        with pytest.raises(AssertionError, match="vertex cache read"):
            support(X_N, X_N.H[0])
        calls = []
        inner = geometry.solve_lp

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(geometry, "solve_lp", counted)
        cl = sys.vertex_closed_loops(default_cfg.terminal.K)
        controller._recheck_invariance(X_N, cl, sys.W)
        assert len(calls) == 1  # one block-diagonal LP for every facet and vertex loop


def test_lyapunov_series_matches_scipy():
    import scipy.linalg

    rng = np.random.default_rng(12)
    for _ in range(10):
        A = rng.normal(size=(3, 3))
        A = 0.8 * A / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
        S = rng.normal(size=(3, 3))
        S = S @ S.T + 0.1 * np.eye(3)
        P = lyapunov_series(A, S)
        ref = scipy.linalg.solve_discrete_lyapunov(A.T, S)
        np.testing.assert_allclose(P, ref, atol=1e-9)


def _solve_at(tpl, x):
    """One-off solve of a template's QP at x."""
    return ParametricQP(tpl.Q, tpl.G).solve(*tpl.parts(np.asarray(x, dtype=float)))


def _case_n(sys, term, w_tilde_max, N, P, R):
    return CaseNTemplate(sys, term.X_N.H, term.X_N.h, P, R, term.P_N, w_tilde_max, N)


def _interval_from_rows(G, h):
    """[lo, hi] feasible interval of a 1-variable inequality system."""
    lo, hi = -np.inf, np.inf
    for g, off in zip(G.ravel(), h):
        if g > 1e-14:
            hi = min(hi, off / g)
        elif g < -1e-14:
            lo = max(lo, off / g)
        elif off < 0:
            return None
    return None if lo > hi else (lo, hi)


class TestCase1:
    def test_origin_zero_cost(self):
        sys = _scalar_sys(w=TINY_W)
        term = synthesize_terminal(sys, [[-0.5]], [[1.0]], [[1.0]], hull_samples=10)
        out = _solve_at(Case1Template(sys, term, np.eye(1), np.eye(1)), [0.0])
        assert out.status is SolveStatus.OPTIMAL
        assert abs(out.x_opt[0]) < 1e-9
        assert abs(out.objective) < 1e-12

    def test_enumeration_oracle_scalar(self):
        # feasible-input interval must match the 4 vertex pairs x 2 extreme
        # disturbances brute force
        sys = _scalar_sys(da=0.1, db=0.05, w=0.1, xb=2.0, ub=4.0)
        term = synthesize_terminal(sys, [[-0.5]], [[1.0]], [[1.0]], hull_samples=10)
        x = 0.5
        tpl = Case1Template(sys, term, np.eye(1), np.eye(1))
        got = _interval_from_rows(tpl.G, tpl.parts(np.array([x]))[1])
        H_N, h_N = term.X_N.H, term.X_N.h
        lo, hi = -4.0, 4.0
        for dA in (0.1, -0.1):
            for dB in (0.05, -0.05):
                for w in (0.1, -0.1):
                    for f, off in zip(H_N.ravel(), h_N):
                        # f*((1+dA)x + (1+dB)u + w) <= off
                        g = f * (1 + dB)
                        rhs = off - f * ((1 + dA) * x + w)
                        if g > 0:
                            hi = min(hi, rhs / g)
                        elif g < 0:
                            lo = max(lo, rhs / g)
        assert got is not None
        assert got[0] == pytest.approx(lo, abs=1e-9)
        assert got[1] == pytest.approx(hi, abs=1e-9)

    def test_far_state_infeasible(self):
        sys = _scalar_sys(w=0.1)
        term = synthesize_terminal(sys, [[-0.5]], [[1.0]], [[1.0]], hull_samples=10)
        out = _solve_at(Case1Template(sys, term, np.eye(1), np.eye(1)), [50.0])
        assert out.status is SolveStatus.INFEASIBLE


class TestCaseN:
    def test_zero_bound_reduces_to_nominal(self):
        # with wtilde_max = 0 the tightenings vanish: the optimal cost equals
        # the nominal MPC cost computed from an explicitly assembled QP
        prob = load_problem_dict(scalar_problem_dict(w=0.05, x=2.0, u=1.0))
        sys = prob.system
        term = synthesize_terminal(sys, prob.K, prob.P, prob.R, hull_samples=10)
        N = 3
        out = _solve_at(_case_n(sys, term, 0.0, N, prob.P, prob.R), [0.8])
        # nominal comparison: min sum x'Px + u'Ru + terminal, no tightening
        sd = build_stacked(sys.A_bar, sys.B_bar, N)
        P_bar = np.diag([1.0, 1.0, term.P_N[0, 0]])
        Q = 2 * (sd.C.T @ P_bar @ sd.C + np.eye(N))
        q = 2 * sd.C.T @ P_bar @ sd.A_stack @ np.array([0.8])
        G = np.vstack(
            [
                np.vstack([sd.C[:2], -sd.C[:2]]),  # |x_k| <= 2 for k=1,2
                term.X_N.H @ sd.C[2:],             # terminal rows
                np.eye(N),
                -np.eye(N),
            ]
        )
        Ax = sd.A_stack @ np.array([0.8])
        h = np.concatenate(
            [
                np.concatenate([2.0 - Ax[:2], 2.0 + Ax[:2]]),
                term.X_N.h - term.X_N.H @ Ax[2:],
                np.ones(2 * N),
            ]
        )
        ref = ParametricQP(Q, G).solve(q, h)
        assert out.status is SolveStatus.OPTIMAL and ref.status is SolveStatus.OPTIMAL
        assert out.objective == pytest.approx(ref.objective, abs=1e-7)

    @pytest.mark.parametrize("bank", ["adaptive", "baseline"])
    def test_extract_equals_block_loop_reference(self, bank, default_controller, baseline_controller):
        # z = (ubar stack, the strictly lower M blocks (k, l < k) in row-major
        # block order, each block row-major, absolute-value variables)
        ctl = default_controller if bank == "adaptive" else baseline_controller
        rng = np.random.default_rng(7)
        horizons = [n for n in ctl.templates if n >= 2]
        assert horizons
        for N in horizons:
            tpl = ctl.templates[N]
            d, m = tpl.d, tpl.m
            for _ in range(20):
                z = rng.normal(size=tpl.n_vars)
                ref = np.zeros((m * N, d * N))
                base = m * N
                for k in range(1, N):
                    for l in range(k):
                        ref[k * m : (k + 1) * m, l * d : (l + 1) * d] = z[base : base + m * d].reshape(m, d)
                        base += m * d
                u, M = tpl.extract(z)
                assert np.array_equal(u, z[: m * N].reshape(N, m)), N
                assert np.array_equal(M.M, ref), N

    @pytest.mark.parametrize("bank", ["adaptive", "baseline"])
    def test_gains_are_causal_by_construction(self, bank, default_controller, baseline_controller):
        # extract skips the causality scan: every slot it writes must be a
        # causal entry, and together they cover every causal entry once
        ctl = default_controller if bank == "adaptive" else baseline_controller
        horizons = [n for n, tpl in ctl.templates.items() if isinstance(tpl, CaseNTemplate)]
        assert horizons == ([2, 3, 4, 5] if bank == "adaptive" else [5])
        for N in horizons:
            tpl = ctl.templates[N]
            acausal = _acausal_mask(N, tpl.d, tpl.m).reshape(-1)
            assert not acausal[tpl._m_flat].any(), N
            assert len(np.unique(tpl._m_flat)) == tpl.n_m == int((~acausal).sum()), N

    def test_tightened_rows_match_analytic_and_dominate_samples(self, default_problem, default_cfg, default_controller):
        rng = np.random.default_rng(13)
        sys = default_problem.system
        tpl = default_controller.templates[3]
        N, d, m = 3, 2, 1
        sd = build_stacked(sys.A_bar, sys.B_bar, N)
        for _ in range(5):
            Mfull = np.zeros((m * N, d * N))
            for k in range(N):
                for l in range(k):
                    Mfull[k * m : (k + 1) * m, l * d : (l + 1) * d] = 0.2 * rng.normal(size=(m, d))
            M = FeedbackGainStack(N, d, m, Mfull)
            u = rng.normal(size=m * N)
            x = rng.uniform(-2, 2, size=d)
            vals, offs = tightened_row_values(tpl, u, M, x)
            # analytic worst case via explicit (CM+G) assembly
            CMG = sd.C @ Mfull + sd.G
            wmax = default_cfg.bound.w_tilde_max
            r = 0
            Hx = sys.X.H
            rows = []
            for k in range(1, N + 1):
                Hmat = Hx if k < N else default_cfg.terminal.X_N.H
                for i in range(Hmat.shape[0]):
                    f = np.zeros(d * N)
                    f[(k - 1) * d : k * d] = Hmat[i]
                    nominal = f @ (sd.A_stack @ x + sd.C @ u)
                    rows.append(nominal + wmax * np.abs(CMG.T @ f).sum())
            Hu = sys.U.H
            for k in range(N):
                for i in range(Hu.shape[0]):
                    nominal = Hu[i] @ u[k * m : (k + 1) * m]
                    vrow = Mfull[k * m : (k + 1) * m].T @ Hu[i]
                    rows.append(nominal + wmax * np.abs(vrow).sum())
            np.testing.assert_allclose(vals, rows, atol=1e-9)
            # domination over sampled disturbances; equality at the sign extreme
            w_samples = wmax * rng.uniform(-1, 1, size=(2000, d * N))
            x_stack = sd.A_stack @ x + sd.C @ u
            r = 0
            for k in range(1, N + 1):
                Hmat = Hx if k < N else default_cfg.terminal.X_N.H
                for i in range(Hmat.shape[0]):
                    f = np.zeros(d * N)
                    f[(k - 1) * d : k * d] = Hmat[i]
                    coef = CMG.T @ f
                    nominal = f @ x_stack
                    assert (nominal + w_samples @ coef).max() <= vals[r] + 1e-9
                    extreme = nominal + wmax * np.sign(coef) @ coef
                    assert extreme == pytest.approx(vals[r], abs=1e-9)
                    r += 1


@pytest.fixture(scope="module")
def baseline_controller(default_problem, default_cfg):
    """The lumped baseline: the one-horizon bank (N_t = 5) of the same controller."""
    prob = default_problem
    bcfg = make_baseline_config(prob.system, prob.K, prob.P, prob.R, prob.N, bound=default_cfg.bound)
    return BaselineController(prob.system, bcfg)


def test_template_bytes_pinned(default_controller, baseline_controller):
    # sha256 over the shape and float64 bytes of Q_uu, q_map, const_map, Q,
    # G, h_base and rhs_map, in that order: horizons 1..5 of the default
    # bank, the default baseline's template, and horizons 1 and 3 of a
    # seeded d = 3, m = 2 bank
    from rampc.controller import MPCConfig
    from rampc.system import net_additive_bound

    def digest(tpl):
        fields = (tpl.Q_uu, tpl.q_map, tpl.const_map, tpl.Q, tpl.G, tpl.h_base, tpl.rhs_map)
        h = hashlib.sha256()
        for a in fields:
            h.update(repr(a.shape).encode() + np.ascontiguousarray(a, dtype=np.float64).tobytes())
        return h.hexdigest()

    sys, K = random_stable_system(np.random.default_rng(13), d=3, m=2)
    term = synthesize_terminal(sys, K, np.eye(3), np.eye(2), hull_samples=20)
    cfg = MPCConfig(P=np.eye(3), R=np.eye(2), N=3, terminal=term, bound=net_additive_bound(sys))
    random_bank = AdaptiveController(sys, cfg).templates
    got = {
        **{"default %d" % n: digest(tpl) for n, tpl in default_controller.templates.items()},
        "baseline": digest(baseline_controller.template),
        "d3m2 1": digest(random_bank[1]),
        "d3m2 3": digest(random_bank[3]),
    }
    assert got == {
        "default 1": "a803a4cf746f19eeb6da6c7b6f7f9c9391ec4814311128e387db652bf6dad455",
        "default 2": "9d5666ad35be0822c00f4cd3d778db842fa9f41c95c2a779d5932cf205b0b04b",
        "default 3": "18c14ac7ec83b65f95f84264f8d0011977ffefe01456515bfb5827f8204a0a95",
        "default 4": "c18c5091791d94495686c40ce0cb006be11e9ef9e585d369a73e5be57282b49f",
        "default 5": "343fa97d684dcabef76efa7c821fade565765772a977889b646871e2e114b1b6",
        "baseline": "130ac55d0c8f559b03fddc6af8ad5f37abb87314b90395b3f198a601352dcff7",
        "d3m2 1": "c12f62b7b7276c37716dc01eaccc3a39109d074734cb207e93c4e31a7bf3dabe",
        "d3m2 3": "3935a95dd52ce00245f17dc2247d6db6327f30172598d7949eccef03d4b71c26",
    }


@pytest.fixture(scope="module")
def own_controller(default_problem, default_cfg):
    """A controller apart from the session's: the far-state tests build its
    feasible sets, which the other tests' controllers must not see."""
    return AdaptiveController(default_problem.system, default_cfg)


class TestAdaptive:
    def test_terminal_state_case1_feasible(self, default_problem, default_cfg, default_controller):
        # any x in X_N admits the terminal feedback as a case-1 candidate
        rng = np.random.default_rng(14)
        X_N = default_cfg.terminal.X_N
        lo, hi = X_N.bounding_box()
        count = 0
        while count < 20:
            x = rng.uniform(lo, hi)
            if not X_N.contains(x, tol=0.0):
                continue
            count += 1
            assert default_controller.solve(x).is_feasible
            # solved directly: the bank may prune horizon 1 when a longer one is cheaper
            out = default_controller.solvers[1].solve(*default_controller.templates[1].parts(x))
            assert out.status is SolveStatus.OPTIMAL

    def test_origin(self, own_controller):
        sol = own_controller.solve(np.zeros(2))
        assert sol.is_feasible
        assert sol.J_star == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(sol.applied_input, [0.0], atol=1e-7)

    def test_tie_break_smallest_horizon(self, own_controller):
        # at the origin every horizon costs exactly 0: the shortest must win
        sol = own_controller.solve(np.zeros(2))
        costs = [r.cost for r in sol.per_horizon]
        assert all(abs(c) < 1e-9 for c in costs)
        assert sol.N_star == 1

    def test_cost_positivity(self, default_problem, default_cfg, default_controller):
        rng = np.random.default_rng(15)
        P = default_cfg.P
        for _ in range(10):
            x = rng.uniform(-4, 4, size=2)
            sol = default_controller.solve(x)
            if sol.is_feasible:
                assert sol.J_star >= x @ P @ x - 1e-6

    def test_all_infeasible_is_data(self, own_controller):
        sol = own_controller.solve(np.array([50.0, 50.0]))
        assert sol.status is SolveStatus.INFEASIBLE
        assert all(r.status is SolveStatus.INFEASIBLE for r in sol.per_horizon)
        assert any(r.farkas is not None for r in sol.per_horizon)

    def test_step_origin_and_raise(self, own_controller):
        u, sol = own_controller.step(np.zeros(2))
        assert sol.is_feasible
        np.testing.assert_allclose(u, [0.0], atol=1e-7)
        x = np.array([50.0, 50.0])
        with pytest.raises(AllHorizonsInfeasibleError) as exc:
            own_controller.step(x)
        per = exc.value.per_horizon
        assert [r.N_t for r in per] == sorted(own_controller.templates)
        for r in per:
            assert r.status is SolveStatus.INFEASIBLE and not r.pruned
            tpl = own_controller.templates[r.N_t]
            assert verify_farkas(tpl.G, tpl.parts(x)[1], None, None, r.farkas), r.N_t

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    def test_solve_rejects_a_state_that_is_not_a_finite_d_vector(
        self, warm, default_problem, default_cfg
    ):
        # the same errors on a fresh controller and on one whose horizons have
        # built their facets (there a NaN state used to come back INFEASIBLE
        # with a NaN gap), raised before any horizon is touched
        ctl = AdaptiveController(default_problem.system, default_cfg)
        if warm:
            assert ctl.solve(np.array([50.0, 50.0])).status is SolveStatus.INFEASIBLE
            assert set(ctl.feasible_sets) == set(ctl.templates)
        tables = [(t.central, len(t)) for t in ctl.laws.values()]
        for bad in ([np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]):
            with pytest.raises(ValueError, match="not finite"):
                ctl.solve(np.array(bad))
        for bad in ([1.0], [1.0, 2.0, 3.0], np.zeros((2, 2))):
            with pytest.raises(DimensionMismatchError):
                ctl.solve(bad)
        assert [(t.central, len(t)) for t in ctl.laws.values()] == tables
        assert set(ctl.feasible_sets) == (set(ctl.templates) if warm else set())

    def test_monotone_nesting_in_bound(self, default_problem, default_cfg):
        # shrinking wtilde_max never breaks feasibility of a feasible case-N
        sys = default_problem.system
        term = default_cfg.terminal
        x = np.array([5.0, -3.0])
        for scale in (1.0, 0.5, 0.1):
            w_tilde_max = default_cfg.bound.w_tilde_max * scale
            tpl = _case_n(sys, term, w_tilde_max, 4, default_cfg.P, default_cfg.R)
            assert _solve_at(tpl, x).status is SolveStatus.OPTIMAL

    def test_candidate_tail_decomposition(self, default_problem, default_cfg, default_controller):
        # with zero realized disturbance, J* = l(x, u0) + q(xbar_next)
        x = np.array([4.0, 2.0])
        sol = default_controller.solve(x)
        assert sol.is_feasible and sol.N_star >= 2
        q0 = default_controller.tail_cost(sol, np.zeros(2))
        stage = x @ default_cfg.P @ x + sol.applied_input @ default_cfg.R @ sol.applied_input
        assert sol.J_star == pytest.approx(stage + q0, rel=1e-6)

    def test_tail_cost_matches_step_by_step_oracle_at_every_horizon(
        self, default_problem, default_cfg, default_controller
    ):
        # every horizon's plan, not only the winner's, so N* = 1..N all occur
        sys = default_problem.system
        ctl = default_controller
        rng = np.random.default_rng(27)
        wmax = default_cfg.bound.w_tilde_max
        lo, hi = sys.X.bounding_box()
        priced = set()
        for x in [np.array(x0) for x0 in X0_SET] + [rng.uniform(lo, hi) for _ in range(20)]:
            for n, tpl in ctl.templates.items():
                out = ctl.solvers[n].solve(*tpl.parts(x))
                if out.status is not SolveStatus.OPTIMAL:
                    continue
                plan = horizon_plan(ctl, n, x, out)
                for w in (np.zeros(sys.d), rng.uniform(-wmax, wmax, size=sys.d)):
                    assert_tail_cost_matches_oracle(ctl, plan, w, x)
                priced.add(n)
        assert priced == set(range(1, default_cfg.N + 1))

    def test_tail_cost_rejects_infeasible_and_baseline_plans(self, own_controller, baseline_controller):
        far = own_controller.solve(np.array([50.0, 50.0]))
        assert not far.is_feasible
        with pytest.raises(ValueError, match="feasible"):
            own_controller.tail_cost(far, np.zeros(2))
        # the baseline's bank holds horizon N only, so no horizon N - 1 prices
        # its tail; its plan comes from its solver, leaving its laws untouched
        ctl, x = baseline_controller, np.array([1.0, 1.0])
        out = ctl.solver.solve(*ctl.template.parts(x))
        assert out.status is SolveStatus.OPTIMAL
        with pytest.raises(ValueError, match="no horizon 4"):
            ctl.tail_cost(horizon_plan(ctl, 5, x, out), np.zeros(2))


# ---------------------------------------------------------------------------
# horizon pruning is exact
# ---------------------------------------------------------------------------

X0_SET = [(6.0, -6.0), (-6.0, 6.0), (4.0, 4.0), (-4.0, -4.0), (7.0, 0.0)]  # acceptance suite
CLOSED_LOOP_STEPS = 50


def _exhaustive_reference(ctl, x):
    """Selection without pruning: every horizon in ascending order, strict < on cost.

    Each horizon takes the controller's per-horizon rule without the stored
    facets: its first law (the central law 0 first) that passes the KKT
    check, else ADMM, whose OPTIMAL result stores its law in the controller
    as ``solve`` does.  Returns (status, N*, J*,
    applied input, {horizon: cost of every feasible horizon}, {horizon:
    solve outcome of every horizon}).
    """
    best = None
    costs = {}
    outcomes = {}
    failed = False
    for n in sorted(ctl.templates):
        tpl = ctl.templates[n]
        q = tpl.q(x)
        out = outcomes[n] = ctl._law_verdict(n, x, q) or ctl._admm_verdict(n, x)
        if out.status is SolveStatus.OPTIMAL:
            J = out.objective + tpl.constant(x)
            costs[n] = J
            if best is None or J < best[1]:
                best = (n, J, out)
        else:
            failed = failed or out.status is not SolveStatus.INFEASIBLE
    if best is None:
        status = SolveStatus.NUMERICAL_FAILURE if failed else SolveStatus.INFEASIBLE
        return status, None, None, None, costs, outcomes
    n, J, out = best
    u, _ = ctl.templates[n].extract(out.x_opt)
    return SolveStatus.OPTIMAL, n, J, u[0], costs, outcomes


def _closed_loop_states(problem, cfg, ctl):
    states = []
    for i, x0 in enumerate(X0_SET):
        real = sample_realization(problem.system, CLOSED_LOOP_STEPS, seed=i)
        trace = simulate_closed_loop(
            problem.system, cfg, x0, CLOSED_LOOP_STEPS, real, controller=ctl
        )
        assert trace.completed == CLOSED_LOOP_STEPS
        states.extend(trace.states[:-1])
    return states


def _grid_states(problem, n=10):
    X = problem.system.X
    lo, hi = X.bounding_box()
    axes = [np.linspace(lo[j], hi[j], n) for j in range(X.dim)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return [p for p in pts if X.contains(p)]


@pytest.fixture(scope="module")
def bank_cases(default_problem, default_cfg, default_controller, baseline_controller):
    """{bank: (controller, {set name: [(x, pruned solution, exhaustive reference)]})}.

    The baseline is the one-horizon bank of the same controller; it is run on
    the adaptive controller's closed-loop states and on the grid.
    """
    prob = default_problem
    banks = {"adaptive": default_controller, "baseline": baseline_controller}
    sets = {
        "closed_loop": _closed_loop_states(prob, default_cfg, default_controller),
        "grid": _grid_states(prob),
    }
    return {
        bank: (
            ctl,
            {
                name: [(x, ctl.solve(x), _exhaustive_reference(ctl, x)) for x in xs]
                for name, xs in sets.items()
            },
        )
        for bank, ctl in banks.items()
    }


@pytest.fixture(scope="module")
def pruning_cases(bank_cases):
    """{set name: [(x, pruned solution, exhaustive reference)]} of the adaptive bank."""
    return bank_cases["adaptive"][1]


class TestPruning:
    def test_bound_below_every_cost(self, default_controller, pruning_cases):
        # (a) x'S_n x never exceeds horizon n's reported cost, pruned or not
        checked = 0
        for cases in pruning_cases.values():
            for x, sol, (_, _, _, _, costs, _) in cases:
                for n, J in costs.items():
                    bound = float(x @ default_controller.bound_maps[n] @ x)
                    assert bound <= J + 1e-9 * (1.0 + abs(J))
                    checked += 1
                for r in sol.per_horizon:
                    if r.status is SolveStatus.OPTIMAL:
                        assert r.bound <= r.cost + 1e-9 * (1.0 + abs(r.cost))
        assert checked > 0

    @pytest.mark.parametrize("bank", ["adaptive", "baseline"])
    def test_selection_bitwise_equal_to_exhaustive(self, bank, bank_cases):
        # (b) status, N*, J* and the applied input match the unpruned rule exactly
        _, pruning_cases = bank_cases[bank]
        for name, cases in pruning_cases.items():
            for x, sol, (status, n_star, J_star, u, _, _) in cases:
                assert sol.status is status, (name, x)
                assert sol.N_star == n_star, (name, x)
                assert sol.J_star == J_star, (name, x)
                if u is None:
                    assert sol.applied_input is None
                else:
                    assert np.array_equal(sol.applied_input, u), (name, x)
        infeasible = [sol for _, sol, _ in pruning_cases["grid"] if not sol.is_feasible]
        assert infeasible, "the grid should contain infeasible points"
        for sol in infeasible:
            # nothing is pruned before some horizon is feasible
            assert not any(r.pruned for r in sol.per_horizon)

    @pytest.mark.parametrize("bank", ["adaptive", "baseline"])
    def test_optimal_horizon_results_meet_kkt_contract(self, bank, bank_cases):
        # every OPTIMAL horizon QP, N_t = 1 included, is a 1e-8 KKT point
        ctl, pruning_cases = bank_cases[bank]
        checked = dict.fromkeys(ctl.templates, 0)
        for cases in pruning_cases.values():
            for x, _, (*_, outcomes) in cases:
                for n, out in outcomes.items():
                    if out.status is not SolveStatus.OPTIMAL:
                        continue
                    tpl = ctl.templates[n]
                    q, h = tpl.parts(x)
                    z, y = out.x_opt, out.y_ineq
                    assert np.max(tpl.G @ z - h) <= 1e-8, (n, x)
                    assert np.min(y) >= -1e-8, (n, x)
                    stationarity = np.max(np.abs(tpl.Q @ z + q + tpl.G.T @ y))
                    assert stationarity <= 1e-8 * max(1.0, np.max(np.abs(q))), (n, x)
                    checked[n] += 1
        assert all(checked.values()), checked

    def test_second_grid_pass_iteration_budget(self, monkeypatch, bank_cases):
        # the first pass stored the law of every OPTIMAL ADMM result, and a
        # law returns its own result at its own state: a second pass of both
        # banks settles every solved horizon by a facet or a law, the
        # central law 0 included, with no ADMM iteration, and each law
        # outcome is a 1e-8 KKT point
        for ctl, cases in bank_cases.values():
            calls = _count_qp_solves(monkeypatch, ctl)
            laws = _recording_laws(monkeypatch, ctl)
            for x, _, _ in cases["grid"]:
                for r in ctl.solve(x).per_horizon:
                    assert r.backend in ({None} if r.pruned else {"facets", "law"}), (x, r)
            assert not any(calls.values()), calls
            assert laws
            for n, x, q, out in laws:
                tpl = ctl.templates[n]
                assert out.status is SolveStatus.OPTIMAL and out.backend == "law" and out.iterations == 0
                assert _kkt_violation(tpl, q, tpl.parts(x)[1], out.x_opt, out.y_ineq) <= 1e-8

    def test_pruning_skips_most_shorter_horizons(self, default_cfg, pruning_cases):
        # (c) on the closed-loop states at least 90 % of the N_t < N solves are skipped
        cases = pruning_cases["closed_loop"]
        N = default_cfg.N
        shorter = [r for _, sol, _ in cases for r in sol.per_horizon if r.N_t < N]
        assert len(shorter) == len(cases) * (N - 1)
        pruned = sum(r.pruned for r in shorter)
        assert pruned >= 0.9 * len(shorter), "%d of %d pruned" % (pruned, len(shorter))
        for _, sol, _ in cases:
            assert [r.N_t for r in sol.per_horizon] == list(range(1, N + 1))
            for r in sol.per_horizon:
                assert (r.status is None and r.cost is None) == r.pruned
                assert not (r.pruned and r.farkas is not None)

    @pytest.mark.parametrize("bank", ["adaptive", "baseline"])
    def test_stacked_bounds_keep_the_per_horizon_rule(self, bank, bank_cases):
        # the bounds come from one stacked product: each is within 1e-12
        # relative of x'S_n x, and the pruned/solved pattern is the one the
        # per-horizon bounds give against the reported costs, longest first
        ctl, cases = bank_cases[bank]
        pruned = 0
        for name, items in cases.items():
            for x, sol, _ in items:
                best = None
                for r in reversed(sol.per_horizon):
                    ref = float(x @ ctl.bound_maps[r.N_t] @ x)
                    assert abs(r.bound - ref) <= 1e-12 * (1.0 + abs(ref)), (bank, name, x, r.N_t)
                    rule = best is not None and ref > best + 1e-9 * (1.0 + abs(best))
                    assert r.pruned == rule, (bank, name, x, r.N_t)
                    pruned += rule
                    if r.cost is not None and (best is None or r.cost < best):
                        best = r.cost
        assert pruned > 0 or bank == "baseline"

    def test_origin_prunes_nothing(self, default_controller):
        # (d) every horizon costs 0 at the origin: all are solved, the shortest wins
        sol = default_controller.solve(np.zeros(2))
        assert not any(r.pruned for r in sol.per_horizon)
        assert sol.N_star == 1

    def test_report_marks_pruned_horizons(self, default_controller):
        sol = default_controller.solve(np.array([6.0, -6.0]))
        rep = sol.report()
        entries = rep["per_horizon"]
        assert [e["N_t"] for e in entries] == [1, 2, 3, 4, 5]
        pruned = [e for e in entries if e["status"] == "pruned"]
        assert pruned and all(e["cost"] is None and e["bound"] > sol.J_star for e in pruned)
        assert entries[-1]["status"] == "optimal"


# ---------------------------------------------------------------------------
# stored feasible-set facets settle infeasible horizons
# ---------------------------------------------------------------------------


def _count_qp_solves(monkeypatch, ctl):
    """Per-horizon count of ParametricQP.solve calls made by ``ctl``."""
    calls = dict.fromkeys(ctl.solvers, 0)
    for n, solver in ctl.solvers.items():
        def counted(q, h, n=n, solve=solver.solve):
            calls[n] += 1
            return solve(q, h)

        monkeypatch.setattr(solver, "solve", counted)
    return calls


def _no_lp(monkeypatch):
    """Make every LP entry point of the controller path raise."""
    from rampc import geometry
    from rampc.qpsolver import admm

    def forbidden(*args, **kwargs):
        raise AssertionError("an LP was called")

    monkeypatch.setattr(geometry, "solve_lp", forbidden)
    monkeypatch.setattr(admm, "feasible_point", forbidden)


def _offset_point(cuts, i, x, violation):
    """x moved along facet i's normal so that its slack there is ``-violation``."""
    a, b = cuts.normals[i], cuts.offsets[i]
    return x + (violation + b - a @ x) * a / (a @ a)


class TestFeasibleSetFacets:
    @pytest.mark.parametrize("bank", ["adaptive", "baseline"])
    def test_second_pass_verdicts_equal_exhaustive_reference(self, bank, bank_cases):
        # once every set is built, each solved horizon's verdict is the
        # per-solver reference's, and the grid's infeasible horizons are all
        # settled by a stored facet
        ctl, cases = bank_cases[bank]
        assert set(ctl.feasible_sets) == set(ctl.templates)
        settled = 0
        for x, _, (status, n_star, J_star, _, _, outcomes) in cases["grid"]:
            sol = ctl.solve(x)
            assert (sol.status, sol.N_star, sol.J_star) == (status, n_star, J_star), x
            for r in sol.per_horizon:
                if not r.pruned:
                    assert r.status is outcomes[r.N_t].status, (x, r.N_t)
                    settled += r.status is SolveStatus.INFEASIBLE
                    if r.status is SolveStatus.INFEASIBLE:
                        assert ctl._facet_verdict(r.N_t, x) is not None, (x, r.N_t)
        assert settled > 0

    @pytest.mark.parametrize("bank", ["adaptive", "baseline"])
    def test_every_infeasible_certificate_verifies(self, bank, bank_cases):
        # the controller's certificates (facet multipliers once a set is
        # built) and the QP path's own (the per-solver reference)
        ctl, cases = bank_cases[bank]
        checked = 0
        for xs in cases.values():
            for x, sol, (*_, outcomes) in xs:
                certs = [(r.N_t, r.farkas) for r in sol.per_horizon if r.status is SolveStatus.INFEASIBLE]
                certs += [(n, o.farkas) for n, o in outcomes.items() if o.status is SolveStatus.INFEASIBLE]
                for n, cert in certs:
                    tpl = ctl.templates[n]
                    _, h = tpl.parts(x)
                    assert verify_farkas(tpl.G, h, None, None, cert), (x, n)
                    checked += 1
        assert checked > 0

    @pytest.mark.parametrize("bank", ["adaptive", "baseline"])
    def test_certificates_do_not_depend_on_visit_order(self, bank, bank_cases):
        # a feasible horizon builds nothing, so only the grid points with an
        # infeasible horizon are visited
        ctl, cases = bank_cases[bank]
        grid = [
            x for x, _, (*_, outcomes) in cases["grid"]
            if any(o.status is SolveStatus.INFEASIBLE for o in outcomes.values())
        ]
        runs = []
        for order in (grid, grid[::-1]):
            fresh = type(ctl)(ctl.sys, ctl.cfg)
            runs.append({tuple(x): fresh.solve(x) for x in order})
        compared = 0
        for key, sol in runs[0].items():
            other = runs[1][key]
            assert sol.status is other.status
            for r, s in zip(sol.per_horizon, other.per_horizon):
                assert r.status is s.status
                if r.status is SolveStatus.INFEASIBLE:
                    assert np.array_equal(r.farkas["y"], s.farkas["y"]), (key, r.N_t)
                    compared += 1
        assert compared > 0

    def test_margin_decides_between_facet_and_qp(self, monkeypatch, bank_cases):
        # the longest horizon is never pruned: a state just inside the margin
        # of a stored facet reaches ParametricQP.solve, one beyond it does not
        ctl, _ = bank_cases["baseline"]
        n = max(ctl.templates)
        cuts = ctl.feasible_sets[n]
        verts = vertices_2d(Polytope(cuts.normals, cuts.offsets))
        mid = 0.5 * (verts[0] + verts[1])
        i = int(np.argmin(cuts.offsets - cuts.normals @ mid))
        margin = controller._FACET_MARGIN * (1.0 + abs(cuts.offsets[i]))
        calls = _count_qp_solves(monkeypatch, ctl)
        inside = _offset_point(cuts, i, mid, 0.5 * margin)
        assert ctl._facet_verdict(n, inside) is None
        ctl.solve(inside)
        assert calls[n] == 1
        outside = _offset_point(cuts, i, mid, 2.0 * margin)
        out = ctl._facet_verdict(n, outside)
        assert out is not None and out.diagnostics["facet"] == i
        sol = ctl.solve(outside)
        assert calls[n] == 1 and sol.status is SolveStatus.INFEASIBLE

    def test_facet_outcome_diagnostics(self, bank_cases):
        ctl, _ = bank_cases["adaptive"]
        x = np.array([50.0, 50.0])
        assert set(ctl.feasible_sets) == set(ctl.templates)
        for n, cuts in ctl.feasible_sets.items():
            out = ctl._facet_verdict(n, x)
            assert out.status is SolveStatus.INFEASIBLE and out.backend == "facets"
            assert out.iterations == 0
            i = out.diagnostics["facet"]
            assert out.diagnostics == {"facet": i, "factorizations": 0, "rho_updates": 0}
            g = cuts.offsets - cuts.normals @ x
            assert i == int(np.argmin(g)) and out.farkas["gap"] == g[i]
            assert np.array_equal(out.farkas["y"], cuts.Y[i]) and out.farkas["nu"].size == 0
            # the build's own record
            assert len(cuts) > 0 and cuts.n_lps >= len(cuts) and cuts.seconds > 0.0
        rep = ctl.solve(x).report()
        assert all(set(e) == {"N_t", "status", "cost", "bound", "solve_time"} for e in rep["per_horizon"])

    def test_feasible_closed_loop_builds_no_set_and_calls_no_lp(
        self, monkeypatch, default_problem, default_cfg
    ):
        ctl = AdaptiveController(default_problem.system, default_cfg)
        _no_lp(monkeypatch)
        real = sample_realization(default_problem.system, 10, seed=0)
        trace = simulate_closed_loop(
            default_problem.system, default_cfg, X0_SET[0], 10, real, controller=ctl
        )
        assert trace.completed == 10 and trace.clean
        assert ctl.feasible_sets == {}

    def test_scalar_far_state_settled_by_stored_cut(self, monkeypatch):
        # the scalar system of TestCase1::test_far_state_infeasible: the 1-d
        # feasible set is an interval, and its two cuts describe it exactly
        from rampc.controller import MPCConfig
        from rampc.system import net_additive_bound

        sys = _scalar_sys(w=0.1)
        term = synthesize_terminal(sys, [[-0.5]], [[1.0]], [[1.0]], hull_samples=10)
        cfg = MPCConfig(P=[[1.0]], R=[[1.0]], N=1, terminal=term, bound=net_additive_bound(sys))
        ctl = AdaptiveController(sys, cfg)
        x = np.array([50.0])
        assert ctl.solve(x).status is SolveStatus.INFEASIBLE
        cuts = ctl.feasible_sets[1]
        assert len(cuts) == cuts.n_lps == 2
        calls = _count_qp_solves(monkeypatch, ctl)
        _no_lp(monkeypatch)
        assert ctl.solve(x).status is SolveStatus.INFEASIBLE
        assert calls[1] == 0 and ctl._facet_verdict(1, x).backend == "facets"
        lo, hi = sorted(cuts.offsets / cuts.normals[:, 0])
        assert lo < 0.0 < hi
        monkeypatch.undo()
        for edge in (lo, hi):
            inward = edge - 1e-6 * np.sign(edge)
            outward = edge + 1e-6 * np.sign(edge)
            assert ctl.solve(np.array([inward])).status is SolveStatus.OPTIMAL
            assert ctl._facet_verdict(1, np.array([outward])) is not None

    def test_facets_settle_infeasible_horizons_in_3d(self):
        # a seeded d = 3, m = 2 system over uniform states of X: the built
        # facets settle the INFEASIBLE verdicts (the +-e_i cuts alone settled
        # none), every certificate verifies, and no settled state is OPTIMAL
        # in the ADMM-only reference
        from rampc.controller import MPCConfig
        from rampc.system import net_additive_bound

        rng = np.random.default_rng(13)
        sys, K = random_stable_system(rng, d=3, m=2)
        term = synthesize_terminal(sys, K, np.eye(3), np.eye(2), hull_samples=20)
        cfg = MPCConfig(P=np.eye(3), R=np.eye(2), N=3, terminal=term, bound=net_additive_bound(sys))
        ctl = AdaptiveController(sys, cfg)
        lo, hi = sys.X.bounding_box()
        infeasible, settled = 0, {}
        for x in rng.uniform(lo, hi, size=(60, 3)):
            for r in ctl.solve(x).per_horizon:
                if r.status is SolveStatus.INFEASIBLE:
                    tpl = ctl.templates[r.N_t]
                    assert verify_farkas(tpl.G, tpl.parts(x)[1], None, None, r.farkas), (x, r.N_t)
                    infeasible += 1
                    if r.backend == "facets":
                        settled.setdefault(tuple(x), []).append(r.N_t)
        assert set(ctl.feasible_sets) == set(ctl.templates)
        assert sum(map(len, settled.values())) >= 0.8 * infeasible > 0
        for x, horizons in settled.items():
            statuses, _ = _admm_only_reference(ctl, np.array(x))
            assert all(statuses[n] is not SolveStatus.OPTIMAL for n in horizons), (x, statuses)


# ---------------------------------------------------------------------------
# the central law 0 settles unconstrained horizons
# ---------------------------------------------------------------------------


def _bank_seed(i):
    """Realization seed of run i of the benchmark's Monte-Carlo bank."""
    return int(np.random.SeedSequence([0, i]).generate_state(1)[0])


def _kkt_violation(tpl, q, h, z, y):
    """Largest violation of the 1e-8 KKT contract, recomputed from the template."""
    primal = float(np.max(tpl.G @ z - h))
    sign = float(-np.min(y))
    stationarity = float(np.max(np.abs(tpl.Q @ z + q + tpl.G.T @ y))) / max(1.0, float(np.max(np.abs(q))))
    return max(primal, sign, stationarity)


def _law0(ctl, n):
    """(Z, z0) of horizon n's central law 0, z(x) = Z x + z0 with
    Z = [K_n; 0], stored first if the horizon has not reached the QP path."""
    table = ctl.laws[n]
    if table.central is None:
        table.add_central()
    assert table.central
    x_0, z0, cols, K, *_ = table._laws[0]
    assert not np.any(x_0)
    Z = np.zeros((len(z0), len(x_0)))
    Z[cols] = K
    return Z, z0


def _settled_by_law0(ctl, n, out):
    """Whether ``out`` is horizon n's outcome from its central law 0."""
    return out is not None and ctl.laws[n].central and out.diagnostics["law"] == 0


@pytest.fixture(scope="module")
def central_run(default_problem, default_cfg):
    """A fresh controller over the Monte-Carlo bank: 50 steps from each
    acceptance initial state, with the bank's realizations, then each
    initial state solved once more.

    Returns (controller, outcomes of the central law 0 as
    [(n, x, q, h, outcome)], ParametricQP.solve calls of each closed-loop
    step).
    """
    ctl = AdaptiveController(default_problem.system, default_cfg)
    central = []
    calls = [0]
    with pytest.MonkeyPatch.context() as mp:
        verdict = ctl._law_verdict

        def recorded(n, x, q):
            out = verdict(n, x, q)
            if _settled_by_law0(ctl, n, out):
                central.append((n, x, q, ctl.templates[n].parts(x)[1], out))
            return out

        mp.setattr(ctl, "_law_verdict", recorded)
        for solver in ctl.solvers.values():
            def counted(q, h, solve=solver.solve):
                calls[0] += 1
                return solve(q, h)

            mp.setattr(solver, "solve", counted)
        per_step = []
        solve = ctl.solve

        def step(x):
            before = calls[0]
            sol = solve(x)
            per_step.append(calls[0] - before)
            return sol

        mp.setattr(ctl, "solve", step)
        for i, x0 in enumerate(X0_SET):
            real = sample_realization(default_problem.system, CLOSED_LOOP_STEPS, seed=_bank_seed(i))
            trace = simulate_closed_loop(
                default_problem.system, default_cfg, x0, CLOSED_LOOP_STEPS, real, controller=ctl
            )
            assert trace.completed == CLOSED_LOOP_STEPS and trace.clean
        mp.setattr(ctl, "solve", solve)
        for x0 in X0_SET:
            ctl.solve(np.asarray(x0))
    return ctl, central, per_step


class TestCentral:
    def test_central_outcomes_meet_kkt_contract_and_match_admm(self, central_run):
        # every law-0 outcome is a 1e-8 KKT point of its horizon's QP, and
        # its nominal inputs are those an ADMM solve of the same (q, h) finds
        ctl, central, _ = central_run
        assert len(central) >= len(X0_SET) * CLOSED_LOOP_STEPS // 2
        for n, x, q, h, out in central:
            tpl = ctl.templates[n]
            assert out.status is SolveStatus.OPTIMAL and out.backend == "law"
            assert out.iterations == 0 and not np.any(out.y_ineq)
            assert _kkt_violation(tpl, q, h, out.x_opt, out.y_ineq) <= 1e-8, (n, x)
            z = out.x_opt
            assert out.objective == pytest.approx(0.5 * z @ tpl.Q @ z + q @ z, abs=1e-9)
            ref = ParametricQP(tpl.Q, tpl.G).solve(q, h)
            assert ref.status is SolveStatus.OPTIMAL
            u, _ = tpl.extract(z)
            u_ref, _ = tpl.extract(ref.x_opt)
            assert np.max(np.abs(u - u_ref)) <= 1e-7, (n, x)

    def test_qp_solver_runs_on_at_most_a_tenth_of_closed_loop_steps(self, central_run):
        # the unconstrained horizons of the closed loop need no ADMM solve;
        # the origin solves that build the central laws are counted too
        _, _, per_step = central_run
        assert len(per_step) == len(X0_SET) * CLOSED_LOOP_STEPS
        with_solve = sum(1 for c in per_step if c)
        assert with_solve <= 0.1 * len(per_step), "%d of %d steps" % (with_solve, len(per_step))

    def test_unconstrained_minimiser_outside_a_row_reaches_admm(
        self, monkeypatch, default_problem, default_cfg
    ):
        # on the ray x = s (1, 0) the row values of law 0's point are affine
        # in s; just below the first row it crosses, law 0 settles the state,
        # just above it the longest horizon (never pruned) runs ADMM
        ctl = AdaptiveController(default_problem.system, default_cfg)
        n = max(ctl.templates)
        tpl = ctl.templates[n]
        Z, z0 = _law0(ctl, n)
        v = np.array([1.0, 0.0])
        slope = tpl.G @ Z @ v + tpl.rhs_map @ v
        offset = tpl.G @ z0 - tpl.h_base
        rising = slope > 0
        s_cross = float(np.min((1e-8 - offset[rising]) / slope[rising]))
        calls = _count_qp_solves(monkeypatch, ctl)
        inside, outside = 0.999 * s_cross * v, 1.001 * s_cross * v
        assert np.max(tpl.G @ (Z @ inside + z0) - tpl.parts(inside)[1]) <= 1e-8
        sol = ctl.solve(inside)
        assert sol.is_feasible and sol.per_horizon[-1].backend == "law" and calls[n] == 0
        assert ctl.laws[n].first(inside, tpl.q(inside)) == 0
        assert np.max(tpl.G @ (Z @ outside + z0) - tpl.parts(outside)[1]) > 1e-8
        assert ctl._law_verdict(n, outside, tpl.q(outside)) is None
        sol = ctl.solve(outside)
        assert sol.is_feasible and calls[n] == 1

    def test_verdicts_do_not_depend_on_visit_order(self, default_problem, default_cfg):
        # law-0 and ADMM states alike, with the central laws built at
        # different visits in the two orders
        states = [np.asarray(x0) for x0 in X0_SET] + _grid_states(default_problem)[::7]
        real = sample_realization(default_problem.system, 10, seed=_bank_seed(0))
        trace = simulate_closed_loop(
            default_problem.system, default_cfg, X0_SET[0], 10, real,
            controller=AdaptiveController(default_problem.system, default_cfg),
        )
        states += list(trace.states)
        runs = []
        for order in (states, states[::-1]):
            fresh = AdaptiveController(default_problem.system, default_cfg)
            runs.append({tuple(x): fresh.solve(x) for x in order})
        feasible = 0
        for key, sol in runs[0].items():
            other = runs[1][key]
            assert (sol.status, sol.N_star, sol.J_star) == (other.status, other.N_star, other.J_star), key
            if sol.is_feasible:
                assert np.array_equal(sol.u_bar_star, other.u_bar_star), key
                assert np.array_equal(sol.M_star.M, other.M_star.M), key
                feasible += 1
        assert feasible > len(X0_SET)

    def test_failed_origin_solve_leaves_the_horizon_to_admm(
        self, monkeypatch, default_problem, default_cfg, default_controller
    ):
        ctl = AdaptiveController(default_problem.system, default_cfg)
        n = max(ctl.templates)
        solver = ctl.solvers[n]
        origin_h = ctl.templates[n].parts(np.zeros(2))[1]
        solve = solver.solve
        calls = []

        def failing_at_origin(q, h):
            calls.append(1)
            if np.array_equal(h, origin_h):
                return SolveOutcome(status=SolveStatus.NUMERICAL_FAILURE)
            return solve(q, h)

        monkeypatch.setattr(solver, "solve", failing_at_origin)
        x = np.array([1.0, 2.0])
        sol = ctl.solve(x)
        assert ctl.laws[n].central is False and len(calls) == 2  # origin, then x
        tpl = ctl.templates[n]
        q, h = tpl.parts(x)
        ref = default_controller.solvers[n].solve(q, h)
        assert sol.N_star == n and sol.J_star == ref.objective + tpl.constant(x)
        # no law 0 at the origin: the table's only law is that of the ADMM result at x
        assert sol.per_horizon[-1].backend == "sparse" and len(ctl.laws[n]) == 1
        assert np.array_equal(ctl.laws[n]._laws[0][0], x)
        # the repeat visit makes no second origin solve and no ADMM solve:
        # the stored law of the first visit's result settles x, bit for bit
        again = ctl.solve(x)
        assert len(calls) == 2 and again.per_horizon[-1].backend == "law"
        assert again.J_star == sol.J_star and np.array_equal(again.u_bar_star, sol.u_bar_star)
        out = ctl._law_verdict(n, x, q)
        assert out.diagnostics["law"] == 0 and ctl.laws[n].central is False
        assert out.iterations == 0 and np.array_equal(out.x_opt, ref.x_opt)
        assert _kkt_violation(tpl, q, h, out.x_opt, out.y_ineq) <= 1e-8

    @pytest.mark.parametrize("bank", ["adaptive", "baseline"])
    def test_verdict_equals_dense_contract_on_uniform_states(
        self, bank, default_problem, default_controller, baseline_controller
    ):
        # law 0's verdict from its affine residual entries equals the
        # contract recomputed densely on z = Z x + z0 with zero multipliers
        ctl = default_controller if bank == "adaptive" else baseline_controller
        X = default_problem.system.X
        lo, hi = X.bounding_box()
        for n, tpl in ctl.templates.items():
            rng = np.random.default_rng(100 + n)
            xs = rng.uniform(lo, hi, size=(8000, X.dim))
            xs = xs[np.all(xs @ X.H.T <= X.h, axis=1)][:5000]
            assert len(xs) == 5000
            Z, z0 = _law0(ctl, n)
            y = np.zeros(tpl.G.shape[0])
            accepted = 0
            for x in xs:
                q, h = tpl.parts(x)
                central = bool(_settled_by_law0(ctl, n, ctl._law_verdict(n, x, q)))
                dense = _kkt_violation(tpl, q, h, Z @ x + z0, y) <= 1e-8
                assert central == dense, (bank, n, x)
                accepted += central
            assert 0 < accepted < len(xs), (bank, n, accepted)

    def test_law0_winners_share_the_gains_built_once(self, monkeypatch, default_problem, default_cfg):
        # a plan won by a central law 0 carries the FeedbackGainStack stored
        # with that law: the same read-only object on every such solve, equal
        # entry for entry to what extract builds from the outcome's point
        ctl = AdaptiveController(default_problem.system, default_cfg)
        laws = _recording_laws(monkeypatch, ctl)
        real = sample_realization(default_problem.system, 10, seed=_bank_seed(0))
        trace = simulate_closed_loop(
            default_problem.system, default_cfg, X0_SET[0], 10, real, controller=ctl
        )
        wins = dict.fromkeys(ctl.templates, 0)
        for x in trace.states:
            laws.clear()
            sol = ctl.solve(x)
            out = {n: o for n, _, _, o in laws}.get(sol.N_star)
            if not _settled_by_law0(ctl, sol.N_star, out):
                continue
            assert sol.M_star is ctl.laws[sol.N_star].gains0
            built = ctl.templates[sol.N_star].extract(out.x_opt)[1]
            assert built is not sol.M_star and np.array_equal(built.M, sol.M_star.M)
            assert not sol.M_star.M.flags.writeable
            wins[sol.N_star] += 1
        assert max(c for n, c in wins.items() if n >= 2) >= 2, wins

    def test_central_horizons_without_origin_solve(self, monkeypatch, default_problem, default_cfg):
        # N_t = 1 has no feedback or absolute-value variables: its law 0 is
        # the unconstrained gain alone, stored without an origin solve
        ctl = AdaptiveController(default_problem.system, default_cfg)
        calls = _count_qp_solves(monkeypatch, ctl)
        Z, z0 = _law0(ctl, 1)
        assert calls[1] == 0 and len(ctl.laws[1]) == 1
        np.testing.assert_array_equal(Z, controller._bound_map(ctl.templates[1])[1])
        assert not np.any(z0)


# ---------------------------------------------------------------------------
# active-set laws settle revisited and neighbouring constrained states
# ---------------------------------------------------------------------------


def _admm_only_reference(ctl, x):
    """Every horizon by its central law 0, else by ``ParametricQP.solve``:
    no facets, no other laws, and nothing stored.  Returns ({horizon:
    status}, {horizon: (cost, applied input) of every OPTIMAL horizon})."""
    statuses, optimal = {}, {}
    for n, tpl in ctl.templates.items():
        q, h = tpl.parts(x)
        # the class's verdict, past any recording patched onto the instance
        out = AdaptiveController._law_verdict(ctl, n, x, q)
        if not _settled_by_law0(ctl, n, out):
            out = ctl.solvers[n].solve(q, h)
        statuses[n] = out.status
        if out.is_optimal:
            optimal[n] = (out.objective + tpl.constant(x), tpl.extract(out.x_opt)[0][0])
    return statuses, optimal


def _recording_laws(monkeypatch, ctl):
    """List that collects (n, x, q, outcome) of every law verdict ``ctl`` gives."""
    laws = []
    verdict = ctl._law_verdict

    def recorded(n, x, q):
        out = verdict(n, x, q)
        if out is not None:
            laws.append((n, x, q, out))
        return out

    monkeypatch.setattr(ctl, "_law_verdict", recorded)
    return laws


class TestLaws:
    @pytest.mark.parametrize("bank", ["adaptive", "baseline"])
    def test_unseen_grid_matches_admm_only_reference(
        self, monkeypatch, bank, default_problem, default_cfg
    ):
        # laws grown on a grid-10 pass settle states of an unseen grid 17;
        # statuses, N* outside ties and inputs agree with ADMM alone
        prob = default_problem
        if bank == "adaptive":
            ctl = AdaptiveController(prob.system, default_cfg)
        else:
            bcfg = make_baseline_config(prob.system, prob.K, prob.P, prob.R, prob.N, bound=default_cfg.bound)
            ctl = BaselineController(prob.system, bcfg)
        for x in _grid_states(prob):
            ctl.solve(x)
        laws = _recording_laws(monkeypatch, ctl)
        hits = 0
        for x in _grid_states(prob, 17):
            sol = ctl.solve(x)
            statuses, optimal = _admm_only_reference(ctl, x)
            for r in sol.per_horizon:
                if not r.pruned:
                    assert r.status is statuses[r.N_t], (x, r.N_t)
                    hits += r.backend == "law"
            assert sol.is_feasible == bool(optimal), x
            if not optimal:
                continue
            n_ref = min(optimal, key=lambda n: (optimal[n][0], n))
            J = optimal[n_ref][0]
            tied = [n for n, (c, _) in optimal.items() if abs(c - J) <= 1e-8 * (1.0 + abs(J))]
            assert sol.N_star in tied, (x, sol.N_star, optimal)
            assert abs(sol.J_star - J) <= 1e-8 * (1.0 + abs(J)), x
            assert np.max(np.abs(sol.applied_input - optimal[sol.N_star][1])) <= 1e-6, x
        assert hits > 0 and len(laws) == hits
        for n, x, q, out in laws:
            tpl = ctl.templates[n]
            assert out.backend == "law" and out.iterations == 0
            assert _kkt_violation(tpl, q, tpl.parts(x)[1], out.x_opt, out.y_ineq) <= 1e-8, (n, x)
            assert out.objective == 0.5 * out.x_opt @ (ctl.solvers[n].Q @ out.x_opt) + q @ out.x_opt

    def test_table_stops_growing_at_the_cap(self, monkeypatch, default_problem, default_cfg):
        # at _MAX_LAWS, law 0 included, a horizon stores no further law, and
        # ADMM results are returned as before: the same bits on every visit
        monkeypatch.setattr(controller, "_MAX_LAWS", 2)
        ctl = AdaptiveController(default_problem.system, default_cfg)
        calls = _count_qp_solves(monkeypatch, ctl)
        grid = _grid_states(default_problem)
        first = [ctl.solve(x) for x in grid]
        assert max(len(t) for t in ctl.laws.values()) == 2
        full = [n for n, t in ctl.laws.items() if len(t) == 2]
        solved = dict(calls)
        second = [ctl.solve(x) for x in grid]
        assert all(len(ctl.laws[n]) == 2 for n in full)
        n = max(ctl.templates)
        assert n in full and calls[n] > solved[n]  # states beyond the cap run ADMM again
        admm = 0
        for a, b in zip(first, second):
            assert (a.status, a.N_star, a.J_star) == (b.status, b.N_star, b.J_star)
            if a.is_feasible:
                assert np.array_equal(a.u_bar_star, b.u_bar_star)
            admm += sum(r.backend == "sparse" and r.status is SolveStatus.OPTIMAL for r in b.per_horizon)
        assert admm > 0

    def test_point_equals_the_affine_formula(self, bank_cases, default_problem):
        # every law's point z_k + Z (x - x_k) on its columns and multipliers
        # y_k + Y (x - x_k) on its active rows, formed with index arrays, bit
        # for bit; the central law 0 adds its gain on a slice
        ctl, _ = bank_cases["adaptive"]
        lo, hi = default_problem.system.X.bounding_box()
        xs = np.random.default_rng(11).uniform(lo, hi, size=(200, 2))
        kinds = set()
        for n, table in ctl.laws.items():
            for k, (x_k, z_k, cols, Z, y_k, active, Y) in enumerate(table._laws):
                idx = np.arange(len(z_k))[cols]
                kinds.add(isinstance(cols, slice))
                for x in xs:
                    z, y = table.point(k, x)
                    z_ref, y_ref = z_k.copy(), y_k.copy()
                    z_ref[idx] += Z @ (x - x_k)
                    y_ref[active] += Y @ (x - x_k)
                    assert np.array_equal(z, z_ref) and np.array_equal(y, y_ref), (n, k, x)
        assert kinds == {True, False}  # central laws 0 and ADMM laws

    def test_law_at_its_own_state_returns_the_admm_result(self, default_problem, default_cfg):
        # each law stored from an ADMM result (every law after the central
        # law 0) reproduces, at its own state, that result bit for bit, and
        # the first law that passes there is itself
        ctl = AdaptiveController(default_problem.system, default_cfg)
        for x in _grid_states(default_problem):
            ctl.solve(x)
        checked = 0
        for n, table in ctl.laws.items():
            tpl = ctl.templates[n]
            assert table.central
            for k, (x_k, z_k, *_rest) in enumerate(table._laws[1:], start=1):
                q, h = tpl.parts(x_k)
                ref = ctl.solvers[n].solve(q, h)
                out = ctl._law_verdict(n, x_k, q)
                assert out.diagnostics["law"] == k
                assert np.array_equal(out.x_opt, ref.x_opt) and np.array_equal(out.x_opt, z_k)
                assert np.array_equal(out.y_ineq, ref.y_ineq) and out.objective == ref.objective
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("bank", ["adaptive", "baseline"])
    def test_screen_equals_kkt_check_on_every_law(self, bank, bank_cases, default_problem):
        # after a grid pass, at uniform states, the screen's verdict on every
        # stored law equals ParametricQP._kkt_ok on that law's kept residual
        # entries, each offset + sum_j slope_j (x_j - x_k,j), and the law
        # ``first`` picks is the first that the screen passes
        ctl, _ = bank_cases[bank]
        X = default_problem.system.X
        lo, hi = X.bounding_box()
        xs = np.random.default_rng(7).uniform(lo, hi, size=(600, X.dim))
        xs = xs[np.all(xs @ X.H.T <= X.h, axis=1)][:300]
        assert len(xs) == 300
        passed = failed = 0
        for n, table in ctl.laws.items():
            solver = ctl.solvers[n]
            for x in xs:
                q = ctl.templates[n].q(x)
                tol_s = 1e-8 * max(1.0, np.max(np.abs(q)))
                screen = np.concatenate([table._screen(table._head, x, tol_s), table._screen(table._rest, x, tol_s)])
                assert len(screen) == len(table) > 1, (bank, n)
                for k, ((x_k, *_), entries) in enumerate(zip(table._laws, table._entries)):
                    residuals = []
                    for offset, slope in entries:
                        v = offset
                        for j in range(len(x)):
                            v = v + slope[:, j] * (x[j] - x_k[j])
                        residuals.append(v)
                    assert screen[k] == solver._kkt_ok(*residuals, q), (bank, n, k, x)
                passing = np.flatnonzero(screen)
                assert table.first(x, q) == (int(passing[0]) if passing.size else None), (bank, n, x)
                passed += passing.size
                failed += len(screen) - passing.size
        assert passed > 0 and failed > 0, (passed, failed)

    def test_screen_applies_the_contract_entry_by_entry(self, default_controller):
        # laws of one constant entry per residual, at and just past each
        # bound: the screen agrees with ParametricQP._kkt_ok, and a NaN fails both
        solver = default_controller.solvers[2]
        table = controller._LawTable(default_controller.templates[2], solver, None)
        x, q = np.array([0.5, -1.0]), np.full(3, 4.0)
        tol_s = 1e-8 * 4.0
        cases = [
            (p, m, s)
            for p in (1e-8, np.nextafter(1e-8, 1.0), -1.0, np.nan)
            for m in (0.0, -0.0, -5e-324, 2.0, np.nan)
            for s in (tol_s, -tol_s, np.nextafter(tol_s, 1.0), -np.nextafter(tol_s, 1.0), 0.0, np.nan)
        ]
        flat = np.zeros((1, 2))
        for p, m, s in cases:
            entries = [(np.array([v]), flat + 1.0) for v in (p, m, s)]
            table._append((np.array([0.5, -1.0]),) + (None,) * 6, entries)
        screen = np.concatenate([table._screen(table._head, x, tol_s), table._screen(table._rest, x, tol_s)])
        for passed, (p, m, s) in zip(screen, cases):
            # _kkt_ok fails a NaN in any of its three residuals as well
            expected = solver._kkt_ok(np.array([p]), np.array([m]), np.array([s]), q)
            assert passed == expected, (p, m, s)
        assert 0 < screen.sum() < len(cases)

    def test_margins_match_their_definition(self, default_problem, default_controller, own_controller):
        sys = default_problem.system
        x = np.array([1.0, 2.0])
        sol = default_controller.solve(x)
        assert sol.margin_x == float(np.min(sys.X.h - sys.X.H @ x))
        assert sol.margin_u == float(np.min(sys.U.h - sys.U.H @ sol.applied_input))
        assert sol.report()["constraint_margins"] == {"state": sol.margin_x, "input": sol.margin_u}
        far = own_controller.solve(np.array([50.0, 50.0]))
        assert not far.is_feasible and np.isnan(far.margin_x) and np.isnan(far.margin_u)


class TestRollout:
    def test_zero_uncertainty_replays_nominal(self):
        prob = load_problem_dict(scalar_problem_dict(w=0.1, x=4.0, u=2.0, N=3))
        sys = prob.system
        from rampc.controller import config_from_problem

        cfg = config_from_problem(prob, hull_samples=10)
        ctl = AdaptiveController(sys, cfg)
        sol0 = ctl.solve(np.array([2.0]))
        assert sol0.is_feasible
        # nominal evolution: reconstructed residuals are exactly zero
        states = [np.array([2.0])]
        inputs = []
        for t in range(sol0.N_star):
            u = rollout_policy(sys, sol0, cfg.terminal.K, states, inputs)
            np.testing.assert_allclose(u, sol0.u_bar_star[t], atol=1e-9)
            states.append(sys.A_bar @ states[-1] + sys.B_bar @ u)
            inputs.append(u)
        # beyond the plan: terminal feedback
        u = rollout_policy(sys, sol0, cfg.terminal.K, states, inputs)
        np.testing.assert_allclose(u, cfg.terminal.K @ states[-1], atol=1e-12)

    def test_history_mismatch(self, default_problem, default_cfg, default_controller):
        sol0 = default_controller.solve(np.array([1.0, 1.0]))
        with pytest.raises(HistoryLengthMismatchError):
            rollout_policy(
                default_problem.system, sol0, default_cfg.terminal.K, [np.zeros(2)], [np.zeros(1)]
            )
