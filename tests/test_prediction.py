"""Stacked prediction matrices against step-by-step recursion."""
import numpy as np
import pytest

from rampc.errors import HistoryLengthMismatchError
from rampc.prediction import FeedbackGainStack, build_stacked, policy_input


def _iterate(A, B, x0, u_seq, w_seq):
    xs = []
    x = np.asarray(x0, dtype=float)
    for u, w in zip(u_seq, w_seq):
        x = A @ x + B @ u + w
        xs.append(x)
    return np.concatenate(xs)


def test_horizon_one():
    A = np.array([[0.5, 0.1], [0.0, 0.9]])
    B = np.array([[1.0], [0.5]])
    sd = build_stacked(A, B, 1)
    np.testing.assert_array_equal(sd.A_stack, A)
    np.testing.assert_array_equal(sd.G, np.eye(2))
    np.testing.assert_array_equal(sd.C, B)


def test_zero_A():
    B = np.array([[1.0], [2.0]])
    sd = build_stacked(np.zeros((2, 2)), B, 3)
    np.testing.assert_array_equal(sd.A_stack, np.zeros((6, 2)))
    np.testing.assert_array_equal(sd.G, np.eye(6))
    np.testing.assert_array_equal(sd.C, np.kron(np.eye(3), B))


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_stacked_equals_iterated(N):
    rng = np.random.default_rng(N)
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 1))
    sd = build_stacked(A, B, N)
    x0 = rng.normal(size=2)
    u = rng.normal(size=(N, 1))
    w = rng.normal(size=(N, 2))
    stacked = sd.A_stack @ x0 + sd.C @ u.ravel() + sd.G @ w.ravel()
    np.testing.assert_allclose(stacked, _iterate(A, B, x0, u, w), atol=1e-12)


def test_policy_zero_gains_returns_nominal():
    M = FeedbackGainStack.zeros(3, 2, 1)
    u_bar = np.array([[1.0], [2.0], [3.0]])
    assert policy_input(M, u_bar, [np.zeros(2)])[0] == pytest.approx(2.0)


def test_policy_first_step_ignores_gains():
    rng = np.random.default_rng(0)
    Mfull = np.zeros((3, 6))
    Mfull[1, :2] = rng.normal(size=2)
    Mfull[2, :4] = rng.normal(size=4)
    M = FeedbackGainStack(3, 2, 1, Mfull)
    u_bar = rng.normal(size=(3, 1))
    np.testing.assert_allclose(policy_input(M, u_bar, []), u_bar[0])


def test_policy_matches_matrix_vector_oracle():
    rng = np.random.default_rng(1)
    N, d, m = 4, 2, 2
    Mfull = np.zeros((m * N, d * N))
    for k in range(N):
        for l in range(k):
            Mfull[k * m : (k + 1) * m, l * d : (l + 1) * d] = rng.normal(size=(m, d))
    M = FeedbackGainStack(N, d, m, Mfull)
    u_bar = rng.normal(size=(N, m))
    w = rng.normal(size=(N, d))
    for k in range(N):
        expect = Mfull[k * m : (k + 1) * m, : k * d] @ w[:k].ravel() if k else np.zeros(m)
        expect = expect + u_bar[k]
        np.testing.assert_allclose(policy_input(M, u_bar, list(w[:k])), expect, atol=1e-12)


def test_causality_perturbation():
    rng = np.random.default_rng(2)
    N, d, m = 4, 2, 1
    Mfull = np.zeros((m * N, d * N))
    for k in range(N):
        for l in range(k):
            Mfull[k * m : (k + 1) * m, l * d : (l + 1) * d] = rng.normal(size=(m, d))
    M = FeedbackGainStack(N, d, m, Mfull)
    u_bar = rng.normal(size=(N, m))
    w = [rng.normal(size=d) for _ in range(N - 1)]
    j = 1
    w_pert = [wi + (rng.normal(size=d) if i == j else 0.0) for i, wi in enumerate(w)]
    for k in range(N):
        a = policy_input(M, u_bar, w[:k])
        b = policy_input(M, u_bar, w_pert[:k])
        if k <= j:
            np.testing.assert_array_equal(a, b)


_SHAPES = [(2, 2, 1), (3, 2, 2), (4, 3, 1)]  # (N, d, m)


def _acausal_entries():
    """Every entry (row, column) of every block (k, l >= k) of each shape."""
    for N, d, m in _SHAPES:
        for k in range(N):
            for l in range(k, N):
                for i in range(m):
                    for j in range(d):
                        yield pytest.param(
                            N, d, m, k * m + i, l * d + j,
                            id="N%dd%dm%d-k%dl%d-i%dj%d" % (N, d, m, k, l, i, j),
                        )


def _strictly_lower(rng, N, d, m):
    M = np.zeros((m * N, d * N))
    for k in range(N):
        for l in range(k):
            M[k * m : (k + 1) * m, l * d : (l + 1) * d] = rng.normal(size=(m, d))
    return M


@pytest.mark.parametrize("N, d, m, row, col", list(_acausal_entries()))
def test_strict_causality_enforced(N, d, m, row, col):
    # a strictly lower matrix passes; one nonzero in a block (k, l >= k) does not
    M = _strictly_lower(np.random.default_rng(row * 100 + col), N, d, m)
    FeedbackGainStack(N, d, m, M)
    M[row, col] = 1.0
    with pytest.raises(ValueError):
        FeedbackGainStack(N, d, m, M)


def test_history_length_mismatch():
    M = FeedbackGainStack.zeros(2, 2, 1)
    with pytest.raises(HistoryLengthMismatchError):
        policy_input(M, np.zeros((2, 1)), [np.zeros(2)] * 2)
