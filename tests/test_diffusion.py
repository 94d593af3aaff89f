import warnings

import numpy as np
import pytest

from diffnet.diffusion import (
    DIVERGENCE_LIMIT, DivergenceError, build_mean_error_system, check_divergence,
    check_stepsize_stability, convergence_rate, rate_lower_bound, spectral_radius,
    split_matrices,
)
from diffnet.network import (
    AgentEnvironment, ModelPair, complete_topology, generate_topology,
    uniform_weights,
)
from oracle import atc_adapt, atc_combine, modified_combine, split_weights


def test_atc_adapt_numeric():
    w = np.array([1.0, 0.0])
    u = np.array([1.0, 1.0])
    # d - u w = 2 - 1 = 1, psi = w + 0.1 * u
    assert np.allclose(atc_adapt(w, 2.0, u, 0.1), [1.1, 0.1])


def test_atc_combine_is_convex_mix():
    psis = np.array([[0.0, 0.0], [2.0, 4.0]])
    assert np.allclose(atc_combine(psis, [0.5, 0.5]), [1.0, 2.0])


def test_split_weights_partitions_column():
    a_col = np.array([0.2, 0.3, 0.5])
    a1, a2 = split_weights(a_col, np.array([1, 0, 1]), 1)
    assert np.array_equal(a1, [0.2, 0.0, 0.5])
    assert np.array_equal(a1 + a2, a_col)
    assert not np.any((a1 != 0) & (a2 != 0))


def test_modified_combine_numeric():
    psis = np.array([[1.0], [3.0]])
    w_prevs = np.array([[10.0], [20.0]])
    out = modified_combine(psis, w_prevs, [0.5, 0.0], [0.0, 0.5])
    assert np.allclose(out, [0.5 * 1.0 + 0.5 * 20.0])


def test_split_matrices_matches_columnwise():
    rng = np.random.default_rng(2)
    topo = generate_topology(7, 4.0, rng)
    A = uniform_weights(topo.adjacency)
    f_hat = rng.integers(0, 2, (7, 7))
    g = rng.integers(0, 2, 7)
    A1, A2 = split_matrices(A, f_hat, g)
    for k in range(7):
        a1, a2 = split_weights(A[:, k], f_hat[k], g[k])
        assert np.array_equal(A1[:, k], a1)
        assert np.array_equal(A2[:, k], a2)


def _env(N, M, sig2=0.01):
    return AgentEnvironment(ru=np.ones(M), sigma_v2=np.full(N, sig2))


def test_mean_error_single_agent_reduces_to_lms():
    env = AgentEnvironment(ru=[1.0, 2.0], sigma_v2=[0.01])
    models = ModelPair([1.0, 0.0], [0.0, 1.0])
    B, y = build_mean_error_system(env, 0.05, models, [0], 0, np.array([[1.0]]))
    assert np.allclose(B, np.eye(2) - 0.05 * np.diag(env.ru))
    assert np.allclose(y, 0.0)  # observes the reference model


def test_modified_system_unbiased_under_oracle_agreement():
    # Theorem: with correct splits and every agent desiring model q, the
    # driving term vanishes exactly.
    rng = np.random.default_rng(4)
    topo = generate_topology(10, 4.0, rng)
    A = uniform_weights(topo.adjacency)
    f = rng.integers(0, 2, 10)
    f[0], f[1] = 0, 1  # both models present
    q = 1
    informed = (f == q)
    A1 = A * informed[:, None]
    A2 = A - A1
    env = _env(10, 3)
    models = ModelPair([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    B, y = build_mean_error_system(env, np.full(10, 0.01), models, f, q, A1, A2)
    assert np.all(y == 0.0)
    assert spectral_radius(B) < 1.0


def test_conventional_system_biased_under_two_models():
    rng = np.random.default_rng(4)
    topo = generate_topology(6, 4.0, rng)
    A = uniform_weights(topo.adjacency)
    f = np.array([0, 0, 0, 1, 1, 1])
    env = _env(6, 2)
    models = ModelPair([1.0, 0.0], [0.0, 1.0])
    _, y = build_mean_error_system(env, 0.01, models, f, 1, A)
    assert np.abs(y).max() > 0.0


def test_mean_recursion_predicts_ensemble_average():
    # independent oracle: simulate many scalar LMS replicas and compare the
    # ensemble-mean error against the B, y recursion
    rng = np.random.default_rng(9)
    N, reps, iters, mu = 3, 40000, 60, 0.05
    topo = complete_topology(N)
    A = uniform_weights(topo.adjacency)
    f = np.array([0, 0, 1])
    models = ModelPair([1.0], [-1.0])
    env = AgentEnvironment(ru=np.ones(1), sigma_v2=np.full(N, 0.01))
    B, y = build_mean_error_system(env, mu, models, f, 0, A)

    z = models.observed(f)[:, 0]
    w = np.zeros((reps, N))
    for _ in range(iters):
        u = rng.standard_normal((reps, N))
        v = 0.1 * rng.standard_normal((reps, N))
        d = u * z[None, :] + v
        psi = w + mu * u * (d - u * w)
        w = psi @ A
    emp = models.w0[0] - w.mean(axis=0)

    err = np.full(N, models.w0[0])  # w starts at zero
    for _ in range(iters):
        err = B @ err + y
    assert np.abs(emp - err).max() < 0.01


def test_stepsize_stability_bounds():
    ru = np.array([1.0, 4.0])
    assert check_stepsize_stability(0.4, ru)
    assert not check_stepsize_stability(0.5, ru)
    assert not check_stepsize_stability(0.0, ru)


def test_spectral_radius_matches_numpy():
    rng = np.random.default_rng(6)
    for _ in range(10):
        B = rng.standard_normal((12, 12)) * 0.2
        assert abs(spectral_radius(B) - np.max(np.abs(np.linalg.eigvals(B)))) < 1e-8


def test_spectral_radius_non_normal_complex_pair():
    # 402 x 402 (above the size where a power iteration used to take over),
    # non-normal, dominant eigenvalue pair 0.9 e^{+-0.5i}
    rng = np.random.default_rng(8)
    n = 402
    D = np.diag(np.r_[0.0, 0.0, rng.uniform(-0.5, 0.5, n - 2)])
    D[:2, :2] = 0.9 * np.array([[np.cos(0.5), -np.sin(0.5)],
                                [np.sin(0.5), np.cos(0.5)]])
    S = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    B = S @ D @ np.linalg.inv(S)
    dense = np.max(np.abs(np.linalg.eigvals(B)))
    assert abs(dense - 0.9) < 1e-8
    assert abs(spectral_radius(B) - dense) < 1e-8


def test_rate_bound_tight_for_single_agent():
    ru = np.array([0.5, 2.0])
    env = AgentEnvironment(ru, sigma_v2=[0.01])
    models = ModelPair([1.0, 0.0], [0.0, 1.0])
    B, _ = build_mean_error_system(env, 0.1, models, [0], 0, np.array([[1.0]]))
    assert abs(convergence_rate(B) - rate_lower_bound(0.1, ru)) < 1e-12


def test_divergence_guard_tests_rows_when_the_total_is_over():
    # the squared total bounds every row: past it, each row is tested alone;
    # NaN and inf fail both tests
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = np.zeros((8, 2))
        w[:, 1] = DIVERGENCE_LIMIT * (1 - 1e-12)     # every row under, the total over
        assert w.ravel() @ w.ravel() > DIVERGENCE_LIMIT ** 2
        check_divergence(w, 5)
        w[3, 1] = DIVERGENCE_LIMIT * (1 + 1e-12)
        with pytest.raises(DivergenceError, match="at iteration 5$") as caught:
            check_divergence(w, 5)
        assert str(caught.value).startswith(f"agent 3 estimate norm {float(w[3, 1])!r} ")
        for bad in (np.nan, np.inf):
            w = np.zeros((8, 2))
            w[6, 0] = w[7, 1] = bad
            with pytest.raises(DivergenceError, match="at iteration 9$") as caught:
                check_divergence(w, 9)
            assert str(caught.value).startswith(f"agent 6 estimate norm {bad!r} ")


def test_divergence_guard_names_the_first_row_of_a_stack():
    # a stack (n, N, M) of consecutive iterations, the first at `iteration`:
    # the error names the first iteration with an offending agent, and its
    # first such agent, however the stack is strided
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = np.zeros((6, 2, 8)).transpose(0, 2, 1)      # component-major rows
        check_divergence(w, 100)
        w[4, 1, 0] = np.inf
        w[3, 5, 1] = np.nan
        w[3, 6, 0] = 2 * DIVERGENCE_LIMIT
        with pytest.raises(DivergenceError, match="at iteration 103$") as caught:
            check_divergence(w, 100)
        assert str(caught.value).startswith("agent 5 estimate norm nan ")
