import numpy as np

from diffnet.diffusion import (
    atc_adapt, atc_combine, build_mean_error_system, check_stepsize_stability,
    convergence_rate, modified_combine, rate_lower_bound, spectral_radius,
    split_matrices, split_weights,
)
from diffnet.network import (
    AgentEnvironment, ModelPair, complete_topology, generate_topology,
    uniform_weights,
)


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
    A = uniform_weights(topo)
    f_hat = rng.integers(0, 2, (7, 7))
    g = rng.integers(0, 2, 7)
    A1, A2 = split_matrices(A, f_hat, g)
    for k in range(7):
        a1, a2 = split_weights(A[:, k], f_hat[k], g[k])
        assert np.array_equal(A1[:, k], a1)
        assert np.array_equal(A2[:, k], a2)


def _env(N, M, mu=0.01, sig2=0.01):
    return AgentEnvironment(Ru=np.eye(M), sigma_v2=np.full(N, sig2),
                            mu=np.full(N, mu))


def test_mean_error_single_agent_reduces_to_lms():
    env = AgentEnvironment(Ru=np.diag([1.0, 2.0]), sigma_v2=[0.01], mu=[0.05])
    models = ModelPair([1.0, 0.0], [0.0, 1.0])
    sys = build_mean_error_system(env, models, [0], 0, np.array([[1.0]]))
    assert np.allclose(sys.B, np.eye(2) - 0.05 * env.Ru)
    assert np.allclose(sys.y, 0.0)  # observes the reference model


def test_modified_system_unbiased_under_oracle_agreement():
    # Theorem: with correct splits and every agent desiring model q, the
    # driving term vanishes exactly.
    rng = np.random.default_rng(4)
    topo = generate_topology(10, 4.0, rng)
    A = uniform_weights(topo)
    f = rng.integers(0, 2, 10)
    f[0], f[1] = 0, 1  # both models present
    q = 1
    informed = (f == q)
    A1 = A * informed[:, None]
    A2 = A - A1
    env = _env(10, 3)
    models = ModelPair([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    sys = build_mean_error_system(env, models, f, q, A1, A2)
    assert np.all(sys.y == 0.0)
    assert spectral_radius(sys.B) < 1.0


def test_conventional_system_biased_under_two_models():
    rng = np.random.default_rng(4)
    topo = generate_topology(6, 4.0, rng)
    A = uniform_weights(topo)
    f = np.array([0, 0, 0, 1, 1, 1])
    env = _env(6, 2)
    models = ModelPair([1.0, 0.0], [0.0, 1.0])
    sys = build_mean_error_system(env, models, f, 1, A)
    assert np.abs(sys.y).max() > 0.0


def test_mean_recursion_predicts_ensemble_average():
    # independent oracle: simulate many scalar LMS replicas and compare the
    # ensemble-mean error against the B, y recursion
    rng = np.random.default_rng(9)
    N, reps, iters, mu = 3, 40000, 60, 0.05
    topo = complete_topology(N)
    A = uniform_weights(topo)
    f = np.array([0, 0, 1])
    models = ModelPair([1.0], [-1.0])
    env = AgentEnvironment(Ru=np.eye(1), sigma_v2=np.full(N, 0.01),
                           mu=np.full(N, mu))
    sys = build_mean_error_system(env, models, f, 0, A)

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
        err = sys.B @ err + sys.y
    assert np.abs(emp - err).max() < 0.01


def test_stepsize_stability_bounds():
    Ru = np.diag([1.0, 4.0])
    assert check_stepsize_stability(0.4, Ru)
    assert not check_stepsize_stability(0.5, Ru)
    assert not check_stepsize_stability(0.0, Ru)


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
    Ru = np.diag([0.5, 2.0])
    env = AgentEnvironment(Ru=Ru, sigma_v2=[0.01], mu=[0.1])
    models = ModelPair([1.0, 0.0], [0.0, 1.0])
    sys = build_mean_error_system(env, models, [0], 0, np.array([[1.0]]))
    assert abs(convergence_rate(sys.B) - rate_lower_bound(0.1, Ru)) < 1e-12

