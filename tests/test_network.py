import numpy as np
import pytest

from diffnet.network import (
    AgentEnvironment, ModelPair, PrimitivityError, Topology, TopologyError,
    bias_limit, check_assignment, complete_topology, generate_topology,
    is_left_stochastic, is_primitive, perron_vector, reachable, sample_data,
    uniform_weights,
)


def test_model_pair_basic():
    m = ModelPair([5, -5, 5, 5], [5, 5, -5, 5])
    assert m.w0.dtype == float and m.w0.shape == m.w1.shape == (4,)
    assert np.array_equal(m.stacked()[0], m.w0)
    z = m.observed([0, 1, 1])
    assert z.shape == (3, 4)
    assert np.array_equal(z[0], m.w0)
    assert np.array_equal(z[2], m.w1)


def test_model_pair_rejects_equal_or_mismatched():
    with pytest.raises(ValueError):
        ModelPair([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        ModelPair([1.0], [1.0, 2.0])
    # a NaN model used to pass and give a NaN bias_limit
    for w0, w1 in (([np.nan, 1.0], [np.nan, 1.0]), ([0.0, 1.0], [np.inf, 1.0])):
        with pytest.raises(ValueError, match="finite"):
            ModelPair(w0, w1)


def test_check_assignment_rejects_bad_entries():
    with pytest.raises(ValueError):
        check_assignment([0, 2, 1])
    # entries are tested before the cast to int, which would truncate them
    for f in ([0.5, 1.7], [0, np.nan]):
        with pytest.raises(ValueError, match="0 or 1"):
            check_assignment(f)
    assert check_assignment([True, False, 1.0]).tolist() == [1, 0, 1]


def test_topology_validation():
    with pytest.raises(TopologyError):
        Topology(np.array([[True, True], [False, True]]))  # asymmetric
    with pytest.raises(TopologyError):
        Topology(np.array([[False, True], [True, False]]))  # no self-loops
    adj = np.eye(4, dtype=bool)
    with pytest.raises(TopologyError):
        Topology(adj)  # disconnected
    # the topology freezes its own copy, not the caller's array
    adj = np.ones((3, 3), dtype=bool)
    topo = Topology(adj)
    assert adj.flags.writeable and not topo.adjacency.flags.writeable


def test_generate_topology_properties():
    rng = np.random.default_rng(3)
    topo = generate_topology(40, 5.0, rng)
    adj = topo.adjacency
    assert np.array_equal(adj, adj.T)
    assert adj.diagonal().all()
    assert topo.N == 40
    # mean neighborhood size (self included) near the target
    assert 3.0 < adj.sum(axis=0).mean() < 8.0


def test_generate_topology_rejects_tiny():
    rng = np.random.default_rng(0)
    with pytest.raises(TopologyError):
        generate_topology(1, 5.0, rng)
    with pytest.raises(TopologyError):
        generate_topology(10, 1.0, rng)
    # NaN fails every comparison; it used to give the complete graph
    with pytest.raises(TopologyError, match="mean_degree"):
        generate_topology(6, float("nan"), rng)


def test_uniform_weights_left_stochastic():
    topo = generate_topology(15, 4.0, np.random.default_rng(1))
    A = uniform_weights(topo.adjacency)
    assert is_left_stochastic(A, topo)
    k = 3
    n_k = topo.adjacency[:, k].sum()
    assert np.allclose(A[topo.adjacency[:, k], k], 1.0 / n_k)


def test_uniform_weights_of_a_disconnected_graph():
    # the school's radius graph may fall apart; each column still sums to 1
    adj = np.kron(np.eye(2, dtype=bool), np.ones((2, 2), dtype=bool))
    A = uniform_weights(adj)
    assert np.array_equal(A, adj / 2.0)
    assert np.array_equal(A.sum(axis=0), np.ones(4))


def test_is_primitive():
    topo = complete_topology(4)
    assert is_primitive(uniform_weights(topo.adjacency))
    # pure 2-cycle: irreducible but periodic
    perm = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert not is_primitive(perm)
    # reducible
    assert not is_primitive(np.diag([1.0, 1.0]))
    # Wielandt's matrix (an n-cycle plus a chord closing an (n-1)-cycle) first
    # turns positive at the bound's exponent (n-1)^2 + 1
    n = 6
    wielandt = np.roll(np.eye(n), 1, axis=1)
    wielandt[n - 1, 1] = 1.0
    assert is_primitive(wielandt)
    assert not np.linalg.matrix_power(wielandt, (n - 1) ** 2).all()


def test_perron_vector_known_value():
    A = np.array([[0.5, 0.25], [0.5, 0.75]])
    c = perron_vector(A)
    assert np.allclose(c, [1.0 / 3.0, 2.0 / 3.0], atol=1e-10)


def test_perron_vector_matches_dense_eig():
    rng = np.random.default_rng(11)
    for _ in range(20):
        topo = generate_topology(8, 4.0, rng)
        A = uniform_weights(topo.adjacency)
        c = perron_vector(A)
        assert np.abs(A @ c - c).max() < 1e-10
        assert (c > 0).all() and abs(c.sum() - 1.0) < 1e-12
        vals, vecs = np.linalg.eig(A)
        idx = int(np.argmax(vals.real))
        ref = np.abs(vecs[:, idx].real)
        ref /= ref.sum()
        assert np.abs(c - ref).max() < 1e-8


def test_perron_rejects_non_primitive():
    with pytest.raises(PrimitivityError):
        perron_vector(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_agent_environment_validation():
    # each refusal names the field at fault
    for ru, sigma_v2, field in [
        ([1.0, -1.0], [0.1], "ru"),
        ([1.0, 0.0], [0.1], "ru"),
        ([1.0, np.nan], [0.1], "ru"),
        (np.eye(2), [0.1], "ru"),                 # a covariance matrix, not its diagonal
        ([1.0, 1.0], [0.1, -0.1], "sigma_v2"),
        ([1.0, 1.0], [0.1, np.nan], "sigma_v2"),
    ]:
        with pytest.raises(ValueError, match=f"^{field} "):
            AgentEnvironment(ru, sigma_v2)
    env = AgentEnvironment(ru=[1.0, 2.0], sigma_v2=[0.1])
    assert env.M == 2
    assert np.array_equal(env.ru_sd, np.sqrt([1.0, 2.0]))


def test_sample_data_statistics():
    env = AgentEnvironment(ru=[1.0, 2.0], sigma_v2=[0.04])
    z = np.tile([1.0, -1.0], (20000, 1))
    normals = np.random.default_rng(0).standard_normal((1, z.size + len(z)))
    (draws,), (u,) = sample_data(z, env, normals)
    assert draws.shape == (20000,) and u.T.shape == (20000, 2)
    # E[d] = 0, var(d) = z^T Ru z + sigma^2 = 3.04
    assert abs(draws.mean()) < 0.05
    assert abs(draws.var() - 3.04) < 0.12


def test_sample_data_matches_per_agent_draws():
    # u is component-major, (n, M, N) and C-contiguous; agent k's regressor
    # is its own M normals times chol^T, with chol the Cholesky factor of
    # Ru = diag(ru), and d is the left-to-right sum u^T z plus sigma v, bit
    # for bit
    rng = np.random.default_rng(3)
    N, M, n = 40, 4, 16
    env = AgentEnvironment(ru=rng.uniform(1.0, 2.0, M),
                           sigma_v2=10.0 ** rng.uniform(-3.5, -0.5, N))
    z = ModelPair([5.0, -5.0, 5.0, 5.0], [5.0, 5.0, -5.0, 5.0]).observed(np.arange(N) % 2)
    normals = rng.standard_normal((n, N * (M + 1)))
    d, u = sample_data(z, env, normals)
    assert d.shape == (n, N) and u.shape == (n, M, N) and u.flags.c_contiguous
    chol = np.linalg.cholesky(np.diag(env.ru))
    for i in range(n):
        for k in range(N):
            u_k = normals[i, k * M:(k + 1) * M] @ chol.T
            assert np.array_equal(u[i, :, k], u_k)
            assert d[i, k] == (u_k * z[k]).sum() + env.sigma_v[k] * normals[i, N * M + k]


def test_bias_limit_is_convex_combination():
    m = ModelPair([0.0, 0.0], [1.0, 1.0])
    f = np.array([0, 1, 1, 1])
    c = np.full(4, 0.25)
    assert np.allclose(bias_limit(c, m, f), [0.75, 0.75])


def test_reachable_follows_edge_direction():
    # path 0 -> 1 -> 2 (support[l, k]: l feeds k) plus an isolated node 3
    support = np.eye(4, dtype=bool)
    support[0, 1] = support[1, 2] = True
    start = np.array([True, False, False, False])
    assert reachable(support, start).tolist() == [True, True, True, False]
    assert reachable(support.T, start).tolist() == [True, False, False, False]
    assert not start[1:].any()   # the start mask is left alone
