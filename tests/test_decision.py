import numpy as np
import pytest

from diffnet.decision import (
    decide, decision_sweep, global_desires, local_agreement_predicate,
    oracle_relative_f, quorum_prob, quorum_set_size, run_decision_dynamics,
    translate_neighbor_g,
)
from diffnet.network import complete_topology, generate_topology


def test_translate_neighbor_g():
    assert translate_neighbor_g(1, 1) == 1
    assert translate_neighbor_g(1, 0) == 0
    assert translate_neighbor_g(0, 1) == 0
    assert translate_neighbor_g(0, 0) == 1


def test_quorum_set_size():
    assert quorum_set_size([1, 1, 0, 1], 1) == 3
    with pytest.raises(ValueError):
        quorum_set_size([0, 0], 1)


def test_quorum_prob_values():
    # n_g=3 of n_k=4, K=4: 81 / 82
    assert quorum_prob(3, 4, 4) == pytest.approx(81 / 82)
    assert quorum_prob(2, 4, 1) == pytest.approx(0.5)
    # quality weight shifts the balance
    assert quorum_prob(2, 4, 1, beta=3.0) == pytest.approx(0.75)
    # vector beta broadcast
    q = quorum_prob(np.array([2, 2]), np.array([4, 4]), 1,
                    beta=np.array([1.0, 3.0]))
    assert np.allclose(q, [0.5, 0.75])
    with pytest.raises(ValueError):
        quorum_prob(2, 4, 1, beta=0.0)


def test_quorum_prob_complementary():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n_k = rng.integers(2, 30)
        n_g = rng.integers(1, n_k)
        K = int(rng.integers(1, 6))
        q = quorum_prob(n_g, n_k, K)
        q_flip = quorum_prob(n_k - n_g, n_k, K)
        assert q + q_flip == pytest.approx(1.0)


def test_quorum_prob_large_exponent_stays_finite():
    # (beta n_g)^K and (n_k - n_g)^K overflow here; the ratio form takes over
    n_g, n_k = np.arange(1, 100), 100
    q = quorum_prob(n_g, n_k, 200)
    assert np.isfinite(q).all() and ((q >= 0) & (q <= 1)).all()
    assert q[0] == 0.0 and q[49] == 0.5 and q[-1] == 1.0
    assert np.allclose(q + quorum_prob(n_k - n_g, n_k, 200), 1.0)
    ratio = 1.0 / (1.0 + ((n_k - n_g[45:55]) / n_g[45:55]) ** 200)
    assert np.allclose(q[45:55], ratio, rtol=1e-12)
    # both powers vanish: an isolated agent keeps its desire
    assert quorum_prob(1, 1, 5000, beta=0.5) == 1.0
    # where the powers are finite the direct quotient is kept bit for bit
    stay, flip = 3.0 ** 40, 1.0
    assert quorum_prob(3, 4, 40) == stay / (stay + flip)


def test_decide_statistics():
    rng = np.random.default_rng(1)
    keeps = sum(decide(1, 0.8, rng) for _ in range(10000))
    assert 7800 < keeps < 8200
    assert decide(0, 1.0, np.random.default_rng(0)) == 0


def test_oracle_relative_f():
    f = np.array([0, 0, 1])
    rel = oracle_relative_f(f)
    assert np.array_equal(rel.diagonal(), [1, 1, 1])
    assert np.array_equal(rel, rel.T)
    assert rel[0, 2] == 0 and rel[0, 1] == 1


def test_global_desires_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        f = rng.integers(0, 2, 12)
        g = rng.integers(0, 2, 12)
        assert np.array_equal(global_desires(g, f), 1 - (g ^ f))


def test_local_agreement_matches_global():
    rng = np.random.default_rng(3)
    for _ in range(100):
        topo = generate_topology(8, 4.0, rng)
        f = rng.integers(0, 2, 8)
        g = rng.integers(0, 2, 8)
        rel = oracle_relative_f(f)
        glob = global_desires(g, f)
        unanimous = bool((glob == glob[0]).all())
        assert local_agreement_predicate(g, rel, topo.adjacency) == unanimous


def test_unanimity_is_absorbing():
    rng = np.random.default_rng(4)
    topo = complete_topology(6)
    f = np.array([0, 0, 0, 1, 1, 1])
    rel = oracle_relative_f(f)
    g = np.where(f == 1, 1, 0)  # everyone desires global model 1
    for _ in range(50):
        g = decision_sweep(topo.adjacency, g, rel, K=2, rng=rng)
        assert np.array_equal(global_desires(g, f), np.ones(6, dtype=int))


def test_run_decision_dynamics_reaches_agreement():
    rng = np.random.default_rng(5)
    topo = generate_topology(10, 4.0, rng)
    f = rng.integers(0, 2, 10)
    model, sweeps, g = run_decision_dynamics(topo, f, K=4, rng=rng)
    assert model in (0, 1)
    glob = global_desires(g, f)
    assert (glob == model).all()
    # starting from unanimity: zero sweeps
    g0 = np.where(f == 0, 1, 0)
    model0, sweeps0, _ = run_decision_dynamics(topo, f, K=4, rng=rng,
                                               g_init=g0)
    assert (model0, sweeps0) == (0, 0)


def test_larger_k_agrees_faster_on_average():
    rng = np.random.default_rng(6)
    topo = complete_topology(12)
    f = np.array([0] * 6 + [1] * 6)
    times = {}
    for K in (1, 4):
        s = [run_decision_dynamics(topo, f, K, np.random.default_rng(seed))[1]
             for seed in range(120)]
        times[K] = np.median(s)
    assert times[4] < times[1]
