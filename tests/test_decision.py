import numpy as np
import pytest

from diffnet.decision import (
    decision_sweep, global_desires, keep_probabilities, oracle_relative_f,
    quorum_prob, quorum_table,
)
from diffnet.network import complete_topology, generate_topology
from oracle import AGREEMENT_SWEEP_CAP, decide, local_agreement_predicate, \
    quorum_set_size, run_decision_dynamics, translate_neighbor_g


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
    # NaN fails every comparison, in one value or in a pair
    for beta in (0.0, float("nan"), [1.0, float("nan")]):
        with pytest.raises(ValueError, match="beta"):
            quorum_prob(2, 4, 2, beta=beta)
    # a NaN K used to give 0.5 at n_g = n_k / 2 and NaN elsewhere, so a table
    # that never flips
    for K in (float("nan"), 0, 0.5):
        with pytest.raises(ValueError, match="K"):
            quorum_prob(2, 4, K)
        with pytest.raises(ValueError, match="K"):
            quorum_table(10, K, 1.0)


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
    table, n_k = quorum_table(6, 2, 1.0), topo.adjacency.sum(axis=1)
    for _ in range(50):
        q = keep_probabilities(topo.adjacency, g, rel, table, n_k, 0)
        g = decision_sweep(g, q, rng.random(g.size))
        assert np.array_equal(global_desires(g, f), np.ones(6, dtype=int))


def test_quorum_table_matches_quorum_prob():
    # bit for bit, for every valid count pair and both beta planes, also
    # where the large exponent needs the ratio form
    for N, K, beta in ((6, 1, 1.0), (9, 4, [1.0, 3.0]), (40, 200, [0.5, 2.0])):
        table = quorum_table(N, K, beta)
        assert table.shape == (2, N + 1, N + 1)
        for b in (0, 1):
            for n_k in range(1, N + 1):
                n_g = np.arange(1, n_k + 1)
                q = quorum_prob(n_g, n_k, K, np.broadcast_to(beta, 2)[b])
                assert np.array_equal(table[b, n_k, 1:n_k + 1], q)


def test_quorum_table_diagonal_is_one():
    # an agent whose whole neighbourhood agrees keeps its desire for sure,
    # which lets the step skip the sweep; it holds where (beta n)^K
    # overflows (beta 1e3) or underflows (beta 1e-3) and the ratio form is used
    for N in (2, 40, 200):
        for K in (1, 2, 4, 6, 200):
            for beta in (1.0, [0.5, 2.0], [1e-3, 1e3]):
                n = np.arange(1, N + 1)
                assert (quorum_table(N, K, beta)[:, n, n] == 1.0).all()


def test_keep_probabilities_of_stacked_desires_match_one_row_calls():
    # an (S, N) stack of desires gives the S rows of one-row calls, bit for
    # bit, with one plane for all or a plane per agent
    rng = np.random.default_rng(8)
    topo = generate_topology(9, 4.0, rng)
    f = rng.integers(0, 2, 9)
    rel, n_k = oracle_relative_f(f), topo.adjacency.sum(axis=1)
    table = quorum_table(9, 3, [1.0, 2.5])
    stack = rng.integers(0, 2, (40, 9))
    for plane in (0, f):
        q = keep_probabilities(topo.adjacency, stack, rel, table, n_k, plane)
        rows = [keep_probabilities(topo.adjacency, g, rel, table, n_k, plane)
                for g in stack]
        assert q.shape == stack.shape and q.tobytes() == np.array(rows).tobytes()


def test_decision_sweep_without_flips_returns_its_input():
    topo = generate_topology(10, 4.0, np.random.default_rng(1))
    g = np.array([1, 0] * 5)
    rel = oracle_relative_f(np.array([0, 1] * 5))
    table, n_k = np.ones((2, 11, 11)), topo.adjacency.sum(axis=1)
    rng = np.random.default_rng(2)
    q = keep_probabilities(topo.adjacency, g, rel, table, n_k, g)
    assert np.array_equal(decision_sweep(g, q, rng.random(g.size)), g)
    # a table of zeros flips every agent
    q = keep_probabilities(topo.adjacency, g, rel, 0 * table, n_k, g)
    assert np.array_equal(decision_sweep(g, q, rng.random(g.size)), 1 - g)


def test_run_decision_dynamics_reaches_agreement():
    rng = np.random.default_rng(5)
    topo = generate_topology(10, 4.0, rng)
    f = rng.integers(0, 2, 10)
    model, sweeps, g = run_decision_dynamics(topo, f, K=4, rng=rng)
    assert model in (0, 1) and 0 < sweeps < AGREEMENT_SWEEP_CAP
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
