"""Randomized invariant checks, >= 1000 cases per property."""
import numpy as np

from diffnet.decision import global_desires, oracle_relative_f
from diffnet.diffusion import split_matrices
from diffnet.markov import build_meanfield_chain
from diffnet.network import (
    generate_topology, is_left_stochastic, perron_vector, uniform_weights,
)
from oracle import (
    E1, E1C, NO_UPDATE, local_agreement_predicate, translate_neighbor_g,
    update_belief,
)

CASES = 1000


def _random_left_stochastic(rng, topo):
    """Random positive weights on the topology support, columns normalized."""
    adj = topo.adjacency
    A = np.where(adj, rng.random(adj.shape) + 0.05, 0.0)
    return A / A.sum(axis=0, keepdims=True)


def test_split_exactness_and_disjoint_support():
    rng = np.random.default_rng(101)
    for _ in range(CASES):
        n = int(rng.integers(3, 10))
        topo = generate_topology(n, 3.0, rng)
        A = _random_left_stochastic(rng, topo)
        f_hat = rng.integers(0, 2, (n, n))
        g = rng.integers(0, 2, n)
        A1, A2 = split_matrices(A, f_hat, g)
        assert np.array_equal(A1 + A2, A)          # exact, not approximate
        assert not np.any((A1 != 0) & (A2 != 0))   # disjoint support


def test_split_preserves_left_stochasticity():
    rng = np.random.default_rng(102)
    for _ in range(CASES):
        n = int(rng.integers(3, 10))
        topo = generate_topology(n, 3.0, rng)
        A = _random_left_stochastic(rng, topo)
        f_hat = rng.integers(0, 2, (n, n))
        g = rng.integers(0, 2, n)
        A1, A2 = split_matrices(A, f_hat, g)
        assert is_left_stochastic(A1 + A2, topo)


def test_belief_range_closure():
    rng = np.random.default_rng(103)
    events = np.array([E1, E1C, NO_UPDATE])
    for _ in range(CASES):
        b = rng.random()
        alpha = rng.uniform(0.01, 0.99)
        for ev in events[rng.integers(0, 3, 30)]:
            b = update_belief(b, ev, alpha)
            assert 0.0 <= b <= 1.0


def test_frame_translation_xor_identities():
    rng = np.random.default_rng(104)
    for _ in range(CASES):
        f_k, f_l = rng.integers(0, 2, 2)
        g_l_local = int(rng.integers(0, 2))
        rel = int(f_k == f_l)                       # true relative table
        g_l_global = 1 ^ g_l_local ^ f_l            # == global_desires scalar
        translated = translate_neighbor_g(g_l_local, rel)
        # translated-to-k's-frame value, re-projected through k's observation,
        # must recover l's global desire
        assert (1 ^ translated ^ f_k) == g_l_global
        # consistency with the vector helper
        assert global_desires(np.array([g_l_local]),
                              np.array([f_l]))[0] == g_l_global


def test_local_agreement_equals_global_unanimity():
    rng = np.random.default_rng(105)
    for _ in range(CASES):
        n = int(rng.integers(3, 10))
        topo = generate_topology(n, 3.0, rng)
        f = rng.integers(0, 2, n)
        g = rng.integers(0, 2, n)
        glob = global_desires(g, f)
        unanimous = bool((glob == glob[0]).all())
        assert local_agreement_predicate(
            g, oracle_relative_f(f), topo.adjacency) == unanimous


def test_perron_residuals():
    rng = np.random.default_rng(106)
    for _ in range(CASES):
        n = int(rng.integers(3, 9))
        topo = generate_topology(n, 3.0, rng)
        A = _random_left_stochastic(rng, topo) if rng.random() < 0.5 \
            else uniform_weights(topo.adjacency)
        c = perron_vector(A)
        assert np.abs(A @ c - c).max() <= 1e-11
        assert (c > 0).all()
        assert abs(c.sum() - 1.0) <= 1e-12


def test_chain_rows_sum_to_one():
    rng = np.random.default_rng(107)
    for _ in range(CASES):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, 8))
        chain = build_meanfield_chain(n, k)
        assert np.abs(chain.P.sum(axis=1) - 1.0).max() <= 1e-12
        assert (chain.P >= 0).all()
