import tracemalloc
from math import exp, lgamma, log

import numpy as np
import pytest

from diffnet.decision import global_desires, run_decision_dynamics
from diffnet.markov import (
    ChainSizeError, absorption_time_distribution, boundary_mass_closed_form,
    build_exact_chain, build_meanfield_chain, count_ratio,
    rate_identity_residual, transient_spectral_radius, verify_K_monotonicity,
)
from diffnet.network import complete_topology, generate_topology


def test_exact_chain_stochastic_and_absorbing():
    topo = generate_topology(6, 4.0, np.random.default_rng(0))
    chain = build_exact_chain(topo, K=2)
    assert chain.P.shape == (64, 64)
    assert np.allclose(chain.P.sum(axis=1), 1.0)
    assert chain.absorbing.tolist() == [0, 63]
    for s in chain.absorbing:
        assert chain.P[s, s] == 1.0
    assert len(chain.transient) == 62


def test_exact_chain_size_cap():
    topo = complete_topology(15)
    with pytest.raises(ChainSizeError):
        build_exact_chain(topo, K=1)


def test_exact_chain_refuses_before_allocating():
    # at N = 13 the transition matrix alone would take 2^26 * 8 B = 537 MB
    topo = complete_topology(13)
    tracemalloc.start()
    try:
        with pytest.raises(ChainSizeError):
            build_exact_chain(topo, K=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_meanfield_rows_beyond_float_binomials():
    # C(1030, 515) overflows a float, so the rows are built in log space
    N = 1030
    chain = build_meanfield_chain(N, 4)
    assert np.isfinite(chain.P).all() and (chain.P >= 0).all()
    assert np.abs(chain.P.sum(axis=1) - 1.0).max() < 1e-11
    # the middle row is Binomial(N, 1/2): its peak is C(N, N/2) / 2^N
    log_peak = lgamma(N + 1) - 2 * lgamma(N / 2 + 1) - N * log(2.0)
    assert chain.P[N // 2, N // 2] == pytest.approx(exp(log_peak), rel=1e-10)


@pytest.mark.parametrize("N, K", [(100, 9), (400, 7), (1030, 6)])
def test_meanfield_rows_where_q_rounds_to_1(N, K):
    # q_{N-1} rounds to 1 once (N-1)^K passes 2^53, and log1p(-1) is -inf
    P = build_meanfield_chain(N, K).P
    assert np.isfinite(P).all()
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-11
    assert P[N - 1, N] == pytest.approx(1.0)


def test_meanfield_rows_binomial():
    chain = build_meanfield_chain(4, 1)
    assert np.allclose(chain.P.sum(axis=1), 1.0)
    # n=2 of 4, K=1: q = 0.5, row = Binomial(4, 0.5)
    assert np.allclose(chain.P[2], [1, 4, 6, 4, 1] / np.array(16.0))


def test_exact_complete_graph_lumps_to_meanfield():
    # grouping the exact chain's configurations by count must reproduce the
    # count chain exactly on complete graphs
    N, K = 5, 3
    exact = build_exact_chain(complete_topology(N), K)
    mean = build_meanfield_chain(N, K)
    counts = exact.states.sum(axis=1)
    lumped = np.zeros((N + 1, N + 1))
    for n in range(N + 1):
        rows = np.flatnonzero(counts == n)
        mass = exact.P[rows[0]]
        for m in range(N + 1):
            lumped[n, m] = mass[counts == m].sum()
    assert np.abs(lumped - mean.P).max() < 1e-12


def test_boundary_mass_closed_form():
    assert boundary_mass_closed_form(4, 1, 1) == pytest.approx(82 / 256)
    for N in (4, 6, 8):
        for K in (1, 2, 3):
            chain = build_meanfield_chain(N, K)
            for n in range(1, N):
                direct = chain.P[n, 0] + chain.P[n, N]
                assert abs(direct - boundary_mass_closed_form(N, K, n)) < 1e-12


def test_count_ratio_monotone_and_equal_case():
    xs = np.linspace(0.5, 5.0, 40)
    vals = [count_ratio(1.0, 3.0, 6, x) for x in xs]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    for x in xs:
        assert count_ratio(2.0, 2.0, 6, x) == pytest.approx(2.0 ** (1 - 6))


def test_spectral_radius_n2_value():
    chain = build_meanfield_chain(2, 1)
    assert transient_spectral_radius(chain) == pytest.approx(0.5)


def test_rate_identity():
    for N, K in [(4, 1), (6, 2), (8, 4)]:
        chain = build_meanfield_chain(N, K)
        assert rate_identity_residual(chain) <= 1e-10


def test_k_monotonicity():
    report = verify_K_monotonicity(10, 6)
    assert report["strictly_decreasing"]
    assert report["scalar_monotone"]
    with pytest.raises(ValueError):
        verify_K_monotonicity(2, 4)


def test_absorption_time_n2():
    chain = build_meanfield_chain(2, 1)
    stats = absorption_time_distribution(chain, start=1, trials=4000,
                                         rng=np.random.default_rng(0))
    assert stats["expected_from_start"] == pytest.approx(2.0)
    assert abs(stats["mc_mean_steps"] - 2.0) < 0.12
    assert np.allclose(stats["absorb_prob"].sum(axis=1), 1.0)


def test_exact_chain_predicts_simulated_absorption():
    # simulate the sweep dynamics and compare absorption frequencies with the
    # fundamental-matrix prediction
    N, K = 6, 2
    topo = complete_topology(N)
    f = np.array([0] * 3 + [1] * 3)
    chain = build_exact_chain(topo, K)

    g0 = np.array([1, 0, 1, 0, 1, 0])
    # exact chain states are global desire configurations; convert local g
    glob0 = global_desires(g0, f)
    start = int((glob0 * (1 << np.arange(N))).sum())
    pos = np.where(chain.transient == start)[0][0]
    stats = absorption_time_distribution(chain)
    p_all_zero = stats["absorb_prob"][pos, 0]

    trials = 600
    hits = sum(run_decision_dynamics(topo, f, K, np.random.default_rng(1000 + t),
                                     g_init=g0)[0] == 0 for t in range(trials))
    emp = hits / trials
    sigma = np.sqrt(p_all_zero * (1 - p_all_zero) / trials)
    assert abs(emp - p_all_zero) <= 3 * sigma + 1e-9
