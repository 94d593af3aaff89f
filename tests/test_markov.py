import tracemalloc
import warnings
from math import exp, lgamma, log

import numpy as np
import pytest

from diffnet.decision import global_desires, quorum_prob
from diffnet.diffusion import spectral_radius
from diffnet.harness import ScenarioConfig, run_scenario
from diffnet.markov import (
    ChainSizeError, DecisionChain, _perron_bounds, absorption_time_distribution,
    build_exact_chain, build_meanfield_chain, count_ratio, rate_identity_residual,
    transient_spectral_radius, verify_K_monotonicity,
)
from diffnet.network import complete_topology, generate_topology
import oracle
from oracle import mc_absorption, run_decision_dynamics


def test_exact_chain_stochastic_and_absorbing():
    topo = generate_topology(6, 4.0, np.random.default_rng(0))
    chain = build_exact_chain(topo, K=2)
    assert chain.P.shape == (64, 64)
    assert np.allclose(chain.P.sum(axis=1), 1.0)
    # the first and last states absorb and no other state keeps all its mass
    assert chain.P[0, 0] == chain.P[-1, -1] == 1.0
    assert (np.diag(chain.Q) < 1).all()


def test_exact_chain_matches_the_per_state_count():
    # P bit for bit against the count the chain used before it asked the
    # decision layer: n_g agreeing neighbours (self included) per state and
    # agent, and quorum_prob(n_g, n_k, K), on 108 chains
    for N in range(2, 11):
        S = 1 << N
        states = (np.arange(S)[:, None] >> np.arange(N)) & 1
        for topo in (complete_topology(N), generate_topology(N, 3.0, np.random.default_rng(N))):
            adj = topo.adjacency
            n_g = ((states[:, None, :] == states[:, :, None]) & adj).sum(axis=2)
            for K in (1, 2, 3, 4, 7, 200):
                q = quorum_prob(n_g, adj.sum(axis=0), K)
                P = np.ones((S, S))
                for k in range(N):
                    same = states[:, None, k] == states[None, :, k]
                    P *= np.where(same, q[:, None, k], 1.0 - q[:, None, k])
                assert build_exact_chain(topo, K).P.tobytes() == P.tobytes()


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
    assert np.abs(chain.P.sum(axis=1) - 1.0).max() <= 1e-15
    # the middle row is Binomial(N, 1/2): its peak is C(N, N/2) / 2^N
    log_peak = lgamma(N + 1) - 2 * lgamma(N / 2 + 1) - N * log(2.0)
    assert chain.P[N // 2, N // 2] == pytest.approx(exp(log_peak), rel=1e-10)


@pytest.mark.parametrize("N, K", [(100, 9), (400, 7), (1030, 6)])
def test_meanfield_rows_where_q_rounds_to_1(N, K):
    # q_{N-1} rounds to 1 once (N-1)^K passes 2^53, and log1p(-1) is -inf
    P = build_meanfield_chain(N, K).P
    assert np.isfinite(P).all()
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-15
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
    counts = ((np.arange(1 << N)[:, None] >> np.arange(N)) & 1).sum(axis=1)
    lumped = np.zeros((N + 1, N + 1))
    for n in range(N + 1):
        rows = np.flatnonzero(counts == n)
        mass = exact.P[rows[0]]
        for m in range(N + 1):
            lumped[n, m] = mass[counts == m].sum()
    assert np.abs(lumped - mean.P).max() < 1e-12


def test_boundary_mass_closed_form():
    # p_{n,0} + p_{n,N} = (n^{NK} + (N-n)^{NK}) / (n^K + (N-n)^K)^N
    assert count_ratio(1.0, 3.0, 4, 1) == pytest.approx(82 / 256)
    for N in (4, 6, 8):
        for K in (1, 2, 3):
            chain = build_meanfield_chain(N, K)
            for n in range(1, N):
                direct = chain.P[n, 0] + chain.P[n, N]
                assert abs(direct - count_ratio(float(n), float(N - n), N, K)) < 1e-12


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
    # measured at most 2.2e-16 on these chains
    cells = [(4, 1), (6, 2), (8, 4), *((N, K) for N in (100, 200, 400) for K in range(1, 7))]
    for N, K in cells:
        assert rate_identity_residual(build_meanfield_chain(N, K)) <= 1e-13


def test_k_monotonicity():
    N = 10
    report = verify_K_monotonicity(N, 6)
    assert report["strictly_decreasing"]
    with pytest.raises(ValueError):
        verify_K_monotonicity(2, 4)
    # the scalar count ratio is non-decreasing in x, and constant at a = b
    grid = np.linspace(0.5, 6.0, 23)
    for a, b in [(1.0, 3.0), (2.0, 5.0), (0.3, 0.7)]:
        vals = [count_ratio(a, b, N, x) for x in grid]
        assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(vals, vals[1:]))
    equal_case = [count_ratio(2.0, 2.0, N, x) for x in grid]
    assert np.allclose(equal_case, 2.0 ** (1 - N) * np.ones(grid.size))


def test_absorption_time_n2():
    chain = build_meanfield_chain(2, 1)
    stats = absorption_time_distribution(chain)
    assert stats["expected_steps"][0] == pytest.approx(2.0)     # from state 1
    assert abs(mc_absorption(chain, 1, 4000, np.random.default_rng(0)) - 2.0) < 0.12
    assert np.allclose(stats["absorb_prob"].sum(axis=1), 1.0)


def test_mc_walk_stops_at_the_step_cap(monkeypatch):
    # a walk that cannot absorb ends after MC_STEP_CAP steps
    stuck = DecisionChain(P=np.eye(3))
    monkeypatch.setattr(oracle, "MC_STEP_CAP", 7)
    assert mc_absorption(stuck, 1, 3, np.random.default_rng(0)) == oracle.MC_STEP_CAP


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
    assert 0 < start < len(chain.P) - 1          # a transient state
    stats = absorption_time_distribution(chain)
    p_all_zero = stats["absorb_prob"][start - 1, 0]

    trials = 600
    hits = sum(run_decision_dynamics(topo, f, K, np.random.default_rng(1000 + t),
                                     g_init=g0)[0] == 0 for t in range(trials))
    emp = hits / trials
    sigma = np.sqrt(p_all_zero * (1 - p_all_zero) / trials)
    assert abs(emp - p_all_zero) <= 3 * sigma + 1e-9


@pytest.mark.parametrize("K", [1, 4])
def test_engine_agreement_matches_the_exact_chain(K):
    # with oracle classification on a static graph nothing the estimates do
    # reaches the decisions: the engine's global desires walk the exact chain
    # from g = f, one sweep per iteration.  agreement_time counts rows from 0
    # and the chain counts sweeps, hence the + 1.  The replicas are
    # independent, so each sample mean lies within 4 sample standard errors
    # of the chain's value unless the engine's decision path is wrong
    cfg = ScenarioConfig(N=8, split=4, mean_degree=4.0, oracle_classification=True, K=K,
                         iterations=200, replicas=400, seed=3).validate()
    trace = run_scenario(cfg)
    steps = trace.agreement_times + 1.0
    assert np.isfinite(steps).all()                 # every replica agrees
    on_model0 = trace.final_global_desires[:, 0] == 0
    start = int((trace.f << np.arange(cfg.N)).sum())
    stats = absorption_time_distribution(build_exact_chain(trace.topology, K))
    sem = 4.0 / np.sqrt(cfg.replicas)
    assert abs(steps.mean() - stats["expected_steps"][start - 1]) < sem * steps.std(ddof=1)
    assert abs(on_model0.mean() - stats["absorb_prob"][start - 1, 0]) \
        < sem * on_model0.std(ddof=1)


def _exact_row(N, K, n):
    """Row n in integer arithmetic, each entry correctly rounded:
    C(N, m) a^m b^(N-m) / (a + b)^N with a = n^K, b = (N-n)^K."""
    a, b = n ** K, (N - n) ** K
    total, num, row = (a + b) ** N, b ** N, []
    for m in range(N + 1):
        row.append(num / total)
        num = num * (N - m) * a // ((m + 1) * b)
    return np.array(row)


@pytest.mark.parametrize("N", [*range(2, 10), 100, 1030])
def test_meanfield_chain_is_mirrored(N):
    for K in (1, 2, 3, 4, 200):
        P = build_meanfield_chain(N, K).P
        assert np.array_equal(P, P[::-1, ::-1])
        assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-15
        # every computed and mirrored row against the exact one; at N = 1030
        # the integer rows take seconds, so four of them at K <= 4
        checked = range(1, N) if N <= 100 else (N // 2, N // 2 + 1, N - 2, N - 1)
        for n in checked if N <= 100 or K <= 4 else ():
            exact = _exact_row(N, K, n)
            assert (np.abs(P[n] - exact) <= 1e-12 * exact + 1e-300).all()


@pytest.mark.parametrize("N, Ks", [*((N, range(1, 6))
                                     for N in (2, 3, 4, 5, 7, 100, 101, 400)),
                                   (100, [200])])
def test_folded_radius_matches_dense_meanfield(N, Ks):
    # the dense radius of the full Q is the oracle
    for K in Ks:
        chain = build_meanfield_chain(N, K)
        assert abs(transient_spectral_radius(chain) - spectral_radius(chain.Q)) <= 1e-12


@pytest.mark.parametrize("N", range(3, 9))
def test_folded_radius_matches_dense_exact(N):
    topologies = [complete_topology(N),
                  generate_topology(N, 2.5, np.random.default_rng(N))]
    for topo in topologies:
        for K in (1, 2, 4):
            chain = build_exact_chain(topo, K)
            assert np.array_equal(chain.P, chain.P[::-1, ::-1])
            assert abs(transient_spectral_radius(chain)
                       - spectral_radius(chain.Q)) <= 1e-12


def test_certificate_brackets_the_dense_radius():
    # the Collatz-Wielandt interval of every chain on the two grids above,
    # and of the analysis grid's N = 200, holds the dense radius of the full
    # Q, up to that radius's own rounding (measured up to 4.2e-15 relative);
    # every mean-field interval is within the 1e-13 that certifies it
    meanfield = [build_meanfield_chain(N, K) for N in (2, 3, 4, 5, 7, 100, 101, 200, 400)
                 for K in range(1, 6)] + [build_meanfield_chain(100, 200)]
    exact = [build_exact_chain(topo, K) for N in range(3, 9)
             for topo in (complete_topology(N),
                          generate_topology(N, 2.5, np.random.default_rng(N)))
             for K in (1, 2, 4)]
    for chain, certified in [*((c, True) for c in meanfield), *((c, False) for c in exact)]:
        lo, hi, _ = _perron_bounds(*chain._symmetric_fold)
        dense = spectral_radius(chain.Q)
        assert lo * (1 - 1e-14) <= dense <= hi * (1 + 1e-14)
        assert hi - lo <= 1e-13 * hi or not certified


@pytest.mark.parametrize("N, K, rho", [(101, 200, 3.01e-58), (5, 200, 3.66e-70),
                                       (9, 30, 2.930e-10), (11, 20, 4.312e-6)])
def test_tiny_radius_keeps_its_relative_accuracy(N, K, rho):
    # from dense eigenvalues, 1 - 1/lambda_max(G) reads 0, 0 and 1.47e-10 on
    # the first three, 1 - min Re lambda(I - F+) 0, 0 and 2.706e-10; the
    # ratios on F+ keep every digit
    chain = build_meanfield_chain(N, K)
    dense = spectral_radius(chain.Q)
    assert dense == pytest.approx(rho, rel=1e-3)
    assert abs(transient_spectral_radius(chain) - dense) <= 1e-12 * dense


def test_uncertified_radius_falls_back_without_warnings():
    # a sparse exact chain with rho near 1 stops with bounds 1.7e-10 apart and
    # takes the dense eigensolver; N = 100, K = 200, whose left vector spans
    # 17 decades, certifies.  None of them may warn (at N = 5, K = 200 the
    # entries of G - I are exactly 0)
    sparse = build_exact_chain(generate_topology(7, 2.5, np.random.default_rng(7)), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi, _ = _perron_bounds(*sparse._symmetric_fold)
        assert hi - lo > 1e-13 * hi
        # the rate identity, read off the same bounds, is off by no more
        assert rate_identity_residual(sparse) <= hi - lo
        for chain in (sparse, build_meanfield_chain(100, 200), build_meanfield_chain(5, 200)):
            dense = spectral_radius(chain.Q)
            assert abs(transient_spectral_radius(chain) - dense) <= 1e-12 * dense


def test_radius_refuses_asymmetric_chain():
    P = build_meanfield_chain(5, 2).P.copy()
    P[1, 1:3] += [1e-3, -1e-3]        # still stochastic, no longer mirrored
    for analysis in (transient_spectral_radius, absorption_time_distribution):
        with pytest.raises(ValueError, match="symmetric"):
            analysis(DecisionChain(P))


@pytest.mark.parametrize("N", [1000, 2001])
def test_radius_k1_closed_form(N):
    # K = 1 is the neutral Wright-Fisher chain: rho(Q) = 1 - 1/N
    rho = transient_spectral_radius(build_meanfield_chain(N, 1))
    assert abs(rho - (1.0 - 1.0 / N)) <= 1e-14


@pytest.mark.parametrize("N", [200, 400, 2001])
def test_absorption_k1_closed_form(N):
    # the neutral chain is a martingale: from n it absorbs at N with
    # probability n / N (measured within 3.7e-13 at N = 2001)
    absorb = absorption_time_distribution(build_meanfield_chain(N, 1))["absorb_prob"]
    n = np.arange(1, N)
    assert np.abs(absorb - np.column_stack([N - n, n]) / N).max() <= 1e-12


def test_k1_transient_spectrum_closed_form():
    # the Wright-Fisher chain's transient eigenvalues are
    # lambda_j = prod_{i<j} (1 - i/N) for j = 2..N
    N = 200
    eigenvalues = np.linalg.eigvals(build_meanfield_chain(N, 1).Q)
    assert np.abs(eigenvalues.imag).max() <= 1e-13
    closed_form = np.cumprod(1.0 - np.arange(1, N) / N)
    assert np.abs(np.sort(eigenvalues.real) - np.sort(closed_form)).max() <= 1e-13


@pytest.mark.parametrize("K", [2, 3, 4, 6])
def test_radius_tends_to_1_over_K(K):
    # a large-N regression check, not a derived bound: at N = 400,
    # K rho(Q) is 1 to within 2.3e-14 for these K
    rho = transient_spectral_radius(build_meanfield_chain(400, K))
    assert abs(K * rho - 1.0) <= 1e-12


def test_absorption_solve_matches_inverse():
    # five chosen cells, then the analysis grid's cells at N = 200 and 400
    cells = [(2, 1), (7, 3), (100, 1), (101, 4), (400, 2),
             *((N, K) for N in (200, 400) for K in range(1, 5))]
    chains = {cell: build_meanfield_chain(*cell) for cell in cells}
    chains["exact"] = build_exact_chain(generate_topology(6, 3.0, np.random.default_rng(4)), 2)
    for cell, chain in chains.items():
        n_t = len(chain.Q)
        fundamental = np.linalg.inv(np.eye(n_t) - chain.Q)
        oracle = fundamental @ np.column_stack([np.ones(n_t), chain.absorption_columns])
        stats = absorption_time_distribution(chain)
        np.testing.assert_allclose(stats["expected_steps"], oracle[:, 0], rtol=1e-12)
        np.testing.assert_allclose(stats["absorb_prob"], oracle[:, 1:],
                                   rtol=1e-12, atol=1e-15)
        assert np.abs(stats["absorb_prob"].sum(axis=1) - 1.0).max() < 1e-12


def test_absorption_refuses_singular_chain():
    P = np.eye(4)                     # no transient state ever leaves
    for analysis in (transient_spectral_radius, absorption_time_distribution):
        with pytest.raises(RuntimeError, match="singular"):
            analysis(DecisionChain(P))
