"""End-to-end acceptance gate.

Each criterion prints a single PASS/FAIL line (run with -s to see them all).
The heavy bifurcation run is shared across criteria through module fixtures.
"""
import time

import numpy as np
import pytest

from diffnet.classification import (
    direction_pair_benchmark, gaussian_tau, pd_pf_bounds,
)
from diffnet.decision import global_desires, oracle_relative_f
from diffnet.diffusion import build_mean_error_system, spectral_radius
from diffnet.harness import preset, run_scenario
from diffnet.markov import (
    absorption_time_distribution, build_exact_chain, build_meanfield_chain,
    count_ratio, rate_identity_residual, verify_K_monotonicity,
)
from diffnet.network import (
    AgentEnvironment, ModelPair, bias_limit, complete_topology,
    generate_topology, perron_vector, uniform_weights,
)
from oracle import run_decision_dynamics

SEED = 1  # documented experiment seed; environment draw matches the reported
          # steady-state levels


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {name} failed: {detail}"


@pytest.fixture(scope="module")
def bifurcation_trace():
    cfg = preset("bifurcation")
    cfg.seed = SEED
    t0 = time.monotonic()
    trace = run_scenario(cfg)
    trace.elapsed = time.monotonic() - t0
    return trace


@pytest.fixture(scope="module")
def bifurcation_env():
    # the graph and data model are drawn before any replica, so one short
    # replica gives the bifurcation run's own
    cfg = preset("bifurcation")
    cfg.seed, cfg.iterations, cfg.replicas = SEED, 1, 1
    trace = run_scenario(cfg)
    return trace.topology, trace.env


def test_criterion_1_bifurcation(bifurcation_trace):
    agreed = bifurcation_trace.msd_desired_db[-500:].mean()
    rejected = bifurcation_trace.msd_rejected_db[-500:].mean()
    gap = rejected - agreed
    ok = agreed <= -45.0 and rejected >= 15.0 and gap >= 60.0 \
        and bifurcation_trace.elapsed <= 120.0
    report("1 (bifurcation)", ok,
           f"agreed {agreed:.1f} dB, rejected {rejected:.1f} dB, "
           f"gap {gap:.1f} dB, {bifurcation_trace.elapsed:.0f}s")


def test_criterion_2_conventional_bias():
    cfg = preset("bifurcation")
    cfg.seed, cfg.strategy = SEED, "conventional"
    cfg.replicas, cfg.iterations = 10, 4000
    trace = run_scenario(cfg)
    tail0 = trace.msd0_db[-500:].mean()
    tail1 = trace.msd1_db[-500:].mean()

    models = ModelPair(np.array(cfg.w0), np.array(cfg.w1))
    A = uniform_weights(trace.topology.adjacency)
    w_limit = bias_limit(perron_vector(A), models, trace.f)
    rel_err = np.linalg.norm(trace.final_w_mean.mean(axis=0) - w_limit) \
        / np.linalg.norm(models.w0 - models.w1)
    ok = abs(tail0 - tail1) <= 3.0 and min(tail0, tail1) >= 15.0 \
        and rel_err <= 0.05
    report("2 (conventional bias)", ok,
           f"MSD {tail0:.1f}/{tail1:.1f} dB, limit error {100 * rel_err:.2f}%")


def test_criterion_3_mean_convergence(bifurcation_env):
    topology, env = bifurcation_env
    cfg = preset("bifurcation")
    cfg.seed, cfg.replicas, cfg.iterations = SEED, 12, 3500
    cfg.oracle_classification, cfg.forced_desired, cfg.mean_error_vs = True, 1, 1
    trace = run_scenario(cfg)
    ratio = trace.mean_error_norm[-1] / trace.mean_error_norm[0]

    f = trace.f
    A = uniform_weights(topology.adjacency)
    A1 = A * (f == 1)[:, None]
    models = ModelPair(np.array(cfg.w0), np.array(cfg.w1))
    B, y = build_mean_error_system(env, cfg.mu, models, f, 1, A1, A - A1)
    rho = spectral_radius(B)
    unbiased = bool((y == 0.0).all())
    ok = rho < 1.0 and unbiased and ratio <= 1e-2
    report("3 (mean convergence)", ok,
           f"rho(B)={rho:.5f}, y==0 {unbiased}, error ratio {ratio:.2e}")


def test_criterion_4_agreement_and_absorption():
    failures = 0
    for N in (5, 10, 20, 40):
        for K in (1, 4):
            for run in range(100):
                rng = np.random.default_rng(10_000 * N + 100 * K + run)
                topo = generate_topology(N, min(5.0, N - 1.0), rng)
                f = rng.integers(0, 2, N)
                model, _, _ = run_decision_dynamics(topo, f, K, rng)
                failures += model is None
    all_agree = failures == 0

    # exact chain vs simulated absorption on a complete graph
    N, K = 6, 2
    topo = complete_topology(N)
    f = np.array([0] * 3 + [1] * 3)
    chain = build_exact_chain(topo, K)
    two_absorbing = chain.P[0, 0] == chain.P[-1, -1] == 1.0 \
        and bool((np.diag(chain.Q) < 1).all())
    g0 = np.array([1, 0, 1, 0, 1, 0])
    glob0 = global_desires(g0, f)
    start = int((glob0 * (1 << np.arange(N))).sum())
    assert 0 < start < len(chain.P) - 1          # a transient state
    p_zero = absorption_time_distribution(chain)["absorb_prob"][start - 1, 0]

    trials = 600
    hits = sum(run_decision_dynamics(topo, f, K, np.random.default_rng(50_000 + t),
                                     g_init=g0)[0] == 0 for t in range(trials))
    emp = hits / trials
    sigma = np.sqrt(p_zero * (1 - p_zero) / trials)
    within = abs(emp - p_zero) <= 3 * sigma + 1e-9
    ok = all_agree and two_absorbing and within
    report("4 (agreement/absorption)", ok,
           f"{failures} non-agreeing runs of 800; absorption "
           f"{emp:.3f} vs {p_zero:.3f} (3 sigma {3 * sigma:.3f})")


def test_criterion_5_chain_identities():
    monotone = all(verify_K_monotonicity(N, 5)["strictly_decreasing"] for N in (4, 6, 8))
    closed = max(
        abs(build_meanfield_chain(N, K).P[n, [0, N]].sum()
            - count_ratio(float(n), float(N - n), N, K))
        for N in (4, 6, 8) for K in range(1, 6) for n in range(1, N))
    residual = max(rate_identity_residual(build_meanfield_chain(N, K))
                   for N in (4, 6, 8) for K in range(1, 6))
    ok = monotone and closed <= 1e-12 and residual <= 1e-10
    report("5 (chain identities)", ok,
           f"monotone {monotone}, closed-form err {closed:.1e}, "
           f"identity residual {residual:.1e}")


def test_criterion_6_k_effect(bifurcation_trace):
    cfg = preset("quorum_k1")
    cfg.seed = SEED
    k1 = run_scenario(cfg)
    med4 = float(np.median(bifurcation_trace.agreement_times))
    med1 = float(np.median(k1.agreement_times))
    ok = med4 < med1
    report("6 (K effect)", ok,
           f"median agreement: K=4 -> {med4:.0f}, K=1 -> {med1:.0f}")


def test_criterion_7_fast_weights():
    results = {}
    for name in ("bifurcation", "fast_weights"):
        cfg = preset(name)
        cfg.seed, cfg.replicas = SEED, 10
        trace = run_scenario(cfg)
        crossed = np.flatnonzero(trace.msd_desired_db <= -30.0)
        results[name] = (int(crossed[0]) if crossed.size else np.inf,
                         trace.msd_desired_db[-500:].mean())
    (t_uni, ss_uni), (t_fast, ss_fast) = results["bifurcation"], results["fast_weights"]
    ok = t_fast < t_uni and ss_fast >= ss_uni - 1.0
    report("7 (fast weights)", ok,
           f"-30 dB at {t_fast} vs {t_uni} iterations; "
           f"steady state {ss_fast:.1f} vs {ss_uni:.1f} dB")


def test_criterion_8_classification(bifurcation_trace, bifurcation_env):
    rel = oracle_relative_f(bifurcation_trace.f)
    adj = bifurcation_trace.topology.adjacency.copy()
    np.fill_diagonal(adj, False)
    beliefs = bifurcation_trace.final_beliefs
    same_ok = (beliefs[:, (rel == 1) & adj] >= 0.9).mean()
    diff_ok = (beliefs[:, (rel == 0) & adj] <= 0.1).mean()

    _, env = bifurcation_env
    models = ModelPair(np.array([5.0, -5.0, 5.0, 5.0]),
                       np.array([5.0, 5.0, -5.0, 5.0]))
    rng = np.random.default_rng(0)
    tau_hat = gaussian_tau(env.ru)
    pd_lo, pf_hi = pd_pf_bounds(0.05, tau_hat)
    bench_env = AgentEnvironment(env.ru, sigma_v2=np.array([0.01]))
    w_far = models.w0 - 10.0 * (models.w0 - models.w1) \
        / np.linalg.norm(models.w0 - models.w1)
    mid = 0.5 * (models.w0 + models.w1)
    # the same-model pair (w0, w0, w_far) and the different-model pair
    # (w0, w1, mid) on one set of draws
    rates = direction_pair_benchmark(models.w0, np.stack([models.w0, models.w1]),
                                     np.stack([w_far, mid]), bench_env, 0.05, 1.0, 20_000, rng)
    p_d, p_f = rates["p_e1"] / (rates["p_e1"] + rates["p_e1c"])
    ok = same_ok >= 0.95 and diff_ok >= 0.95 and p_d >= pd_lo and p_f <= pf_hi
    report("8 (classification)", ok,
           f"endpoints same {100 * same_ok:.1f}% / diff {100 * diff_ok:.1f}%; "
           f"P_d {p_d:.3f} >= {pd_lo:.3f}, P_f {p_f:.4f} <= {pf_hi:.3f}")


def test_criterion_9_field_bounds(bifurcation_env):
    _, env = bifurcation_env
    models = ModelPair(np.array([5.0, -5.0, 5.0, 5.0]),
                       np.array([5.0, 5.0, -5.0, 5.0]))
    rng = np.random.default_rng(1)
    nu, eta, trials = 0.05, 1.0, 100_000
    tau_hat = gaussian_tau(env.ru)
    bench_env = AgentEnvironment(env.ru, sigma_v2=np.array([0.01]))

    gap = (models.w0 - models.w1) / np.linalg.norm(models.w0 - models.w1)
    w_far = models.w0 - 10.0 * gap
    # the far-field pair (estimate w_far) and the near-field pair (estimate w0)
    # on one set of draws
    far, near = direction_pair_benchmark(models.w0, models.w0, np.stack([w_far, models.w0]),
                                         bench_env, nu, eta, trials, rng)["p_far_k"]
    far_bound = 1.0 - nu * tau_hat / 2.0
    sig2 = float(bench_env.sigma_v2[0])
    near_bound = nu * sig2 * env.ru.sum() / (2.0 * eta ** 2)
    mc_tol = 3.0 / np.sqrt(trials)
    ok = far >= far_bound - mc_tol and near <= near_bound + mc_tol
    report("9 (field bounds)", ok,
           f"far {far:.4f} >= {far_bound:.4f}; near {near:.2e} <= {near_bound:.2e}")


def test_criterion_10_fish():
    cfg = preset("school")
    cfg.seed = SEED
    trace = run_scenario(cfg)
    settle = float(trace.agreement_times[0])
    g = trace.trajectory[-1, :, 4].astype(int)
    target = np.array(cfg.w1) if g[0] else np.array(cfg.w0)
    tail = trace.trajectory[2000:, :, 0:2]
    dists = np.linalg.norm(tail - target[None, None, :], axis=2)
    ok = np.isfinite(settle) and settle < 0.25 * cfg.iterations \
        and (g == g[0]).all() and dists.max() <= 5.0
    report("10 (fish schooling)", ok,
           f"agreement at step {settle:.0f}, max distance after step 2000 "
           f"= {dists.max():.2f}")


def test_criterion_11_property_suite():
    import test_properties as props
    props.test_split_exactness_and_disjoint_support()
    props.test_split_preserves_left_stochasticity()
    props.test_belief_range_closure()
    props.test_frame_translation_xor_identities()
    props.test_local_agreement_equals_global_unanimity()
    props.test_perron_residuals()
    props.test_chain_rows_sum_to_one()
    report("11 (property suite)", True, ">= 1000 randomized cases per invariant")
