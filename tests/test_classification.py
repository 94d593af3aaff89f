import math

import numpy as np
import pytest

from diffnet.classification import (
    belief_error_oracle, check_stepsize_separation, direction_pair_benchmark,
    error_bound_Pu, estimate_tau, f_hat, markov_tail_bound, pd_pf_bounds,
)
from diffnet.network import AgentEnvironment, ModelPair
from oracle import E1, E1C, NO_UPDATE, classify_event, update_belief, update_direction


def test_stepsize_separation_warns():
    assert check_stepsize_separation(0.005, 0.05)
    with pytest.warns(UserWarning):
        assert not check_stepsize_separation(0.05, 0.05)


def test_update_direction_numeric():
    h = update_direction(np.zeros(2), np.array([1.0, 0.0]),
                         np.array([0.0, 0.0]), mu=0.1, nu=0.5)
    # (psi - w)/mu = [10, 0], smoothed by nu
    assert np.allclose(h, [5.0, 0.0])


def test_classify_event_regions():
    big = np.array([3.0, 0.0])
    small = np.array([0.1, 0.0])
    assert classify_event(big, big, 1.0) == E1
    assert classify_event(big, -big, 1.0) == E1C
    assert classify_event(big, small, 1.0) == NO_UPDATE
    # threshold is exclusive
    unit = np.array([1.0, 0.0])
    assert classify_event(unit, big, 1.0) == NO_UPDATE


def test_update_belief_and_decision():
    assert update_belief(0.5, E1, 0.95) == pytest.approx(0.525)
    assert update_belief(0.5, E1C, 0.95) == pytest.approx(0.475)
    assert update_belief(0.5, NO_UPDATE, 0.95) == 0.5
    with pytest.raises(ValueError):
        update_belief(0.5, "E2", 0.95)
    assert f_hat(0.5) == 1  # boundary maps to same-model
    assert f_hat(0.4999) == 0
    assert np.array_equal(f_hat(np.array([0.2, 0.8])), [0, 1])


def test_estimate_tau_gaussian_values():
    rng = np.random.default_rng(0)
    # scalar Gaussian: E(u^2 - 1)^2 = 2
    env1 = AgentEnvironment(ru=np.ones(1), sigma_v2=[0.01])
    m1 = ModelPair([1.0], [-1.0])
    assert abs(estimate_tau(env1, m1, 200_000, rng) - 2.0) < 0.15
    # M-dimensional identity Ru: tau = M + 1
    env4 = AgentEnvironment(ru=np.ones(4), sigma_v2=[0.01])
    m4 = ModelPair([5.0, -5.0, 5.0, 5.0], [5.0, 5.0, -5.0, 5.0])
    assert abs(estimate_tau(env4, m4, 200_000, rng) - 5.0) < 0.3


def _estimate_tau_from_the_covariance(Ru, models, sample_count, rng):
    """estimate_tau's former formula on the full covariance Ru: probes from
    eigh, regressors from the Cholesky factor, references Ru @ e."""
    probes = [models.w0 - models.w1, *np.linalg.eigh(Ru)[1].T]
    u = rng.standard_normal((sample_count, len(Ru))) @ np.linalg.cholesky(Ru).T
    tau = 0.0
    for e in probes:
        e = e / np.linalg.norm(e)
        ref = Ru @ e
        samples = u * (u @ e)[:, None] - ref
        tau = max(tau, float((samples ** 2).sum(axis=1).mean() / (ref @ ref)))
    return tau


def test_estimate_tau_matches_the_covariance_formula():
    # on a diagonal Ru the unit-vector probes, the ru_sd scaling and ru * e
    # give the dense formula's bits
    rng = np.random.default_rng(4)
    for M in (2, 4, 5):
        env = AgentEnvironment(rng.uniform(0.5, 3.0, M), sigma_v2=[0.01])
        models = ModelPair(rng.standard_normal(M), rng.standard_normal(M))
        got = estimate_tau(env, models, 10_000, np.random.default_rng(M))
        want = _estimate_tau_from_the_covariance(np.diag(env.ru), models, 10_000,
                                                 np.random.default_rng(M))
        assert got == want


def test_estimate_tau_rejects_small_sample():
    env = AgentEnvironment(ru=np.ones(1), sigma_v2=[0.01])
    with pytest.raises(ValueError):
        estimate_tau(env, ModelPair([1.0], [-1.0]), 100,
                     np.random.default_rng(0))


def test_pd_pf_bounds_values():
    pd, pf = pd_pf_bounds(0.05, 2.0)
    assert pd + pf == pytest.approx(1.0)
    assert pf == pytest.approx(16 * 0.05 * 2.0 / math.pi ** 2)
    assert pf == pytest.approx(0.162114, abs=1e-5)


def test_error_bound_value_and_domain():
    # frozen arithmetic for alpha=0.95, nu=0.05, tau=1
    assert error_bound_Pu(0.95, 0.05, 1.0) == pytest.approx(0.010882, abs=2e-5)
    with pytest.raises(ValueError):
        error_bound_Pu(0.95, 0.05, 7.0)  # 16*nu*tau/pi^2 > 0.5


def test_belief_error_oracle_within_markov_bound():
    rng = np.random.default_rng(1)
    p, alpha = 0.9, 0.95
    lo, hi = belief_error_oracle(p, alpha, 200, 100_000, rng)
    bound = markov_tail_bound(p, alpha)
    assert bound == pytest.approx(0.0144231, abs=1e-6)
    assert lo <= bound          # wrong-side mass obeys the bound
    assert hi > 0.9             # mass concentrates on the correct side
    # mirrored case
    lo2, hi2 = belief_error_oracle(1 - p, alpha, 200, 100_000, rng)
    assert hi2 <= markov_tail_bound(1 - p, alpha)


def test_direction_benchmark_far_vs_near():
    rng = np.random.default_rng(2)
    env = AgentEnvironment(ru=np.ones(2), sigma_v2=[0.01])
    z = np.array([5.0, 5.0])
    far = direction_pair_benchmark(z, z, np.zeros(2), env, nu=0.05, eta=1.0,
                                   trials=4000, rng=rng)
    near = direction_pair_benchmark(z, z, z, env, nu=0.05, eta=1.0,
                                    trials=4000, rng=rng)
    assert far["p_far_k"] > 0.95
    assert far["p_e1"] > 0.9            # aligned far-field pair
    assert near["p_far_k"] < 0.05
    opposite = direction_pair_benchmark(z, -z, np.zeros(2), env, nu=0.05,
                                        eta=1.0, trials=4000, rng=rng)
    assert opposite["p_e1c"] > 0.9      # anti-aligned far-field pair
    with pytest.raises(ValueError):     # the pair shares one noise variance
        direction_pair_benchmark(z, z, z, AgentEnvironment(np.ones(2), [0.01, 0.02]),
                                 nu=0.05, eta=1.0, trials=10, rng=rng)


def _out_of_place_benchmark(z_k, z_l, w, env, nu, eta, trials, rng):
    """direction_pair_benchmark with its former out-of-place update."""
    (sig,) = env.sigma_v
    chol = np.linalg.cholesky(np.diag(env.ru)).T
    h = [np.zeros((trials, env.M)), np.zeros((trials, env.M))]
    for _ in range(math.ceil(8.0 / nu)):
        for idx, z in enumerate((z_k, z_l)):
            u = rng.standard_normal((trials, env.M)) @ chol
            resid = u @ (z - w) + sig * rng.standard_normal(trials)
            h[idx] = (1.0 - nu) * h[idx] + nu * u * resid[:, None]
    far_k = (h[0] ** 2).sum(axis=1) > eta ** 2
    far_l = (h[1] ** 2).sum(axis=1) > eta ** 2
    inner = (h[0] * h[1]).sum(axis=1)
    both = far_k & far_l
    return {"p_far_k": float(far_k.mean()), "p_far_l": float(far_l.mean()),
            "p_e1": float((both & (inner > 0)).mean()),
            "p_e1c": float((both & (inner <= 0)).mean())}


def test_direction_benchmark_in_place_update_is_bit_identical():
    env = AgentEnvironment(ru=[1.0, 1.5, 2.0], sigma_v2=[0.05])
    z_k, z_l = np.array([1.0, -0.5, 0.3]), np.array([-0.2, 0.4, 0.1])
    w = np.array([0.3, 0.1, -0.2])
    args = (z_k, z_l, w, env, 0.07, 0.9, 3000)
    got = direction_pair_benchmark(*args, rng=np.random.default_rng(11))
    want = _out_of_place_benchmark(*args, rng=np.random.default_rng(11))
    assert 0.0 < got["p_e1"] < got["p_far_k"] < 1.0     # rates away from 0 and 1
    for key in ("p_far_k", "p_far_l", "p_e1", "p_e1c"):
        assert np.array_equal(got[key], want[key])


def test_stacked_pairs_match_their_own_runs_from_one_set_of_draws():
    env = AgentEnvironment(ru=[1.0, 1.5, 2.0], sigma_v2=[0.05])
    z_k = np.array([1.0, -0.5, 0.3])
    z_l = np.array([[-0.2, 0.4, 0.1], [1.0, -0.5, 0.3], [-1.0, 0.5, -0.3]])
    w = np.array([[0.3, 0.1, -0.2], [0.6, -0.3, 0.2], [0.0, 0.0, 0.0]])
    args = (env, 0.07, 0.9, 3000)
    stacked_rng = np.random.default_rng(11)
    stacked = direction_pair_benchmark(z_k, z_l, w, *args, rng=stacked_rng)
    # rates away from 0 and 1, also for the near-field pair (w beside its model)
    assert 0.0 < stacked["p_e1"][0] < stacked["p_far_k"][0] < 1.0
    assert 0.0 < stacked["p_far_k"][1] < 0.1 and 0.0 < stacked["p_far_l"][1] < 0.1
    for pair in range(3):
        one_rng = np.random.default_rng(11)
        one = direction_pair_benchmark(z_k, z_l[pair], w[pair], *args, rng=one_rng)
        for key, rate in stacked.items():
            assert rate.shape == (3,)
            assert type(one[key]) is float and rate[pair] == one[key]
        # the draws are made once for the whole stack
        assert stacked_rng.bit_generator.state == one_rng.bit_generator.state
    # leading axes broadcast together, and a geometry must end in M entries
    grid = direction_pair_benchmark(z_k, z_l[:, None], w[None, :2], *args,
                                    rng=np.random.default_rng(11))
    assert grid["p_e1"].shape == (3, 2)
    assert grid["p_e1"][1, 1] == stacked["p_e1"][1]
    with pytest.raises(ValueError, match="M = 3"):
        direction_pair_benchmark(z_k[:2], z_k[:2], z_k[:2], *args, rng=np.random.default_rng(0))
