import numpy as np
import pytest

from diffnet.mobility import (
    MotionParams, cohesion_all, measure_target, pairwise_offsets,
    radius_adjacency, update_motion,
)
from oracle import cohesion_term


def test_motion_params_validation():
    MotionParams()  # defaults valid
    with pytest.raises(ValueError):
        MotionParams(dt=0.0)
    with pytest.raises(ValueError):
        MotionParams(d_s=-1.0)
    with pytest.raises(ValueError):
        MotionParams(lam=-0.1)
    with pytest.raises(ValueError):
        MotionParams(kappa=0.0)


def test_motion_params_are_stored_as_floats():
    # numpy takes a float of any size but not an int past int64
    params = MotionParams(kappa=10 ** 20, d_s=3)
    assert type(params.kappa) is float and params.kappa == 1e20
    assert type(params.d_s) is float and params.d_s == 3.0
    with pytest.raises(OverflowError):
        MotionParams(kappa=10 ** 400)


def test_cohesion_sign_and_equilibrium():
    d_s = 3.0
    adj = np.ones((2, 2), dtype=bool)
    # at the preferred spacing: zero
    pos = np.array([[0.0, 0.0], [d_s, 0.0]])
    assert np.allclose(cohesion_term(0, pos, adj, d_s), 0.0)
    # too close: repulsion (away from the neighbor)
    pos = np.array([[0.0, 0.0], [1.0, 0.0]])
    delta = cohesion_term(0, pos, adj, d_s)
    assert delta[0] < 0.0
    # too far: attraction
    pos = np.array([[0.0, 0.0], [10.0, 0.0]])
    delta = cohesion_term(0, pos, adj, d_s)
    assert delta[0] > 0.0


def test_cohesion_edge_cases():
    adj = np.ones((2, 2), dtype=bool)
    pos = np.zeros((2, 2))  # coincident
    assert np.allclose(cohesion_term(0, pos, adj, 3.0), 0.0)
    lone = np.eye(1, dtype=bool)
    assert np.allclose(cohesion_term(0, np.zeros((1, 2)), lone, 3.0), 0.0)


def test_cohesion_all_matches_scalar():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pos = rng.uniform(-5, 5, (7, 2))
        diff, dist = pairwise_offsets(pos)
        adj = radius_adjacency(dist, 6.0)
        batch = cohesion_all(diff, dist, adj & ~np.eye(7, dtype=bool), 3.0)
        for k in range(7):
            assert np.allclose(batch[k], cohesion_term(k, pos, adj, 3.0))


def test_update_motion_moves_toward_estimate():
    params = MotionParams(lam=0.3, beta=0.0, gamma=0.0)
    # agent 0 heads for its estimate; agent 1 sits exactly on it
    w_est = np.array([[10.0, 0.0], [4.0, 3.0]])
    x = np.array([[0.0, 0.0], [4.0, 3.0]])
    x2, v2 = update_motion(x, np.zeros((2, 2)), w_est, np.eye(2),
                           np.zeros((2, 2)), params)
    assert np.allclose(v2, [[0.3, 0.0], [0.0, 0.0]])
    assert np.allclose(x2, [[0.03, 0.0], [4.0, 3.0]])


def test_update_motion_alignment_uses_combination_columns():
    params = MotionParams(lam=0.0, beta=0.5, gamma=2.0)
    A = np.array([[0.25, 1.0], [0.75, 0.0]])    # column k holds k's weights
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    delta = np.array([[0.0, 1.0], [0.0, 0.0]])
    _, v2 = update_motion(np.zeros((2, 2)), v, np.zeros((2, 2)), A, delta, params)
    assert np.allclose(v2, [[0.125, 0.375 + 2.0], [0.5, 0.0]])


def test_distance_nonincreasing_goal_only():
    params = MotionParams(lam=0.3, beta=0.0, gamma=0.0, dt=0.1)
    target = np.array([[4.0, 3.0]])
    x = np.zeros((1, 2))
    v = np.zeros((1, 2))
    prev = np.linalg.norm(target - x)
    for _ in range(300):
        x, v = update_motion(x, v, target, np.ones((1, 1)), np.zeros((1, 2)), params)
        d = np.linalg.norm(target - x)
        if prev > params.dt * params.lam:
            assert d <= prev + 1e-12
        prev = d
    assert prev < 0.1


def test_measure_target_statistics():
    rng = np.random.default_rng(1)
    n = 20000
    w = np.tile([10.0, 10.0], (n, 1))
    x = np.zeros((n, 2))
    prev_u = np.tile([1.0, 0.0], (n, 1))
    # no bearing noise: u is the exact unit direction, var(d) = kappa dist^2
    dist = np.linalg.norm(w[0] - x[0])
    samples, u = measure_target(x, prev_u, w, 0.01, 0.0, rng)
    assert np.allclose(u, (w - x) / dist)
    assert abs(samples.mean() - (w[0] - x[0]) @ w[0] / dist) < 0.05
    assert abs(samples.var() - 0.01 * dist ** 2) < 0.1
    # on top of the target: noiseless, previous direction reused
    d, u = measure_target(w[:2], np.array([[0.0, 1.0], [1.0, 0.0]]), w[:2],
                          0.01, 0.1, rng)
    assert np.allclose(u, [[0.0, 1.0], [1.0, 0.0]])
    assert d == pytest.approx((u * w[:2]).sum(axis=1))


def test_measure_target_draw_order():
    # N bearing normals, then N range normals, whether or not an agent sits
    # on its target
    x = np.array([[0.0, 0.0], [3.0, 4.0]])
    w = np.array([[3.0, 4.0], [3.0, 4.0]])
    d, u = measure_target(x, np.tile([1.0, 0.0], (2, 1)), w, 0.04, 0.1,
                          np.random.default_rng(5))
    bearing, rng_noise = np.random.default_rng(5).standard_normal((2, 2))
    theta = np.arctan2(4.0, 3.0) + 0.1 * bearing[0]
    assert np.allclose(u, [[np.cos(theta), np.sin(theta)], [1.0, 0.0]])
    assert d[0] == pytest.approx(u[0] @ w[0] + 0.2 * 5.0 * rng_noise[0])
    assert d[1] == pytest.approx(u[1] @ w[1])


def test_measure_target_bearing_noise_unit_norm():
    rng = np.random.default_rng(2)
    x = rng.uniform(-5, 5, (100, 2))
    w = rng.uniform(-5, 5, (100, 2))
    _, u = measure_target(x, np.tile([1.0, 0.0], (100, 1)), w, 0.01, 0.05, rng)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0)


def test_radius_adjacency():
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
    adj = radius_adjacency(pairwise_offsets(pos)[1], 2.0)
    assert adj.diagonal().all()
    assert np.array_equal(adj, adj.T)
    assert adj[0, 1] and not adj[0, 2]
