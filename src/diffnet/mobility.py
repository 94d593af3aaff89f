"""Fish-schooling motion model with noisy range/bearing target measurements."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class MotionParams:
    dt: float = 0.1
    lam: float = 0.3       # pull toward the estimated target
    beta: float = 0.7      # alignment with neighbor velocities
    gamma: float = 1.0     # cohesion/repulsion gain
    d_s: float = 3.0       # preferred inter-agent spacing
    kappa: float = 0.01    # range-noise variance per squared distance
    sigma_angle: float = 0.05  # bearing noise (radians, std dev)

    def __post_init__(self):
        # NaN fails every comparison, so it is refused as well
        for name in ("dt", "d_s", "kappa"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("lam", "beta", "gamma", "sigma_angle"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")
        for f in fields(self):   # numpy takes a float of any size, not an int past int64
            object.__setattr__(self, f.name, float(getattr(self, f.name)))


def pairwise_offsets(positions: np.ndarray):
    """Offsets diff[l, k, :] = x_l - x_k, (N, N, 2), and their norms dist,
    (N, N): the one distance table a school step shares between
    radius_adjacency and cohesion_all."""
    positions = np.asarray(positions, dtype=float)
    diff = positions[:, None, :] - positions[None, :, :]
    return diff, np.linalg.norm(diff, axis=2)


def cohesion_all(diff: np.ndarray, dist: np.ndarray, links: np.ndarray,
                 d_s: float) -> np.ndarray:
    """Vectorized spacing terms for every agent, (N, 2), from the
    pairwise_offsets table of the positions, over the link mask `links`
    (the adjacency without its self-loops)."""
    weight = np.where(links & (dist > 0), (dist - d_s) / np.where(dist > 0, dist, 1.0), 0.0)
    total = np.einsum("lk,lkm->km", weight, diff)
    counts = np.maximum(links.sum(axis=0), 1)
    return total / counts[:, None]


def update_motion(x: np.ndarray, v: np.ndarray, w_est: np.ndarray,
                  A: np.ndarray, delta: np.ndarray, params: MotionParams):
    """One motion step of every agent; returns (x_next, v_next), each (N, 2).

    Each velocity mixes a unit pull toward the agent's estimate (zero if it
    sits exactly on it), its neighbors' velocities weighted by the columns of
    the combination matrix A, and the spacing terms delta.
    """
    goal = w_est - x
    nrm = np.linalg.norm(goal, axis=1, keepdims=True)
    goal = np.where(nrm > 0, goal / np.where(nrm > 0, nrm, 1.0), 0.0)
    v_next = params.lam * goal + params.beta * (A.T @ v) + params.gamma * delta
    return x + params.dt * v_next, v_next


def measure_target(x: np.ndarray, prev_u: np.ndarray, w_true: np.ndarray,
                   kappa: float, sigma_angle: float, rng: np.random.Generator):
    """Noisy range/bearing observation of each agent's target, exposed as the
    linear model d_k = u_k w_k + v_k; x, prev_u and w_true are (N, 2).

    The regressor u is the unit direction to the target perturbed by a
    Gaussian bearing error; the range-noise variance scales with the squared
    distance, so it vanishes on top of the target, where the agent keeps its
    previous regressor.  Always draws N bearing normals, then N range
    normals.  Returns (d, u).
    """
    offset = w_true - x
    dist = np.linalg.norm(offset, axis=1)
    ok = dist > 0
    theta = np.where(ok, np.arctan2(offset[:, 1], offset[:, 0]), 0.0)
    theta = theta + sigma_angle * rng.standard_normal(len(x))
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    u = np.where(ok[:, None], u, prev_u)
    noise = np.sqrt(kappa) * dist * rng.standard_normal(len(x))
    return (u * w_true).sum(axis=1) + noise, u


def radius_adjacency(dist: np.ndarray, radius: float) -> np.ndarray:
    """Communication-radius adjacency with self-loops, from the pairwise
    distances (pairwise_offsets)."""
    adj = dist <= radius
    np.fill_diagonal(adj, True)
    return adj
