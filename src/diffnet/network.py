"""Topologies, combination matrices, and the two-model data environment."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

STOCHASTIC_TOL = 1e-12        # column sums of a left-stochastic matrix
TOPOLOGY_ATTEMPTS = 200       # random graphs generate_topology draws before giving up


class TopologyError(ValueError):
    """Raised when a requested topology cannot be built or is invalid."""


class PrimitivityError(ValueError):
    """Raised when a combination matrix is not primitive (strong-connectivity
    plus self-loop requirement violated)."""


@dataclass(frozen=True)
class ModelPair:
    """The two unknown column vectors of the estimation problem."""

    w0: np.ndarray
    w1: np.ndarray

    def __post_init__(self):
        w0 = np.asarray(self.w0, dtype=float).reshape(-1)
        w1 = np.asarray(self.w1, dtype=float).reshape(-1)
        if w0.size < 1 or w0.size != w1.size:
            raise ValueError("models must be same-length vectors of length >= 1")
        if not (np.isfinite(w0).all() and np.isfinite(w1).all()):
            raise ValueError("model entries must be finite")
        if np.array_equal(w0, w1):
            raise ValueError("the two models must differ")
        object.__setattr__(self, "w0", w0)
        object.__setattr__(self, "w1", w1)

    def stacked(self) -> np.ndarray:
        """(2, M) array indexed by model id."""
        return np.stack([self.w0, self.w1])

    def observed(self, f: np.ndarray) -> np.ndarray:
        """Per-agent observed model vectors, (N, M), from a 0/1 assignment."""
        f = check_assignment(f)
        return self.stacked()[f]


def check_assignment(f) -> np.ndarray:
    f = np.asarray(f).reshape(-1)
    if not ((f == 0) | (f == 1)).all():   # before the cast, which truncates 1.7 to 1
        raise ValueError("assignment entries must be 0 or 1")
    return np.asarray(f, dtype=int)


@dataclass(frozen=True)
class Topology:
    """Undirected neighborhood structure with mandatory self-loops.

    adjacency[l, k] is True iff l is a neighbor of k (always True on the
    diagonal).  The graph must be connected.
    """

    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.array(self.adjacency, dtype=bool)     # a copy: the caller's stays writable
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise TopologyError("adjacency must be square")
        if not np.array_equal(adj, adj.T):
            raise TopologyError("neighborhoods must be symmetric")
        if not adj.diagonal().all():
            raise TopologyError("every neighborhood must contain the node itself")
        if not reachable(adj, np.arange(adj.shape[0]) == 0).all():
            raise TopologyError("topology must be connected")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def N(self) -> int:
        return self.adjacency.shape[0]


def reachable(support: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Mask of the nodes reachable from the `start` mask along the edges of
    `support` (l -> k when support[l, k]), the start nodes included."""
    reached = np.asarray(start, dtype=bool)
    while True:
        grown = reached | (reached @ support)
        if (grown == reached).all():
            return reached
        reached = grown


def generate_topology(N: int, mean_degree: float, rng: np.random.Generator) -> Topology:
    """Random connected topology with self-loops (Erdos-Renyi with retries).

    mean_degree counts the node itself, matching |N_k|.
    """
    if N < 2:
        raise TopologyError("need at least two agents")
    if not mean_degree >= 2:     # NaN fails the comparison, so it is refused as well
        raise TopologyError("mean_degree must be >= 2")
    p = min(1.0, (mean_degree - 1.0) / (N - 1.0))
    for _ in range(TOPOLOGY_ATTEMPTS):
        upper = rng.random((N, N)) < p
        adj = np.triu(upper, k=1)
        adj = adj | adj.T
        np.fill_diagonal(adj, True)
        if reachable(adj, np.arange(N) == 0).all():
            return Topology(adj)
    raise TopologyError(
        f"could not generate a connected topology with N={N}, "
        f"mean_degree={mean_degree} after {TOPOLOGY_ATTEMPTS} attempts"
    )


def complete_topology(N: int) -> Topology:
    return Topology(np.ones((N, N), dtype=bool))


def uniform_weights(adj: np.ndarray) -> np.ndarray:
    """Left-stochastic combination matrix with a_{l,k} = 1/n_k on the edges
    of the adjacency `adj` (self-loops included; it need not be connected)."""
    return adj / adj.sum(axis=0, keepdims=True)


def link_mask(adj: np.ndarray) -> np.ndarray:
    """The adjacency `adj` without its self-loops: l -> k for l != k."""
    return adj & ~np.eye(len(adj), dtype=bool)


def is_left_stochastic(A: np.ndarray, topology: Topology) -> bool:
    A = np.asarray(A, dtype=float)
    if (A < 0).any():
        return False
    if np.abs(A.sum(axis=0) - 1.0).max() > STOCHASTIC_TOL:
        return False
    return not (A[~topology.adjacency] != 0).any()


def is_primitive(A: np.ndarray) -> bool:
    """True iff some power of A is entrywise positive.

    By Wielandt's bound a primitive n x n matrix already has a positive power
    (n-1)^2 + 1, and every higher power stays positive; so square the boolean
    support until the exponent reaches the bound.
    """
    support = np.asarray(A) > 0
    power, bound = 1, (support.shape[0] - 1) ** 2 + 1
    while power < bound:
        support = support @ support
        power *= 2
    return bool(support.all())


def perron_vector(A: np.ndarray) -> np.ndarray:
    """Right eigenvector c of a primitive left-stochastic A with Ac = c,
    entries positive and summing to one: (A - I)c = 0 with its last
    equation, redundant as A's columns sum to 1, replaced by 1^T c = 1 (the
    others have rank n - 1, as the eigenvalue 1 of a primitive A is simple)."""
    A = np.asarray(A, dtype=float)
    if not is_primitive(A):
        raise PrimitivityError("combination matrix is not primitive")
    system = A - np.eye(len(A))
    system[-1] = 1.0
    return np.linalg.solve(system, np.eye(len(A))[-1])


@dataclass(frozen=True)
class AgentEnvironment:
    """The data model: the regressor variances ru, so that the regressor
    covariance Ru = diag(ru) is shared across agents (homogeneous-agents
    assumption), and per-agent noise variances."""

    ru: np.ndarray
    sigma_v2: np.ndarray

    def __post_init__(self):
        ru = np.asarray(self.ru, dtype=float)
        if not (ru.ndim == 1 and ru.size and ((ru > 0) & (ru < np.inf)).all()):
            raise ValueError("ru must be a non-empty vector of positive finite variances")
        sigma_v2 = np.atleast_1d(np.asarray(self.sigma_v2, dtype=float))
        if not (sigma_v2 >= 0).all():
            raise ValueError("sigma_v2 must hold nonnegative noise variances")
        object.__setattr__(self, "ru", ru)
        object.__setattr__(self, "sigma_v2", sigma_v2)

    @property
    def M(self) -> int:
        return self.ru.size

    @cached_property
    def ru_sd(self) -> np.ndarray:
        return np.sqrt(self.ru)

    @cached_property
    def sigma_v(self) -> np.ndarray:
        return np.sqrt(self.sigma_v2)


def sample_data(z: np.ndarray, env: AgentEnvironment, normals: np.ndarray):
    """(d, u) of n iterations from the linear regression model
    d_k = u_k z_k + v_k, for the (N, M) observed models z.  Each row of the
    standard normals (n, N(M + 1)) is one iteration's draw: the regressors
    (N, M) first, agent-major, each scaled by the standard deviations ru_sd,
    then the noise v (N).  Returns d (n, N) and u component-major, (n, M, N)
    and C-contiguous: u[i, :, k] is agent k's regressor, and each sum over M
    adds M rows of length N."""
    n, (N, M) = len(normals), z.shape
    u = np.multiply(normals[:, :N * M].reshape(n, N, M).transpose(0, 2, 1),
                    env.ru_sd[:, None], order="C")
    return np.add.reduce(u * z.T, 1) + env.sigma_v * normals[:, N * M:], u


def bias_limit(c: np.ndarray, models: ModelPair, f) -> np.ndarray:
    """Limit point of conventional diffusion under mixed models:
    the Perron-weighted convex combination of the observed models."""
    return c @ models.observed(f)
