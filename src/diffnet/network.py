"""Topologies, combination matrices, and the two-model data environment."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Perron vector is computed by power iteration to this tolerance.
PERRON_TOL = 1e-12
PERRON_MAX_ITERS = 100_000


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
        if np.array_equal(w0, w1):
            raise ValueError("the two models must differ")
        object.__setattr__(self, "w0", w0)
        object.__setattr__(self, "w1", w1)

    @property
    def M(self) -> int:
        return self.w0.size

    def stacked(self) -> np.ndarray:
        """(2, M) array indexed by model id."""
        return np.stack([self.w0, self.w1])

    def observed(self, f: np.ndarray) -> np.ndarray:
        """Per-agent observed model vectors, (N, M), from a 0/1 assignment."""
        f = check_assignment(f)
        return self.stacked()[f]


def check_assignment(f) -> np.ndarray:
    f = np.asarray(f, dtype=int).reshape(-1)
    if not np.isin(f, [0, 1]).all():
        raise ValueError("assignment entries must be 0 or 1")
    return f


@dataclass(frozen=True)
class Topology:
    """Undirected neighborhood structure with mandatory self-loops.

    adjacency[l, k] is True iff l is a neighbor of k (always True on the
    diagonal).  The graph must be connected.
    """

    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise TopologyError("adjacency must be square")
        if not np.array_equal(adj, adj.T):
            raise TopologyError("neighborhoods must be symmetric")
        if not adj.diagonal().all():
            raise TopologyError("every neighborhood must contain the node itself")
        if not _connected(adj):
            raise TopologyError("topology must be connected")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def N(self) -> int:
        return self.adjacency.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        """Neighborhood sizes n_k (self included)."""
        return self.adjacency.sum(axis=0)

    def neighbors(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.adjacency[:, k])

    def to_json(self) -> str:
        return json.dumps(
            {"N": int(self.N),
             "neighbors": [self.neighbors(k).tolist() for k in range(self.N)]}
        )

    @classmethod
    def from_json(cls, text: str) -> "Topology":
        doc = json.loads(text)
        n = int(doc["N"])
        adj = np.zeros((n, n), dtype=bool)
        for k, neigh in enumerate(doc["neighbors"]):
            adj[neigh, k] = True
        return cls(adj)


def _connected(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        k = stack.pop()
        for l in np.flatnonzero(adj[:, k]):
            if not seen[l]:
                seen[l] = True
                stack.append(l)
    return bool(seen.all())


def generate_topology(N: int, mean_degree: float, rng: np.random.Generator,
                      max_retries: int = 200) -> Topology:
    """Random connected topology with self-loops (Erdos-Renyi with retries).

    mean_degree counts the node itself, matching |N_k|.
    """
    if N < 2:
        raise TopologyError("need at least two agents")
    if mean_degree < 2:
        raise TopologyError("mean_degree must be >= 2")
    p = min(1.0, (mean_degree - 1.0) / (N - 1.0))
    for _ in range(max_retries):
        upper = rng.random((N, N)) < p
        adj = np.triu(upper, k=1)
        adj = adj | adj.T
        np.fill_diagonal(adj, True)
        if _connected(adj):
            return Topology(adj)
    raise TopologyError(
        f"could not generate a connected topology with N={N}, "
        f"mean_degree={mean_degree} after {max_retries} attempts"
    )


def complete_topology(N: int) -> Topology:
    return Topology(np.ones((N, N), dtype=bool))


def uniform_weights(topology: Topology) -> np.ndarray:
    """Left-stochastic combination matrix with a_{l,k} = 1/n_k on edges."""
    adj = topology.adjacency
    return adj / adj.sum(axis=0, keepdims=True)


def three_node_matrix(a: float, b: float, c: float, d: float) -> np.ndarray:
    """Three-node chain 1-2-3 combination matrix with free weights.

    Node 3 has no link to node 1, which is what makes the conventional bias
    term at node 3 irreducible.  Requires a, b, c, d in [0, 1] and b+c <= 1.
    """
    for name, val in (("a", a), ("b", b), ("c", c), ("d", d)):
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if b + c > 1.0:
        raise ValueError("b + c must not exceed 1")
    return np.array([
        [a, b, 0.0],
        [1.0 - a, 1.0 - b - c, d],
        [0.0, c, 1.0 - d],
    ])


def is_left_stochastic(A: np.ndarray, topology: Topology | None = None,
                       tol: float = 1e-12) -> bool:
    A = np.asarray(A, dtype=float)
    if (A < 0).any():
        return False
    if np.abs(A.sum(axis=0) - 1.0).max() > tol:
        return False
    if topology is not None and (A[~topology.adjacency] != 0).any():
        return False
    return True


def is_primitive(A: np.ndarray) -> bool:
    """True iff some power of A is entrywise positive.

    Equivalent graph test: the support of A is strongly connected and
    aperiodic (gcd of cycle lengths equals one).
    """
    A = np.asarray(A)
    n = A.shape[0]
    support = A > 0
    # strong connectivity in both edge directions
    if not (_connected(support) and _connected(support.T)):
        return False
    # period via BFS levels: gcd over edges of level[u] + 1 - level[v]
    level = np.full(n, -1)
    level[0] = 0
    queue = [0]
    while queue:
        k = queue.pop(0)
        for l in np.flatnonzero(support[k]):
            if level[l] < 0:
                level[l] = level[k] + 1
                queue.append(l)
    g = 0
    for k in range(n):
        for l in np.flatnonzero(support[k]):
            g = np.gcd(g, level[k] + 1 - level[l])
            if g == 1:
                return True
    return g == 1


def perron_vector(A: np.ndarray, tol: float = PERRON_TOL,
                  max_iters: int = PERRON_MAX_ITERS) -> np.ndarray:
    """Right eigenvector c of a primitive left-stochastic A with Ac = c,
    entries positive and summing to one.  Power iteration."""
    A = np.asarray(A, dtype=float)
    if not is_primitive(A):
        raise PrimitivityError("combination matrix is not primitive")
    n = A.shape[0]
    c = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        nxt = A @ c
        nxt /= nxt.sum()
        if np.abs(nxt - c).max() < tol:
            return nxt
        c = nxt
    raise RuntimeError("power iteration did not converge")


@dataclass(frozen=True)
class AgentEnvironment:
    """Per-agent data-generation parameters.

    Ru is shared across agents (homogeneous-agents assumption); step-sizes
    and noise variances may vary per agent.
    """

    Ru: np.ndarray
    sigma_v2: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        Ru = np.atleast_2d(np.asarray(self.Ru, dtype=float))
        if not np.allclose(Ru, Ru.T):
            raise ValueError("Ru must be symmetric")
        if np.linalg.eigvalsh(Ru).min() <= 0:
            raise ValueError("Ru must be positive definite")
        sigma_v2 = np.atleast_1d(np.asarray(self.sigma_v2, dtype=float))
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if (sigma_v2 < 0).any():
            raise ValueError("noise variances must be nonnegative")
        if (mu <= 0).any():
            raise ValueError("step-sizes must be positive")
        object.__setattr__(self, "Ru", Ru)
        object.__setattr__(self, "sigma_v2", sigma_v2)
        object.__setattr__(self, "mu", mu)

    @property
    def M(self) -> int:
        return self.Ru.shape[0]

    @property
    def ru_chol(self) -> np.ndarray:
        return np.linalg.cholesky(self.Ru)


def sample_data(k: int, z: np.ndarray, env: AgentEnvironment,
                rng: np.random.Generator):
    """One (d, u) draw from the linear regression model d = u z + v."""
    u = rng.standard_normal(env.M) @ env.ru_chol.T
    sig2 = env.sigma_v2[k % env.sigma_v2.size]
    v = np.sqrt(sig2) * rng.standard_normal()
    return float(u @ z) + v, u


def bias_limit(c: np.ndarray, models: ModelPair, f) -> np.ndarray:
    """Limit point of conventional diffusion under mixed models:
    the Perron-weighted convex combination of the observed models."""
    f = check_assignment(f)
    z = models.observed(f)
    return c @ z


def matrix_to_json(A: np.ndarray) -> str:
    return json.dumps({"rows": np.asarray(A, dtype=float).tolist()})


def matrix_from_json(text: str) -> np.ndarray:
    return np.array(json.loads(text)["rows"], dtype=float)
