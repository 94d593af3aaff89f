"""Quorum-response decision updates in each agent's local model frame."""
from __future__ import annotations

import math

import numpy as np

from .network import Topology, check_assignment


def translate_neighbor_g(g_l_self: int, f_hat_k_l: int) -> int:
    """Map neighbor l's own-frame desired model into agent k's frame.

    When k believes l observes the same model (f_hat = 1) the value carries
    over; otherwise the index flips.
    """
    return g_l_self if f_hat_k_l == 1 else 1 - g_l_self


def quorum_set_size(g_neighbors, g_self: int) -> int:
    """Number of neighborhood members (self included in g_neighbors) whose
    desired model matches agent k's."""
    n_g = int(np.sum(np.asarray(g_neighbors) == g_self))
    if n_g < 1:
        raise ValueError("quorum set must include the agent itself")
    return n_g


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def quorum_prob(n_g, n_k, K: int, beta: float = 1.0):
    """Probability of keeping the current desired model:
    (beta n_g)^K / ((beta n_g)^K + (n_k - n_g)^K), computed as
    1 / (1 + ((n_k - n_g) / (beta n_g))^K) where the powers overflow or
    both vanish."""
    n_g = np.asarray(n_g, dtype=float)
    n_k = np.asarray(n_k, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if (beta <= 0).any():
        raise ValueError("beta must be positive")
    stay = (beta * n_g) ** K
    total = stay + (n_k - n_g) ** K
    q = stay / total
    # q * total is nan where total is 0 or inf, so the dot product is not
    # finite whenever some entry needs the ratio form
    if not math.isfinite(np.vdot(q, total)):
        q = np.where((total > 0) & (total < np.inf), q,
                     1.0 / (1.0 + ((n_k - n_g) / (beta * n_g)) ** K))
    return q


def decide(g_self_prev: int, q: float, rng: np.random.Generator) -> int:
    """Keep the previous desired model with probability q, else flip."""
    return g_self_prev if rng.random() < q else 1 - g_self_prev


def oracle_relative_f(f) -> np.ndarray:
    """Ground-truth relative tables: entry [k, l] is 1 iff l observes the
    same model as k (so the diagonal is 1)."""
    f = check_assignment(f)
    return (f[None, :] == f[:, None]).astype(int)


def global_desires(g_local: np.ndarray, f) -> np.ndarray:
    """Project own-frame desired models to the global model index.

    g_local(k) = 1 means agent k desires its own observed model, so the
    global index is f(k); otherwise it is the other model.
    """
    f = check_assignment(f)
    g_local = np.asarray(g_local, dtype=int)
    return np.where(g_local == 1, f, 1 - f)


def local_agreement_predicate(g_local: np.ndarray, f_rel: np.ndarray,
                              adjacency: np.ndarray) -> bool:
    """Agreement check using only local frames: along every edge (k, l) the
    XOR identity g(l) ^ g(k) == g_k(l) ^ g_k(k) must vanish for a connected
    graph to be unanimous."""
    g_local = np.asarray(g_local, dtype=int)
    g_trans = np.where(np.asarray(f_rel) == 1, g_local[None, :], 1 - g_local[None, :])
    diff = (g_trans ^ g_local[:, None]) & np.asarray(adjacency, dtype=bool)
    return not diff.any()


def decision_sweep(adjacency: np.ndarray, g_local: np.ndarray, f_rel: np.ndarray,
                   K: int, rng: np.random.Generator,
                   beta: np.ndarray | float = 1.0) -> np.ndarray:
    """One synchronous quorum-response sweep over all agents."""
    adjacency = np.asarray(adjacency, dtype=bool)
    g_local = np.asarray(g_local, dtype=int)
    # k's translation of g(l) equals g(k) iff "g(l) differs from g(k)" is the
    # opposite of f_rel[k, l] (0/1 entries; same counts as translate_neighbor_g)
    agree = ((g_local[None, :] ^ g_local[:, None]) != np.asarray(f_rel)) & adjacency
    n_g = agree.sum(axis=1)
    n_k = adjacency.sum(axis=1)
    q = quorum_prob(n_g, n_k, K, beta)
    keep = rng.random(g_local.size) < q
    return np.where(keep, g_local, 1 - g_local)


def run_decision_dynamics(topology: Topology, f, K: int,
                          rng: np.random.Generator,
                          g_init: np.ndarray | None = None,
                          max_sweeps: int = 50_000):
    """Iterate quorum sweeps (with oracle neighbor classification) until the
    network is unanimous in the global frame.

    Returns (agreed_model or None, sweeps_used, final local desires).
    """
    f = check_assignment(f)
    f_rel = oracle_relative_f(f)
    adj = topology.adjacency
    g = np.ones(topology.N, dtype=int) if g_init is None else np.asarray(g_init, dtype=int)
    for i in range(max_sweeps + 1):
        glob = global_desires(g, f)
        if (glob == glob[0]).all():
            return int(glob[0]), i, g
        g = decision_sweep(adj, g, f_rel, K, rng)
    return None, max_sweeps, g
