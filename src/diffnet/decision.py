"""Quorum-response decision updates in each agent's local model frame."""
from __future__ import annotations

import math

import numpy as np

from .network import check_assignment


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def quorum_prob(n_g, n_k, K: int, beta: float = 1.0):
    """Probability of keeping the current desired model:
    (beta n_g)^K / ((beta n_g)^K + (n_k - n_g)^K), computed as
    1 / (1 + ((n_k - n_g) / (beta n_g))^K) where the powers overflow or
    both vanish."""
    if not K >= 1:                # NaN fails the comparison, so it is refused as well
        raise ValueError("K must be at least 1")
    n_g = np.asarray(n_g, dtype=float)
    n_k = np.asarray(n_k, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if not (beta > 0).all():      # NaN fails the comparison, so it is refused as well
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


def quorum_table(N: int, K: int, beta) -> np.ndarray:
    """quorum_prob at [model b, n_k, n_g], counts 0..N; beta one value or a pair."""
    counts = np.arange(N + 1.0)
    return quorum_prob(counts, counts[:, None], K, np.broadcast_to(beta, 2)[:, None, None])


def keep_probabilities(adjacency: np.ndarray, g_local: np.ndarray, f_rel: np.ndarray,
                       table: np.ndarray, n_k: np.ndarray, plane) -> np.ndarray:
    """Agent k's probability of keeping its desire, table[plane[k], n_k[k],
    n_g[k]], with n_g[k] the neighbours (k included) whose desire agrees.
    g_local may stack desires on leading axes, (..., N): one row each."""
    # k's translation of g(l) equals g(k) iff "g(l) differs from g(k)" is the
    # opposite of f_rel[k, l] (0/1 entries)
    agree = ((g_local[..., None, :] ^ g_local[..., :, None]) != f_rel) & adjacency
    return table[plane, n_k, np.add.reduce(agree, axis=-1)]


def decision_sweep(g_local: np.ndarray, q: np.ndarray, uniforms: np.ndarray):
    """One synchronous quorum-response sweep: agent k keeps its desire when
    its uniform draw uniforms[k] falls below q[k]."""
    return np.where(uniforms < q, g_local, 1 - g_local)

