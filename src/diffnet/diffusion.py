"""ATC diffusion steps, the two-matrix modified combination, and the
mean-error linear system used for stability/bias analysis."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import AgentEnvironment, ModelPair, check_assignment

# Abort a simulation when any agent estimate norm exceeds this.
DIVERGENCE_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """An estimate blew past the divergence guard (misconfigured step-size)."""


def atc_adapt(w: np.ndarray, d: float, u: np.ndarray, mu: float) -> np.ndarray:
    """Adaptation step: psi = w + mu u^T (d - u w)."""
    return w + mu * u * (d - u @ w)


def atc_combine(psis: np.ndarray, a_col: np.ndarray) -> np.ndarray:
    """Combination step: convex mix of neighbor intermediates."""
    return np.asarray(a_col) @ np.asarray(psis)


def split_weights(a_col: np.ndarray, f_hat_k: np.ndarray, g_k: int):
    """Split agent k's combination column into reinforce/de-emphasize parts.

    Neighbors whose (estimated) observed model matches k's desired model keep
    their weight in the first column; the rest move to the second.  The two
    columns sum back to a_col entrywise with disjoint support.
    """
    a_col = np.asarray(a_col, dtype=float)
    match = np.asarray(f_hat_k) == g_k
    a1 = np.where(match, a_col, 0.0)
    return a1, a_col - a1


def modified_combine(psis, w_prevs, a1_col, a2_col) -> np.ndarray:
    """Combination mixing intermediates (reinforced neighbors) with previous
    estimates (de-emphasized neighbors)."""
    return np.asarray(a1_col) @ np.asarray(psis) + np.asarray(a2_col) @ np.asarray(w_prevs)


def split_matrices(A: np.ndarray, f_hat: np.ndarray, g: np.ndarray):
    """Whole-network split: A1[l, k] = A[l, k] iff f_hat[k, l] == g[k].

    f_hat is indexed [observer k, neighbor l]; A is indexed [l, k].
    """
    match = (np.asarray(f_hat) == np.asarray(g)[:, None]).T
    A1 = np.where(match, A, 0.0)
    return A1, A - A1


@dataclass(frozen=True)
class MeanErrorSystem:
    """Mean recursion E w~_i = B E w~_{i-1} + y."""

    B: np.ndarray
    y: np.ndarray


def build_mean_error_system(env: AgentEnvironment, models: ModelPair, f, q: int,
                            A1: np.ndarray,
                            A2: np.ndarray | None = None) -> MeanErrorSystem:
    """Assemble the NM x NM mean-error system of the modified strategy,

        B = A1^T (I - M R) + A2^T,  y = A1^T M R z~,

    with z~_k = w_q - z_k stacked into an NM vector.  Conventional diffusion
    is the case A1 = A with no A2.
    """
    f = check_assignment(f)
    N = f.size
    M = env.M
    eye = np.eye(M)
    mu = np.broadcast_to(env.mu, (N,))
    MR = np.kron(np.diag(mu), env.Ru)      # blockdiag(mu_k Ru)
    ztilde = (models.stacked()[q][None, :] - models.observed(f)).reshape(-1)
    A1cal_T = np.kron(A1, eye).T
    B = A1cal_T @ (np.eye(N * M) - MR)
    if A2 is not None:
        B += np.kron(A2, eye).T
    return MeanErrorSystem(B=B, y=A1cal_T @ (MR @ ztilde))


def check_stepsize_stability(mu: float, Ru: np.ndarray) -> bool:
    """Sufficient mean-stability condition 0 < mu < 2 / rho(Ru)."""
    rho = float(np.max(np.abs(np.linalg.eigvalsh(np.atleast_2d(Ru)))))
    return 0.0 < mu < 2.0 / rho


def spectral_radius(B: np.ndarray) -> float:
    """Largest eigenvalue modulus of B, from the dense eigensolver."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(B, dtype=float)))))


def convergence_rate(B: np.ndarray) -> float:
    """Mean-square convergence rate r = rho(B)^2.  r >= 1 means unstable."""
    return spectral_radius(B) ** 2


def rate_lower_bound(mu: float, Ru: np.ndarray) -> float:
    """Fastest achievable rate (1 - mu lambda_min(Ru))^2."""
    lmin = float(np.linalg.eigvalsh(np.atleast_2d(Ru)).min())
    return (1.0 - mu * lmin) ** 2
