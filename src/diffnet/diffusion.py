"""The divergence guard, the two-matrix split of the modified combination,
and the mean-error linear system used for stability/bias analysis."""
from __future__ import annotations

import math

import numpy as np

from .network import AgentEnvironment, ModelPair, check_assignment

# Abort a simulation when any agent estimate norm exceeds this.
DIVERGENCE_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """An estimate blew past the divergence guard (misconfigured step-size)."""


def check_divergence(w: np.ndarray, iteration: int) -> None:
    """Raise DivergenceError, naming the first agent whose estimate norm is
    over DIVERGENCE_LIMIT (or NaN), that norm and the iteration.  w is one
    iteration's (N, M) estimates or a stack (n, N, M) of consecutive ones,
    the first at `iteration`; the first offending iteration is named.  The
    squared total bounds every row, so the rows are tested one by one only
    when the total is over the limit; NaN and inf fail both tests."""
    flat = w.ravel("K")     # memory order: no copy of a transposed w
    if not flat @ flat <= DIVERGENCE_LIMIT ** 2:
        stack = w.reshape(-1, *w.shape[-2:])
        over = np.argwhere(~(np.add.reduce(stack * stack, 2) <= DIVERGENCE_LIMIT ** 2))
        if over.size:
            t, k = over[0]
            norm = math.hypot(*stack[t, k])
            raise DivergenceError(f"agent {k} estimate norm {norm!r} exceeded "
                                  f"{DIVERGENCE_LIMIT:g} at iteration {iteration + t}")


def split_matrices(A: np.ndarray, f_hat: np.ndarray, g: np.ndarray):
    """Whole-network split: A1[l, k] = A[l, k] iff f_hat[k, l] == g[k].

    f_hat is indexed [observer k, neighbor l]; A is indexed [l, k].
    """
    match = (np.asarray(f_hat) == np.asarray(g)[:, None]).T
    A1 = np.where(match, A, 0.0)
    return A1, A - A1


def build_mean_error_system(env: AgentEnvironment, mu, models: ModelPair, f,
                            q: int, A1: np.ndarray,
                            A2: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(B, y) of the NM x NM mean-error recursion E w~_i = B E w~_{i-1} + y
    of the modified strategy,

        B = A1^T (I - M R) + A2^T,  y = A1^T M R z~,

    with M = diag(mu_k) from the step size mu (one value or one per agent)
    and z~_k = w_q - z_k stacked into an NM vector.  Conventional diffusion
    is the case A1 = A with no A2.
    """
    f = check_assignment(f)
    N = f.size
    M = env.M
    eye = np.eye(M)
    mu = np.broadcast_to(mu, (N,))
    MR = np.diag(np.kron(mu, env.ru))      # blockdiag(mu_k Ru)
    ztilde = (models.stacked()[q][None, :] - models.observed(f)).reshape(-1)
    A1cal_T = np.kron(A1, eye).T
    B = A1cal_T @ (np.eye(N * M) - MR)
    if A2 is not None:
        B += np.kron(A2, eye).T
    return B, A1cal_T @ (MR @ ztilde)


def check_stepsize_stability(mu: float, ru: np.ndarray) -> bool:
    """Sufficient mean-stability condition 0 < mu < 2 / rho(Ru), where
    rho(Ru) is the largest regressor variance of Ru = diag(ru)."""
    return 0.0 < mu < 2.0 / float(np.max(ru))


def spectral_radius(B: np.ndarray) -> float:
    """Largest eigenvalue modulus of B, from the dense eigensolver."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(B, dtype=float)))))


def convergence_rate(B: np.ndarray) -> float:
    """Mean-square convergence rate r = rho(B)^2.  r >= 1 means unstable."""
    return spectral_radius(B) ** 2


def rate_lower_bound(mu: float, ru: np.ndarray) -> float:
    """Fastest achievable rate (1 - mu lambda_min(Ru))^2, where
    lambda_min(Ru) is the smallest regressor variance of Ru = diag(ru)."""
    return (1.0 - mu * float(np.min(ru))) ** 2
