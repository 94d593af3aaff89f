"""Neighbor-model classification: smoothed update directions, far-field
detection, belief dynamics, and the detection/false-alarm error bounds."""
from __future__ import annotations

import math
import warnings

import numpy as np

from .network import AgentEnvironment, ModelPair

E1 = "E1"
E1C = "E1c"
NO_UPDATE = "no_update"

# mu should be well below nu for the direction estimate to track; warn past this.
STEPSIZE_RATIO_WARN = 5.0


def check_stepsize_separation(mu: float, nu: float) -> bool:
    """True when mu << nu << 1 holds at the working threshold mu < nu/5."""
    ok = 0.0 < mu < nu / STEPSIZE_RATIO_WARN and nu < 1.0
    if not ok:
        warnings.warn(
            f"step-size separation violated: mu={mu}, nu={nu} "
            f"(want mu < nu/{STEPSIZE_RATIO_WARN:g} and nu < 1)",
            stacklevel=2,
        )
    return ok


def update_direction(h_hat_prev, psi, w_prev, mu: float, nu: float):
    """First-order smoothing of the normalized update (psi - w_prev)/mu."""
    return (1.0 - nu) * np.asarray(h_hat_prev) + nu * (np.asarray(psi) - np.asarray(w_prev)) / mu


def classify_event(h_hat_k, h_hat_l, eta: float) -> str:
    """E1 / E1c when both directions clear the far-field threshold, split by
    the sign of their inner product; no_update otherwise."""
    h_hat_k = np.asarray(h_hat_k, dtype=float)
    h_hat_l = np.asarray(h_hat_l, dtype=float)
    if np.linalg.norm(h_hat_k) <= eta or np.linalg.norm(h_hat_l) <= eta:
        return NO_UPDATE
    return E1 if float(h_hat_k @ h_hat_l) > 0.0 else E1C


def update_belief(b_prev: float, event: str, alpha: float) -> float:
    if event == E1:
        return alpha * b_prev + (1.0 - alpha)
    if event == E1C:
        return alpha * b_prev
    if event == NO_UPDATE:
        return b_prev
    raise ValueError(f"unknown event {event!r}")


def f_hat(b: float):
    """Same-model decision from a belief value; the 0.5 boundary maps to 1."""
    return (np.asarray(b) >= 0.5).astype(int) if np.ndim(b) else int(b >= 0.5)


def belief_horizon(alpha: float, cutoff: float = 1e-3) -> int:
    """Smallest C with alpha^(C+1) < cutoff (initial condition negligible)."""
    c = max(1, math.ceil(math.log(cutoff) / math.log(alpha) - 1.0))
    while alpha ** (c + 1) >= cutoff:
        c += 1
    return c


def estimate_tau(env: AgentEnvironment, models: ModelPair, sample_count: int,
                 rng: np.random.Generator) -> float:
    """Monte Carlo bound estimate for the fourth-moment randomness ratio
    E||u^T u e - Ru e||^2 / ||Ru e||^2, maximized over probe directions
    (model difference plus the eigenvectors of Ru)."""
    if sample_count < 10_000:
        raise ValueError("sample_count must be at least 1e4")
    probes = [models.w0 - models.w1]
    probes.extend(np.linalg.eigh(env.Ru)[1].T)
    u = rng.standard_normal((sample_count, env.M)) @ env.ru_chol.T
    tau = 0.0
    for e in probes:
        e = e / np.linalg.norm(e)
        ref = env.Ru @ e
        samples = u * (u @ e)[:, None] - ref
        tau = max(tau, float((samples ** 2).sum(axis=1).mean() / (ref @ ref)))
    return tau


def pd_pf_bounds(nu: float, tau_hat: float):
    """Lower detection / upper false-alarm probability bounds (they sum to 1)."""
    x = 16.0 * nu * tau_hat / math.pi ** 2
    return 1.0 - x, x


def error_bound_Pu(alpha: float, nu: float, tau_hat: float) -> float:
    """Upper bound on the misclassification probabilities P_{e,1}, P_{e,0}."""
    x = pd_pf_bounds(nu, tau_hat)[1]
    if x >= 0.5:
        raise ValueError(
            f"16*nu*tau/pi^2 = {x:.4f} >= 0.5: the bound is undefined here"
        )
    return markov_tail_bound(x, alpha)


def belief_error_oracle(p: float, alpha: float, C: int, trials: int,
                        rng: np.random.Generator):
    """Empirical tails of the random geometric series
    zeta = (1-alpha) sum_j alpha^j xi_j with i.i.d. Bernoulli(p) terms.

    Returns (Pr(zeta < 0.5), Pr(zeta > 0.5)); the independent oracle for the
    Markov-inequality belief-error bounds.
    """
    if trials < 10_000:
        raise ValueError("trials must be at least 1e4")
    weights = (1.0 - alpha) * alpha ** np.arange(C + 1)
    xi = rng.random((trials, C + 1)) < p
    zeta = xi @ weights
    return float((zeta < 0.5).mean()), float((zeta > 0.5).mean())


def markov_tail_bound(p: float, alpha: float) -> float:
    """Markov-inequality bound on the belief landing on the wrong side of 0.5
    (valid for p != 0.5)."""
    return (1.0 - alpha) / (1.0 + alpha) * p * (1.0 - p) / (p - 0.5) ** 2


def direction_pair_benchmark(z_k, z_l, w, env: AgentEnvironment, nu: float,
                             eta: float, trials: int, rng: np.random.Generator,
                             steps: int | None = None) -> dict:
    """Controlled far/near-field benchmark for a pair of agents.

    Both agents hold the same frozen estimate w while their smoothed update
    directions run to steady state; returns empirical far-field rates and
    event frequencies over independent trials.
    """
    z_k = np.asarray(z_k, dtype=float)
    z_l = np.asarray(z_l, dtype=float)
    w = np.asarray(w, dtype=float)
    if steps is None:
        steps = math.ceil(8.0 / nu)
    chol = env.ru_chol.T
    sig = np.sqrt(env.sigma_v2[:2].mean() if env.sigma_v2.size > 1 else env.sigma_v2[0])

    h = [np.zeros((trials, env.M)), np.zeros((trials, env.M))]
    for _ in range(steps):
        for idx, z in enumerate((z_k, z_l)):
            u = rng.standard_normal((trials, env.M)) @ chol
            resid = u @ (z - w) + sig * rng.standard_normal(trials)
            h[idx] = (1.0 - nu) * h[idx] + nu * u * resid[:, None]

    far_k = (h[0] ** 2).sum(axis=1) > eta ** 2
    far_l = (h[1] ** 2).sum(axis=1) > eta ** 2
    inner = (h[0] * h[1]).sum(axis=1)
    both = far_k & far_l
    return {
        "p_far_k": float(far_k.mean()),
        "p_far_l": float(far_l.mean()),
        "p_e1": float((both & (inner > 0)).mean()),
        "p_e1c": float((both & (inner <= 0)).mean()),
    }
