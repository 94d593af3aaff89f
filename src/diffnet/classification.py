"""Neighbor-model classification: same-model decisions from beliefs, the
far/near-field pair benchmark, and the detection/false-alarm and belief
error bounds."""
from __future__ import annotations

import math
import warnings

import numpy as np

from .network import AgentEnvironment

# mu should be well below nu for the direction estimate to track; warn past this.
STEPSIZE_RATIO_WARN = 5.0
# the pair benchmark updates its directions in slices of trials whose M components
# take this many bytes (10,000 trials at M = 4 fit in one slice)
STEP_SLICE_BYTES = 2 ** 19


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


def f_hat(b: np.ndarray) -> np.ndarray:
    """Same-model decisions from belief values; the 0.5 boundary maps to 1."""
    return (np.asarray(b) >= 0.5).astype(int)


def gaussian_tau(ru: np.ndarray) -> float:
    """The fourth-moment randomness ratio tau, the largest over unit vectors e
    of E||u u^T e - Ru e||^2 / ||Ru e||^2, for Gaussian regressors
    u ~ N(0, Ru) with Ru = diag(ru).  Isserlis' theorem gives the numerator as
    tr(Ru) e^T Ru e + ||Ru e||^2, so the ratio is 1 + tr(Ru) e^T Ru e / ||Ru e||^2;
    e^T Ru e / ||Ru e||^2 <= 1 / min(ru), with equality at the unit vector of
    the smallest variance, so tau = 1 + sum(ru) / min(ru) exactly."""
    return float(1.0 + ru.sum() / ru.min())


def pd_pf_bounds(nu: float, tau_hat: float):
    """Lower detection / upper false-alarm probability bounds (they sum to 1),
    1 - 16 nu tau / pi^2 and 16 nu tau / pi^2, at the exact tau of gaussian_tau."""
    x = 16.0 * nu * tau_hat / math.pi ** 2
    return 1.0 - x, x


def error_bound_Pu(alpha: float, nu: float, tau_hat: float) -> float:
    """Upper bound on the misclassification probabilities P_{e,1}, P_{e,0},
    at the exact tau of gaussian_tau."""
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
                             eta: float, trials: int, rng: np.random.Generator) -> dict:
    """Controlled far/near-field benchmark for a pair of agents.

    Both agents hold the same frozen estimate w while their smoothed update
    directions run ceil(8 / nu) steps, to steady state, under the one noise
    variance of env; returns empirical far-field rates and event frequencies
    over independent trials.

    z_k, z_l and w may stack pair geometries on leading axes, broadcast
    together.  Each step draws agent k's regressors and noise, then agent
    l's, once, and every pair advances its own directions from them (common
    random numbers): each pair's rates are bit for bit those of its own
    unstacked call from the same generator state.  Rates have the stack's
    leading shape; an unstacked call returns floats.

    The directions are held component-major, (pairs, agent, M, trials), and
    advanced one slice of STEP_SLICE_BYTES at a time: beyond them, one step's
    draws and a residual row per pair, the buffers grow with the slice.
    """
    z_k, z_l, w = (np.asarray(a, dtype=float) for a in (z_k, z_l, w))
    shape = np.broadcast_shapes(z_k.shape, z_l.shape, w.shape)
    if shape[-1:] != (env.M,):
        raise ValueError(f"pair geometries must end in M = {env.M} entries, not {shape}")
    gaps = [np.broadcast_to(z - w, shape).reshape(-1, env.M) for z in (z_k, z_l)]
    (sig,) = env.sigma_v

    h = np.zeros((len(gaps[0]), 2, env.M, trials))    # per pair, agents k and l
    u, noise = np.empty((trials, env.M)), np.empty(trials)
    resid = np.empty((len(gaps[0]), trials))
    rows = min(trials, max(1, STEP_SLICE_BYTES // (8 * env.M)))
    ru_tile, nu_u = np.tile(env.ru_sd, (rows, 1)), np.empty((env.M, rows))
    for _ in range(math.ceil(8.0 / nu)):
        for idx, gap in enumerate(gaps):
            rng.standard_normal(out=u)
            for a in range(0, trials, rows):   # a tile: one flat loop, not M-long ones
                u[a:a + rows] *= ru_tile[:trials - a]
            rng.standard_normal(out=noise)
            noise *= sig
            for r, e in zip(resid, gap):
                np.matmul(u, e, out=r)
                r += noise
            for a in range(0, trials, rows):   # (1 - nu) h + nu u resid, in place
                b = min(a + rows, trials)
                nu_ut = np.multiply(u[a:b].T, nu, out=nu_u[:, :b - a])
                step = u[a:b].reshape(env.M, b - a)   # read: it holds each pair's step
                for h_p, r in zip(h[:, idx], resid):
                    np.multiply(nu_ut, r[a:b], out=step)
                    h_rows = h_p[:, a:b]
                    h_rows *= 1.0 - nu
                    h_rows += step

    rates = {key: np.empty(len(h)) for key in ("p_far_k", "p_far_l", "p_e1", "p_e1c")}
    # (trials, M) views keep each sum's order over M; u, noise and resid hold the sums
    for p, (h_k, h_l) in enumerate(h.transpose(0, 1, 3, 2)):
        far_k = np.square(h_k, out=u).sum(axis=1, out=noise) > eta ** 2
        far_l = np.square(h_l, out=u).sum(axis=1, out=noise) > eta ** 2
        inner = np.multiply(h_k, h_l, out=u).sum(axis=1, out=resid[0])
        both = far_k & far_l
        rates["p_far_k"][p] = far_k.mean()
        rates["p_far_l"][p] = far_l.mean()
        rates["p_e1"][p] = (both & (inner > 0)).mean()
        rates["p_e1c"][p] = (both & (inner <= 0)).mean()
    if len(shape) == 1:
        return {key: float(rate[0]) for key, rate in rates.items()}
    return {key: rate.reshape(shape[:-1]) for key, rate in rates.items()}
