"""Absorbing Markov-chain models of the quorum decision process.

Two chain flavors: the exact chain over all 2^N desired-model configurations
(valid for any topology) and the mean-field chain over agreement counts
0..N (exact for complete graphs, approximate otherwise).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decision import quorum_prob
from .diffusion import spectral_radius
from .network import Topology

# 2^N states.  At N = 12 (S = 4096) build_exact_chain peaks near 290 MB: P and
# the np.where factor are S^2 float64 (134 MB each), the `same` mask S^2 bool
# (17 MB).  At 14 the same arrays would take 2 x 2.1 GB.
EXACT_STATE_CAP = 12


class ChainSizeError(ValueError):
    """Requested exact chain exceeds the configured state cap."""


@dataclass(frozen=True)
class DecisionChain:
    """Right-stochastic transition matrix whose first and last states are
    the two absorbing ones (unanimity) and all others transient."""

    P: np.ndarray
    states: np.ndarray        # exact: (S, N) binary configs; meanfield: counts

    @property
    def transient(self) -> np.ndarray:
        return np.arange(1, len(self.P) - 1)

    @property
    def absorbing(self) -> np.ndarray:
        return np.array([0, len(self.P) - 1])

    @property
    def Q(self) -> np.ndarray:
        return self.P[1:-1, 1:-1]

    @property
    def absorption_columns(self) -> np.ndarray:
        """Transitions from transient states into the absorbing ones,
        one column per absorbing state (the b and c vectors)."""
        return self.P[1:-1, [0, -1]]


def build_exact_chain(topology: Topology, K: int) -> DecisionChain:
    """Exact chain over all global-frame configurations g in {0,1}^N.

    The transition from g to g' factorizes over agents: each agent keeps its
    value with its quorum probability under g, independently.
    """
    N = topology.N
    if N > EXACT_STATE_CAP:
        raise ChainSizeError(f"exact chain capped at N={EXACT_STATE_CAP} (2^N states)")
    S = 1 << N
    states = ((np.arange(S)[:, None] >> np.arange(N)[None, :]) & 1).astype(int)

    adj = topology.adjacency
    n_k = adj.sum(axis=0)
    # per-state keep probabilities, shape (S, N)
    agree = (states[:, None, :] == states[:, :, None]) & adj[None, :, :]
    n_g = agree.sum(axis=2)
    q = quorum_prob(n_g, n_k[None, :], K)

    P = np.ones((S, S))
    for k in range(N):
        same = states[:, None, k] == states[None, :, k]
        P *= np.where(same, q[:, None, k], 1.0 - q[:, None, k])

    return DecisionChain(P, states)


def build_meanfield_chain(N: int, K: int) -> DecisionChain:
    """Count chain over n in {0..N}: every agent independently picks model 1
    with probability q_n = n^K / (n^K + (N-n)^K), so rows are binomial."""
    if N < 2:
        raise ValueError("N must be at least 2")
    # binomial rows in log space: C(N, m) overflows a float beyond N ~ 1029;
    # log C(N, m) sums log((N - j + 1) / j) over j <= m
    m = np.arange(N + 1)
    log_binom = np.concatenate(([0.0], np.cumsum(np.log(N + 1 - m[1:]) - np.log(m[1:]))))
    q = quorum_prob(m[1:N], N, K)[:, None]
    P = np.zeros((N + 1, N + 1))
    P[0, 0] = P[N, N] = 1.0
    # a zero exponent contributes 0, also where q rounds to 1 and log1p(-q) is -inf
    shape = (N - 1, N + 1)
    with np.errstate(divide="ignore"):
        log_q, log_1mq = np.log(q), np.log1p(-q)
    log_hits = np.multiply(m, log_q, out=np.zeros(shape), where=m > 0)
    log_misses = np.multiply(N - m, log_1mq, out=np.zeros(shape), where=m < N)
    P[1:N] = np.exp(log_binom + log_hits + log_misses)
    return DecisionChain(P, m)


def boundary_mass_closed_form(N: int, K: int, n: int) -> float:
    """Closed form for p_{n,0} + p_{n,N} on the mean-field chain:
    (n^{NK} + (N-n)^{NK}) / (n^K + (N-n)^K)^N."""
    return count_ratio(float(n), float(N - n), N, K)


def count_ratio(a: float, b: float, N: int, x: float) -> float:
    """f(x) = (a^{Nx} + b^{Nx}) / (a^x + b^x)^N, non-decreasing in x with
    equality only at a = b."""
    return (a ** (N * x) + b ** (N * x)) / (a ** x + b ** x) ** N


def transient_spectral_radius(chain: DecisionChain) -> float:
    if chain.Q.size == 0:
        raise ValueError("chain has no transient states")
    return spectral_radius(chain.Q)


def rate_identity_residual(chain: DecisionChain) -> float:
    """|rho(Q) - (1 - y_Q^T (b+c))| with y_Q the normalized left Perron
    eigenvector of Q.  Valid when Q is primitive."""
    Q = chain.Q
    rho = transient_spectral_radius(chain)
    vals, vecs = np.linalg.eig(Q.T)
    idx = int(np.argmax(vals.real))
    y = np.abs(vecs[:, idx].real)
    y /= y.sum()
    bc = chain.absorption_columns.sum(axis=1)
    return abs(rho - (1.0 - float(y @ bc)))


def verify_K_monotonicity(N: int, K_max: int) -> dict:
    """Sweep the mean-field chain over K and check that rho(Q) strictly
    decreases; also grid-check monotonicity of the scalar count ratio."""
    if N <= 2:
        raise ValueError("the monotonicity result requires N > 2")
    rhos = [transient_spectral_radius(build_meanfield_chain(N, K))
            for K in range(1, K_max + 1)]
    strictly_decreasing = all(r2 < r1 for r1, r2 in zip(rhos, rhos[1:]))

    grid = np.linspace(0.5, 6.0, 23)
    scalar_ok = True
    for a, b in [(1.0, 3.0), (2.0, 5.0), (0.3, 0.7)]:
        vals = [count_ratio(a, b, N, x) for x in grid]
        scalar_ok &= all(v2 >= v1 - 1e-15 for v1, v2 in zip(vals, vals[1:]))
    equal_case = [count_ratio(2.0, 2.0, N, x) for x in grid]
    scalar_ok &= np.allclose(equal_case, 2.0 ** (1 - N) * np.ones(grid.size))

    return {
        "N": N,
        "rho": rhos,
        "strictly_decreasing": strictly_decreasing,
        "scalar_monotone": bool(scalar_ok),
    }


def absorption_time_distribution(chain: DecisionChain,
                                 start: int | None = None,
                                 trials: int = 0,
                                 rng: np.random.Generator | None = None) -> dict:
    """Expected steps to absorption from each transient state via the
    fundamental matrix (I - Q)^{-1} 1, with an optional Monte Carlo check."""
    Q = chain.Q
    n_t = Q.shape[0]
    try:
        fundamental = np.linalg.inv(np.eye(n_t) - Q)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("(I - Q) is singular; chain is not absorbing") from exc
    expected = fundamental @ np.ones(n_t)
    absorb_prob = fundamental @ chain.absorption_columns

    out = {"expected_steps": expected, "absorb_prob": absorb_prob}
    if start is not None:
        out["expected_from_start"] = (float(expected[start - 1])
                                      if 0 < start < len(chain.P) - 1 else 0.0)
    if trials > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        out["mc_mean_steps"] = _mc_absorption(chain, start, trials, rng)
    return out


def _mc_absorption(chain: DecisionChain, start: int | None, trials: int,
                   rng: np.random.Generator, cap: int = 1_000_000) -> float:
    last = len(chain.P) - 1       # states 0 and last absorb
    s0 = 1 if start is None else start
    if not 0 < s0 < last:
        return 0.0
    totals = 0
    for _ in range(trials):
        s, steps = s0, 0
        while 0 < s < last and steps < cap:
            s = rng.choice(last + 1, p=chain.P[s])
            steps += 1
        totals += steps
    return totals / trials
