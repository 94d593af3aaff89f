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
    the two absorbing ones (unanimity) and all others transient.

    Both builders order the states so that swapping the two models reverses
    them (count n <-> N - n, configuration s <-> its bit complement), and P
    equals P[::-1, ::-1] bit for bit; transient_spectral_radius relies on it.
    """

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
    with probability q_n = n^K / (n^K + (N-n)^K), so rows are binomial.

    q_{N-n} = 1 - q_n, so row N - n is row n reversed: rows 1..N//2 are
    computed and the rest mirrored, which makes P exactly reversal-symmetric.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    # binomial rows in log space: C(N, m) overflows a float beyond N ~ 1029;
    # log C(N, m) sums log((N - j + 1) / j) over j <= m
    m = np.arange(N + 1)
    log_binom = np.concatenate(([0.0], np.cumsum(np.log(N + 1 - m[1:]) - np.log(m[1:]))))
    h = N // 2
    q = quorum_prob(m[1:h + 1], N, K)[:, None]
    P = np.zeros((N + 1, N + 1))
    P[0, 0] = 1.0
    # a zero exponent contributes 0, also where q rounds to 1 and log1p(-q) is -inf
    shape = (h, N + 1)
    with np.errstate(divide="ignore"):
        log_q, log_1mq = np.log(q), np.log1p(-q)
    log_hits = np.multiply(m, log_q, out=np.zeros(shape), where=m > 0)
    log_misses = np.multiply(N - m, log_1mq, out=np.zeros(shape), where=m < N)
    P[1:h + 1] = np.exp(log_binom + log_hits + log_misses)
    if N % 2 == 0:             # the centre row (q = 1/2) equals its reverse
        P[h] = (P[h] + P[h, ::-1]) / 2
    P[N:h:-1] = P[:N - h, ::-1]   # rows N, N-1, .., h+1 from rows 0, 1, ..
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
    """rho(Q) from Q folded onto the reversal-symmetric vectors.

    Q commutes with the reversal J, and for a Perron vector x of the
    nonnegative Q so is Jx, so x + Jx is a symmetric one: rho(Q) is the
    radius of Q restricted to v = Jv, the half-size matrix that keeps the
    first ceil(n/2) rows and adds column n-1-j into column j.  A Q that is
    not symmetric is refused.
    """
    Q = chain.Q
    n = len(Q)
    if n == 0:
        raise ValueError("chain has no transient states")
    if not np.array_equal(Q, Q[::-1, ::-1]):
        raise ValueError("Q is not symmetric under swapping the two models")
    c, f = (n + 1) // 2, n // 2
    fold = Q[:c, :c].copy()
    fold[:, :f] += Q[:c, ::-1][:, :f]
    return spectral_radius(fold)


def rate_identity_residual(chain: DecisionChain) -> float:
    """|rho(Q) - (1 - y_Q^T (b+c))| with y_Q the normalized left Perron
    eigenvector of Q.  Valid when Q is primitive."""
    vals, vecs = np.linalg.eig(chain.Q.T)
    rho = float(np.abs(vals).max())
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


def absorption_time_distribution(chain: DecisionChain) -> dict:
    """Expected steps to absorption from each transient state, (I - Q)^{-1} 1,
    and the absorption probabilities (I - Q)^{-1} [b c], from one solve."""
    Q = chain.Q
    n_t = Q.shape[0]
    rhs = np.column_stack([np.ones(n_t), chain.absorption_columns])
    try:
        solved = np.linalg.solve(np.eye(n_t) - Q, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("(I - Q) is singular; chain is not absorbing") from exc
    return {"expected_steps": solved[:, 0], "absorb_prob": solved[:, 1:]}
