"""Absorbing Markov-chain models of the quorum decision process.

Two chain flavors: the exact chain over all 2^N desired-model configurations
(valid for any topology) and the mean-field chain over agreement counts
0..N (exact for complete graphs, approximate otherwise).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .decision import keep_probabilities, oracle_relative_f, quorum_prob, quorum_table
from .diffusion import spectral_radius
from .network import Topology

# 2^N states.  At N = 12 (S = 4096) build_exact_chain peaks near 290 MB: P and
# the np.where factor are S^2 float64 (134 MB each), the `same` mask S^2 bool
# (17 MB).  The analyses peak about as high: P, then F+, I - F+, G and LAPACK's
# two copies in the inverse, S^2/4 float64 (34 MB) each; a whole run's peak RSS
# is 340 MB.  At 14, P and the np.where factor would take 2 x 2.1 GB.
EXACT_STATE_CAP = 12


class ChainSizeError(ValueError):
    """Requested exact chain exceeds the configured state cap."""


@dataclass(frozen=True)
class DecisionChain:
    """Right-stochastic transition matrix whose first and last states are
    the two absorbing ones (unanimity) and all others transient.

    Both builders order the states so that swapping the two models reverses
    them (count n <-> N - n, configuration s <-> its bit complement), and P
    equals P[::-1, ::-1] bit for bit; the analyses rely on it.  They share Q's
    swap-symmetric fold and its one inverse, kept on the chain from first use.
    """

    P: np.ndarray

    @property
    def Q(self) -> np.ndarray:
        return self.P[1:-1, 1:-1]

    @property
    def absorption_columns(self) -> np.ndarray:
        """Transitions from transient states into the absorbing ones,
        one column per absorbing state (the b and c vectors)."""
        return self.P[1:-1, [0, -1]]

    @cached_property
    def _symmetric_fold(self) -> tuple[np.ndarray, np.ndarray]:
        """F+, Q restricted to the swap-symmetric vectors, and G = (I - F+)^{-1}.

        Q commutes with the reversal J that swaps the two models, so it maps
        v = Jv and v = -Jv into themselves.  A symmetric v is fixed by its
        first ceil(n/2) entries and an antisymmetric one by its first
        floor(n/2) (the middle entry of an odd n is 0).  On those, Q acts as
        its leading block with column n-1-j added into, or subtracted from,
        column j.  A Q that is not symmetric is refused.
        """
        Q = self.Q
        n, f = len(Q), len(Q) // 2
        if n == 0:
            raise ValueError("chain has no transient states")
        if not np.array_equal(Q, Q[::-1, ::-1]):
            raise ValueError("Q is not symmetric under swapping the two models")
        F = Q[:n - f, :n - f].copy()
        F[:, :f] += Q[:n - f, ::-1][:, :f]         # column n-1-j at j
        try:
            return F, np.linalg.inv(np.eye(len(F)) - F)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("(I - Q) is singular; chain is not absorbing") from exc


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

    # per-state keep probabilities, shape (S, N): all agents observe one
    # model, so each local frame is the global one
    adj = topology.adjacency
    q = keep_probabilities(adj, states, oracle_relative_f(np.zeros(N, dtype=int)),
                           quorum_table(N, K, 1.0), adj.sum(axis=0), 0)

    P = np.ones((S, S))
    for k in range(N):
        same = states[:, None, k] == states[None, :, k]
        P *= np.where(same, q[:, None, k], 1.0 - q[:, None, k])

    return DecisionChain(P)


def build_meanfield_chain(N: int, K: int) -> DecisionChain:
    """Count chain over n in {0..N}: every agent independently picks model 1
    with probability q_n = n^K / (n^K + (N-n)^K), so rows are binomial.

    q_{N-n} = 1 - q_n, so row N - n is row n reversed: rows 1..N//2 are
    computed, scaled to sum to 1 to rounding, and the rest mirrored, which
    makes P exactly reversal-symmetric.
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
    rows = P[1:h + 1]
    # log C(N, m) + m log q + (N - m) log(1 - q), added in that order in one
    # buffer and exponentiated in place; a zero exponent contributes 0, also
    # where q rounds to 1 and log1p(-q) is -inf (rows is still 0 at m = N)
    with np.errstate(divide="ignore"):
        log_q, log_1mq = np.log(q), np.log1p(-q)
    log_rows = np.multiply(m, log_q, out=np.zeros(rows.shape), where=m > 0)
    np.add(log_binom, log_rows, out=log_rows)
    np.multiply(N - m, log_1mq, out=rows, where=m < N)
    np.add(log_rows, rows, out=rows)
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=1, keepdims=True)
    if N % 2 == 0:             # the centre row (q = 1/2) equals its reverse
        P[h] = (P[h] + P[h, ::-1]) / 2
    P[N:h:-1] = P[:N - h, ::-1]   # rows N, N-1, .., h+1 from rows 0, 1, ..
    return DecisionChain(P)


def count_ratio(a: float, b: float, N: int, x: float) -> float:
    """f(x) = (a^{Nx} + b^{Nx}) / (a^x + b^x)^N, non-decreasing in x with
    equality only at a = b."""
    return (a ** (N * x) + b ** (N * x)) / (a ** x + b ** x) ** N


def _perron_bounds(F: np.ndarray, G: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Collatz-Wielandt bounds min and max of (y F)_i / y_i on rho(F), F >= 0,
    and the y > 0 that gave them, y stepped y <- y F G (F G = G - I has
    eigenvalues lambda / (1 - lambda), so the Perron root leads by far) until
    their spread stops shrinking, or for 100 sweeps.  The ratios sum the
    nonnegative terms of F, not G, so keep their relative accuracy at any rho."""
    y, lo, hi, best = np.ones(len(F)), 0.0, np.inf, None
    for _ in range(100):
        z = y @ F
        ratios = z / y
        if not ratios.max() - ratios.min() < hi - lo:
            break
        lo, hi, best = float(ratios.min()), float(ratios.max()), y
        y = z @ G
        if not y.min() > 0:
            break
        y /= y.max()
    return lo, hi, best


def transient_spectral_radius(chain: DecisionChain) -> float:
    """rho(Q), certified by Collatz-Wielandt bounds on Q's symmetric fold.

    For a Perron vector x of the nonnegative Q so is Jx, so x + Jx is a
    symmetric one: rho(Q) is the radius of the half-size symmetric fold F+.
    Its left Perron vector, iterated through G = (I - F+)^{-1}, brackets
    rho(F+); bounds that agree to 1e-13 relative give their midpoint, others
    the dense eigensolver's radius of F+.  A Q that is not symmetric is
    refused with ValueError, a singular I - Q with RuntimeError.
    """
    F, G = chain._symmetric_fold
    lo, hi, _ = _perron_bounds(F, G)
    return (lo + hi) / 2 if hi - lo <= 1e-13 * hi else spectral_radius(F)


def rate_identity_residual(chain: DecisionChain) -> float:
    """|rho(Q) - (1 - y^T (b + c))|, 0 in exact arithmetic as Q 1 = 1 - (b + c),
    with rho and the left Perron vector y (summing to 1) of Q from the
    Collatz-Wielandt iteration on its symmetric fold F+, rho the midpoint of
    the bounds.  F+'s left vector is y's leading half with each mirrored
    entry counted twice.  Where the bounds do not certify rho (sparse exact
    chains with rho near 1) the residual stays within their spread: 4.3e-11
    against 1.7e-10 at N = 7, K = 4."""
    lo, hi, a = _perron_bounds(*chain._symmetric_fold)
    f = len(chain.Q) // 2
    y = np.concatenate([a[:f] / 2, a[f:], a[:f][::-1] / 2])
    bc = chain.absorption_columns.sum(axis=1)
    return abs((lo + hi) / 2 - (1.0 - float(y @ bc) / y.sum()))


def verify_K_monotonicity(N: int, K_max: int) -> dict:
    """Sweep the mean-field chain over K and check that rho(Q) strictly
    decreases."""
    if N <= 2:
        raise ValueError("the monotonicity result requires N > 2")
    rhos = [transient_spectral_radius(build_meanfield_chain(N, K))
            for K in range(1, K_max + 1)]
    return {"N": N, "rho": rhos,
            "strictly_decreasing": all(r2 < r1 for r1, r2 in zip(rhos, rhos[1:]))}


def absorption_time_distribution(chain: DecisionChain) -> dict:
    """Expected steps to absorption from each transient state, (I - Q)^{-1} 1,
    and the absorption probabilities (I - Q)^{-1} [b c].

    Swapping the models reverses the states and maps b to c, so 1 is
    swap-symmetric and (b - c)/2 antisymmetric; the symmetric half of the
    probabilities, (I - Q)^{-1} (b + c)/2, is 1/2, as b + c = (I - Q) 1.  The
    steps are read off the chain's G = (I - F+)^{-1}, which also certifies
    rho(Q), with one step of iterative refinement x += G (1 - (I - F+) x);
    the antisymmetric half is one LU solve on the antisymmetric fold.  Both
    are mirrored back to full length.  A Q that is not symmetric is refused
    with ValueError, a singular I - Q with RuntimeError.
    """
    F, G = chain._symmetric_fold
    Q = chain.Q
    n, f = len(Q), len(Q) // 2
    b, c = chain.absorption_columns.T
    steps = G @ np.ones(n - f)
    steps += G @ (1.0 - steps + F @ steps)
    odd_fold = -Q[:f, :f]                 # I - the antisymmetric fold
    odd_fold += Q[:f, ::-1][:, :f]
    odd_fold.flat[::f + 1] += 1.0
    try:
        odd = np.linalg.solve(odd_fold, (b - c)[:f] / 2)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("(I - Q) is singular; chain is not absorbing") from exc

    def unfold(v, sign=1.0):              # ceil(n/2) leading entries to all n
        return np.concatenate([v, sign * v[:f][::-1]])
    hit_first = 0.5 + unfold(np.pad(odd, (0, n - 2 * f)), -1.0)
    return {"expected_steps": unfold(steps),
            "absorb_prob": np.column_stack([hit_first, hit_first[::-1]])}
