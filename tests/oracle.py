"""Per-agent reference implementations of the algorithm.

The library runs the algorithm once, vectorised, in the step kernel
(`diffnet.harness._Replica`) and its whole-network helpers.  The functions
here compute the same steps one agent, one link or one scalar at a time,
as the paper writes them: ATC adapt and combine, the smoothed update
direction, the E1/E1c events and belief updates, the local-frame quorum
counts and decisions, the cohesion term, the scalar dB conversion and a
Monte Carlo walk of an absorbing chain.  Tests compare the library against
them.  The quorum loop with oracle classification, which drives the
package's whole-network decision functions sweep by sweep until agreement,
lives here too: the engine runs the same sweeps inside its step.  Not a
test module: pytest does not collect it.
"""
from __future__ import annotations

import math

import numpy as np

from diffnet.decision import decision_sweep, keep_probabilities, oracle_relative_f, \
    quorum_table
from diffnet.harness import MSD_FLOOR_DB
from diffnet.markov import DecisionChain
from diffnet.network import Topology, check_assignment

E1 = "E1"
E1C = "E1c"
NO_UPDATE = "no_update"

MC_STEP_CAP = 1_000_000   # a Monte Carlo walk stops here even if not absorbed
AGREEMENT_SWEEP_CAP = 50_000    # quorum sweeps before run_decision_dynamics gives up


# ---------------------------------------------------------------------------
# diffusion

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


# ---------------------------------------------------------------------------
# classification

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


# ---------------------------------------------------------------------------
# decision

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


def decide(g_self_prev: int, q: float, rng: np.random.Generator) -> int:
    """Keep the previous desired model with probability q, else flip."""
    return g_self_prev if rng.random() < q else 1 - g_self_prev


def local_agreement_predicate(g_local: np.ndarray, f_rel: np.ndarray,
                              adjacency: np.ndarray) -> bool:
    """Agreement check using only local frames: along every edge (k, l) the
    XOR identity g(l) ^ g(k) == g_k(l) ^ g_k(k) must vanish for a connected
    graph to be unanimous."""
    g_local = np.asarray(g_local, dtype=int)
    g_trans = np.where(np.asarray(f_rel) == 1, g_local[None, :], 1 - g_local[None, :])
    diff = (g_trans ^ g_local[:, None]) & np.asarray(adjacency, dtype=bool)
    return not diff.any()


def run_decision_dynamics(topology: Topology, f, K: int,
                          rng: np.random.Generator,
                          g_init: np.ndarray | None = None):
    """Iterate quorum sweeps (with oracle neighbor classification) until the
    network is unanimous in the global frame.

    Returns (agreed_model or None, sweeps_used, final local desires).
    """
    f = check_assignment(f)
    f_rel = oracle_relative_f(f)
    adj = topology.adjacency
    table, n_k = quorum_table(topology.N, K, 1.0), adj.sum(axis=1)
    g = np.ones(topology.N, dtype=int) if g_init is None else np.asarray(g_init, dtype=int)
    flip = 1 - f        # global_desires(g, f) is g ^ flip
    for i in range(AGREEMENT_SWEEP_CAP + 1):
        glob = g ^ flip
        if (glob == glob[0]).all():
            return int(glob[0]), i, g
        g = decision_sweep(g, keep_probabilities(adj, g, f_rel, table, n_k, 0),
                           rng.random(g.size))
    return None, AGREEMENT_SWEEP_CAP, g


# ---------------------------------------------------------------------------
# mobility

def cohesion_term(k: int, positions: np.ndarray, adjacency: np.ndarray,
                  d_s: float) -> np.ndarray:
    """Spacing term for one agent: attraction beyond d_s, repulsion inside.

    Coincident neighbors contribute zero; a lone agent gets a zero vector.
    """
    positions = np.asarray(positions, dtype=float)
    neigh = np.flatnonzero(np.asarray(adjacency, dtype=bool)[:, k])
    neigh = neigh[neigh != k]
    if neigh.size == 0:
        return np.zeros(positions.shape[1])
    diff = positions[neigh] - positions[k]
    dist = np.linalg.norm(diff, axis=1)
    ok = dist > 0
    out = np.zeros(positions.shape[1])
    if ok.any():
        out = ((dist[ok] - d_s) / dist[ok])[:, None] * diff[ok]
        out = out.sum(axis=0)
    return out / neigh.size


# ---------------------------------------------------------------------------
# metrics and chains

def msd_db(mean_square: float) -> float:
    if mean_square <= 10 ** (MSD_FLOOR_DB / 10.0):
        return MSD_FLOOR_DB
    return 10.0 * math.log10(mean_square)


def mc_absorption(chain: DecisionChain, start: int | None, trials: int,
                  rng: np.random.Generator) -> float:
    """Mean steps to absorption of `trials` Monte Carlo walks of the chain
    from transient state `start` (1 when None)."""
    last = len(chain.P) - 1       # states 0 and last absorb
    s0 = 1 if start is None else start
    if not 0 < s0 < last:
        return 0.0
    totals = 0
    for _ in range(trials):
        s, steps = s0, 0
        while 0 < s < last and steps < MC_STEP_CAP:
            s = rng.choice(last + 1, p=chain.P[s])
            steps += 1
        totals += steps
    return totals / trials
