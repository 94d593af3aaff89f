"""Scenario orchestration: configs, presets, the synchronous simulation
engine for static and fish scenarios, metrics, and CSV/JSON persistence."""
from __future__ import annotations

import copy
import csv
import dataclasses
import json
import math
import os
import subprocess
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .classification import check_stepsize_separation, direction_pair_benchmark, \
    estimate_tau, f_hat, pd_pf_bounds
from .decision import decision_sweep, global_desires, oracle_relative_f, \
    quorum_prob  # noqa: F401  (perfbench's tracer checks the name is wrapped here too)
from .diffusion import DIVERGENCE_LIMIT, DivergenceError, check_stepsize_stability, \
    split_matrices
from .markov import absorption_time_distribution, build_meanfield_chain, \
    transient_spectral_radius
from .mobility import MotionParams, cohesion_all, measure_target, radius_adjacency, \
    update_motion
from .network import AgentEnvironment, ModelPair, Topology, generate_topology, \
    sample_data, uniform_weights

MSD_FLOOR_DB = -120.0
NEVER = math.inf

STRATEGIES = ("conventional", "modified")
RULES = ("uniform", "fast")
# Fields only the modified strategy reads (classification, quorum decisions,
# split combination); a conventional run refuses non-default values of them.
DECISION_FIELDS = {"rule", "nu", "alpha", "eta", "K", "beta", "oracle_classification",
                   "forced_desired", "record_beliefs"}
_SIMULATION = ("N", "M", "w0", "w1", "split", "rule", "mu", "nu", "alpha", "eta", "K",
               "beta", "iterations", "replicas", "oracle_classification",
               "forced_desired", "mean_error_vs")
# The fields each kind reads besides kind, seed and out; a kind refuses
# non-default values of all the others (fish runs the modified strategy only).
KIND_FIELDS = {"static_two_model": _SIMULATION + ("strategy", "mean_degree", "ru_range",
                                                  "noise_db_range", "record_beliefs"),
               "fish": _SIMULATION + ("motion", "comm_radius", "arena"),
               "chain_sweep": ("sweep_N", "sweep_K"),
               "classify_bench": ("M", "w0", "w1", "mu", "nu", "eta", "ru_range",
                                  "bench_trials", "bench_distance")}
KINDS = tuple(KIND_FIELDS)


class ConfigError(ValueError):
    """Scenario configuration failed validation."""


@dataclass
class ScenarioConfig:
    kind: str = "static_two_model"
    N: int = 40
    M: int = 4
    w0: list = field(default_factory=lambda: [5.0, -5.0, 5.0, 5.0])
    w1: list = field(default_factory=lambda: [5.0, 5.0, -5.0, 5.0])
    split: int = 20                  # first `split` agents observe w0
    strategy: str = "modified"
    rule: str = "uniform"
    mu: float = 0.005
    nu: float = 0.05
    alpha: float = 0.95
    eta: float = 1.0
    K: int = 4
    beta: float | list = 1.0         # quorum quality weight (scalar) or [q0, q1]
    iterations: int = 2000
    replicas: int = 50
    seed: int = 0
    out: str | None = None
    mean_degree: float = 5.0
    ru_range: tuple = (1.0, 2.0)     # diagonal Ru entries, uniform
    noise_db_range: tuple = (-35.0, -5.0)
    record_beliefs: bool = False
    oracle_classification: bool = False
    forced_desired: int | None = None   # global model index; freezes decisions
    mean_error_vs: int | None = None    # track ensemble-mean error vs this model
    motion: dict = field(default_factory=dict)
    comm_radius: float = 5.0
    arena: float = 20.0
    sweep_N: list = field(default_factory=lambda: [4, 6, 8])
    sweep_K: list = field(default_factory=lambda: [1, 2, 3, 4, 5])
    bench_trials: int = 100_000
    bench_distance: float = 10.0

    def validate(self) -> "ScenarioConfig":
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.rule not in RULES:
            raise ConfigError(f"unknown combination rule {self.rule!r}")
        reads, scope = KIND_FIELDS[self.kind], self.kind
        if self.strategy == "conventional":
            reads, scope = tuple(set(reads) - DECISION_FIELDS), f"conventional {self.kind}"
        default = ScenarioConfig()
        for f in dataclasses.fields(self):     # f.type is the annotation's text
            value = getattr(self, f.name)
            check = {"int": _is_int, "float": _is_real}.get(f.type)
            if check and not check(value):
                raise ConfigError(f"{f.name} must be of type {f.type}, not {value!r}")
            # object arrays compare ragged lists too
            if f.name not in reads + ("kind", "seed", "out") and not np.array_equal(
                    np.asarray(value, dtype=object),
                    np.asarray(getattr(default, f.name), dtype=object)):
                raise ConfigError(f"{f.name} does not apply to {scope} scenarios")
        if "w0" in reads:
            if not (self.M >= 1 and _is_vector(self.w0, self.M)
                    and _is_vector(self.w1, self.M)):
                raise ConfigError("w0 and w1 must be lists of M >= 1 numbers")
            if list(self.w0) == list(self.w1):
                raise ConfigError("the two models must differ")
            if not (self.mu > 0 and 0 < self.nu < 1 and self.eta > 0):
                raise ConfigError("require mu > 0, nu in (0,1) and eta > 0")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative int")
        for name, floor in (("ru_range", 0.0), ("noise_db_range", -math.inf)):
            pair = getattr(self, name)
            if name in reads and not (_is_vector(pair, 2) and floor < pair[0] <= pair[1]):
                raise ConfigError(f"{name} must be two numbers above {floor}, low <= high")
        if self.kind in ("static_two_model", "fish"):
            if self.N < 2:
                raise ConfigError("need N >= 2")
            if not 0 <= self.split <= self.N:
                raise ConfigError("split must lie in [0, N]")
            if not 0 < self.alpha < 1:
                raise ConfigError("require alpha in (0,1)")
            if not (self.K >= 1 and self.mean_degree >= 2):
                raise ConfigError("require K >= 1 and mean_degree >= 2 "
                                  "(it counts the agent itself)")
            pair = isinstance(self.beta, (list, tuple)) and len(self.beta) == 2
            if not ((_is_real(self.beta) or pair and all(map(_is_real, self.beta)))
                    and (np.asarray(self.beta, dtype=float) > 0).all()):
                raise ConfigError("beta must be a positive number or a list "
                                  "[beta0, beta1] of positive numbers")
            if self.iterations < 1 or self.replicas < 1:
                raise ConfigError("iterations and replicas must be positive")
            for value in (self.forced_desired, self.mean_error_vs):
                if value is not None and not (_is_int(value) and value in (0, 1)):
                    raise ConfigError("forced_desired and mean_error_vs must be "
                                      "0, 1, or None")
        if self.kind == "fish":
            self._validate_fish()
        if self.kind == "chain_sweep":
            for name, low in (("sweep_N", 2), ("sweep_K", 1)):
                values = getattr(self, name)
                if not (isinstance(values, list) and values
                        and all(_is_int(v) and v >= low for v in values)):
                    raise ConfigError(f"{name} must be a non-empty list of ints >= {low}")
        if self.kind == "classify_bench" and not (self.bench_trials >= 1
                                                  and self.bench_distance > 0):
            raise ConfigError("require bench_trials >= 1 and bench_distance > 0")
        return self

    def _validate_fish(self) -> None:
        """The fish engine runs the shared modified step on a moving radius
        graph; its graph and sensing come from comm_radius and motion."""
        if self.M != 2:
            raise ConfigError("fish scenario is planar (M = 2)")
        if not self.arena >= 0:
            raise ConfigError("arena must be non-negative")
        try:
            MotionParams(**self.motion)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad motion parameters: {exc}") from exc

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**doc)
        return cfg.validate()

    @classmethod
    def from_json_file(cls, path: str) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(doc)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_int(value) or isinstance(value, (float, np.floating))


def _is_vector(value, size: int) -> bool:
    return (isinstance(value, (list, tuple, np.ndarray)) and len(value) == size
            and all(map(_is_real, value)))


# Canned scenario layouts, named for the behavior each one demonstrates.
_PAPER = dict(N=40, M=4, w0=[5.0, -5.0, 5.0, 5.0], w1=[5.0, 5.0, -5.0, 5.0],
              split=20, mu=0.005, nu=0.05, alpha=0.95, eta=1.0, K=4,
              iterations=6000, replicas=50, mean_degree=5.0)
PRESETS = {
    "bifurcation": _PAPER,
    "beliefs": dict(_PAPER, iterations=1200, replicas=1, record_beliefs=True),
    "quorum_k1": dict(_PAPER, K=1, iterations=1500),
    "fast_weights": dict(_PAPER, rule="fast"),
    "school": dict(kind="fish", N=40, M=2, w0=[10.0, 10.0], w1=[-10.0, 10.0],
                   split=20, mu=0.02, nu=0.2, alpha=0.95, eta=1.0, K=4,
                   iterations=2500, replicas=1, comm_radius=8.0,
                   motion=dict(dt=0.1, lam=0.3, beta=0.7, gamma=1.0,
                               d_s=3.0, kappa=0.01)),
}


def preset(name: str) -> ScenarioConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r} (have {sorted(PRESETS)})")
    return ScenarioConfig(**copy.deepcopy(PRESETS[name])).validate()


@dataclass
class TraceSet:
    """Per-iteration metric records of one scenario run (ensemble-averaged)."""

    config: ScenarioConfig
    msd0_db: np.ndarray
    msd1_db: np.ndarray
    msd_desired_db: np.ndarray      # vs each agent's currently desired model
    msd_rejected_db: np.ndarray     # vs the model each agent currently rejects
    agreement_fraction: np.ndarray
    agreement_times: np.ndarray | None      # one per replica; inf = never
    final_global_desires: np.ndarray | None  # (replicas, N)
    final_w_mean: np.ndarray                # ensemble-mean final estimates (N, M)
    final_beliefs: np.ndarray | None        # (replicas, N, N)
    f: np.ndarray
    topology: Topology | None               # None for the moving school
    env: AgentEnvironment | None            # None for the moving school
    belief_stream: np.ndarray | None = None   # (iterations, N, N) when recorded
    mean_error_norm: np.ndarray | None = None
    trajectory: np.ndarray | None = None      # fish: (steps, N, 6)


def msd_db(mean_square: float) -> float:
    if mean_square <= 10 ** (MSD_FLOOR_DB / 10.0):
        return MSD_FLOOR_DB
    return 10.0 * math.log10(mean_square)


def agreement_time(all_agree: np.ndarray) -> float:
    """First iteration after which global agreement holds to the end of the
    trace; inf when it never settles, 0 when it always held."""
    all_agree = np.asarray(all_agree, dtype=bool)
    if all_agree.size == 0 or not all_agree[-1]:
        return NEVER
    disagree = np.flatnonzero(~all_agree)
    return 0.0 if disagree.size == 0 else float(disagree[-1] + 1)


def _fast_weight_matrix(adj: np.ndarray, informed_kl: np.ndarray) -> np.ndarray:
    """The fast combination rule: uniform weight on informed neighbors where
    available, otherwise uniform on the other neighbors (zero self-weight).

    informed_kl[k, l] says whether agent k treats neighbor l as informed.
    Column k is uniform over k's informed neighbors, else over its other
    neighbors, else (an isolated uninformed agent) on k itself.
    """
    informed = (informed_kl & adj).T           # [l, k]
    fallback = adj & ~np.eye(adj.shape[0], dtype=bool)
    fallback |= np.diag(~fallback.any(axis=0))
    support = np.where(informed.any(axis=0), informed, fallback)
    return support / support.sum(axis=0)


# ---------------------------------------------------------------------------
# simulation engine

def run_scenario(cfg: ScenarioConfig) -> TraceSet:
    """Execute a scenario end to end (deterministic for a fixed seed)."""
    cfg.validate()
    if cfg.kind not in ("static_two_model", "fish"):
        raise ConfigError(f"run_scenario handles simulations, not {cfg.kind!r}")
    env_ss, *rep_ss = np.random.SeedSequence(cfg.seed).spawn(cfg.replicas + 1)
    env_rng = np.random.default_rng(env_ss)
    models = ModelPair(np.array(cfg.w0), np.array(cfg.w1))
    f = np.array([0] * cfg.split + [1] * (cfg.N - cfg.split))
    if cfg.kind == "fish":
        topology = env = None     # the school's graph and sensing change every step
        params = MotionParams(**cfg.motion)

        def replica(rng):
            return _replica_fish(cfg, params, models, f, rng)
    else:
        topology = generate_topology(cfg.N, cfg.mean_degree, env_rng)
        env = _build_environment(cfg, env_rng)
        A = uniform_weights(topology)

        def replica(rng):
            return _replica_static(cfg, topology.adjacency, A, env, models, f, rng)
    modified = cfg.strategy != "conventional"
    if modified:
        check_stepsize_separation(cfg.mu, cfg.nu)

    iters, R = cfg.iterations, cfg.replicas
    keys = ("sq0", "sq1", "sqd", "sqr", "frac") if modified else ("sq0", "sq1")
    sums = {key: np.zeros(iters) for key in keys}
    times, finals_g, finals_b = [], [], []
    w_sum = np.zeros((cfg.N, cfg.M))
    err_sum = np.zeros((iters, cfg.N, cfg.M)) if cfg.mean_error_vs is not None else None
    belief_stream = trajectory = None

    for r, ss in enumerate(rep_ss):
        rep = replica(np.random.default_rng(ss))
        for key in keys:
            sums[key] += getattr(rep, key)
        w_sum += rep.w
        if modified:
            times.append(agreement_time(rep.frac == 1.0))
            finals_g.append(rep.glob)
            finals_b.append(rep.b)
        if err_sum is not None:
            err_sum += rep.err
        if r == 0:
            belief_stream, trajectory = rep.stream, rep.trajectory

    def db(key):
        if key not in sums:
            return np.full(iters, np.nan)
        return np.array([msd_db(v / R) for v in sums[key]])

    return TraceSet(
        config=cfg,
        msd0_db=db("sq0"),
        msd1_db=db("sq1"),
        msd_desired_db=db("sqd"),
        msd_rejected_db=db("sqr"),
        agreement_fraction=(sums["frac"] / R) if modified else np.full(iters, np.nan),
        agreement_times=np.array(times) if modified else None,
        final_global_desires=np.array(finals_g) if modified else None,
        final_w_mean=w_sum / R,
        final_beliefs=np.array(finals_b) if modified else None,
        f=f,
        topology=topology,
        env=env,
        belief_stream=belief_stream,
        mean_error_norm=(np.linalg.norm(err_sum / R, axis=(1, 2))
                         if err_sum is not None else None),
        trajectory=trajectory,
    )


def _build_environment(cfg: ScenarioConfig, rng: np.random.Generator):
    ru_diag = rng.uniform(cfg.ru_range[0], cfg.ru_range[1], cfg.M)
    noise_db = rng.uniform(cfg.noise_db_range[0], cfg.noise_db_range[1], cfg.N)
    env = AgentEnvironment(Ru=np.diag(ru_diag),
                           sigma_v2=10.0 ** (noise_db / 10.0),
                           mu=np.full(cfg.N, cfg.mu))
    if not check_stepsize_stability(cfg.mu, env.Ru):
        raise ConfigError(
            f"step-size mu={cfg.mu} violates the stability bound "
            f"2/rho(Ru) = {2.0 / ru_diag.max():.4g}"
        )
    return env


class _Replica:
    """State and per-iteration metric records of one replica under the
    adapt -> classify -> decide -> split-combine step shared by the static
    and fish scenarios."""

    def __init__(self, cfg: ScenarioConfig, models: ModelPair, f: np.ndarray):
        N, M, iters = cfg.N, cfg.M, cfg.iterations
        self.cfg, self.f = cfg, f
        self.stacked = models.stacked()
        self.beta = np.asarray(cfg.beta, dtype=float)
        self.oracle_rel = oracle_relative_f(f) if cfg.oracle_classification else None
        self.conventional = cfg.strategy == "conventional"
        self.w = np.zeros((N, M))
        self.h_hat = np.zeros((N, M))
        self.b = np.full((N, N), 0.5)
        if cfg.forced_desired is not None:
            self.g = (f == cfg.forced_desired).astype(int)
        else:
            self.g = np.ones(N, dtype=int)
        self.glob = global_desires(self.g, f)     # validates f once
        self.f_flip = 1 - f
        self.rows = np.arange(N)
        self.sq0, self.sq1, self.sqd, self.sqr, self.frac = np.empty((5, iters))
        self.err = np.empty((iters, N, M)) if cfg.mean_error_vs is not None else None
        self.stream = np.empty((iters, N, N)) if cfg.record_beliefs else None
        self.graph = self.trajectory = None       # graph: the adjacency self.links is for

    def step(self, i: int, adj: np.ndarray, A: np.ndarray, u: np.ndarray,
             d: np.ndarray, rng: np.random.Generator) -> None:
        """One network-wide iteration on the graph `adj` with combination
        matrix A, regressors u and measurements d; the quorum uniforms are
        the only draws taken from rng."""
        cfg, N = self.cfg, self.cfg.N
        update = u * (d - (u * self.w).sum(axis=1))[:, None]
        psi = self.w + cfg.mu * update
        if self.conventional:
            self.w = A.T @ psi
        else:
            if adj is not self.graph:   # a moving school brings a new graph each step
                self.graph, self.links = adj, adj & ~np.eye(N, dtype=bool)
            self.h_hat = (1.0 - cfg.nu) * self.h_hat + cfg.nu * update
            far = (self.h_hat ** 2).sum(axis=1) > cfg.eta ** 2
            active = far[:, None] & far[None, :] & self.links
            # diagonal beliefs are never active, so they stay 0.5 and f_hat
            # reads 1 there
            np.copyto(self.b, cfg.alpha * self.b
                      + (1.0 - cfg.alpha) * (self.h_hat @ self.h_hat.T > 0.0),
                      where=active)
            fhat = self.oracle_rel if self.oracle_rel is not None else f_hat(self.b)
            if cfg.forced_desired is None:
                beta = self.beta if self.beta.ndim == 0 else self.beta[self.glob]
                self.g = decision_sweep(adj, self.g, fhat, cfg.K, rng, beta)
            if cfg.rule == "fast":
                A = _fast_weight_matrix(adj, fhat == self.g[:, None])
            A1, A2 = split_matrices(A, fhat, self.g)
            self.w = A1.T @ psi + A2.T @ self.w

        w = self.w
        if not ((w * w).sum(axis=1).max() <= DIVERGENCE_LIMIT ** 2):
            raise DivergenceError(f"estimate norm exceeded {DIVERGENCE_LIMIT:g} "
                                  f"at iteration {i}")
        # (N, 2) squared distances; each sum / N is bit for bit ndarray.mean
        dev = ((w[:, None, :] - self.stacked[None]) ** 2).sum(axis=2)
        self.sq0[i] = dev[:, 0].sum() / N
        self.sq1[i] = dev[:, 1].sum() / N
        if not self.conventional:
            self.glob = np.where(self.g == 1, self.f, self.f_flip)
            self.sqd[i] = dev[self.rows, self.glob].sum() / N
            self.sqr[i] = dev[self.rows, 1 - self.glob].sum() / N
            share1 = self.glob.sum() / N
            self.frac[i] = max(share1, 1.0 - share1)
        if self.err is not None:
            self.err[i] = self.stacked[cfg.mean_error_vs][None, :] - w
        if self.stream is not None:
            self.stream[i] = self.b


def _replica_static(cfg, adj, A, env, models, f, rng):
    """Fixed graph; Gaussian regressors u and measurement noise v per agent."""
    rep = _Replica(cfg, models, f)
    z = models.observed(f)
    for i in range(cfg.iterations):
        d, u = sample_data(z, env, rng)
        rep.step(i, adj, A, u, d, rng)
    return rep


def _replica_fish(cfg, params, models, f, rng):
    """Moving agents: radius graph, range/bearing sensing of each agent's own
    target, then motion toward the new estimate."""
    rep = _Replica(cfg, models, f)
    z = models.observed(f)
    x = rng.uniform(-cfg.arena / 2.0, cfg.arena / 2.0, (cfg.N, 2))
    vel = np.zeros((cfg.N, 2))
    u = np.tile(np.array([1.0, 0.0]), (cfg.N, 1))
    rep.trajectory = trajectory = np.empty((cfg.iterations, cfg.N, 6))

    for i in range(cfg.iterations):
        adj = radius_adjacency(x, cfg.comm_radius)
        A = adj / adj.sum(axis=0)[None, :]
        d, u = measure_target(x, u, z, params.kappa, params.sigma_angle, rng)
        rep.step(i, adj, A, u, d, rng)
        x, vel = update_motion(x, vel, rep.w, A, cohesion_all(x, adj, params.d_s),
                               params)
        trajectory[i, :, 0:2] = x
        trajectory[i, :, 2:4] = vel
        trajectory[i, :, 4] = rep.glob
        trajectory[i, :, 5] = ((x - rep.stacked[rep.glob]) ** 2).sum(axis=1)
    return rep


# ---------------------------------------------------------------------------
# reports for the non-simulation subcommands

def run_chain_sweep(cfg: ScenarioConfig) -> list[dict]:
    """rho(Q) and mean absorption time over a (N, K) grid of mean-field
    chains."""
    rows = []
    for N in cfg.sweep_N:
        for K in cfg.sweep_K:
            chain = build_meanfield_chain(N, K)
            rho = transient_spectral_radius(chain)
            stats = absorption_time_distribution(chain)
            rows.append({
                "N": N, "K": K, "rho_Q": rho,
                "mean_absorption": float(stats["expected_steps"].mean()),
            })
    return rows


def run_classify_bench(cfg: ScenarioConfig) -> dict:
    """Far/near-field classification benchmark against the analytic bounds."""
    rng = np.random.default_rng(cfg.seed)
    models = ModelPair(np.array(cfg.w0), np.array(cfg.w1))
    env = AgentEnvironment(
        Ru=np.diag(rng.uniform(cfg.ru_range[0], cfg.ru_range[1], cfg.M)),
        sigma_v2=np.array([1e-2]),
        mu=np.array([cfg.mu]),
    )
    tau_hat = estimate_tau(env, models, max(10_000, cfg.bench_trials // 2), rng)
    pd_lo, pf_hi = pd_pf_bounds(cfg.nu, tau_hat)

    gap = models.w0 - models.w1
    direction = gap / np.linalg.norm(gap)
    scale = cfg.bench_distance
    w_far = models.w0 - scale * direction
    same = direction_pair_benchmark(models.w0, models.w0, w_far, env,
                                    cfg.nu, cfg.eta, cfg.bench_trials, rng)
    mid = 0.5 * (models.w0 + models.w1)
    different = direction_pair_benchmark(models.w0, models.w1, mid, env,
                                         cfg.nu, cfg.eta, cfg.bench_trials, rng)
    return {
        "tau_hat": tau_hat,
        "pd_lower_bound": pd_lo,
        "pf_upper_bound": pf_hi,
        "empirical_pd": same["p_e1"],
        "empirical_pf": different["p_e1"],
        "empirical_far_rate": same["p_far_k"],
    }


# ---------------------------------------------------------------------------
# persistence

def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)


def write_msd_csv(path: str, trace: TraceSet) -> None:
    columns = (trace.msd0_db, trace.msd1_db, trace.msd_desired_db,
               trace.agreement_fraction)
    _write_csv(path, ["iteration", "msd0_db", "msd1_db", "msd_desired_db",
                      "agreement_fraction"],
               ([i, *(repr(float(c[i])) for c in columns)]
                for i in range(trace.msd0_db.size)))


def write_beliefs_csv(path: str, trace: TraceSet) -> None:
    if trace.belief_stream is None:
        raise ValueError("trace has no belief stream (record_beliefs off)")
    adj = trace.topology.adjacency
    pairs = [(k, l) for k in range(adj.shape[0])
             for l in np.flatnonzero(adj[:, k]) if l != k]
    _write_csv(path, ["iteration", "observer", "neighbor", "belief", "f_hat"],
               ([i, k, l, repr(float(b[k, l])), int(b[k, l] >= 0.5)]
                for i, b in enumerate(trace.belief_stream) for k, l in pairs))


def write_trajectory_csv(path: str, trace: TraceSet) -> None:
    if trace.trajectory is None:
        raise ValueError("trace has no trajectory (not a fish run)")
    _write_csv(path, ["step", "agent", "x1", "x2", "v1", "v2", "g_global",
                      "msd_to_target"],
               ([i, k, *(repr(float(v)) for v in row[:4]), int(row[4]),
                 repr(float(row[5]))]
                for i, step in enumerate(trace.trajectory)
                for k, row in enumerate(step)))


def write_chain_sweep_csv(path: str, rows: list[dict]) -> None:
    _write_csv(path, ["N", "K", "rho_Q", "mean_absorption"],
               ([row["N"], row["K"], repr(row["rho_Q"]), repr(row["mean_absorption"])]
                for row in rows))


def write_meta(path: str, cfg: ScenarioConfig) -> None:
    meta = {"config": cfg.to_dict(), "version": __version__,
            "git": _git_stamp()}
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def _git_stamp() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=5,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        return out.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None
