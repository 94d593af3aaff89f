"""Scenario orchestration: configs, presets, the synchronous simulation
engine for static and fish scenarios, metrics, and CSV/JSON persistence."""
from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import reprlib
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .classification import check_stepsize_separation, direction_pair_benchmark, \
    estimate_tau, f_hat, pd_pf_bounds
from .decision import decision_sweep, global_desires, keep_probabilities, \
    oracle_relative_f, quorum_table, \
    quorum_prob  # noqa: F401  (perfbench's tracer checks the name is wrapped here too)
from .diffusion import DivergenceError, check_divergence, check_stepsize_stability, \
    split_matrices
from .markov import absorption_time_distribution, build_meanfield_chain, \
    transient_spectral_radius
from .mobility import MotionParams, cohesion_all, measure_target, pairwise_offsets, \
    radius_adjacency, update_motion
from .network import AgentEnvironment, ModelPair, Topology, generate_topology, \
    link_mask, sample_data, uniform_weights

MSD_FLOOR_DB = -120.0
NEVER = math.inf
BLOCK = 64    # iterations drawn, advanced and recorded together; CSV rows converted together
GRAM_BATCH_BYTES = 2 ** 17   # the kernel forms its (N, N) Grams this many bytes at a time

STRATEGIES = ("conventional", "modified")
RULES = ("uniform", "fast")
# Fields only the modified strategy reads (classification, quorum decisions,
# split combination); a conventional run refuses non-default values of them.
DECISION_FIELDS = {"rule", "nu", "alpha", "eta", "K", "beta", "oracle_classification",
                   "forced_desired", "record_beliefs"}
_SIMULATION = ("N", "M", "w0", "w1", "split", "rule", "mu", "nu", "alpha", "eta", "K",
               "beta", "iterations", "replicas", "oracle_classification",
               "forced_desired", "mean_error_vs")
# The fields each kind reads besides kind and seed; a kind refuses
# non-default values of all the others (fish runs the modified strategy only).
KIND_FIELDS = {"static_two_model": _SIMULATION + ("strategy", "mean_degree", "ru_range",
                                                  "noise_db_range", "record_beliefs"),
               "fish": _SIMULATION + ("motion", "comm_radius", "arena"),
               "chain_sweep": ("sweep_N", "sweep_K"),
               "classify_bench": ("M", "w0", "w1", "nu", "eta", "ru_range",
                                  "bench_trials", "bench_distance")}
KINDS = tuple(KIND_FIELDS)
# validate() refuses, before anything is allocated, a config whose float64
# arrays would pass 2 GiB, or whose replicas x iterations, or classify-bench
# ceil(8/nu) steps or steps x trials, pass their caps (it would run for hours).
MEMORY_BUDGET = 2 * 2 ** 30
MAX_REPLICA_ITERATIONS = 2 ** 22
BENCH_MAX_STEPS, BENCH_MAX_DRAWS = 10 ** 5, 10 ** 9


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
    beta: float | list = 1.0         # quorum quality weight, one or [model 0, model 1]
    iterations: int = 2000
    replicas: int = 50
    seed: int = 0
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
        if self.strategy == "conventional" and "strategy" in reads:
            reads, scope = tuple(set(reads) - DECISION_FIELDS), f"conventional {self.kind}"
        default = ScenarioConfig()
        for f in dataclasses.fields(self):     # f.type is the annotation's text
            value = getattr(self, f.name)
            check = {"int": _is_int, "float": _is_real,
                     "bool": lambda v: isinstance(v, bool)}.get(f.type)
            if check and not check(value):
                raise ConfigError(f"{f.name} must be of type {f.type} within float "
                                  f"range, not {reprlib.repr(value)}")
            # object arrays compare ragged lists too
            if f.name not in reads + ("kind", "seed") and not np.array_equal(
                    np.asarray(value, dtype=object),
                    np.asarray(getattr(default, f.name), dtype=object)):
                raise ConfigError(f"{f.name} does not apply to {scope} scenarios")
        if "w0" in reads:
            if not (self.M >= 1 and _is_vector(self.w0, self.M)
                    and _is_vector(self.w1, self.M)
                    and all(map(math.isfinite, [*self.w0, *self.w1]))):
                raise ConfigError("w0 and w1 must be lists of M >= 1 finite numbers")
            if list(self.w0) == list(self.w1):
                raise ConfigError("the two models must differ")
            if not (self.mu > 0 and 0 < self.nu < 1 and self.eta > 0
                    and math.isfinite(float(self.eta) * self.eta)):
                raise ConfigError("require mu > 0, nu in (0,1), eta > 0 and eta ** 2 finite")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative int")
        for name, floor in (("ru_range", 0.0), ("noise_db_range", -math.inf)):
            pair = getattr(self, name)
            if name in reads and not (_is_vector(pair, 2) and floor < pair[0] <= pair[1]
                                      and math.isfinite(float(pair[1]) - pair[0])):
                raise ConfigError(f"{name} must be two numbers above {floor}, low <= high, "
                                  "high - low finite")
        if "noise_db_range" in reads:
            try:        # the largest noise variance; float's ** raises where numpy's is inf
                10.0 ** (self.noise_db_range[1] / 10.0)
            except OverflowError:
                raise ConfigError("noise_db_range's high end makes the noise variance "
                                  "10 ** (high / 10) overflow") from None
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
            if not (self.iterations >= 1 and self.replicas >= 1
                    and self.replicas * self.iterations <= MAX_REPLICA_ITERATIONS):
                raise ConfigError("iterations and replicas must be positive, with replicas"
                                  f" x iterations at most {MAX_REPLICA_ITERATIONS}")
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
        if self.kind == "classify_bench":
            if not (self.bench_trials >= 1 and self.bench_distance > 0):
                raise ConfigError("require bench_trials >= 1 and bench_distance > 0")
            steps = 8.0 / self.nu        # may be inf, so compared before ceil
            if not (steps <= BENCH_MAX_STEPS
                    and math.ceil(steps) * self.bench_trials <= BENCH_MAX_DRAWS):
                raise ConfigError(f"classify-bench runs 8/nu = {steps:.4g} steps of "
                                  f"{self.bench_trials} trials; the caps are "
                                  f"{BENCH_MAX_STEPS} steps and {BENCH_MAX_DRAWS} draws")
        estimate = self._estimated_bytes()
        if estimate > MEMORY_BUDGET:
            raise ConfigError(f"the run would allocate about {estimate / 2 ** 30:.3g} "
                              f"GiB, over the {MEMORY_BUDGET / 2 ** 30:g} GiB budget")
        return self

    def _estimated_bytes(self) -> float:
        """Bytes of the float64 arrays a run of this (validated) config
        allocates, to within a small factor."""
        if self.kind == "chain_sweep":     # P; F+, I - F+, G, LAPACK's 2 copies: P/4 each
            rows = max(self.sweep_N) + 1.0   # squared by multiplying: inf, not OverflowError
            return 8.0 * 2.25 * rows * rows
        if self.kind == "classify_bench":  # regressor draws and both directions
            return 8.0 * 8 * self.M * max(self.bench_trials, 10_000.0)
        N, iters = float(self.N), float(self.iterations)
        return 8.0 * (16 * iters  # records; blocks, updates and the kernel's row buffers
                      + (BLOCK * (7 * self.M + 6) + 2 * self.M + 1) * N
                      + (2.0 * self.replicas + 16) * N * N  # beliefs, state, table, links
                      + _gram_rows(self.N) * N * N          # the kernel's Gram batch
                      + self.record_beliefs * iters * N * N
                      + (self.mean_error_vs is not None) * 2 * iters * N * self.M
                      + (self.kind == "fish") * 6 * iters * N)   # trajectory

    def _validate_fish(self) -> None:
        """The fish engine runs the shared modified step on a moving radius
        graph; its graph and sensing come from comm_radius and motion."""
        if self.M != 2:
            raise ConfigError("fish scenario is planar (M = 2)")
        if not (0 <= self.arena and math.isfinite(2.0 * self.arena * self.arena)):
            raise ConfigError("arena must be non-negative, with the largest squared "
                              "distance in the start square, 2 arena ** 2, finite")
        if not 0 < self.comm_radius < math.inf:
            raise ConfigError("comm_radius must be positive and finite")
        try:
            MotionParams(**self.motion)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad motion parameters: {exc}") from exc

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"a config must be a JSON object, not {type(doc).__name__}")
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
        except (OSError, ValueError) as exc:   # ValueError: bad UTF-8, JSON or int digits
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(doc)


def _is_int(value) -> bool:     # within float range; a Python float compares exactly
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_real(value) -> bool:
    return _is_int(value) or isinstance(value, (float, np.floating))


def _is_vector(value, size: int) -> bool:
    return (isinstance(value, (list, tuple, np.ndarray)) and len(value) == size
            and all(map(_is_real, value)))


# Canned scenario layouts, named for the behavior each one demonstrates.
_PAPER = dict(iterations=6000)    # the ScenarioConfig defaults are the paper's
PRESETS = {
    "bifurcation": _PAPER,
    "beliefs": dict(_PAPER, iterations=1200, replicas=1, record_beliefs=True),
    "quorum_k1": dict(_PAPER, K=1, iterations=1500),
    "fast_weights": dict(_PAPER, rule="fast"),
    "school": dict(kind="fish", M=2, w0=[10.0, 10.0], w1=[-10.0, 10.0],
                   mu=0.02, nu=0.2, iterations=2500, replicas=1, comm_radius=8.0,
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


def _db(mean_square: np.ndarray) -> np.ndarray:
    """10 log10 of each mean square, floored at MSD_FLOOR_DB: math.log10,
    as numpy's log10 can differ in the last bit; NaN stays NaN."""
    out = np.full(mean_square.shape, MSD_FLOOR_DB)
    above = ~(mean_square <= 10 ** (MSD_FLOOR_DB / 10.0))
    out[above] = np.fromiter(map(math.log10, mean_square[above].tolist()), float) * 10.0
    return out


def agreement_time(all_agree: np.ndarray) -> float:
    """First iteration after which global agreement holds to the end of the
    trace; inf when it never settles, 0 when it always held."""
    all_agree = np.asarray(all_agree, dtype=bool)
    if all_agree.size == 0 or not all_agree[-1]:
        return NEVER
    disagree = np.flatnonzero(~all_agree)
    return 0.0 if disagree.size == 0 else float(disagree[-1] + 1)


def _gram_rows(N: int) -> int:
    """Rows of (N, N) Grams the kernel forms at once: GRAM_BATCH_BYTES
    worth, at least one and at most a BLOCK."""
    return min(BLOCK, max(1, GRAM_BATCH_BYTES // (8 * N * N)))


def _fast_weight_matrix(adj: np.ndarray, links: np.ndarray,
                        informed_kl: np.ndarray) -> np.ndarray:
    """The fast combination rule: uniform weight on informed neighbors where
    available, otherwise uniform on the other neighbors (zero self-weight).

    informed_kl[k, l] says whether agent k treats neighbor l as informed;
    links is the adjacency adj without its self-loops.  Column k is uniform
    over k's informed neighbors, else over its other neighbors, else (an
    isolated uninformed agent) on k itself.
    """
    informed = (informed_kl & adj).T           # [l, k]
    fallback = links | np.diag(~links.any(axis=0))
    return uniform_weights(np.where(informed.any(axis=0), informed, fallback))


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

        def replica(rng):
            return _replica_static(cfg, topology.adjacency, env, models, f, rng)
    modified = cfg.strategy != "conventional"
    if modified:
        check_stepsize_separation(cfg.mu, cfg.nu)

    iters, R = cfg.iterations, cfg.replicas
    sums = np.zeros((5, iters))     # sq0, sq1, sqd, sqr, frac; NaN rows when conventional
    times, finals_g, finals_b = [], [], []
    w_sum = np.zeros((cfg.N, cfg.M))
    err_sum = np.zeros((iters, cfg.N, cfg.M)) if cfg.mean_error_vs is not None else None
    belief_stream = trajectory = None

    for r, ss in enumerate(rep_ss):
        rep = None      # the last replica's arrays go before the next one's come
        try:    # a huge but finite estimate overflows before the guard names it
            with np.errstate(over="ignore", invalid="ignore"):
                rep = replica(np.random.default_rng(ss))
        except DivergenceError as exc:
            raise DivergenceError(f"replica {r}: {exc}") from exc
        sums += rep.records
        w_sum += rep.w
        if modified:
            times.append(agreement_time(rep.frac == 1.0))
            finals_g.append(rep.glob)
            finals_b.append(rep.b)
        if err_sum is not None:
            err_sum += rep.err
        if r == 0:
            belief_stream, trajectory = rep.stream, rep.trajectory

    return TraceSet(
        msd0_db=_db(sums[0] / R),
        msd1_db=_db(sums[1] / R),
        msd_desired_db=_db(sums[2] / R),
        msd_rejected_db=_db(sums[3] / R),
        agreement_fraction=sums[4] / R,
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
    env = AgentEnvironment(ru_diag, sigma_v2=10.0 ** (noise_db / 10.0))
    if not check_stepsize_stability(cfg.mu, ru_diag):
        raise ConfigError(
            f"step-size mu={cfg.mu} violates the stability bound "
            f"2/rho(Ru) = {2.0 / ru_diag.max():.4g}"
        )
    return env


class _Replica:
    """State and metric records of one replica under the adapt -> classify
    -> decide -> split-combine kernel shared by the static and fish
    scenarios.  The state is component-major: h_hat, the kernel's u rows and
    the metric block's rows are C-contiguous (M, N), so each per-agent sum
    over M adds M rows of length N in the order of a sum along M; w is the
    (N, M) transpose of the block row the last iteration wrote.  The kernel
    derives A, the degrees n_k and the link mask from the adjacency alone."""

    def __init__(self, cfg: ScenarioConfig, models: ModelPair, f: np.ndarray):
        N, M, iters = cfg.N, cfg.M, cfg.iterations
        self.cfg, self.f = cfg, f
        self.stacked = models.stacked()
        self.table = quorum_table(N, cfg.K, cfg.beta)
        self.oracle_rel = oracle_relative_f(f) if cfg.oracle_classification else None
        self.conventional = cfg.strategy == "conventional"
        self.w = np.zeros((M, N)).T
        self.h_hat = np.zeros((M, N))
        self.b = np.full((N, N), 0.5)
        self.fhat = self.oracle_rel if self.oracle_rel is not None else f_hat(self.b)
        forced = cfg.forced_desired
        self.g = np.ones(N, dtype=int) if forced is None else (f == forced).astype(int)
        self.glob = global_desires(self.g, f)
        self.records = np.full((5, iters), np.nan)   # rows 2-4 stay NaN when conventional
        self.sq0, self.sq1, self.sqd, self.sqr, self.frac = self.records
        self.w_block = np.empty((BLOCK, M, N))
        self.glob_block = np.empty((BLOCK, N), dtype=int)
        # the kernel's chunk buffers, rows numbered as in w_block: the
        # updates, which the replay turns into the h_hat rows, and the Grams
        self.updates = np.empty((BLOCK, M, N))
        # the row loops' buffers: the errors, psi and w @ A2 (or h * keep)
        self.error, self.psi, self.tmp = np.empty(N), np.empty((M, N)), np.empty((M, N))
        self.grams = np.empty((_gram_rows(N), N, N))
        self.err = np.empty((iters, N, M)) if cfg.mean_error_vs is not None else None
        self.stream = np.empty((iters, N, N)) if cfg.record_beliefs else None
        self.streamed = 0                         # stream rows written
        self.graph = self.trajectory = None       # graph: the adjacency A, n_k and links come from
        self.reach = 1      # a pass's most rows; beliefs start at 0.5, where one event crosses

    def advance(self, i: int, adj: np.ndarray, u: np.ndarray, d: np.ndarray,
                uniforms: np.ndarray | None) -> None:
        """Iterations i .. i + n - 1, within one BLOCK, on the graph `adj`
        with regressors u (n, M, N), measurements d (n, N) and quorum uniforms
        (n, N), None when no decision runs.

        A new adj object brings its uniform combination matrix A, degrees
        n_k and link mask links, derived here.  Only active links (both ends in
        the far field) update their beliefs.  q, the fast weights and the
        A1/A2 split are dropped where a new adj arrives, fhat is replaced or
        g flips, and rebuilt where next used.  Until a uniform reaches its q
        (never while q is all 1 or the desires are forced) or a belief
        crosses 0.5, w's recursion needs no sweep or classification: a pass
        runs adapt and combine ahead to the first row that can flip, replays
        classification, finishes its last row (sweep, split, combine) where
        it can flip or a belief crossed, and drops the rows after a crossing.
        It runs self.reach rows at most: 1 at first and after a crossing, a
        BLOCK after a row with no active link, else twice as many."""
        cfg, n, j = self.cfg, len(d), i % BLOCK
        self.base = i - j                          # the iteration of block row 0
        if adj is not self.graph:      # the school brings a new adj when its graph changes
            self.graph, self.A, self.n_k = adj, uniform_weights(adj), adj.sum(axis=1)
            self.links, self.far = link_mask(adj), None
            self.q = self.A1 = None
        t = 0
        while t < n:
            stop, split = n, (self.A, None)
            if not self.conventional:
                self._decide(None)
                stop, split = min(n, t + self.reach), (self.A1, self.A2)
                if uniforms is not None and stop > t + 1:   # to the first row that can flip
                    flips = self._can_flip(uniforms[t:stop])
                    stop = t + 1 + int(flips.argmax()) if flips.any() else stop
            w = self.w.T.copy()     # a full-block pass overwrites the row self.w views
            self._adapt(j + t, j + stop, w, u[t:stop], d[t:stop], split)
            last = stop - 1 if self.conventional else self._classify(j + t, j + stop) - j
            self.glob_block[j + t:j + last + 1] = self.glob
            if not self.conventional:
                self.reach = (1 if self.A1 is None else BLOCK if not self.active.size
                              else min(2 * self.reach, BLOCK))
                self._decide(None if uniforms is None else uniforms[last])
                if self.A1 is not split[0]:      # a crossing or a flip replaced the split
                    self._adapt(j + last, j + last + 1, self.w_block[j + last - 1] if last > t
                                else w, u[last:last + 1], d[last:last + 1], (self.A1, self.A2))
                    self.glob_block[j + last] = self.glob
            self.w = self.w_block[j + last].T
            check_divergence(self.w_block[j + t:j + last + 1].transpose(0, 2, 1), i + t)
            if self.stream is not None:
                self._stream_to(i + last + 1)
            t = last + 1
        if j + n == BLOCK or i + n == cfg.iterations:
            self._record(i - j, j + n)
        if self.err is not None:
            self.err[i:i + n] = (self.stacked[cfg.mean_error_vs]
                                 - self.w_block[j:j + n].transpose(0, 2, 1))

    def _adapt(self, start: int, stop: int, w: np.ndarray, u: np.ndarray,
               d: np.ndarray, split) -> None:
        """Updates and combines of block rows start .. stop - 1 from w (the row
        before start) under the split (A1, A2), A2 None for A alone."""
        # mu as a 0-d array: a ufunc converts a Python float on every call
        mu, error, psi, tmp = np.array(self.cfg.mu), self.error, self.psi, self.tmp
        multiply, add, subtract, reduce, dot = np.multiply, np.add, np.subtract, \
            np.add.reduce, np.dot
        A1, A2 = split
        for update, row, u_r, d_r in zip(self.updates[start:stop], self.w_block[start:stop],
                                         u, d):
            multiply(u_r, w, update)
            reduce(update, 0, None, error)
            subtract(d_r, error, error)
            multiply(u_r, error, update)
            multiply(update, mu, psi)
            add(psi, w, psi)
            dot(psi, A1, row)       # np.dot makes matmul's BLAS call into a given out
            if A2 is not None:
                add(row, dot(w, A2, tmp), row)
            w = row

    def _classify(self, start: int, stop: int) -> int:
        """Replays classification over block rows start .. stop - 1 and
        returns the last row it kept: the first at which a belief crossed
        0.5, else stop - 1.  The Grams are formed a batch of _gram_rows(N) rows
        at a time."""
        cfg, h_rows, batch = self.cfg, self.updates, len(self.grams)
        rows, h, keep = h_rows[start:stop], self.h_hat, np.array(1.0 - cfg.nu)
        rows *= cfg.nu
        add, multiply, tmp = np.add, np.multiply, self.tmp
        for h_r in rows:          # (1 - nu) h + nu update, in place of the updates
            add(h_r, multiply(h, keep, tmp), h_r)
            h = h_r
        far = np.add.reduce(rows * rows, 1) > cfg.eta ** 2
        edges = [start, *(np.flatnonzero((far[1:] != far[:-1]).any(1)) + start + 1), stop]
        for s, e in zip(edges, edges[1:]):     # runs of one far set
            if far[s - start].tobytes() != self.far:   # self.far holds the far set's bytes
                # flat indices of the active links; diagonal beliefs are never
                # active, so they stay 0.5
                self.far, self.rest = far[s - start].tobytes(), None
                self.active = np.flatnonzero(far[s - start, :, None] & far[s - start]
                                             & self.links)
            for a in range(s, e, batch):
                grams = self.grams[:min(batch, e - a)]
                np.matmul(h_rows[a:a + len(grams)].transpose(0, 2, 1),
                          h_rows[a:a + len(grams)], out=grams)
                crossed = self._update_beliefs(
                    a, grams.reshape(len(grams), -1).take(self.active, 1) > 0.0)
                if crossed is not None:
                    np.copyto(self.h_hat, h_rows[crossed])
                    return crossed
        np.copyto(self.h_hat, h_rows[stop - 1])
        return stop - 1

    def _update_beliefs(self, start: int, same: np.ndarray) -> int | None:
        """Belief updates of block rows start .. start + len(same) - 1, the
        rows of same holding their events on the active links; returns the
        first row at which a belief crossed 0.5 (fhat replaced, q and the
        split dropped), else None.  rest: the events of the last update if
        it moved no belief; a run of rows with the same events is skipped."""
        cfg, r = self.cfg, 0
        while r < len(same):
            if self.rest is not None:
                moving = np.flatnonzero((same[r:] != self.rest).any(1))
                if not moving.size:
                    return None
                r += moving[0]
            if self.stream is not None:
                self._stream_to(self.base + start + r)
            old = self.b.take(self.active)
            new = cfg.alpha * old + (1.0 - cfg.alpha) * same[r]
            self.b.put(self.active, new)
            self.rest = same[r] if new.tobytes() == old.tobytes() else None
            # fhat changes only where a belief crossed 0.5
            if (self.oracle_rel is None
                    and (new >= 0.5).tobytes() != (old >= 0.5).tobytes()):
                self.fhat, self.q, self.A1 = f_hat(self.b), None, None
                return start + r
            r += 1
        return None

    def _decide(self, uniforms: np.ndarray | None) -> None:
        """A row's sweep where its uniforms can flip an agent, then the split where dropped."""
        if uniforms is not None and self._can_flip(uniforms):   # then an agent flips
            self.g = decision_sweep(self.g, self.q, uniforms)
            self.glob, self.q, self.A1 = global_desires(self.g, self.f), None, None
        if self.A1 is None:
            A = (_fast_weight_matrix(self.graph, self.links, self.fhat == self.g[:, None])
                 if self.cfg.rule == "fast" else self.A)
            self.A1, self.A2 = split_matrices(A, self.fhat, self.g)

    def _can_flip(self, uniforms: np.ndarray) -> np.ndarray:   # per row, under q
        if self.q is None:
            self.q = keep_probabilities(self.graph, self.g, self.fhat, self.table,
                                        self.n_k, self.glob)
        return (uniforms >= self.q).any(-1)

    def _stream_to(self, stop: int) -> None:
        """Belief-stream rows up to iteration stop - 1 hold the current b."""
        self.stream[self.streamed:stop] = self.b
        self.streamed = stop

    def _record(self, start: int, n: int) -> None:
        """Metric records of iterations start .. start + n - 1; the sum over
        M adds rows in order and the sum over N runs along a contiguous axis,
        so each record is bit for bit that step's mean."""
        N, span, glob = self.cfg.N, slice(start, start + n), self.glob_block[:n]
        dev = self.w_block[:n, None] - self.stacked[None, :, :, None]   # (n, model, M, N)
        dev = np.add.reduce(np.square(dev, out=dev), 2)
        self.records[:2, span] = np.add.reduce(dev, 2).T / N
        if self.conventional:
            return
        self.sqd[span] = np.add.reduce(np.where(glob == 0, dev[:, 0], dev[:, 1]), 1) / N
        self.sqr[span] = np.add.reduce(np.where(glob == 0, dev[:, 1], dev[:, 0]), 1) / N
        share1 = np.add.reduce(glob, 1) / N
        self.frac[span] = np.maximum(share1, 1.0 - share1)


def _replica_static(cfg, adj, env, models, f, rng):
    """Fixed graph; Gaussian regressors u and measurement noise v per agent.
    Per iteration, N(M + 1) normals (u, then v) and, when decisions run, N
    quorum uniforms, drawn BLOCK iterations ahead in that order."""
    rep = _Replica(cfg, models, f)
    z = models.observed(f)
    decides = cfg.strategy != "conventional" and cfg.forced_desired is None
    normals = np.empty((BLOCK, z.size + cfg.N))
    uniforms = np.empty((BLOCK, cfg.N))
    normal, uniform = rng.standard_normal, rng.random
    for start in range(0, cfg.iterations, BLOCK):
        n = min(BLOCK, cfg.iterations - start)
        for normals_j, uniforms_j in zip(normals[:n], uniforms[:n]):
            normal(out=normals_j)
            if decides:
                uniform(out=uniforms_j)
        d, u = sample_data(z, env, normals[:n])
        rep.advance(start, adj, u, d, uniforms[:n] if decides else None)
    return rep


def _replica_fish(cfg, params, models, f, rng):
    """Moving agents: radius graph (a new object only when it changes, so the
    step keeps its caches meanwhile), range/bearing sensing of each agent's
    own target, then motion toward the new estimate."""
    rep = _Replica(cfg, models, f)
    z = models.observed(f)
    x = rng.uniform(-cfg.arena / 2.0, cfg.arena / 2.0, (cfg.N, 2))
    vel, adj = np.zeros((cfg.N, 2)), None
    u = np.tile(np.array([1.0, 0.0]), (cfg.N, 1))
    rep.trajectory = trajectory = np.empty((cfg.iterations, cfg.N, 6))

    for i in range(cfg.iterations):
        diff, dist = pairwise_offsets(x)     # x moves only after cohesion_all
        graph = radius_adjacency(dist, cfg.comm_radius)
        adj = adj if np.array_equal(graph, adj) else graph   # one object while it holds
        d, u = measure_target(x, u, z, params.kappa, params.sigma_angle, rng)
        uniforms = rng.random((1, cfg.N)) if cfg.forced_desired is None else None
        rep.advance(i, adj, u.T[None], d[None], uniforms)
        x, vel = update_motion(x, vel, rep.w, rep.A,
                               cohesion_all(diff, dist, rep.links, params.d_s), params)
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
            del chain                   # P is freed before the next one is built
    return rows


def run_classify_bench(cfg: ScenarioConfig) -> dict:
    """Far/near-field classification benchmark against the analytic bounds;
    arithmetic that overflows or makes a NaN is refused, not reported from."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rng = np.random.default_rng(cfg.seed)
            models = ModelPair(np.array(cfg.w0), np.array(cfg.w1))
            ru_diag = rng.uniform(cfg.ru_range[0], cfg.ru_range[1], cfg.M)
            env = AgentEnvironment(ru_diag, sigma_v2=np.array([1e-2]))
            tau_hat = estimate_tau(env, models, max(10_000, cfg.bench_trials // 2), rng)
            pd_lo, pf_hi = pd_pf_bounds(cfg.nu, tau_hat)
            gap = models.w0 - models.w1
            w_far = models.w0 - cfg.bench_distance * (gap / np.linalg.norm(gap))
            mid = 0.5 * (models.w0 + models.w1)
            # the P_d pair (w0, w0, w_far) and the P_f pair (w0, w1, mid), one set of draws
            rates = direction_pair_benchmark(models.w0, np.stack([models.w0, models.w1]),
                                             np.stack([w_far, mid]), env, cfg.nu, cfg.eta,
                                             cfg.bench_trials, rng)
            # P_d and P_f are rates given that both agents are in the far field
            for pair, rate in enumerate(("P_d", "P_f")):
                if rates["p_e1"][pair] + rates["p_e1c"][pair] == 0.0:
                    raise ConfigError(
                        f"no trial of the {rate} pair put both agents in the far field "
                        f"(eta = {cfg.eta:g}), so its empirical {rate} is undefined: the "
                        f"P_d pair's estimate sits bench_distance = {cfg.bench_distance:g} "
                        "from its model, the P_f pair's midway between w0 and w1")
            return {
                "tau_hat": tau_hat,
                "pd_lower_bound": pd_lo,
                "pf_upper_bound": pf_hi,
                "empirical_pd": float(rates["p_e1"][0]),
                "empirical_pf": float(rates["p_e1"][1]),
                "empirical_far_rate": float(rates["p_far_k"][0]),
            }
    except FloatingPointError as exc:
        raise ConfigError(f"classify-bench arithmetic failed ({exc}): w0, w1, ru_range "
                          "and bench_distance are out of a float's range together") from exc


# ---------------------------------------------------------------------------
# persistence

def _write_csv(path: str, header: str, lines) -> None:
    """Lines end in csv's CR LF; no field (an int or a float's repr) needs quoting."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(lines)


def write_msd_csv(path: str, trace: TraceSet) -> None:
    columns = trace.msd0_db, trace.msd1_db, trace.msd_desired_db, trace.agreement_fraction
    _write_csv(path, "iteration,msd0_db,msd1_db,msd_desired_db,agreement_fraction",
               (f"{start + j},{a!r},{b!r},{c!r},{e!r}\r\n"
                for start in range(0, trace.msd0_db.size, BLOCK)
                for j, (a, b, c, e) in enumerate(zip(*(col[start:start + BLOCK].tolist()
                                                     for col in columns)))))


def write_beliefs_csv(path: str, trace: TraceSet) -> None:
    if trace.belief_stream is None:
        raise ValueError("trace has no belief stream (record_beliefs off)")
    adj = trace.topology.adjacency
    # (observer k, neighbour l != k) pairs, k major: the nonzeros of links.T
    observer, neighbor = np.nonzero(link_mask(adj).T)
    pairs = [f"{k},{l}," for k, l in zip(observer.tolist(), neighbor.tolist())]
    _write_csv(path, "iteration,observer,neighbor,belief,f_hat",
               (f"{i},{pair}{v!r},{int(v >= 0.5)}\r\n"
                for i, b in enumerate(trace.belief_stream)
                for pair, v in zip(pairs, b[observer, neighbor].tolist())))


def write_trajectory_csv(path: str, trace: TraceSet) -> None:
    if trace.trajectory is None:
        raise ValueError("trace has no trajectory (not a fish run)")
    _write_csv(path, "step,agent,x1,x2,v1,v2,g_global,msd_to_target",
               (f"{i},{k},{x1!r},{x2!r},{v1!r},{v2!r},{int(g)},{msd!r}\r\n"
                for i, step in enumerate(trace.trajectory)
                for k, (x1, x2, v1, v2, g, msd) in enumerate(step.tolist())))


def write_mean_error_csv(path: str, trace: TraceSet) -> None:
    if trace.mean_error_norm is None:
        raise ValueError("trace has no mean error (mean_error_vs unset)")
    _write_csv(path, "iteration,mean_error_norm",
               (f"{i},{v!r}\r\n" for i, v in enumerate(trace.mean_error_norm.tolist())))


def write_chain_sweep_csv(path: str, rows: list[dict]) -> None:
    _write_csv(path, "N,K,rho_Q,mean_absorption",
               (f"{row['N']},{row['K']},{row['rho_Q']!r},{row['mean_absorption']!r}\r\n"
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
