"""Randomized configs through the CLI: every one ends in a documented exit
code (0 ok, 2 config, 3 divergence, 4 I/O) and never in a traceback.

Each config mutates one to three fields of a small valid base.  Sizes stay
small (N <= 12, iterations <= 30, replicas <= 2, sweep_N <= 30,
bench_trials <= 500, nu >= 0.01): N, iterations, sweep_N and bench_trials
have no size refusal yet, and classify-bench runs ceil(8 / nu) steps, so a
large value (or a tiny nu) would only measure memory or time.
"""
import dataclasses
import json
import random

import pytest

from diffnet.cli import main as cli_main
from diffnet.harness import KIND_FIELDS, ScenarioConfig

BASES = {
    "simulate": dict(N=8, M=2, w0=[1.0, 0.0], w1=[0.0, 1.0], split=4, mu=0.02,
                     nu=0.2, alpha=0.9, eta=0.3, K=2, iterations=10, replicas=1,
                     seed=5, mean_degree=4.0),
    "fish": dict(kind="fish", N=8, M=2, w0=[10.0, 10.0], w1=[-10.0, 10.0],
                 split=4, mu=0.02, nu=0.2, eta=1.0, iterations=20, replicas=1,
                 comm_radius=8.0, motion=dict(dt=0.1, kappa=0.01)),
    "analyze-chain": dict(kind="chain_sweep", sweep_N=[4, 6], sweep_K=[1, 2]),
    "classify-bench": dict(kind="classify_bench", bench_trials=200),
}
# wrong types, None, booleans, strings, lists, zero and negative values;
# every number here is small enough to be a safe size
GENERIC = [None, True, False, "x", "3", [], [1.0], [1.0, "a"], {}, 0, 1, 2, -1,
           0.0, 0.5, 1.5, -0.5, 2.0]
SPECIFIC = {
    "kind": ["fish", "chain_sweep", "classify_bench", "static_two_model", "bogus"],
    "N": [2, 3, 5, 12],
    "M": [1, 3, 4],
    "w0": [[1.0, 1.0], [0.0, 1.0], [1.0, 0.0, 0.0], [5.0, -5.0, 5.0, 5.0], [None, 1.0]],
    "w1": [[1.0, 0.0], [1e3, -1e3], [5.0, 5.0, -5.0, 5.0], ["a", "b"]],
    "split": [0, 8, 12, 4.0],
    "strategy": ["conventional", "modified", "modified_fast_weights", "quantum"],
    "rule": ["uniform", "fast", "slow"],
    "mu": [1e-4, 0.3, 10.0],
    "nu": [0.01, 0.99, 1.0],
    "alpha": [0.01, 0.999, 1.0],
    "eta": [1e-6, 100.0],
    "K": [1, 7, 50, 200, 1000],
    "beta": [[1.0, 4.0], [0.1, 1e3], [1.0], [0.0, 1.0], 1e-3, 1e3],
    "iterations": [1, 30],
    "replicas": [2],
    "seed": [0, 7, 2**31, -3],
    "mean_degree": [2, 11.0, 100.0],
    "ru_range": [[0.5, 1.0], [2.0, 1.0], [1.0], [0.0, 1.0], ["a", 1.0]],
    "noise_db_range": [[-20.0, -10.0], [10.0, 20.0], [-5.0]],
    "record_beliefs": [True],
    "oracle_classification": [True],
    "forced_desired": [0, 1, 2],
    "mean_error_vs": [0, 1, 2],
    "motion": [{"dt": -0.1}, {"speed": 1.0}, {"dt": 0.5, "gamma": 0.0},
               {"kappa": 0.0}, {"d_s": 0.0}],
    "comm_radius": [0.0, 1.0, 100.0],
    "arena": [0.0, 1.0, 1e3],
    "sweep_N": [[2], [30], [2, 30], [1], [0], [4.0], [[4]]],
    "sweep_K": [[1000], [200, 1], [3], [0], [-2], [2.5]],
    "bench_trials": [1, 500],
    "bench_distance": [1e-6, 1e3],
}
FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig) if f.name != "out"]
CASES = 80      # per subcommand


def mutated_configs(command, rng):
    """Mostly fields the kind reads, and mostly values of the right kind, so
    that runs as well as refusals are exercised."""
    kind = BASES[command].get("kind", "static_two_model")
    reads = [*KIND_FIELDS[kind], "seed"]
    for _ in range(CASES):
        doc = dict(BASES[command])
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(reads if rng.random() < 0.85 else FIELDS)
            specific = SPECIFIC.get(name, [])
            doc[name] = rng.choice(specific if specific and rng.random() < 0.6
                                   else GENERIC)
        yield doc


@pytest.mark.parametrize("command", list(BASES))
def test_random_configs_end_in_documented_exit_codes(tmp_path, command):
    rng = random.Random(f"fuzz-{command}")
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    codes = []
    for doc in mutated_configs(command, rng):
        cfg_path.write_text(json.dumps(doc))
        try:
            code = cli_main([command, "--config", str(cfg_path), "--out", str(out)])
        except Exception as exc:   # a traceback is the failure under test
            pytest.fail(f"{doc} raised {exc!r}")
        assert code in (0, 2, 3, 4), doc
        codes.append(code)
    assert 0 in codes and 2 in codes   # both valid and refused configs occur
