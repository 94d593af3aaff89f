import csv
import json
import math
import subprocess

import numpy as np
import pytest

from diffnet import harness
from diffnet.classification import classify_event, f_hat, update_belief, \
    update_direction
from diffnet.cli import main as cli_main
from diffnet.decision import decide, global_desires, quorum_prob, \
    quorum_set_size, translate_neighbor_g
from diffnet.diffusion import atc_adapt, atc_combine, modified_combine, \
    split_weights
from diffnet.harness import (
    ConfigError, ScenarioConfig, _fast_weight_matrix, _git_stamp, agreement_time,
    msd_db, preset, run_chain_sweep, run_scenario, write_beliefs_csv,
    write_chain_sweep_csv, write_meta, write_msd_csv, write_trajectory_csv,
)
from diffnet.network import ModelPair, Topology, complete_topology, \
    uniform_weights


# a conventional run refuses the decision layer's fields unless at their defaults
CONVENTIONAL = dict(strategy="conventional", nu=0.05, alpha=0.95, eta=1.0, K=4)


def small_config(**overrides):
    base = dict(N=8, M=2, w0=[1.0, 0.0], w1=[0.0, 1.0], split=4,
                mu=0.02, nu=0.2, alpha=0.9, eta=0.3, K=2,
                iterations=60, replicas=2, seed=123, mean_degree=4.0)
    base.update(overrides)
    return ScenarioConfig(**base).validate()


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ScenarioConfig(kind="nonsense").validate()
    with pytest.raises(ConfigError):
        small_config(split=9)
    with pytest.raises(ConfigError):
        small_config(beta=-1.0)
    with pytest.raises(ConfigError):
        small_config(w0=[1.0, 0.0], w1=[1.0, 0.0])
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"bogus_field": 1})
    with pytest.raises(ConfigError):
        small_config(strategy="quantum")


def test_presets_valid_and_faithful():
    for name in ("bifurcation", "beliefs", "quorum_k1", "fast_weights", "school"):
        cfg = preset(name)
        assert cfg.N == 40
        assert cfg.alpha == 0.95 and cfg.eta == 1.0
    bifurcation = preset("bifurcation")
    assert bifurcation.w0 == [5.0, -5.0, 5.0, 5.0] and bifurcation.w1 == [5.0, 5.0, -5.0, 5.0]
    assert bifurcation.M == 4 and bifurcation.split == 20
    assert (bifurcation.mu, bifurcation.nu, bifurcation.K) == (0.005, 0.05, 4)
    assert bifurcation.ru_range == (1.0, 2.0)
    assert bifurcation.noise_db_range == (-35.0, -5.0)
    assert preset("quorum_k1").K == 1
    assert preset("fast_weights").rule == "fast"
    assert preset("school").kind == "fish"
    with pytest.raises(ConfigError):
        preset("bogus")


def test_stability_refusal():
    with pytest.raises(ConfigError, match="stability"):
        run_scenario(small_config(mu=1.5))


def test_msd_values():
    assert msd_db(0.0) == -120.0
    assert msd_db(1e-13) == -120.0
    assert msd_db(1.0) == pytest.approx(0.0)
    # two agents with squared deviations 1 and 3
    assert msd_db(np.mean([1.0, 3.0])) == pytest.approx(10 * math.log10(2.0))


def test_agreement_time_cases():
    assert agreement_time(np.array([True, True, True])) == 0.0
    assert agreement_time(np.array([False, True, True])) == 1.0
    assert agreement_time(np.array([True, False, True])) == 2.0
    assert agreement_time(np.array([True, True, False])) == math.inf
    assert agreement_time(np.array([], dtype=bool)) == math.inf


def test_fast_weights_star_graph():
    n = 5
    adj = np.zeros((n, n), dtype=bool)
    adj[0] = True
    adj[:, 0] = True
    np.fill_diagonal(adj, True)
    topo = Topology(adj)
    f = np.array([1, 0, 0, 0, 0])  # only the hub informed
    A = _fast_weight_matrix(topo.adjacency, np.tile(f == 1, (n, 1)))
    # leaves put all weight on the hub; hub keeps weight on itself
    for leaf in range(1, n):
        assert A[0, leaf] == 1.0
        assert A[leaf, leaf] == 0.0
    assert A[0, 0] == 1.0
    assert np.allclose(A.sum(axis=0), 1.0)


def test_fast_weights_all_informed_uniform():
    topo = complete_topology(4)
    A = _fast_weight_matrix(topo.adjacency, np.ones((4, 4), dtype=bool))
    assert np.allclose(A, 0.25)


def test_golden_trace_regression():
    # frozen short-run outputs; any change to the per-iteration pipeline
    # order or RNG consumption shows up here
    tr = run_scenario(small_config())
    assert tr.msd0_db[0] == pytest.approx(-0.18034757815396507, abs=1e-12)
    assert tr.msd0_db[20] == pytest.approx(-2.6965521888518387, abs=1e-12)
    assert tr.msd_desired_db[59] == pytest.approx(-9.076647482408582, abs=1e-12)
    assert tr.agreement_fraction[59] == 1.0
    assert tr.agreement_times.tolist() == [22.0, 26.0]
    assert tr.final_w_mean[0, 0] == pytest.approx(0.43936800667316295, abs=1e-14)


@pytest.mark.parametrize("strategy", ["modified", "conventional"])
def test_step_matches_per_agent_reference(strategy):
    # one replica rebuilt agent by agent from the library's scalar functions,
    # drawing from the replica generator in the engine's order: u, v, then
    # (modified only) one quorum uniform per agent
    cfg = small_config(replicas=1, iterations=20,
                       **(CONVENTIONAL if strategy == "conventional" else {}))
    tr = run_scenario(cfg)
    N, M = cfg.N, cfg.M
    adj = tr.topology.adjacency
    A = uniform_weights(tr.topology)
    z = ModelPair(cfg.w0, cfg.w1).observed(tr.f)
    chol_t = tr.env.ru_chol.T
    sigma_v = np.sqrt(tr.env.sigma_v2)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])

    w, h = np.zeros((N, M)), np.zeros((N, M))
    b = np.full((N, N), 0.5)
    g = np.ones(N, dtype=int)
    for _ in range(cfg.iterations):
        u = rng.standard_normal((N, M)) @ chol_t
        v = sigma_v * rng.standard_normal(N)
        psi = np.array([atc_adapt(w[k], u[k] @ z[k] + v[k], u[k], cfg.mu)
                        for k in range(N)])
        if strategy == "conventional":
            w = np.array([atc_combine(psi, A[:, k]) for k in range(N)])
            continue
        h = np.array([update_direction(h[k], psi[k], w[k], cfg.mu, cfg.nu)
                      for k in range(N)])
        for k in range(N):
            for l in np.flatnonzero(adj[:, k]):
                if l != k:
                    event = classify_event(h[k], h[l], cfg.eta)
                    b[k, l] = update_belief(b[k, l], event, cfg.alpha)
        fh = np.array([[1 if l == k else f_hat(b[k, l]) for l in range(N)]
                       for k in range(N)])
        g_prev = g.copy()
        for k in range(N):
            hood = np.flatnonzero(adj[:, k])
            n_g = quorum_set_size([translate_neighbor_g(g_prev[l], fh[k, l])
                                   for l in hood], g_prev[k])
            q = quorum_prob(n_g, hood.size, cfg.K, cfg.beta)
            g[k] = decide(g_prev[k], q, rng)
        w_prev, w = w, np.empty((N, M))
        for k in range(N):
            a1, a2 = split_weights(A[:, k], fh[k], g[k])
            w[k] = modified_combine(psi, w_prev, a1, a2)

    if strategy == "conventional":
        assert tr.final_beliefs is None
        assert np.abs(tr.final_w_mean - w).max() < 1e-10
        return
    assert (b != 0.5).any()
    assert np.array_equal(tr.final_global_desires[0], global_desires(g, tr.f))
    assert np.abs(tr.final_w_mean - w).max() < 1e-10
    assert np.abs(tr.final_beliefs[0] - b).max() < 1e-10


def test_step_keeps_kernel_invariants(monkeypatch):
    # after every step of a static and of a fish replica: desires match the
    # library projection, the metric records equal a fresh ndarray.mean of
    # the distances, diagonal beliefs never move, and the graph masks belong
    # to the adjacency of that step (the school's changes as it moves)
    step, graphs = harness._Replica.step, []

    def checked(rep, i, adj, A, u, d, rng):
        step(rep, i, adj, A, u, d, rng)
        assert np.array_equal(rep.glob, global_desires(rep.g, rep.f))
        for record, model in ((rep.sq0, rep.stacked[0]), (rep.sq1, rep.stacked[1]),
                              (rep.sqd, rep.stacked[rep.glob]),
                              (rep.sqr, rep.stacked[1 - rep.glob])):
            assert record[i] == ((rep.w - model) ** 2).sum(axis=1).mean()
        assert (np.diag(rep.b) == 0.5).all()
        assert rep.graph is adj
        assert np.array_equal(rep.links, adj & ~np.eye(len(adj), dtype=bool))
        graphs.append(adj.copy())

    monkeypatch.setattr(harness._Replica, "step", checked)
    run_scenario(small_config(replicas=1, iterations=30))
    assert all(np.array_equal(adj, graphs[0]) for adj in graphs)
    graphs.clear()
    run_scenario(small_school(iterations=30, comm_radius=4.0))
    assert len(graphs) == 30
    assert not all(np.array_equal(adj, graphs[0]) for adj in graphs)


def test_determinism_and_seed_sensitivity():
    a = run_scenario(small_config())
    b = run_scenario(small_config())
    assert np.array_equal(a.msd_desired_db, b.msd_desired_db)
    c = run_scenario(small_config(seed=124))
    assert not np.array_equal(a.msd_desired_db, c.msd_desired_db)


def test_mean_error_track_decreases():
    cfg = small_config(oracle_classification=True, forced_desired=1,
                       mean_error_vs=1, iterations=400, replicas=4)
    tr = run_scenario(cfg)
    assert tr.mean_error_norm is not None
    assert tr.mean_error_norm[-1] < 0.1 * tr.mean_error_norm[0]


def test_conventional_traces_have_no_decision_metrics():
    tr = run_scenario(small_config(**CONVENTIONAL))
    assert tr.agreement_times is None
    assert np.isnan(tr.agreement_fraction).all()


def test_fish_scenario_runs():
    cfg = preset("school")
    cfg.N, cfg.split, cfg.iterations = 10, 5, 300
    cfg.seed = 1
    tr = run_scenario(cfg)
    assert tr.trajectory.shape == (300, 10, 6)
    assert np.isfinite(tr.msd_desired_db).all()
    g = tr.trajectory[-1, :, 4]
    assert (g == g[0]).all()  # school agreed


def small_school(**overrides):
    cfg = preset("school")
    cfg.N, cfg.split, cfg.iterations, cfg.seed = 8, 4, 80, 1
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return cfg.validate()


@pytest.mark.parametrize("field, value", [
    ("rule", "fast"),
    ("K", 1),
    ("oracle_classification", True),
    ("forced_desired", 0),
    ("beta", [1.0, 4.0]),
])
def test_fish_honours_shared_step_options(field, value):
    base = run_scenario(small_school())
    tr = run_scenario(small_school(**{field: value}))
    assert not np.array_equal(base.final_w_mean, tr.final_w_mean)


def test_fish_tracks_mean_error():
    tr = run_scenario(small_school(mean_error_vs=0))
    assert tr.mean_error_norm.shape == (80,)
    assert run_scenario(small_school()).mean_error_norm is None


@pytest.mark.parametrize("field, value", [
    ("strategy", "conventional"),
    ("record_beliefs", True),
    ("mean_degree", 3.0),
    ("ru_range", [0.5, 1.0]),
    ("noise_db_range", [-20.0, -10.0]),
    ("M", 3),
    ("motion", {"dt": -0.1}),
    ("motion", {"speed": 1.0}),
    ("w0", ["a", 10.0]),
    ("arena", -1.0),
])
def test_fish_rejects_options_it_cannot_honour(tmp_path, field, value):
    doc = dict(preset("school").to_dict(), **{field: value})
    if field == "M":
        doc.update(w0=[1.0, 0.0, 0.0], w1=[0.0, 1.0, 0.0])
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(doc)
    path = tmp_path / "fish.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["fish", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2


def test_cli_fish_rejects_conventional_flag(tmp_path):
    assert cli_main(["fish", "--preset", "school", "--strategy",
                     "conventional", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "msd.csv").exists()


def test_chain_sweep_report():
    cfg = ScenarioConfig(kind="chain_sweep", sweep_N=[4, 6], sweep_K=[1, 2, 3])
    rows = run_chain_sweep(cfg)
    assert len(rows) == 6
    for N in (4, 6):
        rhos = [r["rho_Q"] for r in rows if r["N"] == N]
        assert all(b < a for a, b in zip(rhos, rhos[1:]))


def test_csv_and_meta_writers(tmp_path):
    cfg = small_config(record_beliefs=True)
    tr = run_scenario(cfg)
    msd_path = tmp_path / "msd.csv"
    write_msd_csv(msd_path, tr)
    with open(msd_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "msd0_db", "msd1_db", "msd_desired_db",
                       "agreement_fraction"]
    assert len(rows) == 61
    assert float(rows[1][1]) == tr.msd0_db[0]

    beliefs_path = tmp_path / "beliefs.csv"
    write_beliefs_csv(beliefs_path, tr)
    with open(beliefs_path) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["iteration", "observer", "neighbor", "belief", "f_hat"]

    meta_path = tmp_path / "meta.json"
    write_meta(meta_path, cfg)
    meta = json.loads(meta_path.read_text())
    assert meta["config"]["N"] == 8
    assert "version" in meta

    sweep_path = tmp_path / "chain_sweep.csv"
    write_chain_sweep_csv(sweep_path, [
        {"N": 4, "K": 1, "rho_Q": 0.5, "mean_absorption": 2.0}])
    assert sweep_path.read_text().splitlines()[0] == \
        "N,K,rho_Q,mean_absorption"


def test_trajectory_writer(tmp_path):
    cfg = preset("school")
    cfg.N, cfg.split, cfg.iterations, cfg.seed = 6, 3, 20, 1
    tr = run_scenario(cfg)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, tr)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "agent", "x1", "x2", "v1", "v2",
                       "g_global", "msd_to_target"]
    assert len(rows) == 1 + 20 * 6
    for row in rows[1:]:
        assert [float(field) for field in row]  # every field is a plain number


def test_cli_simulate_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(
        N=8, M=2, w0=[1.0, 0.0], w1=[0.0, 1.0], split=4, mu=0.02, nu=0.2,
        alpha=0.9, eta=0.3, K=2, iterations=40, replicas=1, seed=5,
        mean_degree=4.0)))
    out = tmp_path / "run"
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    assert (out / "msd.csv").exists()
    assert (out / "meta.json").exists()

    # config errors -> 2
    bad = tmp_path / "bad.json"
    bad.write_text("{\"kind\": \"nonsense\"}")
    assert cli_main(["simulate", "--config", str(bad),
                     "--out", str(out)]) == 2
    assert cli_main(["simulate", "--config", str(cfg_path), "--preset",
                     "bifurcation", "--out", str(out)]) == 2
    missing = tmp_path / "missing.json"
    assert cli_main(["simulate", "--config", str(missing),
                     "--out", str(out)]) == 2
    # a conventional run with the decision layer's fields at their defaults
    conv_path = tmp_path / "conv.json"
    conv_path.write_text(json.dumps(dict(json.loads(cfg_path.read_text()), **CONVENTIONAL)))
    assert cli_main(["simulate", "--config", str(conv_path),
                     "--out", str(tmp_path / "conv")]) == 0
    # kind mismatch across subcommands -> 2
    assert cli_main(["fish", "--config", str(cfg_path),
                     "--out", str(out)]) == 2


@pytest.mark.parametrize("command, overrides", [
    ("simulate", {"mean_error_vs": 2}),
    ("simulate", {"mean_error_vs": 1.0}),
    ("simulate", {"beta": [2.0]}),
    ("simulate", {"beta": [1.0, "2"]}),
    ("simulate", {"N": "8"}),
    ("simulate", {"replicas": True}),
    ("simulate", {"split": 4.0}),
    ("simulate", {"mu": "0.02"}),
    ("simulate", {"mean_degree": 1.5}),
    ("simulate", {"N": 40, "split": 20, "mean_degree": 2.0}),  # TopologyError
    ("simulate", {"comm_radius": 0.5}),
    ("simulate", {"arena": 1.0}),
    ("simulate", {"motion": {"dt": 9.0}}),
    ("simulate", {"sweep_N": [1]}),
    ("simulate", {"sweep_K": [[1], [2, 3]]}),
    ("simulate", {"bench_trials": 3}),
    ("simulate", {"bench_distance": 2.0}),
    ("analyze-chain", {"sweep_N": [1]}),
    ("analyze-chain", {"sweep_K": [0]}),
    ("analyze-chain", {"sweep_K": []}),
    ("analyze-chain", {"sweep_N": 4}),
    ("analyze-chain", {"sweep_N": [4.5]}),
    ("simulate", {"w0": ["a", 1.0]}),
    ("simulate", {"w1": [0.0, None]}),
    ("simulate", {"ru_range": [-1.0, -0.5]}),
    ("simulate", {"noise_db_range": ["a", -5.0]}),
    pytest.param("simulate", {"noise_db_range": [-5.0, -35.0]},
                 id="simulate-noise_db_range-reversed"),
    pytest.param("simulate", {"ru_range": [2.0, 1.0]}, id="simulate-ru_range-reversed"),
    ("simulate", {"seed": -3}),
    ("classify-bench", {"--seed": -1}),
    ("analyze-chain", {"N": 7, "mu": 9.0, "replicas": 3}),
    ("analyze-chain", {"strategy": "conventional"}),
    ("classify-bench", {"bench_trials": 0}),
    ("classify-bench", {"bench_distance": 0.0}),
    ("classify-bench", {"M": 2}),
    ("classify-bench", {"w0": [5.0, 5.0, "x", 5.0]}),
    ("classify-bench", {"w1": [5.0, -5.0, 5.0, 5.0]}),   # equals w0
    ("classify-bench", {"ru_range": [1.0]}),
    ("classify-bench", {"replicas": 3}),
    ("simulate", dict(CONVENTIONAL, rule="fast")),
    ("simulate", dict(CONVENTIONAL, oracle_classification=True, forced_desired=0)),
    ("simulate", dict(CONVENTIONAL, beta=3.0)),
    ("simulate", dict(CONVENTIONAL, record_beliefs=True)),
    ("simulate", {"--strategy": "conventional"}),  # the base's nu, alpha, eta, K
    ("analyze-chain", {"--replicas": 7}),         # "--" keys are CLI flags
    ("analyze-chain", {"--strategy": "conventional"}),
    ("classify-bench", {"--iterations": 5}),
], ids=lambda v: "-".join(v) if isinstance(v, dict) else v)
def test_cli_refuses_bad_config(tmp_path, command, overrides):
    doc = {"simulate": dict(N=8, M=2, w0=[1.0, 0.0], w1=[0.0, 1.0], split=4,
                            mu=0.02, nu=0.2, alpha=0.9, eta=0.3, K=2, iterations=10,
                            replicas=1, seed=5, mean_degree=4.0),
           "analyze-chain": dict(kind="chain_sweep", sweep_N=[4], sweep_K=[1]),
           "classify-bench": dict(kind="classify_bench", bench_trials=200)}[command]
    flags = [str(s) for k, v in overrides.items() if k.startswith("--") for s in (k, v)]
    fields = {k: v for k, v in overrides.items() if not k.startswith("--")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(doc, **fields)))
    out = tmp_path / "o"
    assert cli_main([command, "--config", str(cfg_path), *flags, "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_classify_bench(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(kind="classify_bench", bench_trials=200)))
    out = tmp_path / "bench"
    assert cli_main(["classify-bench", "--config", str(cfg_path), "--seed", "3",
                     "--out", str(out)]) == 0
    report = json.loads((out / "classify_bench.json").read_text())
    assert all(math.isfinite(value) for value in report.values())


def test_static_accepts_other_kinds_fields_at_their_defaults():
    doc = dict(ScenarioConfig().to_dict(), comm_radius=5, motion={},
               sweep_N=[4, 6, 8], bench_trials=100_000, ru_range=[1.0, 2.0])
    assert ScenarioConfig.from_dict(doc).comm_radius == 5


def test_cli_stability_refusal(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(
        N=8, M=2, w0=[1.0, 0.0], w1=[0.0, 1.0], split=4, mu=1.5, nu=0.2,
        alpha=0.9, eta=0.3, K=2, iterations=10, replicas=1, seed=5,
        mean_degree=4.0)))
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2


def test_cli_nan_estimate_diverges(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(
        N=8, M=2, w0=[float("nan"), 0.0], w1=[0.0, 1.0], split=4, mu=0.02,
        nu=0.2, alpha=0.9, eta=0.3, K=2, iterations=10, replicas=1, seed=5,
        mean_degree=4.0)))
    out = tmp_path / "o"
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(out)]) == 3
    assert not (out / "msd.csv").exists()


def test_git_stamp_survives_timeout(monkeypatch):
    def hang(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))
    monkeypatch.setattr(subprocess, "run", hang)
    assert _git_stamp() is None


def test_cli_analyze_chain(tmp_path):
    out = tmp_path / "chain"
    assert cli_main(["analyze-chain", "--seed", "3", "--out", str(out)]) == 0
    with open(out / "chain_sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "K", "rho_Q", "mean_absorption"]
    assert len(rows) > 1


def test_cli_large_quorum_exponent(tmp_path):
    # (beta n_g)^K overflows at these sizes; it used to turn q into NaN
    cfg_path = tmp_path / "chain.json"
    cfg_path.write_text(json.dumps(dict(kind="chain_sweep", sweep_N=[100],
                                        sweep_K=[200])))
    out = tmp_path / "chain"
    assert cli_main(["analyze-chain", "--config", str(cfg_path), "--out", str(out)]) == 0
    with open(out / "chain_sweep.csv") as fh:
        row = list(csv.DictReader(fh))[0]
    # large-K limit: only the tied count n = 50 stays transient, as a fair coin
    assert float(row["rho_Q"]) == pytest.approx(math.comb(100, 50) / 2 ** 100, rel=1e-9)

    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(dict(N=40, mean_degree=20, K=400, iterations=150,
                                        replicas=1, seed=7)))
    out = tmp_path / "sim"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    with open(out / "msd.csv") as fh:
        assert float(list(csv.DictReader(fh))[-1]["agreement_fraction"]) == 1.0


def test_cli_determinism(tmp_path):
    args = ["simulate", "--preset", "beliefs", "--seed", "7",
            "--iterations", "30", "--replicas", "1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    assert (out1 / "msd.csv").read_bytes() == (out2 / "msd.csv").read_bytes()
    assert (out1 / "beliefs.csv").read_bytes() == \
        (out2 / "beliefs.csv").read_bytes()
