import collections
import csv
import dataclasses
import json
import math
import re
import subprocess
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from diffnet import harness
from diffnet.classification import f_hat
from diffnet.cli import main as cli_main
from diffnet.decision import global_desires, quorum_prob
from diffnet.diffusion import DivergenceError, split_matrices
from diffnet.harness import (
    KIND_FIELDS, ConfigError, ScenarioConfig, _fast_weight_matrix, _git_stamp,
    agreement_time, preset, run_chain_sweep, run_classify_bench,
    run_scenario, write_beliefs_csv, write_chain_sweep_csv, write_mean_error_csv,
    write_meta, write_msd_csv, write_trajectory_csv,
)
from diffnet.mobility import cohesion_all, measure_target, pairwise_offsets, \
    radius_adjacency, update_motion
from diffnet.network import ModelPair, Topology, complete_topology, \
    uniform_weights
from oracle import atc_adapt, atc_combine, classify_event, decide, modified_combine, \
    msd_db, quorum_set_size, split_weights, translate_neighbor_g, update_belief, \
    update_direction


# a conventional run refuses the decision layer's fields unless at their defaults
CONVENTIONAL = dict(strategy="conventional", nu=0.05, alpha=0.95, eta=1.0, K=4)


def small_config(**overrides):
    base = dict(N=8, w0=[1.0, 0.0], w1=[0.0, 1.0], split=4,
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


def test_db_conversion_matches_msd_db_bit_for_bit():
    # run_scenario converts whole records at once; each value equals
    # msd_db's, at the floor, on either side of it and for NaN too
    floor = 10 ** (harness.MSD_FLOOR_DB / 10.0)
    rng = np.random.default_rng(15)
    values = np.concatenate([
        10.0 ** rng.uniform(-14, 6, 5000), rng.random(1000),
        [0.0, np.nan, floor, np.nextafter(floor, 0.0), np.nextafter(floor, 1.0)]])
    out = harness._db(values)
    expected = np.array([msd_db(v) for v in values.tolist()])
    assert out.dtype == float and out.tobytes() == expected.tobytes()
    assert out[[-5, -3, -2]].tolist() == [-120.0] * 3 and np.isnan(out[-4])


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
    A = _fast_weight_matrix(topo.adjacency, topo.adjacency & ~np.eye(n, dtype=bool),
                            np.tile(f == 1, (n, 1)))
    # leaves put all weight on the hub; hub keeps weight on itself
    for leaf in range(1, n):
        assert A[0, leaf] == 1.0
        assert A[leaf, leaf] == 0.0
    assert A[0, 0] == 1.0
    assert np.allclose(A.sum(axis=0), 1.0)


def test_fast_weights_all_informed_uniform():
    topo = complete_topology(4)
    A = _fast_weight_matrix(topo.adjacency, ~np.eye(4, dtype=bool),
                            np.ones((4, 4), dtype=bool))
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


def test_golden_school_and_analyses():
    # frozen outputs of the fish engine, the chain sweep and the
    # classification benchmark, which the static golden run does not reach
    school = run_scenario(small_school(iterations=40, seed=3))
    assert school.agreement_times.tolist() == [32.0]
    for index, value in [((0, 0, 0), -7.996502666464335),
                         ((0, 0, 1), 2.4699469283394393),
                         ((20, 3, 5), 362.05280875771996),
                         ((39, 5, 2), 0.16265755323951647),
                         ((39, 7, 0), 1.2549345532244423),
                         ((39, 7, 3), 0.3667643728055345)]:
        assert school.trajectory[index] == pytest.approx(value, abs=1e-12)

    rows = run_chain_sweep(ScenarioConfig(kind="chain_sweep", sweep_N=[4, 6],
                                          sweep_K=[1, 2]))
    frozen = [(4, 1, 0.7500000000000009, 3.9770114942528743),
              (4, 2, 0.49600994375736995, 2.0438891558545573),
              (6, 1, 0.8333333333333336, 5.924141950004021),
              (6, 2, 0.49959824437847405, 2.1828297066966162)]
    for row, (N, K, rho, absorption) in zip(rows, frozen, strict=True):
        assert (row["N"], row["K"]) == (N, K)
        assert row["rho_Q"] == pytest.approx(rho, abs=1e-12)
        assert row["mean_absorption"] == pytest.approx(absorption, abs=1e-12)

    report = run_classify_bench(ScenarioConfig(kind="classify_bench", bench_trials=300,
                                               seed=3))
    assert report == pytest.approx({
        "tau_hat": 6.252912543572984, "pd_lower_bound": 0.4931579998985314,
        "pf_upper_bound": 0.5068420001014686, "empirical_pd": 1.0,
        "empirical_pf": 0.0, "empirical_far_rate": 1.0,
        # given both agents far: 300 of 300 trials, 3-sigma Wilson ends 300/309, 9/309
        "far_pairs_pd": 300, "conditional_pd": 1.0, "conditional_pd_low": 0.970873786407767,
        "conditional_pd_high": 1.0, "far_pairs_pf": 300, "conditional_pf": 0.0,
        "conditional_pf_low": 0.0, "conditional_pf_high": 0.02912621359223301}, abs=1e-12)


@pytest.mark.parametrize("strategy", ["modified", "conventional"])
def test_step_matches_per_agent_reference(strategy):
    # one replica rebuilt agent by agent from the per-agent oracle's functions,
    # drawing from the replica generator in the engine's order: u, v, then
    # (modified only) one quorum uniform per agent
    cfg = small_config(replicas=1, iterations=20,
                       **(CONVENTIONAL if strategy == "conventional" else {}))
    tr = run_scenario(cfg)
    N, M = cfg.N, cfg.M
    adj = tr.topology.adjacency
    A = uniform_weights(tr.topology.adjacency)
    z = ModelPair(cfg.w0, cfg.w1).observed(tr.f)
    chol_t = np.linalg.cholesky(np.diag(tr.env.ru)).T
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


def _one_at_a_time(advance, after=lambda rep, i, adj, uniforms: None):
    """An _Replica.advance that advances its chunk one iteration at a time,
    calling after(rep, i, adj, uniforms) after each, with that iteration's
    (N,) uniforms or None (the chunked kernel writes the same rows bit for
    bit: test_engines_match_the_per_iteration_draw)."""
    def advance_rows(rep, i, adj, u, d, uniforms):
        for t in range(len(d)):
            row = None if uniforms is None else uniforms[t:t + 1]
            advance(rep, i + t, adj, u[t:t + 1], d[t:t + 1], row)
            after(rep, i + t, adj, None if row is None else row[0])
    return advance_rows


def _checked_runs(monkeypatch, cfg, check=lambda rep, i, adj, sweeps, uniforms: None):
    """Run cfg one iteration at a time with check(rep, i, adj, sweeps,
    uniforms) after each, where sweeps lists the (g, q) of each quorum sweep
    of that iteration and uniforms are its quorum uniforms (None when no
    decision runs); returns, per replica, the replica and copies of its w
    and glob after each iteration."""
    sweep, runs, sweeps = harness.decision_sweep, {}, []

    def recorded(g, q, uniforms):
        sweeps.append((g, q))
        return sweep(g, q, uniforms)

    def checked(rep, i, adj, uniforms):
        check(rep, i, adj, sweeps, uniforms)
        sweeps.clear()
        ws, globs = runs.setdefault(id(rep), (rep, [], []))[1:]
        ws.append(rep.w.copy())
        globs.append(rep.glob.copy())

    monkeypatch.setattr(harness._Replica, "advance",
                        _one_at_a_time(harness._Replica.advance, checked))
    monkeypatch.setattr(harness, "decision_sweep", recorded)
    run_scenario(cfg)
    monkeypatch.undo()
    return list(runs.values())


def _assert_records_match_steps(rep, ws, globs):
    # every record equals a fresh ndarray.mean of that step's distances
    assert len(ws) == rep.sq0.size
    for i, (w, glob) in enumerate(zip(ws, globs)):
        records = [(rep.sq0, rep.stacked[0]), (rep.sq1, rep.stacked[1])]
        if not rep.conventional:
            records += [(rep.sqd, rep.stacked[glob]), (rep.sqr, rep.stacked[1 - glob])]
            share1 = glob.sum() / glob.size
            assert rep.frac[i] == max(share1, 1.0 - share1)
        for record, model in records:
            assert record[i] == ((w - model) ** 2).sum(axis=1).mean()


def _graph_facts(adj):
    """The uniform combination matrix, the degrees and the link mask of the
    adjacency adj, built here apart from the kernel."""
    return uniform_weights(adj), adj.sum(axis=1), adj & ~np.eye(len(adj), dtype=bool)


def _assert_kernel_graph(rep, adj):
    # the kernel keeps the adjacency it was handed and the A, degrees and
    # link mask it derived from it
    assert rep.graph is adj
    for cached, fresh in zip((rep.A, rep.n_k, rep.links), _graph_facts(adj)):
        assert cached.dtype == fresh.dtype and np.array_equal(cached, fresh)


def _step_checker(graphs):
    """check(rep, i, adj, sweeps, uniforms) for after every step, and the
    counts it keeps.

    It asserts that the desires match the library projection, diagonal
    beliefs never move, the kernel's combination matrix, degrees and link
    mask are those of the adjacency of that step (the school's changes as
    it moves), b is the dense masked update of the previous b on the
    far-field links, and the active links, fhat, the q each sweep used, the
    cached q (unless a flip dropped it), and the A1/A2 split and the
    combination matrix it splits equal fresh ones.  A step runs one sweep,
    or none when every uniform lies below the cached q it would have used,
    and then g stays the same object.  counts[name, True] counts the steps
    that kept the object of the step before and counts[name, False] those
    that replaced it; counts["skipped"] counts the steps that ran no sweep
    and counts["beliefs at rest"] those after which the next step with the
    same events skips the belief update."""
    counts, last = collections.Counter(), {}

    def check(rep, i, adj, sweeps, uniforms):
        cfg, prev = rep.cfg, last.get(id(rep))
        assert np.array_equal(rep.glob, global_desires(rep.g, rep.f))
        assert (np.diag(rep.b) == 0.5).all()
        _assert_kernel_graph(rep, adj)
        A, _, links = _graph_facts(adj)
        # the belief update as a dense masked copyto of the previous beliefs
        prev_b = prev["b"] if prev else np.full_like(rep.b, 0.5)
        far = (rep.h_hat ** 2).sum(axis=0) > cfg.eta ** 2
        active = far[:, None] & far[None, :] & links
        expected = prev_b.copy()
        np.copyto(expected, cfg.alpha * prev_b + (1.0 - cfg.alpha)
                  * (rep.h_hat.T @ rep.h_hat > 0.0), where=active)
        assert np.array_equal(rep.b, expected)
        assert np.array_equal(rep.active, np.flatnonzero(active))
        fresh = rep.oracle_rel if cfg.oracle_classification else f_hat(rep.b)
        assert np.array_equal(rep.fhat, fresh)

        def fresh_q(g):
            # n_g from the per-agent translation, self included
            translated = np.where(fresh == 1, g[None, :], 1 - g[None, :])
            n_g = ((translated == g[:, None]) & adj).sum(axis=1)
            return rep.table[global_desires(g, rep.f), adj.sum(axis=1), n_g]

        if cfg.forced_desired is not None:
            assert not sweeps and rep.q is None
        elif not sweeps:    # no agent whose uniform lies below its q can flip
            assert (uniforms < rep.q).all()
            assert prev is None or rep.g is prev["g"]
            counts["skipped"] += 1
        else:
            assert len(sweeps) == 1 and np.array_equal(sweeps[0][1], fresh_q(sweeps[0][0]))
        if rep.q is not None:
            assert np.array_equal(rep.q, fresh_q(rep.g))
        elif cfg.forced_desired is None:   # the sweep flipped g; q is rebuilt when next used
            assert sweeps[0][0] is not rep.g
        if cfg.rule == "fast":
            A = _fast_weight_matrix(adj, links, fresh == rep.g[:, None])
        assert np.array_equal(rep.A1 + rep.A2, A)
        for cached, expected in zip((rep.A1, rep.A2), split_matrices(A, fresh, rep.g)):
            assert np.array_equal(cached, expected)
        counts["beliefs at rest"] += rep.rest is not None
        graphs.append(adj.copy())
        # holding rep keeps its id from being reused by a later run's replica
        now = dict(rep=rep, b=rep.b.copy(), far=rep.far, active=rep.active,
                   fhat=rep.fhat, g=rep.g, glob=rep.glob, A1=rep.A1,
                   q=sweeps[0][1] if sweeps else rep.q)
        if prev:
            for name in ("active", "fhat", "g", "glob", "A1", "q"):
                counts[name, now[name] is prev[name]] += 1
            crossed = ((rep.b >= 0.5) != (prev_b >= 0.5)).any()
            counts["crossing, far set kept"] += bool(crossed and rep.far is prev["far"])
        last[id(rep)] = now

    return check, counts


def test_step_keeps_kernel_invariants(monkeypatch):
    # _step_checker's assertions after every step of a static and of a fish
    # replica; after the run, every metric record equals the one computed
    # from that step's w and glob
    graphs = []
    check, _ = _step_checker(graphs)
    for cfg in (small_config(replicas=1, iterations=30),
                small_config(replicas=1, iterations=30, rule="fast"),
                small_config(replicas=1, iterations=30, oracle_classification=True)):
        for run in _checked_runs(monkeypatch, cfg, check):
            _assert_records_match_steps(*run)
    assert all(np.array_equal(adj, graphs[0]) for adj in graphs)
    graphs.clear()
    (run,) = _checked_runs(monkeypatch, small_school(iterations=30, comm_radius=4.0),
                           check)
    _assert_records_match_steps(*run)
    assert len(graphs) == 30
    assert not all(np.array_equal(adj, graphs[0]) for adj in graphs)


@pytest.mark.parametrize("cfg", [
    pytest.param(dict(), id="uniform"),
    pytest.param(dict(rule="fast"), id="fast"),
    pytest.param(dict(school=True), id="school"),
])
def test_step_caches_are_reused_and_rebuilt(monkeypatch, cfg):
    # runs long enough that each cache of the step is kept on some steps and
    # rebuilt on others, with every cached value checked against a fresh one
    # after every step, and a belief crossing 0.5 on some step that keeps
    # the far set.  The school passes a new graph only when its radius graph
    # changes, so its caches are kept in between
    graphs = []
    check, counts = _step_checker(graphs)
    moving = cfg.pop("school", False)
    run_cfg = (small_school(iterations=400, comm_radius=4.0) if moving
               else small_config(replicas=1, iterations=400, **cfg))
    _checked_runs(monkeypatch, run_cfg, check)
    for name in ("active", "fhat", "g", "glob", "A1", "q"):
        assert counts[name, True] + counts[name, False] == 399
        assert counts[name, True] > 0 and counts[name, False] > 0
    assert counts["crossing, far set kept"] > 0
    assert 0 < counts["skipped"] < 399
    assert counts["beliefs at rest"] > 0 or moving    # the school's do not settle in 400
    changed = sum(not np.array_equal(a, b) for a, b in zip(graphs, graphs[1:]))
    assert (changed > 0) == moving


def test_sweeps_stop_once_every_keep_probability_is_1(monkeypatch):
    # after agreement every agent's neighbourhood agrees, q is all 1 and the
    # kernel runs no sweep; the outputs equal those of a kernel made to sweep
    # on every iteration, which draws the same uniforms and flips no one.
    # The sweeps are dated on a run advanced one iteration at a time, whose
    # outputs equal the chunked run's
    cfg = small_config(replicas=1, iterations=400)
    sweep, now, swept = harness.decision_sweep, [0], []

    def counted(g, q, uniforms):
        swept.append(now[-1])
        return sweep(g, q, uniforms)

    def tracked(rep, i, adj, uniforms):
        now.append(i + 1)

    chunked = run_scenario(cfg)
    monkeypatch.setattr(harness, "decision_sweep", counted)
    monkeypatch.setattr(harness._Replica, "advance",
                        _one_at_a_time(harness._Replica.advance, tracked))
    ours = run_scenario(cfg)
    monkeypatch.undo()
    for a, b in zip(_outputs(chunked), _outputs(ours), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    # the sweep of the agreement iteration is the one that brings agreement
    (settled,) = ours.agreement_times
    assert 0 < settled < 400 and swept and max(swept) <= settled

    # the kernel, told that every row of uniforms can flip an agent, then
    # runs each iteration as its own pass and sweeps on every one
    can_flip = harness._Replica._can_flip
    monkeypatch.setattr(harness._Replica, "_can_flip",
                        lambda rep, uniforms: np.ones_like(can_flip(rep, uniforms)))
    monkeypatch.setattr(harness, "decision_sweep", counted)
    swept.clear()
    expected = run_scenario(cfg)
    monkeypatch.undo()
    assert len(swept) == 400
    for a, b in zip(_outputs(ours), _outputs(expected), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


def test_beliefs_at_rest_are_dropped_with_their_active_links():
    # the link between agents 0 and 1 comes to rest under agreeing events;
    # then the far set moves to agents 2 and 3, whose link has as many
    # events, all agreeing too, but a belief of 0.5 that must move
    cfg = small_config(N=4, split=2, replicas=1, iterations=1000, forced_desired=0)
    rep = harness._Replica(cfg, ModelPair(cfg.w0, cfg.w1), np.array([0, 0, 1, 1]),
                           streams=False)
    adj = np.ones((4, 4), dtype=bool)
    u, d = np.zeros((cfg.M, 4)), np.zeros(4)    # no update: h is only scaled

    def step(i, far):
        rep.h_hat[:] = 0.0
        rep.h_hat[:, far] = 10.0 / (1.0 - cfg.nu)
        rep.advance(i, adj, u[None], d[None], None)

    for i in range(999):
        step(i, [0, 1])
    assert rep.rest is not None and rep.b[0, 1] == rep.b[1, 0] > 0.99
    step(999, [2, 3])
    assert rep.b[2, 3] == rep.b[3, 2] == cfg.alpha * 0.5 + (1.0 - cfg.alpha)


@pytest.mark.parametrize("moving", [False, True], ids=["static", "school"])
def test_replica_state_is_component_major(monkeypatch, moving):
    # h_hat, each iteration's u and the metric block's rows are (M, N),
    # C-contiguous (the school's u is the transpose of its sensing's (N, M));
    # w is the (N, M) view of the block row the last iteration wrote.  The
    # static engine advances a BLOCK of iterations at a time, the school one
    cfg = small_school(iterations=70) if moving else small_config(replicas=1, iterations=70)
    advance, chunks = harness._Replica.advance, []

    def checked(rep, i, adj, u, d, uniforms):
        advance(rep, i, adj, u, d, uniforms)
        n, shape = len(d), (rep.cfg.M, rep.cfg.N)
        assert u.shape == (n, *shape) and (moving or u.flags.c_contiguous)
        for state in (rep.h_hat, rep.w.T, rep.w_block[0]):
            assert state.shape == shape and state.flags.c_contiguous
        for block in (rep.w_block, rep.updates):
            assert block.shape == (harness.BLOCK, *shape) and block.flags.c_contiguous
        assert rep.w.T.ctypes.data == rep.w_block[(i + n - 1) % harness.BLOCK].ctypes.data
        chunks.append((i, n))

    monkeypatch.setattr(harness._Replica, "advance", checked)
    run_scenario(cfg)
    assert chunks == ([(i, 1) for i in range(70)] if moving else [(0, 64), (64, 6)])


@pytest.mark.parametrize("iterations", [1, 63, 64, 65, 197])
def test_metric_blocks_match_per_step_records(monkeypatch, iterations):
    # the records are computed a block of iterations at a time; at and around
    # the block edges each one still equals the per-step reference.  The
    # kernel derives A, the degrees and the link mask for either strategy
    for extra in ({}, CONVENTIONAL):
        cfg = small_config(replicas=2, iterations=iterations, **extra)
        runs = _checked_runs(monkeypatch, cfg, lambda rep, i, adj, sweeps, uniforms:
                             _assert_kernel_graph(rep, adj))
        assert len(runs) == 2
        for run in runs:
            _assert_records_match_steps(*run)


def _per_iteration_static(cfg, adj, env, models, f, rng, streams):
    """The static engine as it drew before its draws were taken a block
    ahead: on every iteration N(M + 1) normals turned into u and d, then
    (when decisions run) N quorum uniforms, advanced one iteration at a
    time."""
    rep = harness._Replica(cfg, models, f, streams)
    z = models.observed(f)
    decides = cfg.strategy != "conventional" and cfg.forced_desired is None
    chol_t = np.linalg.cholesky(np.diag(env.ru)).T
    for i in range(cfg.iterations):
        draw = rng.standard_normal(z.size + cfg.N)
        u = draw[:z.size].reshape(z.shape) @ chol_t
        d = (u * z).sum(axis=1) + env.sigma_v * draw[z.size:]
        rep.advance(i, adj, u.T[None], d[None],
                    rng.random((1, cfg.N)) if decides else None)
    return rep


def _per_step_fish(cfg, params, models, f, rng, streams):
    """The fish engine as it drew before the step took its quorum uniforms
    as an argument: the step drew them after the sensing draws.  It builds
    the combination matrix and the link mask of each graph itself."""
    rep = harness._Replica(cfg, models, f, streams)
    z = models.observed(f)
    x = rng.uniform(-cfg.arena / 2.0, cfg.arena / 2.0, (cfg.N, 2))
    vel, adj = np.zeros((cfg.N, 2)), None
    u = np.tile(np.array([1.0, 0.0]), (cfg.N, 1))
    rep.trajectory = np.empty((cfg.iterations, cfg.N, 6)) if streams else None
    for i in range(cfg.iterations):
        diff, dist = pairwise_offsets(x)
        graph = radius_adjacency(dist, cfg.comm_radius)
        if not np.array_equal(graph, adj):
            adj, A = graph, graph / graph.sum(axis=0)[None, :]
            links = adj & ~np.eye(cfg.N, dtype=bool)
        d, u = measure_target(x, u, z, params.kappa, params.sigma_angle, rng)
        rep.advance(i, adj, u.T[None], d[None],
                    rng.random((1, cfg.N)) if cfg.forced_desired is None else None)
        x, vel = update_motion(x, vel, rep.w, A,
                               cohesion_all(diff, dist, links, params.d_s), params)
        if streams:
            rep.trajectory[i] = np.column_stack(
                [x, vel, rep.glob, ((x - rep.stacked[rep.glob]) ** 2).sum(axis=1)])
    return rep


@pytest.mark.parametrize("overrides", [
    pytest.param(dict(), id="uniform"),
    pytest.param(dict(rule="fast"), id="fast"),
    pytest.param(dict(record_beliefs=True), id="beliefs"),
    pytest.param(CONVENTIONAL, id="conventional"),
    pytest.param(dict(forced_desired=0, mean_error_vs=1), id="forced-mean_error"),
    pytest.param(dict(oracle_classification=True), id="oracle"),
    pytest.param(dict(school=True), id="school"),
])
def test_engines_match_the_per_iteration_draw(monkeypatch, overrides):
    # the static engine draws BLOCK iterations ahead, transforms a block at
    # once and advances it as one chunk; every TraceSet array equals the one
    # of the former per-iteration draw advanced one iteration at a time, at
    # and around the block edges.  The guard sees each pass of the kernel:
    # the passes tile the iterations, and a decided network runs ahead
    assert harness.BLOCK == 64
    overrides = dict(overrides)
    moving = overrides.pop("school", False)
    engine, oracle = (("_replica_fish", _per_step_fish) if moving
                      else ("_replica_static", _per_iteration_static))
    guard = harness.check_divergence
    for iterations in (1, 63, 64, 65, 197):
        cfg = (small_school(iterations=iterations, replicas=2) if moving
               else small_config(replicas=2, iterations=iterations, **overrides))
        passes = []

        def tiled(w, i):
            passes.append((i, len(w)))
            guard(w, i)

        monkeypatch.setattr(harness, "check_divergence", tiled)
        ours = _outputs(run_scenario(cfg))
        monkeypatch.undo()
        covered = [i + t for i, n in passes for t in range(n)]
        assert covered == 2 * list(range(iterations))
        longest = max(n for _, n in passes)
        assert longest == 1 if moving or iterations == 1 else longest > 1
        monkeypatch.setattr(harness, engine, oracle)
        expected = _outputs(run_scenario(cfg))
        monkeypatch.undo()
        assert len(ours) == len(expected)
        for a, b in zip(ours, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


def test_divergence_mid_block_names_its_iteration(monkeypatch):
    # a NaN measurement turns iteration 40's estimates to NaN in the middle
    # of a decided chunk, which the kernel runs ahead in one pass; the error
    # still names the iteration.  Forced and oracle, the split is built on
    # iteration 0 and never dropped
    advance, guard, poisoned_at = harness._Replica.advance, harness.check_divergence, 40

    def poisoned(rep, i, adj, u, d, uniforms):
        if i <= poisoned_at < i + len(d):
            d = d.copy()
            d[poisoned_at - i] = np.nan
        advance(rep, i, adj, u, d, uniforms)

    def recorded(w, i):
        passes.append((i, len(w)))
        guard(w, i)

    for overrides in (dict(), dict(forced_desired=0, oracle_classification=True)):
        passes = []
        monkeypatch.setattr(harness._Replica, "advance", poisoned)
        monkeypatch.setattr(harness, "check_divergence", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=f"at iteration {poisoned_at}$"):
                run_scenario(small_config(replicas=1, iterations=100, **overrides))
        monkeypatch.undo()
        first, rows = passes[-1]
        assert first < poisoned_at < first + rows - 1


@pytest.mark.parametrize("crossing, uniform", [
    # the run ahead overwrites the row before the chunk, which the crossing
    # row's combine reads
    pytest.param(64, 0.0, id="chunk-first-row"),
    # agents 0 and 2 (q = 0.9) flip at the crossing, and only there
    pytest.param(10, 0.95, id="sweep-flips"),
])
def test_crossing_in_a_decided_chunk_matches_single_iterations(monkeypatch, crossing,
                                                               uniform):
    # four agents agree from the start (every belief >= 0.5, q all 1); at one
    # iteration agents 0 and 2 alone reach the far field in opposite
    # directions and their belief of 0.52 drops below 0.5.  A replica
    # advanced a BLOCK at a time replays the crossing after running ahead
    # past it and equals one advanced an iteration at a time
    cfg = small_config(N=4, split=2, replicas=1, iterations=128, eta=1.0)
    adj = np.ones((4, 4), dtype=bool)
    rng = np.random.default_rng(5)
    u = 0.1 * rng.standard_normal((cfg.iterations, cfg.M, 4))
    d = 0.1 * rng.standard_normal((cfg.iterations, 4))
    u[crossing, :, [0, 2]] = [1.0, 0.0]
    d[crossing, [0, 2]] = [50.0, -50.0]
    uniforms = np.zeros((cfg.iterations, 4))
    uniforms[crossing] = uniform
    classify, replays, reps = harness._Replica._classify, [], []

    def replay(rep, start, stop):
        replays.append((start, stop, classify(rep, start, stop)))
        return replays[-1][2]

    monkeypatch.setattr(harness._Replica, "_classify", replay)
    for chunk in (harness.BLOCK, 1):
        rep = harness._Replica(cfg, ModelPair(cfg.w0, cfg.w1), np.array([0, 0, 1, 1]),
                               streams=False)
        rep.b[0, 2] = rep.b[2, 0] = 0.52
        for i in range(0, cfg.iterations, chunk):
            rep.advance(i, adj, u[i:i + chunk], d[i:i + chunk], uniforms[i:i + chunk])
        reps.append(rep)
    ours, expected = reps
    # the replay that met the crossing ran ahead to the end of the block
    assert (harness.BLOCK, crossing % harness.BLOCK) in [r[1:] for r in replays]
    changed = np.flatnonzero(ours.b != 0.5)
    assert changed.tolist() == [2, 8] and ours.b[0, 2] == ours.b[2, 0] < 0.5
    assert ours.g.tolist() == ([0, 1, 0, 1] if uniform else [1, 1, 1, 1])
    for name in ("records", "w_block", "glob_block", "b", "h_hat", "g", "A1"):
        assert np.array_equal(getattr(ours, name), getattr(expected, name), equal_nan=True)


@pytest.mark.parametrize("beliefs, far, uniform, passes, g", [
    # agents 0 and 2 believe they observe different models (q = 0.9) and
    # flip at row 10.  The first pass is one row; no link is active after
    # it, so the next runs ahead and ends at the flip
    pytest.param({(0, 2): 0.4}, {}, 0.95, [(0, 1, 0), (1, 11, 10), (11, 64, 63)],
                 [0, 1, 0, 1], id="interior-flip"),
    # row 10 can flip agents 0 and 2, and there the belief of 1 and 3 drops
    # below 0.5: the sweep runs under the rebuilt q, which flips all four.
    # The pass after a crossing is one row, and while links stay active
    # each later one is twice as long
    pytest.param({(0, 2): 0.4, (1, 3): 0.52}, {10: [1, 3]}, 0.95,
                 [(0, 1, 0), (1, 11, 10), (11, 12, 11), (12, 14, 13)], [0, 0, 0, 0],
                 id="flip-and-crossing"),
    # the one-row pass after row 10's crossing meets the crossing of row 11
    pytest.param({(0, 2): 0.52, (1, 3): 0.52}, {10: [0, 2], 11: [1, 3]}, 0.0,
                 [(0, 1, 0), (1, 64, 10), (11, 12, 11), (12, 13, 12), (13, 15, 14)],
                 [1, 1, 1, 1], id="crossing-after-crossing"),
])
def test_pass_rule_matches_single_iterations(monkeypatch, beliefs, far, uniform, passes, g):
    # four agents on a complete graph, with some beliefs set at the start.
    # On the rows of `far` a pair reaches the far field in opposite
    # directions, and row 10's uniforms are `uniform`.  A replica advanced a
    # BLOCK at a time makes the passes `passes` (start, stop, last row kept)
    # and equals one advanced an iteration at a time
    cfg = small_config(N=4, split=2, replicas=1, iterations=128, eta=1.0)
    adj = np.ones((4, 4), dtype=bool)
    rng = np.random.default_rng(5)
    u = 0.1 * rng.standard_normal((cfg.iterations, cfg.M, 4))
    d = 0.1 * rng.standard_normal((cfg.iterations, 4))
    for row, pair in far.items():
        u[row, :, pair] = [1.0, 0.0]
        d[row, pair] = [50.0, -50.0]
    uniforms = np.zeros((cfg.iterations, 4))
    uniforms[10] = uniform
    classify, replays, reps = harness._Replica._classify, [], []

    def replay(rep, start, stop):
        replays.append((start, stop, classify(rep, start, stop)))
        return replays[-1][2]

    monkeypatch.setattr(harness._Replica, "_classify", replay)
    for chunk in (harness.BLOCK, 1):
        rep = harness._Replica(cfg, ModelPair(cfg.w0, cfg.w1), np.array([0, 0, 1, 1]),
                               streams=False)
        for (k, l), belief in beliefs.items():
            rep.b[k, l] = rep.b[l, k] = belief
        rep.fhat = f_hat(rep.b)
        for i in range(0, cfg.iterations, chunk):
            rep.advance(i, adj, u[i:i + chunk], d[i:i + chunk], uniforms[i:i + chunk])
        reps.append(rep)
    ours, expected = reps
    assert replays[:len(passes)] == passes
    assert ours.g.tolist() == g
    for pair in far.values():       # each far pair's belief crossed below 0.5
        assert ours.b[tuple(pair)] == ours.b[tuple(pair[::-1])] < 0.5
    for name in ("records", "w_block", "glob_block", "b", "h_hat", "g", "A1"):
        assert np.array_equal(getattr(ours, name), getattr(expected, name), equal_nan=True)


def test_divergence_names_replica_agent_and_norm(monkeypatch):
    # agent 7 of the second replica turns NaN at iteration 40, after the
    # combine (which would spread it to every agent) and before the guard,
    # which checks the rows of each pass of the kernel
    guard, replicas = harness.check_divergence, []

    def poisoned(w, i):
        if i == 0:          # a replica's first pass
            replicas.append(w)
        if len(replicas) == 2 and i <= 40 < i + len(w):
            w[40 - i, 7] = np.nan
        guard(w, i)

    monkeypatch.setattr(harness, "check_divergence", poisoned)
    with pytest.raises(DivergenceError, match=r"^replica 1: agent 7 estimate norm nan "
                                              r"exceeded 1e\+06 at iteration 40$"):
        run_scenario(small_config(replicas=2, iterations=100))


@pytest.mark.parametrize("M", [1, 2, 4])
@pytest.mark.parametrize("N", [2, 13, 40])
def test_adapt_rows_match_the_matmul_formula(M, N):
    # the row loop writes through np.dot and ufunc outs into buffers; each
    # row's update and estimate equal the per-row formula's bit for bit, for
    # the A1/A2 split and the conventional A alone.  numpy hands a one-row
    # (M = 1) operand to BLAS as a vector, which must give the same bits too
    cfg = small_config(N=N, w0=[1.0] * M, w1=[-1.0] * M, split=N // 2)
    rng = np.random.default_rng(100 * M + N)
    A = rng.random((N, N)) + np.eye(N)
    A /= A.sum(axis=0)
    fhat, g = rng.integers(0, 2, (N, N)), rng.integers(0, 2, N)
    start, n = 5, 40
    u, d = rng.standard_normal((n, M, N)), rng.standard_normal((n, N))
    for split in (split_matrices(A, fhat, g), (A, None)):
        rep = harness._Replica(cfg, ModelPair(cfg.w0, cfg.w1), np.arange(N) >= N // 2,
                               streams=False)
        w = w0 = rng.standard_normal((M, N))
        rep._adapt(start, start + n, w0, u, d, split)
        A1, A2 = split
        for t in range(n):
            update = u[t] * w
            error = np.add.reduce(update, 0)
            update = u[t] * (d[t] - error)
            psi = update * cfg.mu
            psi += w
            w = psi @ A1 if A2 is None else psi @ A1 + w @ A2
            assert rep.updates[start + t].tobytes() == update.tobytes()
            assert rep.w_block[start + t].tobytes() == w.tobytes()


@pytest.mark.parametrize("cfg", [
    pytest.param(lambda: small_config(N=200, split=100, mean_degree=16.0, iterations=130),
                 id="static-N200"),
    pytest.param(lambda: small_school(iterations=130), id="school"),
    pytest.param(lambda: ScenarioConfig(kind="chain_sweep", sweep_N=[150, 300],
                                        sweep_K=[1, 2]).validate(), id="chain_sweep"),
    # the per-trial vectors do not scale with M, so M = 1 is the tight case
    *(pytest.param(lambda M=M: ScenarioConfig(kind="classify_bench", w0=[5.0] * M,
                                              w1=[-5.0] * M, nu=0.5,
                                              bench_trials=10_000).validate(),
                   id=f"classify_bench-M{M}") for M in (1, 4)),
])
def test_memory_estimate_bounds_the_traced_peak(cfg):
    # the size refusal rests on _estimated_bytes; it counts the kernel's
    # chunk buffers and Gram batch, the chain and its folded halves, the
    # pair benchmark's directions and slices, and bounds what a run allocates
    cfg = cfg()
    run = {"chain_sweep": run_chain_sweep, "classify_bench": run_classify_bench}
    tracemalloc.start()
    try:
        run.get(cfg.kind, run_scenario)(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cfg._estimated_bytes()


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
    pytest.param("w0", [1.0, 0.0, 0.0], id="planar"),   # w1 has 3 entries too
    ("motion", {"dt": -0.1}),
    ("motion", {"speed": 1.0}),
    ("w0", ["a", 10.0]),
    ("arena", -1.0),
])
def test_fish_rejects_options_it_cannot_honour(tmp_path, field, value):
    doc = dict(preset("school").to_dict(), **{field: value})
    if len(doc["w0"]) == 3:
        doc["w1"] = [0.0, 1.0, 0.0]
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


def test_cli_conventional_simulate_prints_no_desired_figure(tmp_path, capsys):
    # conventional diffusion has no desired model: its msd_desired_db column
    # is NaN, so the summary names models 0 and 1 only.  No modified replica
    # agrees within 50 iterations, and no mean settle iteration is printed
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(N=8, w0=[1.0, 0.0], w1=[0.0, 1.0], split=4,
                                        mu=0.005, iterations=50, replicas=1, seed=5,
                                        mean_degree=4.0)))
    for strategy, desired in (("conventional", False), ("modified", True)):
        assert cli_main(["simulate", "--config", str(cfg_path), "--strategy", strategy,
                         "--out", str(tmp_path / strategy)]) == 0
        lines = capsys.readouterr().out.splitlines()
        summary, = [line for line in lines if line.startswith("final MSD: ")]
        assert summary.endswith("dB vs desired") == desired
        assert not any("nan" in line for line in lines)
    assert lines[0] == "agreement in 0% of replicas"


@pytest.mark.parametrize("command, source, files", [
    ("simulate", "beliefs", ["msd.csv", "beliefs.csv"]),
    ("fish", "school", ["msd.csv", "trajectory.csv"]),
    ("simulate", "bifurcation", ["msd.csv"]),
    ("simulate", dict(N=8, split=4, mean_degree=4.0, mean_error_vs=1),
     ["msd.csv", "mean_error.csv"]),
], ids=["beliefs", "school", "bifurcation", "mean_error"])
def test_cli_names_every_file_it_writes(tmp_path, capsys, command, source, files):
    # a preset by name, or a config (no preset sets mean_error_vs)
    args = ["--preset", source]
    if isinstance(source, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(source))
        args = ["--config", str(config)]
    out = tmp_path / "run"
    assert cli_main([command, *args, "--iterations", "20",
                     "--replicas", "1", "--out", str(out)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"wrote {', '.join(files)} and meta.json to {out}"
    assert sorted(p.name for p in out.iterdir()) == sorted(files + ["meta.json"])


@pytest.mark.parametrize("command, doc", [
    ("simulate", dict(N=8, w0=[1.0, 0.0, 0.0], w1=[0.0, 1.0, 0.0], split=4, mean_degree=4.0,
                      iterations=20, replicas=1)),
    ("fish", dict(preset("school").to_dict(), iterations=20)),
    ("classify-bench", dict(kind="classify_bench", bench_trials=200)),
], ids=["simulate", "fish", "classify-bench"])
def test_meta_records_the_models_dimension(tmp_path, capsys, command, doc):
    # M is the models' length, not a config field: meta.json records it, and
    # a config that names it is refused, even at the models' length
    config, out = tmp_path / "config.json", tmp_path / "run"
    config.write_text(json.dumps(doc))
    assert cli_main([command, "--config", str(config), "--out", str(out)]) == 0
    M = len(ScenarioConfig.from_dict(doc).w0)
    assert json.loads((out / "meta.json").read_text())["config"]["M"] == M
    config.write_text(json.dumps(dict(doc, M=M)))
    assert cli_main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "configuration error: unknown config fields: ['M']\n"


def test_only_replica_0_records_the_stream_and_trajectory(monkeypatch):
    # only replica 0's belief stream and trajectory are written, so no other
    # replica allocates one: at R = 3 a beliefs run stays within the estimate
    # validate() holds to the memory budget, which counts one stream
    run_scenario(dataclasses.replace(preset("beliefs"), iterations=2))  # first-use imports
    cfg = dataclasses.replace(preset("beliefs"), replicas=3).validate()
    tracemalloc.start()
    try:
        trace = run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.belief_stream.shape == (1200, 40, 40)
    assert peak <= cfg._estimated_bytes()
    made, replica = [], harness._Replica

    def recorded(*args):
        made.append(replica(*args))
        return made[-1]

    monkeypatch.setattr(harness, "_Replica", recorded)
    run_scenario(small_school(replicas=2))
    assert [rep.trajectory is not None for rep in made] == [True, False]


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


def test_writers_match_the_csv_module(tmp_path):
    # every writer's bytes equal csv.writer's for the same rows of Python
    # values, the NaN columns of a conventional run included
    def same(writer, arg, header, rows):
        writer(tmp_path / "ours.csv", arg)
        with open(tmp_path / "csv.csv", "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(header)
            out.writerows(rows)
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()

    msd_header = ["iteration", "msd0_db", "msd1_db", "msd_desired_db", "agreement_fraction"]
    for cfg in (small_config(record_beliefs=True, iterations=300),
                small_config(**CONVENTIONAL)):
        tr = run_scenario(cfg)
        columns = (tr.msd0_db, tr.msd1_db, tr.msd_desired_db, tr.agreement_fraction)
        same(write_msd_csv, tr, msd_header,
             ([i, *(repr(float(c[i])) for c in columns)] for i in range(cfg.iterations)))
    assert np.isnan(tr.msd_desired_db).all()
    tr = run_scenario(small_config(record_beliefs=True, replicas=1, iterations=30))
    adj = tr.topology.adjacency
    pairs = [(k, l) for k in range(adj.shape[0])
             for l in np.flatnonzero(adj[:, k]) if l != k]
    same(write_beliefs_csv, tr, ["iteration", "observer", "neighbor", "belief", "f_hat"],
         ([i, k, l, repr(float(b[k, l])), int(b[k, l] >= 0.5)]
          for i, b in enumerate(tr.belief_stream) for k, l in pairs))
    tr = run_scenario(small_school(iterations=30))
    same(write_trajectory_csv, tr, ["step", "agent", "x1", "x2", "v1", "v2", "g_global",
                                    "msd_to_target"],
         ([i, k, *(repr(float(v)) for v in row[:4]), int(row[4]), repr(float(row[5]))]
          for i, step in enumerate(tr.trajectory) for k, row in enumerate(step)))
    tr = run_scenario(small_config(mean_error_vs=1, iterations=30))
    same(write_mean_error_csv, tr, ["iteration", "mean_error_norm"],
         ([i, repr(float(v))] for i, v in enumerate(tr.mean_error_norm)))
    rows = run_chain_sweep(ScenarioConfig(kind="chain_sweep", sweep_N=[4, 6]))
    same(write_chain_sweep_csv, rows, ["N", "K", "rho_Q", "mean_absorption"],
         ([r["N"], r["K"], repr(r["rho_Q"]), repr(r["mean_absorption"])] for r in rows))


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
        N=8, w0=[1.0, 0.0], w1=[0.0, 1.0], split=4, mu=0.02, nu=0.2,
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
    ("simulate", {"out": "elsewhere"}),               # fields nothing reads
    ("classify-bench", {"mu": 1e-4}),
    ("simulate", {"record_beliefs": "no"}),
    ("simulate", {"oracle_classification": "no"}),
    pytest.param("simulate", b"5", id="simulate-document-number"),
    pytest.param("simulate", b"null", id="simulate-document-null"),
    pytest.param("simulate", b'[["N", 8]]', id="simulate-document-list"),
    pytest.param("simulate", b'{"N": 8, "seed": "\xff"}', id="simulate-document-not-utf8"),
    pytest.param("simulate", b'{"seed": 1' + b"0" * 5000 + b"}",
                 id="simulate-document-int-digits"),   # past Python's int parsing limit
    # sizes past the memory budget or the benchmark's step caps
    pytest.param("simulate", {"record_beliefs": True, "N": 1000, "iterations": 6000},
                 id="simulate-size-belief-stream"),
    pytest.param("simulate", {"iterations": 10 ** 9}, id="simulate-size-iterations"),
    pytest.param("simulate", {"replicas": 10 ** 8}, id="simulate-size-replicas"),
    pytest.param("simulate", {"replicas": 10 ** 6}, id="simulate-size-replica-iterations"),
    pytest.param("analyze-chain", {"sweep_N": [10 ** 6]}, id="analyze-chain-size-sweep_N"),
    pytest.param("classify-bench", {"bench_trials": 10 ** 10},
                 id="classify-bench-size-bench_trials"),
    pytest.param("classify-bench", {"nu": 1e-7}, id="classify-bench-size-nu"),
    # the school's geometry and motion must be finite (JSON Infinity and NaN)
    pytest.param("fish", {"arena": math.inf}, id="fish-arena-inf"),
    pytest.param("fish", {"comm_radius": -1.0}, id="fish-comm_radius-negative"),
    pytest.param("fish", {"comm_radius": 0.0}, id="fish-comm_radius-zero"),
    pytest.param("fish", {"comm_radius": math.nan}, id="fish-comm_radius-nan"),
    pytest.param("fish", {"comm_radius": math.inf}, id="fish-comm_radius-inf"),
    pytest.param("fish", {"motion": {"dt": math.nan}}, id="fish-motion-dt-nan"),
    pytest.param("fish", {"motion": {"kappa": math.inf}}, id="fish-motion-kappa-inf"),
    pytest.param("fish", {"motion": {"lam": math.nan}}, id="fish-motion-lam-nan"),
    # numbers past a float's range: JSON ints of any size, Infinity, and
    # finite values whose span or square overflows
    pytest.param("simulate", {"N": 10 ** 400}, id="simulate-N-past-float"),
    pytest.param("simulate", {"K": 10 ** 400}, id="simulate-K-past-float"),
    pytest.param("simulate", {"mean_degree": 10 ** 400},
                 id="simulate-mean_degree-past-float"),
    pytest.param("simulate", {"seed": 10 ** 400}, id="simulate-seed-past-float"),
    pytest.param("analyze-chain", {"sweep_K": [10 ** 400]},
                 id="analyze-chain-sweep_K-past-float"),
    pytest.param("analyze-chain", {"sweep_N": [10 ** 200]},
                 id="analyze-chain-size-sweep_N-squared"),
    pytest.param("simulate", {"ru_range": [1.0, math.inf]}, id="simulate-ru_range-inf"),
    pytest.param("classify-bench", {"ru_range": [1.0, math.inf]},
                 id="classify-bench-ru_range-inf"),
    pytest.param("simulate", {"noise_db_range": [-1e308, 1e308]},
                 id="simulate-noise_db_range-span"),
    pytest.param("simulate", {"eta": 1e200}, id="simulate-eta-square"),
    pytest.param("fish", {"motion": {"kappa": 10 ** 400}}, id="fish-motion-kappa-past-float"),
    pytest.param("classify-bench", {"eta": 1e200}, id="classify-bench-eta-square"),
    # the models must be finite for every kind that reads them
    pytest.param("simulate", {"w0": [math.nan, 0.0]}, id="simulate-w0-nan"),
    pytest.param("simulate", {"w1": [0.0, math.inf]}, id="simulate-w1-inf"),
    pytest.param("simulate", dict(CONVENTIONAL, w0=[-math.inf, 0.0]),
                 id="simulate-conventional-w0-inf"),
    pytest.param("fish", {"w0": [math.nan, 10.0]}, id="fish-w0-nan"),
    pytest.param("fish", {"w1": [-10.0, math.inf]}, id="fish-w1-inf"),
    pytest.param("classify-bench", {"w0": [math.nan, -5.0, 5.0, 5.0]},
                 id="classify-bench-w0-nan"),
    pytest.param("classify-bench", {"w1": [5.0, 5.0, -math.inf, 5.0]},
                 id="classify-bench-w1-inf"),
], ids=lambda v: "-".join(v) if isinstance(v, dict) else v)
def test_cli_refuses_bad_config(tmp_path, capsys, command, overrides):
    # overrides are config fields, "--" CLI flags, or the whole file as bytes;
    # every refusal comes before the run allocates or computes anything
    doc = {"simulate": dict(N=8, w0=[1.0, 0.0], w1=[0.0, 1.0], split=4,
                            mu=0.02, nu=0.2, alpha=0.9, eta=0.3, K=2, iterations=10,
                            replicas=1, seed=5, mean_degree=4.0),
           "fish": dict(kind="fish", N=8, w0=[10.0, 10.0], w1=[-10.0, 10.0],
                        split=4, mu=0.02, nu=0.2, eta=1.0, iterations=20, replicas=1,
                        comm_radius=8.0, motion=dict(dt=0.1, kappa=0.01)),
           "analyze-chain": dict(kind="chain_sweep", sweep_N=[4], sweep_K=[1]),
           "classify-bench": dict(kind="classify_bench", bench_trials=200)}[command]
    flags, text = [], overrides
    if isinstance(overrides, dict):
        flags = [str(s) for k, v in overrides.items() if k.startswith("--")
                 for s in (k, v)]
        fields = {k: v for k, v in overrides.items() if not k.startswith("--")}
        text = json.dumps(dict(doc, **fields)).encode()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(text)
    out = tmp_path / "o"
    tracemalloc.start()
    start = time.monotonic()
    try:
        assert cli_main([command, "--config", str(cfg_path), *flags,
                         "--out", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 1.0
    assert peak < 10 * 2 ** 20
    assert not out.exists()
    if (command, overrides) == ("analyze-chain", {"strategy": "conventional"}):
        # the scope is the kind alone where strategy is not read
        assert "strategy does not apply to chain_sweep scenarios" in capsys.readouterr().err


def test_nonfinite_models_are_refused_as_models():
    # every kind that reads w0 and w1 refuses a NaN or infinite entry by
    # naming them, before any run could blame the far field or diverge
    for base in (ScenarioConfig(), preset("school"), ScenarioConfig(kind="classify_bench")):
        for bad in (math.nan, math.inf, -math.inf):
            for name in ("w0", "w1"):
                model = [bad, *getattr(base, name)[1:]]
                with pytest.raises(ConfigError, match="^w0 and w1 must be .* finite"):
                    dataclasses.replace(base, **{name: model}).validate()


def test_cli_classify_bench(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(kind="classify_bench", bench_trials=200)))
    out = tmp_path / "bench"
    assert cli_main(["classify-bench", "--config", str(cfg_path), "--seed", "3",
                     "--out", str(out)]) == 0
    report = json.loads((out / "classify_bench.json").read_text())
    assert all(math.isfinite(value) for value in report.values())


@pytest.mark.parametrize("nu, vacuous", [(0.05, False), (0.2, True)])
def test_cli_classify_bench_says_when_its_bounds_are_vacuous(tmp_path, capsys, nu, vacuous):
    # P_d >= 1 - x and P_f <= x with x = 16 nu tau_hat / pi^2 say nothing
    # once x >= 1 (tau_hat is about 6 here, so at nu = 0.2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(kind="classify_bench", bench_trials=200, nu=nu)))
    out = tmp_path / "bench"
    assert cli_main(["classify-bench", "--config", str(cfg_path), "--out", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    report = json.loads((out / "classify_bench.json").read_text())
    assert (report["pf_upper_bound"] >= 1.0) == vacuous
    assert line.endswith("(vacuous: 16 nu tau_hat >= pi^2)") == vacuous


@pytest.mark.parametrize("rate, overrides", [
    # the same-model pair's estimate 0.3 from its model: both agents stay near
    pytest.param("P_d", dict(bench_distance=0.3), id="P_d-bench_distance"),
    # the models 0.2 apart: the different-model pair's midpoint is near both
    pytest.param("P_f", dict(w1=[5.0, -5.0, 5.0, 5.2]), id="P_f-close-models"),
])
def test_cli_classify_bench_refuses_an_undefined_rate(tmp_path, capsys, rate, overrides):
    # P_d and P_f are rates given that both agents are in the far field; with
    # no such trial they are undefined, and the run exits 2 writing nothing
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(kind="classify_bench", bench_trials=2000, seed=7,
                                        **overrides)))
    out = tmp_path / "bench"
    assert cli_main(["classify-bench", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: no trial of the {rate} pair put both "
                          "agents in the far field")
    assert "bench_distance" in err
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    pytest.param(dict(ru_range=[1, 1e160]), id="ru_range-huge"),      # u @ e overflows
    pytest.param(dict(ru_range=[1e-300, 1e-300]), id="ru_range-tiny"),  # tau is 0 / 0
    pytest.param(dict(bench_distance=1e300), id="bench_distance"),   # h ** 2 overflows
])
def test_cli_classify_bench_refuses_float_overflow(tmp_path, capsys, overrides):
    # arithmetic that overflows or makes a NaN is refused, not reported from
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(kind="classify_bench", bench_trials=200,
                                        **overrides)))
    out = tmp_path / "bench"
    assert cli_main(["classify-bench", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: classify-bench arithmetic failed")
    assert "ru_range and bench_distance" in err
    assert not out.exists()


def test_static_accepts_other_kinds_fields_at_their_defaults():
    doc = dict(ScenarioConfig().to_dict(), comm_radius=5, motion={},
               sweep_N=[4, 6, 8], bench_trials=100_000, ru_range=[1.0, 2.0])
    assert ScenarioConfig.from_dict(doc).comm_radius == 5


def test_cli_stability_refusal(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(
        N=8, w0=[1.0, 0.0], w1=[0.0, 1.0], split=4, mu=1.5, nu=0.2,
        alpha=0.9, eta=0.3, K=2, iterations=10, replicas=1, seed=5,
        mean_degree=4.0)))
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2


def test_cli_huge_finite_estimate_diverges_without_warnings(tmp_path, capsys):
    # a finite 1e200 overflows the step's squares before the guard names it;
    # each replica runs under one errstate, so no RuntimeWarning (an error
    # in this suite) is printed or raised
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(
        N=8, w0=[1e200, 0.0], w1=[0.0, 1.0], split=4, mu=0.02,
        nu=0.2, alpha=0.9, eta=0.3, K=2, iterations=10, replicas=1, seed=5,
        mean_degree=4.0)))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["simulate", "--config", str(cfg_path),
                         "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert re.fullmatch(r"simulation diverged: replica 0: agent 0 estimate norm "
                        r"7\.\d+e\+197 exceeded 1e\+06 at iteration 0\n", captured.err)
    assert not captured.out and not (out / "msd.csv").exists()


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


# One small base per kind.  The fish base lowers K and raises eta, because at
# the school's distances every direction clears eta = 1 and K = 4 quorums
# settle alike within 40 steps.  Classify-bench saturates (P_d = 1, P_f = 0) at
# the default distance, so its base brings the two agents' estimates closer.
DEAD_KNOB_BASES = {
    "static_two_model": dict(N=8, w0=[1.0, 0.0], w1=[0.0, 1.0], split=4,
                             iterations=60, replicas=2, seed=123, mean_degree=4.0),
    "fish": dict(preset("school").to_dict(), N=8, split=4, iterations=40, K=1,
                 eta=5.0, seed=3),
    "chain_sweep": dict(kind="chain_sweep", sweep_N=[4, 6], sweep_K=[1, 2]),
    "classify_bench": dict(kind="classify_bench", bench_trials=300, bench_distance=1.0),
}
ENTRY_POINTS = {"static_two_model": run_scenario, "fish": run_scenario,
                "chain_sweep": run_chain_sweep, "classify_bench": run_classify_bench}


def _changed(value):
    """Another value of a config field's type, near the old one."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 0.8
    if value is None:
        return 0
    if isinstance(value, str):
        return {"modified": "conventional", "uniform": "fast"}.get(value, value + "x")
    if isinstance(value, tuple):
        return (value[0] * 0.5, value[1])
    if isinstance(value, list):
        return [x + 1 for x in value]
    return dict(value, lam=0.5)          # the motion parameters


def _outputs(result):
    """Every array and number in a run's result; a config it carries is not
    an output."""
    if isinstance(result, dict):
        result = list(result.values())
    if isinstance(result, (list, tuple)):
        return [x for item in result for x in _outputs(item)]
    if dataclasses.is_dataclass(result) and not isinstance(result, ScenarioConfig):
        return _outputs([getattr(result, f.name) for f in dataclasses.fields(result)])
    return [np.asarray(result)] if isinstance(result, (np.ndarray, float, int)) else []


@pytest.mark.parametrize("kind", list(DEAD_KNOB_BASES))
def test_every_accepted_field_moves_the_result(kind):
    # a field that validate() accepts at another value must change what the
    # kind's entry point returns; the chain sweep draws nothing, so its seed
    # is the one exemption (the CLI passes --seed to every command)
    base = ScenarioConfig(**DEAD_KNOB_BASES[kind]).validate()
    run = ENTRY_POINTS[kind]
    reference = _outputs(run(base))
    tested, dead = [], []
    for f in dataclasses.fields(ScenarioConfig):
        if f.name == "kind" or (kind == "chain_sweep" and f.name == "seed"):
            continue
        cfg = dataclasses.replace(base, **{f.name: _changed(getattr(base, f.name))})
        try:
            cfg.validate()
        except ConfigError:
            continue
        tested.append(f.name)
        outputs = _outputs(run(cfg))
        if len(outputs) == len(reference) and all(
                a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
                for a, b in zip(outputs, reference)):
            dead.append(f.name)
    assert set(tested) >= set(KIND_FIELDS[kind])
    assert not dead, f"{kind} ignores {dead}"
