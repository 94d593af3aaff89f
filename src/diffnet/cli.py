"""Command-line entry points for running simulations and analyses.

Exit codes: 0 success, 2 configuration error, 3 divergence, 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .diffusion import DivergenceError
from .harness import PRESETS, STRATEGIES, ConfigError, ScenarioConfig, preset, \
    run_chain_sweep, run_classify_bench, run_scenario, write_beliefs_csv, \
    write_chain_sweep_csv, write_mean_error_csv, write_meta, write_msd_csv, \
    write_trajectory_csv
from .network import TopologyError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON scenario config file")
    p.add_argument("--preset", choices=list(PRESETS), help="named scenario preset")
    p.add_argument("--seed", type=int, help="override the RNG seed")
    p.add_argument("--replicas", type=int, help="override the replica count")
    p.add_argument("--iterations", type=int, help="override the iteration count")
    p.add_argument("--strategy", choices=STRATEGIES,
                   help="override the diffusion strategy")
    p.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffnet",
        description="Diffusion adaptation and decision-making over networks "
                    "with two data models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in [
        ("simulate", "run a static two-model network scenario"),
        ("fish", "run the mobile fish-school scenario"),
        ("analyze-chain", "sweep decision Markov chains over (N, K)"),
        ("classify-bench", "benchmark neighbor classification vs. bounds"),
    ]:
        _add_common(sub.add_parser(name, help=blurb))
    return parser


def _load_config(args: argparse.Namespace, default_kind: str) -> ScenarioConfig:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        cfg = ScenarioConfig.from_json_file(args.config)
    elif args.preset:
        cfg = preset(args.preset)
    else:
        cfg = (preset("school") if default_kind == "fish"
               else ScenarioConfig(kind=default_kind))
    if cfg.kind != default_kind:
        raise ConfigError(f"config kind {cfg.kind!r} does not match the "
                          f"{default_kind!r} subcommand")
    for name in ("seed", "replicas", "iterations", "strategy"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    return cfg.validate()


def _run_simulation(args: argparse.Namespace, kind: str) -> int:
    cfg = _load_config(args, kind)
    trace = run_scenario(cfg)
    out = args.out
    os.makedirs(out, exist_ok=True)
    written = ["msd.csv"]
    write_msd_csv(os.path.join(out, "msd.csv"), trace)
    for name, data, writer in (("beliefs.csv", trace.belief_stream, write_beliefs_csv),
                               ("trajectory.csv", trace.trajectory, write_trajectory_csv),
                               ("mean_error.csv", trace.mean_error_norm,
                                write_mean_error_csv)):
        if data is not None:
            writer(os.path.join(out, name), trace)
            written.append(name)
    write_meta(os.path.join(out, "meta.json"), cfg)
    if trace.agreement_times is not None:
        finite = trace.agreement_times[np.isfinite(trace.agreement_times)]
        settle = f" (mean settle iteration {finite.mean():.1f})" if finite.size else ""
        print(f"agreement in {finite.size / len(trace.agreement_times):.0%} of replicas{settle}")
    desired = ("" if trace.agreement_times is None   # conventional: no desired model
               else f", {trace.msd_desired_db[-1]:.2f} dB vs desired")
    print(f"final MSD: {trace.msd0_db[-1]:.2f} dB vs model 0, "
          f"{trace.msd1_db[-1]:.2f} dB vs model 1{desired}")
    print(f"wrote {', '.join(written)} and meta.json to {out}")
    return EXIT_OK


def _run_chain(args: argparse.Namespace) -> int:
    cfg = _load_config(args, "chain_sweep")
    rows = run_chain_sweep(cfg)
    os.makedirs(args.out, exist_ok=True)
    write_chain_sweep_csv(os.path.join(args.out, "chain_sweep.csv"), rows)
    write_meta(os.path.join(args.out, "meta.json"), cfg)
    for row in rows:
        print(f"N={row['N']:3d} K={row['K']:2d} rho(Q)={row['rho_Q']:.6f} "
              f"mean absorption={row['mean_absorption']:.2f}")
    return EXIT_OK


def _run_bench(args: argparse.Namespace) -> int:
    cfg = _load_config(args, "classify_bench")
    report = run_classify_bench(cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "classify_bench.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    write_meta(os.path.join(args.out, "meta.json"), cfg)
    print(f"tau_hat={report['tau_hat']:.3f}  "
          f"P_d >= {report['pd_lower_bound']:.3f} "
          f"(empirical {report['empirical_pd']:.3f}, given both far "
          f"{report['conditional_pd']:.3f} of {report['far_pairs_pd']})  "
          f"P_f <= {report['pf_upper_bound']:.3f} "
          f"(empirical {report['empirical_pf']:.4f}, given both far "
          f"{report['conditional_pf']:.4f} of {report['far_pairs_pf']})"
          + ("  (vacuous: 16 nu tau_hat >= pi^2)" if report["pf_upper_bound"] >= 1 else ""))
    print(f"wrote {path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _run_simulation(args, "static_two_model")
        if args.command == "fish":
            return _run_simulation(args, "fish")
        if args.command == "analyze-chain":
            return _run_chain(args)
        return _run_bench(args)
    except (ConfigError, TopologyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
