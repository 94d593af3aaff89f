"""diffnet benchmark: the paper's four long computations, end to end.

    python3 perfbench/run.py --workload bifurcation --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each repetition of a workload runs
its diffnet CLI command(s) through ``diffnet.cli.main``, each in its own
child process (``child.py``) with BLAS/OpenMP pinned to one thread, one after
the other, all on one CPU.  Repetitions continue while another one fits in
``--seconds``; every repetition's outputs are checked (``checks.py``) and
each metric is the median over repetitions.  A fixed reference loop
(``reference.py``) is timed between repetitions, and every reported time is
scaled to the box's speed in a fast phase by it.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates plain and traced repetitions and reports the per-layer metrics:
call count, total and self time of the public functions of each module, plus
the tracing overhead.  The last line of standard output is the JSON result;
a fuller record goes to ``.perfbench_work/``.  See ``README.md``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:   # before numpy loads, for the reference loop
    os.environ[_var] = BLAS_THREADS

from checks import read_config, run_checks  # noqa: E402
from reference import NOMINAL_S, reference_s  # noqa: E402

SETUP_PROBES = 8          # extra set-up samples per run, besides each command
CHILD_TIMEOUT_S = 120.0   # with --seconds <= 60, a run ends within 180 s


@dataclass(frozen=True)
class Command:
    kind: str                  # selects the output checks in checks.CHECKS
    argv: tuple
    config: dict | None = None  # written to a file and passed as --config


# Sizes: each repetition takes a few seconds on a 2-core x86 box, so a run
# holds several repetitions and their median is steady.
WORKLOADS = {
    # Headline experiment: static engine, uniform combination rule.
    "bifurcation": (
        Command("static", ("simulate", "--preset", "bifurcation",
                           "--replicas", "1")),),
    # Same engine; fast weights are rebuilt per agent on every iteration,
    # so against bifurcation it isolates the combine path.
    "fast_weights": (
        Command("static", ("simulate", "--preset", "fast_weights",
                           "--replicas", "1", "--iterations", "3000")),),
    # Mobile school: the only user of mobility, and the write-heavy one.
    # Not declared in BENCHMARK.json (see UNDECLARED).
    "school": (Command("fish", ("fish", "--preset", "school")),),
    # Markov-chain sweep and classification benchmark; no step kernel.
    "analysis": (
        Command("chain", ("analyze-chain",),
                {"kind": "chain_sweep", "sweep_N": [100, 200, 400],
                 "sweep_K": [1, 2, 3, 4]}),
        Command("classify", ("classify-bench",),
                {"kind": "classify_bench", "bench_trials": 10000})),
}

# Workloads that run but that BENCHMARK.json does not declare, with the reason.
UNDECLARED = {
    "school": "harness.write_trajectory_csv writes numpy scalar reprs "
              "(np.float64(...)) under numpy 2, so every run fails its "
              "trajectory checks; on some seeds (33, 104) the school also "
              "never settles",
}

# Public functions reported as per-layer metrics.  A name that the package
# no longer has is reported with zero calls.
LAYER_FUNCTIONS = (
    "cli.main",
    "harness.run_scenario", "harness.run_chain_sweep",
    "harness.run_classify_bench", "harness.write_msd_csv",
    "harness.write_trajectory_csv", "harness.write_chain_sweep_csv",
    "harness.write_meta",
    "network.generate_topology", "network.uniform_weights",
    "network.check_assignment",
    "diffusion.check_stepsize_stability",
    "classification.check_stepsize_separation", "classification.estimate_tau",
    "classification.direction_pair_benchmark",
    "decision.global_desires", "decision.quorum_prob",
    "markov.build_meanfield_chain", "markov.transient_spectral_radius",
    "markov.absorption_time_distribution",
    "mobility.radius_adjacency", "mobility.cohesion_all",
)
SPAN_FIELDS = (("calls", "count"), ("s", "s"), ("self_s", "s"))

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "throughput_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def spawn(mode: str, argv: list, report: Path, log: Path) -> dict:
    """Run child.py once; returns its report plus the parent-side wall time
    and set-up time, or ``{"rc": ...}`` alone when it wrote no report."""
    env = child_env()
    with open(log, "w") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(report), mode, *argv],
            cwd=log.parent, env=env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = None
        wall = time.monotonic() - t0
    if rc != 0 or not report.exists():
        return {"rc": rc}
    with open(report) as fh:
        result = json.load(fh)
    result.update(wall_s=wall, setup_s=result["ready"] - t0)
    return result


def run_command(cmd: Command, seed: int, mode: str, rep_dir: Path) -> dict:
    name = cmd.argv[0]
    out = rep_dir / name
    out.mkdir(parents=True)
    argv = [*cmd.argv, "--seed", str(seed), "--out", str(out)]
    if cmd.config is not None:
        cfg_path = rep_dir / f"{name}.config.json"
        cfg_path.write_text(json.dumps(cmd.config))
        argv += ["--config", str(cfg_path)]
    result = spawn(mode, argv, rep_dir / f"{name}.report.json",
                   rep_dir / f"{name}.log")
    ran = result["rc"] == 0
    checks = run_checks(cmd.kind, out, ran)
    if mode == "traced":
        checks["wrappers_restored"] = ran and result["restored"]
    if not ran:
        print(f"{name} exited {result['rc']}:", file=sys.stderr)
        print((rep_dir / f"{name}.log").read_text()[-2000:], file=sys.stderr)
    failed = sorted(k for k, ok in checks.items() if not ok)
    if failed:
        print(f"{name}: failed checks {failed}", file=sys.stderr)
    result["checks"] = checks
    result["io_bytes"] = sum(p.stat().st_size for p in out.iterdir())
    result["config"] = read_config(out) if ran else None
    return result


def run_rep(workload: str, seed: int, mode: str, rep_dir: Path) -> dict:
    """One repetition: every command of the workload, in order.  Timings
    are kept when every command exited 0, whatever its output checks say."""
    results = [run_command(cmd, seed, mode, rep_dir)
               for cmd in WORKLOADS[workload]]
    shutil.rmtree(rep_dir)
    checks = [ok for r in results for ok in r["checks"].values()]
    rep = {"mode": mode, "attempted": len(checks),
           "failed": checks.count(False),
           "ran": all(r["rc"] == 0 for r in results)}
    if not rep["ran"]:
        return rep
    spans = {}
    for r in results:
        for name, s in r["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]
    rep.update(
        wall_s=sum(r["wall_s"] for r in results),
        setup_s=[r["setup_s"] for r in results],
        peak_rss_mb=max(r["peak_rss_kb"] for r in results) / 1024.0,
        io_bytes=sum(r["io_bytes"] for r in results),
        configs={cmd.kind: r["config"]
                 for cmd, r in zip(WORKLOADS[workload], results)},
        spans=spans)
    rep["work_units"], rep["work_s"] = work_done(rep)
    return rep


def work_done(rep: dict) -> tuple[float, float]:
    """Units of work and the time spent in the harness entry points that
    did them: replica-iterations in run_scenario for the simulations; one
    complete analysis (run_chain_sweep plus run_classify_bench) for the
    analysis workload."""
    cfgs, spans = rep["configs"], rep["spans"]
    sim = cfgs.get("static") or cfgs.get("fish")
    if sim is not None:
        return (sim["replicas"] * sim["iterations"],
                spans["harness.run_scenario"]["s"])
    return 1, (spans["harness.run_chain_sweep"]["s"]
               + spans["harness.run_classify_bench"]["s"])


def end_to_end(reps: list, probes: list, calibrated: bool = True) -> dict:
    """Medians over repetitions.  With ``calibrated``, every time is scaled
    by NOMINAL_S / (the reference loop's time around it), i.e. to the box's
    speed in a fast phase; peak memory is never scaled."""
    def scale(ref_s):
        return NOMINAL_S / ref_s if calibrated else 1.0

    setups = [s * scale(ref) for s, ref in probes]
    setups += [s * scale(r["ref_s"]) for r in reps for s in r["setup_s"]]
    return {
        "wall_s": statistics.median(
            r["wall_s"] * scale(r["ref_s"]) for r in reps),
        "setup_s": statistics.median(setups),
        "throughput_per_s": statistics.median(
            r["work_units"] / (r["work_s"] * scale(r["ref_s"])) for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(traced: list, plain: list) -> dict:
    """Medians over traced repetitions, per repetition of the workload."""
    def med(values):
        return statistics.median(list(values))

    metrics = {}
    for name in LAYER_FUNCTIONS:
        for field, unit in SPAN_FIELDS:
            value = med(r["spans"].get(name, {}).get(field, 0) for r in traced)
            metrics[f"{name}.{field}"] = (value, unit)

    def self_us_per_replica_iter(r):
        if "harness.run_scenario" not in r["spans"]:
            return 0.0
        return 1e6 * r["spans"]["harness.run_scenario"]["self_s"] / r["work_units"]

    metrics["harness.run_scenario.self_us_per_replica_iter"] = (
        med(self_us_per_replica_iter(r) for r in traced), "us")
    metrics["harness.io_bytes"] = (med(r["io_bytes"] for r in traced), "B")
    metrics["classification.direction_pair_benchmark.bytes_computed"] = (
        med(direction_bytes(r) for r in traced), "B")
    metrics["trace.overhead_s"] = (
        med(r["wall_s"] for r in traced) - med(r["wall_s"] for r in plain), "s")
    return metrics


def direction_bytes(rep: dict) -> int:
    """Computed from array shapes, not measured: each call of
    direction_pair_benchmark rewrites two (trials, M) float64 direction
    states on each of its ceil(8 / nu) steps."""
    calls = rep["spans"].get("classification.direction_pair_benchmark",
                             {}).get("calls", 0)
    cfg = rep["configs"].get("classify")
    if not calls or cfg is None:
        return 0
    steps = math.ceil(8.0 / cfg["nu"])
    return calls * steps * 2 * cfg["bench_trials"] * cfg["M"] * 8


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "diffnet" / "cli.py").is_file():
        print(f"no diffnet sources under {ROOT / 'src'}: run from the root "
              "of a diffnet checkout", file=sys.stderr)
        return 2
    # The parent, its reference loop and every child run on one CPU: on the
    # shared host each virtual CPU slows down on its own, so the reference
    # loop tracks the workload only when both run on the same one.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    start = time.monotonic()
    deadline = start + args.seconds
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)

    def probe(i: int) -> dict:
        report = spawn("probe", [], run_dir / f"probe{i}.json",
                       run_dir / f"probe{i}.log")
        if report["rc"] != 0:
            raise SystemExit(f"set-up probe failed (exit {report['rc']}); "
                             f"see {run_dir / f'probe{i}.log'}")
        return report

    stamp = probe(0)["versions"]   # warm-up: byte-compiles on a fresh checkout
    reference_s()                  # warm-up of the reference loop
    # Each set-up sample and each repetition is paired with the mean of the
    # reference loop's times right before and right after it.
    ref = reference_s()
    probes = []
    for i in range(1, SETUP_PROBES + 1):
        setup = probe(i)["setup_s"]
        ref_next = reference_s()
        probes.append((setup, (ref + ref_next) / 2))
        ref = ref_next

    modes = ("plain", "traced") if args.trace else ("plain",)
    reps = []
    while True:
        mode = modes[len(reps) % len(modes)]
        rep = run_rep(args.workload, args.seed, mode,
                      run_dir / f"rep{len(reps)}")
        ref_next = reference_s()
        rep["ref_s"] = (ref + ref_next) / 2
        ref = ref_next
        reps.append(rep)
        walls = [r.get("wall_s", 0.0) for r in reps if r["mode"] == mode]
        all_modes_ran = len(reps) >= len(modes)
        if all_modes_ran and (time.monotonic() + statistics.median(walls)
                              + ref > deadline):
            break

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    ran = {m: [r for r in reps if r["mode"] == m and r["ran"]] for m in modes}
    metrics, raw = {}, {}
    if all(ran.values()):
        if args.trace:
            metrics = per_layer(ran["traced"], ran["plain"])
        else:
            metrics = {k: (v, END_TO_END_UNITS[k])
                       for k, v in end_to_end(ran["plain"], probes).items()}
            raw = end_to_end(ran["plain"], probes, calibrated=False)

    stamp.update(workload=args.workload, seed=args.seed, trace=args.trace,
                 seconds=args.seconds, nproc=os.cpu_count(), cpu=cpu,
                 blas_threads=BLAS_THREADS, git=git_commit(),
                 repetitions=len(reps), run_s=time.monotonic() - start,
                 reference_nominal_s=NOMINAL_S,
                 reference_median_s=statistics.median(r["ref_s"] for r in reps))
    record = {"stamp": stamp, "error_rate": failed / attempted,
              "setup_probes_s": probes, "repetitions": reps,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "uncalibrated_metrics": raw}
    shutil.rmtree(run_dir)
    result_path = WORK / (f"result-{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    result_path.write_text(json.dumps(record, indent=1))

    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} "
          "output checks failed)")
    for name, (value, unit) in metrics.items():
        extra = f" (uncalibrated {raw[name]:.6g})" if name in raw else ""
        print(f"{name} {value:.6g} {unit}{extra}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
