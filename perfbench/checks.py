"""Output checks behind the benchmark's error rate.

Each check reads back a file that a diffnet command wrote and returns a
bool; a check that cannot read or parse its file fails.  The thresholds are
the package's acceptance criteria: 1 and 7 (agreed MSD of the static runs)
and 10 (the fish school settles on one target).
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

MSD_TAIL = 500               # iterations averaged for the agreed MSD
# Highest agreed MSD per combination rule, for the one replica a workload
# runs.  Acceptance criterion 1 puts the uniform level at -45 dB, but for
# the mean of 50 replicas on its documented seed; one replica's tail mean
# over seeds 1-100 had median -49.8 dB and its highest 1% above -45.1 dB
# (worst -42.9 dB, seed 68, which reads -48.0 dB at 4 replicas), so the
# limit sits 5 dB above criterion 1.  Fast weights trade steady-state MSD
# for speed (criterion 7 lets their steady state sit above the uniform one
# and uses -30 dB as the level the agreed MSD must reach); over seeds 1-20
# at one replica and 6000 iterations it lies between -36.7 and -49.0 dB.
MSD_DESIRED_MAX_DB = {"uniform": -40.0, "fast": -30.0}
SCHOOL_SETTLED_STEP = 2000   # acceptance criterion 10: after this step ...
SCHOOL_MAX_DISTANCE = 5.0    # ... every agent is this close to the target


def read_config(out: Path) -> dict:
    with open(out / "meta.json") as fh:
        return json.load(fh)["config"]


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def msd_complete(out: Path) -> bool:
    """One finite row per iteration, numbered in order."""
    rows = _rows(out / "msd.csv")
    if len(rows) != read_config(out)["iterations"]:
        return False
    return all(int(row["iteration"]) == i
               and all(math.isfinite(float(v)) for k, v in row.items()
                       if k != "iteration")
               for i, row in enumerate(rows))


def final_agreement(out: Path) -> bool:
    rows = _rows(out / "msd.csv")
    return float(rows[-1]["agreement_fraction"]) == 1.0


def agreed_msd(out: Path) -> bool:
    limit = MSD_DESIRED_MAX_DB[read_config(out)["rule"]]
    tail = [float(row["msd_desired_db"])
            for row in _rows(out / "msd.csv")[-MSD_TAIL:]]
    return len(tail) == MSD_TAIL and sum(tail) / MSD_TAIL <= limit


def _trajectory(out: Path):
    """Stream trajectory.csv rows as dicts (the file holds steps x N rows)."""
    with open(out / "trajectory.csv", newline="") as fh:
        yield from csv.DictReader(fh)


def trajectory_complete(out: Path) -> bool:
    """One row per (step, agent) whose fields all parse as finite numbers."""
    cfg = read_config(out)
    count = 0
    for row in _trajectory(out):
        if not all(math.isfinite(float(v)) for v in row.values()):
            return False
        count += 1
    return count == cfg["iterations"] * cfg["N"]


def school_settled(out: Path) -> bool:
    """All agents end on one target, and every position after the settle
    step lies near that target (positions, as criterion 10 measures them:
    the msd_to_target column follows each agent's current desire, which
    can flip for a step while the agent stays with the school)."""
    cfg = read_config(out)
    targets = (cfg["w0"], cfg["w1"])
    last_step = cfg["iterations"] - 1
    farthest = [0.0, 0.0]          # from each model's target
    final_g = set()
    for row in _trajectory(out):
        step = int(row["step"])
        if step >= SCHOOL_SETTLED_STEP:
            x = (float(row["x1"]), float(row["x2"]))
            for g, (tx, ty) in enumerate(targets):
                farthest[g] = max(farthest[g], math.hypot(x[0] - tx, x[1] - ty))
        if step == last_step:
            final_g.add(int(row["g_global"]))
    return len(final_g) == 1 and farthest[final_g.pop()] <= SCHOOL_MAX_DISTANCE


def _chain_cells(out: Path) -> dict:
    cfg = read_config(out)
    cells = {(int(row["N"]), int(row["K"])): (float(row["rho_Q"]),
                                              float(row["mean_absorption"]))
             for row in _rows(out / "chain_sweep.csv")}
    expected = {(n, k) for n in cfg["sweep_N"] for k in cfg["sweep_K"]}
    if set(cells) != expected:
        raise ValueError("chain_sweep.csv does not cover the (N, K) grid")
    return cells


def rho_decreasing_in_K(out: Path) -> bool:
    cells = _chain_cells(out)
    for n in {n for n, _ in cells}:
        rhos = [cells[key][0] for key in sorted(k for k in cells if k[0] == n)]
        if any(b >= a for a, b in zip(rhos, rhos[1:])):
            return False
    return True


def rho_in_unit_interval(out: Path) -> bool:
    return all(0.0 < rho < 1.0 for rho, _ in _chain_cells(out).values())


def absorption_finite(out: Path) -> bool:
    return all(math.isfinite(t) for _, t in _chain_cells(out).values())


def _classify_report(out: Path) -> dict:
    with open(out / "classify_bench.json") as fh:
        return json.load(fh)


def detection_bound(out: Path) -> bool:
    report = _classify_report(out)
    return report["empirical_pd"] >= report["pd_lower_bound"]


def false_alarm_bound(out: Path) -> bool:
    report = _classify_report(out)
    return report["empirical_pf"] <= report["pf_upper_bound"]


CHECKS = {
    "static": (msd_complete, final_agreement, agreed_msd),
    "fish": (msd_complete, final_agreement, trajectory_complete,
             school_settled),
    "chain": (rho_decreasing_in_K, rho_in_unit_interval, absorption_finite),
    "classify": (detection_bound, false_alarm_bound),
}


def run_checks(kind: str, out: Path, ran: bool = True) -> dict:
    """Name -> passed for every check of ``kind``.  When the command did not
    run to a zero exit (``ran`` false) every check fails."""
    results = {}
    for check in CHECKS[kind]:
        try:
            results[check.__name__] = ran and bool(check(out))
        except (OSError, ValueError, KeyError, IndexError, TypeError,
                ZeroDivisionError):
            results[check.__name__] = False
    return results
