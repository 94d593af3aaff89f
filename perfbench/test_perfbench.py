"""Tests of the benchmark's own machinery: span accounting, attribute
restoration and the output checks behind the error rate."""
import csv
import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import run_checks  # noqa: E402
from tracer import Tracer, traced  # noqa: E402

MODULES = ("cli", "harness", "network", "diffusion", "classification",
           "decision", "markov", "mobility")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def work(cost):
        clock.now += cost

    leaf = tracer.wrap("leaf", work)

    def mid_body():
        work(1.0)
        leaf(2.0)
        work(0.5)

    mid = tracer.wrap("mid", mid_body)

    def root_body():
        work(3.0)
        mid()
        leaf(4.0)

    def failing_body():
        leaf(0.25)
        raise RuntimeError("span must still close")

    tracer.wrap("root", root_body)()
    with pytest.raises(RuntimeError):
        tracer.wrap("failing", failing_body)()

    stats = tracer.report()
    assert stats["root"] == {"calls": 1, "s": 10.5, "self_s": 3.0}
    assert stats["mid"] == {"calls": 1, "s": 3.5, "self_s": 1.5}
    assert stats["leaf"] == {"calls": 3, "s": 6.25, "self_s": 6.25}
    assert stats["failing"] == {"calls": 1, "s": 0.25, "self_s": 0.0}


def test_wrappers_leave_no_patched_attribute_behind():
    modules = [importlib.import_module(f"diffnet.{m}") for m in MODULES]
    harness = sys.modules["diffnet.harness"]
    decision = sys.modules["diffnet.decision"]
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    with traced(tracer, modules) as patched:
        # wrapped where the caller looks the name up, too
        assert harness.quorum_prob is decision.quorum_prob
        assert harness.quorum_prob is not before[MODULES.index("decision")][
            "quorum_prob"]
        assert all(not attr.startswith("_") for _, attr, _ in patched)
        decision.quorum_prob(3, 4, 2)
    assert tracer.report()["decision.quorum_prob"]["calls"] == 1
    for mod, snapshot in zip(modules, before):
        assert set(vars(mod)) == set(snapshot)
        for attr, value in snapshot.items():
            assert getattr(mod, attr) is value, f"{mod.__name__}.{attr}"


def test_missing_layer_function_reports_zero_calls():
    import run

    rep = {"spans": {"harness.run_scenario": {"calls": 1, "s": 2.0,
                                              "self_s": 1.0}},
           "work_units": 1000, "io_bytes": 10, "configs": {}, "wall_s": 3.0}
    metrics = run.per_layer([rep], [dict(rep, wall_s=2.5)])
    assert set(metrics) >= {f"{name}.calls" for name in run.LAYER_FUNCTIONS}
    assert metrics["decision.global_desires.calls"] == (0, "count")
    assert metrics["harness.run_scenario.self_us_per_replica_iter"] == (
        1000.0, "us")
    assert metrics["trace.overhead_s"] == (0.5, "s")


def error_rate(checks: dict) -> float:
    return list(checks.values()).count(False) / len(checks)


def write_meta(out: Path, **config) -> None:
    (out / "meta.json").write_text(json.dumps({"config": config}))


def write_msd(out: Path, rows: int) -> None:
    with open(out / "msd.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "msd0_db", "msd1_db", "msd_desired_db",
                    "agreement_fraction"])
        for i in range(rows):
            w.writerow([i, "-50.0", "23.0", "-50.0", "1.0"])


def test_truncated_msd_csv_raises_error_rate(tmp_path):
    write_meta(tmp_path, iterations=600, rule="uniform")
    write_msd(tmp_path, 600)
    assert error_rate(run_checks("static", tmp_path)) == 0.0
    write_msd(tmp_path, 599)
    assert error_rate(run_checks("static", tmp_path)) > 0.0
    assert error_rate(run_checks("static", tmp_path, ran=False)) == 1.0


def write_chain(out: Path, rho: dict) -> None:
    with open(out / "chain_sweep.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "K", "rho_Q", "mean_absorption"])
        for (n, k), value in rho.items():
            w.writerow([n, k, repr(value), "12.5"])


def test_non_monotone_chain_sweep_raises_error_rate(tmp_path):
    write_meta(tmp_path, sweep_N=[10, 20], sweep_K=[1, 2, 3])
    rho = {(n, k): 0.99 - 0.1 * k - 0.001 * n for n in (10, 20)
           for k in (1, 2, 3)}
    write_chain(tmp_path, rho)
    assert error_rate(run_checks("chain", tmp_path)) == 0.0
    rho[(20, 3)] = rho[(20, 2)] + 0.01
    write_chain(tmp_path, rho)
    assert error_rate(run_checks("chain", tmp_path)) > 0.0


def test_benchmark_json_names_every_reported_metric():
    import run

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == (
        set(run.WORKLOADS) - set(run.UNDECLARED))
    assert {(m["name"], m["unit"]) for m in doc["end_to_end"]} == set(
        run.END_TO_END_UNITS.items())
    rep = {"spans": {}, "work_units": 1, "io_bytes": 0, "configs": {},
           "wall_s": 1.0}
    layer = run.per_layer([rep], [rep])
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit) for name, (_, unit) in layer.items()]
