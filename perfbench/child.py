"""One diffnet CLI command in its own process, as the benchmark runs it.

    python3 child.py REPORT MODE [diffnet CLI arguments ...]

MODE is ``probe`` (import diffnet and stop: set-up time and versions only),
``plain`` (time only the harness entry points the end-to-end throughput
needs) or ``traced`` (span every public function of the eight modules).
The child writes a JSON report to REPORT and exits with the CLI's code.
"""
import json
import sys
import time

import diffnet.cli

READY = time.monotonic()   # CLOCK_MONOTONIC: comparable with the parent's

MODULES = ("cli", "harness", "network", "diffusion", "classification",
           "decision", "markov", "mobility")
ENTRY_POINTS = ("harness.run_scenario", "harness.run_chain_sweep",
                "harness.run_classify_bench")


def peak_rss_kb() -> int:
    """High-water resident set of this process (VmHWM, which restarts at
    exec, unlike ru_maxrss)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("VmHWM missing from /proc/self/status")


def versions() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "diffnet": getattr(sys.modules["diffnet"], "__version__", None)}


def run(mode: str, argv: list) -> tuple[int, dict]:
    import importlib

    from tracer import Tracer, traced

    modules = [importlib.import_module(f"diffnet.{m}") for m in MODULES]
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    with traced(tracer, modules, None if mode == "traced" else ENTRY_POINTS):
        rc = diffnet.cli.main(argv)
    restored = all(vars(m).get(k) is v
                   for m, snap in zip(modules, before) for k, v in snap.items())
    return rc, {"spans": tracer.report(), "restored": restored,
                "peak_rss_kb": peak_rss_kb()}


def main() -> int:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    report = {"ready": READY}
    if mode == "probe":
        rc = 0
        report["versions"] = versions()
    else:
        rc, details = run(mode, argv)
        report.update(details)
    report["rc"] = rc
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
