"""Per-function spans recorded from outside the package.

Public functions of the diffnet modules are replaced by timing wrappers at
every module attribute that refers to them, so a call is seen wherever the
caller looks the name up (``diffnet.harness.quorum_prob`` as well as
``diffnet.decision.quorum_prob``).  Nothing inside ``src/`` knows about it.
Spans are aggregated in memory as they close: call count, total time and
self time (total minus the time of spans opened inside it).
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import time


class Tracer:
    """Aggregates call spans per name into ``[calls, total_s, self_s]``.

    A function that re-enters itself counts each level in ``total_s``;
    ``self_s`` is exact either way.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}
        self._open: list[float] = []   # child time of each open span

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_spans, clock = self._open, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = open_spans.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if open_spans:
                    open_spans[-1] += elapsed
        return wrapper

    def report(self) -> dict:
        return {name: {"calls": c, "s": s, "self_s": self_s}
                for name, (c, s, self_s) in self.stats.items()}


def public_functions(modules) -> dict:
    """Map each public function defined in one of ``modules`` to its span
    name ``<module>.<function>`` (module name without the package)."""
    found = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                found[obj] = f"{short}.{attr}"
    return found


def install(tracer: Tracer, modules, names=None) -> list:
    """Wrap the public functions of ``modules`` (only those whose span name
    is in ``names``, when given) at every attribute of ``modules`` that
    refers to them.  Returns the ``(module, attribute, original)`` list that
    :func:`restore` undoes."""
    targets = {fn: name for fn, name in public_functions(modules).items()
               if names is None or name in names}
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in targets.items()}
    patched = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                patched.append((mod, attr, obj))
    return patched


def restore(patched: list) -> None:
    for mod, attr, original in reversed(patched):
        setattr(mod, attr, original)


@contextlib.contextmanager
def traced(tracer: Tracer, modules, names=None):
    """Keep the wrappers installed for the duration of the block."""
    patched = install(tracer, modules, names)
    try:
        yield patched
    finally:
        restore(patched)
