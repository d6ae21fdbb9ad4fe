"""Per-layer spans and counts, recorded by wrapping the program's functions.

Nothing under ``src/`` is edited: ``install`` replaces each wrapped function
wherever a module of the package holds a reference to it, including names
imported by value (``eigvalsh`` in graph, control and dynamics; ``prepare``
in config and cli; ``propagate_all`` and ``apply_broadcast`` in simulator)
and dict values such as ``integrate._STEPPERS``. ``Patches.restore`` puts the
originals back, so untraced invocations in the same process pay nothing.

Spans are aggregated as they close (calls, inclusive time, self time, and the
names of enclosing spans) instead of being stored one by one: a traced
check-cmf alone closes ~10^5 spans. A span's self time is its duration minus
the time of the spans it directly encloses. When a span name is already
open (``config.load`` nests ``load_config`` around ``config_from_dict``),
only the outermost adds inclusive time.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

PACKAGE = "etconsensus"

# (module, attribute, span name): the measured function of each layer. The
# cli commands are wrapped only so that every span has a named ancestor.
SPANS = (
    ("simulator", "_step", "simulator.step"),
    ("simulator", "run", "simulator.run"),
    ("simulator", "prepare", "simulator.prepare"),
    ("simulator", "_banks_synchronized", "simulator.sync_check"),
    ("simulator", "_assemble_record", "simulator.assemble_record"),
    ("simulator", "write_run_outputs", "simulator.write_outputs"),
    ("simulator", "zeno_guard_report", "simulator.zeno_guard"),
    ("dynamics", "_paper_f", "dynamics.drift"),
    ("dynamics", "estimate_lipschitz", "dynamics.estimate_lipschitz"),
    ("dynamics", "check_cmf", "dynamics.check_cmf"),
    ("integrate", "rk4_step", "integrate.step"),
    ("integrate", "euler_step", "integrate.step"),
    ("estimation", "propagate_all", "estimation.propagate_all"),
    ("estimation", "apply_broadcast", "estimation.apply_broadcast"),
    ("linalg", "eigvalsh", "linalg.eigvalsh"),
    ("graph", "build_laplacian", "graph.build_laplacian"),
    ("control", "build_trigger_params", "control.build_trigger_params"),
    ("metrics", "compute_metrics", "metrics.compute_metrics"),
    ("config", "load_config", "config.load"),
    ("config", "config_from_dict", "config.load"),
    ("cli", "cmd_run", "cli.run"),
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "cmd_check_cmf", "cli.check_cmf"),
)

# (module, class or None, attribute, counter name): calls are counted, not
# timed. One Jacobian evaluation is one (state, theta) grid point of
# check_cmf or estimate_lipschitz; every EstimatorBank construction runs
# __post_init__.
COUNTERS = (
    ("dynamics", None, "_paper_jacobian", "dynamics.grid_points"),
    ("estimation", "EstimatorBank", "__post_init__", "estimation.banks_built"),
)

# Call sites that look a wrapped name up somewhere other than its defining
# module; ``install`` must have reached each one that still exists.
BY_VALUE_SITES = (
    ("graph", "eigvalsh"),
    ("control", "eigvalsh"),
    ("dynamics", "eigvalsh"),
    ("config", "prepare"),
    ("cli", "prepare"),
    ("simulator", "propagate_all"),
    ("simulator", "apply_broadcast"),
    ("integrate", "_STEPPERS"),
)

WRITTEN_DATA = ("states.csv", "events.csv")


class Tracer:
    """Aggregates spans and counters for one CLI invocation at a time."""

    def __init__(self):
        self.root = "invocation"
        self._stack: list[list] = []
        self._open: dict[str, int] = {}
        self.clear()

    def clear(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counters: dict[str, int] = {}
        self.parents: dict[str, set] = {}

    def take(self) -> dict:
        """Return what was recorded since the last take and start afresh."""
        out = {"stats": self.stats, "counters": self.counters, "parents": self.parents}
        self.clear()
        return out

    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str, fn):
        stack = self._stack
        open_ = self._open
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else self.root
            self.parents.setdefault(name, set()).add(parent)
            frame = [name, 0.0]
            stack.append(frame)
            open_[name] = open_.get(name, 0) + 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                open_[name] -= 1
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                if open_[name] == 0:
                    st[1] += dt
                st[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        def counting(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn
        return counting


def _written_bytes(tracer: Tracer, fn):
    """Wrap write_run_outputs to add the size of the CSV files it wrote.

    summary.json is left out because it carries the measured runtime, whose
    digit count varies, and the byte count must repeat exactly.
    """

    def writing(*args, **kwargs):
        out = fn(*args, **kwargs)
        tracer.count("simulator.write_outputs.bytes", sum(
            (Path(out) / f).stat().st_size for f in WRITTEN_DATA if (Path(out) / f).is_file()
        ))
        return out

    writing.__wrapped__ = fn
    return writing


class Patches:
    """The replacements ``install`` made, so they can be undone."""

    def __init__(self):
        self.done: list[tuple] = []  # (container, key, original, is_dict)
        self.missing: set[str] = set()
        self.unreached: list[str] = []

    def restore(self):
        for container, key, original, is_dict in reversed(self.done):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self.done.clear()


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def _replace_everywhere(patches: Patches, original, replacement):
    """Point every package-level reference to ``original`` at ``replacement``."""
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                patches.done.append((mod, key, original, False))
                setattr(mod, key, replacement)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        patches.done.append((value, k, original, True))
                        value[k] = replacement


def install(tracer: Tracer) -> Patches:
    """Wrap every function in SPANS and COUNTERS; report names that are gone."""
    patches = Patches()
    for modname, attr, span in SPANS:
        mod = importlib.import_module(f"{PACKAGE}.{modname}")
        original = getattr(mod, attr, None)
        if original is None:
            patches.missing.add(span)
            continue
        wrapper = tracer.span(span, original)
        if span == "simulator.write_outputs":
            wrapper = _written_bytes(tracer, wrapper)
        _replace_everywhere(patches, original, wrapper)
    for modname, cls, attr, counter in COUNTERS:
        mod = importlib.import_module(f"{PACKAGE}.{modname}")
        owner = mod if cls is None else getattr(mod, cls, None)
        original = getattr(owner, attr, None)
        if original is None:
            patches.missing.add(counter)
            continue
        wrapper = tracer.counted(counter, original)
        if cls is None:
            _replace_everywhere(patches, original, wrapper)
        else:
            patches.done.append((owner, attr, original, False))
            setattr(owner, attr, wrapper)
    for modname, attr in BY_VALUE_SITES:
        value = getattr(importlib.import_module(f"{PACKAGE}.{modname}"), attr, None)
        values = value.values() if isinstance(value, dict) else [value]
        for v in values:
            if v is not None and not hasattr(v, "__wrapped__"):
                patches.unreached.append(f"{modname}.{attr}")
    return patches


def ancestors(parents: dict, name: str) -> set:
    """Every span name seen enclosing ``name``, transitively."""
    seen: set = set()
    todo = list(parents.get(name, ()))
    while todo:
        p = todo.pop()
        if p not in seen:
            seen.add(p)
            todo.extend(parents.get(p, ()))
    return seen
