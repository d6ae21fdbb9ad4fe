"""End-to-end and per-layer benchmark of the etconsensus command line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload paper-asym --seed 0 --seconds 20 --trace 0

The program is imported from ``src/`` and driven in-process through
``etconsensus.cli.main([...])`` on config files generated from ``--seed``
(see ``workloads.py``). Every workload is a closed loop with one client:
each CLI invocation starts when the previous one has finished, and no more
than two processes compute at once (``sweep --jobs 2``).

``--trace 0`` measures with no instrumentation and reports the end-to-end
metrics. ``--trace 1`` alternates an untraced invocation of the workload's
first command with a traced repetition and reports per-layer metrics (see
``tracing.py``) plus the tracing overhead. Every invocation's outputs are
checked; a failed check counts the invocation as failed, and failures over
attempts is the error rate. A traced run is also incorrect when a wrapper
misses a call site or a coverage check fails: per-layer counts must repeat
exactly between repetitions, and each layer the workload exercises must be
seen (for example ``apply_broadcast`` calls equal to the events written).

Times are at a reference CPU speed (see ``speed.py``), because the speed of
a shared host drifts by up to 2x; the raw wall times are printed beside them.
The gated end-to-end metrics, each the median over one run:

- ``setup_s``: a fresh process imports the program and loads and validates
  the workload's config (numpy is imported before the clock starts);
- ``run_s``: one simulated run, from config load until its outputs are
  written: a ``run`` invocation, or one point of ``sweep --jobs 1``;
- ``session_s``: one repetition of the workload's in-process invocations
  (paper-zeno: ``run`` then ``check-cmf``; sweep: ``sweep --jobs 1``);
- ``peak_rss_mb``: peak resident memory of this process.

``cmf_s`` and ``sweep_runs_per_s.jobs1``/``jobs2`` are printed for the
workloads that make those calls. ``--jobs 2`` work runs in worker processes
whose speed cannot be sampled; its throughput is raw wall time and ungated.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without the program's source under ``src/`` it exits with code 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import tracing
from speed import REFERENCE_S, SAMPLE_PERIOD_S, SpeedSampler
from workloads import GENERATORS, SWEEP_GRID

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_SEED0 = HERE / "expected_seed0.json"

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120

# Workload -> the CLI invocations of one repetition, in order. The first is
# the one whose wall time the trace run compares traced against untraced.
PLANS = {
    "paper-asym": (("run", None),),
    "paper-zeno": (("run", None), ("check-cmf", None)),
    "network-80": (("run", None),),
    "sweep": (("sweep", 1), ("sweep", 2)),
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "session_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (span or counter, field). Fields: calls, incl, self,
# count. Ratios and tracing overhead are derived separately.
PER_LAYER = {
    "simulator.step.calls": ("simulator.step", "calls"),
    "simulator.step.self_s": ("simulator.step", "self"),
    "dynamics.drift.calls": ("dynamics.drift", "calls"),
    "dynamics.drift.s": ("dynamics.drift", "incl"),
    "integrate.step.calls": ("integrate.step", "calls"),
    "integrate.step.self_s": ("integrate.step", "self"),
    "estimation.propagate_all.calls": ("estimation.propagate_all", "calls"),
    "estimation.propagate_all.self_s": ("estimation.propagate_all", "self"),
    "estimation.banks_built": ("estimation.banks_built", "count"),
    "estimation.apply_broadcast.calls": ("estimation.apply_broadcast", "calls"),
    "estimation.apply_broadcast.s": ("estimation.apply_broadcast", "incl"),
    "simulator.run.calls": ("simulator.run", "calls"),
    "simulator.run.self_s": ("simulator.run", "self"),
    "simulator.sync_check.s": ("simulator.sync_check", "incl"),
    "dynamics.estimate_lipschitz.s": ("dynamics.estimate_lipschitz", "incl"),
    "dynamics.check_cmf.s": ("dynamics.check_cmf", "incl"),
    "dynamics.grid_points": ("dynamics.grid_points", "count"),
    "linalg.eigvalsh.calls": ("linalg.eigvalsh", "calls"),
    "linalg.eigvalsh.s": ("linalg.eigvalsh", "incl"),
    "graph.build_laplacian.calls": ("graph.build_laplacian", "calls"),
    "graph.build_laplacian.s": ("graph.build_laplacian", "incl"),
    "simulator.prepare.calls": ("simulator.prepare", "calls"),
    "simulator.prepare.s": ("simulator.prepare", "incl"),
    "control.build_trigger_params.s": ("control.build_trigger_params", "incl"),
    "simulator.assemble_record.s": ("simulator.assemble_record", "incl"),
    "simulator.write_outputs.s": ("simulator.write_outputs", "incl"),
    "simulator.write_outputs.bytes": ("simulator.write_outputs.bytes", "count"),
    "metrics.compute_metrics.calls": ("metrics.compute_metrics", "calls"),
    "simulator.zeno_guard.s": ("simulator.zeno_guard", "incl"),
    "config.load_s": ("config.load", "incl"),
    "cli.sweep.self_s": ("cli.sweep", "self"),
}

# Ratio -> (numerator metric, base metric).
RATIOS = {
    "simulator.prepare.per_run": ("simulator.prepare.calls", "simulator.run.calls"),
    "metrics.compute_metrics.per_run": ("metrics.compute_metrics.calls", "simulator.run.calls"),
    "estimation.broadcasts_per_step": ("estimation.apply_broadcast.calls", "simulator.step.calls"),
}

# Largest spans inside one `run` invocation when this benchmark was written,
# by inclusive time among spans not nested with them (diagnostic only: a
# change that speeds one of them up is expected to reorder this).
EXPECTED_LARGEST = {
    "paper-asym": ("simulator.step.self_s", "dynamics.drift.s"),
    "paper-zeno": ("dynamics.estimate_lipschitz.s",),
    "network-80": ("graph.build_laplacian.s",),
}


def _unit(metric: str) -> str:
    if metric in RATIOS or metric == "tracing.overhead":
        return "ratio"
    if metric.endswith("_s") or metric.endswith(".s") or metric.startswith("tracing.run_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _summary_digest(summary: dict) -> str:
    """Digest of summary.json without the measured runtime, the one field that varies.

    This covers every other result of a run: the metric report, and for
    practical runs the Lipschitz bounds, the Zeno guard and the consensus bound.
    """
    rest = {k: v for k, v in summary.items() if k != "runtime_seconds"}
    return hashlib.sha256(json.dumps(rest, sort_keys=True).encode()).hexdigest()


def _commit() -> str:
    """HEAD of the checkout, or "unknown" where it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    # A checkout that is not itself a work tree may still sit inside another one.
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


class Checker:
    """Output checks shared by every invocation of one benchmark run.

    Digests of one config's outputs must repeat across invocations; at seed 0
    they must also equal the digests recorded in expected_seed0.json.
    """

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.seen: dict[str, dict] = {}

    def digests(self, key: str, digests: dict) -> list[str]:
        problems = []
        first = self.seen.setdefault(key, digests)
        if first != digests:
            problems.append(f"{key}: output digests differ between repeats")
        if self.expected is not None and self.expected.get(key) != digests:
            problems.append(f"{key}: output digests differ from the recorded seed-0 digests")
        return problems

    def run_dir(self, key: str, out: Path) -> tuple[list[str], int]:
        """Check one run directory; return problems and its event count."""
        summary_path = out / "summary.json"
        if not summary_path.is_file():
            return [f"{key}: no summary.json"], 0
        summary = json.loads(summary_path.read_text())
        problems = []
        if summary.get("sync_mismatches") != 0:
            problems.append(f"{key}: sync_mismatches = {summary.get('sync_mismatches')}")
        digests = {f: _sha256(out / f) for f in ("states.csv", "events.csv")}
        digests["summary.json"] = _summary_digest(summary)
        problems += self.digests(key, digests)
        return problems, int(summary.get("n_events", 0))


class Invocation:
    """One timed CLI call: raw wall time, time at the reference speed, checks.

    ``time`` is None for calls whose work runs in worker processes.
    """

    def __init__(self, kind, jobs, wall, time, problems, n_runs, events):
        self.kind = kind
        self.jobs = jobs
        self.wall = wall
        self.time = time
        self.problems = problems
        self.n_runs = n_runs
        self.events = events

    @property
    def scale(self) -> float:
        return self.time / self.wall


class Session:
    """One benchmark run: generated inputs, a work directory, and the CLI."""

    def __init__(self, workload: str, seed: int, work: Path, cli, expected: dict | None):
        self.workload = workload
        self.work = work
        self.cli = cli
        self.checker = Checker(expected)
        self.counter = 0
        self.sampler = None
        files = GENERATORS[workload](seed)
        work.mkdir(parents=True, exist_ok=True)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(files["config"], indent=1))
        self.sweep_path = None
        self.sweep_points = 0
        if "sweep" in files:
            self.sweep_path = work / "sweep.json"
            self.sweep_path.write_text(json.dumps(files["sweep"], indent=1))
            self.sweep_points = 1
            for values in SWEEP_GRID.values():
                self.sweep_points *= len(values)

    # -- fresh-process setup ----------------------------------------------

    def setup_once(self) -> tuple[tuple[float, float] | None, str | None]:
        """Fresh-process program import plus config load: (reference, raw wall) time.

        The child imports the speed sampler, and with it numpy, before the
        clock starts: numpy's import is not the program's set-up, and the
        sampler needs it.
        """
        code = (
            "import sys\n"
            "sys.path[:0] = [sys.argv[1], sys.argv[3]]\n"
            "from speed import SpeedSampler\n"
            "def setup():\n"
            "    import etconsensus.cli\n"
            "    from etconsensus.config import load_config\n"
            "    load_config(sys.argv[2])\n"
            "_, wall, ref = SpeedSampler().timed(setup)\n"
            "print(repr(ref), repr(wall))\n"
        )
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code, str(SRC), str(self.config_path), str(HERE)],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=self.work,
            )
        except subprocess.TimeoutExpired:
            return None, f"setup: timed out after {SETUP_TIMEOUT_S} s"
        if proc.returncode != 0:
            return None, f"setup: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        ref, wall = proc.stdout.strip().splitlines()[-1].split()
        return (float(ref), float(wall)), None

    # -- CLI invocations ----------------------------------------------------

    def _main(self, argv: list[str]) -> int:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            return 1

    def _call(self, argv: list[str], in_process: bool = True) -> tuple[float, float | None, int]:
        """Raw wall time, reference time and exit code of one CLI call."""
        if self.sampler is None:
            self.sampler = SpeedSampler()
        if in_process:
            rc, wall, ref = self.sampler.timed(lambda: self._main(argv))
            return wall, ref, rc
        t0 = time.perf_counter()
        rc = self._main(argv)
        return time.perf_counter() - t0, None, rc

    def close(self):
        if self.sampler is not None:
            self.sampler.close()

    def invoke(self, kind: str, jobs) -> Invocation:
        self.counter += 1
        out = self.work / f"{kind}-{self.counter}"
        cfg = str(self.config_path)
        if kind == "run":
            wall, ref, rc = self._call(["run", "--config", cfg, "--out", str(out)])
        elif kind == "check-cmf":
            wall, ref, rc = self._call(["check-cmf", "--config", cfg, "--out", str(out)])
        else:
            wall, ref, rc = self._call(
                ["sweep", "--config", str(self.sweep_path), "--out", str(out), "--jobs", str(jobs)],
                in_process=jobs == 1,
            )
        problems = [] if rc == 0 else [f"{kind}: exit code {rc}"]
        n_runs = events = 0
        if rc == 0 and kind == "run":
            p, events = self.checker.run_dir("run", out)
            problems += p
            n_runs = 1
        elif rc == 0 and kind == "check-cmf":
            problems += self.checker.digests("check-cmf", {"report": _sha256(out)})
        elif rc == 0:
            points = sorted(p for p in out.iterdir() if p.is_dir())
            if len(points) != self.sweep_points:
                problems.append(f"sweep: {len(points)} point directories, expected {self.sweep_points}")
            for point in points:
                p, ev = self.checker.run_dir(f"sweep/{point.name}", point)
                problems += p
                events += ev
            n_runs = len(points)
        if out.is_dir():
            shutil.rmtree(out)
        elif out.exists():
            out.unlink()
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return Invocation(kind, jobs, wall, ref, problems, n_runs, events)


def _median(values):
    return statistics.median(values) if values else None


def _run_s(inv: Invocation, raw: bool = False) -> float:
    """Time per simulated run: a `run` invocation, or a sweep point."""
    t = inv.wall if raw else inv.time
    return t / inv.n_runs if inv.kind == "sweep" else t


def measure(session: Session, seconds: float) -> dict:
    """Untraced closed loop: the workload's invocations repeated for ``seconds``."""
    plan = PLANS[session.workload]
    setups, raw_setups, invocations, sessions = [], [], [], []
    problems = []
    for _ in range(SETUP_SAMPLES):
        value, problem = session.setup_once()
        if problem:
            problems.append(problem)
        else:
            setups.append(value[0])
            raw_setups.append(value[1])
    deadline = time.perf_counter() + seconds
    while True:
        rep = [session.invoke(kind, jobs) for kind, jobs in plan]
        invocations += rep
        sessions.append(rep)
        if time.perf_counter() >= deadline:
            break
    # Failed invocations count in `failed` only; their times are not samples.
    ok = [inv for inv in invocations if not inv.problems]
    primary = [inv for inv in ok if (inv.kind, inv.jobs) == plan[0]]
    samples, raw = {}, {}
    for raw_wall, out in ((False, samples), (True, raw)):
        def t(inv):
            return inv.wall if raw_wall else inv.time

        out["run_s"] = [_run_s(inv, raw_wall) for inv in primary]
        out["session_s"] = [
            sum(t(inv) for inv in rep if inv.time is not None)
            for rep in sessions if not any(inv.problems for inv in rep)
        ]
        out["cmf_s"] = [t(inv) for inv in ok if inv.kind == "check-cmf"]
        out["sweep_runs_per_s.jobs1"] = [
            inv.n_runs / t(inv) for inv in ok if inv.kind == "sweep" and inv.jobs == 1
        ]
    # Worker processes' speed is not sampled: --jobs 2 is reported raw, ungated.
    raw["sweep_runs_per_s.jobs2"] = [
        inv.n_runs / inv.wall for inv in ok if inv.kind == "sweep" and inv.jobs == 2
    ]
    samples["setup_s"] = setups
    raw["setup_s"] = raw_setups
    failed = len(problems) + sum(1 for inv in invocations if inv.problems)
    attempted = SETUP_SAMPLES + len(invocations)
    return {"samples": samples, "raw": raw, "probes": session.sampler.probes,
            "attempted": attempted, "failed": failed}


def _rep_metrics(records: list[dict], events: int) -> dict:
    """Per-layer values of one traced repetition, summed over its invocations.

    Times are scaled to the reference speed with each invocation's scale.
    """
    values: dict[str, float] = {}
    for metric, (name, field) in PER_LAYER.items():
        total = 0
        for rec in records:
            if field == "count":
                total += rec["counters"].get(name, 0)
            else:
                st = rec["stats"].get(name)
                if st is not None and field == "calls":
                    total += st[0]
                elif st is not None:
                    total += st[1 if field == "incl" else 2] * rec["scale"]
        values[metric] = total
    values["metrics.comm_count"] = events
    # Per-run ratios count only invocations that simulate, not check-cmf.
    sims = [rec for rec in records if rec["kind"] != "check-cmf"]
    for metric, (num, base) in RATIOS.items():
        n, b = (sum(rec["stats"].get(PER_LAYER[m][0], [0])[0] for rec in sims) for m in (num, base))
        values[metric] = n / b if b else 0.0
    return values


def _largest_in_run(record: dict, expected: tuple) -> tuple[list[str], bool]:
    """Rank reported times inside one `run` invocation, nested spans excluded."""
    parents = record["parents"]
    span_of = {m: PER_LAYER[m][0] for m in PER_LAYER if PER_LAYER[m][1] in ("incl", "self")}
    expected_spans = {span_of[m] for m in expected}
    nested = set()
    for span in expected_spans:
        nested |= tracing.ancestors(parents, span)
        nested |= {s for s in parents if span in tracing.ancestors(parents, s)}
    nested -= expected_spans
    ranked = []
    for metric, span in span_of.items():
        field = PER_LAYER[metric][1]
        if field == "incl" and span in nested:
            continue
        st = record["stats"].get(span)
        if st is not None:
            ranked.append((st[1] if field == "incl" else st[2], metric))
    ranked.sort(reverse=True)
    top = [m for _, m in ranked[: len(expected)]]
    return top, set(top) == set(expected)


def measure_traced(session: Session, seconds: float) -> dict:
    """Alternate untraced timed invocations with traced repetitions."""
    plan = PLANS[session.workload]
    traced_plan = [(k, j) for k, j in plan if not (k == "sweep" and j != 1)]
    tracer = tracing.Tracer()
    reps, untraced, traced = [], [], []
    attempted = failed = 0
    missing: set = set()
    unreached: set = set()
    deadline = time.perf_counter() + seconds
    while True:
        inv = session.invoke(*plan[0])
        attempted += 1
        failed += bool(inv.problems)
        if not inv.problems:
            untraced.append(_run_s(inv))

        patches = tracing.install(tracer)
        missing = patches.missing
        unreached.update(patches.unreached)
        records, events = [], 0
        try:
            tracer.take()
            for kind, jobs in traced_plan:
                inv = session.invoke(kind, jobs)
                rec = tracer.take()
                rec["kind"] = kind
                rec["scale"] = inv.scale
                records.append(rec)
                attempted += 1
                failed += bool(inv.problems)
                events += inv.events
                if (kind, jobs) == plan[0] and not inv.problems:
                    traced.append(_run_s(inv))
        finally:
            patches.restore()
        reps.append((records, events))
        if time.perf_counter() >= deadline:
            break

    per_rep = [_rep_metrics(records, events) for records, events in reps]
    metrics = {}
    varying = []
    for name in per_rep[0]:
        values = [rep[name] for rep in per_rep]
        # Counts (ints) must repeat exactly; times and ratios are floats.
        if len(set(values)) > 1 and not isinstance(values[0], float):
            varying.append(f"{name} {values}")
        metrics[name] = _median(values) if isinstance(values[0], float) else statistics.median_low(values)
    coverage = [(f"per-layer counts repeat over {len(per_rep)} repetitions"
                 + (": " + "; ".join(varying) + " differ" if varying else ""), not varying)]
    if untraced and traced:
        metrics["tracing.run_s.untraced"] = _median(untraced)
        metrics["tracing.run_s.traced"] = _median(traced)
        metrics["tracing.overhead"] = metrics["tracing.run_s.traced"] / metrics["tracing.run_s.untraced"]

    # Drop metrics whose wrapped function no longer exists: absent, not zero.
    absent = sorted(
        m for m, (name, _) in PER_LAYER.items() if name in missing
    ) + sorted(m for m, (num, base) in RATIOS.items() if {PER_LAYER[num][0], PER_LAYER[base][0]} & missing)
    for m in absent:
        metrics.pop(m, None)

    last_records, _ = reps[-1]
    if "estimation.apply_broadcast.calls" in metrics:
        ok = metrics["estimation.apply_broadcast.calls"] == metrics["metrics.comm_count"]
        coverage.append((f"estimation.apply_broadcast.calls == metrics.comm_count"
                         f" ({metrics['estimation.apply_broadcast.calls']} vs"
                         f" {metrics['metrics.comm_count']})", ok))
    if session.workload == "paper-zeno":
        for m in ("dynamics.estimate_lipschitz.s", "dynamics.check_cmf.s", "simulator.zeno_guard.s"):
            if m in metrics:
                coverage.append((f"{m} > 0", metrics[m] > 0))
    if "simulator.step.calls" in metrics:
        coverage.append(("simulator.step.calls > 0", metrics["simulator.step.calls"] > 0))
    if "linalg.eigvalsh.calls" in metrics:
        coverage.append(("linalg.eigvalsh.calls > 0", metrics["linalg.eigvalsh.calls"] > 0))
    shares = None
    if session.workload in EXPECTED_LARGEST:
        run_record = next(r for r in last_records if r["kind"] == "run")
        shares = _largest_in_run(run_record, EXPECTED_LARGEST[session.workload])
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "absent": absent,
        "coverage": coverage,
        "shares": shares,
        "unreached": sorted(unreached),
        "reps": len(reps),
    }


def _environment() -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(v, 2) for v in os.getloadavg()],
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "etconsensus" / "cli.py").is_file():
        print(f"bench: no program source at {SRC / 'etconsensus'}; nothing to measure",
              file=sys.stderr)
        return 2
    env = _environment()
    sys.path.insert(0, str(SRC))
    from etconsensus import cli

    if Path(cli.__file__).resolve().parent != (SRC / "etconsensus").resolve():
        print(f"bench: imported etconsensus from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    expected = None
    if args.seed == 0:
        expected = json.loads(EXPECTED_SEED0.read_text())[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    session = None
    try:
        session = Session(args.workload, args.seed, work, cli, expected)
        if args.trace:
            result = measure_traced(session, args.seconds)
        else:
            result = measure(session, args.seconds)
    finally:
        if session is not None:
            session.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print(f"# etconsensus benchmark: workload={args.workload} seed={args.seed}"
          f" trace={args.trace} seconds={args.seconds:g}")
    print("# environment: " + json.dumps(env, sort_keys=True))
    print("# closed loop, one client; invocations per repetition: "
          + ", ".join(k if j is None else f"{k} --jobs {j}" for k, j in PLANS[args.workload]))
    attempted, failed = result["attempted"], result["failed"]
    if not args.trace:
        samples, raw = result["samples"], result["raw"]
        metrics = {name: _median(samples[name]) for name in ("setup_s", "run_s", "session_s")}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"# times at reference speed: probe {REFERENCE_S} s, sampled every"
              f" {SAMPLE_PERIOD_S} s while timing; probe median here"
              f" {_median(result['probes']):.6g} s over {len(result['probes'])} probes")
        units = {"setup_s": "s", "run_s": "s", "session_s": "s", "cmf_s": "s",
                 "sweep_runs_per_s.jobs1": "1/s", "sweep_runs_per_s.jobs2": "1/s"}
        for name, unit in units.items():
            values = samples.get(name) or raw.get(name)
            if not values:
                continue
            line = (f"{name} = {_median(values):.6g} {unit} median, n={len(values)},"
                    f" min={min(values):.6g} max={max(values):.6g}")
            if name not in samples:
                line += " (raw wall time: worker processes are not speed-sampled)"
            elif name in raw:
                line += f"; raw wall median {_median(raw[name]):.6g} {unit}"
            print(line)
        print(f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB")
        print(f"error_rate = {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)")
        out_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
        correct = failed == 0 and all(v is not None for v in metrics.values())
    else:
        metrics = result["metrics"]
        print(f"# traced repetitions: {result['reps']}")
        if args.workload == "sweep":
            print("# sweep per-layer numbers come from --jobs 1 only: pool worker"
                  " processes are not wrapped; tracing.run_s.* is the time per sweep point")
        for name in sorted(metrics):
            print(f"{name} = {_fmt(metrics[name])} {_unit(name)}")
        for name in result["absent"]:
            print(f"{name} = absent (wrapped function no longer exists)")
        print(f"error_rate = {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)")
        for text, ok in result["coverage"]:
            print(f"coverage {'ok' if ok else 'FAILED'}: {text}")
        if result["shares"] is not None:
            top, ok = result["shares"]
            print(f"largest spans in one run invocation: {', '.join(top)}"
                  f" ({'as' if ok else 'NOT as'} expected: "
                  f"{', '.join(EXPECTED_LARGEST[args.workload])})")
        for site in result["unreached"]:
            print(f"coverage FAILED: no wrapper installed at {site}")
        out_metrics = {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}
        correct = (failed == 0 and not result["unreached"]
                   and all(ok for _, ok in result["coverage"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
