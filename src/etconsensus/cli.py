"""Command-line interface: run, sweep, check-cmf, metrics, plotdata.

Exit codes: 0 on success, 2 for configuration problems, 3 when a run aborts
on non-finite numerics (the partial record is still flushed to disk). A sweep
runs every point; if some fail it exits 3 when any failed on numerics and 2
otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path

from .config import (
    PRESET_NAMES,
    check_fits,
    load_config,
    load_preset,
    prepare_dict,
    preset_config,
)
from .control import practical_consensus_bound
from .dynamics import check_cmf, estimate_lipschitz, trig_grid
from .errors import ConfigError, EtcError, NumericsError
from .lockstep import SHARED_FIELDS
from .metrics import MetricReport, compute_metrics, markdown_tables
from .outputs import RunSink, csv_columns
from .simulator import (
    load_run_record,
    run_batch,
    write_run_outputs,
    zeno_guard_report,
)

_SWEEP_LIMIT = 10_000


def _load_run(args):
    """The prepared run named by --preset or --config, with --integrator merged in."""
    if bool(args.preset) == bool(args.config):
        raise ConfigError("provide exactly one of --preset or --config")
    integrator = getattr(args, "integrator", None)
    overrides = {"integrator": integrator} if integrator else {}
    if args.preset:
        return load_preset(args.preset, **overrides)
    return load_config(args.config, **overrides)


def _fmt_sig(v) -> str:
    return format(float(v), ".17g")


def _lipschitz(prep, known: dict):
    """A practical run's Lipschitz data, estimated once per model and theta pair in ``known``.

    Asymptotic runs need none. Estimate before opening a run's sink, so the
    grid's arrays are freed before the run's exist.
    """
    if prep.cfg.ctc != "practical":
        return None
    key = (prep.cfg.model, prep.model.theta_true.tobytes(), prep.model.theta_hat.tobytes())
    if key not in known:
        known[key] = estimate_lipschitz(prep.model, trig_grid())
    return known[key]


def _close_point(prep, lip, streamed, out) -> dict:
    """Write a streamed run's summary.json into ``out``; return its metric report dict.

    A run that went non-finite gets the summary of its partial outputs.
    """
    extra = {}
    if lip is not None and streamed.error is None:
        guard = zeno_guard_report(streamed, prep.params, lip)
        extra["bounds"] = {
            "practical_consensus_bound": practical_consensus_bound(
                prep.cfg.n_agents, prep.cfg.xi, prep.cfg.q, prep.cert.P
            ),
            "lipschitz": dataclasses.asdict(lip),
        }
        extra["zeno_guard"] = dataclasses.asdict(guard)
    report = compute_metrics(streamed)
    write_run_outputs(streamed, out, extra_summary=extra, report=report)
    return report.to_dict()


def cmd_run(args) -> int:
    prep = _load_run(args)
    out = Path(args.out)
    lip = _lipschitz(prep, {})
    (streamed,) = run_batch([prep], [RunSink(prep, out)])
    report = _close_point(prep, lip, streamed, out)
    if streamed.error is not None:
        print(f"partial record flushed to {out}", file=sys.stderr)
        raise NumericsError(streamed.error)
    print(
        f"run complete: gamma = {report['gamma']:.6g},"
        f" events = {report['comm_count']},"
        f" V {report['v_initial']:.6g} -> {report['v_final']:.6g}"
    )
    print(f"outputs written to {out}")
    return 0


def _slug_value(v) -> str:
    if isinstance(v, (list, tuple)):
        return "-".join(_slug_value(u) for u in v)
    return str(v).replace("/", "-")


def _sweep_points(grid: dict, limit: int | None) -> list:
    """Cartesian product over grid axes; a key "a,b" pairs two fields.

    A grid of more than ``limit`` points is refused before any is built.
    """
    if not isinstance(grid, dict):
        raise ConfigError(
            f'sweep "grid" must be an object mapping fields to value lists, got {grid!r}'
        )
    keys = sorted(grid)
    if not keys:
        raise ConfigError("sweep grid is empty")
    value_lists = []
    for key in keys:
        values = grid[key]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid entry {key!r} must be a nonempty list")
        subkeys = key.split(",")
        if len(subkeys) > 1:
            for v in values:
                if not isinstance(v, list) or len(v) != len(subkeys):
                    raise ConfigError(
                        f"grid entry {key!r} pairs {len(subkeys)} fields;"
                        f" every value must be a list of that length"
                    )
        value_lists.append(values)
    n_points = math.prod(len(values) for values in value_lists)
    if limit is not None and n_points > limit:
        raise ConfigError(
            f"sweep has {n_points} points, more than {limit}; pass --force to proceed"
        )
    points = []
    for combo in itertools.product(*value_lists):
        overrides = {}
        tokens = []
        for key, value in zip(keys, combo):
            subkeys = key.split(",")
            if len(subkeys) == 1:
                overrides[key] = value
                tokens.append(f"{key}={_slug_value(value)}")
            else:
                for sk, sv in zip(subkeys, value):
                    overrides[sk] = sv
                    tokens.append(f"{sk}={_slug_value(sv)}")
        points.append(("__".join(tokens), overrides))
    return points


def _sweep_batch(items) -> list:
    """Run one chunk of sweep points: [(slug, report, None) or (slug, None, (exit code, message))].

    Every point is prepared on its own, so a bad one fails alone; the rest
    are opened, run in lockstep as one batch and closed. ``_sub_batches``
    gave them equal ``SHARED_FIELDS``, so they share what ``lockstep`` needs.
    The sinks live only as long as this call, so one chunk's are held at a time.
    """
    results = []
    known = {}
    estimated = []
    for slug, config_dict, out_dir in items:
        try:
            prep = prepare_dict(config_dict)
            estimated.append((slug, prep, _lipschitz(prep, known), Path(out_dir) / slug))
        except EtcError as exc:
            results.append((slug, None, (2, str(exc))))
    opened = []
    for slug, prep, lip, out in estimated:
        try:
            opened.append((slug, prep, lip, out, RunSink(prep, out)))
        except EtcError as exc:
            results.append((slug, None, (2, str(exc))))
    if not opened:
        return results
    slugs, preps, lips, outs, sinks = zip(*opened)
    for slug, prep, lip, out, streamed in zip(slugs, preps, lips, outs, run_batch(preps, sinks)):
        try:
            report = _close_point(prep, lip, streamed, out)
        except EtcError as exc:
            results.append((slug, None, (2, str(exc))))
            continue
        if streamed.error is None:
            results.append((slug, report, None))
        else:
            results.append((slug, None, (3, streamed.error)))
    return results


def _sub_batches(items: list, jobs: int) -> list:
    """Split the points into up to ``jobs`` chunks per lockstep batch.

    Points are grouped by their raw ``SHARED_FIELDS`` values, before any is
    validated. Equal raw values prepare into equal lockstep fields, so a
    chunk's points that prepare always step as one batch (an int P and its
    float twin merely land apart). The chunks go to the worker pool, or run
    one after another at ``--jobs 1``, so only one chunk's points are held at a time.
    """
    groups: dict = {}
    for item in items:
        key = json.dumps([item[1].get(f) for f in SHARED_FIELDS], sort_keys=True, default=repr)
        groups.setdefault(key, []).append(item)
    chunks = []
    for group in groups.values():
        size = -(-len(group) // jobs)
        chunks += [group[i : i + size] for i in range(0, len(group), size)]
    return chunks


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    path = Path(args.config)
    try:
        spec = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read sweep file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"sweep file {path} is not valid JSON: {exc}") from None
    if not isinstance(spec, dict) or "grid" not in spec:
        raise ConfigError('sweep file must be an object with a "grid" entry')
    if ("preset" in spec) == ("base" in spec):
        raise ConfigError('sweep file must contain exactly one of "preset" or "base"')
    if "base" in spec and not isinstance(spec["base"], dict):
        raise ConfigError(f'sweep "base" must be a config object, got {spec["base"]!r}')
    base = preset_config(spec["preset"]) if "preset" in spec else dict(spec["base"])
    if args.integrator:
        base["integrator"] = args.integrator

    points = _sweep_points(spec["grid"], None if args.force else _SWEEP_LIMIT)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    items = []
    for slug, overrides in points:
        merged = dict(base)
        merged.update(overrides)
        items.append((slug, merged, str(out)))

    chunks = _sub_batches(items, args.jobs)
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel sweep needs it
        # A fork-started pool forks all its workers at the first submit.
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(chunks))) as pool:
            results = [r for rs in pool.map(_sweep_batch, chunks) for r in rs]
    else:
        results = [r for chunk in chunks for r in _sweep_batch(chunk)]

    results.sort(key=lambda triple: triple[0])
    done = {slug: report for slug, report, error in results if error is None}
    failed = {slug: error for slug, _, error in results if error is not None}
    summary = {
        "n_points": len(results),
        "grid": spec["grid"],
        "points": done,
    }
    if failed:
        summary["failed"] = {slug: message for slug, (_, message) in failed.items()}
    (out / "sweep_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    reports = {
        slug: MetricReport(**{**rep, "per_agent_event_counts": tuple(rep["per_agent_event_counts"])})
        for slug, rep in done.items()
    }
    (out / "tables.md").write_text(markdown_tables(reports) + "\n")
    print(f"sweep complete: {len(done)} runs under {out}")
    if not failed:
        return 0
    for slug, (_, message) in failed.items():
        print(f"sweep point {slug} failed: {message}", file=sys.stderr)
    return max(code for code, _ in failed.values())


def cmd_check_cmf(args) -> int:
    step = args.grid_step
    span = 2.0 * math.pi + 1e-9  # trig_grid's axis; a step as long holds a single point
    if not 0.0 < step < span:
        raise ConfigError(f"--grid-step must be a number in (0, 2*pi), got {step!r}")
    side = span / step  # trig_grid's points per axis, before rounding up
    # Its meshgrid copies and the stacked points take 32 bytes per point.
    check_fits(side * side, 32, f"the {side:.0f} x {side:.0f} points of --grid-step {step!r}",
               "raise --grid-step")
    prep = _load_run(args)
    report = check_cmf(prep.model, prep.cert, trig_grid(step=step))
    payload = {
        "holds": report.holds,
        "worst_margin": report.worst_margin,
        "worst_point": {
            "x": list(report.worst_point[0]),
            "theta": list(report.worst_point[1]),
        },
        "tolerance": report.tolerance,
        "n_points": report.n_points,
        "P": prep.cert.P.tolist(),
        "rho": prep.cert.rho,
        "q": prep.cert.q,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


def cmd_metrics(args) -> int:
    if not (math.isfinite(args.chi) and args.chi >= 0.0):
        raise ConfigError(f"--chi must be a finite number >= 0, got {args.chi!r}")
    names = [Path(run_dir).name or str(run_dir) for run_dir in args.run]
    reports = {}
    for run_dir, name in zip(args.run, names):
        label = name if names.count(name) == 1 else str(run_dir)
        reports[label] = compute_metrics(load_run_record(run_dir), chi=args.chi)
    text = markdown_tables(reports)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = {label: report.to_dict() for label, report in reports.items()}
        (out / "metrics.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        (out / "tables.md").write_text(text + "\n")
    return 0


def cmd_plotdata(args) -> int:
    if args.stride < 1:
        raise ConfigError(f"stride must be >= 1, got {args.stride}")
    record = load_run_record(args.run)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_samples, n_agents, n = record.states.shape
    idx = list(range(0, n_samples, args.stride))
    if idx[-1] != n_samples - 1:
        idx.append(n_samples - 1)

    lines = [",".join(csv_columns(n_agents, n, False))]
    for k in idx:
        lines.append(
            ",".join([_fmt_sig(record.times[k])] + [_fmt_sig(v) for v in record.states[k].ravel()])
        )
    (out / "plot_states.csv").write_text("\n".join(lines) + "\n")

    lines = ["t,v,dist2"]
    for k in idx:
        lines.append(
            f"{_fmt_sig(record.times[k])},{_fmt_sig(record.v_series[k])},{_fmt_sig(record.dist_series[k])}"
        )
    (out / "plot_v.csv").write_text("\n".join(lines) + "\n")

    lines = ["t,agent"]
    lines += [f"{_fmt_sig(t)},{agent + 1}" for t, agent in record.events]
    (out / "plot_events.csv").write_text("\n".join(lines) + "\n")
    print(f"plot data written to {out}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etconsensus",
        description="Event-triggered leader-follower consensus simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--preset", choices=PRESET_NAMES, help="named built-in scenario")
        p.add_argument("--config", help="path to a JSON config file")

    p_run = sub.add_parser("run", help="simulate one configuration")
    add_source(p_run)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--integrator", choices=("euler", "rk4"), help="override the integrator")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a cartesian parameter grid")
    p_sweep.add_argument("--config", required=True, help="sweep spec JSON file")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_sweep.add_argument("--force", action="store_true", help="allow more than 10000 points")
    p_sweep.add_argument("--integrator", choices=("euler", "rk4"), help="override the integrator")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmf = sub.add_parser("check-cmf", help="sample the decay certificate inequality")
    add_source(p_cmf)
    p_cmf.add_argument("--grid-step", type=float, default=0.05, help="state grid spacing")
    p_cmf.add_argument("--out", help="also write the JSON report to this file")
    p_cmf.set_defaults(func=cmd_check_cmf)

    p_met = sub.add_parser("metrics", help="recompute metrics from run directories")
    p_met.add_argument("--run", nargs="+", required=True, help="run output directories")
    p_met.add_argument("--chi", type=float, default=0.1, help="communication weight")
    p_met.add_argument("--out", help="directory for metrics.json and tables.md")
    p_met.set_defaults(func=cmd_metrics)

    p_plot = sub.add_parser("plotdata", help="downsampled series and event raster CSVs")
    p_plot.add_argument("--run", required=True, help="run output directory")
    p_plot.add_argument("--out", required=True, help="output directory")
    p_plot.add_argument("--stride", type=int, default=10, help="keep every stride-th sample")
    p_plot.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericsError as exc:
        print(f"numerics error: {exc}", file=sys.stderr)
        return 3
    except EtcError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
