"""Command-line interface: run, sweep, check-cmf, metrics, plotdata.

Exit codes: 0 on success, 2 for configuration problems, 3 when a run aborts
on non-finite numerics (the partial record is still flushed to disk). A sweep
runs every point; if some fail it exits 3 when any failed on numerics and 2
otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import (
    PRESET_NAMES,
    load_config,
    load_preset,
    prepare_dict,
    preset_config,
)
from .control import practical_consensus_bound
from .dynamics import check_cmf, estimate_lipschitz, trig_grid
from .errors import ConfigError, EtcError, NumericsError
from .metrics import MetricReport, compute_metrics, markdown_tables
from .simulator import (
    Prepared,
    load_run_record,
    run,
    write_run_outputs,
    zeno_guard_report,
)

_SWEEP_LIMIT = 10_000


def _load_spec(args):
    """The run named by --preset or --config, with --integrator merged in."""
    if bool(args.preset) == bool(args.config):
        raise ConfigError("provide exactly one of --preset or --config")
    integrator = getattr(args, "integrator", None)
    overrides = {"integrator": integrator} if integrator else {}
    if args.preset:
        return load_preset(args.preset, **overrides)
    return load_config(args.config, **overrides)


def _fmt_sig(v) -> str:
    return format(float(v), ".17g")


def _run_once(prep: Prepared, out_dir: Path) -> dict:
    """Run one prepared config, write outputs, return the metric report dict."""
    cfg = prep.cfg
    # The Lipschitz grid goes first, so its arrays are freed before the record's exist.
    lip = estimate_lipschitz(prep.model, trig_grid()) if cfg.ctc == "practical" else None
    record = run(prep)
    extra = {}
    if lip is not None:
        guard = zeno_guard_report(record, prep.params, lip)
        extra["bounds"] = {
            "practical_consensus_bound": practical_consensus_bound(
                cfg.n_agents, cfg.xi, cfg.q, prep.cert.P
            ),
            "lipschitz": {"k": lip.k, "Delta": lip.Delta},
        }
        extra["zeno_guard"] = {
            "min_inter_event": list(guard.min_inter_event),
            "tau": list(guard.tau),
            "w_max": list(guard.w_max),
            "satisfied": guard.satisfied,
        }
    report = compute_metrics(record)
    write_run_outputs(record, out_dir, extra_summary=extra, report=report)
    return report.to_dict()


def _flush_partial(exc: NumericsError, out: Path) -> None:
    if exc.partial_record is not None:
        write_run_outputs(exc.partial_record, out)
        print(f"partial record flushed to {out}", file=sys.stderr)


def cmd_run(args) -> int:
    spec = _load_spec(args)
    out = Path(args.out)
    try:
        report = _run_once(spec.prepared, out)
    except NumericsError as exc:
        _flush_partial(exc, out)
        raise
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


def _sweep_points(grid: dict):
    """Cartesian product over grid axes; a key "a,b" pairs two fields."""
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
        yield "__".join(tokens), overrides


def _sweep_worker(item) -> tuple[str, dict | None, tuple[int, str] | None]:
    """Run one point: (slug, metric report, None), or (slug, None, (exit code, message))."""
    slug, config_dict, out_dir = item
    out = Path(out_dir) / slug
    try:
        return slug, _run_once(prepare_dict(config_dict), out), None
    except NumericsError as exc:
        _flush_partial(exc, out)
        return slug, None, (3, str(exc))
    except EtcError as exc:
        return slug, None, (2, str(exc))


def cmd_sweep(args) -> int:
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
    base = preset_config(spec["preset"]) if "preset" in spec else dict(spec["base"])
    if args.integrator:
        base["integrator"] = args.integrator

    points = list(_sweep_points(spec["grid"]))
    if len(points) > _SWEEP_LIMIT and not args.force:
        raise ConfigError(
            f"sweep has {len(points)} points, more than {_SWEEP_LIMIT};"
            " pass --force to proceed"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    items = []
    for slug, overrides in points:
        merged = dict(base)
        merged.update(overrides)
        items.append((slug, merged, str(out)))

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_worker, items))
    else:
        results = [_sweep_worker(item) for item in items]

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
    prep = _load_spec(args).prepared
    report = check_cmf(prep.model, prep.cert, trig_grid(step=args.grid_step))
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
    reports = {}
    payload = {}
    for run_dir in args.run:
        record = load_run_record(run_dir)
        label = Path(run_dir).name or str(run_dir)
        report = compute_metrics(record, chi=args.chi)
        reports[label] = report
        payload[label] = report.to_dict()
    text = markdown_tables(reports)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
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

    cols = [f"x{i + 1}_{d + 1}" for i in range(n_agents) for d in range(n)]
    lines = ["t," + ",".join(cols)]
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
