"""Every function the benchmark's tracing wraps must exist in the package, and be reached.

``bench/tracing.py`` wraps functions by module and attribute name. A name
that no longer resolves is reported as absent and its per-layer metric drops
out of the benchmark result, so a rename in the package silently removes a
declared metric. The lists are read from the benchmark file at test time, so
this stays valid when the benchmark changes its hooks. The traced CLI must
also pass the checks ``bench/run.py --trace 1`` makes, and the traced
benchmark must end in its result line.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from etconsensus.cli import main
from etconsensus.config import preset_config

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing_hooks", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("modname,attr,span", tracing.SPANS)
def test_span_targets_resolve(modname, attr, span):
    module = importlib.import_module(f"{tracing.PACKAGE}.{modname}")
    assert callable(getattr(module, attr, None)), f"{span}: {modname}.{attr} is gone"


@pytest.mark.parametrize("modname,cls,attr,counter", tracing.COUNTERS)
def test_counter_targets_resolve(modname, cls, attr, counter):
    module = importlib.import_module(f"{tracing.PACKAGE}.{modname}")
    owner = module if cls is None else getattr(module, cls, None)
    assert owner is not None, f"{counter}: {modname}.{cls} is gone"
    assert callable(getattr(owner, attr, None)), f"{counter}: {modname}.{cls}.{attr} is gone"


# --- the traced benchmark's checks, on short runs --------------------------------

ROOT = Path(__file__).resolve().parents[1]


def _traced(argv):
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        tracer.take()
        rc = main(argv)
        record = tracer.take()
    finally:
        patches.restore()
    return rc, record, patches


def _calls(record, span):
    return record["stats"].get(span, [0])[0]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("preset", ["paper-asym-040", "paper-zeno-040"])
def test_traced_cli_passes_the_benchmark_checks(preset, command, tmp_path, capsys):
    """What ``bench/run.py --trace 1`` gates, on ``run`` and on ``sweep --jobs 1``."""
    cfg = {**preset_config(preset), "duration": 2.0}
    out = tmp_path / "out"
    if command == "run":
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        argv = ["run", "--config", str(path), "--out", str(out)]
    else:
        path = tmp_path / "sweep.json"
        grid = {"sigma": [0.5, 0.9], "integrator": ["euler", "rk4"]}
        path.write_text(json.dumps({"base": cfg, "grid": grid}))
        argv = ["sweep", "--config", str(path), "--out", str(out), "--jobs", "1"]
    rc, record, patches = _traced(argv)
    capsys.readouterr()
    assert rc == 0
    assert patches.unreached == [] and not patches.missing
    run_dirs = [out] if command == "run" else sorted(p for p in out.iterdir() if p.is_dir())
    events = sum(json.loads((d / "summary.json").read_text())["n_events"] for d in run_dirs)
    assert events > 0
    assert _calls(record, "estimation.apply_broadcast") == events
    assert _calls(record, "simulator.step") > 0
    if preset.startswith("paper-zeno"):
        assert _calls(record, "simulator.zeno_guard") == len(run_dirs)


def test_traced_benchmark_ends_in_a_strict_json_result():
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "paper-asym",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=reject)
    assert result["correct"] is True, proc.stdout[-3000:]
    assert "coverage FAILED" not in proc.stdout
