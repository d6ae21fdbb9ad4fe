"""Each run is validated, derived and measured once, and w is formed no more than needed.

``prepare`` (which builds the Laplacian and solves its spectra) and
``compute_metrics`` are counted across ``cli.main`` invocations,
``estimate_lipschitz`` across a sweep, and ``simulator._disagreement``
across one run, by replacing every reference the package's modules hold to
them, imports by value included.
"""

import json
import sys

import pytest

from etconsensus import dynamics, graph, metrics, simulator
from etconsensus.cli import main
from etconsensus.config import load_preset, preset_config

COUNTED = {
    "prepare": simulator.prepare,
    "build_laplacian": graph.build_laplacian,
    "compute_metrics": metrics.compute_metrics,
}


def patch_everywhere(monkeypatch, original, replacement):
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("etconsensus"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, replacement)


@pytest.fixture
def counts(monkeypatch):
    tally = dict.fromkeys(COUNTED, 0)
    for name, original in COUNTED.items():

        def counting(*args, _name=name, _original=original, **kwargs):
            tally[_name] += 1
            return _original(*args, **kwargs)

        patch_everywhere(monkeypatch, original, counting)
    return tally


def config_file(tmp_path, preset, **overrides):
    d = preset_config(preset)
    d.update(duration=0.5, **overrides)
    path = tmp_path / f"{preset}.json"
    path.write_text(json.dumps(d))
    return str(path)


@pytest.mark.parametrize(
    "preset,extra",
    [
        ("paper-asym-040", []),
        ("paper-zeno-040", []),
        ("paper-asym-040", ["--integrator", "euler"]),
    ],
)
def test_one_of_each_per_run(preset, extra, counts, tmp_path):
    cfg = config_file(tmp_path, preset)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), *extra]) == 0
    assert counts == dict.fromkeys(COUNTED, 1)


def test_one_of_each_per_sweep_point(counts, tmp_path):
    base = preset_config("paper-asym-040")
    base["duration"] = 0.5
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"base": base, "grid": {"sigma": [0.5, 0.7]}}))
    argv = ["sweep", "--config", str(spec), "--out", str(tmp_path / "out"), "--jobs", "1"]
    assert main(argv) == 0
    assert counts == dict.fromkeys(COUNTED, 2)


def test_one_lipschitz_grid_per_model_and_theta_in_a_sweep(monkeypatch, tmp_path):
    """Six practical points in one batch, over two theta_hat: two Lipschitz grids."""
    calls = 0
    original = dynamics.estimate_lipschitz

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    patch_everywhere(monkeypatch, original, counting)
    base = preset_config("paper-zeno-040")
    base["duration"] = 0.5
    spec = tmp_path / "sweep.json"
    grid = {"sigma": [0.5, 0.7, 0.9], "theta_hat": [[0.4], [0.35]]}
    spec.write_text(json.dumps({"base": base, "grid": grid}))
    argv = ["sweep", "--config", str(spec), "--out", str(tmp_path / "out"), "--jobs", "1"]
    assert main(argv) == 0
    assert calls == 2


@pytest.mark.parametrize("preset", ["paper-asym-040", "paper-zeno-040"])
def test_one_disagreement_per_step_and_per_broadcast_step(preset, monkeypatch):
    """One w per trigger evaluation, plus one on the reset estimates of a step with a broadcast.

    The initial world forms the first; a step without a broadcast hands its
    trigger's w on to the next step's control term.
    """
    prep = load_preset(preset, duration=2.0)
    calls = 0
    original = simulator._disagreement

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    patch_everywhere(monkeypatch, original, counting)
    rec = simulator.run(prep)
    broadcast_steps = int(rec.event_flags.any(axis=1).sum())
    assert 0 < broadcast_steps < rec.n_steps
    assert calls == rec.n_steps + 1 + broadcast_steps
