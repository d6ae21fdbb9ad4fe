"""Config files, presets, and the command-line entry point."""

import dataclasses
import errno
import gc
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import etconsensus
from etconsensus import cli
from etconsensus.cli import main
from etconsensus.config import (
    _KINDS,
    PRESET_NAMES,
    SimConfig,
    config_from_dict,
    load_config,
    load_preset,
    prepare,
    preset_config,
)
from etconsensus.errors import ConfigError, UsageError


# One value per field kind that a field of that kind refuses.
BAD_VALUE_OF_KIND = {
    "count": 0,
    "int": 1.5,
    "name": 5,
    "flag": "no",
    "real": "x",
    "positive": 0.0,
    "non-negative": -1.0,
    "array": "high",
    "edges": [1, 2],
}


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def event_rows(run_dir):
    lines = (run_dir / "events.csv").read_text().splitlines()[1:]
    return [line for line in lines if line.strip()]


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """One asymptotic run of 0.5 s, written through the CLI."""
    base = tmp_path_factory.mktemp("cli-run")
    d = preset_config("paper-asym-040")
    d["duration"] = 0.5
    cfg = base / "cfg.json"
    cfg.write_text(json.dumps(d))
    out = base / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestPresets:
    def test_preset_names(self):
        assert PRESET_NAMES == (
            "paper-asym-035",
            "paper-asym-040",
            "paper-zeno-035",
            "paper-zeno-040",
        )

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_serialize_round_trips(self, name):
        cfg = config_from_dict(preset_config(name))
        assert cfg.to_dict() == preset_config(name)

    def test_preset_fields(self):
        zeno = preset_config("paper-zeno-040")
        assert zeno["ctc"] == "practical"
        assert zeno["xi"] == 20.0
        assert zeno["duration"] == 30.0
        asym = preset_config("paper-asym-035")
        assert asym["theta_hat"] == [0.35]
        assert asym["ctc"] == "asymptotic"
        assert asym["xi"] == 0.0
        assert asym["duration"] == 10.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_config("paper-asym-050")

    def test_load_preset_returns_the_prepared_preset(self):
        prep = load_preset("paper-asym-040", duration=2.0)
        assert prep.cfg.to_dict() == {**preset_config("paper-asym-040"), "duration": 2.0}
        assert prep.cfg.n_steps == 200


class TestConfigFiles:
    def test_optional_fields_take_defaults(self, tmp_path):
        d = preset_config("paper-asym-040")
        for key in (
            "model",
            "h",
            "integrator",
            "b",
            "epsilon",
            "xi",
            "dump_estimates",
            "check_synchrony",
            "seed",
        ):
            d.pop(key)
        cfg = load_config(write_json(tmp_path / "c.json", d)).cfg
        assert cfg.h == 0.01
        assert cfg.integrator == "rk4"
        assert cfg.model == "paper-sys"
        assert cfg.xi == 0.0
        assert cfg.b is None and cfg.epsilon is None

    def test_unknown_field_rejected(self, tmp_path):
        d = preset_config("paper-asym-040")
        d["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            load_config(write_json(tmp_path / "c.json", d))

    def test_missing_required_field(self, tmp_path):
        d = preset_config("paper-asym-040")
        del d["sigma"]
        with pytest.raises(ConfigError, match="sigma"):
            load_config(write_json(tmp_path / "c.json", d))

    def test_a_checked_config_stays_checked(self):
        d = preset_config("paper-asym-040")
        d["sigma"] = np.array(d["sigma"])
        cfg = config_from_dict(d)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.h = -0.01
        assert cfg.h == 0.01
        d["x0"][0][0] = float("nan")
        d["edges"].append([1, 1])
        d["sigma"][0] = 2.0
        with pytest.raises(TypeError):
            cfg.x0[0][0] = float("nan")
        assert cfg.to_dict() == preset_config("paper-asym-040")
        assert np.isfinite(prepare(cfg).x0).all()
        assert dataclasses.replace(cfg, h=0.02) == dataclasses.replace(cfg, h=np.float64(0.02))

    def test_bad_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(p)

    def test_nonexistent_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.json")

    def test_full_validation_runs_on_load(self, tmp_path):
        d = preset_config("paper-asym-040")
        d["sigma"] = [1.2, 0.9, 0.9, 0.9, 0.9]
        with pytest.raises(ConfigError, match="sigma"):
            load_config(write_json(tmp_path / "s.json", d))
        d = preset_config("paper-asym-040")
        d["kappa1"] = 1e-9
        with pytest.raises(ConfigError, match=r"rho/\(2\*mu\)"):
            load_config(write_json(tmp_path / "k.json", d))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("duration", "10"),
            ("h", math.nan),
            ("duration", math.inf),
            ("n_agents", True),
            ("sigma", "high"),
            ("x0", [[0.95, 0.63], [-0.70], [-0.33, -0.54], [-0.25, 0.02], [0.86, 0.01]]),
            ("n_agents", -1),
            ("model", ["paper-sys"]),
            ("dump_estimates", "no"),
            ("edges", [[1, "2"], [2, 3], [2, 5], [3, 4]]),
            ("edges", [[1, 2, math.nan], [2, 3], [2, 5], [3, 4]]),
            ("edges", [1, 2]),
            ("h", 0.03),  # 10 s is not a whole number of steps
            ("duration", 10.005),
            ("P", [[1.0]]),
            ("seed", "abc"),
            ("seed", [1, 2]),
            ("seed", None),
            ("seed", 1.5),
            ("seed", True),
            ("n_agents", 100_000_000),  # an 8e16-byte adjacency, beyond any machine's memory
            ("check_synchrony", 1),
            ("epsilon", "small"),
            ("b", [0.1, [0.1, 0.1], 0.1, 0.1, 0.1]),
            ("xi", "0"),
            ("ctc", ["practical"]),
            # 1/b_2 overflows: s_2 = inf - inf = NaN would never fire
            ("b", [0.1, 0.1, 5e-324, 0.1, 0.1]),
        ],
    )
    def test_malformed_value_exits_2_naming_field(self, field, value, tmp_path, capsys):
        d = preset_config("paper-asym-040")
        d[field] = value
        cfgp = write_json(tmp_path / "c.json", d)
        assert main(["run", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert field in err

    def test_every_field_declares_a_kind_prepare_knows(self):
        for f in dataclasses.fields(SimConfig):
            kind = f.metadata.get("kind")
            choices = isinstance(kind, tuple) and all(isinstance(c, str) for c in kind)
            assert choices or kind in _KINDS, f"{f.name} declares no known kind: {kind!r}"

    @pytest.mark.parametrize("f", dataclasses.fields(SimConfig), ids=lambda f: f.name)
    def test_every_field_refuses_a_value_not_of_its_kind(self, f, tmp_path, capsys):
        kind = f.metadata["kind"]
        d = preset_config("paper-asym-040")
        d[f.name] = "none-such" if isinstance(kind, tuple) else BAD_VALUE_OF_KIND[kind]
        cfgp = write_json(tmp_path / "c.json", d)
        assert main(["run", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {f.name} ")

    @pytest.mark.parametrize(
        "values,named",
        [
            # 10^12 steps: a record of ~230 TiB
            ({"duration": 1e6, "h": 1e-6}, ("duration", "h")),
            ({"P": [[5.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}, ("P",)),
        ],
    )
    def test_malformed_values_exit_2_naming_fields(self, values, named, tmp_path, capsys):
        d = preset_config("paper-asym-040")
        d.update(values)
        cfgp = write_json(tmp_path / "c.json", d)
        assert main(["run", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        for name in named:
            assert name in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "spec,field",
        [
            ({"base": 5, "grid": {"sigma": [0.5]}}, '"base"'),
            ({"preset": "paper-asym-040", "grid": ["sigma"]}, '"grid"'),
            ({"preset": ["paper-asym-040"], "grid": {"sigma": [0.5]}}, "preset"),
        ],
    )
    def test_malformed_sweep_exits_2_naming_field(self, spec, field, tmp_path, capsys):
        specp = write_json(tmp_path / "s.json", spec)
        assert main(["sweep", "--config", specp, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert field in err

    @pytest.mark.parametrize(
        "grid,key,slug",
        [
            ({"sigma": [0.5, 0.5]}, "sigma", "sigma=0.5"),
            ({"sigma": [0.5, "0.5"]}, "sigma", "sigma=0.5"),
            ({"kappa1": [0.1, 0.2], "sigma": [0.7, 0.5, 0.5]}, "sigma", "kappa1=0.1__sigma=0.5"),
            ({"ctc,xi": [["practical", 20], ["practical", "20"]]}, "ctc,xi", "ctc=practical__xi=20"),
        ],
    )
    def test_points_sharing_a_slug_exit_2_before_any_runs(self, grid, key, slug, tmp_path, capsys):
        """Two points with one slug would write one output directory."""
        specp = write_json(tmp_path / "s.json", {"preset": "paper-asym-040", "grid": grid})
        out = tmp_path / "o"
        for jobs in ("1", "2"):
            assert main(["sweep", "--config", specp, "--out", str(out), "--jobs", jobs]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ")
            assert repr(key) in err and repr(slug) in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "grid,field,entries",
        [
            ({"sigma": [0.5], "sigma,kappa2": [[0.7, 5.0]]}, "sigma", ("sigma", "sigma,kappa2")),
            ({"kappa2,xi": [[5.0, 20]], "sigma,xi": [[0.5, 10]]}, "xi", ("kappa2,xi", "sigma,xi")),
            ({"sigma,sigma": [[0.5, 0.7]]}, "sigma", ("sigma,sigma",)),
        ],
    )
    def test_grid_setting_a_field_twice_exits_2_before_any_runs(
        self, grid, field, entries, tmp_path, capsys
    ):
        """Only the last value would run, under a slug that names both."""
        specp = write_json(tmp_path / "s.json", {"preset": "paper-asym-040", "grid": grid})
        out = tmp_path / "o"
        assert main(["sweep", "--config", specp, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert repr(field) in err and all(repr(entry) in err for entry in entries)
        assert not out.exists()


    @pytest.mark.parametrize("key,field", [("sigma, kappa2", " kappa2"), ("sigm", "sigm")])
    def test_grid_naming_an_unknown_field_exits_2_before_any_runs(self, key, field, tmp_path,
                                                                 capsys):
        """Each point would fail alone, after the sweep's directory and summary were made."""
        values = [[0.5, 5.0]] if "," in key else [0.5]
        specp = write_json(tmp_path / "s.json", {"preset": "paper-asym-040", "grid": {key: values}})
        out = tmp_path / "o"
        assert main(["sweep", "--config", specp, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert repr(key) in err and repr(field) in err
        assert not out.exists()


class TestRunCommand:
    def test_writes_three_files(self, short_run):
        for name in ("states.csv", "events.csv", "summary.json"):
            assert (short_run / name).exists()

    def test_summary_counts_match_events_csv(self, short_run):
        summary = json.loads((short_run / "summary.json").read_text())
        rows = event_rows(short_run)
        assert summary["n_events"] == len(rows)
        assert summary["metrics"]["comm_count"] == len(rows)
        assert sum(summary["per_agent_event_counts"]) == len(rows)
        assert summary["error"] is None
        assert summary["sync_mismatches"] == 0

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_that_cannot_be_made_exits_2_naming_it(self, command, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        spec = write_json(tmp_path / "s.json", {"preset": "paper-asym-040",
                                                "grid": {"sigma": [0.5]}})
        source = ["--preset", "paper-asym-040"] if command == "run" else ["--config", spec]
        for out in (blocker, blocker / "sub"):
            assert main([command, *source, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: cannot write {out}: "), err
        assert blocker.read_text() == ""

    def test_source_flags_are_exclusive(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main(["run", "--out", out]) == 2
        cfgp = write_json(tmp_path / "c.json", preset_config("paper-asym-040"))
        assert main(["run", "--preset", "paper-asym-040", "--config", cfgp, "--out", out]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_integrator_override(self, tmp_path, capsys):
        d = preset_config("paper-asym-040")
        d["duration"] = 0.1
        cfgp = write_json(tmp_path / "c.json", d)
        out = tmp_path / "o"
        assert main(["run", "--config", cfgp, "--integrator", "euler", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "run complete" in captured
        assert "outputs written" in captured
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["integrator"] == "euler"

    def test_practical_summary_includes_bounds(self, tmp_path):
        d = preset_config("paper-zeno-040")
        d["duration"] = 1.0
        cfgp = write_json(tmp_path / "c.json", d)
        out = tmp_path / "o"
        assert main(["run", "--config", cfgp, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        bound = summary["bounds"]["practical_consensus_bound"]
        assert math.isclose(bound, 582.8427124746189, rel_tol=1e-12)
        assert summary["bounds"]["lipschitz"]["k"] > 0
        assert summary["bounds"]["lipschitz"]["Delta"] > 0
        guard = summary["zeno_guard"]
        assert len(guard["tau"]) == 5
        assert len(guard["min_inter_event"]) == 5
        assert all(t > 0 for t in guard["tau"])
        assert isinstance(guard["satisfied"], bool)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerics_failure_flushes_partial_record(self, tmp_path, capsys):
        d = preset_config("paper-asym-040")
        d.update({"h": 1e6, "duration": 6e7})
        cfgp = write_json(tmp_path / "c.json", d)
        out = tmp_path / "o"
        assert main(["run", "--config", cfgp, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerics error" in err
        assert "partial record" in err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] is not None
        rows = (out / "states.csv").read_text().splitlines()
        assert 2 <= len(rows) <= 61


class TestCheckCmf:
    def test_out_in_a_missing_directory_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "missing" / "cmf.json"
        argv = ["check-cmf", "--preset", "paper-asym-040", "--grid-step", "0.5", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot write {out}: ")

    def test_benchmark_certificate_fails_on_grid(self, tmp_path, capsys):
        outp = tmp_path / "cmf.json"
        rc = main(
            ["check-cmf", "--preset", "paper-asym-040", "--grid-step", "0.5", "--out", str(outp)]
        )
        assert rc == 0
        payload = json.loads(outp.read_text())
        assert json.loads(capsys.readouterr().out) == payload
        assert payload["holds"] is False
        assert payload["worst_margin"] > 0.0
        assert payload["n_points"] > 0
        assert len(payload["worst_point"]["x"]) == 2

    def test_large_damping_certificate_holds(self, tmp_path, capsys):
        d = preset_config("paper-asym-040")
        d.update({"rho": 20.0, "kappa1": 60.0})
        cfgp = write_json(tmp_path / "c.json", d)
        assert main(["check-cmf", "--config", cfgp, "--grid-step", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True
        assert payload["worst_margin"] <= payload["tolerance"]
        assert payload["rho"] == 20.0

    @pytest.mark.parametrize("step", ["0", "nan", "1e-7", "-0.05", "inf", "10", "7"])
    def test_bad_grid_step_exits_2_naming_it(self, step, capsys):
        """Refused before any grid is built: one too large for memory, and one
        whose axes would hold a single point each (any step above 2*pi)."""
        assert main(["check-cmf", "--preset", "paper-asym-040", f"--grid-step={step}"]) == 2
        assert "--grid-step" in capsys.readouterr().err

    def test_faster_decay_demand_fails(self, tmp_path, capsys):
        d = preset_config("paper-asym-040")
        d["q"] = 10.0
        cfgp = write_json(tmp_path / "c.json", d)
        assert main(["check-cmf", "--config", cfgp, "--grid-step", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is False
        assert payload["worst_margin"] > 0.0


class TestMetricsCommand:
    def test_reports_match_run_outputs(self, short_run, tmp_path, capsys):
        mout = tmp_path / "m"
        assert main(["metrics", "--run", str(short_run), "--out", str(mout)]) == 0
        text = capsys.readouterr().out
        assert "### Performance index gamma" in text
        assert "### Communication count" in text
        payload = json.loads((mout / "metrics.json").read_text())
        label = short_run.name
        rows = event_rows(short_run)
        assert payload[label]["comm_count"] == len(rows)
        summary = json.loads((short_run / "summary.json").read_text())
        assert math.isclose(payload[label]["gamma"], summary["metrics"]["gamma"], rel_tol=1e-9)
        assert (mout / "tables.md").read_text().rstrip("\n") == text.rstrip("\n")

    def test_runs_sharing_a_base_name_keep_their_paths(self, short_run, tmp_path, capsys):
        other = tmp_path / short_run.name
        d = preset_config("paper-zeno-040")
        d["duration"] = 0.5
        assert main(["run", "--config", write_json(tmp_path / "c.json", d), "--out", str(other)]) == 0
        mout = tmp_path / "m"
        assert main(["metrics", "--run", str(short_run), str(other), "--out", str(mout)]) == 0
        payload = json.loads((mout / "metrics.json").read_text())
        assert set(payload) == {str(short_run), str(other)}
        for run_dir in (short_run, other):
            assert payload[str(run_dir)]["comm_count"] == len(event_rows(run_dir))
        assert payload[str(short_run)] != payload[str(other)]

    def test_zero_event_run(self, tmp_path, capsys):
        d = preset_config("paper-asym-040")
        d.update({"duration": 0.2, "theta_hat": [0.5], "x0": [[0.4, -0.2]] * 5})
        cfgp = write_json(tmp_path / "c.json", d)
        out = tmp_path / "quiet"
        assert main(["run", "--config", cfgp, "--out", str(out)]) == 0
        assert event_rows(out) == []
        assert main(["metrics", "--run", str(out)]) == 0
        text = capsys.readouterr().out
        assert "| quiet | 0 |" in text

    def test_rejects_non_run_directory(self, tmp_path):
        assert main(["metrics", "--run", str(tmp_path)]) == 2

    @pytest.mark.parametrize("chi", ["nan", "inf", "-1"])
    def test_bad_chi_exits_2_naming_it(self, chi, short_run, tmp_path, capsys):
        mout = tmp_path / "m"
        assert main(["metrics", "--run", str(short_run), "--chi", chi, "--out", str(mout)]) == 2
        assert "--chi" in capsys.readouterr().err
        assert not mout.exists()

    @pytest.mark.parametrize(
        "name,damage",
        [
            ("summary.json", None),
            ("summary.json", lambda text: text.replace('"seed"', '"sead"')),
            ("summary.json", lambda text: text[:-10]),
            ("events.csv", lambda text: text + "0.5;2\n"),
            ("events.csv", lambda text: text + "0.1,9\n"),
            ("events.csv", lambda text: text + "0.015,2\n"),  # t not k*h
            ("states.csv", lambda text: text + "0.51,1,2\n"),
            ("states.csv", lambda text: text.replace("\n0.01,", "\n0.0100001,", 1)),  # t not k*h
        ],
    )
    def test_malformed_run_directory_exits_2_naming_the_file(
        self, name, damage, short_run, tmp_path, capsys
    ):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        for f in ("states.csv", "events.csv", "summary.json"):
            (run_dir / f).write_text((short_run / f).read_text())
        if damage is None:
            (run_dir / name).unlink()
        else:
            (run_dir / name).write_text(damage((run_dir / name).read_text()))
        assert main(["metrics", "--run", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert str(run_dir / name) in err


class TestPlotdata:
    def test_downsampled_files(self, short_run, tmp_path):
        out = tmp_path / "p"
        assert main(["plotdata", "--run", str(short_run), "--out", str(out), "--stride", "10"]) == 0
        states_lines = (out / "plot_states.csv").read_text().splitlines()
        # 51 samples at stride 10 keep rows 0, 10, 20, 30, 40, 50
        assert len(states_lines) == 1 + 6
        assert states_lines[0].startswith("t,x1_1,x1_2")
        v_lines = (out / "plot_v.csv").read_text().splitlines()
        assert v_lines[0] == "t,v,dist2"
        assert len(v_lines) == 1 + 6
        ev_lines = (out / "plot_events.csv").read_text().splitlines()
        assert ev_lines[0] == "t,agent"
        assert len(ev_lines) == 1 + len(event_rows(short_run))

    def test_last_sample_always_kept(self, short_run, tmp_path):
        out = tmp_path / "p"
        assert main(["plotdata", "--run", str(short_run), "--out", str(out), "--stride", "7"]) == 0
        lines = (out / "plot_states.csv").read_text().splitlines()
        # range(0, 51, 7) ends at 49, so the final sample is appended
        assert len(lines) == 1 + 9
        assert float(lines[-1].split(",")[0]) == pytest.approx(0.5)

    def test_spread_is_worked_out_once(self, short_run, tmp_path, monkeypatch):
        calls = []
        spread = etconsensus.metrics.dist_series
        monkeypatch.setattr(etconsensus.metrics, "dist_series",
                            lambda states: calls.append(1) or spread(states))
        assert main(["plotdata", "--run", str(short_run), "--out", str(tmp_path / "p"),
                     "--stride", "10"]) == 0
        assert len(calls) == 1

    def test_bad_stride(self, short_run, tmp_path):
        rc = main(["plotdata", "--run", str(short_run), "--out", str(tmp_path / "p"), "--stride", "0"])
        assert rc == 2


SWEEP_GRID = {
    "theta_hat": [[0.4], [0.35]],
    "ctc,xi": [["asymptotic", 0.0], ["practical", 20.0]],
    "duration": [0.5],
}


def sweep_spec_file(tmp_path):
    return write_json(tmp_path / "sweep.json", {"preset": "paper-asym-040", "grid": SWEEP_GRID})


class TestEntryPoint:
    """``python -m etconsensus`` in a fresh process, as a user runs it."""

    def _module(self, *argv):
        src = str(Path(etconsensus.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "etconsensus", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)

    def test_run_exits_0_and_writes_its_summary(self, tmp_path):
        cfgp = write_json(tmp_path / "c.json", {**preset_config("paper-asym-040"), "duration": 0.5})
        proc = self._module("run", "--config", cfgp, "--out", str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "o" / "summary.json").read_text())["error"] is None

    def test_malformed_config_exits_2(self, tmp_path):
        cfgp = write_json(tmp_path / "c.json", {**preset_config("paper-asym-040"), "h": "0.01"})
        proc = self._module("run", "--config", cfgp, "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: h ")


class TestSweep:
    def test_grid_outputs(self, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--config", sweep_spec_file(tmp_path), "--out", str(out)]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["n_points"] == 4
        subdirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert len(subdirs) == 4
        assert set(summary["points"]) == set(subdirs)
        for slug in subdirs:
            assert (out / slug / "summary.json").exists()
            assert (out / slug / "states.csv").exists()
        tables = (out / "tables.md").read_text()
        assert "### Performance index gamma" in tables
        asym = [v["comm_count"] for k, v in summary["points"].items() if "ctc=asymptotic" in k]
        prac = [v["comm_count"] for k, v in summary["points"].items() if "ctc=practical" in k]
        assert len(asym) == 2 and len(prac) == 2
        assert sum(asym) > sum(prac)

    def test_importing_the_cli_leaves_the_process_pool_out(self):
        """Only ``sweep --jobs`` above 1 pays for importing concurrent.futures."""
        src = str(Path(etconsensus.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        code = "import sys, etconsensus.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_bad_jobs_exits_2_naming_it(self, jobs, tmp_path, capsys):
        out = tmp_path / "sw"
        argv = ["sweep", "--config", sweep_spec_file(tmp_path), "--out", str(out), f"--jobs={jobs}"]
        assert main(argv) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def serial_pool(monkeypatch) -> list:
        """Run the pool's chunks in this process, one after another; returns the pool sizes asked."""
        import concurrent.futures

        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return asked

    def test_pool_forks_no_more_workers_than_chunks(self, tmp_path, monkeypatch):
        """A fork-started pool forks all ``max_workers`` at the first submit, so cap it."""
        asked = self.serial_pool(monkeypatch)
        out = tmp_path / "sw"
        argv = ["sweep", "--config", sweep_spec_file(tmp_path), "--out", str(out), "--jobs", "5000"]
        assert main(argv) == 0
        assert asked == [4]  # one chunk per point of the 4-point grid
        assert json.loads((out / "sweep_summary.json").read_text())["n_points"] == 4

    def test_chunks_are_dealt_round_robin(self, tmp_path, monkeypatch):
        """At ``--jobs 2`` each chunk gets a share of both integrators' batches.

        The grid's outer axis is the integrator, so halving it in grid order
        would give one worker every euler point and the other every rk4 point.
        """
        self.serial_pool(monkeypatch)
        batches = []
        original = cli.run_batch

        def recording(preps, sinks=None):
            batches.append([(p.cfg.integrator, p.cfg.sigma) for p in preps])
            return original(preps, sinks)

        monkeypatch.setattr(cli, "run_batch", recording)
        base = {**preset_config("paper-asym-040"), "duration": 0.1}
        grid = {"integrator": ["euler", "rk4"], "sigma": [0.5, 0.7, 0.9]}
        specp = write_json(tmp_path / "s.json", {"base": base, "grid": grid})
        assert main(["sweep", "--config", specp, "--out", str(tmp_path / "sw"), "--jobs", "2"]) == 0
        assert batches == [
            [("euler", 0.5), ("euler", 0.9)], [("rk4", 0.7)],
            [("euler", 0.7)], [("rk4", 0.5), ("rk4", 0.9)],
        ]

    def test_a_chunk_holds_one_batch_of_prepared_runs(self, tmp_path, monkeypatch):
        """Each batch is prepared only after the last one's prepared runs are freed."""
        held, alive = [], []  # weakrefs to every prepared run; how many live at each batch
        original = cli.run_batch

        def recording(preps, sinks=None):
            gc.collect()
            alive.append(sum(ref() is not None for ref in held))
            held.extend(weakref.ref(p) for p in preps)
            return original(preps, sinks)

        monkeypatch.setattr(cli, "run_batch", recording)
        base = {**preset_config("paper-asym-040"), "duration": 0.1}
        grid = {"integrator": ["euler", "rk4"], "duration": [0.1, 0.2], "sigma": [0.5, 0.7]}
        specp = write_json(tmp_path / "s.json", {"base": base, "grid": grid})
        assert main(["sweep", "--config", specp, "--out", str(tmp_path / "sw"), "--jobs", "1"]) == 0
        assert alive == [0, 0, 0, 0]
        assert len(held) == 8

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_whose_every_point_is_invalid_exits_2(self, jobs, tmp_path, capsys):
        """No point is left to run, so no chunk is made and no pool is built."""
        grid = {"h": [-0.01, -0.02]}
        specp = write_json(tmp_path / "s.json", {"preset": "paper-asym-040", "grid": grid})
        out = tmp_path / "sw"
        assert main(["sweep", "--config", specp, "--out", str(out), "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "sweep point h=-0.02 failed: h must be" in err
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["points"] == {} and summary["n_points"] == 2
        assert sorted(summary["failed"]) == ["h=-0.01", "h=-0.02"]
        assert (out / "tables.md").exists()

    def test_every_chunk_steps_in_one_lockstep(self, tmp_path, monkeypatch):
        """Points that prepare equal share one ``run_batch``, however their values are written.

        The 72 points differ in integrator, duration, h (left to its default,
        given as 0.01, or 0.02), P (as ints or as floats) and theta_hat. The
        default h is 0.01, so at ``--jobs 1`` they step as one batch per
        (integrator, duration, h): 8 batches.
        """
        batches = []
        original = cli.run_batch

        def recording(preps, sinks=None):
            batches.append([(p.cfg.integrator, p.cfg.duration, p.cfg.h) for p in preps])
            return original(preps, sinks)

        points = []
        for integrator, duration, h, P, theta_hat in itertools.product(
            ("euler", "rk4"),
            (0.1, 0.2),
            (None, 0.01, 0.02),
            ([[5, 2], [2, 1]], [[5.0, 2.0], [2.0, 1.0]]),
            ([0.4], [0.35], [0.45]),
        ):
            point = {"integrator": integrator, "duration": duration, "P": P, "theta_hat": theta_hat}
            if h is not None:
                point["h"] = h
            points.append((str(len(points)), point))
        # A grid sets every point's h; these points may also leave it out.
        monkeypatch.setattr(cli, "_sweep_points", lambda grid, limit: points)
        monkeypatch.setattr(cli, "run_batch", recording)
        base = preset_config("paper-asym-040")
        del base["h"]
        specp = write_json(tmp_path / "s.json", {"base": base, "grid": {"duration": [0.1]}})
        out = tmp_path / "sw"
        assert main(["sweep", "--config", specp, "--out", str(out), "--jobs", "1"]) == 0
        assert len(json.loads((out / "sweep_summary.json").read_text())["points"]) == 72
        assert sorted(len(batch) for batch in batches) == [6] * 4 + [12] * 4
        assert all(len(set(batch)) == 1 for batch in batches)
        assert len({batch[0] for batch in batches}) == 8

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unmakeable_directory_fails_its_point_alone(self, jobs, tmp_path, capsys):
        """A slug too long for a file name fails its point alone: the others run and are written.

        One x0 and one sigma are written with 15 significant digits, so only
        the last point, which has both, gets a slug of more than 255 bytes; at
        ``--jobs 2`` it shares a chunk with the second.
        """

        def long(v):
            return float(f"{v:.2f}{'0' * 12}1")

        base = {**preset_config("paper-asym-040"), "duration": 0.1}
        x0s = [base["x0"], [[long(v) for v in row] for row in base["x0"]]]
        sigmas = [base["sigma"], [long(v) for v in base["sigma"]]]
        specp = write_json(tmp_path / "s.json", {"base": base, "grid": {"sigma": sigmas, "x0": x0s}})
        out = tmp_path / "sw"
        assert main(["sweep", "--config", specp, "--out", str(out), "--jobs", jobs]) == 2
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert (out / "tables.md").exists()
        (bad,) = summary["failed"]
        assert len(bad.encode()) > 255
        assert "File name too long" in summary["failed"][bad]
        assert bad in capsys.readouterr().err
        assert len(summary["points"]) == 3
        for n, (slug, overrides) in enumerate(cli._sweep_points(summary["grid"], None)):
            if slug == bad:
                continue
            cfgp = write_json(tmp_path / f"c{n}.json", {**base, **overrides})
            solo = tmp_path / f"solo{n}"
            assert main(["run", "--config", cfgp, "--out", str(solo)]) == 0
            for name in ("states.csv", "events.csv"):
                assert (out / slug / name).read_bytes() == (solo / name).read_bytes()

    def test_unwritable_summary_fails_its_point_alone(self, tmp_path, monkeypatch, capsys):
        """A point whose summary.json is a directory fails alone, at both --jobs values.

        Each sweep writes to ``sw`` in its own working directory, so the
        failure names the same path and the two sweep summaries can be equal.
        """
        base = {**preset_config("paper-asym-040"), "duration": 0.1}
        specp = write_json(tmp_path / "s.json", {"base": base, "grid": {"sigma": [0.5, 0.7, 0.9]}})
        clean = tmp_path / "clean"
        assert main(["sweep", "--config", specp, "--out", str(clean)]) == 0
        outs = [tmp_path / "j1" / "sw", tmp_path / "j2" / "sw"]
        for out, jobs in zip(outs, ("1", "2")):
            (out / "sigma=0.7" / "summary.json").mkdir(parents=True)
            monkeypatch.chdir(out.parent)
            assert main(["sweep", "--config", specp, "--out", "sw", "--jobs", jobs]) == 2
            assert "sweep point sigma=0.7 failed" in capsys.readouterr().err
            summary = json.loads((out / "sweep_summary.json").read_text())
            assert summary["failed"] == {
                "sigma=0.7": "cannot write sw/sigma=0.7/summary.json: Is a directory"
            }
            assert sorted(summary["points"]) == ["sigma=0.5", "sigma=0.9"]
            assert (out / "tables.md").exists()
            for slug in summary["points"]:
                for name in ("states.csv", "events.csv"):
                    assert (out / slug / name).read_bytes() == (clean / slug / name).read_bytes()
                runs = [json.loads((d / slug / "summary.json").read_text()) for d in (out, clean)]
                for run in runs:
                    del run["runtime_seconds"]
                assert runs[0] == runs[1]
        assert (outs[0] / "sweep_summary.json").read_bytes() == (outs[1] / "sweep_summary.json").read_bytes()

    @pytest.mark.parametrize(
        "exc,message",
        [
            (UsageError("the euler batch broke"), "the euler batch broke"),
            (OSError(errno.ENOSPC, "No space left on device", "disk"),
             "cannot write disk: No space left on device"),
        ],
    )
    def test_batch_whose_run_raises_fails_only_its_points(self, exc, message, tmp_path,
                                                          monkeypatch, capsys):
        original = cli.run_batch

        def failing(preps, sinks=None):
            if preps[0].cfg.integrator == "euler":
                raise exc
            return original(preps, sinks)

        monkeypatch.setattr(cli, "run_batch", failing)
        base = {**preset_config("paper-asym-040"), "duration": 0.1}
        grid = {"integrator": ["euler", "rk4"], "sigma": [0.5, 0.9]}
        specp = write_json(tmp_path / "s.json", {"base": base, "grid": grid})
        out = tmp_path / "sw"
        assert main(["sweep", "--config", specp, "--out", str(out), "--jobs", "1"]) == 2
        capsys.readouterr()
        summary = json.loads((out / "sweep_summary.json").read_text())
        euler = ["integrator=euler__sigma=0.5", "integrator=euler__sigma=0.9"]
        assert summary["failed"] == {slug: message for slug in euler}
        assert sorted(summary["points"]) == ["integrator=rk4__sigma=0.5", "integrator=rk4__sigma=0.9"]
        assert (out / "tables.md").exists()
        for slug in summary["points"]:
            assert json.loads((out / slug / "summary.json").read_text())["error"] is None

    def test_parallel_jobs_byte_identical(self, tmp_path):
        specp = sweep_spec_file(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["sweep", "--config", specp, "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["sweep", "--config", specp, "--out", str(out2), "--jobs", "2"]) == 0
        assert (out1 / "sweep_summary.json").read_bytes() == (out2 / "sweep_summary.json").read_bytes()
        assert (out1 / "tables.md").read_bytes() == (out2 / "tables.md").read_bytes()
        for sub in (p.name for p in out1.iterdir() if p.is_dir()):
            assert (out1 / sub / "states.csv").read_bytes() == (out2 / sub / "states.csv").read_bytes()
            assert (out1 / sub / "events.csv").read_bytes() == (out2 / sub / "events.csv").read_bytes()

    def test_values_with_distinct_slugs_each_get_a_point(self, tmp_path, capsys):
        base = {**preset_config("paper-asym-040"), "duration": 0.1}
        specp = write_json(tmp_path / "s.json", {"base": base, "grid": {"kappa1": [1, 1.0]}})
        out = tmp_path / "o"
        assert main(["sweep", "--config", specp, "--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["n_points"] == 2
        assert sorted(summary["points"]) == ["kappa1=1", "kappa1=1.0"]
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["kappa1=1", "kappa1=1.0"]

    def test_base_variant(self, tmp_path):
        base = preset_config("paper-asym-040")
        base["duration"] = 0.1
        specp = write_json(tmp_path / "sweep.json", {"base": base, "grid": {"seed": [0, 1]}})
        out = tmp_path / "sw"
        assert main(["sweep", "--config", specp, "--out", str(out)]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["n_points"] == 2
        assert set(summary["points"]) == {"seed=0", "seed=1"}

    def test_failing_point_keeps_the_others(self, tmp_path, capsys):
        base = preset_config("paper-asym-040")
        base["duration"] = 0.1
        specp = write_json(tmp_path / "sweep.json", {"base": base, "grid": {"sigma": [0.5, 1.5, 0.9]}})
        outs = [tmp_path / "s1", tmp_path / "s2"]
        for out, jobs in zip(outs, ("1", "2")):
            assert main(["sweep", "--config", specp, "--out", str(out), "--jobs", jobs]) == 2
        assert "sigma=1.5" in capsys.readouterr().err
        summary = json.loads((outs[0] / "sweep_summary.json").read_text())
        assert summary["n_points"] == 3
        assert set(summary["points"]) == {"sigma=0.5", "sigma=0.9"}
        assert set(summary["failed"]) == {"sigma=1.5"}
        assert "sigma" in summary["failed"]["sigma=1.5"]
        assert sorted(p.name for p in outs[0].iterdir() if p.is_dir()) == ["sigma=0.5", "sigma=0.9"]
        assert (outs[0] / "sweep_summary.json").read_bytes() == (outs[1] / "sweep_summary.json").read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerics_failure_point_flushes_and_exits_3(self, tmp_path):
        base = preset_config("paper-asym-040")
        spec = {"base": base, "grid": {"h,duration": [[0.01, 0.1], [1e6, 6e7]]}}
        out = tmp_path / "sw"
        assert main(["sweep", "--config", write_json(tmp_path / "s.json", spec), "--out", str(out)]) == 3
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert list(summary["points"]) == ["h=0.01__duration=0.1"]
        assert "non-finite" in summary["failed"]["h=1000000.0__duration=60000000.0"]
        partial = json.loads((out / "h=1000000.0__duration=60000000.0" / "summary.json").read_text())
        assert partial["error"]

    def test_preset_and_base_are_exclusive(self, tmp_path):
        base = preset_config("paper-asym-040")
        spec = {"preset": "paper-asym-040", "base": base, "grid": {"duration": [0.1]}}
        assert main(["sweep", "--config", write_json(tmp_path / "a.json", spec), "--out", str(tmp_path / "o1")]) == 2
        spec = {"grid": {"duration": [0.1]}}
        assert main(["sweep", "--config", write_json(tmp_path / "b.json", spec), "--out", str(tmp_path / "o2")]) == 2

    def test_oversized_grid_needs_force(self, tmp_path, capsys):
        spec = {"preset": "paper-asym-040", "grid": {"seed": list(range(10001))}}
        rc = main(["sweep", "--config", write_json(tmp_path / "s.json", spec), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "--force" in capsys.readouterr().err

    def test_huge_grid_is_refused_before_it_is_built(self, tmp_path, capsys):
        axis = list(range(1000))
        spec = {"preset": "paper-asym-040", "grid": {"seed": axis, "xi": axis, "q": axis}}
        rc = main(["sweep", "--config", write_json(tmp_path / "s.json", spec), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "1000000000 points" in capsys.readouterr().err

    def test_paired_axis_length_mismatch(self, tmp_path):
        spec = {"preset": "paper-asym-040", "grid": {"ctc,xi": [["asymptotic"]]}}
        rc = main(["sweep", "--config", write_json(tmp_path / "s.json", spec), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_sweep_file_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "o1")]) == 2
        assert main(["sweep", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o2")]) == 2
        nogrid = write_json(tmp_path / "ng.json", {"preset": "paper-asym-040"})
        assert main(["sweep", "--config", nogrid, "--out", str(tmp_path / "o3")]) == 2
