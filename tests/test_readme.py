"""The README's "Library use" example runs as written, so its documented API cannot drift."""

import re
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def library_use_block() -> str:
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert blocks, 'README "Library use" has no python block'
    return blocks[0]


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the example writes a run directory
    exec(compile(library_use_block(), f"{README}:Library use", "exec"), {"__name__": "readme"})
    out = capsys.readouterr().out
    assert "'gamma'" in out and "('w_norm', 'est')" in out
    for name in ("states.csv", "events.csv", "summary.json"):
        assert (tmp_path / "zeno-dumped" / name).exists()
    assert "xhat1_1" in (tmp_path / "zeno-dumped" / "states.csv").open().readline()


def pytest_targets(command: str) -> list:
    """The test paths of a ``... pytest ...`` command line, in order."""
    words = shlex.split(command)
    return [w for w in words[words.index("pytest") + 1:] if w.startswith("tests/")]


def test_one_cpu_command_matches_ci():
    """The README's one-CPU test command runs the tests that CI's one-CPU step runs."""
    (readme,) = re.findall(r"^taskset -c 0 .*$", README.read_text(), re.M)
    workflow = (ROOT / ".github/workflows/tier1.yml").read_text()
    (ci,) = re.findall(r"^\s*run: .*taskset -c 0 .*$", workflow, re.M)
    assert pytest_targets(readme) == pytest_targets(ci)
