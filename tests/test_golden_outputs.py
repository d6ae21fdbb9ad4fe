"""Golden digests of the CLI run outputs for every preset and integrator.

Changes that are meant to leave the numerics alone (refactors, speedups)
must keep states.csv, events.csv and summary.json byte-identical. The
summary digest leaves out ``runtime_seconds``, the one measured field, and
hashes the rest as ``json.dumps(summary, sort_keys=True)``. A change that
alters the outputs on purpose re-records these digests and says why.
"""

import hashlib
import json

import pytest

from etconsensus.cli import main

# (preset, integrator) -> sha256 of states.csv, events.csv, summary.json.
GOLDEN = {
    ("paper-asym-035", "euler"): (
        "391fae698dcef1333f3b43b62ee3e6a06d5ef7f928f938d93e4124306253ea08",
        "9dcc58d1eb2c94f1f189a951332488c39b6f9ee389e8f6bc1639d57173792929",
        "2c3c30c92c7ddef5e13e26d475338f2eec8e4ab66ebcc4f21c279b87b2a06771",
    ),
    ("paper-asym-035", "rk4"): (
        "fe591c069b21bd5b3736ef88615745bfa8027a3174050e1ccccfe30910ef58f2",
        "af98827b7d2c6e64a148cecd4bd6928702bf0bc6c73a5acab47aaaac222f3ea3",
        "e529e07a6443ac4f0a0368fb4c20f00d32c561b67ec5ef78ca95bc5a7e36283f",
    ),
    ("paper-asym-040", "euler"): (
        "92dfc3a1484e2f8e3ffdbd1c4730e333e0a6e9eacd246bf0d5c81a0a736a19f1",
        "5e990a630c4e3e048fefcbc5d3ababe3216877c11c71549467fad5115ce575ed",
        "ca1541cece89a68f1f4547ed2efc5df80dfa4d35c5a497fbf3210f86546491e8",
    ),
    ("paper-asym-040", "rk4"): (
        "c6aa80d77fe8c01aad69544519fe0eb1c6e26e6c6d46d25e889fdfd475e73a3a",
        "627eb70fe4235b484bf32b0af4d7f6411c7805936459b68108feb104b5e2b7b2",
        "8befb1405a47cc32d818c0652d66e152d45eb2872c1e1e9e54ff3e6dba795a4d",
    ),
    ("paper-zeno-035", "euler"): (
        "07fc585d69318698333352e840f6a92b1040b72128c6080612e5ab1b09aa3bda",
        "cf5d9e0471b93cba772c48a6232e07e27008afa64f4e4e457b1c72b4ef33f201",
        "c51422d76b700d5a2c88fe901505b60126dccb3a2a4de47a4a6ce22a7c78c6d1",
    ),
    ("paper-zeno-035", "rk4"): (
        "5fb9500920f9d1a147d8615ed6e51882e981621b0dbfee94c710388870d8a5c8",
        "4b3152d3f72e3ea893d7659b7a2b3adeb10e8354a14ee2b795dff620d56b8a8c",
        "cf4581e29506901215dc9136d7f4a070ca9e5d9ac550693ec677f003ec5fe4bf",
    ),
    ("paper-zeno-040", "euler"): (
        "353707b147776bb66f6ab14dd98abc48bd4602ef1cb68d3da797793213773825",
        "e408dd75f4eccf54e6c6cdc026053c325014da542600244eec383a95adf8bb27",
        "a201d920753a757900bfdd4103d26737812b02323ae8e3e9eb4b9d4dd67cb91d",
    ),
    ("paper-zeno-040", "rk4"): (
        "7dc5513367af484c058e6bcd60f0b04ee2dcbaba98dc71ea524c1f8a02e6d256",
        "509a79e6a194a0e0fb2c760d2c24e0285746d0ce1ba4b4041574fc12834fcb0f",
        "255b06b67a7a2cee15b0cf1f29864466d5d66bdc1f4a730bf27b4b691b5e1214",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(preset, integrator, out, capsys) -> tuple:
    """The digests of a CLI run of one cell into ``out``, in the order of ``GOLDEN``."""
    assert main(["run", "--preset", preset, "--integrator", integrator, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    del summary["runtime_seconds"]
    return (
        _sha256((out / "states.csv").read_bytes()),
        _sha256((out / "events.csv").read_bytes()),
        _sha256(json.dumps(summary, sort_keys=True).encode()),
    )


@pytest.mark.parametrize("preset,integrator", sorted(GOLDEN))
def test_run_outputs_match_golden_digests(preset, integrator, tmp_path, capsys):
    assert digests(preset, integrator, tmp_path / "run", capsys) == GOLDEN[(preset, integrator)]
