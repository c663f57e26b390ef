"""Golden output hashes: every shipped config, shrunk, through the CLI.

Each case copies a config from configs/, applies a few overrides that keep
its physics path but make it small (few atoms, 2 realizations, few grid
points), runs it through cli.main at --threads 1 and compares the sha256 of
every data file it writes with the table below.  A refactor that keeps
behaviour keeps these bytes; a change that moves them must record the new
hashes and explain every changed byte.  Manifests are not hashed: they carry
the wall-clock duration.

    PYTHONPATH=src python tests/test_golden.py [DIR]

prints the GOLDEN table of the current code in this file's layout, so a
re-record is one command whose output replaces the table.  Given DIR, it also
keeps each case's data files under DIR/<case>/out/, so a re-record can compare
them column by column with the same run of the parent commit.

The hashes hold for one numpy build on one CPU family (numpy's vectorized
tan and the BLAS behind eigh may round differently elsewhere); they were
recorded with Python 3.11, numpy 2.4.6 and scipy 1.17.1 on x86-64.
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from ryddephase import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _two_cycle_trace(mode: str) -> dict:
    """Overrides running multichannel.json's g2-trace over two cycles (p_j 1/2 then 3/2)."""
    cycle = json.loads((CONFIG_DIR / "multichannel.json").read_text())["schedule"]["cycles"][0]
    return {
        "schedule.cycles": [{**cycle, "p_n": 100, "p_j": p_j} for p_j in (0.5, 1.5)],
        "mode": mode,
        "ensemble.n_atoms": 8,
        "realizations": 2,
        "grid.points": 4,
    }


# case: (config file, subcommand, {dotted path: value})
CASES = {
    "fig2": ("fig2.json", "g2-trace", {"ensemble.n_atoms": 30, "realizations": 2, "grid.points": 8}),
    "multichannel": (
        "multichannel.json",
        "g2-trace",
        {"ensemble.n_atoms": 8, "realizations": 2, "grid.points": 4},
    ),
    "two_cycle_trace_analytic": ("multichannel.json", "g2-trace", _two_cycle_trace("analytic")),
    "two_cycle_trace_multichannel": ("multichannel.json", "g2-trace", _two_cycle_trace("multichannel")),
    "two_cycle_trace_sigma_minus": (
        "multichannel.json",
        "g2-trace",
        {
            **_two_cycle_trace("multichannel"),
            "schedule.cycles.0.polarization": "sigma_minus",
            "schedule.cycles.1.polarization": "sigma_minus",
            "schedule.cycles.1.pulse_model": "finite_duration",
        },
    ),
    "fig2_json": (
        "fig2.json",
        "g2-trace",
        {"ensemble.n_atoms": 30, "realizations": 2, "grid.points": 8, "output.format": "json"},
    ),
    "cycles": ("cycles.json", "cycles", {"ensemble.n_atoms": 20, "realizations": 2}),
    "cycles_json": ("cycles.json", "cycles", {"ensemble.n_atoms": 20, "realizations": 2, "output.format": "json"}),
    "cycles_multichannel": (
        "cycles.json",
        "cycles",
        {
            "mode": "multichannel",
            "schedule.cycles.0.pulse_model": "finite_duration",
            "schedule.cycles.2.pulse_model": "finite_duration",
            "ensemble.n_atoms": 8,
            "realizations": 2,
        },
    ),
    "entangle": ("entangle.json", "entangle", {"ensemble.n_atoms": 20, "realizations": 2, "grid.points": 6}),
    "entangle_json": (
        "entangle.json",
        "entangle",
        {"ensemble.n_atoms": 20, "realizations": 2, "grid.points": 6, "output.format": "json"},
    ),
    "oracle": ("oracle.json", "oracle", {"draws": 10}),
    "sweep_example": (
        "sweep_example.json",
        "sweep",
        {"base.realizations": 2, "base.grid.points": 4, "axes.0.values": [10, 15]},
    ),
    "fourphoton": ("fourphoton.json", "phasematch", {}),
    "twophoton": ("twophoton.json", "phasematch", {}),
}

GOLDEN = {
    "cycles": {
        "cycles.csv": "9415c5316860a9bb9ea58c58cbd468123a9ec203bedbd001a6e31f39bc8f65ef",
    },
    "cycles_json": {
        "cycles.json": "dbcf5c7a9584a44e6b4a5084ec297fb6e44cb3498654dcdf283992a86b2c1e7e",
    },
    "cycles_multichannel": {
        "cycles.csv": "b5204781ea610052da0238e99610619be964d8de3da2cbe274a659e600d943e2",
    },
    "entangle": {
        "entangle.csv": "f9331f313938666fd34745a280b0d6f1bc698ffe4092344ab92ee4f452fc6f12",
    },
    "entangle_json": {
        "entangle.json": "03153d7a6e89da62a8f9b07e9619286c572940bbe80d80179d0205f3c3106712",
    },
    "fig2": {
        "g2_trace_n100.csv": "927dd75d41697c86464487faa85624ff7888f5572bb3a743f11e75498418ae9f",
        "g2_trace_n60.csv": "532fce98af100a92cbf37345ee216bafe457602b03df4c3a6e189b0678360739",
        "g2_trace_n79.csv": "8b17f808f69f867f92d5732fbd7931c585978183193a4536e1343b4b88d11d1f",
    },
    "fig2_json": {
        "g2_trace_n100.json": "7ee5a0f31f214387fe8ab7ddff5c79443f291e7e14dfea0f861bfeaba7c1c8dc",
        "g2_trace_n60.json": "4558f12e0d3ff9309e6659ebf93ea8ae5325088f6db99cda0105b2bdf316064f",
        "g2_trace_n79.json": "93dce9d09dbb6c3635f2757c6769e0e3cf17b00c311299c9577ceea23c073e7f",
    },
    "fourphoton": {
        "phasematch.json": "3940f50dc62de4e425bbb3384275dc00d1d67c6f56cb1c93fb29251b9ec6c044",
    },
    "multichannel": {
        "g2_trace.csv": "f8743bac7b2e37b3b03052f2141bd9cc33f823c601e842f9c84ffec7e69239a8",
    },
    "oracle": {
        "oracle.json": "6528daed7a57cd5b4311a32adad9af250c2c3f5d9f241e16b91545f3553bde53",
    },
    "sweep_example": {
        "n_atoms=10/g2_trace.csv": "7df277a4027a35c3d5828c1476cd192f2af54ef287883a49111e0e2f3414f6de",
        "n_atoms=15/g2_trace.csv": "bbbe27806cf09961c9d1ea57c5e1cac417762773e422f876cbe5fb92aa72208f",
    },
    "two_cycle_trace_analytic": {
        "g2_trace.csv": "a3247c95c61146ddc2c1a2db7b6e53a676838edb4a1b8ce9c537d869d6aef8f3",
    },
    "two_cycle_trace_multichannel": {
        "g2_trace.csv": "040766567597c2909e871d7955c043ca288e57848ea822d7f1a94232ce3bc5ed",
    },
    "two_cycle_trace_sigma_minus": {
        "g2_trace.csv": "517338e8cdf177f8d07c938908bca22ec3bb9917ac7b11ae71c3e75c3286402b",
    },
    "twophoton": {
        "phasematch.json": "022b56299aa2c1cdd25e1fe587b751c053b8b3e4780049ee3d0a3cab95065121",
    },
}


def run_case(name: str, tmp_path: Path) -> dict:
    """sha256 of each data file the shrunk config writes, keyed by relative path."""
    config_name, subcommand, overrides = CASES[name]
    raw = json.loads((CONFIG_DIR / config_name).read_text())
    for dotted, value in overrides.items():
        cli._apply_override(raw, dotted, value)
    config = tmp_path / config_name
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main([subcommand, "--config", str(config), "--out", str(out), "--threads", "1"]) == 0
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_shipped_config_outputs_match_golden_hashes(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


def golden_entry(name: str, hashes: dict) -> str:
    """The GOLDEN entry of one case, in this file's layout."""
    lines = [f'        "{path}": "{digest}",' for path, digest in hashes.items()]
    return "\n".join([f'    "{name}": {{', *lines, "    },"])


def test_recorded_entry_is_the_pinned_one(tmp_path):
    assert golden_entry("twophoton", run_case("twophoton", tmp_path)) in Path(__file__).read_text()


if __name__ == "__main__":
    entries = []
    with contextlib.ExitStack() as stack:
        root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(stack.enter_context(tempfile.TemporaryDirectory()))
        stack.enter_context(contextlib.redirect_stdout(sys.stderr))
        for name in sorted(CASES):
            (root / name).mkdir(parents=True)
            entries.append(golden_entry(name, run_case(name, root / name)))
    print("GOLDEN = {", *entries, "}", sep="\n")
