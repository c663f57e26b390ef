"""Golden output hashes: every shipped config, shrunk, through the CLI.

Each case copies a config from configs/, applies a few overrides that keep
its physics path but make it small (few atoms, 2 realizations, few grid
points), runs it through cli.main at --threads 1 and compares the sha256 of
every data file it writes with the table below.  A refactor that keeps
behaviour keeps these bytes; a change that moves them must record the new
hashes and explain every changed byte.  Manifests are not hashed: they carry
the wall-clock duration.

The hashes hold for one numpy build on one CPU family (numpy's vectorized
tan and the BLAS behind eigh may round differently elsewhere); they were
recorded with Python 3.11, numpy 2.4.6 and scipy 1.17.1 on x86-64.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ryddephase import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# case: (config file, subcommand, {dotted path: value})
CASES = {
    "fig2": ("fig2.json", "g2-trace", {"ensemble.n_atoms": 30, "realizations": 2, "grid.points": 8}),
    "multichannel": (
        "multichannel.json",
        "g2-trace",
        {"ensemble.n_atoms": 8, "realizations": 2, "grid.points": 4},
    ),
    "fig2_json": (
        "fig2.json",
        "g2-trace",
        {"ensemble.n_atoms": 30, "realizations": 2, "grid.points": 8, "output.format": "json"},
    ),
    "cycles": ("cycles.json", "cycles", {"ensemble.n_atoms": 20, "realizations": 2}),
    "cycles_json": ("cycles.json", "cycles", {"ensemble.n_atoms": 20, "realizations": 2, "output.format": "json"}),
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
        "cycles.csv": "9c454c1815b8e4c80b8d4199c063f648b072d187438223d93c439595747145d2",
    },
    "cycles_json": {
        "cycles.json": "2dfc734d84f89fe3c7e6c86ae309ad54843c26cde19ec5b949cf71eb19d58cef",
    },
    "entangle": {
        "entangle.csv": "f9331f313938666fd34745a280b0d6f1bc698ffe4092344ab92ee4f452fc6f12",
    },
    "entangle_json": {
        "entangle.json": "03153d7a6e89da62a8f9b07e9619286c572940bbe80d80179d0205f3c3106712",
    },
    "fig2": {
        "g2_trace_n100.csv": "7300b4926f1e8e5fd323d9814fe235c1ef739be5598daa12f58a4d70b3bf414c",
        "g2_trace_n60.csv": "987e03556aed064171a19ee9520a1d93b2b0c9b98b85b131024161cdb79737ea",
        "g2_trace_n79.csv": "cf1c8fa41483315bbd2df2d58b2e307b9a2bdc83a20415353388f9108f7132d5",
    },
    "fig2_json": {
        "g2_trace_n100.json": "52f7159b0e5c6e5d52e8c5f041ce7ca16f5123994080398e23a33ceebfcd8c08",
        "g2_trace_n60.json": "bac823bda122dacd468f691ee8a0e728c4a32555e56ca94bbb0e75016c4787de",
        "g2_trace_n79.json": "c472472977a4979e8bb93f9c152c1380c41db72914c9fe5e9d6f757f7ed8f2a4",
    },
    "fourphoton": {
        "phasematch.json": "3940f50dc62de4e425bbb3384275dc00d1d67c6f56cb1c93fb29251b9ec6c044",
    },
    "multichannel": {
        "g2_trace.csv": "0f14c6333aec9cd9fc778eb2420328c911d0ecf1295984deacd328dc6b4cc6c0",
    },
    "oracle": {
        "oracle.json": "49e9d64802676ef903592818d8718cb1a8492308aa5326798575254222804381",
    },
    "sweep_example": {
        "n_atoms=10/g2_trace.csv": "2a21f8ed435a34a799cc763dfab02e2ea4794529f549de6e2acbdb5f195ef63d",
        "n_atoms=15/g2_trace.csv": "a6859886aff9dd3e2a72710daceabbb2e967d83df2690c80ddbecdf7dc850b43",
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
