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
        "cycles.csv": "9c454c1815b8e4c80b8d4199c063f648b072d187438223d93c439595747145d2",
    },
    "cycles_json": {
        "cycles.json": "2dfc734d84f89fe3c7e6c86ae309ad54843c26cde19ec5b949cf71eb19d58cef",
    },
    "cycles_multichannel": {
        "cycles.csv": "9dca6d23e44d09a0c84c749c12b1a12722d2890ef40ce6a777b8012c542de0bf",
    },
    "entangle": {
        "entangle.csv": "979432a2c9ba62188f7043d46a5cd8bc8f827218be813c8a9b098b7403b3c1c1",
    },
    "entangle_json": {
        "entangle.json": "ab597151688e63d1fbd2d4b8862528e463679dedee3623140e7f288fbc8f6dd5",
    },
    "fig2": {
        "g2_trace_n100.csv": "f5a3d87ad9cb7b380edc5789879bda58193104e518a492df19740bebd8392b60",
        "g2_trace_n60.csv": "56cb892ddaf90d6dc03a1f1c4ff05d263920df8b543c8ca3c1f1427405ad1f55",
        "g2_trace_n79.csv": "ced1a6134559b4af0b09e6b2a031438ad561ab36ed8d7a5b05eafed6c87c113a",
    },
    "fig2_json": {
        "g2_trace_n100.json": "056881bd90144abae901c0f117184219012d46b28310d302adb0719348de9405",
        "g2_trace_n60.json": "ac0d08fdc191283032ca30ff46c3937ace215170d408ad3fc71739d0d539dfd4",
        "g2_trace_n79.json": "fc8883bd464b8042aba69a11fe999e6e90c7dc0d170e2170207a78fd24e0fa73",
    },
    "fourphoton": {
        "phasematch.json": "3940f50dc62de4e425bbb3384275dc00d1d67c6f56cb1c93fb29251b9ec6c044",
    },
    "multichannel": {
        "g2_trace.csv": "044bc16b79177a1fc1cad94c25419fe07f6b6cfb99ffb316e03b1ccdc61bec85",
    },
    "oracle": {
        "oracle.json": "cac64db7784fd647f25eb4a85b6875a0cc148f06673198e103a25c498c167294",
    },
    "sweep_example": {
        "n_atoms=10/g2_trace.csv": "fd9655b77585ab0963ed560cce0e7db654a20222b37023660c040f217bfcffa2",
        "n_atoms=15/g2_trace.csv": "3afcdf86f449e5cc6f0c1e0863f6a18051f711231b8032600aa1a8fb2754bad5",
    },
    "two_cycle_trace_analytic": {
        "g2_trace.csv": "b88c49d3fa4cd889cfff324048c6fa616c9b81fdfa905d5bacb135ea86649e82",
    },
    "two_cycle_trace_multichannel": {
        "g2_trace.csv": "933f7e376ce54a0abfd1cf2441ca54071d961683515f1b65fa532e23eacaae31",
    },
    "two_cycle_trace_sigma_minus": {
        "g2_trace.csv": "198688d446019d69a39064be4ffec982274e0914464d4654ac132f5fd0057c38",
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
