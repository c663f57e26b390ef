"""Golden output hashes: every shipped config, shrunk, through the CLI.

Each case copies a config from configs/, applies a few overrides that keep
its physics path but make it small (few atoms, 2 realizations, few grid
points), runs it through cli.main at --threads 1 and compares the sha256 of
every data file it writes with the table below.  A refactor that keeps
behaviour keeps these bytes; a change that moves them must record the new
hashes and explain every changed byte.  Manifests are not hashed: they carry
the wall-clock duration; each case checks instead that its manifests list
exactly the files written beside and below them, each data file with the
sha256 of the bytes committed to disk.

    PYTHONPATH=src python tests/test_golden.py [DIR]

prints the GOLDEN table of the current code in this file's layout, so a
re-record is one command whose output replaces the table.  Given DIR, it also
keeps each case's data files under DIR/<case>/out/, so a re-record can compare
them column by column with the same run of the parent commit:

    PYTHONPATH=src python tests/test_golden.py --compare OLD NEW

prints, per case, data file and column (a CSV header field, or a JSON key
path), the largest relative deviation of NEW's values from OLD's.

The hashes hold for one numpy build on one CPU family (numpy's vectorized
tan and the LAPACK behind eigh and lstsq may round differently elsewhere);
they were recorded with Python 3.11 and numpy 2.4.6 on x86-64.
"""

import contextlib
import csv
import hashlib
import math
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
    # a full block of grid times and a short last one: B = 11 at 60 atoms
    "multichannel_blocks": (
        "multichannel.json",
        "g2-trace",
        {"ensemble.n_atoms": 60, "realizations": 2, "grid.points": 12, "output.format": "json"},
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
    # two full blocks of grid times and a short last one: B = 10 at 61 atoms (correlation.BLOCK_SLOTS)
    "fig2_blocks": (
        "fig2.json",
        "g2-trace",
        {"ensemble.n_atoms": 61, "realizations": 2, "grid.points": 23, "output.format": "json"},
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
        "cycles.csv": "8eb9fc224de8697dd328b3719d14e9fd9feafd7b8c5843954ced4dd421fc6764",
    },
    "cycles_json": {
        "cycles.json": "c6fb15959d58b67e1f0eaa1969e9a855c83ac3243f209d7ce0d309bc8787c836",
    },
    "cycles_multichannel": {
        "cycles.csv": "1b6d96ba93cb7ee462e4b22622e1ebaaa0139499fa4798152c8c22436853a490",
    },
    "entangle": {
        "entangle.csv": "979432a2c9ba62188f7043d46a5cd8bc8f827218be813c8a9b098b7403b3c1c1",
    },
    "entangle_json": {
        "entangle.json": "ab597151688e63d1fbd2d4b8862528e463679dedee3623140e7f288fbc8f6dd5",
    },
    "fig2": {
        "g2_trace_n100.csv": "405ff71a1e848256c7977d93da8429e8da45bad0ac5e1adea5cc503f62ea3728",
        "g2_trace_n60.csv": "6b8389d92e3362fcd50f2f8e37820896c404301e7f68374374a8488e809bb5ad",
        "g2_trace_n79.csv": "0f453b27f495c9982c1b46257ce3fbf945e3d78cdfa985ed4e847ca2e5297b83",
    },
    "fig2_blocks": {
        "g2_trace_n100.json": "5c8817019df70fa04a1eeb37032602896e794a93a5cad957862d670861b26ba7",
        "g2_trace_n60.json": "cadb581b547330c4b8e57e8851dc29ef5fa5536e3674823a9776667edf246ae1",
        "g2_trace_n79.json": "639a39da52298ca6c72af7386d01d85dbdaefd32da3e5df35d4f3760f70e5762",
    },
    "fig2_json": {
        "g2_trace_n100.json": "88fba9266c18c52e3e63a67f7aa1cfe71ea89224dba58b076d382010353cba0d",
        "g2_trace_n60.json": "5fc3214c94ba2fb57442acd9fba84cd3f057814e3a367bb8dad884d13326c686",
        "g2_trace_n79.json": "b4fb08183bac4b76cb6751e9f15ab707abeb44b1097abc14cb2feeebc9adc217",
    },
    "fourphoton": {
        "phasematch.json": "9e50b275c5eb8e592d24df9cf25c2b561bbf27be99ac95c759f08bb7940e09c5",
    },
    "multichannel": {
        "g2_trace.csv": "8e3e0154455abe48f19055ce4c781648031b9f1b99be811ba5a8f29ccc69e0b1",
    },
    "multichannel_blocks": {
        "g2_trace.json": "919062bce521ca20ff9eadafb5bc4f210756e2d11d32d37defe37f3c5b3f605f",
    },
    "oracle": {
        "oracle.json": "a4c33375a178782597298cdedba1f5e78d04d8ea7e4dd1a3673cd09451fd7221",
    },
    "sweep_example": {
        "n_atoms=10/g2_trace.csv": "a4100b42f3e08ca441de2032b9590dee483f50aefe3a19901af517808ee6d767",
        "n_atoms=15/g2_trace.csv": "810f7b60aae3afc0b04668f8ccb39a1c1d6f9de6767b832d57ffc2511bee19b9",
    },
    "two_cycle_trace_analytic": {
        "g2_trace.csv": "1251d4f4be33a8d2e97ffc01f951ca61ddfd96844e4426bda44bc51e382e8966",
    },
    "two_cycle_trace_multichannel": {
        "g2_trace.csv": "2a55f4f3e2fdc1852cdfdbd88fc72e587083f87deb3de69bda8fcf1adf682506",
    },
    "two_cycle_trace_sigma_minus": {
        "g2_trace.csv": "4129e10a207a4d74bb602f32d4add26f88313c8d9d1aadb990cb54a73f3153cc",
    },
    "twophoton": {
        "phasematch.json": "022b56299aa2c1cdd25e1fe587b751c053b8b3e4780049ee3d0a3cab95065121",
    },
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        str(p.relative_to(out)): _sha256(p)
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def listed_and_written(out: Path) -> list:
    """(what a manifest's outputs list, the files beside and below it) for each manifest under out.

    Both are {relative path: sha256}; a sweep's sub-manifests carry no sha256 (None), so each
    holds its own duration_s.
    """
    pairs = []
    for manifest in sorted(out.rglob("manifest.json")):
        entries = json.loads(manifest.read_text())["outputs"]
        listed = {entry["path"]: entry.get("sha256") for entry in entries}
        assert len(listed) == len(entries)
        written = {
            str(p.relative_to(manifest.parent)): None if p.name == "manifest.json" else _sha256(p)
            for p in manifest.parent.rglob("*")
            if p.is_file() and p != manifest
        }
        pairs.append((listed, written))
    return pairs


def test_every_shipped_config_has_a_case():
    assert {config for config, _, _ in CASES.values()} == {p.name for p in CONFIG_DIR.glob("*.json")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_shipped_config_outputs_match_golden_hashes(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_manifests_list_and_hash_every_written_file(name, tmp_path):
    run_case(name, tmp_path)
    pairs = listed_and_written(tmp_path / "out")
    assert len(pairs) == (3 if CASES[name][1] == "sweep" else 1)  # a sweep: the top-level and its two combinations' 
    for listed, written in pairs:
        assert listed == written


def golden_entry(name: str, hashes: dict) -> str:
    """The GOLDEN entry of one case, in this file's layout."""
    lines = [f'        "{path}": "{digest}",' for path, digest in hashes.items()]
    return "\n".join([f'    "{name}": {{', *lines, "    },"])


def test_recorded_entry_is_the_pinned_one(tmp_path):
    assert golden_entry("twophoton", run_case("twophoton", tmp_path)) in Path(__file__).read_text()


def _number(value):
    """value as a float, or None for a value that is not a number (bools, text other than inf and nan)."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def data_columns(path: Path) -> dict:
    """Numeric columns of one data file: a CSV's by header field, a JSON's by key path (list indices dropped)."""
    columns = {}

    def add(key, value):
        if (x := _number(value)) is not None:
            columns.setdefault(key, []).append(x)

    def walk(node, key):
        if isinstance(node, dict):
            for name, child in node.items():
                walk(child, f"{key}.{name}" if key else name)
        elif isinstance(node, list):
            for child in node:
                walk(child, key)
        else:
            add(key, node)

    if path.suffix == ".csv":
        header, *rows = csv.reader(path.read_text().splitlines())
        for row in rows:
            for name, value in zip(header, row):
                add(name, value)
    else:
        walk(json.loads(path.read_text()), "")
    return columns


def relative_deviation(old: list, new: list) -> float:
    """Largest |new - old| / |old| over paired values; inf where a value left 0 or the lengths differ."""
    if len(old) != len(new):
        return math.inf
    worst = 0.0
    for a, b in zip(old, new):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            worst = max(worst, abs(b - a) / abs(a) if a else math.inf)
    return worst


def compare_trees(old_root: Path, new_root: Path) -> list[str]:
    """One line per case, data file and column of the trees written by this script: its largest relative deviation."""
    lines = []
    for name in sorted(CASES):
        old_out, new_out = old_root / name / "out", new_root / name / "out"
        for old in sorted(old_out.rglob("*")):
            if not old.is_file() or old.name == "manifest.json":
                continue
            rel = old.relative_to(old_out)
            new = new_out / rel
            if not new.is_file():
                lines.append(f"{name}\t{rel}\t(missing in {new_root})")
                continue
            want, got = data_columns(old), data_columns(new)
            for column in sorted(want.keys() | got.keys()):
                deviation = relative_deviation(want.get(column, []), got.get(column, []))
                lines.append(f"{name}\t{rel}\t{column}\t{deviation:.2g}")
    return lines


def test_compare_reports_the_largest_relative_deviation_per_column(tmp_path):
    files = {
        "old": ("t_us,g2_mean\n0.5,2.0\n1.0,4.0\n", {"f": [[1.0, 0.0]], "offaxis": {"period_um": "inf"}}),
        "new": ("t_us,g2_mean\n0.5,2.0\n1.0,4.000004\n", {"f": [[1.0, 1e-300]], "offaxis": {"period_um": "inf"}}),
    }
    for tree, (text, data) in files.items():
        out = tmp_path / tree / "fig2" / "out"
        out.mkdir(parents=True)
        (out / "g2_trace.csv").write_text(text)
        (out / "g2_trace.json").write_text(json.dumps(data))
        (out / "manifest.json").write_text(json.dumps({"duration_s": len(tree)}))
    assert compare_trees(tmp_path / "old", tmp_path / "new") == [
        "fig2\tg2_trace.csv\tg2_mean\t1e-06",
        "fig2\tg2_trace.csv\tt_us\t0",
        "fig2\tg2_trace.json\tf\tinf",
        "fig2\tg2_trace.json\toffaxis.period_um\t0",
    ]

if __name__ == "__main__" and sys.argv[1:2] == ["--compare"]:
    print(*compare_trees(Path(sys.argv[2]), Path(sys.argv[3])), sep="\n")
elif __name__ == "__main__":
    entries = []
    with contextlib.ExitStack() as stack:
        root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(stack.enter_context(tempfile.TemporaryDirectory()))
        stack.enter_context(contextlib.redirect_stdout(sys.stderr))
        for name in sorted(CASES):
            (root / name).mkdir(parents=True)
            entries.append(golden_entry(name, run_case(name, root / name)))
    print("GOLDEN = {", *entries, "}", sep="\n")
