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

prints the golden table of the current code, at the numpy dispatch level
this CPU runs, in this file's layout, so a re-record is one command whose
output replaces the table.  Given DIR, it also keeps each case's data files
under DIR/<case>/out/, so a re-record can compare them column by column with
the same run of the parent commit:

    PYTHONPATH=src python tests/test_golden.py --compare OLD NEW

prints, per case, data file and column (a CSV header field, or a JSON key
path), the largest relative deviation of NEW's values from OLD's.

numpy picks its SIMD kernels by CPU when it loads, and its float64 tan,
power and exp round some results differently with AVX-512 than without.  So
there is one table per dispatch level, and the test takes the one of the
level numpy runs at (numpy's __cpu_features__) and fails on a level with no
table.  GOLDEN_X86_V4 holds the hashes with AVX-512; GOLDEN_X86_V3 holds
them without it, as on an AVX2-only CPU, and was recorded on the same CPU by

    NPY_DISABLE_CPU_FEATURES="X86_V4,AVX512_ICL,AVX512_SPR" PYTHONPATH=src python tests/test_golden.py

Both were recorded with Python 3.11 and numpy 2.4.6 on x86-64; the LAPACK
behind eigh and lstsq may round differently in another numpy build.
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
from numpy._core._multiarray_umath import __cpu_features__

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
    "sweep_example": (
        "sweep_example.json",
        "sweep",
        {"base.realizations": 2, "base.grid.points": 4, "axes.0.values": [10, 15]},
    ),
    "fourphoton": ("fourphoton.json", "phasematch", {}),
    "twophoton": ("twophoton.json", "phasematch", {}),
}

GOLDEN_X86_V4 = {
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

GOLDEN_X86_V3 = {
    "cycles": {
        "cycles.csv": "c28ccc10e32d20ea86406d3520542bb3bf6a732c37e388aaf23440b21550ff7d",
    },
    "cycles_json": {
        "cycles.json": "5401fe9691d4bda0b493df73bd48a28dc63e182d7532f51584519f87a1217320",
    },
    "cycles_multichannel": {
        "cycles.csv": "5582bd8e2e952e6f49c6adddd085e533a20b026f5d15ffcf32fc9528e3979c3c",
    },
    "entangle": {
        "entangle.csv": "76e47f6d6650b70a329d34166376bfbee3f32a00515468067e351592aa777547",
    },
    "entangle_json": {
        "entangle.json": "b44c9c8cdca3061988413b30fed49e881d6dffac459a2cab590d225d08e919ae",
    },
    "fig2": {
        "g2_trace_n100.csv": "88a3aedb82d1d64753d5de6c3f3fa57c81d33c8178806233abf352eceba7728a",
        "g2_trace_n60.csv": "617fec49663ee7374029cd2ccddb77e26b18569b9e5af10ddaf9935eeac4cefa",
        "g2_trace_n79.csv": "9a1e890fd46c0f53a7c214eb30a443e9ca82de550821fff098ff31278f7a10e5",
    },
    "fig2_blocks": {
        "g2_trace_n100.json": "e374e49adf5c54a0261d08332925a0e9ba2c98153bd8f13606860cb5f94f6f2f",
        "g2_trace_n60.json": "8169c317dd49fa5ef1472a64d317fc19dbf3632a6c2a140fd48c70e67b65110d",
        "g2_trace_n79.json": "e99c174ee051aaa9217bd8c7fb5c8968b6d2feac8f44f66086adaf0d537551d8",
    },
    "fig2_json": {
        "g2_trace_n100.json": "115a6dae7b5d1a1c6a83ad346ff3a2e4aec5e338f62e4e890c4382e6530e3440",
        "g2_trace_n60.json": "92773f6f3ddf9cf6d90ef3e0bacbf3d3cce1f3de904dd981f89bc23ed0c74d75",
        "g2_trace_n79.json": "eedd6482c519433b29ed72f3f94f778f232ff6d33650f45da35f66d2088400e1",
    },
    "fourphoton": {
        "phasematch.json": "9e50b275c5eb8e592d24df9cf25c2b561bbf27be99ac95c759f08bb7940e09c5",
    },
    "multichannel": {
        "g2_trace.csv": "cb0808fe8ae6df92ddb2d552eac673d614012b29181ffc1b6cfaf5459c662f27",
    },
    "multichannel_blocks": {
        "g2_trace.json": "c950e27bbd16e0ff5e5a9acf82994c4f95d30b229d8f1e03d6e95f6e06109a66",
    },
    "sweep_example": {
        "n_atoms=10/g2_trace.csv": "ec129d01f614e33a98080df24ef51ad876f1ace6c6c35af3673e86139f9b8be7",
        "n_atoms=15/g2_trace.csv": "1af42a3585717f8c0223421ab024450719c93957abacc79cad485405acac30ca",
    },
    "two_cycle_trace_analytic": {
        "g2_trace.csv": "6b5b5c2b6ea6b8725dfef2fb419b18ab662f8999f9a65a1c84fde58c63ab2c3e",
    },
    "two_cycle_trace_multichannel": {
        "g2_trace.csv": "15dae43e79d88de981a3e067ce1682717cb3cd9ede659f8367d9204ae8865edb",
    },
    "two_cycle_trace_sigma_minus": {
        "g2_trace.csv": "fb559609b1b5063958d6a779333ad1626f010ae26bd8781d6c073f25b902c28e",
    },
    "twophoton": {
        "phasematch.json": "022b56299aa2c1cdd25e1fe587b751c053b8b3e4780049ee3d0a3cab95065121",
    },
}

GOLDEN_TABLES = {"X86_V4": GOLDEN_X86_V4, "X86_V3": GOLDEN_X86_V3}
# the highest x86-64 level numpy dispatches at, or None (another architecture, or below AVX2)
LEVEL = next((level for level in GOLDEN_TABLES if __cpu_features__.get(level)), None)


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
    assert LEVEL in GOLDEN_TABLES, "no golden table for the numpy dispatch level of this CPU"
    assert run_case(name, tmp_path) == GOLDEN_TABLES[LEVEL][name]


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
    print(f"GOLDEN_{LEVEL} = {{", *entries, "}", sep="\n")
