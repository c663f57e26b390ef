"""Output check: data columns against recorded references, plus exact invariants.

References are the data columns the CLI wrote at the commit that recorded
them (record.py), one entry per seed pool index.  Values must agree within
RTOL relative, or ATOL absolute for columns near zero.  RTOL sits far above
the ~1e-15 by which a reordered floating-point sum moves a value and far below
the Monte Carlo scatter (the recorded outputs of two seeds differ by at least
4e-6 relative wherever they differ), so a refactor that only reorders sums
passes and a wrong result does not.  Byte hashes are not compared.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _number(text: str):
    return int(text) if text.lstrip("-").isdigit() else float(text)


def read_columns(path: Path) -> dict:
    """Data columns of one output file, as {column: [values]}.

    CSV columns come from the header; JSON lists are columns, and nested
    per-realization rows are flattened under dotted names.
    """
    if path.suffix == ".csv":
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        rows = [[_number(v) for v in line.split(",")] for line in lines[1:]]
        return {name: [row[k] for row in rows] for k, name in enumerate(header)}
    columns = {}

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for key, value in obj.items():
                walk(f"{prefix}{key}.", value)
        elif isinstance(obj, list):
            flat = []
            for item in obj:
                flat.extend(item if isinstance(item, list) else [item])
            columns[prefix[:-1]] = flat
        else:
            columns[prefix[:-1]] = [obj]

    walk("", json.loads(path.read_text()))
    return columns


def compare(reference: dict, got: dict, label: str) -> list:
    """Problems found comparing one file's columns with its reference."""
    if set(reference) != set(got):
        return [f"{label}: columns {sorted(got)} != reference {sorted(reference)}"]
    problems = []
    for name, ref in reference.items():
        values = got[name]
        if len(values) != len(ref):
            problems.append(f"{label}.{name}: {len(values)} values, reference has {len(ref)}")
            continue
        for k, (a, b) in enumerate(zip(values, ref)):
            if isinstance(a, int) and isinstance(b, int):
                ok = a == b
            else:
                ok = math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)
            if not ok:
                problems.append(f"{label}.{name}[{k}]: {a!r} != reference {b!r}")
                break
    return problems


def _trace_invariants(cols: dict, label: str, g2="g2_mean", f="f_mean", h="h_mean") -> list:
    problems = []
    for k, (g, fv, hv) in enumerate(zip(cols[g2], cols[f], cols[h])):
        if not (g > 0 and 0 <= fv <= 1 and 0 <= hv <= 1):
            problems.append(f"{label} row {k}: g2={g!r} f={fv!r} h={hv!r} outside g2 > 0, 0 <= f, h <= 1")
    return problems


def invariants(subcommand: str, cfg: dict, files: dict) -> list:
    """Exact physics invariants of one invocation's outputs ({name: columns})."""
    problems = []
    for name, cols in files.items():
        if any(isinstance(v, float) and not math.isfinite(v) for c in cols.values() for v in c):
            problems.append(f"{name}: non-finite value")
        if subcommand == "entangle":
            fid = cols["F"]
            if cols["t_us"][0] == 0.0 and fid[0] != 0.5:
                problems.append(f"{name}: F(t=0) = {fid[0]!r}, expected 1/2")
            if not all(0.5 <= x <= 1.0 for x in fid):
                problems.append(f"{name}: F outside [1/2, 1]")
            continue
        if subcommand == "cycles":
            n = cfg["ensemble"]["n_atoms"]
            flat = float(Fraction(n - 1, n) ** 2)
            for column in ("f_mean", "h_mean"):
                if not math.isclose(cols[column][0], flat, rel_tol=1e-15, abs_tol=0.0):
                    problems.append(f"{name}: row 0 {column} = {cols[column][0]!r}, expected ((N-1)/N)^2 = {flat!r}")
        problems += _trace_invariants(cols, name)
        if "per_realization.g2" in cols:
            problems += _trace_invariants(
                cols, f"{name} per_realization", "per_realization.g2", "per_realization.f", "per_realization.h"
            )
    return problems


def load_reference(workload: str, pool_index: int) -> dict:
    data = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
    return data["entries"][str(pool_index)]


def check_outputs(workload, cfg: dict, out_dir: Path, reference: dict) -> list:
    """Every problem with one invocation's outputs; an empty list means correct."""
    problems = []
    if not (out_dir / "manifest.json").is_file():
        problems.append("manifest.json missing")
    files = {}
    for name in workload.outputs:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        try:
            files[name] = read_columns(path)
        except (ValueError, IndexError) as exc:
            problems.append(f"{name}: unreadable ({exc})")
    for name, cols in files.items():
        problems += compare(reference[name], cols, name)
    if not problems:
        problems += invariants(workload.subcommand, cfg, files)
    return problems
