"""Command line entry point: config parsing, run orchestration, output emission.

Configs are JSON with a strict schema (unknown keys are rejected, a key the
subcommand would not read among them; errors name the offending field path).
main plans a run before it runs it: every config, each sweep combination
included, is parsed and validated and every file it writes named and checked
first, then one worker pool serves all of them.  Every run writes its data files plus a manifest
recording the config hash, the derived per-realization seeds, the package
version and the wall-clock duration; re-running the same config and seed
reproduces the data files byte for byte, regardless of the thread count.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

import argparse
import copy
import gc
import hashlib
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .atomdata import (
    InteractionModel,
    MicrowaveSpec,
    POLARIZATIONS,
    PULSE_MODELS,
    RydbergChannel,
    c3_of,
    p_level_j,
)
from .correlation import G2Trace, g2_trace, realization_bytes, unit_point
from .ensemble import EnsembleSpec, PackingError
from .pairdyn import CycleSpec, NumericsError
from .phasematch import (
    Beam, PhaseMatchInfeasible, motional_coherence_time, solve_offaxis, spinwave_period, wavevector_mismatch
)
from .protocol import decay_reference, entangle_trace, make_schedule

# here, not in __init__ or main(): the import graph lives until exit, so no collection need walk it
gc.freeze()

ENSEMBLE_SUBCOMMANDS = ("g2-trace", "cycles", "entangle")  # sample positions; a sweep varies one of them
MAX_COUNT = 2**31 - 1  # of every count: past it numpy fails mid-run
# The closed range of every float and count field, keyed by its name (its path's last name, without an index).
# They make every derived number finite, the largest phase C3 t / min_separation_um^3 included: the README's
# "Input ranges" gives the argument.  A beam's sign and p_j are choices, not ranges.
RANGES = {
    "n_atoms": (2, MAX_COUNT), "points": (1, MAX_COUNT), "realizations": (1, MAX_COUNT),
    "seed": (0, 2**64 - 1), "scaling_exponent": (0.0, 12.0), "rabi_rad_per_us": (1e-3, 1e6),
    **dict.fromkeys(["s_n", "p_n", "reference_n", "scan_n", "n"], (1, 500)),  # principal quantum numbers
    **dict.fromkeys(["c3", "reference_c3", "c3_prime", "c3_second"], (1e-3, 1e9)),  # rad/us um^3
    **dict.fromkeys(["delta_t_us", "start_us", "stop_us"], (0.0, 1e6)),
    **dict.fromkeys(["box_side_um", "min_separation_um"], (1e-3, 1e5)),
    "wavelength_nm": (10.0, 1e5), "direction": (-1e6, 1e6), "speed_m_per_s": (1e-6, 3e8),
}


class ConfigError(ValueError):
    """Configuration rejected; message carries the field path."""


# ---------------------------------------------------------------------------
# schema validation helpers
# ---------------------------------------------------------------------------


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _check_mapping(obj, path, required, optional):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    known = set(required) | set(optional)
    for key in obj:
        if key not in known:
            _fail(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            _fail(f"{path}.{key}", "missing required key")


def _in_range(value, path, field=None):
    """value, refused at path outside the closed range RANGES gives field, by default the field at path."""
    low, high = RANGES[field or path.rsplit(".", 1)[-1].split("[", 1)[0]]
    if value < low:
        _fail(path, f"must be >= {low}, got {value}")
    if value > high:
        _fail(path, f"must be <= {high}, got {value}")
    return value


def _as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return _in_range(value, path)


def _as_number(value, path) -> float:
    """value as a finite float, with no range: _as_float adds the range, _as_p_j snaps it to a p level."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        _fail(path, "expected a finite number, got an integer too large for a float")
    if not math.isfinite(value):
        _fail(path, f"expected a finite number, got {value}")
    return value


def _as_float(value, path):
    return _in_range(_as_number(value, path), path)


def _as_p_j(value, path) -> float:
    """value snapped by p_level_j, the one p-level j rule; refused at path."""
    value = _as_number(value, path)
    try:
        return p_level_j(value)
    except ValueError as exc:
        _fail(path, str(exc))


def _as_choice(value, path, choices):
    if value not in choices:
        _fail(path, f"expected one of {sorted(choices)}, got {value!r}")
    return value


def _as_bool(value, path):
    if not isinstance(value, bool):
        _fail(path, f"expected true/false, got {value!r}")
    return value


def _as_list(value, path, min_len=1):
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {type(value).__name__}")
    if len(value) < min_len:
        _fail(path, f"needs at least {min_len} entries")
    return value


# ---------------------------------------------------------------------------
# section parsers
# ---------------------------------------------------------------------------


def _fit_memory(path: str, need: int, what: str, of: str) -> None:
    """Refuse what needs more bytes than physical memory: exit 1 at plan time, not a numpy MemoryError mid-run."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > physical:
        _fail(
            path, f"{what} need {need / 1e9:.1f} GB of {of}, more than the {physical / 1e9:.1f} GB of physical memory"
        )


def _parse_ensemble(cfg, path) -> EnsembleSpec:
    _check_mapping(cfg, path, ["n_atoms", "box_side_um", "seed"], ["min_separation_um"])
    return EnsembleSpec(
        n_atoms=_as_int(cfg["n_atoms"], f"{path}.n_atoms"),
        box_side=_as_float(cfg["box_side_um"], f"{path}.box_side_um"),
        seed=_as_int(cfg["seed"], f"{path}.seed"),
        min_separation=_as_float(
            cfg.get("min_separation_um", EnsembleSpec.min_separation), f"{path}.min_separation_um"
        ),
    )


def _parse_interaction(cfg, path):
    """Returns (model | None, table dict keyed by (s_n, p_n, p_j)), p_j snapped; a repeated key is an error."""
    _check_mapping(cfg, path, [], ["model", "table"])
    model = None
    if "model" in cfg:
        mpath = f"{path}.model"
        _check_mapping(cfg["model"], mpath, ["reference_c3", "reference_n"], ["scaling_exponent"])
        model = InteractionModel(
            reference_c3=_as_float(cfg["model"]["reference_c3"], f"{mpath}.reference_c3"),
            reference_n=_as_int(cfg["model"]["reference_n"], f"{mpath}.reference_n"),
            scaling_exponent=_as_float(
                cfg["model"].get("scaling_exponent", InteractionModel.scaling_exponent), f"{mpath}.scaling_exponent"
            ),
        )
    table = {}
    if "table" in cfg:
        for i, row in enumerate(_as_list(cfg["table"], f"{path}.table")):
            rpath = f"{path}.table[{i}]"
            _check_mapping(row, rpath, ["s_n", "p_n", "p_j", "c3"], [])
            s_n, p_n = _as_int(row["s_n"], f"{rpath}.s_n"), _as_int(row["p_n"], f"{rpath}.p_n")
            p_j = _as_p_j(row["p_j"], f"{rpath}.p_j")
            if (s_n, p_n, p_j) in table:
                _fail(rpath, f"repeats the channel {s_n}s - {p_n}p_{p_j} of an earlier row")
            table[s_n, p_n, p_j] = _as_float(row["c3"], f"{rpath}.c3")
    return model, table


def _resolve_c3(s_n, p_n, p_j, model, table, path):
    if (s_n, p_n, p_j) in table:
        return table[s_n, p_n, p_j]
    if model is not None:
        return c3_of(s_n, model)
    _fail(
        path,
        f"channel {s_n}s - {p_n}p_{p_j} has no C3: give cycle c3, a table entry, "
        "or an interaction model",
    )


def _parse_cycle(cfg, path, model, table, scan_n=None) -> CycleSpec:
    """The cycle at path; with scan_n, its s_n and p_n checked and then both replaced by scan_n, C3 resolved there."""
    _check_mapping(
        cfg,
        path,
        ["s_n", "p_n", "p_j", "delta_t_us"],
        ["rabi_rad_per_us", "polarization", "pulse_model", "c3"],
    )
    s_n, p_n = _as_int(cfg["s_n"], f"{path}.s_n"), _as_int(cfg["p_n"], f"{path}.p_n")
    if scan_n is not None:
        if "c3" in cfg:
            _fail(f"{path}.c3", "scan_n resolves C3 per n from the table or model; give no cycle c3")
        s_n = p_n = scan_n
    p_j = _as_p_j(cfg["p_j"], f"{path}.p_j")
    try:
        if "c3" in cfg:
            c3 = _as_float(cfg["c3"], f"{path}.c3")
        else:
            c3 = _resolve_c3(s_n, p_n, p_j, model, table, path)
        channel = RydbergChannel(s_n, p_n, p_j, c3)
        microwave = MicrowaveSpec(
            rabi=_as_float(cfg.get("rabi_rad_per_us", MicrowaveSpec.rabi), f"{path}.rabi_rad_per_us"),
            polarization=_as_choice(
                cfg.get("polarization", MicrowaveSpec.polarization), f"{path}.polarization", POLARIZATIONS
            ),
            pulse_model=_as_choice(
                cfg.get("pulse_model", MicrowaveSpec.pulse_model), f"{path}.pulse_model", PULSE_MODELS
            ),
        )
        return CycleSpec(channel, _as_float(cfg["delta_t_us"], f"{path}.delta_t_us"), microwave)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        _fail(path, str(exc))


def _parse_schedule(cycles: list, model, table, scan_n=None) -> tuple[CycleSpec, ...]:
    """make_schedule of the config's cycles, each parsed by _parse_cycle, its errors reported under schedule."""
    parsed = [_parse_cycle(c, f"schedule.cycles[{i}]", model, table, scan_n) for i, c in enumerate(cycles)]
    try:
        return make_schedule(parsed)
    except ValueError as exc:
        _fail("schedule", str(exc))


def _parse_grid(raw) -> tuple[np.ndarray, int]:
    """The time grid and the realizations count, checked on the point count before the grid is built."""
    cfg, path = raw["grid"], "grid"
    _check_mapping(cfg, path, ["start_us", "stop_us", "points"], ["spacing"])
    start, stop = _as_float(cfg["start_us"], f"{path}.start_us"), _as_float(cfg["stop_us"], f"{path}.stop_us")
    points = _as_int(cfg["points"], f"{path}.points")
    spacing = _as_choice(cfg.get("spacing", "linear"), f"{path}.spacing", ("linear", "log"))
    if points > 1 and stop <= start:
        _fail(f"{path}.stop_us", "must exceed start_us for multi-point grids")
    if spacing == "log" and start <= 0:
        _fail(f"{path}.start_us", "log spacing needs start_us > 0")
    realizations = _parse_realizations(raw, points)  # its 24 R T bytes of results bound the grid's 8 T
    if points == 1:
        return np.array([start]), realizations
    grid = (np.geomspace if spacing == "log" else np.linspace)(start, stop, points)
    if np.any(np.diff(grid) <= 0):
        _fail(path, f"{points} points from {start} to {stop} us repeat a time in float64; widen the range")
    return grid, realizations


def _parse_realizations(raw, points: int) -> int:
    """realizations (default 100), refused when its (3, R, T) float64 results exceed physical memory.

    A count that passes MAX_COUNT can still ask for terabytes of results;
    refusing it here turns an out-of-memory kill mid-run into exit 1.
    """
    realizations = _as_int(raw.get("realizations", 100), "realizations")
    need = 24 * realizations * points
    _fit_memory("realizations", need, f"{realizations} realizations of {points} points", "results")
    return realizations


def _parse_output(cfg, path) -> str:
    """The format of a data-writing subcommand's output section: csv (default) or json."""
    _check_mapping(cfg, path, [], ["format"])
    return _as_choice(cfg.get("format", "csv"), f"{path}.format", ("csv", "json"))


@dataclass
class RunConfig:
    """Materialized g2-trace, cycles or entangle configuration; schedules maps each data file's stem to the
    cycles it runs: g2_trace (or g2_trace_n<n> per scan_n value, in order), cycles, or entangle's two modes."""

    ensemble: EnsembleSpec
    schedules: dict[str, tuple[CycleSpec, ...]]
    mode: str
    grid: np.ndarray | None
    realizations: int
    output_format: str


def parse_config(text: str, subcommand: str = "g2-trace") -> RunConfig:
    """Parse and validate a g2-trace, cycles or entangle configuration document."""
    return _plan(subcommand, _decode(text, ""))[0].config


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key repeated in one object is an error, not a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"key {key!r} repeats in one object")
        obj[key] = value
    return obj


def _decode(text: str, where: str) -> dict:
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, an over-long integer or a repeated key; deep nesting
        raise ConfigError(f"invalid JSON{where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    return raw


def _parse_trace_config(raw, subcommand) -> RunConfig:
    required = ["ensemble", "schedule"]
    optional = ["interaction", "mode", "realizations", "output"]
    if subcommand == "g2-trace":
        required.append("grid")
        optional.append("scan_n")
    _check_mapping(raw, "config", required, optional)
    model, table = _parse_interaction(raw.get("interaction", {}), "interaction")
    ensemble = _parse_ensemble(raw["ensemble"], "ensemble")
    _check_mapping(raw["schedule"], "schedule", ["cycles"], [])
    cycles = _as_list(raw["schedule"]["cycles"], "schedule.cycles")
    if "scan_n" in raw:
        values = _as_list(raw["scan_n"], "scan_n")
        scan_n = [_as_int(v, f"scan_n[{i}]") for i, v in enumerate(values)]
        for i, n in enumerate(scan_n):
            if n in scan_n[:i]:
                _fail(f"scan_n[{i}]", f"duplicate value {n}")
        schedules = {f"g2_trace_n{n}": _parse_schedule(cycles, model, table, n) for n in scan_n}
    else:
        schedules = {subcommand.replace("-", "_"): _parse_schedule(cycles, model, table)}
    mode = _as_choice(raw.get("mode", "analytic"), "mode", ("analytic", "multichannel"))
    if subcommand == "g2-trace":
        grid, realizations = _parse_grid(raw)
    else:
        grid, realizations = None, _parse_realizations(raw, len(cycles))
    points = None if grid is None else len(grid)
    need = max(realization_bytes(ensemble.n_atoms, mode, s, points) for s in schedules.values())
    _fit_memory("ensemble.n_atoms", need, f"{ensemble.n_atoms} atoms", "one realization's arrays")
    return RunConfig(
        ensemble=ensemble,
        schedules=schedules,
        mode=mode,
        grid=grid,
        realizations=realizations,
        output_format=_parse_output(raw.get("output", {}), "output"),
    )


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A cell is str(x) for an int, else repr(float(x)): the shortest round-trip form, byte-stable across platforms."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(x) if isinstance(x, int) else repr(float(x)) for x in row) + "\n")


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_sha256(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canon).hexdigest()


class OutputSession:
    """The staging table of a run: every file it writes, final path -> temporary path.

    main stages every file of a run when it plans it, data files before their
    manifest; stage refuses a directory that is or lies below a file, a
    directory where a file or its temporary goes (even with --force), an
    existing path without --force and a path named twice, so a refused run
    does no work.  commit renames the files, written under their temporary
    names, into place in staging order once the whole run has succeeded.
    """

    def __init__(self, force: bool):
        self.force = force
        self.staged: dict[Path, Path] = {}

    def stage(self, path: Path) -> None:
        existing = next((p for p in path.parents if p.exists()), None)
        if existing is not None and not existing.is_dir():
            raise ConfigError(f"cannot write outputs to {path.parent}: {existing} is not a directory")
        temporary = path.with_name(path.name + ".partial")
        if existing is not None:  # a name the file system refuses would fail mid-run, in mkdir or open
            limit = os.pathconf(existing, "PC_NAME_MAX")
            for part in temporary.relative_to(existing).parts:
                if len(os.fsencode(part)) > limit:
                    raise ConfigError(f"cannot write outputs to {existing}: the name {part!r} is over {limit} bytes")
        for target in (path, temporary):
            if target.is_dir():
                raise ConfigError(f"cannot write {path}: {target} is a directory")
        if path.exists() and not self.force:
            raise ConfigError(f"refusing to overwrite {path}; pass --force")
        if path in self.staged:
            raise ConfigError(f"{path} would be written twice by one run")
        self.staged[path] = temporary

    def temporary(self, path: Path) -> Path:
        """The temporary path to write staged path to, its directory made."""
        self.staged[path].parent.mkdir(parents=True, exist_ok=True)
        return self.staged[path]

    def discard(self) -> None:
        """Delete staged files not renamed into place (after a failure)."""
        for temporary in self.staged.values():
            temporary.unlink(missing_ok=True)

    def finish(self, path: Path, subcommand: str, raw: dict, seeds: list, started: float, outputs: list) -> None:
        """Write the manifest staged at path, listing outputs (written files) by path and each data file's sha256."""
        entries = [{"path": str(p.relative_to(path.parent))} for p in outputs]
        for entry, p in zip(entries, outputs):
            if p.name != "manifest.json":  # a sweep's sub-manifest holds its own duration_s
                entry["sha256"] = hashlib.sha256(self.staged[p].read_bytes()).hexdigest()
        manifest = {
            "subcommand": subcommand,
            "version": __version__,
            "config_sha256": _config_sha256(raw),
            "config": raw,
            "seeds": seeds,
            "duration_s": time.perf_counter() - started,
            "outputs": entries,
        }
        _write_json(self.temporary(path), manifest)

    def commit(self) -> None:
        """Rename every staged file into place, in the order staged."""
        for final, temporary in self.staged.items():
            os.replace(temporary, final)


def _trace_columns(trace: G2Trace) -> dict:
    """The trace's five summary columns, by name."""
    return {
        "t_us": trace.grid,
        "g2_mean": trace.g2_mean,
        "g2_stderr": trace.g2_stderr,
        "f_mean": trace.f_mean,
        "h_mean": trace.h_mean,
    }


def _trace_json(trace: G2Trace) -> dict:
    return {
        **{name: [float(x) for x in column] for name, column in _trace_columns(trace).items()},
        "n_realizations": trace.realizations,
        "seeds": list(trace.seeds),
        "per_realization": {
            "g2": trace.g2.tolist(),
            "f": trace.f.tolist(),
            "h": trace.h.tolist(),
        },
    }


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS reports one, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _make_pool(threads: int, realizations: int):
    """A pool of the workers worth starting, never more than realizations or usable CPUs; None for one.

    Under the fork start method the pool starts every worker at once, so an
    unclamped --threads 500 would fork 500 processes for one realization.
    """
    workers = min(threads, realizations, _usable_cpus())
    if workers <= 1:
        return None
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing only when needed

    return ProcessPoolExecutor(max_workers=workers)


# ---------------------------------------------------------------------------
# subcommand runners: each takes (config, ..., pool) and returns (seeds, columns, payload)
# ---------------------------------------------------------------------------


def _write_data(path: Path, columns: dict, payload) -> None:
    """The staged <name>.partial: columns as CSV columns (ragged ones raise) for a .csv name, else payload() as JSON."""
    if path.with_suffix("").suffix == ".csv":
        _write_csv(path, list(columns), zip(*columns.values(), strict=True))
    else:
        _write_json(path, payload())


def run_g2_trace(cfg: RunConfig, schedule: tuple, pool):
    trace = g2_trace(cfg.ensemble, schedule, cfg.grid, mode=cfg.mode, realizations=cfg.realizations, pool=pool)
    columns = dict(_trace_columns(trace), n_realizations=[trace.realizations] * len(trace.grid))
    return list(trace.seeds), columns, lambda: _trace_json(trace)


def run_cycles(cfg: RunConfig, schedule: tuple, pool):
    trace = g2_trace(cfg.ensemble, schedule, cfg.grid, mode=cfg.mode, realizations=cfg.realizations, pool=pool)
    tau = float(trace.grid[-1]) / len(schedule)  # the reference decays over the mean cycle duration
    reference = [decay_reference(tau, float(t)) for t in trace.grid]
    flat = unit_point(cfg.ensemble.n_atoms)
    start = (0.0, flat.g2, 0.0, flat.f, flat.h)  # the pre-protocol point, in _trace_columns order
    columns = {
        "cycle": range(len(reference) + 1),
        **{name: [x, *column] for x, (name, column) in zip(start, _trace_columns(trace).items(), strict=True)},
        "reference": [1.0, *reference],
    }

    def payload():
        return dict(_trace_json(trace), reference_tau_us=tau, reference=reference, g2_flat=flat.g2)

    return list(trace.seeds), columns, payload


def _parse_entangle_config(raw) -> RunConfig:
    _check_mapping(raw, "config", ["ensemble", "entangle", "grid"], ["realizations", "output"])
    ensemble = _parse_ensemble(raw["ensemble"], "ensemble")
    ent, epath = raw["entangle"], "entangle"
    _check_mapping(ent, epath, ["n", "c3_prime", "c3_second"], [])
    n = _as_int(ent["n"], f"{epath}.n")
    c3_prime, c3_second = (_as_float(ent[key], f"{epath}.{key}") for key in ("c3_prime", "c3_second"))
    # (n+1)s dressed through np_1/2 with C3', ns dressed through np_3/2 with C3''
    channels = (RydbergChannel(n + 1, n, 0.5, c3_prime), RydbergChannel(n, n, 1.5, c3_second))
    modes = tuple(CycleSpec(channel, 0.0, MicrowaveSpec()) for channel in channels)
    grid, realizations = _parse_grid(raw)
    # the modes write the planes in turn, as one analytic cycle does
    need = realization_bytes(ensemble.n_atoms, "analytic", modes[:1], len(grid))
    _fit_memory("ensemble.n_atoms", need, f"{ensemble.n_atoms} atoms", "one realization's arrays")
    return RunConfig(
        ensemble=ensemble,
        schedules={"entangle": modes},
        mode="analytic",
        grid=grid,
        realizations=realizations,
        output_format=_parse_output(raw.get("output", {}), "output"),
    )


def run_entangle(cfg: RunConfig, modes: tuple, pool):
    f, m1, m2, seeds = entangle_trace(cfg.ensemble, modes, cfg.grid, realizations=cfg.realizations, pool=pool)
    columns = {"t_us": cfg.grid, "F": f, "abs_m1": m1, "abs_m2": m2}
    return list(seeds), columns, lambda: {k: v.tolist() for k, v in columns.items()}


def _parse_phasematch_config(raw) -> dict:
    _check_mapping(raw, "config", ["beams"], ["speed_m_per_s", "solve_offaxis"])
    beams = []
    for i, entry in enumerate(_as_list(raw["beams"], "beams", min_len=1)):
        bpath = f"beams[{i}]"
        _check_mapping(entry, bpath, ["wavelength_nm", "sign"], ["direction"])
        wavelength = _as_float(entry["wavelength_nm"], f"{bpath}.wavelength_nm")
        sign = entry["sign"]
        if type(sign) is not int or sign not in (-1, 1):
            _fail(f"{bpath}.sign", f"must be +1 or -1, got {sign!r}")
        components = _as_list(entry.get("direction", [0.0, 0.0, 1.0]), f"{bpath}.direction", 3)
        direction = np.array([_as_float(v, f"{bpath}.direction[{k}]") for k, v in enumerate(components)])
        if direction.shape != (3,):
            _fail(f"{bpath}.direction", "expected 3 components")
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            _fail(f"{bpath}.direction", "zero vector")
        beams.append(Beam(wavelength, sign, direction / norm))
    speed = _as_float(raw.get("speed_m_per_s", 0.1), "speed_m_per_s")
    do_offaxis = _as_bool(raw.get("solve_offaxis", True), "solve_offaxis")
    if do_offaxis and len(beams) < 2:
        _fail("beams", "the off-axis solver needs at least two beams; set solve_offaxis to false")
    return {"beams": beams, "speed": speed, "solve_offaxis": do_offaxis}


def _period_json(x: float):
    return "inf" if math.isinf(x) else x


def _beams_json(beams, speed: float, angles_deg: list) -> dict:
    mismatch = wavevector_mismatch(beams)
    period = spinwave_period(mismatch)
    return {
        "dk_rad_per_um": [float(x) for x in mismatch],
        "period_um": _period_json(period),
        "coherence_time_us": _period_json(motional_coherence_time(period, speed)),
        "angles_deg": angles_deg,
    }


def run_phasematch(parsed: dict, pool):
    beams = parsed["beams"]
    tilt = [
        math.degrees(math.atan2(float(np.hypot(b.direction[0], b.direction[1])), float(b.direction[2])))
        for b in beams
    ]
    payload = _beams_json(beams, parsed["speed"], tilt)
    if parsed["solve_offaxis"]:
        try:
            directions, angles, _ = solve_offaxis(
                [b.wavelength for b in beams], [b.sign for b in beams]
            )
            off = [Beam(b.wavelength, b.sign, directions[i]) for i, b in enumerate(beams)]
            payload["offaxis"] = _beams_json(off, parsed["speed"], [float(math.degrees(a)) for a in angles])
        except PhaseMatchInfeasible as exc:
            payload["offaxis"] = {"infeasible": str(exc)}
    return [], None, lambda: payload


@dataclass
class Job:
    """One validated config of a run: a plain run plans one, a sweep one per combination."""

    label: str | None  # the combination's subdirectory; None for a plain run
    subcommand: str
    raw: dict
    config: object  # what the subcommand's parser returned


def _parse_sweep_config(raw) -> list[Job]:
    _check_mapping(raw, "config", ["subcommand", "base", "axes"], [])
    sub = _as_choice(raw["subcommand"], "subcommand", ENSEMBLE_SUBCOMMANDS)
    if not isinstance(raw["base"], dict):
        _fail("base", "expected an object")
    axes = []
    for i, axis in enumerate(_as_list(raw["axes"], "axes")):
        apath = f"axes[{i}]"
        _check_mapping(axis, apath, ["path", "values"], [])
        if not isinstance(axis["path"], str) or not axis["path"]:
            _fail(f"{apath}.path", "expected a nonempty dotted path")
        for j, (earlier, _) in enumerate(axes):  # one path equal to or under the other: the later axis overwrites
            if all(a == b for a, b in zip(axis["path"].split("."), earlier.split("."))):
                _fail(f"{apath}.path", f"{axis['path']!r} overlaps axes[{j}].path {earlier!r}")
        axes.append((axis["path"], _as_list(axis["values"], f"{apath}.values")))
    jobs, combos = [], {}
    for combo in itertools.product(*(values for _, values in axes)):
        label = _combo_label(axes, combo)
        if label in combos:
            _fail("axes", f"combinations {combos[label]} and {list(combo)} both write to {label}/")
        combos[label] = list(combo)
        base = copy.deepcopy(raw["base"])
        for (path, _), value in zip(axes, combo):
            _apply_override(base, path, value)
        try:
            config = SUBCOMMANDS[sub].parse(base)
        except ConfigError as exc:  # the combination's paths are rooted at base
            raise ConfigError(f"base.{str(exc).removeprefix('config.')} (combination {label})") from None
        jobs.append(Job(label, sub, base, config))
    return jobs


def _apply_override(cfg: dict, dotted: str, value):
    """Set value at a dotted path of cfg, each segment a list index or a dict key; the leaf key may be new."""
    parts, node = dotted.split("."), cfg
    for depth, part in enumerate(parts, 1):
        leaf = depth == len(parts)  # by position: short segments are interned, so identity cannot tell
        if isinstance(node, list):  # an index is spelled str(i), i in [0, len): one spelling per entry
            if part not in map(str, range(len(node))):
                _fail(f"axes path {dotted!r}", f"segment {part!r} is not an index of a {len(node)}-entry list")
            key = int(part)
        elif isinstance(node, dict):
            if not leaf and part not in node:
                _fail(f"axes path {dotted!r}", f"segment {part!r} not present in base config")
            key = part
        else:
            _fail(f"axes path {dotted!r}", "cannot assign" if leaf else f"cannot descend into {type(node).__name__}")
        if leaf:
            node[key] = value
        else:
            node = node[key]


def _combo_label(axes, combo) -> str:
    parts = []
    for (path, _), value in zip(axes, combo):
        stem = path.split(".")[-1]
        parts.append(f"{stem}={value}")
    return "__".join(parts).replace("/", "_").replace(" ", "")


@dataclass(frozen=True)
class Subcommand:
    """parse(raw) validates one config document; files(config) names its data files, each with its fill.

    fill(pool) computes one file and returns (seeds, columns, payload): its
    realization seeds, its CSV columns by name and a function returning its
    JSON document.  g2-trace, cycles and entangle parse to a RunConfig and
    share one file rule, _trace_files; phasematch writes phasematch.json and
    ignores the pool; sweep has no files of its own, its parser returns the
    jobs of the subcommand it sweeps.  Runners look up what they call
    (g2_trace, ...) as module globals at call time.
    """

    help: str
    parse: Callable
    files: Callable | None


def _trace_files(run: Callable, cfg: RunConfig) -> dict:
    """<stem>.<output.format> for each of cfg's schedules, filled by run(cfg, schedule, pool)."""
    return {f"{stem}.{cfg.output_format}": partial(run, cfg, schedule) for stem, schedule in cfg.schedules.items()}


SUBCOMMANDS = {
    "g2-trace": Subcommand(
        "correlation trace versus free-interval length",
        partial(_parse_trace_config, subcommand="g2-trace"),
        partial(_trace_files, run_g2_trace),
    ),
    "cycles": Subcommand(
        "correlation after each cycle of a fixed schedule",
        partial(_parse_trace_config, subcommand="cycles"),
        partial(_trace_files, run_cycles),
    ),
    "entangle": Subcommand(
        "two-mode entanglement fidelity trace", _parse_entangle_config, partial(_trace_files, run_entangle)
    ),
    "phasematch": Subcommand(
        "wavevector mismatch, period, off-axis zero geometry",
        _parse_phasematch_config,
        lambda parsed: {"phasematch.json": partial(run_phasematch, parsed)},
    ),
    "sweep": Subcommand("Cartesian parameter sweep over another subcommand", _parse_sweep_config, None),
}


def _plan(subcommand: str, raw: dict) -> list[Job]:
    """The run's jobs, every config parsed and validated: one for a plain run, one per sweep combination."""
    entry = SUBCOMMANDS[subcommand]
    if entry.files is None:
        return entry.parse(raw)
    return [Job(None, subcommand, raw, entry.parse(raw))]


def _override_seed(raw: dict, subcommand: str, seed: int) -> None:
    """Write seed into the config; a section that is missing or not an object, or a sweep of a
    subcommand with no ensemble, is left for the parser to reject, as it would be without --seed."""
    if subcommand in ENSEMBLE_SUBCOMMANDS:
        ensemble = raw.get("ensemble")
        if isinstance(ensemble, dict):
            ensemble["seed"] = seed
    elif subcommand == "phasematch":
        raise ConfigError("--seed: phasematch has no seed")
    elif subcommand == "sweep" and raw.get("subcommand") in ENSEMBLE_SUBCOMMANDS:
        base = raw.get("base")
        if isinstance(base, dict):
            _override_seed(base, raw["subcommand"], seed)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: the subcommand is a positional, and every subcommand takes the same five flags."""
    subcommands = "\n".join(f"  {name:<12}{entry.help}" for name, entry in SUBCOMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="ryddephase",
        description="Dephasing of dressed Rydberg pair excitations: correlation traces,\n"
        "cycle protocols, entanglement figures of merit, phase matching.\n\n"
        f"subcommands:\n{subcommands}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS, metavar="subcommand", help="one of those listed above")
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, help="worker process count, at least 1 (default: 1)")
    parser.add_argument("--force", action="store_true", help="allow overwriting outputs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads: expected an integer >= 1, got {args.threads}")
        if args.seed is not None:
            _in_range(args.seed, "--seed", "seed")
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        raw = _decode(text, f" in {args.config}")
        if args.seed is not None:
            _override_seed(raw, args.subcommand, args.seed)
        jobs = _plan(args.subcommand, raw)
        out, session = Path(args.out), OutputSession(args.force)
        # every file of the run is named and checked now, before any work: each job's data files, then its manifest
        planned = []
        for job in jobs:
            directory = out if job.label is None else out / job.label
            files = {directory / name: fill for name, fill in SUBCOMMANDS[job.subcommand].files(job.config).items()}
            planned.append((job, files, directory / "manifest.json"))
            for path in [*files, directory / "manifest.json"]:
                session.stage(path)
        if args.subcommand == "sweep":
            session.stage(out / "manifest.json")
        # phasematch configs run no realizations
        pool = _make_pool(args.threads, max(getattr(job.config, "realizations", 1) for job in jobs))
        try:
            started, seeds, outputs = time.perf_counter(), [], []
            for job, files, manifest in planned:
                job_started = time.perf_counter()  # a manifest's duration_s counts its own job's run
                for path, fill in files.items():
                    job_seeds, columns, payload = fill(pool)  # every file of a job draws the same realizations
                    _write_data(session.temporary(path), columns, payload)
                session.finish(manifest, job.subcommand, job.raw, job_seeds, job_started, list(files))
                seeds += job_seeds
                outputs += [*files, manifest]
            if args.subcommand == "sweep":
                session.finish(out / "manifest.json", "sweep", raw, seeds, started, outputs)
            session.commit()
        finally:
            if pool is not None:
                pool.shutdown()
            session.discard()
        print(f"wrote {len(session.staged) - 1} output file(s); manifest: {out / 'manifest.json'}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except PackingError as exc:
        print(f"config error: ensemble: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
