"""Command line entry point: config parsing, run orchestration, output emission.

Configs are JSON with a strict schema (unknown keys are rejected, errors name
the offending field path).  main plans a run before it runs it: every config,
each sweep combination included, is parsed and validated first, then one
worker pool serves all of them.  Every run writes its data files plus a manifest
recording the config hash, the derived per-realization seeds, the package
version and the wall-clock duration; re-running the same config and seed
reproduces the data files byte for byte, regardless of the thread count.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

import argparse
import copy
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
    Level,
    MicrowaveSpec,
    POLARIZATIONS,
    PULSE_MODELS,
    RydbergChannel,
    c3_of,
)
from .correlation import (
    G2Trace,
    brute_force_g2,
    g2_after_cycles,
    g2_from_amplitudes,
    g2_trace,
    realization_seed,
)
from .ensemble import EnsembleSpec, PackingError, pair_index_arrays, sample_positions
from .pairdyn import CycleSpec, NumericsError
from .phasematch import (
    Beam,
    PhaseMatchInfeasible,
    evaluate_beams,
    solve_offaxis,
    spinwave_period,
    motional_coherence_time,
    wavevector_mismatch,
)
from .protocol import CycleSchedule, decay_reference, entangle_trace, make_schedule

THREADS_ENV = "RYDDEPHASE_THREADS"
ENSEMBLE_SUBCOMMANDS = ("g2-trace", "cycles", "entangle")  # sample positions; a sweep varies one of them


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


def _as_int(value, path, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(path, f"must be <= {maximum}, got {value}")
    return value


def _as_float(value, path, minimum=None, strict_min=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    value = float(value)
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    if strict_min is not None and value <= strict_min:
        _fail(path, f"must be > {strict_min}, got {value}")
    return value


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


def _parse_ensemble(cfg, path) -> EnsembleSpec:
    _check_mapping(cfg, path, ["n_atoms", "box_side_um", "seed"], ["min_separation_um"])
    try:
        return EnsembleSpec(
            n_atoms=_as_int(cfg["n_atoms"], f"{path}.n_atoms", minimum=2),
            box_side=_as_float(cfg["box_side_um"], f"{path}.box_side_um", strict_min=0.0),
            seed=_as_int(cfg["seed"], f"{path}.seed", minimum=0, maximum=2**64 - 1),
            min_separation=_as_float(
                cfg.get("min_separation_um", 0.1), f"{path}.min_separation_um", strict_min=0.0
            ),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        _fail(path, str(exc))


def _parse_interaction(cfg, path):
    """Returns (model | None, table dict keyed by (s_n, p_n, p_j))."""
    _check_mapping(cfg, path, [], ["model", "table"])
    model = None
    if "model" in cfg:
        mpath = f"{path}.model"
        _check_mapping(cfg["model"], mpath, ["reference_c3", "reference_n"], ["scaling_exponent"])
        model = InteractionModel(
            reference_c3=_as_float(cfg["model"]["reference_c3"], f"{mpath}.reference_c3", strict_min=0.0),
            reference_n=_as_int(cfg["model"]["reference_n"], f"{mpath}.reference_n", minimum=1),
            scaling_exponent=_as_float(
                cfg["model"].get("scaling_exponent", 4.0), f"{mpath}.scaling_exponent"
            ),
        )
    table = {}
    if "table" in cfg:
        for i, row in enumerate(_as_list(cfg["table"], f"{path}.table")):
            rpath = f"{path}.table[{i}]"
            _check_mapping(row, rpath, ["s_n", "p_n", "p_j", "c3"], [])
            key = (
                _as_int(row["s_n"], f"{rpath}.s_n", minimum=1),
                _as_int(row["p_n"], f"{rpath}.p_n", minimum=1),
                _as_float(row["p_j"], f"{rpath}.p_j"),
            )
            table[key] = _as_float(row["c3"], f"{rpath}.c3", strict_min=0.0)
    return model, table


def _resolve_c3(s_n, p_n, p_j, explicit, model, table, path):
    if explicit is not None:
        return explicit
    key = (s_n, p_n, p_j)
    if key in table:
        return table[key]
    if model is not None:
        return c3_of(s_n, model)
    _fail(
        path,
        f"channel {s_n}s - {p_n}p_{p_j} has no C3: give cycle c3, a table entry, "
        "or an interaction model",
    )


def _parse_cycle(cfg, path, model, table, n_override=None) -> CycleSpec:
    _check_mapping(
        cfg,
        path,
        ["s_n", "p_n", "p_j", "delta_t_us"],
        ["rabi_rad_per_us", "polarization", "pulse_model", "c3"],
    )
    s_n = _as_int(cfg["s_n"], f"{path}.s_n", minimum=1)
    p_n = _as_int(cfg["p_n"], f"{path}.p_n", minimum=1)
    p_j = _as_float(cfg["p_j"], f"{path}.p_j")
    if n_override is not None:
        s_n = p_n = n_override
    explicit = None
    if "c3" in cfg:
        explicit = _as_float(cfg["c3"], f"{path}.c3", strict_min=0.0)
        if n_override is not None:
            explicit = None  # scan overrides re-resolve from the model/table
    c3 = _resolve_c3(s_n, p_n, p_j, explicit, model, table, path)
    try:
        channel = RydbergChannel(Level(s_n, "s", 0.5), Level(p_n, "p", p_j), c3)
        microwave = MicrowaveSpec(
            rabi=_as_float(cfg.get("rabi_rad_per_us", 10.0), f"{path}.rabi_rad_per_us", strict_min=0.0),
            polarization=_as_choice(
                cfg.get("polarization", "pi"), f"{path}.polarization", POLARIZATIONS
            ),
            pulse_model=_as_choice(
                cfg.get("pulse_model", "instantaneous"), f"{path}.pulse_model", PULSE_MODELS
            ),
        )
        return CycleSpec(
            channel, _as_float(cfg["delta_t_us"], f"{path}.delta_t_us", minimum=0.0), microwave
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        _fail(path, str(exc))


def _parse_schedule(cfg, path, model, table, n_override=None) -> CycleSchedule:
    _check_mapping(cfg, path, ["cycles"], [])
    cycles = [
        _parse_cycle(c, f"{path}.cycles[{i}]", model, table, n_override)
        for i, c in enumerate(_as_list(cfg["cycles"], f"{path}.cycles"))
    ]
    try:
        return make_schedule(cycles)
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_grid(cfg, path) -> np.ndarray:
    _check_mapping(cfg, path, ["start_us", "stop_us", "points"], ["spacing"])
    start = _as_float(cfg["start_us"], f"{path}.start_us", minimum=0.0)
    stop = _as_float(cfg["stop_us"], f"{path}.stop_us", minimum=0.0)
    points = _as_int(cfg["points"], f"{path}.points", minimum=1)
    spacing = _as_choice(cfg.get("spacing", "linear"), f"{path}.spacing", ("linear", "log"))
    if points > 1 and stop <= start:
        _fail(f"{path}.stop_us", "must exceed start_us for multi-point grids")
    if spacing == "log":
        if start <= 0:
            _fail(f"{path}.start_us", "log spacing needs start_us > 0")
        return np.geomspace(start, stop, points)
    return np.linspace(start, stop, points) if points > 1 else np.array([start])


def _parse_output(cfg, path):
    _check_mapping(cfg, path, [], ["format", "dir"])
    fmt = _as_choice(cfg.get("format", "csv"), f"{path}.format", ("csv", "json"))
    out_dir = cfg.get("dir")
    if out_dir is not None and not isinstance(out_dir, str):
        _fail(f"{path}.dir", "expected a string path")
    return fmt, out_dir


@dataclass
class RunConfig:
    """Materialized g2-trace / cycles configuration."""

    ensemble: EnsembleSpec
    schedule: CycleSchedule
    scan_schedules: dict  # n -> schedule with s_n = p_n = n, in scan_n order; empty without scan_n
    mode: str
    grid: np.ndarray | None
    realizations: int
    output_format: str
    reference_tau: float | None = None  # cycles only: tau of the e^(-T/tau) reference column


def parse_config(text: str, subcommand: str = "g2-trace") -> RunConfig:
    """Parse and validate a g2-trace or cycles configuration document."""
    _, jobs = _plan(subcommand, _decode(text, ""))
    return jobs[0].config


def _decode(text: str, where: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON{where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    return raw


def _parse_trace_config(raw, output_format, subcommand) -> RunConfig:
    required = ["ensemble", "schedule"]
    optional = ["interaction", "mode", "realizations", "output", "scan_n"]
    if subcommand == "g2-trace":
        required.append("grid")
    else:
        optional.append("reference_tau_us")
    _check_mapping(raw, "config", required, optional)
    model, table = _parse_interaction(raw.get("interaction", {}), "interaction")
    ensemble = _parse_ensemble(raw["ensemble"], "ensemble")
    schedule = _parse_schedule(raw["schedule"], "schedule", model, table)
    scan_schedules = {}
    if "scan_n" in raw:
        values = _as_list(raw["scan_n"], "scan_n")
        scan_n = [_as_int(v, f"scan_n[{i}]", minimum=1) for i, v in enumerate(values)]
        for i, n in enumerate(scan_n):
            if n in scan_schedules:
                _fail(f"scan_n[{i}]", f"duplicate value {n}")
            scan_schedules[n] = _parse_schedule(raw["schedule"], "schedule", model, table, n_override=n)
    mode = _as_choice(raw.get("mode", "analytic"), "mode", ("analytic", "multichannel"))
    realizations = _as_int(raw.get("realizations", 100), "realizations", minimum=1)
    grid = _parse_grid(raw["grid"], "grid") if subcommand == "g2-trace" else None
    tau = None
    if subcommand == "cycles":  # the reference defaults to the mean cycle duration
        tau = schedule.total_time / len(schedule)
        if "reference_tau_us" in raw:
            tau = _as_float(raw["reference_tau_us"], "reference_tau_us", strict_min=0.0)
    return RunConfig(
        ensemble=ensemble,
        schedule=schedule,
        scan_schedules=scan_schedules,
        mode=mode,
        grid=grid,
        realizations=realizations,
        output_format=output_format,
        reference_tau=tau,
    )


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    """Shortest round-trip decimal form; byte-stable across platforms."""
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _config_sha256(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canon).hexdigest()


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class OutputSession:
    """Collects planned output files, enforces the overwrite policy, writes the manifest.

    Files, manifests included, are written under temporary names (claim
    returns one) and commit renames them into place once the whole run has
    succeeded, the top-level manifest last, so a failed run leaves no file
    that would block a re-run.  A sweep's sub-sessions stage their files in
    the top-level session's table.
    """

    def __init__(self, out_dir: Path, subcommand: str, raw_config: dict, force: bool, staged=None):
        self.out_dir = out_dir
        self.subcommand = subcommand
        self.raw_config = raw_config
        self.force = force
        self.outputs: list[Path] = []
        self.seeds: list[int] = []
        self.started = time.perf_counter()
        self._staged: dict[Path, Path] = {} if staged is None else staged  # final -> temporary
        if (out_dir / "manifest.json").exists() and not force:
            raise ConfigError(
                f"refusing to overwrite {out_dir / 'manifest.json'}; pass --force"
            )

    def sub_session(self, label: str, subcommand: str, raw_config: dict) -> "OutputSession":
        return OutputSession(self.out_dir / label, subcommand, raw_config, self.force, self._staged)

    def _stage(self, path: Path) -> Path:
        if path.exists() and not self.force:
            raise ConfigError(f"refusing to overwrite {path}; pass --force")
        if path in self._staged:
            raise ConfigError(f"{path} would be written twice by one run")
        path.parent.mkdir(parents=True, exist_ok=True)
        temporary = path.with_name(path.name + ".partial")
        self._staged[path] = temporary
        return temporary

    def claim(self, name: str) -> Path:
        """Temporary path to write output name to."""
        path = self.out_dir / name
        temporary = self._stage(path)
        self.outputs.append(path)
        return temporary

    def discard(self) -> None:
        """Delete staged files not renamed into place (after a failure)."""
        for temporary in self._staged.values():
            temporary.unlink(missing_ok=True)

    def finish(self) -> Path:
        manifest_path = self.out_dir / "manifest.json"
        manifest = {
            "subcommand": self.subcommand,
            "version": __version__,
            "config_sha256": _config_sha256(self.raw_config),
            "config": self.raw_config,
            "seeds": self.seeds,
            "duration_s": time.perf_counter() - self.started,
            "outputs": [self._output_entry(p) for p in self.outputs],
        }
        _write_json(self._stage(manifest_path), manifest)
        return manifest_path

    def _output_entry(self, path: Path) -> dict:
        entry = {"path": str(path.relative_to(self.out_dir))}
        if path.name != "manifest.json":  # a sweep's sub-manifest holds its own duration_s
            entry["sha256"] = _file_sha256(self._staged[path])
        return entry

    def commit(self) -> None:
        """Rename every staged file into place, in the order staged."""
        for final, temporary in self._staged.items():
            os.replace(temporary, final)


def _trace_rows(trace: G2Trace):
    for it, t in enumerate(trace.grid):
        yield [
            _fmt(t),
            _fmt(trace.g2_mean[it]),
            _fmt(trace.g2_stderr[it]),
            _fmt(trace.f_mean[it]),
            _fmt(trace.h_mean[it]),
            str(trace.realizations),
        ]


def _trace_json(trace: G2Trace) -> dict:
    return {
        "t_us": [float(t) for t in trace.grid],
        "g2_mean": [float(x) for x in trace.g2_mean],
        "g2_stderr": [float(x) for x in trace.g2_stderr],
        "f_mean": [float(x) for x in trace.f_mean],
        "h_mean": [float(x) for x in trace.h_mean],
        "n_realizations": trace.realizations,
        "seeds": list(trace.seeds),
        "per_realization": {
            "g2": trace.g2.tolist(),
            "f": trace.f.tolist(),
            "h": trace.h.tolist(),
        },
    }


def _worker_count(threads: int, realizations: int) -> int:
    """Workers worth starting: never more than realizations or CPUs.

    Under the fork start method the pool starts every worker at once, so an
    unclamped --threads 500 would fork 500 processes for one realization.
    """
    return min(threads, realizations, os.cpu_count() or 1)


def _make_pool(threads: int, realizations: int):
    workers = _worker_count(threads, realizations)
    if workers <= 1:
        return None
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing only when needed

    return ProcessPoolExecutor(max_workers=workers)


# ---------------------------------------------------------------------------
# subcommand runners: each takes (config, session, pool)
# ---------------------------------------------------------------------------

TRACE_HEADER = ["t_us", "g2_mean", "g2_stderr", "f_mean", "h_mean", "n_realizations"]


def _write_data(session: OutputSession, stem: str, output_format: str, header, rows, payload) -> None:
    """stem.csv from header and rows, or stem.json from payload(), as output.format asks."""
    if output_format == "csv":
        _write_csv(session.claim(f"{stem}.csv"), header, rows)
    else:
        _write_json(session.claim(f"{stem}.json"), payload())


def run_g2_trace(cfg: RunConfig, session: OutputSession, pool) -> None:
    for n, schedule in cfg.scan_schedules.items() or [(None, cfg.schedule)]:
        trace = g2_trace(
            cfg.ensemble,
            schedule,
            cfg.grid,
            mode=cfg.mode,
            realizations=cfg.realizations,
            pool=pool,
        )
        session.seeds = list(trace.seeds)
        stem = "g2_trace" if n is None else f"g2_trace_n{n}"
        _write_data(session, stem, cfg.output_format, TRACE_HEADER, _trace_rows(trace), lambda: _trace_json(trace))


def run_cycles(cfg: RunConfig, session: OutputSession, pool) -> None:
    trace = g2_after_cycles(
        cfg.ensemble,
        cfg.schedule,
        mode=cfg.mode,
        realizations=cfg.realizations,
        pool=pool,
    )
    session.seeds = list(trace.seeds)
    tau = cfg.reference_tau
    n = cfg.ensemble.n_atoms
    flat = g2_from_amplitudes(np.ones(n * (n - 1) // 2), n)
    reference = [float(decay_reference(tau, float(t))) for t in trace.grid]
    header = ["cycle", "t_us", "g2_mean", "g2_stderr", "f_mean", "h_mean", "reference"]
    rows = [["0", _fmt(0.0), _fmt(flat.g2), _fmt(0.0), _fmt(flat.f), _fmt(flat.h), _fmt(1.0)]]
    for q, (row, ref) in enumerate(zip(_trace_rows(trace), reference), start=1):
        rows.append([str(q), *row[:5], _fmt(ref)])  # row[5] is the realization count

    def payload():
        return dict(_trace_json(trace), reference_tau_us=tau, reference=reference, g2_flat=flat.g2)

    _write_data(session, "cycles", cfg.output_format, header, rows, payload)


@dataclass
class EntangleConfig:
    """Materialized entangle configuration."""

    ensemble: EnsembleSpec
    c3_prime: float
    c3_second: float
    grid: np.ndarray
    realizations: int
    output_format: str


def _parse_entangle_config(raw, output_format) -> EntangleConfig:
    _check_mapping(raw, "config", ["ensemble", "entangle", "grid"], ["realizations", "output"])
    ensemble = _parse_ensemble(raw["ensemble"], "ensemble")
    ent, epath = raw["entangle"], "entangle"
    _check_mapping(ent, epath, ["n", "c3_prime", "c3_second"], [])
    # n only labels the levels; the trace depends on c3_prime and c3_second
    _as_int(ent["n"], f"{epath}.n", minimum=1)
    return EntangleConfig(
        ensemble=ensemble,
        c3_prime=_as_float(ent["c3_prime"], f"{epath}.c3_prime", strict_min=0.0),
        c3_second=_as_float(ent["c3_second"], f"{epath}.c3_second", strict_min=0.0),
        grid=_parse_grid(raw["grid"], "grid"),
        realizations=_as_int(raw.get("realizations", 100), "realizations", minimum=1),
        output_format=output_format,
    )


def run_entangle(cfg: EntangleConfig, session: OutputSession, pool) -> None:
    grid, f, m1, m2 = entangle_trace(
        cfg.ensemble,
        cfg.c3_prime,
        cfg.c3_second,
        cfg.grid,
        realizations=cfg.realizations,
        pool=pool,
    )
    session.seeds = [realization_seed(cfg.ensemble.seed, r) for r in range(cfg.realizations)]
    header = ["t_us", "F", "abs_m1", "abs_m2"]
    columns = (grid, f, m1, m2)
    rows = ([_fmt(t), _fmt(f[i]), _fmt(m1[i]), _fmt(m2[i])] for i, t in enumerate(grid))
    _write_data(
        session, "entangle", cfg.output_format, header, rows, lambda: {k: v.tolist() for k, v in zip(header, columns)}
    )


def _parse_phasematch_config(raw, output_format) -> dict:
    _check_mapping(raw, "config", ["beams"], ["speed_m_per_s", "solve_offaxis", "output"])
    beams = []
    for i, entry in enumerate(_as_list(raw["beams"], "beams", min_len=1)):
        bpath = f"beams[{i}]"
        _check_mapping(entry, bpath, ["wavelength_nm", "sign"], ["direction"])
        wavelength = _as_float(entry["wavelength_nm"], f"{bpath}.wavelength_nm", strict_min=0.0)
        sign = _as_int(entry["sign"], f"{bpath}.sign")
        if sign not in (-1, 1):
            _fail(f"{bpath}.sign", f"must be +1 or -1, got {sign}")
        direction = entry.get("direction", [0.0, 0.0, 1.0])
        direction = np.asarray(
            [_as_float(v, f"{bpath}.direction[{k}]") for k, v in enumerate(_as_list(direction, f"{bpath}.direction", 3))],
            dtype=float,
        )
        if direction.shape != (3,):
            _fail(f"{bpath}.direction", "expected 3 components")
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            _fail(f"{bpath}.direction", "zero vector")
        beams.append(Beam(wavelength, sign, direction / norm))
    speed = _as_float(raw.get("speed_m_per_s", 0.1), "speed_m_per_s", strict_min=0.0)
    do_offaxis = _as_bool(raw.get("solve_offaxis", True), "solve_offaxis")
    return {"beams": beams, "speed": speed, "solve_offaxis": do_offaxis}


def _period_json(x: float):
    return "inf" if math.isinf(x) else x


def run_phasematch(parsed: dict, session: OutputSession, pool) -> None:
    beams = parsed["beams"]
    result = evaluate_beams(beams, parsed["speed"])
    tilt = [
        math.degrees(math.atan2(float(np.hypot(b.direction[0], b.direction[1])), float(b.direction[2])))
        for b in beams
    ]
    payload = {
        "dk_rad_per_um": [float(x) for x in result.mismatch],
        "period_um": _period_json(result.period),
        "coherence_time_us": _period_json(result.coherence_time),
        "angles_deg": tilt,
    }
    if parsed["solve_offaxis"]:
        try:
            directions, angles, _ = solve_offaxis(
                [b.wavelength for b in beams], [b.sign for b in beams]
            )
            off = [Beam(b.wavelength, b.sign, directions[i]) for i, b in enumerate(beams)]
            dk = wavevector_mismatch(off)
            period = spinwave_period(dk)
            payload["offaxis"] = {
                "dk_rad_per_um": [float(x) for x in dk],
                "period_um": _period_json(period),
                "coherence_time_us": _period_json(
                    motional_coherence_time(period, parsed["speed"])
                ),
                "angles_deg": [float(math.degrees(a)) for a in angles],
            }
        except PhaseMatchInfeasible as exc:
            payload["offaxis"] = {"infeasible": str(exc)}
    _write_json(session.claim("phasematch.json"), payload)


def _parse_oracle_config(raw, output_format) -> dict:
    _check_mapping(raw, "config", ["seed"], ["n_atoms", "draws", "amplitude", "box_side_um", "output"])
    return {
        "n_atoms": _as_int(raw.get("n_atoms", 8), "n_atoms", minimum=2, maximum=10),
        "draws": _as_int(raw.get("draws", 100), "draws", minimum=1),
        "seed": _as_int(raw["seed"], "seed", minimum=0, maximum=2**64 - 1),
        "amplitude": _as_choice(raw.get("amplitude", "random"), "amplitude", ("random", "ones")),
        "box_side": _as_float(raw.get("box_side_um", 60.0), "box_side_um", strict_min=0.0),
    }


def run_oracle(parsed: dict, session: OutputSession, pool) -> None:
    n = parsed["n_atoms"]
    mu, nu = pair_index_arrays(n)
    rng = np.random.Generator(np.random.PCG64(parsed["seed"]))
    cases = []
    worst = 0.0
    for draw in range(parsed["draws"]):
        seed = realization_seed(parsed["seed"], draw)
        geometry = sample_positions(EnsembleSpec(n, parsed["box_side"], seed))
        if parsed["amplitude"] == "ones":
            amps = np.ones(len(mu))
        else:
            # draw (n, n) values and keep the mu < nu ones: a seed's cases stay fixed
            mag = rng.uniform(0.0, 1.0, size=(n, n))
            phase = rng.uniform(0.0, 2.0 * math.pi, size=(n, n))
            amps = (mag * np.exp(1j * phase))[mu, nu]
        approx = g2_from_amplitudes(amps, n).g2
        exact = brute_force_g2(geometry, amps)
        rel = abs(approx - exact) / exact if exact else abs(approx)
        worst = max(worst, rel)
        cases.append({"draw": draw, "approx_g2": approx, "exact_g2": exact, "rel_deviation": rel})
    session.seeds = [parsed["seed"]]
    bound = 3.0 / n
    _write_json(
        session.claim("oracle.json"),
        {
            "n_atoms": n,
            "draws": parsed["draws"],
            "seed": parsed["seed"],
            "max_rel_deviation": worst,
            "bound": bound,
            "pass": bool(worst <= bound),
            "cases": cases,
        },
    )


@dataclass
class Job:
    """One validated config of a run: a plain run plans one, a sweep one per combination."""

    label: str | None  # the combination's subdirectory; None for a plain run
    subcommand: str
    raw: dict
    config: object  # what the subcommand's parser returned


def _parse_sweep_config(raw, output_format) -> list[Job]:
    _check_mapping(raw, "config", ["subcommand", "base", "axes"], ["output"])
    sub = _as_choice(raw["subcommand"], "subcommand", ENSEMBLE_SUBCOMMANDS)
    if not isinstance(raw["base"], dict):
        _fail("base", "expected an object")
    axes = []
    for i, axis in enumerate(_as_list(raw["axes"], "axes")):
        apath = f"axes[{i}]"
        _check_mapping(axis, apath, ["path", "values"], [])
        if not isinstance(axis["path"], str) or not axis["path"]:
            _fail(f"{apath}.path", "expected a nonempty dotted path")
        axes.append((axis["path"], _as_list(axis["values"], f"{apath}.values")))
    jobs = []
    for combo in itertools.product(*(values for _, values in axes)):
        base = copy.deepcopy(raw["base"])
        for (path, _), value in zip(axes, combo):
            _apply_override(base, path, value)
        fmt, _ = _parse_output(base.get("output", {}), "output")
        jobs.append(Job(_combo_label(axes, combo), sub, base, SUBCOMMANDS[sub].parse(base, fmt)))
    return jobs


def _list_index(node: list, part: str, dotted: str) -> int:
    try:
        index = int(part)
        node[index]
    except (ValueError, IndexError):
        _fail(f"axes path {dotted!r}", f"segment {part!r} is not an index of a {len(node)}-entry list")
    return index


def _apply_override(cfg: dict, dotted: str, value):
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        if isinstance(node, list):
            node = node[_list_index(node, part, dotted)]
        elif isinstance(node, dict):
            if part not in node:
                _fail(f"axes path {dotted!r}", f"segment {part!r} not present in base config")
            node = node[part]
        else:
            _fail(f"axes path {dotted!r}", f"cannot descend into {type(node).__name__}")
    leaf = parts[-1]
    if isinstance(node, list):
        node[_list_index(node, leaf, dotted)] = value
    elif isinstance(node, dict):
        node[leaf] = value
    else:
        _fail(f"axes path {dotted!r}", "cannot assign")


def _combo_label(axes, combo) -> str:
    parts = []
    for (path, _), value in zip(axes, combo):
        stem = path.split(".")[-1]
        parts.append(f"{stem}={value}")
    return "__".join(parts).replace("/", "_").replace(" ", "")


@dataclass(frozen=True)
class Subcommand:
    """parse(raw, output_format) validates one config document; run(config, session, pool) runs it.

    phasematch and oracle write JSON in this process, so they ignore the
    format and the pool; sweep has no runner, its parser returns the jobs of
    the subcommand it sweeps.  Runners look up what they call (g2_trace,
    _write_csv, ...) as module globals at call time.
    """

    help: str
    parse: Callable
    run: Callable | None


SUBCOMMANDS = {
    "g2-trace": Subcommand(
        "correlation trace versus free-interval length",
        partial(_parse_trace_config, subcommand="g2-trace"),
        run_g2_trace,
    ),
    "cycles": Subcommand(
        "correlation after each cycle of a fixed schedule",
        partial(_parse_trace_config, subcommand="cycles"),
        run_cycles,
    ),
    "entangle": Subcommand("two-mode entanglement fidelity trace", _parse_entangle_config, run_entangle),
    "phasematch": Subcommand(
        "wavevector mismatch, period, off-axis zero geometry", _parse_phasematch_config, run_phasematch
    ),
    "oracle": Subcommand("pair-sum formula versus exact small-N correlator", _parse_oracle_config, run_oracle),
    "sweep": Subcommand("Cartesian parameter sweep over another subcommand", _parse_sweep_config, None),
}


def _plan(subcommand: str, raw: dict) -> tuple[str | None, list[Job]]:
    """The config's output dir and the run's jobs, every config parsed and validated."""
    fmt, out_dir = _parse_output(raw.get("output", {}), "output")
    entry = SUBCOMMANDS[subcommand]
    if entry.run is None:
        return out_dir, entry.parse(raw, fmt)
    return out_dir, [Job(None, subcommand, raw, entry.parse(raw, fmt))]


def _override_seed(raw: dict, subcommand: str, seed: int) -> None:
    """Write seed into the config; a non-object is left for the parser to reject."""
    if subcommand in ENSEMBLE_SUBCOMMANDS:
        ensemble = raw.setdefault("ensemble", {})
        if isinstance(ensemble, dict):
            ensemble["seed"] = seed
    elif subcommand == "oracle":
        raw["seed"] = seed
    elif subcommand == "sweep":
        base = raw.setdefault("base", {})
        if isinstance(base, dict):
            _override_seed(base, raw.get("subcommand", ""), seed)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ryddephase",
        description="Dephasing of dressed Rydberg pair excitations: correlation "
        "traces, cycle protocols, entanglement figures of merit, phase matching.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, entry in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=entry.help)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=None, help="worker process count")
        p.add_argument("--force", action="store_true", help="allow overwriting outputs")
    return parser


def _thread_count(flag: int | None) -> int:
    """--threads if given, else RYDDEPHASE_THREADS (default 1); at least 1."""
    threads, source = flag, "--threads"
    if flag is None:
        raw, source = os.environ.get(THREADS_ENV, "1"), THREADS_ENV
        try:
            threads = int(raw)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV}: expected an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError(f"{source}: expected an integer >= 1, got {threads}")
    return threads


def _run(jobs: list[Job], session: OutputSession, pool) -> None:
    for job in jobs:
        target = session if job.label is None else session.sub_session(job.label, job.subcommand, job.raw)
        SUBCOMMANDS[job.subcommand].run(job.config, target, pool)
        if target is not session:
            session.outputs += [*target.outputs, target.finish()]
            session.seeds += target.seeds


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        threads = _thread_count(args.threads)
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        raw = _decode(text, f" in {args.config}")
        if args.seed is not None:
            _override_seed(raw, args.subcommand, args.seed)
        out_dir, jobs = _plan(args.subcommand, raw)
        if args.out is not None:
            out_dir = args.out
        session = OutputSession(Path("out" if out_dir is None else out_dir), args.subcommand, raw, args.force)
        # phasematch and oracle configs run no realizations
        pool = _make_pool(threads, max(getattr(job.config, "realizations", 1) for job in jobs))
        try:
            _run(jobs, session, pool)
            manifest = session.finish()
            session.commit()
        finally:
            if pool is not None:
                pool.shutdown()
            session.discard()
        print(f"wrote {len(session.outputs)} output file(s); manifest: {manifest}")
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
