"""Command line entry point: config parsing, run orchestration, output emission.

Configs are JSON with a strict schema (unknown keys are rejected, errors name
the offending field path).  Every run writes its data files plus a manifest
recording the config hash, the derived per-realization seeds, the package
version and the wall-clock duration; re-running the same config and seed
reproduces the data files byte for byte, regardless of the thread count.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
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

    raw: dict
    ensemble: EnsembleSpec
    schedule: CycleSchedule
    scan_n: tuple | None
    mode: str
    grid: np.ndarray | None
    realizations: int
    output_format: str
    reference_tau: float | None = None
    _interaction: tuple = (None, {})

    def schedule_for_n(self, n: int) -> CycleSchedule:
        model, table = self._interaction
        return _parse_schedule(
            self.raw["schedule"], "schedule", model, table, n_override=n
        )


def parse_config(text: str, subcommand: str = "g2-trace") -> RunConfig:
    """Parse and validate a g2-trace or cycles configuration document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return _materialize_trace_config(raw, subcommand)


def _materialize_trace_config(raw, subcommand) -> RunConfig:
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
    scan_n = None
    if "scan_n" in raw:
        values = _as_list(raw["scan_n"], "scan_n")
        scan_n = tuple(_as_int(v, f"scan_n[{i}]", minimum=1) for i, v in enumerate(values))
        for i, n in enumerate(scan_n):
            if n in scan_n[:i]:
                _fail(f"scan_n[{i}]", f"duplicate value {n}")
            _parse_schedule(raw["schedule"], "schedule", model, table, n_override=n)
    mode = _as_choice(raw.get("mode", "analytic"), "mode", ("analytic", "multichannel"))
    realizations = _as_int(raw.get("realizations", 100), "realizations", minimum=1)
    fmt, _ = _parse_output(raw.get("output", {}), "output")
    grid = _parse_grid(raw["grid"], "grid") if subcommand == "g2-trace" else None
    tau = None
    if subcommand == "cycles" and "reference_tau_us" in raw:
        tau = _as_float(raw["reference_tau_us"], "reference_tau_us", strict_min=0.0)
    return RunConfig(
        raw=raw,
        ensemble=ensemble,
        schedule=schedule,
        scan_n=scan_n,
        mode=mode,
        grid=grid,
        realizations=realizations,
        output_format=fmt,
        reference_tau=tau,
        _interaction=(model, table),
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
            "outputs": [
                {"path": str(p.relative_to(self.out_dir)), "sha256": _file_sha256(self._staged[p])}
                for p in self.outputs
            ],
        }
        _write_json(self._stage(manifest_path), manifest)
        return manifest_path

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
# subcommand runners
# ---------------------------------------------------------------------------

TRACE_HEADER = ["t_us", "g2_mean", "g2_stderr", "f_mean", "h_mean", "n_realizations"]


def run_g2_trace(cfg: RunConfig, session: OutputSession, threads: int) -> None:
    pool = _make_pool(threads, cfg.realizations)
    try:
        variants = [(None, cfg.schedule)]
        if cfg.scan_n:
            variants = [(n, cfg.schedule_for_n(n)) for n in cfg.scan_n]
        for n, schedule in variants:
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
            if cfg.output_format == "csv":
                _write_csv(session.claim(f"{stem}.csv"), TRACE_HEADER, _trace_rows(trace))
            else:
                _write_json(session.claim(f"{stem}.json"), _trace_json(trace))
    finally:
        if pool is not None:
            pool.shutdown()


def run_cycles(cfg: RunConfig, session: OutputSession, threads: int) -> None:
    pool = _make_pool(threads, cfg.realizations)
    try:
        trace = g2_after_cycles(
            cfg.ensemble,
            cfg.schedule,
            mode=cfg.mode,
            realizations=cfg.realizations,
            pool=pool,
        )
    finally:
        if pool is not None:
            pool.shutdown()
    session.seeds = list(trace.seeds)
    tau = cfg.reference_tau
    if tau is None:
        tau = cfg.schedule.total_time / len(cfg.schedule)
    n = cfg.ensemble.n_atoms
    flat = g2_from_amplitudes(np.ones(n * (n - 1) // 2), n)
    header = ["cycle", "t_us", "g2_mean", "g2_stderr", "f_mean", "h_mean", "reference"]
    rows = [["0", _fmt(0.0), _fmt(flat.g2), _fmt(0.0), _fmt(flat.f), _fmt(flat.h), _fmt(1.0)]]
    for q, t in enumerate(trace.grid, start=1):
        rows.append(
            [
                str(q),
                _fmt(t),
                _fmt(trace.g2_mean[q - 1]),
                _fmt(trace.g2_stderr[q - 1]),
                _fmt(trace.f_mean[q - 1]),
                _fmt(trace.h_mean[q - 1]),
                _fmt(decay_reference(tau, float(t))),
            ]
        )
    if cfg.output_format == "csv":
        _write_csv(session.claim("cycles.csv"), header, rows)
    else:
        payload = _trace_json(trace)
        payload["reference_tau_us"] = tau
        payload["reference"] = [float(decay_reference(tau, float(t))) for t in trace.grid]
        payload["g2_flat"] = flat.g2
        _write_json(session.claim("cycles.json"), payload)


def _parse_entangle_config(raw) -> dict:
    _check_mapping(
        raw, "config", ["ensemble", "entangle", "grid"], ["realizations", "output"]
    )
    ensemble = _parse_ensemble(raw["ensemble"], "ensemble")
    epath = "entangle"
    _check_mapping(raw["entangle"], epath, ["n", "c3_prime", "c3_second"], [])
    ent = {
        # n only labels the levels; the trace depends on c3_prime and c3_second
        "n": _as_int(raw["entangle"]["n"], f"{epath}.n", minimum=1),
        "c3_prime": _as_float(raw["entangle"]["c3_prime"], f"{epath}.c3_prime", strict_min=0.0),
        "c3_second": _as_float(raw["entangle"]["c3_second"], f"{epath}.c3_second", strict_min=0.0),
    }
    grid = _parse_grid(raw["grid"], "grid")
    realizations = _as_int(raw.get("realizations", 100), "realizations", minimum=1)
    fmt, _ = _parse_output(raw.get("output", {}), "output")
    return {
        "ensemble": ensemble,
        "entangle": ent,
        "grid": grid,
        "realizations": realizations,
        "format": fmt,
    }


def run_entangle(parsed: dict, session: OutputSession, threads: int) -> None:
    ent = parsed["entangle"]
    pool = _make_pool(threads, parsed["realizations"])
    try:
        grid, f, m1, m2 = entangle_trace(
            parsed["ensemble"],
            ent["c3_prime"],
            ent["c3_second"],
            parsed["grid"],
            realizations=parsed["realizations"],
            pool=pool,
        )
    finally:
        if pool is not None:
            pool.shutdown()
    session.seeds = [
        realization_seed(parsed["ensemble"].seed, r) for r in range(parsed["realizations"])
    ]
    header = ["t_us", "F", "abs_m1", "abs_m2"]
    rows = (
        [_fmt(t), _fmt(f[i]), _fmt(m1[i]), _fmt(m2[i])] for i, t in enumerate(grid)
    )
    if parsed["format"] == "csv":
        _write_csv(session.claim("entangle.csv"), header, rows)
    else:
        _write_json(
            session.claim("entangle.json"),
            {
                "t_us": [float(t) for t in grid],
                "F": [float(x) for x in f],
                "abs_m1": [float(x) for x in m1],
                "abs_m2": [float(x) for x in m2],
            },
        )


def _parse_phasematch_config(raw) -> dict:
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


def run_phasematch(parsed: dict, session: OutputSession) -> None:
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


def _parse_oracle_config(raw) -> dict:
    _check_mapping(raw, "config", ["seed"], ["n_atoms", "draws", "amplitude", "box_side_um", "output"])
    return {
        "n_atoms": _as_int(raw.get("n_atoms", 8), "n_atoms", minimum=2, maximum=10),
        "draws": _as_int(raw.get("draws", 100), "draws", minimum=1),
        "seed": _as_int(raw["seed"], "seed", minimum=0, maximum=2**64 - 1),
        "amplitude": _as_choice(raw.get("amplitude", "random"), "amplitude", ("random", "ones")),
        "box_side": _as_float(raw.get("box_side_um", 60.0), "box_side_um", strict_min=0.0),
    }


def run_oracle(parsed: dict, session: OutputSession) -> None:
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


def _parse_sweep_config(raw) -> dict:
    _check_mapping(raw, "config", ["subcommand", "base", "axes"], ["output"])
    sub = _as_choice(raw["subcommand"], "subcommand", ("g2-trace", "cycles", "entangle"))
    if not isinstance(raw["base"], dict):
        _fail("base", "expected an object")
    axes = []
    for i, axis in enumerate(_as_list(raw["axes"], "axes")):
        apath = f"axes[{i}]"
        _check_mapping(axis, apath, ["path", "values"], [])
        if not isinstance(axis["path"], str) or not axis["path"]:
            _fail(f"{apath}.path", "expected a nonempty dotted path")
        axes.append((axis["path"], _as_list(axis["values"], f"{apath}.values")))
    return {"subcommand": sub, "base": raw["base"], "axes": axes}


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


def run_sweep(parsed: dict, session: OutputSession, threads: int) -> None:
    import copy
    import itertools

    axes = parsed["axes"]
    value_lists = [values for _, values in axes]
    for combo in itertools.product(*value_lists):
        base = copy.deepcopy(parsed["base"])
        for (path, _), value in zip(axes, combo):
            _apply_override(base, path, value)
        label = _combo_label(axes, combo)
        sub_session = session.sub_session(label, parsed["subcommand"], base)
        _dispatch_config(parsed["subcommand"], base, sub_session, threads)
        manifest = sub_session.finish()
        session.outputs.extend(sub_session.outputs)
        session.outputs.append(manifest)
        session.seeds.extend(sub_session.seeds)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _dispatch_config(subcommand: str, raw: dict, session: OutputSession, threads: int) -> None:
    if subcommand == "g2-trace":
        run_g2_trace(_materialize_trace_config(raw, "g2-trace"), session, threads)
    elif subcommand == "cycles":
        run_cycles(_materialize_trace_config(raw, "cycles"), session, threads)
    elif subcommand == "entangle":
        run_entangle(_parse_entangle_config(raw), session, threads)
    elif subcommand == "phasematch":
        run_phasematch(_parse_phasematch_config(raw), session)
    elif subcommand == "oracle":
        run_oracle(_parse_oracle_config(raw), session)
    else:
        raise ConfigError(f"unknown subcommand {subcommand!r}")


def _override_seed(raw: dict, subcommand: str, seed: int) -> None:
    if subcommand in ("g2-trace", "cycles", "entangle"):
        raw.setdefault("ensemble", {})["seed"] = seed
    elif subcommand == "oracle":
        raw["seed"] = seed
    elif subcommand == "sweep":
        _override_seed(raw.setdefault("base", {}), raw.get("subcommand", ""), seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ryddephase",
        description="Dephasing of dressed Rydberg pair excitations: correlation "
        "traces, cycle protocols, entanglement figures of merit, phase matching.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, desc in [
        ("g2-trace", "correlation trace versus free-interval length"),
        ("cycles", "correlation after each cycle of a fixed schedule"),
        ("entangle", "two-mode entanglement fidelity trace"),
        ("phasematch", "wavevector mismatch, period, off-axis zero geometry"),
        ("oracle", "pair-sum formula versus exact small-N correlator"),
        ("sweep", "Cartesian parameter sweep over another subcommand"),
    ]:
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=None, help="worker process count")
        p.add_argument("--force", action="store_true", help="allow overwriting outputs")
    return parser


def _positive_threads(threads: int, source: str) -> int:
    if threads < 1:
        raise ConfigError(f"{source}: expected an integer >= 1, got {threads}")
    return threads


def _env_threads() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV}: expected an integer, got {raw!r}") from None
    return _positive_threads(threads, THREADS_ENV)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads is None:
            threads = _env_threads()
        else:
            threads = _positive_threads(args.threads, "--threads")
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be a JSON object")
        if args.seed is not None:
            _override_seed(raw, args.subcommand, args.seed)
        _, out_dir = _parse_output(raw.get("output", {}), "output")
        if args.out is not None:
            out_dir = args.out
        if out_dir is None:
            out_dir = "out"
        session = OutputSession(Path(out_dir), args.subcommand, raw, args.force)
        try:
            if args.subcommand == "sweep":
                run_sweep(_parse_sweep_config(raw), session, threads)
            else:
                _dispatch_config(args.subcommand, raw, session, threads)
            manifest = session.finish()
            session.commit()
        finally:
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
