"""Benchmark workloads: CLI configs generated from a seed, and their work counts.

Every workload is one `ryddephase` CLI invocation, repeated in a closed loop
(one invocation at a time, driven from one process).  The seed chooses the
ensemble seed of the generated config; the workload shape never changes.

Seeds map onto a pool of POOL_SIZE ensemble seeds (seed mod POOL_SIZE), so
that every input the benchmark can generate has reference outputs recorded
in `reference/<workload>.json` (see record.py).
"""

from dataclasses import dataclass
from typing import Callable

POOL_SIZE = 12
DEFAULT_SEED = 1
HELDOUT_SEED = 11  # later performance claims must also hold on this seed

_MODEL = {"model": {"reference_c3": 26000.0, "reference_n": 60, "scaling_exponent": 4.0}}


def ensemble_seed(seed: int) -> int:
    """Ensemble seed of pool entry seed mod POOL_SIZE (a fixed 64-bit mix)."""
    index = seed % POOL_SIZE
    return (0x9E3779B97F4A7C15 * (index + 1) + 0x2545F4914F6CDD1D) % 2**64


def _cycle(p_n, p_j, pulse_model, s_n=100):
    return {
        "s_n": s_n,
        "p_n": p_n,
        "p_j": p_j,
        "delta_t_us": 1.0,
        "rabi_rad_per_us": 10.0,
        "polarization": "pi",
        "pulse_model": pulse_model,
    }


def _ensemble(n_atoms, seed):
    return {"n_atoms": n_atoms, "box_side_um": 60.0, "seed": ensemble_seed(seed)}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: CLI subcommand, worker count, config builder."""

    name: str
    subcommand: str
    threads: int
    config: Callable[[int], dict]  # seed -> CLI config
    outputs: tuple  # data files one invocation writes

    def cli_args(self, config_path, out_dir, threads=None) -> list:
        return [
            self.subcommand,
            "--config", str(config_path),
            "--out", str(out_dir),
            "--threads", str(self.threads if threads is None else threads),
            "--force",
        ]


def pair_points(subcommand: str, cfg: dict) -> int:
    """Pair amplitudes (or pair phase terms) one invocation evaluates and reduces.

    realizations x variants x pairs x time points x cycles; entangle counts
    its two modes in place of cycles.
    """
    n = cfg["ensemble"]["n_atoms"]
    pairs = n * (n - 1) // 2
    realizations = cfg["realizations"]
    if subcommand == "entangle":
        return realizations * pairs * cfg["grid"]["points"] * 2
    cycles = len(cfg["schedule"]["cycles"])
    if subcommand == "cycles":
        return realizations * pairs * cycles
    variants = len(cfg.get("scan_n", [None]))
    return realizations * variants * pairs * cfg["grid"]["points"] * cycles


def _trace_analytic(seed):
    return {
        "ensemble": _ensemble(300, seed),
        "interaction": _MODEL,
        "schedule": {"cycles": [_cycle(60, 0.5, "instantaneous", s_n=60)]},
        "scan_n": [60, 79, 100],
        "mode": "analytic",
        "grid": {"start_us": 0.02, "stop_us": 60.0, "points": 120, "spacing": "log"},
        "realizations": 1,
        "output": {"format": "csv"},
    }


def _trace_multichannel(seed):
    return {
        "ensemble": _ensemble(100, seed),
        "interaction": _MODEL,
        "schedule": {
            "cycles": [_cycle(100, 0.5, "instantaneous"), _cycle(100, 1.5, "instantaneous")]
        },
        "mode": "multichannel",
        "grid": {"start_us": 0.1, "stop_us": 30.0, "points": 24, "spacing": "log"},
        "realizations": 2,
        "output": {"format": "json"},
    }


def _cycles_finite(seed):
    return {
        "ensemble": _ensemble(60, seed),
        "interaction": _MODEL,
        "schedule": {
            "cycles": [
                _cycle(p_n, p_j, "finite_duration") for p_j in (0.5, 1.5) for p_n in (100, 99)
            ]
        },
        "mode": "multichannel",
        "realizations": 2,
        "output": {"format": "csv"},
    }


def _entangle(seed):
    return {
        "ensemble": _ensemble(100, seed),
        "entangle": {"n": 99, "c3_prime": 200000.0, "c3_second": 160000.0},
        "grid": {"start_us": 0.0, "stop_us": 5.0, "points": 51},
        "realizations": 10,
        "output": {"format": "csv"},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "trace-analytic", "g2-trace", 1, _trace_analytic,
            ("g2_trace_n60.csv", "g2_trace_n79.csv", "g2_trace_n100.csv"),
        ),
        Workload("trace-multichannel", "g2-trace", 1, _trace_multichannel, ("g2_trace.json",)),
        Workload("cycles-finite-2w", "cycles", 2, _cycles_finite, ("cycles.csv",)),
        Workload("entangle", "entangle", 1, _entangle, ("entangle.csv",)),
    )
}
