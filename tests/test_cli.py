import importlib
import itertools
import json
import math
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ryddephase import cli
from ryddephase.atomdata import InteractionModel, MicrowaveSpec, RydbergChannel, c3_of, p_level_j
from ryddephase.cli import ConfigError, main, parse_config
from ryddephase.correlation import exact_g2, realization_seed
from ryddephase.ensemble import EnsembleSpec, sample_positions
from ryddephase.pairdyn import CycleSpec, analytic_pair_amplitudes
from ryddephase.phasematch import EPS_K, Beam, motional_coherence_time, spinwave_period
from ryddephase.protocol import make_schedule

from reference import g2_from_amplitudes, g2_from_condensed, random_pair_matrix, round_robin_pairs
from statevector import brute_force_g2

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MODEL = {"reference_c3": 2.6e4, "reference_n": 60}

MINIMAL = {
    "ensemble": {"n_atoms": 20, "box_side_um": 60.0, "seed": 7},
    "schedule": {
        "cycles": [
            {"s_n": 100, "p_n": 100, "p_j": 0.5, "delta_t_us": 1.0, "c3": 2.0e5}
        ]
    },
    "grid": {"start_us": 0.0, "stop_us": 2.0, "points": 5},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def first_cycle(cfg):
    return cfg.schedules["g2_trace"][0]


def test_minimal_config_fills_defaults():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.ensemble.min_separation == 0.1
    assert cfg.realizations == 100
    assert cfg.mode == "analytic"
    assert cfg.output_format == "csv"
    cyc = first_cycle(cfg)
    assert cyc.microwave.rabi == 10.0
    assert cyc.microwave.polarization == "pi"
    assert cyc.microwave.pulse_model == "instantaneous"
    assert cyc.channel.c3 == 2.0e5


MODEL_MINIMAL = dict(
    MINIMAL,
    interaction={"model": {"reference_c3": 2.6e4, "reference_n": 60}},
    schedule={"cycles": [{"s_n": 120, "p_n": 120, "p_j": 0.5, "delta_t_us": 1.0}]},
)


@pytest.mark.parametrize(
    "cls, field, value, parsed",
    [
        (EnsembleSpec, "min_separation", 0.25, lambda cfg: cfg.ensemble.min_separation),
        (InteractionModel, "scaling_exponent", 3.0, lambda cfg: math.log2(first_cycle(cfg).channel.c3 / 2.6e4)),
        (MicrowaveSpec, "polarization", "sigma_minus", lambda cfg: first_cycle(cfg).microwave.polarization),
        (MicrowaveSpec, "pulse_model", "finite_duration", lambda cfg: first_cycle(cfg).microwave.pulse_model),
        (MicrowaveSpec, "rabi", 7.0, lambda cfg: first_cycle(cfg).microwave.rabi),
    ],
    ids=["min_separation_um", "scaling_exponent", "polarization", "pulse_model", "rabi_rad_per_us"],
)
def test_config_defaults_are_the_library_defaults(monkeypatch, cls, field, value, parsed):
    # a key the config leaves out takes the library type's default, which has no second home in the CLI
    monkeypatch.setattr(cls, field, value)
    assert parsed(parse_config(json.dumps(MODEL_MINIMAL))) == value


def test_unknown_keys_rejected_with_path():
    bad = dict(MINIMAL)
    bad["extra_knob"] = 1
    with pytest.raises(ConfigError, match="config.extra_knob"):
        parse_config(json.dumps(bad))
    bad = json.loads(json.dumps(MINIMAL))
    bad["ensemble"]["typo"] = 2
    with pytest.raises(ConfigError, match="ensemble.typo"):
        parse_config(json.dumps(bad))


def test_invalid_json_rejected():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{not json")


def test_duplicate_p_level_rejected_with_cycle_indices():
    bad = json.loads(json.dumps(MINIMAL))
    bad["schedule"]["cycles"].append(dict(bad["schedule"]["cycles"][0]))
    with pytest.raises(ConfigError, match="cycles 0 and 1"):
        parse_config(json.dumps(bad))


def test_p_level_within_half_integer_tolerance_is_not_fresh():
    bad = json.loads(json.dumps(MINIMAL))
    cycle = bad["schedule"]["cycles"][0]
    bad["schedule"]["cycles"] = [{**cycle, "p_j": 1.5}, {**cycle, "p_j": 1.5000000001}]
    with pytest.raises(ConfigError, match=r"schedule: cycles 0 and 1 reuse"):
        parse_config(json.dumps(bad))


def test_unresolvable_channel_rejected():
    bad = json.loads(json.dumps(MINIMAL))
    del bad["schedule"]["cycles"][0]["c3"]
    with pytest.raises(ConfigError, match="no C3"):
        parse_config(json.dumps(bad))


def test_c3_resolution_order_table_beats_model():
    cfg = json.loads(json.dumps(MINIMAL))
    del cfg["schedule"]["cycles"][0]["c3"]
    cfg["interaction"] = {
        "model": {"reference_c3": 1.0e4, "reference_n": 60},
        "table": [{"s_n": 100, "p_n": 100, "p_j": 0.5, "c3": 3.3e5}],
    }
    parsed = parse_config(json.dumps(cfg))
    assert first_cycle(parsed).channel.c3 == 3.3e5


@pytest.mark.parametrize("with_model", [False, True])
def test_c3_table_is_looked_up_by_the_snapped_p_j(with_model):
    cfg = json.loads(json.dumps(MINIMAL))
    cycle = cfg["schedule"]["cycles"][0]
    del cycle["c3"]
    cycle["p_j"] = 1.5000000001
    cfg["interaction"] = {"table": [{"s_n": 100, "p_n": 100, "p_j": 1.5, "c3": 3.3e5}]}
    if with_model:
        cfg["interaction"]["model"] = {"reference_c3": 2.6e4, "reference_n": 60}
    cfg["scan_n"] = [100]
    (cycle,) = parse_config(json.dumps(cfg)).schedules["g2_trace_n100"]
    assert cycle.channel.p_key == (100, 1.5)
    assert cycle.channel.c3 == 3.3e5


def test_c3_table_row_repeating_a_snapped_channel_is_rejected():
    cfg = json.loads(json.dumps(MINIMAL))
    row = {"s_n": 100, "p_n": 100, "p_j": 1.5, "c3": 3.3e5}
    cfg["interaction"] = {"table": [row, {**row, "p_j": 1.5000000001, "c3": 1.0e5}]}
    with pytest.raises(ConfigError, match=r"^interaction\.table\[1\]: repeats the channel 100s - 100p_1\.5"):
        parse_config(json.dumps(cfg))


def test_c3_table_row_with_unsupported_p_j_is_rejected():
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["interaction"] = {"table": [{"s_n": 100, "p_n": 100, "p_j": 2.5, "c3": 3.3e5}]}
    with pytest.raises(ConfigError, match=r"^interaction\.table\[0\]\.p_j: p levels carry j = 1/2 or 3/2"):
        parse_config(json.dumps(cfg))


def test_shipped_fig2_config_echoes_expected_parameters():
    cfg = parse_config((CONFIG_DIR / "fig2.json").read_text())
    assert cfg.ensemble.n_atoms == 100
    assert cfg.ensemble.box_side == 60.0
    assert tuple(cfg.schedules) == ("g2_trace_n60", "g2_trace_n79", "g2_trace_n100")
    assert cfg.mode == "analytic"
    # scaling model: c3(100)/c3(60) = (100/60)^4
    s60 = cfg.schedules["g2_trace_n60"][0].channel.c3
    s100 = cfg.schedules["g2_trace_n100"][0].channel.c3
    assert s100 / s60 == pytest.approx((100.0 / 60.0) ** 4, rel=1e-12)


def test_shipped_cycles_config_is_four_distinct_channels():
    text = (CONFIG_DIR / "cycles.json").read_text()
    schedule = parse_config(text, subcommand="cycles").schedules["cycles"]
    keys = [c.channel.p_key for c in schedule]
    assert keys == [(100, 0.5), (99, 0.5), (100, 1.5), (99, 1.5)]
    assert all(c.delta_t == 1.0 for c in schedule)
    assert all(c.microwave.rabi == 10.0 for c in schedule)
    assert sum(c.duration for c in schedule) == pytest.approx(4.0 * (1.0 + 0.2 * math.pi))


def test_duplicate_scan_n_rejected_with_index():
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["interaction"] = {"model": {"reference_c3": 2.6e4, "reference_n": 60}}
    cfg["scan_n"] = [60, 79, 60]
    with pytest.raises(ConfigError, match=r"scan_n\[2\]: duplicate value 60"):
        parse_config(json.dumps(cfg))


def test_unsupported_p_level_is_a_config_error(tmp_path, capsys):
    # at the field, as in a table row, with or without scan_n
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["schedule"]["cycles"][0]["p_j"] = 2.5
    scan = dict(MODEL_MINIMAL, schedule={"cycles": [dict(MODEL_MINIMAL["schedule"]["cycles"][0], p_j=2.5)]})
    for payload in (cfg, dict(scan, scan_n=[60, 100])):
        path = write_config(tmp_path, payload)
        assert main(["g2-trace", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "config error: schedule.cycles[0].p_j: p levels carry j = 1/2 or 3/2\n"
        assert not (tmp_path / "out").exists()


# sigma_plus out of the populated m = +1/2 targets m = 3/2, which p_1/2 lacks
FORBIDDEN_DRIVE = "populated transition m=0.5 -> m=1.5 is forbidden for polarization 'sigma_plus' and j=0.5"


@pytest.mark.parametrize("mode", ["analytic", "multichannel"])
def test_forbidden_drive_is_a_config_error_in_every_mode(tmp_path, capsys, mode):
    raw = json.loads((CONFIG_DIR / "multichannel.json").read_text())
    raw["mode"] = mode
    raw["schedule"]["cycles"][0]["polarization"] = "sigma_plus"
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["g2-trace", "--config", str(path), "--out", str(out), "--threads", "2"]) == 1
    assert f"config error: schedule.cycles[0]: {FORBIDDEN_DRIVE}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_names_the_combination_with_a_forbidden_drive(tmp_path, capsys):
    base = json.loads(json.dumps(MINIMAL))
    base["realizations"] = 2
    axis = {"path": "schedule.cycles.0.polarization", "values": ["pi", "sigma_plus"]}
    path = write_config(tmp_path, {"subcommand": "g2-trace", "base": base, "axes": [axis]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: base.schedule.cycles[0]: {FORBIDDEN_DRIVE} (combination polarization=sigma_plus)" in err
    assert not any(p.is_file() for p in out.rglob("*"))


def test_log_grid_requires_positive_start():
    bad = json.loads(json.dumps(MINIMAL))
    bad["grid"] = {"start_us": 0.0, "stop_us": 2.0, "points": 5, "spacing": "log"}
    with pytest.raises(ConfigError, match="start_us"):
        parse_config(json.dumps(bad))
    # one point is start_us whatever the spacing; numpy's geomspace rejects a stop_us of 0
    bad["grid"] = {"start_us": 1.5, "stop_us": 0.0, "points": 1, "spacing": "log"}
    assert parse_config(json.dumps(bad)).grid.tolist() == [1.5]


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------


def test_g2_trace_run_writes_csv_and_manifest(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["realizations"] = 3
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["g2-trace", "--config", str(path), "--out", str(out)]) == 0
    csv_path = out / "g2_trace.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t_us,g2_mean,g2_stderr,f_mean,h_mean,n_realizations"
    assert len(lines) == 6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "g2-trace"
    assert len(manifest["seeds"]) == 3
    assert manifest["outputs"][0]["path"] == "g2_trace.csv"
    assert len(manifest["config_sha256"]) == 64


def test_rerun_is_byte_identical_and_respects_force(tmp_path, capsys):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["realizations"] = 2
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["g2-trace", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["g2-trace", "--config", str(path), "--out", str(out2)]) == 0
    assert (out1 / "g2_trace.csv").read_bytes() == (out2 / "g2_trace.csv").read_bytes()
    # refuse silent overwrite, also of a data file with no manifest beside it, then allow with --force
    assert main(["g2-trace", "--config", str(path), "--out", str(out1)]) == 1
    (out1 / "manifest.json").unlink()
    assert main(["g2-trace", "--config", str(path), "--out", str(out1)]) == 1
    assert f"refusing to overwrite {out1 / 'g2_trace.csv'}; pass --force" in capsys.readouterr().err
    assert main(["g2-trace", "--config", str(path), "--out", str(out1), "--force"]) == 0


def test_threaded_run_matches_serial(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["realizations"] = 4
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert main(["g2-trace", "--config", str(path), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["g2-trace", "--config", str(path), "--out", str(out2), "--threads", "3"]) == 0
    assert (out1 / "g2_trace.csv").read_bytes() == (out2 / "g2_trace.csv").read_bytes()


@pytest.mark.parametrize("spelling", ["--threads", "--threads="])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_thread_count_below_one_is_a_config_error(tmp_path, capsys, spelling, value):
    # argparse takes a separate "-2" as the flag's value only while no option looks like a negative number
    flag = [spelling + value] if spelling.endswith("=") else [spelling, value]
    path = write_config(tmp_path, MINIMAL)
    assert main(["g2-trace", "--config", str(path), "--out", str(tmp_path / "o"), *flag]) == 1
    err = capsys.readouterr().err
    assert f"config error: --threads: expected an integer >= 1, got {value}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("subcommand", sorted(cli.SUBCOMMANDS))
def test_every_subcommand_parses_with_the_shared_flags(subcommand):
    argv = [subcommand, "--config", "c.json", "--out", "o", "--seed", "3", "--threads", "2", "--force"]
    assert vars(cli.build_parser().parse_args(argv)) == {
        "subcommand": subcommand,
        "config": "c.json",
        "out": "o",
        "seed": 3,
        "threads": 2,
        "force": True,
    }
    defaults = vars(cli.build_parser().parse_args([subcommand, "--config", "c.json"]))
    assert defaults == {"subcommand": subcommand, "config": "c.json", "out": "out", "seed": None, "threads": 1, "force": False}


def test_an_unknown_subcommand_exits_2(capsys):
    for name in ("g2trace", "oracle"):
        with pytest.raises(SystemExit) as exc:
            main([name, "--config", "c.json"])
        assert exc.value.code == 2
        assert f"invalid choice: '{name}'" in capsys.readouterr().err


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    if hasattr(cli.os, "sched_getaffinity"):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3})
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert cli._usable_cpus() == 2
        monkeypatch.delattr(cli.os, "sched_getaffinity")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli._usable_cpus() == 4
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


def test_pool_starts_only_the_clamped_worker_count(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda max_workers: max_workers)
    # (usable CPUs, --threads, realizations) -> workers: never more than realizations or CPUs, and no pool for one
    cases = [(4, 500, 1, None), (4, 500, 3, 3), (4, 500, 100, 4), (4, 2, 100, 2), (1, 8, 8, None)]
    for cpus, threads, realizations, workers in cases:
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert cli._make_pool(threads, realizations) == workers


def test_cycles_threaded_run_matches_serial(tmp_path):
    cfg = {
        "ensemble": {"n_atoms": 12, "box_side_um": 60.0, "seed": 5},
        "schedule": {
            "cycles": [
                {"s_n": 100, "p_n": 100, "p_j": 0.5, "delta_t_us": 1.0, "c3": 2.0e5},
                {"s_n": 100, "p_n": 99, "p_j": 0.5, "delta_t_us": 0.5, "c3": 1.9e5},
            ]
        },
        "realizations": 2,
    }
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert main(["cycles", "--config", str(path), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["cycles", "--config", str(path), "--out", str(out2), "--threads", "2"]) == 0
    assert (out1 / "cycles.csv").read_bytes() == (out2 / "cycles.csv").read_bytes()


def test_seed_override_changes_data(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["realizations"] = 2
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["g2-trace", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["g2-trace", "--config", str(path), "--out", str(out2), "--seed", "12345"]) == 0
    assert (out1 / "g2_trace.csv").read_bytes() != (out2 / "g2_trace.csv").read_bytes()
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["config"]["ensemble"]["seed"] == 12345


@pytest.mark.parametrize("seed", ["1", "2"])
def test_seed_override_of_phasematch_is_a_config_error(tmp_path, capsys, seed):
    # phase matching samples nothing, so a seed it ignored would look like a reproduced run
    out = tmp_path / "out"
    assert main(["phasematch", "--config", str(CONFIG_DIR / "twophoton.json"), "--out", str(out), "--seed", seed]) == 1
    assert "config error: --seed: phasematch has no seed" in capsys.readouterr().err
    assert not out.exists()


def test_scan_n_emits_one_trace_per_n(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["realizations"] = 2
    del cfg["schedule"]["cycles"][0]["c3"]
    cfg["interaction"] = {"model": {"reference_c3": 2.6e4, "reference_n": 60}}
    cfg["scan_n"] = [60, 100]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["g2-trace", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "g2_trace_n60.csv").exists()
    assert (out / "g2_trace_n100.csv").exists()


def test_scan_n_needs_no_c3_for_the_channel_it_replaces(tmp_path):
    # a table alone, with no row for the cycle's own 60s - 60p_1/2: scan_n replaces that channel before C3 is resolved
    table = [{"s_n": n, "p_n": n, "p_j": 0.5, "c3": c3} for n, c3 in ((79, 1.0e5), (100, 2.0e5))]
    cycles = [{"s_n": 60, "p_n": 60, "p_j": 0.5, "delta_t_us": 1.0}]
    cfg = dict(MINIMAL, realizations=2, interaction={"table": table}, schedule={"cycles": cycles}, scan_n=[79, 100])
    out = tmp_path / "out"
    assert main(["g2-trace", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["g2_trace_n100.csv", "g2_trace_n79.csv", "manifest.json"]


def test_scan_n_schedules_resolve_each_channel_from_the_table_then_the_model():
    # per n, the parsed schedule with s_n = p_n = n and C3 looked up again: the table row where
    # (n, n, p_j) has one, else the model at n; drive and free interval carry over unchanged
    table = [{"s_n": 79, "p_n": 79, "p_j": 1.5, "c3": 1.25e5}, {"s_n": 100, "p_n": 100, "p_j": 0.5, "c3": 2.1e5}]
    cycle = {"s_n": 90, "p_n": 90, "delta_t_us": 0.5, "rabi_rad_per_us": 12.0, "polarization": "sigma_minus"}
    raw = dict(
        MINIMAL,
        interaction={"model": MODEL, "table": table},
        schedule={"cycles": [dict(cycle, p_j=0.5), dict(cycle, p_j=1.5000000001, pulse_model="finite_duration")]},
        scan_n=[60, 79, 100],
    )
    cfg = parse_config(json.dumps(raw))
    model = InteractionModel(**MODEL)
    c3 = {(79, 1.5): 1.25e5, (100, 0.5): 2.1e5}
    assert list(cfg.schedules) == ["g2_trace_n60", "g2_trace_n79", "g2_trace_n100"]
    for n in raw["scan_n"]:
        expected = []
        for plain in raw["schedule"]["cycles"]:
            p_j = p_level_j(plain["p_j"])
            pulse_model = plain.get("pulse_model", MicrowaveSpec.pulse_model)
            drive = MicrowaveSpec(plain["rabi_rad_per_us"], plain["polarization"], pulse_model)
            channel = RydbergChannel(n, n, p_j, c3.get((n, p_j), c3_of(n, model)))
            expected.append(CycleSpec(channel, plain["delta_t_us"], drive))
        assert list(cfg.schedules[f"g2_trace_n{n}"]) == expected


def test_json_output_mirrors_csv_columns(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["realizations"] = 2
    cfg["output"] = {"format": "json"}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["g2-trace", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "g2_trace.json").read_text())
    for key in ("t_us", "g2_mean", "g2_stderr", "f_mean", "h_mean", "n_realizations"):
        assert key in payload
    assert np.array(payload["per_realization"]["g2"]).shape == (2, 5)


@pytest.mark.parametrize("case", ["config-not-utf-8", "out-is-a-file", "out-below-a-file"])
def test_unusable_paths_exit_1_without_a_traceback(tmp_path, capsys, case):
    path = write_config(tmp_path, MINIMAL)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    out = {"out-is-a-file": blocker, "out-below-a-file": blocker / "out"}.get(case, tmp_path / "out")
    if case == "config-not-utf-8":
        path.write_bytes(b"\xff\xfe" + json.dumps(MINIMAL).encode("utf-16-le"))
    assert main(["g2-trace", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    if case == "config-not-utf-8":
        assert "config error: cannot read config: 'utf-8' codec can't decode" in err
    else:
        assert f"config error: cannot write outputs to {out}: {blocker} is not a directory" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["blocker", "config.json"]
    assert blocker.read_text() == "not a directory"


def test_config_error_exit_code(tmp_path):
    path = write_config(tmp_path, {"ensemble": {}})
    assert main(["g2-trace", "--config", str(path)]) == 1
    assert main(["g2-trace", "--config", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize(
    "config_name, subcommand, dotted, value, field",
    [
        ("fig2.json", "g2-trace", "grid.stop_us", math.inf, "grid.stop_us"),
        ("cycles.json", "cycles", "schedule.cycles.0.delta_t_us", math.nan, "schedule.cycles[0].delta_t_us"),
        ("entangle.json", "entangle", "entangle.c3_prime", math.inf, "entangle.c3_prime"),
    ],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, config_name, subcommand, dotted, value, field):
    # json.loads reads NaN and Infinity; they must not reach the kernels
    raw = json.loads((CONFIG_DIR / config_name).read_text())
    cli._apply_override(raw, dotted, value)
    path = write_config(tmp_path, raw)  # json.dumps writes NaN / Infinity
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {field}: expected a finite number, got {value}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (
            json.dumps(MINIMAL).replace('"box_side_um": 60.0', '"box_side_um": ' + "9" * 401),
            "ensemble.box_side_um: expected a finite number, got an integer too large for a float",
        ),
        (
            json.dumps(MINIMAL).replace('"box_side_um": 60.0', '"box_side_um": ' + "9" * 5001),
            "invalid JSON in {path}: Exceeds the limit (4300 digits) for integer string conversion",
        ),
        (
            json.dumps(MINIMAL)[:-1] + ', "deep": ' + "[" * 100_000 + "]" * 100_000 + "}",
            "invalid JSON in {path}: maximum recursion depth exceeded",
        ),
    ],
    ids=["integer-beyond-float", "integer-beyond-the-digit-limit", "nested-100000-deep"],
)
def test_malformed_numbers_and_documents_are_config_errors(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["g2-trace", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {message.format(path=path)}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, key",
    [
        (json.dumps(dict(MINIMAL, realizations=2))[:-1] + ', "realizations": 3}', "realizations"),
        (json.dumps(MINIMAL).replace('"seed": 7', '"seed": 7, "seed": 8'), "seed"),
    ],
    ids=["top-level", "nested"],
)
def test_a_repeated_json_key_is_a_config_error(tmp_path, capsys, text, key):
    # json.loads keeps the last of two equal keys: the run would use, and the manifest record, only that one
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["g2-trace", "--config", str(path), "--out", str(out)]) == 1
    assert f"config error: invalid JSON in {path}: key {key!r} repeats in one object" in capsys.readouterr().err
    assert not out.exists()


ENTANGLE = {
    "ensemble": {"n_atoms": 12, "box_side_um": 60.0, "seed": 5},
    "entangle": {"n": 99, "c3_prime": 2.0e5, "c3_second": 1.6e5},
    "grid": {"start_us": 0.0, "stop_us": 1.0, "points": 2},
    "realizations": 2,
}
PHASEMATCH = {"beams": [{"wavelength_nm": 780.0, "sign": 1}, {"wavelength_nm": 480.0, "sign": 1}], "solve_offaxis": False}
SWEEP = {"subcommand": "g2-trace", "base": dict(MINIMAL, realizations=2), "axes": [{"path": "ensemble.n_atoms", "values": [10]}]}


@pytest.mark.parametrize(
    "subcommand, payload, message",
    [
        (
            "cycles",
            {"ensemble": MINIMAL["ensemble"], "schedule": MINIMAL["schedule"], "realizations": 2, "scan_n": [60, 100]},
            "config.scan_n: unknown key",
        ),
        ("phasematch", dict(PHASEMATCH, output={"format": "csv"}), "config.output: unknown key"),
        ("sweep", dict(SWEEP, output={"format": "json"}), "config.output: unknown key"),
        ("sweep", dict(SWEEP, base=dict(SWEEP["base"], output={"dir": "elsewhere"})), "base.output.dir: unknown key"),
        ("g2-trace", dict(MINIMAL, output={"format": "csv", "dir": "elsewhere"}), "output.dir: unknown key"),
        ("entangle", dict(ENTANGLE, output={"dir": "elsewhere"}), "output.dir: unknown key"),
        ("phasematch", dict(PHASEMATCH, output={"format": "json"}), "config.output: unknown key"),
        (
            "cycles",
            {"ensemble": MINIMAL["ensemble"], "schedule": MINIMAL["schedule"], "reference_tau_us": 5.0},
            "config.reference_tau_us: unknown key",
        ),
    ],
    ids=[
        "cycles-scan_n",
        "phasematch-csv",
        "sweep-format",
        "sweep-base-dir",
        "g2-trace-dir",
        "entangle-dir",
        "phasematch-json",
        "cycles-reference_tau_us",
    ],
)
def test_keys_a_subcommand_never_reads_are_rejected(tmp_path, monkeypatch, capsys, subcommand, payload, message):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, payload)
    assert main([subcommand, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.rglob("*")] == ["config.json"]


def _beam(**fields):
    return dict(PHASEMATCH, beams=[dict(PHASEMATCH["beams"][0], **fields), PHASEMATCH["beams"][1]])


@pytest.mark.parametrize(
    "subcommand, payload, message",
    [
        ("g2-trace", dict(MINIMAL, grid={"start_us": 2.0, "stop_us": 2.0, "points": 5}), "grid.stop_us: must exceed start_us"),
        ("phasematch", _beam(sign=2), "beams[0].sign: must be +1 or -1, got 2"),
        ("phasematch", _beam(direction=[0.0, 0.0, 1.0, 0.0]), "beams[0].direction: expected 3 components"),
        ("phasematch", _beam(direction=[0.0, 0.0, 0.0]), "beams[0].direction: zero vector"),
        # a component out of range, not a norm that overflows
        ("phasematch", _beam(direction=[1e200, 1e200, 0.0]), "beams[0].direction[0]: must be <= 1000000.0, got 1e+200"),
        ("sweep", dict(SWEEP, axes=[{"path": "", "values": [1]}]), "axes[0].path: expected a nonempty dotted path"),
        ("g2-trace", dict(MINIMAL, realizations=2.5), "realizations: expected an integer, got 2.5"),
        ("g2-trace", dict(MINIMAL, grid=dict(MINIMAL["grid"], stop_us="2")), "grid.stop_us: expected a number, got '2'"),
        ("phasematch", dict(PHASEMATCH, solve_offaxis="yes"), "solve_offaxis: expected true/false, got 'yes'"),
        ("sweep", dict(SWEEP, axes={"path": "realizations"}), "axes: expected a list, got dict"),
        ("g2-trace", dict(MINIMAL, schedule={"cycles": []}), "schedule.cycles: needs at least 1 entries"),
        ("g2-trace", dict(MINIMAL, ensemble=dict(MINIMAL["ensemble"], seed=2**64)), f"ensemble.seed: must be <= {2**64 - 1}"),
        ("g2-trace", [MINIMAL], "top-level config must be a JSON object"),
        ("g2-trace", dict(MINIMAL, schedule={"cycles": [5]}), "schedule.cycles[0]: expected an object, got int"),
        (
            "g2-trace",
            dict(MINIMAL, schedule={"cycles": ["cycle"]}, scan_n=[60], interaction={"model": MODEL}),
            "schedule.cycles[0]: expected an object, got str",
        ),
    ],
    ids=[
        "empty-grid",
        "beam-sign",
        "beam-direction-4",
        "beam-direction-zero",
        "beam-direction-overflow",
        "empty-axis-path",
        "integer",
        "number",
        "bool",
        "list",
        "list-length",
        "seed-above-64-bits",
        "top-level-array",
        "cycle-not-an-object",
        "scan_n-cycle-not-an-object",
    ],
)
def test_malformed_values_are_config_errors_with_their_path(tmp_path, capsys, subcommand, payload, message):
    path = write_config(tmp_path, payload)
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


HUGE = 10**400  # JSON reads it; float() and numpy's shapes cannot hold it
SCAN_MODEL = dict(MINIMAL, schedule={"cycles": [{"s_n": 100, "p_n": 100, "p_j": 0.5, "delta_t_us": 1.0}]})


@pytest.mark.parametrize(
    "subcommand, payload, field, high",
    [
        ("g2-trace", dict(MINIMAL, ensemble=dict(MINIMAL["ensemble"], n_atoms=HUGE)), "ensemble.n_atoms", cli.MAX_COUNT),
        ("g2-trace", dict(MINIMAL, ensemble=dict(MINIMAL["ensemble"], n_atoms=2**40)), "ensemble.n_atoms", cli.MAX_COUNT),
        ("g2-trace", dict(MINIMAL, grid=dict(MINIMAL["grid"], points=HUGE)), "grid.points", cli.MAX_COUNT),
        ("g2-trace", dict(MINIMAL, grid=dict(MINIMAL["grid"], points=2**62)), "grid.points", cli.MAX_COUNT),
        ("g2-trace", dict(SCAN_MODEL, scan_n=[HUGE], interaction={"model": MODEL}), "scan_n[0]", 500),  # a level
        ("g2-trace", dict(MINIMAL, realizations=HUGE), "realizations", cli.MAX_COUNT),
        ("entangle", dict(ENTANGLE, entangle=dict(ENTANGLE["entangle"], n=HUGE)), "entangle.n", 500),  # a level
    ],
    ids=["n_atoms-huge", "n_atoms-2^40", "points-huge", "points-2^62", "scan_n", "realizations", "entangle-n"],
)
def test_oversized_counts_are_config_errors(tmp_path, capsys, subcommand, payload, field, high):
    message = f"{field}: must be <= {high}, got "
    # planning first: without the bound, some of these runs would hang or exhaust memory
    with pytest.raises(ConfigError) as excinfo:
        cli._plan(subcommand, payload)
    assert str(excinfo.value).startswith(message)
    path = write_config(tmp_path, payload)
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


MANY_POINTS = {"start_us": 0.0, "stop_us": 2.0, "points": 10_000}  # 2**31 - 1 realizations of them: 515 TB of results
STACK = f"{cli.MAX_COUNT} realizations of 10000 points need 515396.1 GB of results"
GRID = f"100 realizations of {cli.MAX_COUNT} points need 5154.0 GB of results"  # refused before np.linspace's 17 GB
# correlation.realization_bytes: planes and R^3, 32 B per pair slot at one grid time per block, for one analytic
# cycle over a grid (as for entangle); 64 B more per slot for a fresh product array without a grid
PLANES = "1000000 atoms need 16000.0 GB of one realization's arrays"
PRODUCTS = "1000000 atoms need 48000.0 GB of one realization's arrays"
MANY_ATOMS = dict(MINIMAL["ensemble"], n_atoms=10**6)
SWEEP_ATOMS = dict(SWEEP, axes=[{"path": "ensemble.n_atoms", "values": [10, 10**6]}])


@pytest.mark.parametrize(
    "subcommand, payload, field, need",
    [
        ("g2-trace", dict(MINIMAL, grid=MANY_POINTS, realizations=cli.MAX_COUNT), "realizations", STACK),
        ("entangle", dict(ENTANGLE, grid=MANY_POINTS, realizations=cli.MAX_COUNT), "realizations", STACK),
        (
            "sweep",
            dict(SWEEP, base=dict(MINIMAL, grid=MANY_POINTS, realizations=cli.MAX_COUNT)),
            "base.realizations",
            STACK,
        ),
        ("g2-trace", dict(MINIMAL, grid=dict(MANY_POINTS, points=cli.MAX_COUNT), realizations=100), "realizations", GRID),
        ("entangle", dict(ENTANGLE, grid=dict(MANY_POINTS, points=cli.MAX_COUNT), realizations=100), "realizations", GRID),
        ("g2-trace", dict(MINIMAL, ensemble=MANY_ATOMS), "ensemble.n_atoms", PLANES),
        ("cycles", {"ensemble": MANY_ATOMS, "schedule": MINIMAL["schedule"]}, "ensemble.n_atoms", PRODUCTS),
        ("entangle", dict(ENTANGLE, ensemble=MANY_ATOMS), "ensemble.n_atoms", PLANES),
        ("sweep", SWEEP_ATOMS, "base.ensemble.n_atoms", PLANES),
    ],
    ids=[
        "g2-trace",
        "entangle",
        "sweep",
        "g2-trace-points",
        "entangle-points",
        "g2-trace-n_atoms",
        "cycles-n_atoms",
        "entangle-n_atoms",
        "sweep-n_atoms",
    ],
)
def test_results_beyond_physical_memory_are_config_errors(tmp_path, capsys, subcommand, payload, field, need):
    # an accepted count whose arrays cannot fit exits 1 at plan time, not in a MemoryError or an out-of-memory kill
    message = f"{field}: {need}, more than the "
    with pytest.raises(ConfigError) as excinfo:
        cli._plan(subcommand, payload)
    assert str(excinfo.value).startswith(message)
    if subcommand == "sweep":  # the first combination that does not fit
        assert str(excinfo.value).endswith(f" (combination n_atoms={payload['axes'][0]['values'][-1]})")
    path = write_config(tmp_path, payload)
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand, payload", [("g2-trace", MINIMAL), ("entangle", ENTANGLE)])
@pytest.mark.parametrize(
    "grid",
    [
        {"start_us": 0.0, "stop_us": 5e-324, "points": 3},
        {"start_us": 1.0, "stop_us": 1.0000000000000002, "points": 5, "spacing": "log"},
    ],
    ids=["linear-subnormal", "log-one-ulp"],
)
def test_a_grid_whose_times_repeat_is_a_config_error(tmp_path, capsys, subcommand, payload, grid):
    path = write_config(tmp_path, dict(payload, grid=grid))
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"config error: grid: {grid['points']} points from " in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_one_beam_needs_the_offaxis_solver_off(tmp_path, capsys):
    one_beam = {"beams": PHASEMATCH["beams"][:1]}  # solve_offaxis defaults to true
    out = tmp_path / "out"
    assert main(["phasematch", "--config", str(write_config(tmp_path, one_beam)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error: beams: " in err
    assert "Traceback" not in err
    assert not out.exists()
    path = write_config(tmp_path, dict(one_beam, solve_offaxis=False))
    assert main(["phasematch", "--config", str(path), "--out", str(out)]) == 0
    assert "offaxis" not in json.loads((out / "phasematch.json").read_text())


@pytest.mark.parametrize(
    "beams, solve_offaxis",
    [
        ([(1e-320, 1), (480.0, -1)], False),  # 2000 pi / 1e-320 is inf
        ([(4e-305, 1)] * 4, True),  # each wavenumber finite, their sum not
        ([(1e-160, 1), (480.0, -1)], False),  # a finite sum whose square, |dk|^2, is not
    ],
    ids=["wavenumber", "sum", "square"],
)
def test_an_overflowing_wavenumber_is_a_config_error(tmp_path, capsys, beams, solve_offaxis):
    # the wavelength is below its range, so no wavenumber, sum or square is formed
    payload = {"beams": [{"wavelength_nm": w, "sign": s} for w, s in beams], "solve_offaxis": solve_offaxis}
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["phasematch", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 1
    assert caught == []
    assert capsys.readouterr().err == f"config error: beams[0].wavelength_nm: must be >= 10.0, got {beams[0][0]}\n"
    assert not out.exists()


def test_a_speed_below_its_range_is_a_config_error(tmp_path, capsys):
    # without its range, the coherence time period / (2 pi v) of this unmatched geometry overflows to "inf",
    # the value of a matched one
    payload = {"beams": [{"wavelength_nm": 780.0, "sign": 1}, {"wavelength_nm": 480.0, "sign": -1}]}
    payload["speed_m_per_s"] = 5e-324
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["phasematch", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 1
    assert caught == []
    assert capsys.readouterr() == ("", "config error: speed_m_per_s: must be >= 1e-06, got 5e-324\n")
    assert not out.exists()


SCAN = dict(
    MINIMAL,
    realizations=2,
    schedule={"cycles": [{k: v for k, v in MINIMAL["schedule"]["cycles"][0].items() if k != "c3"}]},
    interaction={"model": MODEL},
    scan_n=[60, 100],
)
CYCLES = {"ensemble": MINIMAL["ensemble"], "schedule": MINIMAL["schedule"], "realizations": 2}


@pytest.mark.parametrize(
    "subcommand, payload, name, entry",
    [
        ("g2-trace", dict(MINIMAL, realizations=2), "g2_trace.csv", "g2_trace"),
        ("g2-trace", SCAN, "g2_trace_n100.csv", "g2_trace"),  # the later of two traces
        ("cycles", CYCLES, "cycles.csv", "g2_trace"),
        ("entangle", ENTANGLE, "entangle.csv", "entangle_trace"),
        ("phasematch", PHASEMATCH, "phasematch.json", "wavevector_mismatch"),
    ],
    ids=["g2-trace", "g2-trace-scan_n", "cycles", "entangle", "phasematch"],
)
def test_a_stray_data_file_is_refused_before_any_work(tmp_path, monkeypatch, capsys, subcommand, payload, name, entry):
    calls = []
    compute = getattr(cli, entry)

    def counting(*args, **kwargs):
        calls.append(1)
        return compute(*args, **kwargs)

    monkeypatch.setattr(cli, entry, counting)
    out = tmp_path / "out"
    out.mkdir()
    (out / name).write_text("stray")  # no manifest beside it
    assert main([subcommand, "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: refusing to overwrite {out / name}; pass --force" in err
    assert calls == []
    assert [p.name for p in out.iterdir()] == [name]
    assert (out / name).read_text() == "stray"


@pytest.mark.parametrize("blocked", ["entangle.csv", "manifest.json", "entangle.csv.partial"])
def test_a_directory_at_an_output_path_is_refused_before_any_work_even_with_force(
    tmp_path, monkeypatch, capsys, blocked
):
    # --force may replace a file, never a directory: renaming onto one would fail after the run,
    # and a blocked manifest would leave the data file committed without it
    calls = []
    compute = cli.entangle_trace

    def counting(*args, **kwargs):
        calls.append(1)
        return compute(*args, **kwargs)

    monkeypatch.setattr(cli, "entangle_trace", counting)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main(["entangle", "--config", str(write_config(tmp_path, ENTANGLE)), "--out", str(out), "--force"]) == 1
    err = capsys.readouterr().err
    final = out / blocked.removesuffix(".partial")
    assert f"config error: cannot write {final}: {out / blocked} is a directory" in err
    assert "Traceback" not in err
    assert calls == []
    assert [p.name for p in out.iterdir()] == [blocked]
    assert list((out / blocked).iterdir()) == []


def test_axes_path_may_end_in_a_list_index():
    raw = dict(MINIMAL, scan_n=[60, 100])
    cli._apply_override(raw, "scan_n.1", 80)
    assert raw["scan_n"] == [60, 80]


PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = runpy.run_path(str(PERFBENCH_DIR / "workloads.py"))["WORKLOADS"]
TRACER_TARGETS = runpy.run_path(str(PERFBENCH_DIR / "tracer.py"))["TARGETS"]
# targets the tracer has wrapped since the code under them was renamed or deleted
STALE_TRACER_TARGETS = {
    "ryddephase.correlation._cycles_single_realization",
    "ryddephase.cli.g2_after_cycles",
    "ryddephase.correlation.AmplitudeSet.from_condensed",
    "ryddephase.cli.g2_from_amplitudes",
    "ryddephase.correlation.g2_from_amplitudes",
    "ryddephase.correlation.numeric_pair_amplitudes",
    "ryddephase.correlation.pair_separations",
    "ryddephase.protocol.sample_positions",
    "ryddephase.protocol.pair_separations",
}


@pytest.mark.parametrize("seed", [1, 11])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_configs_plan(name, seed):
    workload = WORKLOADS[name]
    assert len(cli._plan(workload.subcommand, workload.config(seed))) == 1


# each shipped config's subcommand and the data files its plan names, {} standing for its output.format
SHIPPED_FILES = {
    "cycles": ("cycles", ["cycles.{}"]),
    "entangle": ("entangle", ["entangle.{}"]),
    "fig2": ("g2-trace", ["g2_trace_n60.{}", "g2_trace_n79.{}", "g2_trace_n100.{}"]),
    "fourphoton": ("phasematch", ["phasematch.json"]),
    "multichannel": ("g2-trace", ["g2_trace.{}"]),
    "sweep_example": ("sweep", ["n_atoms=50/g2_trace.{}", "n_atoms=100/g2_trace.{}"]),
    "twophoton": ("phasematch", ["phasematch.json"]),
}


FORMATS = {"phasematch": [None]}  # phasematch has no output section


@pytest.mark.parametrize(
    "name, fmt", [(name, fmt) for name, (sub, _) in SHIPPED_FILES.items() for fmt in FORMATS.get(sub, ["csv", "json"])]
)
def test_plan_names_each_schedule_stem_with_the_output_format(name, fmt):
    assert set(SHIPPED_FILES) == {p.stem for p in CONFIG_DIR.glob("*.json")}
    subcommand, expected = SHIPPED_FILES[name]
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    if fmt is not None:
        (raw["base"] if subcommand == "sweep" else raw)["output"] = {"format": fmt}
    files = [
        f"{job.label}/{file}" if job.label else file
        for job in cli._plan(subcommand, raw)
        for file in cli.SUBCOMMANDS[job.subcommand].files(job.config)
    ]
    assert files == [file.format(fmt) for file in expected]


def test_perfbench_tracer_targets_resolve():
    # the tracer wraps names where the calling module imported them: a refactor
    # that moves one leaves its layer unmeasured, with no other test failing
    def resolves(module_name, path):
        obj = importlib.import_module(module_name)
        for part in path.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                return False
        return True

    unresolved = {f"{module}.{path}" for module, path, _, _ in TRACER_TARGETS if not resolves(module, path)}
    assert unresolved <= STALE_TRACER_TARGETS


@pytest.mark.parametrize("n", [1, 99])
def test_entangle_n_names_the_two_channels(n):
    raw = dict(WORKLOADS["entangle"].config(1), entangle={"n": n, "c3_prime": 2.0e5, "c3_second": 1.6e5})
    # (n+1)s dressed through np_1/2 with C3', ns dressed through np_3/2 with C3'', no free interval of their own
    modes = parse_config(json.dumps(raw), "entangle").schedules["entangle"]
    assert [mode.channel for mode in modes] == [
        RydbergChannel(n + 1, n, 0.5, 2.0e5),
        RydbergChannel(n, n, 1.5, 1.6e5),
    ]
    assert all(mode.delta_t == 0.0 and mode.microwave == MicrowaveSpec() for mode in modes)


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    import ryddephase.cli as cli
    from ryddephase.pairdyn import NumericsError

    def synthetic_failure(*args, **kwargs):
        raise NumericsError("synthetic propagator drift")

    monkeypatch.setattr(cli, "g2_trace", synthetic_failure)
    path = write_config(tmp_path, MINIMAL)
    assert main(["g2-trace", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


OVERFLOW_GRID = {"start_us": 0.0, "stop_us": 1e306, "points": 3}  # C3 t overflows to inf: every phase is lost
WIDE_TIMES = (  # the CLI with no upper bound on times
    "import math, sys; from ryddephase import cli; "
    "cli.RANGES['stop_us'] = (0.0, math.inf); sys.exit(cli.main(sys.argv[1:]))"
)


@pytest.mark.parametrize("subcommand", ["g2-trace", "entangle"])
def test_an_overflowing_phase_is_a_numerical_failure(tmp_path, capsys, subcommand):
    ensemble = {"n_atoms": 6, "box_side_um": 20.0, "seed": 3}
    if subcommand == "g2-trace":
        cfg = dict(MINIMAL, ensemble=ensemble, grid=OVERFLOW_GRID)
        cfg["schedule"] = {"cycles": [dict(MINIMAL["schedule"]["cycles"][0], c3=26000.0)]}
    else:
        cfg = {"ensemble": ensemble, "entangle": {"n": 99, "c3_prime": 26000.0, "c3_second": 26000.0}}
        cfg["grid"] = OVERFLOW_GRID
    cfg["realizations"] = 2
    out = tmp_path / "out"
    argv = [subcommand, "--config", str(write_config(tmp_path, cfg)), "--out", str(out), "--threads", "2"]
    assert main(argv) == 1  # the range on times refuses it when the run is planned
    assert capsys.readouterr() == ("", "config error: grid.stop_us: must be <= 1000000.0, got 1e+306\n")
    # the library still raises NumericsError: a fresh process that widens the range, with the default
    # warning filters and two workers, shows what a user's terminal would
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", WIDE_TIMES, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"numerical failure: realization 0 (seed {realization_seed(3, 0)}): non-finite pair sum" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr  # numpy's overflow warnings stay inside the realization
    assert not out.exists()


def test_scan_n_rejects_a_cycle_c3(tmp_path, capsys):
    # scan_n resolves C3 per n from the table or model, so a cycle's own c3 would be dropped
    cfg = dict(MINIMAL, interaction={"model": {"reference_c3": 2.6e4, "reference_n": 60}}, scan_n=[60, 100])
    path = write_config(tmp_path, cfg)
    assert main(["g2-trace", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error: schedule.cycles[0].c3: scan_n resolves C3 per n from the table or model" in err


@pytest.mark.parametrize(
    "config, subcommand, n",
    [("cycles.json", "cycles", 100), ("fig2.json", "g2-trace", 79)],
    ids=["cycles", "fig2-scan_n"],  # fig2's own cycle is at the reference n = 60; its scan_n = 79 overflows
)
def test_an_overflowing_model_c3_is_a_config_error(tmp_path, capsys, config, subcommand, n):
    # C3 = inf at n: the exponent is out of its range, so no model C3 overflows
    raw = json.loads((CONFIG_DIR / config).read_text())
    raw["interaction"]["model"]["scaling_exponent"] = 5000
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([subcommand, "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 1
    assert caught == []
    assert capsys.readouterr() == ("", "config error: interaction.model.scaling_exponent: must be <= 12.0, got 5000.0\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        # without its range, 2 pi / Omega overflows: t_us inf, reference nan
        ({"rabi_rad_per_us": 1e-320}, "rabi_rad_per_us: must be >= 0.001, got 1e-320"),
        # without its range, the cumulative sum overflows with a numpy warning, then the phases
        ({"delta_t_us": 1e308}, "delta_t_us: must be <= 1000000.0, got 1e+308"),
        # without the ranges, the phases stay finite: every realization runs, then fsum raises
        ({"delta_t_us": 1e308, "c3": 1e-200}, "c3: must be >= 0.001, got 1e-200"),
    ],
    ids=["pulse-area", "intervals", "intervals-small-c3"],
)
def test_a_cycles_time_axis_that_overflows_is_a_config_error(tmp_path, capsys, overrides, message):
    raw = json.loads((CONFIG_DIR / "cycles.json").read_text())
    raw["ensemble"]["n_atoms"], raw["realizations"] = 10, 1
    raw["schedule"]["cycles"] = [dict(c, **overrides) for c in raw["schedule"]["cycles"]]
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["cycles", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 1
    assert caught == []
    assert capsys.readouterr() == ("", f"config error: schedule.cycles[0].{message}\n")
    assert not out.exists()


def test_the_ranges_keep_every_derived_number_finite():
    # the README's "Input ranges" argument, evaluated at the ends of the ranges: narrowing or widening one
    # range must keep every number below finite
    r = cli.RANGES
    corners = itertools.product(*(r[name] for name in ("reference_c3", "reference_n", "scaling_exponent", "s_n")))
    model_c3 = [c3_of(n, InteractionModel(c3, n0, exponent)) for c3, n0, exponent, n in corners]  # raises unless finite
    assert 0 < min(model_c3) and r["scan_n"] == r["s_n"]
    c3_high = max(*model_c3, *r["c3"], *r["c3_prime"], *r["c3_second"])
    # each wavenumber, their sum over more beams than a config can list, and |dk|^2
    k_high = max(Beam(w, 1, (0.0, 0.0, 1.0)).k for w in r["wavelength_nm"])
    total = 2**63 * k_high
    assert math.isfinite(total * total)
    # the longest cycles schedule: one cycle per distinct p-level, each of the longest interval and pulse
    levels = range(r["p_n"][0], r["p_n"][1] + 1)
    drive = MicrowaveSpec(rabi=r["rabi_rad_per_us"][0])
    channels = [RydbergChannel(levels[-1], p_n, p_j, 1.0) for p_n in levels for p_j in (0.5, 1.5)]
    schedule = make_schedule(CycleSpec(channel, r["delta_t_us"][1], drive) for channel in channels)
    assert len(schedule) == 2 * len(levels) and math.isfinite(sum(c.duration for c in schedule))
    # the coherence time of an unmatched geometry: the longest period, at the lowest speed
    period = spinwave_period([np.nextafter(EPS_K, 1.0), 0.0, 0.0])
    assert math.isfinite(motional_coherence_time(period, r["speed_m_per_s"][0]))
    # the largest phase, C3 over the closest pair's R^3 for a whole cycle, far below the float range, so the
    # multichannel energies, a few times C3 / R^3, are finite too; and the widest pair's R^3
    t_high = max(r["stop_us"][1], r["delta_t_us"][1]) + 2.0 * math.pi / r["rabi_rad_per_us"][0]
    cube = r["min_separation_um"][0] ** 3
    assert 0.0 < cube and c3_high * t_high / cube < 1e300
    assert np.isfinite(analytic_pair_amplitudes(np.array([cube]), c3_high * t_high)).all()
    assert math.isfinite((math.sqrt(3.0) * r["box_side_um"][1]) ** 3)


def test_failed_run_does_not_block_a_rerun(tmp_path, monkeypatch):
    from ryddephase.pairdyn import NumericsError

    calls = []
    g2_trace = cli.g2_trace

    def fails_on_second_call(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NumericsError("synthetic propagator drift")
        return g2_trace(*args, **kwargs)

    monkeypatch.setattr(cli, "g2_trace", fails_on_second_call)
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["realizations"] = 2
    del cfg["schedule"]["cycles"][0]["c3"]
    cfg["interaction"] = {"model": {"reference_c3": 2.6e4, "reference_n": 60}}
    cfg["scan_n"] = [60, 100]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    argv = ["g2-trace", "--config", str(path), "--out", str(out)]
    assert main(argv) == 2
    assert sorted(p.name for p in out.iterdir()) == []  # the n = 60 trace is not left behind
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == ["g2_trace_n100.csv", "g2_trace_n60.csv", "manifest.json"]


def test_impossible_packing_is_a_config_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["ensemble"] = {"n_atoms": 500, "box_side_um": 4.0, "seed": 5, "min_separation_um": 2.0}
    cfg["realizations"] = 1
    path = write_config(tmp_path, cfg)
    assert main(["g2-trace", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "config error: ensemble: could not place 500 atoms" in capsys.readouterr().err


def test_cycles_run_includes_reference_column(tmp_path):
    cfg = {
        "ensemble": {"n_atoms": 20, "box_side_um": 60.0, "seed": 3},
        "schedule": {
            "cycles": [
                {"s_n": 100, "p_n": 100, "p_j": 0.5, "delta_t_us": 1.0, "c3": 2.0e5},
                {"s_n": 100, "p_n": 99, "p_j": 0.5, "delta_t_us": 1.0, "c3": 1.9e5},
            ]
        },
        "realizations": 2,
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["cycles", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "cycles.csv").read_text().splitlines()
    assert lines[0] == "cycle,t_us,g2_mean,g2_stderr,f_mean,h_mean,reference"
    assert len(lines) == 4  # header + cycle 0 + 2 cycles
    tau = 1.0 + 0.2 * math.pi
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(2 * tau)
    assert float(last[6]) == pytest.approx(math.exp(-2.0), rel=1e-12)


@pytest.mark.parametrize(
    "entangle, message",
    [
        ({"c3_prime": 2.0e5, "c3_second": 1.6e5}, "entangle.n: missing required key"),
        ({"n": 0, "c3_prime": 2.0e5, "c3_second": 1.6e5}, "entangle.n: must be >= 1"),
        ({"n": 99, "c3_prime": 0.0, "c3_second": 1.6e5}, "entangle.c3_prime: must be >= 0.001, got 0.0"),
    ],
)
def test_entangle_level_label_and_strengths_are_validated(tmp_path, capsys, entangle, message):
    cfg = {
        "ensemble": {"n_atoms": 15, "box_side_um": 60.0, "seed": 5},
        "entangle": entangle,
        "grid": {"start_us": 0.0, "stop_us": 2.0, "points": 3},
    }
    path = write_config(tmp_path, cfg)
    assert main(["entangle", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {message}" in capsys.readouterr().err


def test_entangle_run_csv_contract(tmp_path):
    cfg = {
        "ensemble": {"n_atoms": 15, "box_side_um": 60.0, "seed": 5},
        "entangle": {"n": 99, "c3_prime": 2.0e5, "c3_second": 1.6e5},
        "grid": {"start_us": 0.0, "stop_us": 2.0, "points": 3},
        "realizations": 2,
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["entangle", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "entangle.csv").read_text().splitlines()
    assert lines[0] == "t_us,F,abs_m1,abs_m2"
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.5)
    assert float(first[2]) == pytest.approx(1.0)


def test_entangle_threaded_run_matches_serial(tmp_path):
    cfg = {
        "ensemble": {"n_atoms": 15, "box_side_um": 60.0, "seed": 5},
        "entangle": {"n": 99, "c3_prime": 2.0e5, "c3_second": 1.6e5},
        "grid": {"start_us": 0.0, "stop_us": 2.0, "points": 4},
        "realizations": 3,
    }
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert main(["entangle", "--config", str(path), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["entangle", "--config", str(path), "--out", str(out2), "--threads", "2"]) == 0
    assert (out1 / "entangle.csv").read_bytes() == (out2 / "entangle.csv").read_bytes()


def test_importing_the_cli_does_not_load_scipy(tmp_path):
    # nor does solving the off-axis geometry of configs/fourphoton.json
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    scipy_modules = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    argv = ["phasematch", "--config", str(CONFIG_DIR / "fourphoton.json"), "--out", str(tmp_path / "pm")]
    for run in ("", f"assert ryddephase.cli.main({argv!r}) == 0; "):
        code = f"import sys, ryddephase.cli; {run}{scipy_modules}"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1] == "[]"
    assert "offaxis" in json.loads((tmp_path / "pm" / "phasematch.json").read_text())


@pytest.mark.parametrize("user_value", [None, "3"])
def test_importing_the_package_pins_blas_threads_unless_set(user_value):
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    code = f"import os, ryddephase; print(*(os.environ.get(k) for k in {names!r}))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == [user_value or "1", "1", "1"]


def test_importing_the_cli_does_not_load_the_process_pool():
    # nor csv or logging, which no CLI path needs at import time
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, ryddephase.cli; "
        "print(sorted(m for m in sys.modules if m in ('csv', 'logging') "
        "or m.startswith(('concurrent.futures.process', 'multiprocessing'))))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module, frozen", [("ryddephase.cli", True), ("ryddephase", False)])
def test_only_the_cli_import_freezes_the_import_graph(module, frozen):
    # the CLI module freezes the objects alive after its imports; a library import keeps a normal collector
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = f"import gc, {module}; print(gc.get_freeze_count())"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert (int(proc.stdout) > 0) is frozen


def test_phasematch_run_json_contract(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "phasematch", "--config", str(CONFIG_DIR / "fourphoton.json"), "--out", str(out)
    ])
    assert rc == 0
    payload = json.loads((out / "phasematch.json").read_text())
    assert set(payload) >= {"dk_rad_per_um", "period_um", "coherence_time_us", "angles_deg"}
    assert payload["period_um"] == pytest.approx(48.099, abs=1e-3)
    assert payload["offaxis"]["period_um"] == "inf"
    assert payload["offaxis"]["coherence_time_us"] == "inf"
    assert np.linalg.norm(payload["offaxis"]["dk_rad_per_um"]) <= 1e-9


def test_phasematch_reports_an_infeasible_offaxis_geometry(tmp_path):
    # two co-signed beams add their wavevectors: no direction cancels them
    cfg = {
        "beams": [{"wavelength_nm": 780.0, "sign": 1}, {"wavelength_nm": 480.0, "sign": 1}],
        "solve_offaxis": True,
    }
    out = tmp_path / "out"
    assert main(["phasematch", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    payload = json.loads((out / "phasematch.json").read_text())
    assert list(payload["offaxis"]) == ["infeasible"]
    assert "no zero-mismatch geometry found" in payload["offaxis"]["infeasible"]
    assert payload["period_um"] == pytest.approx(1.0 / (1.0 / 0.78 + 1.0 / 0.48))


def test_oracle_at_large_n_matches_the_state_vector():
    # random amplitudes in their round-robin slots, and any positions: the state vector ignores them
    n, seed = 300, 21
    rng = np.random.Generator(np.random.PCG64(seed))
    positions = sample_positions(EnsembleSpec(n, 60.0, seed=seed))
    for _ in range(3):
        draw = random_pair_matrix(n, rng)
        point = g2_from_amplitudes(draw[round_robin_pairs(n)])
        exact = exact_g2(point, n)
        assert exact == pytest.approx(brute_force_g2(positions, draw[np.triu_indices(n, 1)]), rel=1e-13)
        assert abs(point.g2 - exact) <= exact / n


@pytest.mark.parametrize("n", [2, 3, 8, 9, 60, 301])
def test_oracle_cases_are_those_of_the_condensed_draws_bit_for_bit(n):
    # an (n, n) draw gathered straight into round-robin slots and its mu < nu values in condensed order
    # must give the same points to the last bit
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(3):
        draw = random_pair_matrix(n, rng)
        point = g2_from_amplitudes(draw[round_robin_pairs(n)])
        assert point == g2_from_condensed(draw[np.triu_indices(n, 1)], n)


def test_sweep_runs_cartesian_product(tmp_path):
    base = json.loads(json.dumps(MINIMAL))
    base["realizations"] = 2
    sweep = {
        "subcommand": "g2-trace",
        "base": base,
        "axes": [
            {"path": "ensemble.n_atoms", "values": [10, 20]},
            {"path": "schedule.cycles.0.delta_t_us", "values": [0.5]},
        ],
    }
    path = write_config(tmp_path, sweep)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "n_atoms=10__delta_t_us=0.5" / "g2_trace.csv").exists()
    assert (out / "n_atoms=20__delta_t_us=0.5" / "g2_trace.csv").exists()
    top = json.loads((out / "manifest.json").read_text())
    assert len(top["outputs"]) == 4  # two traces + two sub-manifests


def test_sweep_combinations_writing_one_file_twice_are_a_config_error(tmp_path, capsys, monkeypatch):
    traces = []
    monkeypatch.setattr(cli, "g2_trace", lambda *args, **kwargs: traces.append(1))
    base = json.loads(json.dumps(MINIMAL))
    base["realizations"] = 2
    sweep = {"subcommand": "g2-trace", "base": base, "axes": [{"path": "ensemble.n_atoms", "values": [10, 10]}]}
    path = write_config(tmp_path, sweep)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    assert "axes: combinations [10] and [10] both write to n_atoms=10/" in capsys.readouterr().err
    assert traces == []  # rejected when the run is planned, before any realization
    assert not any(p.is_file() for p in out.rglob("*"))


def test_sweep_over_entangle(tmp_path):
    sweep = {
        "subcommand": "entangle",
        "base": ENTANGLE,
        "axes": [{"path": "entangle.c3_prime", "values": [100000.0, 200000.0]}],
    }
    path = write_config(tmp_path, sweep)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "c3_prime=100000.0" / "entangle.csv").exists()
    assert (out / "c3_prime=200000.0" / "entangle.csv").exists()


def test_rerun_from_manifest_config_reproduces_outputs(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["realizations"] = 2
    path = write_config(tmp_path, cfg)
    out1 = tmp_path / "a"
    assert main(["g2-trace", "--config", str(path), "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    replay = write_config(tmp_path, manifest["config"], name="replay.json")
    out2 = tmp_path / "b"
    assert main(["g2-trace", "--config", str(replay), "--out", str(out2)]) == 0
    assert (out1 / "g2_trace.csv").read_bytes() == (out2 / "g2_trace.csv").read_bytes()
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["config_sha256"] == manifest["config_sha256"]
    assert m2["outputs"][0]["sha256"] == manifest["outputs"][0]["sha256"]


def test_sweep_rejects_unknown_path(tmp_path, capsys):
    for bad in ("no.such.knob", "schedule.cycles.x.delta_t_us", "schedule.cycles.5.delta_t_us", "grid.points.0"):
        sweep = {
            "subcommand": "g2-trace",
            "base": json.loads(json.dumps(MINIMAL)),
            "axes": [{"path": bad, "values": [1]}],
        }
        path = write_config(tmp_path, sweep)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"config error: axes path {bad!r}: " in capsys.readouterr().err


@pytest.mark.parametrize("segment", ["-1", "01", "+1", " 1", "1 ", "\u0661"])
def test_a_list_index_is_only_its_plain_spelling(segment):
    # int() reads each of these as an index: two spellings of one entry would let two axes set one field
    raw = dict(MINIMAL, scan_n=[60, 100])
    with pytest.raises(ConfigError, match=rf"segment {re.escape(repr(segment))} is not an index of a 2-entry list"):
        cli._apply_override(raw, f"scan_n.{segment}", 80)
    assert raw["scan_n"] == [60, 100]


def test_the_shipped_sweep_refuses_a_negative_index_before_any_work(tmp_path, capsys):
    sweep = json.loads((CONFIG_DIR / "sweep_example.json").read_text())
    sweep["axes"] = [
        {"path": "schedule.cycles.0.delta_t_us", "values": [0.5]},
        {"path": "schedule.cycles.-1.delta_t_us", "values": [2.0]},
    ]
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(write_config(tmp_path, sweep)), "--out", str(out)]) == 1
    err = "config error: axes path 'schedule.cycles.-1.delta_t_us': segment '-1' is not an index of a 1-entry list\n"
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize(
    "first, second",
    [
        ("schedule.cycles.0.delta_t_us", "schedule.cycles.0.delta_t_us"),
        ("schedule.cycles.0", "schedule.cycles.0.delta_t_us"),
        ("schedule.cycles.0.delta_t_us", "schedule.cycles"),
    ],
    ids=["equal", "under", "over"],
)
def test_sweep_refuses_two_axes_on_one_field(tmp_path, capsys, monkeypatch, first, second):
    # the later axis would overwrite what the earlier set, and the label would name a value the run never used
    traces = []
    monkeypatch.setattr(cli, "g2_trace", lambda *args, **kwargs: traces.append(1))
    values = {"schedule.cycles": [[]], "schedule.cycles.0": [{}]}
    axes = [{"path": path, "values": values.get(path, [0.5])} for path in (first, second)]
    sweep = {"subcommand": "g2-trace", "base": json.loads(json.dumps(MINIMAL)), "axes": axes}
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(write_config(tmp_path, sweep)), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: axes[1].path: {second!r} overlaps axes[0].path {first!r}\n"
    assert traces == [] and not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("subcommand", ["g2-trace", "sweep"])
def test_a_seed_out_of_range_is_reported_at_the_flag(tmp_path, capsys, subcommand, seed):
    config = CONFIG_DIR / ("sweep_example.json" if subcommand == "sweep" else "multichannel.json")
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(config), "--out", str(out), "--seed", str(seed)]) == 1
    bound = ">= 0" if seed < 0 else f"<= {2**64 - 1}"
    assert capsys.readouterr().err == f"config error: --seed: must be {bound}, got {seed}\n"
    assert not out.exists()


def test_an_output_name_the_file_system_refuses_exits_1_before_any_work(tmp_path, capsys, monkeypatch):
    # a combination label past the name limit used to fail in mkdir after the work, with a traceback
    traces = []
    monkeypatch.setattr(cli, "g2_trace", lambda *args, **kwargs: traces.append(1))
    scan_n = list(range(100, 170))
    sweep = {"subcommand": "g2-trace", "base": SCAN, "axes": [{"path": "scan_n", "values": [scan_n]}]}
    label = cli._combo_label([("scan_n", None)], [scan_n])
    limit = os.pathconf(tmp_path, "PC_NAME_MAX")
    assert len(label.encode()) > limit
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(write_config(tmp_path, sweep)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: cannot write outputs to {tmp_path}: the name {label!r} is over {limit} bytes\n"
    assert traces == [] and not out.exists()


@pytest.mark.parametrize(
    "subcommand, payload, message",
    [
        ("g2-trace", dict(MINIMAL, ensemble=[1, 2]), "ensemble: expected an object, got list"),
        ("cycles", {"ensemble": [1, 2], "schedule": MINIMAL["schedule"]}, "ensemble: expected an object, got list"),
        ("entangle", {"ensemble": 5, "entangle": {}, "grid": {}}, "ensemble: expected an object, got int"),
        ("sweep", {"subcommand": "g2-trace", "base": 5, "axes": []}, "base: expected an object"),
        (
            "sweep",
            {"subcommand": "g2-trace", "base": dict(MINIMAL, ensemble=[1, 2]), "axes": [{"path": "realizations", "values": [2]}]},
            "base.ensemble: expected an object, got list (combination realizations=2)",
        ),
    ],
    ids=["g2-trace", "cycles", "entangle", "sweep-base", "sweep-ensemble"],
)
def test_seed_override_of_a_non_object_is_a_config_error(tmp_path, capsys, subcommand, payload, message):
    path = write_config(tmp_path, payload)
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "o"), "--seed", "3"]) == 1
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [None, "3"])
@pytest.mark.parametrize(
    "subcommand, payload, message",
    [
        (
            "sweep",
            {"subcommand": "phasematch", "base": PHASEMATCH, "axes": []},
            "subcommand: expected one of ['cycles', 'entangle', 'g2-trace'], got 'phasematch'",
        ),
        ("sweep", {"subcommand": "g2-trace", "axes": []}, "config.base: missing required key"),
        ("g2-trace", {"schedule": MINIMAL["schedule"], "grid": MINIMAL["grid"]}, "config.ensemble: missing required key"),
    ],
    ids=["sweep-of-phasematch", "sweep-without-base", "g2-trace-without-ensemble"],
)
def test_seed_override_leaves_the_parser_error_unchanged(tmp_path, capsys, subcommand, payload, message, seed):
    # --seed writes only into a section that can hold it, so the config is reported as it would be without it
    path = write_config(tmp_path, payload)
    argv = [subcommand, "--config", str(path), "--out", str(tmp_path / "o")] + (["--seed", seed] if seed else [])
    assert main(argv) == 1
    assert f"config error: {message}" in capsys.readouterr().err


def test_sweep_top_level_manifest_is_reproducible(tmp_path):
    base = json.loads(json.dumps(MINIMAL))
    base["realizations"] = 2
    sweep = {"subcommand": "g2-trace", "base": base, "axes": [{"path": "ensemble.n_atoms", "values": [10, 12]}]}
    path = write_config(tmp_path, sweep)
    tops = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        tops.append(json.loads((out / "manifest.json").read_text())["outputs"])
    assert tops[0] == tops[1]
    assert {"path": "n_atoms=10/manifest.json"} in tops[0]  # sub-manifests are listed by path only
    assert all("sha256" in entry for entry in tops[0] if entry["path"].endswith(".csv"))


def test_sweep_validates_every_combination_before_running_any(tmp_path, monkeypatch, capsys):
    calls = []
    g2_trace = cli.g2_trace

    def counting_g2_trace(*args, **kwargs):
        calls.append(1)
        return g2_trace(*args, **kwargs)

    monkeypatch.setattr(cli, "g2_trace", counting_g2_trace)
    base = json.loads(json.dumps(MINIMAL))
    base["realizations"] = 2
    sweep = {"subcommand": "g2-trace", "base": base, "axes": [{"path": "ensemble.n_atoms", "values": [10, 1]}]}
    path = write_config(tmp_path, sweep)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "config error: base.ensemble.n_atoms: must be >= 2, got 1 (combination n_atoms=1)" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("blocker", ["file", "manifest", "data-file"])
def test_sweep_checks_every_combination_directory_before_running_any(tmp_path, monkeypatch, capsys, blocker):
    calls = []
    g2_trace = cli.g2_trace

    def counting_g2_trace(*args, **kwargs):
        calls.append(1)
        return g2_trace(*args, **kwargs)

    monkeypatch.setattr(cli, "g2_trace", counting_g2_trace)
    path = write_config(tmp_path, dict(SWEEP, axes=[{"path": "ensemble.n_atoms", "values": [50, 100]}]))
    out = tmp_path / "out"
    late = out / "n_atoms=100"
    if blocker == "file":
        out.mkdir()
        late.write_text("not a directory")
        message = f"cannot write outputs to {late}: {late} is not a directory"
    elif blocker == "manifest":
        late.mkdir(parents=True)
        (late / "manifest.json").write_text("{}")
        message = f"refusing to overwrite {late / 'manifest.json'}; pass --force"
    else:  # a data file with no manifest beside it
        late.mkdir(parents=True)
        (late / "g2_trace.csv").write_text("stray")
        message = f"refusing to overwrite {late / 'g2_trace.csv'}; pass --force"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err
    assert calls == []
    assert not (out / "n_atoms=50").exists()


def test_sweep_starts_one_pool_for_all_combinations(tmp_path, monkeypatch):
    import concurrent.futures

    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    base = json.loads(json.dumps(MINIMAL))
    base["realizations"] = 2
    sweep = {"subcommand": "g2-trace", "base": base, "axes": [{"path": "ensemble.n_atoms", "values": [10, 12]}]}
    path = write_config(tmp_path, sweep)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out"), "--threads", "2"]) == 0
    assert pools == [2]
