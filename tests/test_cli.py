import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ryddephase import cli
from ryddephase.cli import ConfigError, main, parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

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


def test_minimal_config_fills_defaults():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.ensemble.min_separation == 0.1
    assert cfg.realizations == 100
    assert cfg.mode == "analytic"
    assert cfg.output_format == "csv"
    cyc = cfg.schedule.cycles[0]
    assert cyc.microwave.rabi == 10.0
    assert cyc.microwave.polarization == "pi"
    assert cyc.microwave.pulse_model == "instantaneous"
    assert cyc.channel.c3 == 2.0e5


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
    assert parsed.schedule.cycles[0].channel.c3 == 3.3e5


def test_shipped_fig2_config_echoes_expected_parameters():
    cfg = parse_config((CONFIG_DIR / "fig2.json").read_text())
    assert cfg.ensemble.n_atoms == 100
    assert cfg.ensemble.box_side == 60.0
    assert tuple(cfg.scan_schedules) == (60, 79, 100)
    assert cfg.mode == "analytic"
    # scaling model: c3(100)/c3(60) = (100/60)^4
    s60 = cfg.scan_schedules[60].cycles[0].channel.c3
    s100 = cfg.scan_schedules[100].cycles[0].channel.c3
    assert s100 / s60 == pytest.approx((100.0 / 60.0) ** 4, rel=1e-12)


def test_shipped_cycles_config_is_four_distinct_channels():
    text = (CONFIG_DIR / "cycles.json").read_text()
    cfg = parse_config(text, subcommand="cycles")
    keys = [c.channel.p_key for c in cfg.schedule.cycles]
    assert keys == [(100, 0.5), (99, 0.5), (100, 1.5), (99, 1.5)]
    assert all(c.delta_t == 1.0 for c in cfg.schedule.cycles)
    assert all(c.microwave.rabi == 10.0 for c in cfg.schedule.cycles)
    assert cfg.schedule.total_time == pytest.approx(4.0 * (1.0 + 0.2 * math.pi))


def test_duplicate_scan_n_rejected_with_index():
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["interaction"] = {"model": {"reference_c3": 2.6e4, "reference_n": 60}}
    cfg["scan_n"] = [60, 79, 60]
    with pytest.raises(ConfigError, match=r"scan_n\[2\]: duplicate value 60"):
        parse_config(json.dumps(cfg))


def test_log_grid_requires_positive_start():
    bad = json.loads(json.dumps(MINIMAL))
    bad["grid"] = {"start_us": 0.0, "stop_us": 2.0, "points": 5, "spacing": "log"}
    with pytest.raises(ConfigError, match="start_us"):
        parse_config(json.dumps(bad))


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


def test_rerun_is_byte_identical_and_respects_force(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["realizations"] = 2
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["g2-trace", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["g2-trace", "--config", str(path), "--out", str(out2)]) == 0
    assert (out1 / "g2_trace.csv").read_bytes() == (out2 / "g2_trace.csv").read_bytes()
    # refuse silent overwrite, then allow with --force
    assert main(["g2-trace", "--config", str(path), "--out", str(out1)]) == 1
    assert main(["g2-trace", "--config", str(path), "--out", str(out1), "--force"]) == 0


def test_threaded_run_matches_serial(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["realizations"] = 4
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert main(["g2-trace", "--config", str(path), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["g2-trace", "--config", str(path), "--out", str(out2), "--threads", "3"]) == 0
    assert (out1 / "g2_trace.csv").read_bytes() == (out2 / "g2_trace.csv").read_bytes()


def test_thread_env_variable(tmp_path, monkeypatch):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["realizations"] = 3
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "env", tmp_path / "flag"
    monkeypatch.setenv("RYDDEPHASE_THREADS", "2")
    assert main(["g2-trace", "--config", str(path), "--out", str(out1)]) == 0
    monkeypatch.delenv("RYDDEPHASE_THREADS")
    assert main(["g2-trace", "--config", str(path), "--out", str(out2)]) == 0
    assert (out1 / "g2_trace.csv").read_bytes() == (out2 / "g2_trace.csv").read_bytes()


def test_thread_env_variable_must_be_an_integer(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, MINIMAL)
    monkeypatch.setenv("RYDDEPHASE_THREADS", "abc")
    assert main(["g2-trace", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "config error: RYDDEPHASE_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("source", ["--threads", "RYDDEPHASE_THREADS"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_thread_count_below_one_is_a_config_error(tmp_path, monkeypatch, capsys, source, value):
    path = write_config(tmp_path, MINIMAL)
    argv = ["g2-trace", "--config", str(path), "--out", str(tmp_path / "o")]
    if source == "--threads":
        argv += ["--threads", value]
    else:
        monkeypatch.setenv("RYDDEPHASE_THREADS", value)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"config error: {source}: expected an integer >= 1, got {value}" in err
    assert not (tmp_path / "o").exists()


def test_worker_count_is_clamped_to_realizations_and_cpus(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli._worker_count(500, 1) == 1
    assert cli._worker_count(500, 3) == 3
    assert cli._worker_count(500, 100) == 4
    assert cli._worker_count(2, 100) == 2
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._worker_count(8, 8) == 1


def test_pool_starts_only_the_clamped_worker_count(monkeypatch):
    import concurrent.futures

    started = []
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda max_workers: started.append(max_workers))
    assert cli._make_pool(500, 1) is None
    cli._make_pool(500, 3)
    cli._make_pool(500, 100)
    assert started == [3, 4]


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


def test_config_error_exit_code(tmp_path):
    path = write_config(tmp_path, {"ensemble": {}})
    assert main(["g2-trace", "--config", str(path)]) == 1
    assert main(["g2-trace", "--config", str(tmp_path / "missing.json")]) == 1


def test_non_string_output_dir_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, {"output": {"dir": 5}})
    assert main(["phasematch", "--config", str(path)]) == 1
    assert "config error: output.dir: expected a string path" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    import ryddephase.cli as cli
    from ryddephase.pairdyn import NumericsError

    def synthetic_failure(*args, **kwargs):
        raise NumericsError("synthetic propagator drift")

    monkeypatch.setattr(cli, "g2_trace", synthetic_failure)
    path = write_config(tmp_path, MINIMAL)
    assert main(["g2-trace", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


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
        ({"n": 99, "c3_prime": 0.0, "c3_second": 1.6e5}, "entangle.c3_prime: must be > 0.0"),
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


def test_importing_the_cli_does_not_load_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = "import sys, ryddephase.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


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


def test_oracle_run_report(tmp_path):
    cfg = {"n_atoms": 6, "draws": 10, "seed": 21}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "oracle.json").read_text())
    assert payload["pass"] is True
    assert payload["max_rel_deviation"] <= payload["bound"] == 0.5
    assert len(payload["cases"]) == 10


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


def test_sweep_combinations_writing_one_file_twice_are_a_config_error(tmp_path, capsys):
    base = json.loads(json.dumps(MINIMAL))
    base["realizations"] = 2
    sweep = {"subcommand": "g2-trace", "base": base, "axes": [{"path": "ensemble.n_atoms", "values": [10, 10]}]}
    path = write_config(tmp_path, sweep)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    assert "n_atoms=10/g2_trace.csv would be written twice by one run" in capsys.readouterr().err
    assert not any(p.is_file() for p in out.rglob("*"))


def test_sweep_over_entangle(tmp_path):
    sweep = {
        "subcommand": "entangle",
        "base": {
            "ensemble": {"n_atoms": 12, "box_side_um": 60.0, "seed": 5},
            "entangle": {"n": 99, "c3_prime": 2.0e5, "c3_second": 1.6e5},
            "grid": {"start_us": 0.0, "stop_us": 1.0, "points": 2},
            "realizations": 2,
        },
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
            "ensemble: expected an object, got list",
        ),
    ],
    ids=["g2-trace", "cycles", "entangle", "sweep-base", "sweep-ensemble"],
)
def test_seed_override_of_a_non_object_is_a_config_error(tmp_path, capsys, subcommand, payload, message):
    path = write_config(tmp_path, payload)
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "o"), "--seed", "3"]) == 1
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
    assert "config error: ensemble.n_atoms: must be >= 2, got 1" in capsys.readouterr().err
    assert calls == []


def test_sweep_starts_one_pool_for_all_combinations(tmp_path, monkeypatch):
    import concurrent.futures

    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    base = json.loads(json.dumps(MINIMAL))
    base["realizations"] = 2
    sweep = {"subcommand": "g2-trace", "base": base, "axes": [{"path": "ensemble.n_atoms", "values": [10, 12]}]}
    path = write_config(tmp_path, sweep)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out"), "--threads", "2"]) == 0
    assert pools == [2]
