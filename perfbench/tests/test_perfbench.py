"""Self-tests of the benchmark harness.

Run from the checkout root: python3 -m pytest perfbench/tests -q
They launch the real CLI, mostly on reduced configs, and take about 30 s.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = ("calls", "matrices.d16", "matrices.d36", "coherence_terms", "pool.workers")


def _tiny(subcommand):
    """A reduced config of the workload shape with this subcommand."""
    name = {"g2-trace": "trace-multichannel", "cycles": "cycles-finite-2w", "entangle": "entangle"}[subcommand]
    cfg = workloads.WORKLOADS[name].config(workloads.DEFAULT_SEED)
    cfg["ensemble"]["n_atoms"] = 12
    cfg["realizations"] = 2
    if "grid" in cfg:
        cfg["grid"]["points"] = 4
    return workloads.WORKLOADS[name], cfg


def _launch(tmp_path, workload, cfg, threads, traced=False, tag="a"):
    run_dir = tmp_path / tag
    run_dir.mkdir()
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(cfg))
    spans_dir = None
    if traced:
        spans_dir = run_dir / "spans"
        spans_dir.mkdir()
    out_dir = run_dir / "out"
    rc, *_ = run.launch(run_dir, workload.cli_args(config_path, out_dir, threads), spans_dir)
    assert rc == 0, (run_dir / "stderr").read_text()
    return out_dir, spans_dir


def _layers(spans_dir):
    recorded = spans.load(spans_dir)
    main_pid = next(s["pid"] for s in recorded if s["name"] == "cli.main")
    return recorded, spans.layer_metrics(recorded, main_pid)


def _result(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(argv) == 0
    return json.loads(buf.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace, section):
    result = _result(["--workload", "entangle", "--seed", "1", "--seconds", "0.1", "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_file_follows_its_format():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in DECLARED["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS)
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_seeds_pick_distinct_recorded_inputs():
    w = workloads.WORKLOADS["entangle"]
    assert w.config(5) == w.config(5)
    assert w.config(workloads.DEFAULT_SEED) != w.config(workloads.HELDOUT_SEED)
    for name in workloads.WORKLOADS:
        data = json.loads((check.REFERENCE_DIR / f"{name}.json").read_text())
        assert sorted(map(int, data["entries"])) == list(range(workloads.POOL_SIZE))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_recorded_references_meet_the_invariants(name):
    w = workloads.WORKLOADS[name]
    data = json.loads((check.REFERENCE_DIR / f"{name}.json").read_text())
    for index, files in data["entries"].items():
        assert check.invariants(w.subcommand, w.config(int(index)), files) == []


def test_output_check_tolerates_reordered_sums_and_rejects_perturbations(tmp_path):
    w = workloads.WORKLOADS["entangle"]
    seed = workloads.HELDOUT_SEED
    cfg = w.config(seed)
    out_dir, _ = _launch(tmp_path, w, cfg, threads=1)
    reference = check.load_reference(w.name, seed % workloads.POOL_SIZE)
    assert check.check_outputs(w, cfg, out_dir, reference) == []

    def perturbed(row, column, factor):
        copy = tmp_path / f"copy-{row}-{column}-{factor}"
        shutil.copytree(out_dir, copy)
        path = copy / "entangle.csv"
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[row + 1].split(",")
        k = header.index(column)
        cells[k] = repr(float(cells[k]) * factor)
        lines[row + 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return check.check_outputs(w, cfg, copy, reference)

    assert perturbed(7, "F", 1 + 4e-16) == []  # the size of a reordered sum
    assert perturbed(7, "F", 1 + 1e-7) != []
    assert perturbed(30, "abs_m2", 1 - 1e-6) != []


def test_invariant_breaches_are_reported():
    files = {"entangle.csv": {"t_us": [0.0, 1.0], "F": [0.5000000001, 0.9], "abs_m1": [1.0, 0.1], "abs_m2": [1.0, 0.1]}}
    assert check.invariants("entangle", {}, files)
    files["entangle.csv"]["F"] = [0.5, 1.2]
    assert check.invariants("entangle", {}, files)
    n = 60
    flat = ((n - 1) / n) ** 2
    rows = {"g2_mean": [0.6, 0.5], "f_mean": [flat, 0.4], "h_mean": [flat, 0.4]}
    assert check.invariants("cycles", {"ensemble": {"n_atoms": n}}, {"cycles.csv": rows}) == []
    rows["h_mean"] = [flat * (1 + 1e-12), 0.4]
    assert check.invariants("cycles", {"ensemble": {"n_atoms": n}}, {"cycles.csv": rows})
    rows = {"g2_mean": [0.6, -1e-9], "f_mean": [0.5, 0.4], "h_mean": [0.5, 0.4]}
    assert check.invariants("g2-trace", {}, {"g2_trace.csv": rows})
    rows = {"g2_mean": [0.6, 0.5], "f_mean": [0.5, math.nan], "h_mean": [0.5, 0.4]}
    assert check.invariants("g2-trace", {}, {"g2_trace.csv": rows})


def _counts(layers):
    return {k: v for k, v in layers.items() if k.endswith(COUNTS)}


@pytest.mark.parametrize("subcommand", ["g2-trace", "entangle"])
def test_traced_counts_repeat_exactly(tmp_path, subcommand):
    w, cfg = _tiny(subcommand)
    _, first = _launch(tmp_path, w, cfg, threads=1, traced=True, tag="a")
    _, second = _launch(tmp_path, w, cfg, threads=1, traced=True, tag="b")
    counts = _counts(_layers(first)[1])
    assert counts == _counts(_layers(second)[1])
    if subcommand == "g2-trace":
        # two cycles (j = 1/2, 3/2) x 2 realizations, one batch of 66 pairs each,
        # plus the two fixed pulse propagators of every call
        assert counts["pairdyn.multichannel.calls"] == 4
        assert counts["pairdyn.eigh.matrices.d16"] == 2 * (66 + 2)
        assert counts["pairdyn.eigh.matrices.d36"] == 2 * (66 + 2)
        assert counts["correlation.assemble.calls"] == 2 * 4
    else:
        assert counts["protocol.coherence_terms"] == 2 * 4 * 2 * 66


def test_traced_run_covers_pool_workers(tmp_path):
    w, cfg = _tiny("cycles")
    _, spans_dir = _launch(tmp_path, w, cfg, threads=2, traced=True)
    recorded, layers = _layers(spans_dir)
    main_pid = next(s["pid"] for s in recorded if s["name"] == "cli.main")
    realizations = [s for s in recorded if s["name"] == "correlation.realization"]
    assert sorted(s["realization"] for s in realizations) == [0, 1]
    assert all(s["pid"] != main_pid for s in realizations)
    assert layers["pool.workers"] == 2
    worker_eigh = [s for s in recorded if s["name"] == "pairdyn.eigh" and s["pid"] != main_pid]
    # four finite-duration cycles, two eigh per pair each (interval and pulses)
    assert sum(s["matrices"] for s in worker_eigh) == 2 * 4 * 2 * 66
    assert layers["correlation.realization_s.max"] > 0
    # worker spans hang under the driver, so its self time excludes them
    assert 0 <= layers["correlation.driver.self_s"] < layers["correlation.realization_s.max"] + 1.0


def test_cycles_data_identical_at_one_and_two_workers(tmp_path):
    w, cfg = _tiny("cycles")
    one, _ = _launch(tmp_path, w, cfg, threads=1, tag="one")
    two, _ = _launch(tmp_path, w, cfg, threads=2, tag="two")
    assert (one / "cycles.csv").read_bytes() == (two / "cycles.csv").read_bytes()


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        {"name": "a", "pid": 1, "id": 1, "parent": None, "t0": 0, "t1": 100},
        {"name": "b", "pid": 1, "id": 2, "parent": 1, "t0": 10, "t1": 30},
        {"name": "w", "pid": 2, "id": 1, "parent": None, "t0": 20, "t1": 60},
        {"name": "w", "pid": 3, "id": 1, "parent": None, "t0": 50, "t1": 70},
    ]
    assert spans.self_times(recorded, main_pid=1) == [40, 20, 40, 20]


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "entangle", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
