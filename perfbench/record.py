"""Record the reference outputs that check.py compares every invocation with.

usage: python3 perfbench/record.py [WORKLOAD ...]

Run from the root of a checkout, at the commit whose outputs are to be the
reference.  For every seed pool index it runs the workload's invocation once,
with one worker (outputs are byte-identical for any worker count), and
stores each data file's columns in perfbench/reference/<workload>.json.
"""

import json
import shutil
import sys

import check
from run import WORK_DIR, launch
from workloads import POOL_SIZE, WORKLOADS


def record(workload) -> dict:
    run_dir = WORK_DIR / f"record-{workload.name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    entries = {}
    try:
        for index in range(POOL_SIZE):
            config_path = run_dir / "config.json"
            config_path.write_text(json.dumps(workload.config(index)))
            out_dir = run_dir / f"out{index}"
            rc, wall, _, _ = launch(run_dir, workload.cli_args(config_path, out_dir, threads=1))
            if rc != 0:
                raise SystemExit(f"{workload.name} seed {index}: exit code {rc}\n{(run_dir / 'stderr').read_text()}")
            entries[str(index)] = {name: check.read_columns(out_dir / name) for name in workload.outputs}
            print(f"{workload.name} seed {index}: {wall:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"pool_size": POOL_SIZE, "entries": entries}


def main(names) -> int:
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        data = record(WORKLOADS[name])
        (check.REFERENCE_DIR / f"{name}.json").write_text(json.dumps(data, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
