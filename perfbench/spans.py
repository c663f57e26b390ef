"""Per-layer metrics from the spans one traced CLI invocation recorded.

A span's self time is its duration minus the part of it that its child spans
cover (the union of their intervals, so parallel children count once).
Spans of pool workers have no parent in their own process; each is attached
to the innermost span of the main process whose interval contains it, which
is the realization driver that waited for it.
"""

import json
import statistics
from pathlib import Path


def load(spans_dir: Path) -> list:
    spans = []
    for path in sorted(spans_dir.glob("*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _covered(intervals, lo, hi) -> int:
    total, end = 0, lo
    for t0, t1 in sorted(intervals):
        t0, t1 = max(t0, end), min(t1, hi)
        if t1 > t0:
            total += t1 - t0
            end = t1
    return total


def self_times(spans: list, main_pid: int) -> list:
    """Self time (ns) of every span, in the order given."""
    children = {}
    main_spans = [s for s in spans if s["pid"] == main_pid]
    for s in spans:
        key = (s["pid"], s["parent"]) if s["parent"] is not None else None
        if key is None and s["pid"] != main_pid:
            holders = [m for m in main_spans if m["t0"] <= s["t0"] and s["t1"] <= m["t1"]]
            if holders:
                holder = max(holders, key=lambda m: m["t0"])
                key = (main_pid, holder["id"])
        if key is not None:
            children.setdefault(key, []).append((s["t0"], s["t1"]))
    return [
        s["t1"] - s["t0"] - _covered(children.get((s["pid"], s["id"]), []), s["t0"], s["t1"])
        for s in spans
    ]


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans: list, main_pid: int) -> dict:
    """Every per-layer metric of one traced invocation (0 where a layer did no work)."""
    groups = {}
    for s, own in zip(spans, self_times(spans, main_pid)):
        groups.setdefault(s["name"], []).append((s, own))

    def calls(name):
        return len(groups.get(name, []))

    def self_s(name):
        return sum(own for _, own in groups.get(name, [])) / 1e9

    def total(name, field):
        return sum(s.get(field, 0) for s, _ in groups.get(name, []))

    def durations(name):
        return [(s["t1"] - s["t0"]) / 1e9 for s, _ in groups.get(name, [])]

    realization_s = durations("correlation.realization")
    eigh = [s for s, _ in groups.get("pairdyn.eigh", [])]
    stack_bytes = [s.get("stack_bytes", 0) for s, _ in groups.get("correlation.driver", [])]
    m = {
        "cli.self_s": self_s("cli.main"),
        "cli.write.self_s": self_s("cli.write"),
        "cli.write.bytes": total("cli.write", "bytes"),
        "cli.manifest.self_s": self_s("cli.manifest"),
        "correlation.driver.self_s": self_s("correlation.driver") + self_s("correlation.realization"),
        "correlation.realization_s.p50": statistics.median(realization_s) if realization_s else 0.0,
        "correlation.realization_s.max": max(realization_s, default=0.0),
        "correlation.stack_mb": max(stack_bytes, default=0) / 1e6,
        "correlation.assemble.calls": calls("correlation.assemble"),
        "correlation.assemble.self_s": self_s("correlation.assemble"),
        "correlation.assemble.ns_per_pair": _ratio(self_s("correlation.assemble"), total("correlation.assemble", "pairs"), 1e9),
        "correlation.amplitude_set.calls": calls("correlation.amplitude_set"),
        "correlation.amplitude_set.self_s": self_s("correlation.amplitude_set"),
        "ensemble.sample_positions.calls": calls("ensemble.sample_positions"),
        "ensemble.sample_positions.self_s": self_s("ensemble.sample_positions"),
        "ensemble.pair_separations.self_s": self_s("ensemble.pair_separations"),
        "protocol.entangle_trace.self_s": self_s("protocol.entangle_trace"),
        "protocol.coherence_terms": total("protocol.entangle_trace", "terms"),
        "protocol.ns_per_term": _ratio(self_s("protocol.entangle_trace"), total("protocol.entangle_trace", "terms"), 1e9),
        "pool.workers": len({s["pid"] for s in spans} - {main_pid}),
    }
    for layer in ("analytic", "multichannel"):
        name = f"pairdyn.{layer}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.ns_per_pair_point"] = _ratio(self_s(name), total(name, "pair_points"), 1e9)
    m["pairdyn.eigh.calls"] = calls("pairdyn.eigh")
    m["pairdyn.eigh.self_s"] = self_s("pairdyn.eigh")
    for d in (16, 36):
        sized = [s for s in eigh if s.get("d") == d]
        matrices = sum(s["matrices"] for s in sized)
        busy_s = sum(s["t1"] - s["t0"] for s in sized) / 1e9
        m[f"pairdyn.eigh.matrices.d{d}"] = matrices
        m[f"pairdyn.eigh.us_per_matrix.d{d}"] = _ratio(busy_s, matrices, 1e6)
    m["trace.main_s"] = sum(durations("cli.main"))
    return m
