"""Outside-in span recorder for one ryddephase CLI process and its pool workers.

Wrappers are installed from outside, at the names each calling module
imported (for example `ryddephase.correlation.analytic_pair_amplitudes`), so
no program file changes.  Batched `np.linalg.eigh` is timed through a proxy
put in place of the `np` name that `ryddephase.pairdyn` imported.

Each process appends one JSON line per finished span to `<dir>/<pid>.jsonl`
and flushes it at once: pool workers inherit the wrappers through fork and
exit without running atexit handlers, so nothing may wait for the end.
Timestamps are CLOCK_MONOTONIC nanoseconds, comparable across processes.
"""

import functools
import importlib
import inspect
import json
import os
import time


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class SpanRecorder:
    """Span stack and span file of the current process; reset in fork children."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._fh = None
        self._stack = []
        self._seq = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # the inherited file belongs to the parent (its buffer is always
        # flushed), and the inherited stack describes the parent's calls
        self._fh = None
        self._stack = []

    def _write(self, record: dict) -> None:
        if self._fh is None:
            path = os.path.join(self.out_dir, f"{os.getpid()}.jsonl")
            self._fh = open(path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()

    def run(self, name, fn, args=(), kwargs=None, attrs=None):
        """Call fn(*args, **kwargs) inside a span and record the span."""
        kwargs = kwargs or {}
        self._seq += 1
        span_id = self._seq
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        t0 = now_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = now_ns()
            self._stack.pop()
        record = {"name": name, "pid": os.getpid(), "id": span_id, "parent": parent, "t0": t0, "t1": t1}
        if attrs is not None:
            try:
                record.update(attrs(_bind(fn, args, kwargs), result))
            except (KeyError, AttributeError, TypeError, OSError):
                record["attrs_missing"] = True  # the call's signature changed
        self._write(record)
        return result


def _bind(fn, args, kwargs) -> dict:
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return {}
    bound.apply_defaults()
    return dict(bound.arguments)


def _pairs(n_atoms) -> int:
    return n_atoms * (n_atoms - 1) // 2


# attribute functions: (bound arguments, result) -> extra span fields


def _stack_bytes_trace(a, _):
    return {"stack_bytes": _pairs(a["ensemble"].n_atoms) * len(a["grid"]) * 16}


def _stack_bytes_cycles(a, _):
    return {"stack_bytes": _pairs(a["ensemble"].n_atoms) * len(a["schedule"].cycles) * 16}


def _realization(a, _):
    return {"realization": int(a["args"][-1])}


def _assemble_pairs(a, _):
    return {"pairs": _pairs(a["amps"].n_atoms)}


def _analytic_points(a, _):
    return {"pair_points": len(a["separations"]) * len(a["phase_products"])}


def _numeric_points(a, _):
    return {"pair_points": len(a["separations"]) * len(a["times"])}


def _eigh_matrices(a, _):
    shape = a["a"].shape
    count = 1
    for k in shape[:-2]:
        count *= k
    return {"d": shape[-1], "matrices": count}


def _coherence_terms(a, _):
    grid_points = len(a["grid"])
    return {"terms": a["realizations"] * grid_points * 2 * _pairs(a["ensemble_spec"].n_atoms)}


def _bytes_written(a, _):
    return {"bytes": os.path.getsize(a["path"])}


# (module, attribute path, span name, attribute function)
TARGETS = [
    ("ryddephase.cli", "g2_trace", "correlation.driver", _stack_bytes_trace),
    ("ryddephase.cli", "g2_after_cycles", "correlation.driver", _stack_bytes_cycles),
    ("ryddephase.cli", "g2_from_amplitudes", "correlation.assemble", _assemble_pairs),
    ("ryddephase.cli", "entangle_trace", "protocol.entangle_trace", _coherence_terms),
    ("ryddephase.cli", "_write_csv", "cli.write", _bytes_written),
    ("ryddephase.cli", "_write_json", "cli.write", _bytes_written),
    ("ryddephase.cli", "OutputSession.finish", "cli.manifest", None),
    ("ryddephase.correlation", "_trace_single_realization", "correlation.realization", _realization),
    ("ryddephase.correlation", "_cycles_single_realization", "correlation.realization", _realization),
    ("ryddephase.correlation", "g2_from_amplitudes", "correlation.assemble", _assemble_pairs),
    ("ryddephase.correlation", "AmplitudeSet.from_condensed", "correlation.amplitude_set", None),
    ("ryddephase.correlation", "analytic_pair_amplitudes", "pairdyn.analytic", _analytic_points),
    ("ryddephase.correlation", "numeric_pair_amplitudes", "pairdyn.multichannel", _numeric_points),
    ("ryddephase.correlation", "sample_positions", "ensemble.sample_positions", None),
    ("ryddephase.correlation", "pair_separations", "ensemble.pair_separations", None),
    ("ryddephase.protocol", "sample_positions", "ensemble.sample_positions", None),
    ("ryddephase.protocol", "pair_separations", "ensemble.pair_separations", None),
    ("ryddephase.pairdyn", "np.linalg.eigh", "pairdyn.eigh", _eigh_matrices),
]


def _wrap(recorder, name, fn, attrs):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.run(name, fn, args, kwargs, attrs)

    return wrapper


class _Proxy:
    """Module stand-in: one attribute replaced, every other read delegated."""

    def __init__(self, target, attr, value):
        self._target = target
        setattr(self, attr, value)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _install_one(recorder, module, path, name, attrs) -> bool:
    head, *rest = path.split(".")
    obj = getattr(module, head, None)
    if obj is None:
        return False
    if not rest:
        setattr(module, head, _wrap(recorder, name, obj, attrs))
        return True
    if inspect.isclass(obj):  # a method or classmethod defined on the class
        raw = obj.__dict__.get(rest[0])
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            setattr(obj, rest[0], classmethod(_wrap(recorder, name, raw.__func__, attrs)))
        else:
            setattr(obj, rest[0], _wrap(recorder, name, raw, attrs))
        return True
    # a function reached through an imported module name, e.g. np.linalg.eigh
    parents = [obj]
    for part in rest[:-1]:
        parents.append(getattr(parents[-1], part, None))
        if parents[-1] is None:
            return False
    fn = getattr(parents[-1], rest[-1], None)
    if fn is None:
        return False
    value = _wrap(recorder, name, fn, attrs)
    for parent, attr in zip(reversed(parents), reversed(rest)):
        value = _Proxy(parent, attr, value)
    setattr(module, head, value)
    return True


def install(out_dir: str) -> tuple[SpanRecorder, list[str]]:
    """Install every wrapper; returns the recorder and the targets not found."""
    recorder = SpanRecorder(out_dir)
    missing = []
    for module_name, path, name, attrs in TARGETS:
        module = importlib.import_module(module_name)
        if not _install_one(recorder, module, path, name, attrs):
            missing.append(f"{module_name}.{path}")
    return recorder, missing
