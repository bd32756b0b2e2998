"""Spans around csrk's layer functions, and per-layer metrics from them.

The child process installs a ``Recorder`` after csrk is imported: it replaces
each layer function by a wrapper at the name its caller looks it up under
(``stats`` imports the integrator and increment functions by name), and it
wraps drift and diffusion by patching the problem factories that ``cli``
imports.  Nothing under ``src/`` is edited.  Spans stay in memory and are
written out once the command has finished.

A span is ``[id, parent, name, thread, start, end, thread_cpu, attr]``.  Times
come from ``time.perf_counter`` (one monotonic clock for every thread) and
``time.thread_time``.  A span opened on a worker thread with no open span of
its own takes the main thread's outermost open span as its parent, so the
chunks a thread pool runs belong to the ``stats`` call that dispatched them.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time

# (module, attribute, span name, attribute extractor); the module is the one
# whose global the caller reads at call time.
_PATCHES = (
    ("increments", "uniforms", "streams.uniforms",
     lambda a: {"draws": _size(a[1]) * int(a[3])}),
    ("stats", "sample_batch", "increments.sample_batch", None),
    ("stats", "enumerate_outcomes", "increments.enumerate_outcomes", None),
    ("stats", "compute_step_arrays", "integrator.compute_step_arrays",
     lambda a: {"rows": _rows(a[3]), "cols": _shape(a[3])[-1], "t_n": a[2]}),
    ("stats", "evaluate_dense", "integrator.evaluate_dense",
     lambda a: {"rows": _rows(a[0].y_n)}),
    ("cli", "error_table", "stats.error_table", None),
    ("cli", "dense_error_profile", "stats.dense_error_profile", None),
    ("cli", "exact_weak_expectation", "stats.exact_weak_expectation", None),
    ("cli", "empirical_order", "stats.empirical_order", None),
)
_PROBLEM_FACTORIES = ("linear_problem", "system2d_problem", "ode_problem")


def _shape(x):
    return getattr(x, "shape", ())


def _size(x):
    return int(getattr(x, "size", 1))


def _rows(y):
    shape = _shape(y)
    return int(shape[0]) if len(shape) > 1 else 1


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = None
        self._main = threading.main_thread()

    def wrap(self, name, fn, attr=None):
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            on_main = threading.current_thread() is self._main
            parent = stack[-1] if stack else (None if on_main else self._root)
            if on_main and not stack:
                self._root = sid
            stack.append(sid)
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
                if self._root == sid:
                    self._root = None
                # list.append is atomic, so worker threads need no lock
                self.spans.append([
                    sid, parent, name, threading.get_ident(), t0, t1, cpu,
                    attr(args) if attr else None,
                ])
        return wrapper

    def install(self, csrk_modules):
        """Patch the layer functions in the given ``{name: module}`` map."""
        for mod, attr_name, span, attr in _PATCHES:
            module = csrk_modules[mod]
            setattr(module, attr_name,
                    self.wrap(span, _require(module, attr_name), attr))
        cli = csrk_modules["cli"]
        for factory in _PROBLEM_FACTORIES:
            setattr(cli, factory, self._traced_factory(_require(cli, factory)))

    def _traced_factory(self, factory):
        def make(*args, **kwargs):
            problem = factory(*args, **kwargs)
            return dataclasses.replace(
                problem,
                drift=self.wrap("sde.drift", problem.drift),
                diffusion=self.wrap("sde.diffusion", problem.diffusion),
            )
        return make

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _require(module, name):
    try:
        return getattr(module, name)
    except AttributeError:
        raise SystemExit(
            f"trace: {module.__name__}.{name} is gone; the layer map in "
            "perfbench/spans.py must follow the code"
        ) from None


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


_LAYER_KEYS = (
    ("streams.uniforms", ("calls", "draws", "s")),
    ("increments.sample_batch", ("s", "self_s")),
    ("increments.enumerate_outcomes", ("calls", "s")),
    ("integrator.compute_step_arrays", ("calls", "rows", "s", "self_s", "wait_s")),
    ("integrator.evaluate_dense", ("calls", "rows", "s", "wait_s")),
    ("sde.drift", ("calls", "s")),
    ("sde.diffusion", ("calls", "s")),
)

# counts repeat exactly for a given command; times do not
COUNT_METRICS = (
    "streams.uniforms.calls", "streams.uniforms.draws",
    "increments.enumerate_outcomes.calls",
    "integrator.compute_step_arrays.calls", "integrator.compute_step_arrays.rows",
    "integrator.evaluate_dense.calls", "integrator.evaluate_dense.rows",
    "sde.drift.calls", "sde.diffusion.calls",
    "stats.enum.rows_peak", "stats.enum.bytes_peak",
    "integrator.rows_per_call",
)


def layer_metrics(spans):
    """Per-layer counts and times of one command from its spans.

    ``.s`` is wall time inside the call summed over calls and threads,
    ``.self_s`` leaves out the time covered by its wrapped children (on any
    thread), and ``.wait_s`` is ``.s`` minus the thread's CPU time: time the
    call waited, mostly for the interpreter lock.
    """
    children = {}
    for sid, parent, *_ in spans:
        children.setdefault(parent, []).append(sid)
    by_id = {sp[0]: sp for sp in spans}
    agg = {}
    for sid, _, name, _, t0, t1, cpu, attr in spans:
        kids = [(by_id[k][4], by_id[k][5]) for k in children.get(sid, ())]
        a = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                  "wait_s": 0.0, "rows": 0, "draws": 0})
        a["calls"] += 1
        a["s"] += t1 - t0
        a["self_s"] += (t1 - t0) - _covered(kids, t0, t1)
        a["wait_s"] += max(0.0, (t1 - t0) - cpu)
        if attr:
            a["rows"] += attr.get("rows", 0)
            a["draws"] += attr.get("draws", 0)

    out = {f"{layer}.{key}": agg.get(layer, {}).get(key, 0)
           for layer, keys in _LAYER_KEYS for key in keys}
    out["stats.self_s"] = sum(a["self_s"] for name, a in agg.items()
                              if name.startswith("stats."))
    out["stats.enum.rows_peak"], out["stats.enum.bytes_peak"] = \
        _enum_peak(spans, children, by_id)
    calls = out["integrator.compute_step_arrays.calls"]
    out["integrator.rows_per_call"] = (
        out["integrator.compute_step_arrays.rows"] / calls if calls else 0.0)
    return out


def _enum_peak(spans, children, by_id):
    """Largest stored level of the enumeration tree, in rows and in bytes.

    Computed from batch shapes: the steps of one exact expectation are the
    runs of ``compute_step_arrays`` calls with equal ``t_n``; the rows one
    step produces are the next level of the tree.  The last step's rows are
    reduced on the fly, so they are not stored.  Bytes count one float64 per
    state component plus one for the probability of each row.
    """
    rows_peak = bytes_peak = 0
    for sp in spans:
        if sp[2] != "stats.exact_weak_expectation":
            continue
        steps = []  # [t_n, rows produced, state dimension]
        calls = sorted((by_id[k] for k in children.get(sp[0], ())
                        if by_id[k][2] == "integrator.compute_step_arrays"),
                       key=lambda s: s[4])
        for c in calls:
            attr = c[7]
            if steps and steps[-1][0] == attr["t_n"]:
                steps[-1][1] += attr["rows"]
            else:
                steps.append([attr["t_n"], attr["rows"], attr["cols"]])
        for _, rows, cols in steps[:-1]:
            if rows > rows_peak:
                rows_peak, bytes_peak = rows, rows * (cols + 1) * 8
    return rows_peak, bytes_peak
