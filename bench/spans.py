"""Spans around the public entry points of graphnls, recorded from outside.

Each hook replaces one attribute of a graphnls module or class with a
wrapper that records a span (id, name, thread, parent, start, end) and
restores the original on exit. Nothing under ``src/`` is modified: internal
callers pick the wrapper up because they look the name up in their module
(``graphnls.solver.minimize``) or on the class (``Mesh.__init__``) at call
time. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

# per-layer metrics reported by a traced run, with their units
LAYER_METRICS = {
    "functions.mesh_build_s": "s",
    "functions.meshes": "count",
    "functions.assembly_s": "s",
    "energy.gradient_s": "s",
    "energy.gradients": "count",
    "energy.value_s": "s",
    "energy.values": "count",
    "energy.report_s": "s",
    "solver.minimize_s": "s",
    "solver.minimizes": "count",
    "solver.iterations": "count",
    "solver.stages": "count",
    "solver.lu_factor_s": "s",
    "solver.lu_factors": "count",
    "solver.lu_solve_s": "s",
    "solver.lu_solves": "count",
    "solver.self_s": "s",
    "solver.evals_per_iter": "evals/iter",
    "thresholds.certify_s": "s",
    "thresholds.certificates": "count",
    "thresholds.self_s": "s",
    "graphs.partition_enum_s": "s",
    "graphs.partitions": "count",
    "cli.sweep_s": "s",
    "cli.point_s": "s",
    "cli.pool_idle_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """In-memory span recorder shared by every hooked call of one run."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, thread, parent, t0, t1)
        self.notes: list[tuple] = []   # (name, value) observed on results
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0  # open top-level span of the main thread

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            # worker threads (the sweep pool) hang their spans off the span
            # the main thread has open, so a point is a child of its sweep
            top = not stack and threading.current_thread() is threading.main_thread()
            if top:
                self._root = sid
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if top:
                    self._root = 0
                self.spans.append((sid, name, threading.get_ident(), parent, t0, t1))
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, tid, parent, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "thread": tid,
                                     "parent": parent, "start": t0, "end": t1}) + "\n")


class _TracedLU:
    """SuperLU factor whose ``solve`` records a span; other attributes pass
    through."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self.solve = tracer.wrap("solver.lu_solve", lu.solve)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _note_minimize(tracer: Tracer, res) -> None:
    tracer.notes.append(("solver.iterations", res.iterations))
    tracer.notes.append(("solver.stages", len(getattr(res, "r_cut_table", None) or ()) or 1))


def _note_partitions(tracer: Tracer, parts) -> None:
    tracer.notes.append(("graphs.partitions", len(parts)))


def hook_points(gn) -> dict[str, list[tuple]]:
    """Span name -> [(owner, attribute, observer)] for the public callables
    each layer is measured at. ``gn`` maps module names to modules."""
    functions, energy, solver = gn["functions"], gn["energy"], gn["solver"]
    thresholds, cli = gn["thresholds"], gn["cli"]
    return {
        "functions.mesh_build": [(functions.Mesh, "__init__", None)],
        "functions.assembly": [(functions.Mesh, "stiffness_matrix", None),
                               (functions.Mesh, "mass_vector", None)],
        "energy.gradient": [(energy.EnergyOperator, "gradient", None)],
        "energy.value": [(energy.EnergyOperator, "value", None)],
        "energy.report": [(solver, "energy_report", None), (solver, "el_residual", None)],
        "solver.minimize": [(solver, "minimize", _note_minimize)],
        "solver.lu_factor": [(solver, "splu", None)],
        "thresholds.certify": [(thresholds, "certify_nonexistence", None)],
        "thresholds.report": [(thresholds, "threshold_report", None)],
        "graphs.partition_enum": [(thresholds, "enumerate_partitions", _note_partitions)],
        "cli.sweep": [(cli, "main", None)],
        "cli.point": [(cli, "existence_dichotomy", None)],
    }


def _chain(*callbacks):
    callbacks = [f for f in callbacks if f is not None]
    if not callbacks:
        return None
    return lambda tracer, result: [f(tracer, result) for f in callbacks]


@contextlib.contextmanager
def hooks(tracer: Tracer, gn, names=None, observers=None):
    """Install the named hooks (all of them by default) for the duration of
    the block.

    ``observers`` adds a callback (tracer, result) to a hook, run after its
    span closes; the workloads use it to check results they do not call
    directly, such as the dichotomy runs inside a sweep.
    """
    observers = observers or {}
    table = hook_points(gn)
    saved = []
    try:
        for name in table if names is None else names:
            for owner, attr, note in table[name]:
                orig = getattr(owner, attr)
                fn = orig
                if name == "solver.lu_factor":
                    fn = functools.wraps(orig)(lambda *a, _f=orig, **k: _TracedLU(_f(*a, **k), tracer))
                saved.append((owner, attr, orig))
                setattr(owner, attr, tracer.wrap(name, fn, _chain(note, observers.get(name))))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def layer_metrics(spans, notes, rounds: int, workers: int) -> dict[str, float]:
    """Per-layer figures per round of the workload, from the spans and
    result notes recorded while the full hook set was installed."""
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    child_time: dict[int, float] = defaultdict(float)
    for sid, name, tid, parent, t0, t1 in spans:
        total[name] += t1 - t0
        count[name] += 1
    thread_of = {sid: tid for sid, _n, tid, _p, _a, _b in spans}
    for sid, name, tid, parent, t0, t1 in spans:
        # a layer's self time subtracts only children nested in its own
        # thread; pool workers run beside the sweep span, not inside it
        if parent and thread_of.get(parent) == tid:
            child_time[parent] += t1 - t0
    self_time: dict[str, float] = defaultdict(float)
    for sid, name, tid, parent, t0, t1 in spans:
        self_time[name] += (t1 - t0) - child_time[sid]
    noted: dict[str, float] = defaultdict(float)
    for name, value in notes:
        noted[name] += value

    iters = noted["solver.iterations"]
    values = {
        "functions.mesh_build_s": total["functions.mesh_build"],
        "functions.meshes": count["functions.mesh_build"],
        "functions.assembly_s": total["functions.assembly"],
        "energy.gradient_s": total["energy.gradient"],
        "energy.gradients": count["energy.gradient"],
        "energy.value_s": total["energy.value"],
        "energy.values": count["energy.value"],
        "energy.report_s": total["energy.report"],
        "solver.minimize_s": total["solver.minimize"],
        "solver.minimizes": count["solver.minimize"],
        "solver.iterations": iters,
        "solver.stages": noted["solver.stages"],
        "solver.lu_factor_s": total["solver.lu_factor"],
        "solver.lu_factors": count["solver.lu_factor"],
        "solver.lu_solve_s": total["solver.lu_solve"],
        "solver.lu_solves": count["solver.lu_solve"],
        "solver.self_s": self_time["solver.minimize"],
        "solver.evals_per_iter": count["energy.value"] / iters if iters else 0.0,
        "thresholds.certify_s": total["thresholds.certify"],
        "thresholds.certificates": count["thresholds.certify"],
        "thresholds.self_s": self_time["thresholds.certify"] + self_time["thresholds.report"],
        "graphs.partition_enum_s": total["graphs.partition_enum"],
        "graphs.partitions": noted["graphs.partitions"],
        "cli.sweep_s": total["cli.sweep"],
        "cli.point_s": total["cli.point"],
        "cli.pool_idle_s": workers * total["cli.sweep"] - total["cli.point"] if count["cli.sweep"] else 0.0,
    }
    per_round = {k: v / rounds for k, v in values.items()}
    per_round["solver.evals_per_iter"] = values["solver.evals_per_iter"]
    return per_round
