"""Spans around the public functions of each rydnash layer, recorded from
outside the package, and the per-layer metrics derived from them.

``Tracer.install`` replaces every public function of the layer modules with
a recording wrapper, in the defining module and in every rydnash namespace
that imported it by name (``pipeline`` does ``from .dynamics import
evolve``). Three members that are not module functions are wrapped too:
``Schedule.omega_at``, ``Schedule.delta_at`` and the first access of
``RydbergSystem.pair_energy``. A call made inside another wrapped call is
that span's child. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("fileio", "geometry", "game", "indsets", "schedule", "dynamics", "pipeline", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "case", "extra")

    def __init__(self, name, parent, case):
        self.name = name
        self.parent = parent
        self.case = case
        self.start = self.end = 0.0
        self.extra = None

    @property
    def dur(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _propagate_probe(args, kwargs, state):
    system, schedule, step = (_arg(args, kwargs, i, k) for i, k in enumerate(("system", "schedule", "step")))
    times = schedule.breakpoint_times
    substeps = sum(max(1, math.ceil((t1 - t0) / step)) for t0, t1 in zip(times, times[1:]))
    return {"step": step, "n": system.n, "stages": 3 * substeps, "state": state}


def _path_probe(args, kwargs, result):
    return {"path": _arg(args, kwargs, 0, "path")}


_PROBES = {
    "dynamics.propagate": _propagate_probe,
    "pipeline.run_quantum": lambda args, kwargs, result: {"rows": len(result.rows)},
    "fileio.write_report": _path_probe,
    "fileio.write_histogram_csv": _path_probe,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.case = None
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, probe = self.spans, self._stack, _PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.case)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if probe is not None:
                span.extra = probe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"rydnash.{layer}")
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replaced[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if modname == "rydnash" or modname.startswith("rydnash."):
                for attr, obj in list(vars(module).items()):
                    hit = replaced.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(module, attr, hit[1])

        from rydnash.dynamics import RydbergSystem
        from rydnash.schedule import Schedule

        for attr in ("omega_at", "delta_at"):
            setattr(Schedule, attr, self.wrap(f"schedule.{attr}", getattr(Schedule, attr)))
        prop = RydbergSystem.__dict__["pair_energy"]
        prop.func = self.wrap("dynamics.pair_energy", prop.func)

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON lines, without the captured states."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "case": s.case}
                if s.extra:
                    rec.update({k: v for k, v in s.extra.items() if k != "state"})
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans: list[Span], n_cases: int) -> dict[str, float]:
    """Per-layer metrics of one pass over a workload's cases.

    Times are summed over the cases, like ``solve_s``; counts are per case.
    A nested call of the same group (``maximum_independent_sets`` calling
    ``enumerate_mis``) is counted as a call but its time only once.
    """
    import numpy as np

    children = defaultdict(list)
    named = defaultdict(list)
    for i, s in enumerate(spans):
        named[s.name].append(i)
        if s.parent is not None:
            children[s.parent].append(i)

    def calls(*names):
        return sum(len(named[f]) for f in names)

    def total(*names):
        """Time in these functions, outermost calls only."""
        out = 0.0
        for f in names:
            for i in named[f]:
                p = spans[i].parent
                while p is not None and spans[p].name not in names:
                    p = spans[p].parent
                if p is None:
                    out += spans[i].dur
        return out

    def self_time(i, only=None):
        """Span time minus its wrapped children (or only the ``only`` ones)."""
        kids = children[i] if only is None else [c for c in children[i] if spans[c].name in only]
        return spans[i].dur - sum(spans[c].dur for c in kids)

    props = [spans[i] for i in named["dynamics.propagate"]]
    stages = sum(p.extra["stages"] for p in props)
    passes, final_steps, residuals, drifts = [], [], [], []
    for i in named["dynamics.evolve"]:
        runs = [spans[c].extra for c in children[i] if spans[c].name == "dynamics.propagate"]
        passes.append(len(runs))
        final_steps.append(runs[-1]["step"])
        last = runs[-1]["state"].amplitudes
        if len(runs) > 1:
            residuals.append(float(np.linalg.norm(last - runs[-2]["state"].amplitudes)))
        drifts.append(abs(float(np.linalg.norm(last)) - 1.0))
    classify_children = {"pipeline.validate_run", "dynamics.evolve", "dynamics.sample",
                         "indsets.enumerate_mis", "indsets.maximum_independent_sets"}
    writes = ("fileio.write_report", "fileio.write_histogram_csv")
    written = sum(os.path.getsize(spans[i].extra["path"]) for f in writes for i in named[f])
    per_case = 1.0 / n_cases
    return {
        "dynamics.evolve_s": total("dynamics.evolve"),
        "dynamics.passes": sum(passes) / len(passes) if passes else 0.0,
        "dynamics.final_step_us": min(final_steps) if final_steps else 0.0,
        "dynamics.stages": stages * per_case,
        "dynamics.stage_us": total("dynamics.propagate") / stages * 1e6 if stages else 0.0,
        "dynamics.build_s": total("dynamics.pair_energy"),
        "dynamics.sample_s": total("dynamics.sample"),
        "dynamics.state_bytes": max((16 << p.extra["n"] for p in props), default=0),
        "dynamics.residual": max(residuals, default=0.0),
        "dynamics.norm_drift": max(drifts, default=0.0),
        "schedule.calls": calls("schedule.omega_at", "schedule.delta_at") * per_case,
        "schedule.s": total("schedule.omega_at", "schedule.delta_at"),
        "game.nash_calls": calls("game.enumerate_specialized_nash") * per_case,
        "game.nash_s": total("game.enumerate_specialized_nash"),
        "indsets.mis_calls": calls("indsets.enumerate_mis") * per_case,
        "indsets.mis_s": total("indsets.enumerate_mis", "indsets.maximum_independent_sets"),
        "indsets.verify_s": sum(self_time(i) for i in named["indsets.verify_correspondence"]),
        "pipeline.classical_s": total("pipeline.run_classical"),
        "pipeline.quantum_s": total("pipeline.run_quantum"),
        "pipeline.compare_s": total("pipeline.compare"),
        "pipeline.rows": sum(spans[i].extra["rows"] for i in named["pipeline.run_quantum"]) * per_case,
        "pipeline.classify_s": sum(self_time(i, classify_children) for i in named["pipeline.run_quantum"]),
        "geometry.validate_s": total("geometry.validate_embedding", "geometry.ambiguity_warnings"),
        "fileio.load_calls": calls("fileio.load_graph", "fileio.load_game", "fileio.load_schedule") * per_case,
        "fileio.load_s": total("fileio.load_graph", "fileio.load_game", "fileio.load_schedule"),
        "fileio.write_s": total(*writes),
        "fileio.bytes_written": written * per_case,
        "cli.self_s": sum(self_time(i) for i, s in enumerate(spans) if s.name.startswith("cli.")),
    }
