"""Seeded inputs for the benchmark's three workloads.

Every input file the program reads is written here, before any timing, from
the workload name and seed alone: the same seed gives the same files. The
layouts and the reference ramp are fixed in this file rather than read from
the repository, so a later change to the bundled configs cannot silently
change what the benchmark measures. The one exception is paper-graphs: it
passes no ``--schedule`` and so runs the program's own default ramp. Its
aggregate-probability check uses ``reference_ramp(4.0)`` from this file,
which pins that default to the 4 us / 7.27 rad/us reference: if the
program's default ramp changes, paper-graphs fails its check.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import yaml

WORKLOADS = ("paper-graphs", "anneal-chain", "classical-sweep")

SHOTS = 1000

# The program's reference ramp (4 us, peak 7.27 rad/us), as unit shapes.
_OMEGA_SHAPE = ((0.0, 0.0), (0.25, 1.0), (1.25, 1.0), (1.35, 1.0), (3.75, 1.0), (4.0, 0.0))
_DELTA_SHAPE = ((0.0, -1.0), (0.25, -1.0), (1.25, 0.0), (1.35, 0.0), (3.75, 1.0), (4.0, 1.0))
_RAMP_PEAK = 7.27

# The paper's two n=6 layouts, identical to configs/graph_a.yaml and
# configs/graph_b.yaml, with the coupling each needs for the verdict to pass.
_GRAPH_A = (((0.0, 0.0), (6.0, 0.0), (12.0, 0.0), (18.0, 0.0), (9.0, 3 * math.sqrt(3.0)), (15.0, 3 * math.sqrt(3.0))), 8.0, 2.2e6)
_GRAPH_B = (((0.0, 0.0), (6.0, 0.0), (12.0, 0.0), (18.0, 0.0), (6.0, -6.0), (12.0, -6.0)), 7.0, 6e5)

CHAIN_N = 11
CHAIN_SPACING = 6.0  # um; also the unit-disk radius, so only neighbours are edges
CHAIN_C6 = 1e6
CHAIN_DURATION = 1.0  # us

KINGS_SIDE = 5  # 5 x 5 sites, KINGS_VACANCIES of them left empty
KINGS_VACANCIES = 4
KINGS_SPACING = 6.0  # um
KINGS_RADIUS = 9.0  # um; covers the 8.49 um diagonal, not the 12 um next row
KINGS_LAYOUTS = 3


def reference_ramp(duration: float) -> dict:
    """The reference ramp with times scaled to ``duration``, as a schedule
    mapping (the program's ``default_schedule(duration=...)``)."""
    s = duration / 4.0
    return {
        "omega": [[t * s, v * _RAMP_PEAK] for t, v in _OMEGA_SHAPE],
        "delta": [[t * s, v * _RAMP_PEAK] for t, v in _DELTA_SHAPE],
        "duration": duration,
    }


@dataclass(frozen=True)
class Quantum:
    """What the anneal side of an ``all`` case was run with."""

    c6: float
    ramp: dict
    shots: int


@dataclass(frozen=True)
class Case:
    """One ``rydnash`` invocation plus what its outputs are checked against."""

    id: str
    argv: tuple[str, ...]
    out: str
    positions: tuple[tuple[float, float], ...]
    radius: float
    quantum: Quantum | None


@dataclass(frozen=True)
class Inputs:
    cases: tuple[Case, ...]
    graph_files: tuple[str, ...]
    schedule_files: tuple[str, ...]
    probe: str  # the probe.KINDS entry shaped like this workload's hot loop


def _write_yaml(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(data, fh, sort_keys=True, default_flow_style=None)


def _write_graph(path: str, positions, radius: float) -> None:
    _write_yaml(path, {"nodes": [[float(x), float(y)] for x, y in positions], "radius": float(radius)})


def _kings_layout(rng: random.Random) -> tuple[tuple[float, float], ...]:
    sites = [(KINGS_SPACING * c, KINGS_SPACING * r) for r in range(KINGS_SIDE) for c in range(KINGS_SIDE)]
    empty = set(rng.sample(range(len(sites)), KINGS_VACANCIES))
    return tuple(p for k, p in enumerate(sites) if k not in empty)


def build(workload: str, seed: int, workdir: str) -> Inputs:
    """Write the workload's graph and schedule files under ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    sampling_seed = str(seed % 2**32)
    cases, graphs, schedules = [], [], []
    probe = {"paper-graphs": "stages6", "anneal-chain": "stages11", "classical-sweep": "masks18"}.get(workload)

    def all_case(name, positions, radius, c6, duration, schedule_file):
        graph = os.path.join(workdir, f"{name}.yaml")
        _write_graph(graph, positions, radius)
        graphs.append(graph)
        out = os.path.join(workdir, "out", name)
        argv = ["all", "--graph", graph, "--coupling-c", repr(c6), "--shots", str(SHOTS), "--seed", sampling_seed]
        ramp = reference_ramp(duration)
        if schedule_file:
            path = os.path.join(workdir, f"{name}_schedule.yaml")
            _write_yaml(path, ramp)
            schedules.append(path)
            argv += ["--schedule", path]
        argv += ["--out", out]
        cases.append(Case(name, tuple(argv), out, tuple(positions), radius, Quantum(c6, ramp, SHOTS)))

    if workload == "paper-graphs":
        # Default 4 us ramp: no --schedule flag, the program uses its own.
        all_case("graph_a", *_GRAPH_A, 4.0, schedule_file=False)
        all_case("graph_b", *_GRAPH_B, 4.0, schedule_file=False)
    elif workload == "anneal-chain":
        chain = tuple((CHAIN_SPACING * i, 0.0) for i in range(CHAIN_N))
        all_case(f"chain{CHAIN_N}", chain, CHAIN_SPACING, CHAIN_C6, CHAIN_DURATION, schedule_file=True)
    elif workload == "classical-sweep":
        rng = random.Random(seed)
        for k in range(KINGS_LAYOUTS):
            name = f"kings{k}"
            positions = _kings_layout(rng)
            graph = os.path.join(workdir, f"{name}.yaml")
            _write_graph(graph, positions, KINGS_RADIUS)
            graphs.append(graph)
            out = os.path.join(workdir, "out", name)
            argv = ("classical", "--graph", graph, "--out", out)
            cases.append(Case(name, argv, out, positions, KINGS_RADIUS, None))
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return Inputs(tuple(cases), tuple(graphs), tuple(schedules), probe)
