"""Reading and writing the on-disk formats: graph, game, and schedule YAML
files, histogram CSV exports, and structured report files.

All schemas are documented in the README. Parsers reject unknown fields so a
typo fails loudly instead of being silently ignored, and parse errors carry
the file path (plus the line for YAML syntax errors), as do values that
parse but that the domain types refuse. Writers emit sorted keys and
repr-exact floats, so identical data produces byte-identical files.
"""

from __future__ import annotations

import os
from dataclasses import fields
from typing import Any

import yaml

from .errors import ConfigError, RydnashError
from .game import GameParams
from .geometry import EmbeddedGraph, build_unit_disk_graph
from .schedule import Schedule

_GRAPH_FIELDS = {"nodes", "radius", "labels"}
_GAME_FIELDS = {"e_star", "cost", "benefit"}
_SCHEDULE_FIELDS = {"omega", "delta", "duration"}

# libyaml's emitter writes the same bytes as the pure-Python one, about four
# times faster on a report of a few hundred readouts.
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

HISTOGRAM_COLUMNS = ("bitstring", "count", "probability", "energy", "is_independent", "is_maximal", "is_mis")


def _load_mapping(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: file not found") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark is not None else ""
        raise ConfigError(f"{path}{where}: not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level, got {type(data).__name__}")
    return data


def _reject_unknown(data: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown fields {unknown}; allowed fields are {sorted(allowed)}")


def _number(value, path: str, field: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: field {field!r} must be a number, got {value!r}")
    return float(value)


def _construct(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a refused value reported as a
    ConfigError that names ``path``."""
    try:
        return build(*args, **kwargs)
    except RydnashError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_graph(path: str) -> EmbeddedGraph:
    """Parse a graph file: ``nodes`` (list of [x, y] in um), ``radius`` (um),
    optional ``labels`` (list of strings, annotation only)."""
    data = _load_mapping(path)
    _reject_unknown(data, _GRAPH_FIELDS, path)
    for field in ("nodes", "radius"):
        if field not in data:
            raise ConfigError(f"{path}: missing required field {field!r}")
    nodes = data["nodes"]
    if not isinstance(nodes, list) or not nodes:
        raise ConfigError(f"{path}: 'nodes' must be a nonempty list of [x, y] pairs")
    points = []
    for k, entry in enumerate(nodes):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError(f"{path}: nodes[{k}] must be an [x, y] pair, got {entry!r}")
        points.append((_number(entry[0], path, f"nodes[{k}][0]"), _number(entry[1], path, f"nodes[{k}][1]")))
    radius = _number(data["radius"], path, "radius")
    labels = data.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != len(points)
            or any(not isinstance(s, str) for s in labels)
        ):
            raise ConfigError(f"{path}: 'labels' must be a list of {len(points)} strings")
    return _construct(path, build_unit_disk_graph, points, radius)


def load_game(path: str) -> GameParams:
    """Parse a game parameter file: ``e_star``, ``cost``, ``benefit``."""
    data = _load_mapping(path)
    _reject_unknown(data, _GAME_FIELDS, path)
    kwargs: dict[str, Any] = {}
    if "e_star" in data:
        kwargs["e_star"] = _number(data["e_star"], path, "e_star")
    if "cost" in data:
        kwargs["c"] = _number(data["cost"], path, "cost")
    if "benefit" in data:
        if not isinstance(data["benefit"], str):
            raise ConfigError(f"{path}: 'benefit' must be a string")
        kwargs["benefit"] = data["benefit"]
    return _construct(path, GameParams, **kwargs)


def _waveform(data: dict, field: str, path: str) -> tuple[tuple[float, float], ...]:
    raw = data.get(field)
    if not isinstance(raw, list) or any(not isinstance(p, list) or len(p) != 2 for p in raw):
        raise ConfigError(f"{path}: {field!r} must be a list of [time, value] pairs")
    return tuple(
        (_number(p[0], path, f"{field}[{k}][0]"), _number(p[1], path, f"{field}[{k}][1]"))
        for k, p in enumerate(raw)
    )


def load_schedule(path: str) -> Schedule:
    """Parse a schedule file: ``omega`` and ``delta`` breakpoint lists plus
    ``duration``; times in us, values in rad/us."""
    data = _load_mapping(path)
    _reject_unknown(data, _SCHEDULE_FIELDS, path)
    for field in ("omega", "delta", "duration"):
        if field not in data:
            raise ConfigError(f"{path}: missing required field {field!r}")
    return _construct(
        path,
        Schedule,
        omega=_waveform(data, "omega", path),
        delta=_waveform(data, "delta", path),
        duration=_number(data["duration"], path, "duration"),
    )


def save_graph(path: str, graph: EmbeddedGraph, labels: list[str] | None = None) -> None:
    data: dict[str, Any] = {
        "nodes": [[x, y] for x, y in graph.positions],
        "radius": graph.radius,
    }
    if labels is not None:
        data["labels"] = list(labels)
    _write_yaml(path, data, header=("unit-disk graph: coordinates and radius in um",))


def save_game(path: str, params: GameParams) -> None:
    data = {"e_star": params.e_star, "cost": params.c, "benefit": params.benefit}
    _write_yaml(path, data, header=("public-goods game parameters",))


def save_schedule(path: str, schedule: Schedule) -> None:
    data = {
        "omega": [[t, v] for t, v in schedule.omega],
        "delta": [[t, v] for t, v in schedule.delta],
        "duration": schedule.duration,
    }
    _write_yaml(path, data, header=("piecewise-linear drive waveforms", "times in us, values in rad/us"))


def _write_yaml(path: str, data: dict, header: tuple[str, ...] = ()) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        yaml.dump(data, fh, Dumper=_DUMPER, sort_keys=True, default_flow_style=None)


def write_report(path: str, data: dict) -> None:
    """Write a structured report; keys sorted so output is byte-stable."""
    _write_yaml(path, data)


def read_report(path: str) -> dict:
    return _load_mapping(path)


def _csv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_histogram_csv(path: str, rows) -> None:
    """Write classification rows using the documented histogram columns.

    Each row is a dataclass whose fields come in ``HISTOGRAM_COLUMNS`` order
    (``pipeline.BitstringRow``).
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(HISTOGRAM_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_csv_value(getattr(row, f.name)) for f in fields(row)) + "\n")


def write_schedule_series(path: str, schedule: Schedule, samples: int = 401) -> None:
    """Emit a ready-to-plot (time, omega, delta) series CSV."""
    import numpy as np

    ts = np.linspace(0.0, schedule.duration, samples)
    om = schedule.omega_at(ts)
    de = schedule.delta_at(ts)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_us,omega_rad_per_us,delta_rad_per_us\n")
        for t, o, d in zip(ts, om, de):
            fh.write(f"{float(t)!r},{float(o)!r},{float(d)!r}\n")
