"""Reading and writing the on-disk formats: graph, game, and schedule YAML
files, histogram CSV exports, and structured report files.

All schemas are documented in the README. Parsers reject unknown fields so a
typo fails loudly instead of being silently ignored, and parse errors carry
the file path (plus the line for YAML syntax errors), as do values that
parse but that the domain types refuse. Reading goes through libyaml when
PyYAML is built with it.

Every YAML file is written by ``_dump``, which writes byte for byte what
PyYAML's safe representer and emitter write with sorted keys and
``default_flow_style=None``, for the values rydnash writes: mappings
with ``str`` keys, lists, ``bool``, ``int``, ``float`` and ``str`` made of
``[0-9A-Za-z_]``, with no list or mapping object appearing twice (PyYAML
would write the second as an alias). Keys are sorted at every level, floats
are repr-exact, and a list or mapping of scalars only is written in flow
style. Any other value raises TypeError, so identical data produces
byte-identical files.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import fields
from typing import Any

import yaml

from .errors import ConfigError, RydnashError
from .game import GameParams
from .geometry import EmbeddedGraph, build_unit_disk_graph
from .schedule import Schedule

_GRAPH_FIELDS = {"nodes", "radius"}
_GAME_FIELDS = {"e_star", "cost", "benefit"}
_SCHEDULE_FIELDS = {"omega", "delta", "duration"}

# libyaml's parser reads a report of a few hundred readouts about six times
# faster than the pure-Python one, into the same values.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

HISTOGRAM_COLUMNS = ("bitstring", "count", "probability", "energy", "is_independent", "is_maximal", "is_mis")


def _load_mapping(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_LOADER)
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
    """Parse a graph file: ``nodes`` (list of [x, y] in um) and ``radius`` (um)."""
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


def save_graph(path: str, graph: EmbeddedGraph) -> None:
    data = {"nodes": [[x, y] for x, y in graph.positions], "radius": graph.radius}
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
    text = "".join(f"# {line}\n" for line in header) + _dump(data)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# What PyYAML's emitter does with this grammar: a flow item that would start
# past column _WIDTH goes on a new line instead, and a mapping key of
# _SIMPLE_KEY characters or more would be written in the explicit "? " form,
# which rydnash never needs, so such a key is refused.
_WIDTH = 80
_SIMPLE_KEY = 128
_WORD = re.compile(r"[0-9A-Za-z_]+")
_RESOLVER = yaml.resolver.Resolver()
_STR_TAG = "tag:yaml.org,2002:str"


@functools.lru_cache(maxsize=4096)
def _str_text(value: str) -> str | None:
    """``value`` as PyYAML writes it, single-quoted exactly when it would read
    back as something else (``'100110'``, ``'true'``); None if outside the
    grammar."""
    if not _WORD.fullmatch(value):
        return None
    if _RESOLVER.resolve(yaml.ScalarNode, value, (True, False)) == _STR_TAG:
        return value
    return f"'{value}'"


_FLOAT_WORDS = {"inf": ".inf", "-inf": "-.inf", "nan": ".nan"}


def _float_text(value: float) -> str:
    """PyYAML's ``represent_float``: repr, with ``.0`` before a bare exponent."""
    text = repr(value)
    if "e" in text and "." not in text:
        return text.replace("e", ".0e", 1)
    return _FLOAT_WORDS.get(text, text)


def _scalar_text(value) -> str | None:
    """A scalar's text, or None if ``value`` is no scalar of the grammar."""
    kind = type(value)
    if kind is str:
        return _str_text(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if kind is float:
        return _float_text(value)
    return None


def _refused(value, key) -> TypeError:
    return TypeError(
        f"cannot write {value!r} under key {key!r}: not a list, a mapping with str keys, "
        "a bool, int or float, or a str of [0-9A-Za-z_]"
    )


def _key_text(key) -> str:
    text = _str_text(key) if type(key) is str and len(key) < _SIMPLE_KEY else None
    if text is None:
        raise _refused(key, key)
    return text


def _sorted_keys(mapping: dict, key) -> list:
    try:
        return sorted(mapping)
    except TypeError:
        raise _refused(mapping, key) from None


def _flow_texts(value, key) -> list[str] | None:
    """The item texts of a list or mapping of scalars only (flow style), else None."""
    texts = []
    if type(value) is list:
        for item in value:
            text = _scalar_text(item)
            if text is None:
                return None
            texts.append(text)
    elif type(value) is dict:
        for k in _sorted_keys(value, key):
            text = _scalar_text(value[k])
            if text is None:
                return None
            texts.append(f"{_key_text(k)}: {text}")
    else:
        return None
    return texts


def _flow(out: list, opener: str, texts: list[str], closer: str, col: int, indent: int) -> None:
    """A flow collection whose opener is at column ``col``. An item that would
    start past column _WIDTH starts a new line at ``indent`` instead."""
    pad = "\n" + " " * indent
    out.append(opener)
    col += 1
    for i, text in enumerate(texts):
        if i:
            out.append(",")
            col += 1
        if col > _WIDTH:
            out.append(pad)
            col = indent
        elif i:
            out.append(" ")
            col += 1
        out.append(text)
        col += len(text)
    out.append(closer)


def _node(out: list, value, indent: int, col: int, key, after_key: bool) -> None:
    """``value`` after a mapping key's ``:`` (``after_key``) or a sequence
    item's ``-``, in a block collection at ``indent``; the indicator ends at
    column ``col``. A block sequence under a key is not indented."""
    text = _scalar_text(value)
    if text is not None:
        out.append(" " + text)
        return
    texts = _flow_texts(value, key)
    if texts is not None:
        out.append(" ")
        opener, closer = ("[", "]") if type(value) is list else ("{", "}")
        _flow(out, opener, texts, closer, col + 1, indent + 2)
    elif type(value) in (dict, list):
        inner = indent if after_key and type(value) is list else indent + 2
        lead = "\n" + " " * inner if after_key else " "
        block = _block_mapping if type(value) is dict else _block_sequence
        block(out, value, inner, lead, key)
    else:
        raise _refused(value, key)


def _block_mapping(out: list, mapping: dict, indent: int, lead: str, key) -> None:
    """A block mapping at ``indent``, with ``lead`` written before its first key."""
    pad = "\n" + " " * indent
    for k in _sorted_keys(mapping, key):
        text = _key_text(k)
        out.append(lead + text + ":")
        lead = pad
        _node(out, mapping[k], indent, indent + len(text) + 1, k, True)


def _block_sequence(out: list, items: list, indent: int, lead: str, key) -> None:
    """A block sequence at ``indent``, with ``lead`` written before its first ``-``."""
    pad = "\n" + " " * indent
    for item in items:
        out.append(lead + "-")
        lead = pad
        _node(out, item, indent, indent + 1, key, False)


def _dump(data: dict) -> str:
    """``data`` as YAML text, for the grammar in the module docstring."""
    if type(data) is not dict:
        raise _refused(data, None)
    out: list[str] = []
    texts = _flow_texts(data, None)
    if texts is None:
        _block_mapping(out, data, 0, "", None)
    else:
        _flow(out, "{", texts, "}", 0, 2)
    out.append("\n")
    return "".join(out)


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
