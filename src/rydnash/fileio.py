"""Reading and writing the on-disk formats: graph, game, and schedule YAML
files, histogram CSV exports, and structured report files.

Every YAML file is the mapping of one dataclass (``EmbeddedGraph``,
``GameParams``, ``Schedule`` or a result of ``rydnash.pipeline``), written
by ``to_mapping`` and read by ``from_mapping``: one key per field, named
after the field unless ``_FILE_KEYS`` renames it. A derived field, one its
class sets in ``__post_init__`` from the others (``field(init=False)``), is
written like any other, and read back only as a check: the object is built
from the other keys, and a derived key that differs from what it computed
is refused. ``load`` reads every such file and ``write_report`` writes a
report. All schemas are documented in the README. Parse errors carry the
file path (plus the line for YAML syntax errors), as do values that parse
but that the domain types refuse.

A file that is, below a header of ``#`` comment lines, exactly what
``_dump`` writes (every report, every bundled config) is read without
importing PyYAML. Any other YAML is read by PyYAML, through libyaml when
PyYAML is built with it.

Every YAML file is written by ``_dump``, which writes byte for byte what
PyYAML's safe representer and emitter write with sorted keys and
``default_flow_style=None``, for the values rydnash writes: mappings
with ``str`` keys, lists, ``bool``, ``int``, ``float`` and ``str`` made of
``[0-9A-Za-z_]``, with no list or mapping object appearing twice (PyYAML
would write the second as an alias). Keys are sorted at every level, floats
are repr-exact, and a list or mapping of scalars only is written in flow
style. Any other value raises TypeError, so identical data produces
byte-identical files. Every file, YAML or CSV, is written to a sibling
temporary name and moved into place with ``os.replace``.
"""

from __future__ import annotations

import functools
import io
import os
import re
import reprlib
from dataclasses import MISSING, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError, RydnashError
from .game import GameParams
from .geometry import EmbeddedGraph
from .schedule import Schedule

HISTOGRAM_COLUMNS = ("bitstring", "count", "probability", "energy", "is_independent", "is_maximal", "is_mis")
#: Most mappings and sequences a YAML collection may sit inside. libyaml's
#: composer recurses in C once per level on the calling thread's stack: on
#: the main thread with Linux's default 8 MiB stack (``ulimit -s 8192``) it
#: read 2 * 10**4 levels and crashed at 3 * 10**4. This bound assumes such a
#: stack; a thread or shell with a smaller one may still crash below 2 * 10**4.
MAX_YAML_DEPTH = 10_000
#: Rows of a schedule series: evenly spaced times from 0 to the duration.
SERIES_SAMPLES = 401

#: File keys that differ from the names of the fields they come from.
_FILE_KEYS = {
    "positions": "nodes",
    "c": "cost",
    "nash": "nash_supports",
    "maximal_sets": "maximal_independent_sets",
    "maximum_sets": "maximum_independent_sets",
    "rows": "classification",
}


@functools.cache
def _schema(cls) -> tuple[tuple[str, str, object, bool, bool], ...]:
    """(field, file key, type hint, required, derived) of each field of a
    dataclass, in field order: a field is required when it has no default,
    and derived when its class sets it (``init=False``)."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, _FILE_KEYS.get(f.name, f.name), hints[f.name],
         f.default is MISSING and f.default_factory is MISSING, not f.init)
        for f in fields(cls)
    )


def to_mapping(obj) -> dict:
    """The file mapping of a dataclass: one key per field."""
    return {key: _value(getattr(obj, name)) for name, key, _, _, _ in _schema(type(obj))}


#: Values written as they are; checked first, so each field of a readout row
#: costs one set lookup.
_PLAIN = frozenset((str, int, float, bool))


def _value(value):
    """Tuples as lists, and a nested dataclass (a readout row, a violation, the
    verdicts) as its own mapping."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, tuple):
        return [_value(item) for item in value]
    if is_dataclass(value):
        return to_mapping(value)
    return value


def from_mapping(cls, data: dict):
    """The dataclass ``cls`` read from its file mapping ``data``.

    Unknown keys are refused, and a key is required exactly when its field
    has no default. Each value must fit its field's type hint: a tuple is
    read from a list, item by item, and a nested dataclass or a dict from a
    mapping; a float takes an int or a float, never a bool. A derived
    (``init=False``) value must also equal what ``cls`` computes from the
    other values. A ``data`` that is no mapping raises TypeError naming
    ``cls``, and every other refusal, a missing key at any depth included,
    TypeError or ValueError naming its place in the file.
    """
    if type(data) is not dict:
        raise TypeError(f"{cls.__name__} is read from a mapping, got {type(data).__name__}")
    return _instance(cls, data, "")


def _instance(cls, data: dict, where: str):
    """``from_mapping`` for the mapping at ``where``, empty at the top."""
    at = f"{where!r}: " if where else ""
    allowed = [key for _, key, _, _, _ in _schema(cls)]
    unknown = sorted(set(data).difference(allowed), key=str)
    if unknown:
        raise ValueError(f"{at}unknown fields {reprlib.repr(unknown)}; allowed fields are {sorted(allowed)}")
    values, derived = {}, []
    for name, key, hint, required, is_derived in _schema(cls):
        place = f"{where}.{key}" if where else key
        if key in data and is_derived:
            derived.append((name, place, _read(hint, data[key], place)))
        elif key in data:
            values[name] = _read(hint, data[key], place)
        elif required:
            raise TypeError(f"{at}missing required field {key!r}")
    obj = cls(**values)
    for name, place, value in derived:
        if value != getattr(obj, name):
            raise _mismatch(place, value, getattr(obj, name))
    return obj


def _mismatch(place: str, read, computed) -> ValueError:
    """A derived value that differs from what its class computed; both are
    shown as written, a mapping by the keys where they differ, shortened."""
    if type(read) is dict:
        pairs = ((read, computed), (computed, read))
        read, computed = ({k: v for k, v in a.items() if b.get(k) != v} for a, b in pairs)
    read, computed = (reprlib.repr(_value(v)) for v in (read, computed))
    return ValueError(f"{place!r} is {read}, but the other fields give {computed}")


_KINDS = {str: "a string", int: "an integer", float: "a number", bool: "a bool"}


def _read(hint, value, where: str):
    """``value`` read as type ``hint``; ``where`` is its place in the file."""
    kind = type(value)
    if hint in _KINDS:
        if kind is hint:
            return value
        if hint is float and kind is int:
            return float(value)
        why = _text_float(value) if hint is float and kind is str else ""
        raise TypeError(f"{where!r} must be {_KINDS[hint]}, got {reprlib.repr(value)}{why}")
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:
        if kind is not list:
            raise TypeError(f"{where!r} must be a list, got {reprlib.repr(value)}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise TypeError(f"{where!r} must be a list of {len(args)} items, got {reprlib.repr(value)}")
        return tuple(_read(arg, item, f"{where}[{k}]") for k, (arg, item) in enumerate(zip(args, value)))
    if kind is not dict:
        raise TypeError(f"{where!r} must be a mapping, got {reprlib.repr(value)}")
    if origin is dict:
        return {_read(args[0], k, where): _read(args[1], v, f"{where}[{reprlib.repr(k)}]") for k, v in value.items()}
    return _instance(hint, value, where)


def _text_float(value: str) -> str:
    """Why a string that Python reads as a float is still refused: YAML 1.1
    reads ``9e0`` or ``1.5e6`` as text, and a spelling that reads as the
    float; empty if ``value`` is no float at all."""
    try:
        number = float(value)
    except ValueError:
        return ""
    return f", which YAML 1.1 reads as text (a float needs a '.', and its exponent a sign); write {_float_text(number)}"


def read_report(path: str) -> dict:
    """The mapping at the top of the YAML file at ``path``; a ConfigError
    naming the file if it cannot be read as UTF-8 text or holds no such
    mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"{path}: file not found") from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    data = _read_canonical(text)
    if data is None:
        data = _read_yaml(path, text)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level, got {type(data).__name__}")
    return data


def _read_yaml(path: str, text: str):
    """``text`` read by PyYAML, through libyaml when PyYAML has it; a
    ConfigError naming the file, and the line if known, if it is not YAML
    or nests too deeply to read.

    The parser's events are counted before anything is composed: libyaml's
    composer recurses once per level on the C stack, so a collection inside
    more than ``MAX_YAML_DEPTH`` others is refused first.
    """
    import yaml

    stream = io.StringIO(text)
    stream.name = path  # PyYAML's error messages name the stream
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        depth = 0
        for event in yaml.parse(stream, Loader=loader):
            if isinstance(event, yaml.CollectionStartEvent):
                if depth > MAX_YAML_DEPTH:
                    line = event.start_mark.line + 1
                    raise ConfigError(f"{path} (line {line}): nested more than {MAX_YAML_DEPTH} levels deep")
                depth += 1
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
        stream.seek(0)
        return yaml.load(stream, Loader=loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark is not None else ""
        raise ConfigError(f"{path}{where}: not valid YAML: {exc}") from None
    except RecursionError:  # PyYAML's pure-Python loader recurses once per level
        raise ConfigError(f"{path}: nested too deeply to read") from None


def load(path: str, cls):
    """The dataclass ``cls`` read from the YAML file at ``path``, a config
    file or a report; every refusal, the domain type's included, is a
    ConfigError naming the file."""
    data = read_report(path)
    try:
        return from_mapping(cls, data)
    except (TypeError, ValueError, RydnashError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_graph(path: str) -> EmbeddedGraph:
    """Parse a graph file, the mapping of an ``EmbeddedGraph``."""
    return load(path, EmbeddedGraph)


def load_game(path: str) -> GameParams:
    """Parse a game parameter file, the mapping of a ``GameParams``."""
    return load(path, GameParams)


def load_schedule(path: str) -> Schedule:
    """Parse a schedule file, the mapping of a ``Schedule``; times in us,
    values in rad/us."""
    return load(path, Schedule)


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all: into a sibling
    temporary file, which ``os.replace`` then moves over ``path``, so an
    interrupted write leaves the old file or none, never half of one."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    partial = f"{path}.{os.getpid()}.partial"
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise


# What PyYAML's emitter does with this grammar: a flow item that would start
# past column _WIDTH goes on a new line instead, and a mapping key of
# _SIMPLE_KEY characters or more would be written in the explicit "? " form,
# which rydnash never needs, so such a key is refused.
_WIDTH = 80
_SIMPLE_KEY = 128
_WORD = re.compile(r"[0-9A-Za-z_]+")
# PyYAML's YAML 1.1 bool, null and int patterns, as far as a word of _WORD
# can match them (https://yaml.org/type/): such a word would read back as
# True, None or a number, so it is written quoted. No word reads as a float,
# which needs a '.'.
_NOT_STR = re.compile(
    r"yes|Yes|YES|no|No|NO|true|True|TRUE|false|False|FALSE|on|On|ON|off|Off|OFF|null|Null|NULL"
    r"|0b[01_]+|0x[0-9a-fA-F_]+|0[0-7_]*|[1-9][0-9_]*"
)


@functools.lru_cache(maxsize=4096)
def _str_text(value: str) -> str | None:
    """``value`` as PyYAML writes it, single-quoted exactly when it would read
    back as something else (``'100110'``, ``'true'``); None if outside the
    grammar."""
    if not _WORD.fullmatch(value):
        return None
    return f"'{value}'" if _NOT_STR.fullmatch(value) else value


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


# The reader of what _dump writes. It guesses the data from the tokens of
# the text, and the guess counts only if _dump writes it back as the same
# text. PyYAML reads _dump's text as the data that was written, so a guess
# that counts is what PyYAML would have read.
_HEADER = re.compile(r"(?:#[\t -~]*\n)*")
_TOKEN = re.compile(
    r"\n( *)"  # the indent of a line
    r"|(- )"  # a sequence entry
    r"|('?[0-9A-Za-z_]+'?):(?: |(?=\n))"  # a mapping key
    r"|\[([^\[\]]*)\]|\{([^{}]*)\}"  # a flow sequence or mapping of scalars
    r"|([^\s\[\]{},]+)"  # a scalar
)
_SEQ, _KEY, _VALUE = range(3)
_CONSTANTS = {"true": True, "false": False, ".inf": float("inf"), "-.inf": float("-inf"), ".nan": float("nan")}


def _read_canonical(text: str) -> dict | None:
    """The data that ``_dump`` wrote as ``text`` below a header of ``#``
    comment lines, or None if ``text`` is no such file. A header line holds
    tabs and printable ASCII only: YAML reads some other characters as line
    breaks, and refuses others."""
    body = text[_HEADER.match(text).end() :]
    try:
        data = _build(_events(body), 0)[0]
        if _dump(data) == body:
            return data
    except (IndexError, TypeError, ValueError, RecursionError):
        pass  # not what _dump writes
    return None


def _events(body: str) -> list[tuple[int, int, object]]:
    """(kind, column, payload) of each sequence entry, mapping key and value
    in ``body``; a key's payload is the key, a value's the value."""
    events, col = [], 0
    for match in _TOKEN.finditer(body):
        group, text = match.lastindex, match[match.lastindex]
        if group == 1:
            col = len(text)
        elif group == 2:
            events.append((_SEQ, col, None))
            col += 2
        elif group == 3:
            events.append((_KEY, col, _scalar(text)))
        elif group == 4:
            events.append((_VALUE, col, [_scalar(item.strip()) for item in text.split(",")] if text else []))
        elif group == 5:
            pairs = (item.strip().partition(": ") for item in text.split(",")) if text else ()
            events.append((_VALUE, col, {_scalar(k): _scalar(v) for k, _, v in pairs}))
        else:
            events.append((_VALUE, col, _scalar(text)))
    return events


def _build(events: list, i: int) -> tuple[object, int]:
    """The value that starts at ``events[i]``, and the index of the event
    after it: a block collection runs on while its kind recurs in its column."""
    kind, col, value = events[i]
    if kind == _VALUE:
        return value, i + 1
    out = [] if kind == _SEQ else {}
    while i < len(events) and events[i][0] == kind and events[i][1] == col:
        value, j = _build(events, i + 1)
        if kind == _SEQ:
            out.append(value)
        else:
            out[events[i][2]] = value
        i = j
    return out, i


def _scalar(text: str):
    """The value of a scalar's text, as ``_scalar_text`` writes it: every
    float has a '.', and a plain word that is no str is an int."""
    if text in _CONSTANTS:
        return _CONSTANTS[text]
    if text[0] == "'":
        return text[1:-1]
    if "." in text:
        return float(text)
    return text if _str_text(text) == text else int(text)


def write_report(path: str, data: dict) -> None:
    """Write a structured report, ``to_mapping`` of a result; keys sorted so
    output is byte-stable."""
    _write_text(path, _dump(data))


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
    lines = [",".join(HISTOGRAM_COLUMNS)]
    lines += (",".join(_csv_value(getattr(row, f.name)) for f in fields(row)) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def write_schedule_series(path: str, schedule: Schedule) -> None:
    """Emit a ready-to-plot (time, omega, delta) series CSV, one row per
    ``SERIES_SAMPLES`` time."""
    import numpy as np

    ts = np.linspace(0.0, schedule.duration, SERIES_SAMPLES)
    om = schedule.omega_at(ts)
    de = schedule.delta_at(ts)
    lines = ["t_us,omega_rad_per_us,delta_rad_per_us"]
    lines += (f"{float(t)!r},{float(o)!r},{float(d)!r}" for t, o, d in zip(ts, om, de))
    _write_text(path, "\n".join(lines) + "\n")
