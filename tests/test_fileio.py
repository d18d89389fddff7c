import glob
import math
import os
import re
import sys

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rydnash.fileio
from conftest import CONFIGS, save_yaml
from rydnash.errors import ConfigError
from rydnash.fileio import (
    MAX_YAML_DEPTH,
    _dump,
    _str_text,
    from_mapping,
    load,
    load_game,
    load_graph,
    load_schedule,
    read_report,
    write_histogram_csv,
    write_report,
)
from rydnash.game import GameParams
from rydnash.geometry import EmbeddedGraph
from rydnash.pipeline import BitstringRow, ClassicalResult, ValidationReport
from rydnash.schedule import Schedule, default_schedule


LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
DUMPERS = [yaml.SafeDumper] + ([yaml.CSafeDumper] if yaml.__with_libyaml__ else [])


def dump(tmp_path, name, data):
    path = tmp_path / name
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


class TestGraphFiles:
    def test_round_trip(self, tmp_path, graph_a):
        path = str(tmp_path / "g.yaml")
        save_yaml(path, graph_a)
        loaded = load_graph(path)
        assert loaded == graph_a

    def test_unknown_field_rejected(self, tmp_path):
        for name, value in (("color", "red"), ("labels", ["a"])):
            path = dump(tmp_path, "g.yaml", {"nodes": [[0.0, 0.0]], "radius": 1.0, name: value})
            with pytest.raises(ConfigError, match=f"unknown fields.*{name}"):
                load_graph(path)

    def test_missing_field(self, tmp_path):
        path = dump(tmp_path, "g.yaml", {"nodes": [[0.0, 0.0]]})
        with pytest.raises(ConfigError, match="radius"):
            load_graph(path)

    def test_missing_top_level_field_is_refused_as_below_it(self, tmp_path):
        # a missing top-level key used to raise KeyError, which load turned
        # into the same message on a path of its own
        with pytest.raises(TypeError, match="^missing required field 'radius'$"):
            from_mapping(EmbeddedGraph, {"nodes": [[0.0, 0.0]]})
        path = dump(tmp_path, "g.yaml", {"nodes": [[0.0, 0.0]]})
        with pytest.raises(ConfigError) as refused:
            load_graph(path)
        assert str(refused.value) == f"{path}: missing required field 'radius'"

    def test_bad_node_entry(self, tmp_path):
        path = dump(tmp_path, "g.yaml", {"nodes": [[0.0, 0.0, 1.0]], "radius": 1.0})
        with pytest.raises(ConfigError, match=r"nodes\[0\]"):
            load_graph(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_graph(str(tmp_path / "nope.yaml"))

    def test_yaml_error_carries_line(self, tmp_path, monkeypatch):
        # no file _dump writes, so PyYAML reads it, through the loader that
        # yaml.CSafeLoader names: libyaml's, or the pure-Python one patched in
        path = tmp_path / "broken.yaml"
        path.write_text("nodes: [[0, 0]\nradius: 1\n")
        for loader in LOADERS:
            monkeypatch.setattr(yaml, "CSafeLoader", loader, raising=False)
            with open(path) as fh, pytest.raises(yaml.YAMLError) as problem:
                yaml.load(fh, Loader=loader)
            with pytest.raises(ConfigError) as refused:
                load_graph(str(path))
            assert str(refused.value) == f"{path} (line 2): not valid YAML: {problem.value}"

    def test_one_level_past_the_limit_names_file_and_line(self, tmp_path):
        # libyaml's composer recurses once per level on the C stack: the
        # file is refused before anything is composed
        path = tmp_path / "deep.yaml"
        path.write_text("radius: 1.0\na:\n" + "- " * MAX_YAML_DEPTH + "- 1\n")
        with pytest.raises(ConfigError) as refused:
            load_graph(str(path))
        assert str(refused.value) == f"{path} (line 3): nested more than {MAX_YAML_DEPTH} levels deep"

    def test_too_deep_for_the_pure_python_loader_names_file(self, tmp_path, monkeypatch):
        # the pure-Python loader recurses once per level in Python: past the
        # recursion limit the file is refused, not a traceback
        path = tmp_path / "deep.yaml"
        path.write_text("a:\n" + "- " * 3000 + "1\n")
        monkeypatch.setattr(yaml, "CSafeLoader", yaml.SafeLoader, raising=False)
        with pytest.raises(ConfigError) as refused:
            load_graph(str(path))
        assert str(refused.value) == f"{path}: nested too deeply to read"

    def test_not_utf8_names_file_offset(self, tmp_path):
        # past the 8 KiB chunks that a streamed decode counts its offset from
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"radius: 1.0\nnodes: [" + b"[0.0, 0.0], " * 1666 + b"\xff]\n")
        offset = path.read_bytes().index(b"\xff")
        assert offset > 16 << 10
        with pytest.raises(ConfigError) as refused:
            load_graph(str(path))
        assert str(refused.value) == f"{path}: not UTF-8 text (invalid start byte at byte {offset})"

    @pytest.mark.parametrize(
        "data",
        [
            {"nodes": [[0.0, 0.0]], "radius": -1.0},
            {"nodes": [[0.0, 0.0], [0.0, 0.0]], "radius": 1.0},
        ],
        ids=["negative-radius", "coinciding-atoms"],
    )
    def test_invalid_layout_names_file(self, tmp_path, data):
        path = dump(tmp_path, "g.yaml", data)
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: "):
            load_graph(path)

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_graph(str(path))


class TestGameFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "game.yaml")
        save_yaml(path, GameParams(e_star=2.0, c=0.25))
        params = load_game(path)
        assert params == GameParams(e_star=2.0, c=0.25, benefit="satiating_linear")

    def test_cost_field_name(self, tmp_path):
        path = dump(tmp_path, "game.yaml", {"e_star": 1.0, "cost": 0.125, "benefit": "satiating_linear"})
        assert load_game(path).c == 0.125

    def test_unknown_field(self, tmp_path):
        path = dump(tmp_path, "game.yaml", {"cost": 0.5, "c": 0.5})
        with pytest.raises(ConfigError, match="unknown fields"):
            load_game(path)

    def test_invalid_params_surface(self, tmp_path):
        path = dump(tmp_path, "game.yaml", {"cost": 2.0})
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: .*cost"):
            load_game(path)


class TestScheduleFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "sched.yaml")
        ref = default_schedule()
        save_yaml(path, ref)
        assert load_schedule(path) == ref

    def test_unknown_field(self, tmp_path):
        path = dump(
            tmp_path,
            "sched.yaml",
            {"omega": [[0.0, 0.0], [1.0, 0.0]], "delta": [[0.0, 0.0], [1.0, 0.0]], "duration": 1.0, "phi": []},
        )
        with pytest.raises(ConfigError, match="unknown fields"):
            load_schedule(path)

    def test_bad_waveform_shape(self, tmp_path):
        path = dump(tmp_path, "sched.yaml", {"omega": [[0.0]], "delta": [[0.0, 0.0], [1.0, 0.0]], "duration": 1.0})
        with pytest.raises(ConfigError, match="omega"):
            load_schedule(path)


    def test_decreasing_breakpoints_name_file(self, tmp_path):
        path = dump(
            tmp_path,
            "sched.yaml",
            {
                "omega": [[0.0, 1.0], [0.6, 1.0], [0.4, 1.0], [1.0, 1.0]],
                "delta": [[0.0, 0.0], [1.0, 0.0]],
                "duration": 1.0,
            },
        )
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: omega: .*increasing"):
            load_schedule(path)


class TestHistogramCsv:
    def test_documented_columns_and_formatting(self, tmp_path):
        rows = [
            BitstringRow("10", 7, 0.5, -7.27, True, True, False),
            BitstringRow("01", 3, 0.25, -7.27, True, False, False),
        ]
        path = tmp_path / "hist.csv"
        write_histogram_csv(str(path), rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "bitstring,count,probability,energy,is_independent,is_maximal,is_mis"
        assert lines[1] == "10,7,0.5,-7.27,true,true,false"
        assert lines[2] == "01,3,0.25,-7.27,true,false,false"


class TestWholeWrites:
    @pytest.mark.parametrize("write, data", [
        (write_report, {"graph_hash": "new"}),
        (write_histogram_csv, [BitstringRow("1", 1, 1.0, 0.0, True, True, True)]),
    ], ids=["report", "histogram"])
    def test_interrupted_write_keeps_the_old_file(self, write, data, tmp_path, monkeypatch):
        path = str(tmp_path / "out.txt")
        with open(path, "w") as fh:
            fh.write("old\n")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(rydnash.fileio.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write(path, data)
        with open(path) as fh:
            assert fh.read() == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize(
    "load, data, key",
    [
        (load_graph, {"nodes": [[0.0, 0.0]], "radius": True}, "radius"),
        (load_graph, {"nodes": [[0.0, 0.0], [6.0, "0.0"]], "radius": 8.0}, "nodes[1][1]"),
        (load_schedule, {"omega": [[0.0, 0.0], [1.0, 0.0]], "delta": [[0.0, 0.0], [1.0, 0.0]], "duration": True},
         "duration"),
        (load_game, {"benefit": 1}, "benefit"),
    ],
    ids=["bool-radius", "string-coordinate", "bool-duration", "int-benefit"],
)
def test_mistyped_scalar_names_file_and_key(tmp_path, load, data, key):
    path = dump(tmp_path, "config.yaml", data)
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: '{re.escape(key)}' must be"):
        load(path)


#: Why a float spelled as YAML 1.1 text is refused, after the value itself.
AS_TEXT = ", which YAML 1.1 reads as text (a float needs a '.', and its exponent a sign); write "


@pytest.mark.parametrize(
    "cls, text, key, value, spelling",
    [
        (EmbeddedGraph, "nodes: [[0.0, 0.0], [6.0, 1e-1]]\nradius: 9.0\n", "nodes[1][1]", "1e-1", "0.1"),
        (EmbeddedGraph, "nodes: [[0.0, 0.0], [6.0, 0.0]]\nradius: '9.0'\n", "radius", "9.0", "9.0"),
        (GameParams, "e_star: 1E0\n", "e_star", "1E0", "1.0"),
        (GameParams, "cost: 5e-1\n", "cost", "5e-1", "0.5"),
        (Schedule, "omega: [[0.0, 0.0], [1.0, 0.0]]\ndelta: [[0.0, 0.0], [1.0, 7e0]]\nduration: 1.0\n",
         "delta[1][1]", "7e0", "7.0"),
        (ValidationReport, "c6: 1.5e6\nok: true\nviolations: []\nwindow: [1.0, 2.0e+6]\n", "c6", "1.5e6",
         "1500000.0"),
        (ValidationReport, "c6: 1.0\nok: true\nviolations: []\nwindow: [1.0, 1e20]\n", "window[1]", "1e20",
         "1.0e+20"),
        (ValidationReport, "c6: inf\nok: true\nviolations: []\nwindow: [1.0, 2.0]\n", "c6", "inf", ".inf"),
    ],
    ids=["coordinate", "quoted", "e_star", "cost", "breakpoint", "report", "large", "inf"],
)
def test_float_read_as_text_says_how_to_write_it(tmp_path, cls, text, key, value, spelling):
    # still refused: a quoted '9.0' is a string, and the reader never
    # turns a string into a number
    path = tmp_path / "config.yaml"
    path.write_text(text)
    message = f"{path}: '{key}' must be a number, got '{value}'{AS_TEXT}{spelling}"
    with pytest.raises(ConfigError) as refused:
        load(str(path), cls)
    assert str(refused.value) == message
    # the spelling it names reads back as the number
    assert yaml.safe_load(f"x: {spelling}")["x"] == float(value)


def test_no_spelling_for_text_that_is_no_float(tmp_path):
    path = dump(tmp_path, "graph.yaml", {"nodes": [[0.0, 0.0]], "radius": "nine"})
    with pytest.raises(ConfigError) as refused:
        load_graph(path)
    assert str(refused.value) == f"{path}: 'radius' must be a number, got 'nine'"


@pytest.mark.parametrize("data", [["graph_hash"], "abc", None], ids=["list", "str", "none"])
def test_from_mapping_refuses_non_mapping(data):
    with pytest.raises(TypeError, match=r"^ClassicalResult is read from a mapping, got "):
        from_mapping(ClassicalResult, data)


GRAPH = {"nodes": [[0.0, 0.0]], "radius": 1.0}


@pytest.mark.parametrize(
    "call",
    [
        lambda: from_mapping(EmbeddedGraph, {**GRAPH, **dict.fromkeys(map(str, range(100_000)), 0)}),
        lambda: from_mapping(EmbeddedGraph, {**GRAPH, "k" * 100_000: 0}),
        lambda: rydnash.fileio._read(dict[str, int], {"0" * 100_000: "x"}, "counts"),
    ],
    ids=["many-unknown-keys", "long-unknown-key", "long-key"],
)
def test_refused_keys_are_shown_cut_short(call):
    with pytest.raises((TypeError, ValueError)) as refused:
        call()
    assert len(str(refused.value)) < 200


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIGS, "*.yaml"))), ids=os.path.basename)
class TestYamlReading:
    def test_bundled_configs_load_equal_under_both_loaders(self, path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert all(yaml.load(text, Loader=loader) == read_report(path) for loader in LOADERS)

    def test_bundled_configs_are_canonical(self, path, tmp_path):
        # below its comment header, each file is what rydnash writes for
        # what it reads
        kind = os.path.basename(path).split("_")[0]
        saved = tmp_path / "saved.yaml"
        save_yaml(saved, getattr(rydnash.fileio, f"load_{kind}")(path))
        with open(path, "rb") as fh:
            assert saved.read_bytes() == b"".join(line for line in fh if not line.startswith(b"#"))


# Report-grammar strings, with every token PyYAML's resolver reads as a
# non-string (so the writer must quote it) that the alphabet can spell.
RESOLVER_TOKENS = ["0", "0777", "1_0", "0b1", "0x1f", "0o7", "190_20_30", "1e5", "true", "Yes", "null", "NULL",
                   "on", "Off", "n", "y", "_", "inf", "nan", "100110"]
words = st.sampled_from(RESOLVER_TOKENS) | st.text("0123456789_abcdefoxyzABCDEFOXYZ", min_size=1, max_size=40)
scalars = st.booleans() | st.integers(-(10**20), 10**20) | st.floats() | words
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=12) | st.dictionaries(words, inner, max_size=6), max_leaves=24
)


#: Every YAML 1.1 bool and null spelling that is a word (https://yaml.org/type/).
YAML11_BOOL_NULL = ("y Y yes Yes YES n N no No NO true True TRUE false False FALSE on On ON off Off OFF "
                    "null Null NULL").split()
STR_TAG = "tag:yaml.org,2002:str"


def resolved_tag(word: str) -> str:
    """The tag PyYAML's YAML 1.1 resolver gives ``word`` written plain."""
    return yaml.resolver.Resolver().resolve(yaml.ScalarNode, word, (True, False))


def pyyaml_dumps(data) -> list[str]:
    return [yaml.dump(data, Dumper=dumper, sort_keys=True, default_flow_style=None) for dumper in DUMPERS]


class TestYamlWriter:
    """``_dump`` writes what PyYAML's dumpers write for the report grammar."""

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(words, values, max_size=8))
    @example({"witnesses": [["100110", "011001"], ["0", "1"]], "empty": [], "none": {}})
    @example({"warnings": [{"distance": 6.0, "kind": "edge_near_radius", "pair": [0, 1], "threshold": 4.9}]})
    @example({"floats": [1e-05, 1e16, -0.0, math.inf, -math.inf, math.nan, 1e17, 5e-324]})
    @example({token: token for token in RESOLVER_TOKENS})
    @example({"benefit": "satiating_linear", "cost": 0.5, "e_star": 1.0})
    def test_matches_pyyaml(self, data):
        assert pyyaml_dumps(data) == [_dump(data)] * len(DUMPERS)

    @settings(max_examples=300, deadline=None)
    @given(words)
    @example("y")
    def test_quotes_what_the_resolver_reads_as_no_str(self, word):
        assert (_str_text(word) != word) == (resolved_tag(word) != STR_TAG)

    @pytest.mark.parametrize("word", YAML11_BOOL_NULL)
    def test_every_bool_and_null_spelling(self, word):
        # YAML 1.1 spells y, Y, n and N as bools too; PyYAML reads them as text
        assert _str_text(word) == (f"'{word}'" if resolved_tag(word) != STR_TAG else word)

    @pytest.mark.parametrize("width", range(1, 11))
    def test_flow_wraps_at_every_offset(self, width):
        # key lengths 1 ... width + 2 put the item that crosses column 80 at
        # every offset from it, for lists and flow mappings, top-level and nested
        for key_length in range(1, width + 3):
            key = "k" * key_length
            items = ["9" * width] * 40
            for data in (
                {key: items},
                {key: dict(zip((f"x{i:0{width}d}" for i in range(40)), items))},
                {"rows": [{key: items, "z": [list(items)]}]},
                dict.fromkeys((f"{key}{i}" for i in range(12)), 1.5),
            ):
                assert pyyaml_dumps(data) == [_dump(data)] * len(DUMPERS)

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"n": None}, "n"),
            ({"p": np.float64(0.5)}, "p"),
            ({"rows": [{"kind": "a b"}]}, "kind"),
            ({"subject": ["a:b"]}, "subject"),
            ({"pair": (0, 1)}, "pair"),
            ({"counts": {1: 2}}, 1),
            ({"s": ""}, "s"),
            ({"k" * 128: 1}, "k" * 128),
        ],
        ids=["none", "np-float64", "space", "colon", "tuple", "int-key", "empty-str", "long-key"],
    )
    def test_refuses_values_outside_grammar(self, data, key, tmp_path):
        path = tmp_path / "report.yaml"
        with pytest.raises(TypeError, match=f"under key {re.escape(repr(key))}"):
            write_report(str(path), data)
        assert not path.exists()


def pyyaml_read_report(path):
    """What ``read_report`` gave when it read every file with PyYAML: the
    mapping, or the message of the ConfigError it raised."""
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    with open(path, encoding="utf-8") as fh:
        try:
            data = yaml.load(fh, Loader=loader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" (line {mark.line + 1})" if mark is not None else ""
            return f"{path}{where}: not valid YAML: {exc}"
    if not isinstance(data, dict):
        return f"{path}: expected a mapping at the top level, got {type(data).__name__}"
    return data


def same(a, b) -> bool:
    """Equal data of equal types, as ``_dump`` writes it: a bool is no int,
    and nan is nan."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(same, a, b))
    return repr(a) == repr(b)


def assert_reads_as_pyyaml(path):
    want = pyyaml_read_report(path)
    try:
        got = read_report(str(path))
    except ConfigError as exc:
        got = str(exc)
    assert same(got, want), (got, want)


#: What a header comment line may hold after its '#': tab and printable ASCII.
HEADER_CHARACTERS = "\t" + "".join(map(chr, range(32, 127)))

# Hand-written YAML. Apart from the CRLF file, which reads as a canonical
# one once its line ends are translated, none is what _dump writes.
NOT_CANONICAL = {
    "block-style": "nodes:\n- - 0.0\n  - 0.0\n- - 6.0\n  - 0.0\nradius: 8.0\n",
    "double-quoted": 'benefit: "satiating_linear"\ncost: 0.5\n',
    "unsorted-keys": "radius: 8.0\nnodes: [[0.0, 0.0]]\n",
    "mid-file-comment": "nodes: [[0.0, 0.0]]\n# the radius\nradius: 8.0\n",
    "crlf": "# header\r\nnodes: [[0.0, 0.0]]\r\nradius: 8.0\r\n",
    "bom": "\ufeff# header\nnodes: [[0.0, 0.0]]\nradius: 8.0\n",
    "header-cr": "# a\rradius: 9.0\n# b\nradius: 8.0\n",
    "header-nel": "# a\x85radius: 9.0\n",
    "header-line-separator": "# a\u2028radius: 9.0\n",
    "header-non-printable": "# a\x01\nradius: 9.0\n",
    "header-del": "# a\x7f\nradius: 9.0\n",
    "header-latin": "# \u00e9\nradius: 9.0\n",
    "yes": "a: yes\n",
    "Null": "a: Null\n",
    "1e5": "a: 1e5\n",
    "010": "a: 010\n",
    "08": "a: 08\n",
    "0b2": "a: 0b2\n",
    "plain-int-key": "1: a\n",
    "sequence": "- - - 1\n",
    "deep-sequence": "- " * 10_000 + "1\n",
    "empty": "",
    "comments-only": "# a\n# b\n",
    "tab-indent": "a:\n\t- 1\n",
    "unclosed": "a: [" * 1000 + "\n",
}


class TestCanonicalReading:
    """Text that ``_dump`` writes is read without PyYAML; any other text
    reads as PyYAML reads it."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.dictionaries(words, values, max_size=8), header=st.lists(st.text(HEADER_CHARACTERS), max_size=3))
    @example(data={"witnesses": [["100110", "011001"], ["0", "1"]], "empty": [], "none": {}}, header=[])
    @example(data={"rows": [{"pair": [0, 1], "nested": {"a": [[]], "b": {}}}], "z": [[[1.5]]]}, header=["", "#"])
    @example(data={token: [token] for token in RESOLVER_TOKENS}, header=["\t"])
    def test_dumped_data_reads_back_without_pyyaml(self, data, header, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "canonical.yaml"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(f"#{line}\n" for line in header) + _dump(data))
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(sys.modules, "yaml", None)  # importing yaml now fails
            assert same(read_report(str(path)), data)

    @pytest.mark.parametrize("text", NOT_CANONICAL.values(), ids=NOT_CANONICAL.keys())
    def test_other_text_reads_as_pyyaml(self, text, tmp_path):
        path = tmp_path / "hand.yaml"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert_reads_as_pyyaml(path)

    @settings(max_examples=200, deadline=None)
    @given(text=st.text() | st.text("-[]{}:,' #\t\r\n.0129aeyoNT_"))
    def test_any_text_reads_as_pyyaml(self, text, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "any.yaml"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert_reads_as_pyyaml(path)

    def test_deep_mapping_reads_as_pyyaml(self, tmp_path):
        # too deep for the canonical reader's recursion: PyYAML reads it
        path = tmp_path / "deep.yaml"
        path.write_text("a:\n" + "- " * 10_000 + "1\n")
        got, want = read_report(str(path))["a"], yaml.load(path.read_text(), Loader=yaml.CSafeLoader)["a"]
        for _ in range(10_000):
            assert type(got) is type(want) is list and len(got) == len(want) == 1
            got, want = got[0], want[0]
        assert got == want == 1
