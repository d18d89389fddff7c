import re

import pytest
import yaml

from rydnash.errors import ConfigError
from rydnash.fileio import (
    load_game,
    load_graph,
    load_schedule,
    save_game,
    save_graph,
    save_schedule,
    write_histogram_csv,
)
from rydnash.game import GameParams
from rydnash.pipeline import BitstringRow
from rydnash.schedule import default_schedule


def dump(tmp_path, name, data):
    path = tmp_path / name
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


class TestGraphFiles:
    def test_round_trip(self, tmp_path, graph_a):
        path = str(tmp_path / "g.yaml")
        save_graph(path, graph_a)
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

    def test_bad_node_entry(self, tmp_path):
        path = dump(tmp_path, "g.yaml", {"nodes": [[0.0, 0.0, 1.0]], "radius": 1.0})
        with pytest.raises(ConfigError, match=r"nodes\[0\]"):
            load_graph(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_graph(str(tmp_path / "nope.yaml"))

    def test_yaml_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("nodes: [[0, 0]\nradius: 1\n")
        with pytest.raises(ConfigError, match="line"):
            load_graph(str(path))

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
        save_game(path, GameParams(e_star=2.0, c=0.25))
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
        save_schedule(path, ref)
        assert load_schedule(path) == ref

    def test_header_states_units(self, tmp_path):
        path = str(tmp_path / "sched.yaml")
        save_schedule(path, default_schedule())
        head = open(path).read().splitlines()[:2]
        assert any("us" in line and "rad/us" in line for line in head)

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
