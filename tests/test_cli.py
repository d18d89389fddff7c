import dataclasses
import hashlib
import math
import os
import runpy
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import given, settings

from conftest import (
    C_A,
    C_B,
    CONFIGS,
    GRAPH_A_FILE,
    GRAPH_A_MIS_FAMILY,
    GRAPH_A_RADIUS,
    GRAPH_B_FILE,
    GRAPH_B_RADIUS,
    OVER_LIMIT,
    child_env,
    kings_24,
    save_yaml,
    unit_disk_layouts,
)
import rydnash.cli
import rydnash.fileio
import rydnash.game
import rydnash.indsets
import rydnash.pipeline
from rydnash._bits import from_bitstring
from rydnash.cli import (
    ANNEAL_REPORT,
    CLASSICAL_REPORT,
    COMPARE_REPORT,
    DEFAULT_OUTDIR,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_VERDICT,
    HISTOGRAM_CSV,
    OUTDIR_ENV,
    OUTPUT_SETS,
    SCHEDULE_SERIES_CSV,
    VALIDATION_REPORT,
    _config_from_args,
    build_parser,
    main,
)
from rydnash.dynamics import RydbergSystem
from rydnash.errors import ConfigError, IncompatibleRuns, IntegrationFailure, InvalidInput
from rydnash.fileio import (
    MAX_YAML_DEPTH,
    SERIES_SAMPLES,
    load,
    load_graph,
    read_report,
    to_mapping,
    write_report,
)
from rydnash.geometry import build_unit_disk_graph
from rydnash.pipeline import (
    ClassicalResult,
    ComparisonReport,
    QuantumResult,
    RunConfig,
    ValidationReport,
    Verdicts,
    compare,
    graph_fingerprint,
    run_classical,
    run_quantum,
)
from rydnash.schedule import Schedule, default_schedule


@pytest.fixture
def pair_graph_file(tmp_path):
    """Two blockaded atoms: smallest layout with a quick, meaningful anneal."""
    from rydnash.geometry import build_unit_disk_graph

    path = str(tmp_path / "pair.yaml")
    save_yaml(path, build_unit_disk_graph([(0.0, 0.0), (6.0, 0.0)], 8.0))
    return path


@pytest.fixture
def chain25_file(tmp_path, chain25):
    """A layout one atom past the exhaustive limit, clear of every hardware limit."""
    path = str(tmp_path / "chain25.yaml")
    save_yaml(path, chain25)
    return path


@pytest.fixture(scope="module")
def graph_a_results():
    """Both analyses of graph_a at its pinned coupling, run once per module."""
    config = RunConfig(graph=load_graph(GRAPH_A_FILE), c6=C_A, shots=200)
    return run_classical(config), run_quantum(config)


REFUSED_VALIDATION_REPORT = os.path.join("refused", VALIDATION_REPORT)

#: What RunConfig asks of each number it checks, as its refusals say.
RUN_NUMBERS = {"shots": "an integer >= 1", "seed": "an integer >= 0", "c6": "a positive finite number"}


@pytest.fixture(scope="module")
def graph_a_all_run(tmp_path_factory):
    """``all`` and ``validate`` on graph_a at its pinned coupling, and an
    ``anneal`` refused for a 3 um pair, with the results they wrote, by
    report path under one directory."""
    out = str(tmp_path_factory.mktemp("all_a"))
    for command in ("all", "validate"):
        assert main([command, "--graph", GRAPH_A_FILE, "--coupling-c", str(C_A), "--out", out]) == EXIT_OK
    close = os.path.join(out, "close.yaml")
    save_yaml(close, build_unit_disk_graph([(0.0, 0.0), (3.0, 0.0)], 4.0))
    assert main(["anneal", "--graph", close, "--out", os.path.join(out, "refused")]) == EXIT_VERDICT
    config = RunConfig(graph=load_graph(GRAPH_A_FILE), c6=C_A)
    classical, quantum = run_classical(config), run_quantum(config)
    results = {
        CLASSICAL_REPORT: classical,
        ANNEAL_REPORT: quantum,
        COMPARE_REPORT: compare(classical, quantum),
        VALIDATION_REPORT: config.validation,
        REFUSED_VALIDATION_REPORT: RunConfig(graph=load_graph(close)).validation,
    }
    return out, results


def _write_results(out, classical, quantum):
    write_report(os.path.join(out, CLASSICAL_REPORT), to_mapping(classical))
    write_report(os.path.join(out, ANNEAL_REPORT), to_mapping(quantum))


def _rename_last_row(data):
    # the last readout, renamed in its row and in counts alike
    row = data["classification"][-1]
    data["counts"]["zz"] = data["counts"].pop(row["bitstring"])
    row["bitstring"] = "zz"


def _add_support_2(data):
    # a support '2', with the witnesses and verdict it would give
    data["nash_supports"].append("2")
    data["witnesses"] = [["2", "nash_only"]]
    data["nash_equals_mis"] = False


def _empty_families(data):
    # no set in any family, and the verdict an empty match would give
    data.update(nash_supports=[], maximal_independent_sets=[], maximum_independent_sets=[], witnesses=[])
    data["nash_equals_mis"] = True


def _no_maximum_sets(data):
    # no maximum set, so no top-k, and the vacuous verdict that would give
    data.update(maximum_independent_sets=[], top_k=[], mis_in_topk=True)


def _count_calls(monkeypatch, command, out):
    """Run ``command`` on graph_a at its derived coupling and count graph
    loads, MIS sweeps, drive-off window passes and spacing scans."""
    calls = {"load": 0, "mis": 0, "window": 0, "spacing": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    load = counting("load", rydnash.fileio.load_graph)
    mis = counting("mis", rydnash.indsets.enumerate_mis)
    for module in (rydnash.fileio, rydnash.cli):
        monkeypatch.setattr(module, "load_graph", load)
    for module in (rydnash.indsets, rydnash.pipeline):
        monkeypatch.setattr(module, "enumerate_mis", mis)
    monkeypatch.setattr(rydnash.pipeline, "drive_off_window", counting("window", rydnash.pipeline.drive_off_window))
    monkeypatch.setattr(rydnash.pipeline, "validate_embedding", counting("spacing", rydnash.pipeline.validate_embedding))
    assert main([command, "--graph", GRAPH_A_FILE, "--shots", "100", "--out", str(out)]) == EXIT_OK
    return calls


def _ramp_ending_at(tmp_path, final):
    """A 1 us schedule file whose detuning ends at ``final`` rad/us."""
    path = str(tmp_path / "ramp.yaml")
    save_yaml(path, Schedule(((0.0, 0.0), (0.5, 7.27), (1.0, 0.0)), ((0.0, -7.27), (1.0, final)), 1.0))
    return path


class TestValidateCommand:
    def test_bundled_graph_a_passes(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["validate", "--graph", GRAPH_A_FILE, "--out", out]) == EXIT_OK
        report = read_report(os.path.join(out, VALIDATION_REPORT))
        assert report["ok"] is True
        assert report["violations"] == []

    def test_close_pair_fails_with_one_violation(self, tmp_path):
        graph = str(tmp_path / "bad.yaml")
        with open(graph, "w") as fh:
            yaml.safe_dump({"nodes": [[0.0, 0.0], [3.0, 0.0]], "radius": 4.0}, fh)
        out = str(tmp_path / "out")
        assert main(["validate", "--graph", graph, "--out", out]) == EXIT_VERDICT
        report = read_report(os.path.join(out, VALIDATION_REPORT))
        assert report["ok"] is False
        assert len(report["violations"]) == 1
        v = report["violations"][0]
        assert v["kind"] == "pair_distance" and v["value"] == 3.0 and v["limit"] == 4.0

    def test_underflowing_pair_still_reports(self, tmp_path):
        # 1e-55 um apart, r**6 underflows to zero: the window pass meets an
        # unbounded interaction, not a division by zero, and the run is
        # refused as any too-close pair is
        graph = str(tmp_path / "touching.yaml")
        save_yaml(graph, build_unit_disk_graph([(0.0, 0.0), (1e-55, 0.0)], 4.0))
        out = str(tmp_path / "out")
        assert main(["validate", "--graph", graph, "--out", out]) == EXIT_VERDICT
        (v,) = read_report(os.path.join(out, VALIDATION_REPORT))["violations"]
        assert v["kind"] == "pair_distance" and v["value"] == 1e-55

    def test_long_schedule_fails(self, tmp_path):
        sched = str(tmp_path / "long.yaml")
        save_yaml(
            sched,
            Schedule(((0.0, 0.0), (2.5, 7.27), (5.0, 0.0)), ((0.0, -7.27), (5.0, 7.27)), 5.0),
        )
        out = str(tmp_path / "out")
        code = main(["validate", "--graph", GRAPH_A_FILE, "--schedule", sched, "--out", out])
        assert code == EXIT_VERDICT
        report = read_report(os.path.join(out, VALIDATION_REPORT))
        assert [v["kind"] for v in report["violations"]] == ["duration"]
        assert report["violations"][0]["subject"] == []

    def test_coupling_outside_the_window_is_named(self, tmp_path, capsys):
        # graph_b's window tops out at 1.284e6, below 2.2e6: the warning says
        # so on stderr and changes neither verdict nor exit code
        out = str(tmp_path / "out")
        assert main(["validate", "--graph", GRAPH_B_FILE, "--coupling-c", "2.2e6", "--out", out]) == EXIT_OK
        err = capsys.readouterr().err
        assert "C6 2.2e+06 is outside the drive-off window (3.386e+05, 1.284e+06)" in err
        assert err.count("\n") == 1

    def test_empty_window_is_named_empty(self, tmp_path, capsys):
        # only atoms 0 and 3 are blockaded. The maximum set 1110 lies above
        # the dependent 1111 below C6 = lo, and above the 2-sets 0101 and 0011
        # above hi < lo, so no C6 is inside, and the warning says so instead
        # of printing the window as an interval
        graph = str(tmp_path / "empty.yaml")
        save_yaml(graph, build_unit_disk_graph([(14.8, 11.2), (14.2, 21.6), (4.7, 16.9), (15.2, 2.0)], 10.3))
        out = str(tmp_path / "out")
        assert main(["validate", "--graph", graph, "--out", out]) == EXIT_OK
        assert capsys.readouterr().err == (
            "warning: no C6 makes the maximum independent sets the lowest drive-off states\n"
        )
        lo, hi = load(os.path.join(out, VALIDATION_REPORT), ValidationReport).window
        assert lo >= hi

    def test_coupling_inside_the_window_is_quiet(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["validate", "--graph", GRAPH_A_FILE, "--coupling-c", "2.2e6", "--out", out]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert read_report(os.path.join(out, VALIDATION_REPORT))["c6"] == 2.2e6

    def test_single_atom_window_is_unbounded(self, tmp_path, capsys):
        # nothing bounds one atom's C6: the window (0, inf) writes inf as
        # YAML's .inf and reads it back
        graph = str(tmp_path / "one.yaml")
        save_yaml(graph, build_unit_disk_graph([(0.0, 0.0)], 1.0))
        out = str(tmp_path / "out")
        assert main(["validate", "--graph", graph, "--out", out]) == EXIT_OK
        assert capsys.readouterr().err == ""
        path = os.path.join(out, VALIDATION_REPORT)
        with open(path, encoding="utf-8") as fh:
            assert "window: [0.0, .inf]\n" in fh.read()
        assert load(path, ValidationReport).window == (0.0, math.inf)

    def test_over_limit_is_an_error(self, chain25_file, tmp_path, capsys):
        out = tmp_path / "out"
        for command in ("validate", "classical"):
            assert main([command, "--graph", chain25_file, "--out", str(out)]) == EXIT_ERROR
            assert capsys.readouterr().err == f"error: {OVER_LIMIT}\n"
            assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "classical", "anneal", "all"])
    def test_limit_is_not_an_option(self, command, tmp_path, capsys):
        # the exhaustive limit is fixed, so argparse refuses --limit
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main([command, "--graph", GRAPH_A_FILE, "--limit", "30", "--out", str(out)])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --limit 30" in capsys.readouterr().err
        assert not out.exists()


class TestClassicalCommand:
    def test_graph_a_report(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["classical", "--graph", GRAPH_A_FILE, "--out", out]) == EXIT_OK
        report = read_report(os.path.join(out, CLASSICAL_REPORT))
        assert report["nash_supports"] == sorted(GRAPH_A_MIS_FAMILY)
        assert report["maximal_independent_sets"] == sorted(GRAPH_A_MIS_FAMILY)
        assert report["maximum_independent_sets"] == ["100110"]
        assert report["nash_equals_mis"] is True

    def test_graph_b_report(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["classical", "--graph", GRAPH_B_FILE, "--out", out]) == EXIT_OK
        report = read_report(os.path.join(out, CLASSICAL_REPORT))
        assert len(report["nash_supports"]) == 4
        assert len(report["maximal_independent_sets"]) == 4
        assert len(report["maximum_independent_sets"]) == 4
        assert report["nash_equals_mis"] is True

    def test_single_node_graph(self, tmp_path):
        graph = str(tmp_path / "one.yaml")
        with open(graph, "w") as fh:
            yaml.safe_dump({"nodes": [[0.0, 0.0]], "radius": 1.0}, fh)
        out = str(tmp_path / "out")
        assert main(["classical", "--graph", graph, "--out", out]) == EXIT_OK
        report = read_report(os.path.join(out, CLASSICAL_REPORT))
        assert report["nash_supports"] == ["1"]
        assert report["nash_equals_mis"] is True

    def test_game_file_flag(self, tmp_path):
        game = str(tmp_path / "game.yaml")
        with open(game, "w") as fh:
            yaml.safe_dump({"e_star": 1.0, "cost": 0.25, "benefit": "satiating_linear"}, fh)
        out = str(tmp_path / "out")
        assert main(["classical", "--graph", GRAPH_A_FILE, "--game", game, "--out", out]) == EXIT_OK

    def test_missing_graph_file(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["classical", "--graph", str(tmp_path / "nope.yaml"), "--out", out]) == EXIT_ERROR

    @pytest.mark.parametrize("option, kind", [("--graph", "directory"), ("--game", "directory"), ("--graph", "utf16")])
    def test_unreadable_file(self, option, kind, tmp_path, capsys):
        path = str(tmp_path / "configs")
        if kind == "directory":
            os.makedirs(path)
        else:
            with open(path, "wb") as fh:
                fh.write(b"\xff\xfe")
        args = ["classical", "--graph", path if option == "--graph" else GRAPH_A_FILE, "--out", str(tmp_path / "out")]
        if option == "--game":
            args += ["--game", path]
        assert main(args) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not (tmp_path / "out").exists()

    def test_unwritable_out(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "file" / "out")
        assert main(["classical", "--graph", GRAPH_A_FILE, "--out", out]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and out in err

    def test_coincident_atoms(self, tmp_path, capsys):
        graph = str(tmp_path / "coincide.yaml")
        with open(graph, "w") as fh:
            yaml.safe_dump({"nodes": [[0.0, 0.0], [6.0, 0.0], [0.0, 0.0]], "radius": 7.0}, fh)
        out = str(tmp_path / "out")
        assert main(["classical", "--graph", graph, "--out", out]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {graph}: atoms 0 and 2 coincide at (0.0, 0.0)\n"
        assert not os.path.exists(out)


# Files that parse but hold a value the domain types refuse.
REFUSED_FILES = {
    "graph": {"nodes": [[0.0, 0.0]], "radius": -1.0},
    "game": {"cost": 2.0},
    "schedule": {
        "omega": [[0.0, 1.0], [0.6, 1.0], [0.4, 1.0], [1.0, 1.0]],
        "delta": [[0.0, 0.0], [1.0, 0.0]],
        "duration": 1.0,
    },
}


class TestRefusedConfigFile:
    @pytest.mark.parametrize(
        "command, kind",
        [
            ("validate", "graph"),
            ("validate", "schedule"),
            ("classical", "graph"),
            ("classical", "game"),
            ("anneal", "graph"),
            ("anneal", "schedule"),
            ("all", "graph"),
            ("all", "game"),
            ("all", "schedule"),
        ],
    )
    def test_error_names_file(self, command, kind, tmp_path, capsys):
        path = str(tmp_path / f"{kind}.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(REFUSED_FILES[kind], fh)
        args = [command, "--graph", path if kind == "graph" else GRAPH_A_FILE, "--out", str(tmp_path / "out")]
        if kind != "graph":
            args += [f"--{kind}", path]
        assert main(args) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize(
        "option, text, key, value, spelling",
        [
            ("--graph", "nodes: [[0.0, 0.0], [6.0, 0.0]]\nradius: 9e0\n", "radius", "9e0", "9.0"),
            ("--graph", "nodes: [[0.0, 0.0], [6e0, 0.0]]\nradius: 9.0\n", "nodes[1][0]", "6e0", "6.0"),
            ("--schedule", "omega: [[0.0, 0.0], [1.0, 0.0]]\ndelta: [[0.0, -7.27], [1.0, 1.5e1]]\nduration: 1.0\n",
             "delta[1][1]", "1.5e1", "15.0"),
        ],
        ids=["radius", "coordinate", "breakpoint"],
    )
    def test_exponent_read_as_text_names_a_spelling(self, option, text, key, value, spelling, tmp_path, capsys):
        # YAML 1.1 reads 9e0 as a string: refused, with why and what to write
        path = tmp_path / "input.yaml"
        path.write_text(text)
        inputs = {"--graph": GRAPH_A_FILE, option: str(path)}
        args = ["all", "--out", str(tmp_path / "out"), *(arg for pair in inputs.items() for arg in pair)]
        assert main(args) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {path}: '{key}' must be a number, got '{value}', which YAML 1.1 reads as text "
            f"(a float needs a '.', and its exponent a sign); write {spelling}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            ("nodes: [[0.0, 0.0]]\nradius: " + "[" * 3000 + "]" * 3000 + "\n", "radius"),
            ("nodes: [" + "[" * 3000 + "]" * 3000 + "]\nradius: 1.0\n", "nodes[0]"),
            ("nodes: [[0.0, 0.0]]\nradius: [" + ", ".join(["1.0"] * 100_000) + "]\n", "radius"),
        ],
        ids=["deep-radius", "deep-node", "long-radius"],
    )
    def test_refused_value_is_shown_cut_short(self, text, key, tmp_path, capsys):
        # the message echoes the value through reprlib: neither its nesting
        # depth nor its length reaches stderr
        path = tmp_path / "graph.yaml"
        path.write_text(text)
        assert main(["classical", "--graph", str(path), "--out", str(tmp_path / "out")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: '{key}' must be ") and err.count("\n") == 1 and len(err) < 200
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_nesting_past_the_limit_is_refused(self, tmp_path):
        # libyaml's composer recursed once per level and crashed the process
        # with SIGSEGV, so the command runs in a child that a crash cannot
        # take down
        depth = 10**5
        path = tmp_path / "graph.yaml"
        path.write_text("nodes: [[0.0, 0.0]]\nradius: " + "[" * depth + "]" * depth + "\n")
        out = tmp_path / "out"
        args = [sys.executable, "-m", "rydnash", "classical", "--graph", str(path), "--out", str(out)]
        done = subprocess.run(args, env=child_env(), capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (EXIT_ERROR, "")
        assert done.stderr == f"error: {path} (line 2): nested more than {MAX_YAML_DEPTH} levels deep\n"
        assert not out.exists()


class TestAnnealCommand:
    def test_pair_graph_anneal(self, pair_graph_file, tmp_path):
        out = str(tmp_path / "out")
        code = main(
            ["anneal", "--graph", pair_graph_file, "--out", out, "--shots", "200", "--seed", "3", "--plot-data"]
        )
        assert code == EXIT_OK
        report = read_report(os.path.join(out, ANNEAL_REPORT))
        assert report["shots"] == 200 and report["seed"] == 3
        assert sum(report["counts"].values()) == 200
        assert set(report["top_k"]) == {"01", "10"}
        assert os.path.exists(os.path.join(out, HISTOGRAM_CSV))
        assert os.path.exists(os.path.join(out, SCHEDULE_SERIES_CSV))
        series = open(os.path.join(out, SCHEDULE_SERIES_CSV)).read().splitlines()
        assert series[0] == "t_us,omega_rad_per_us,delta_rad_per_us"
        assert len(series) == 1 + SERIES_SAMPLES

    def test_single_shot(self, pair_graph_file, tmp_path):
        out = str(tmp_path / "out")
        main(["anneal", "--graph", pair_graph_file, "--out", out, "--shots", "1"])
        report = read_report(os.path.join(out, ANNEAL_REPORT))
        assert sum(report["counts"].values()) == 1
        assert len(report["counts"]) == 1

    def test_one_shot_report_loads_back(self, pair_graph_file, tmp_path):
        # one shot at seed 1 is written as the integers a bool would pass
        # for, and the report loads back; one shot cannot read out both
        # maximum sets, hence the verdict exit
        out = str(tmp_path / "out")
        assert main(["anneal", "--graph", pair_graph_file, "--out", out, "--shots", "1", "--seed", "1"]) == EXIT_VERDICT
        result = load(os.path.join(out, ANNEAL_REPORT), QuantumResult)
        assert type(result.shots) is int and type(result.seed) is int
        assert result == run_quantum(RunConfig(graph=load_graph(pair_graph_file), shots=1, seed=1))

    def test_refuses_invalid_layout(self, tmp_path):
        graph = str(tmp_path / "bad.yaml")
        with open(graph, "w") as fh:
            yaml.safe_dump({"nodes": [[0.0, 0.0], [3.0, 0.0]], "radius": 4.0}, fh)
        out = str(tmp_path / "out")
        assert main(["anneal", "--graph", graph, "--out", out]) == EXIT_VERDICT
        report = load(os.path.join(out, VALIDATION_REPORT), ValidationReport)
        assert not report.ok and [(v.kind, v.limit) for v in report.violations] == [("pair_distance", 4.0)]
        assert not os.path.exists(os.path.join(out, ANNEAL_REPORT))

    def test_validates_once(self, tmp_path, monkeypatch):
        assert _count_calls(monkeypatch, "anneal", tmp_path) == {"load": 1, "mis": 1, "window": 1, "spacing": 1}

    @pytest.mark.parametrize("command", ["anneal", "all"])
    def test_window_warning_comes_before_annealing(self, command, tmp_path, capsys, monkeypatch):
        def evolve(*args, **kwargs):
            raise IntegrationFailure("stopped at the anneal")

        monkeypatch.setattr(rydnash.pipeline, "evolve", evolve)
        args = [command, "--graph", GRAPH_B_FILE, "--coupling-c", "2.2e6", "--out", str(tmp_path)]
        assert main(args) == EXIT_ERROR
        warning, error = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: C6 2.2e+06 is outside the drive-off window (3.386e+05, 1.284e+06)")
        assert error == "error: stopped at the anneal"

    def test_diabatic_schedule_misses_optimum(self, pair_graph_file, tmp_path):
        # a very short ramp leaves the register near the all-ground state,
        # so the optima drop out of the top ranks and the verdict fails
        sched = str(tmp_path / "fast.yaml")
        save_yaml(
            sched,
            Schedule(((0.0, 0.0), (0.05, 7.27), (0.1, 0.0)), ((0.0, -7.27), (0.1, 7.27)), 0.1),
        )
        out = str(tmp_path / "out")
        code = main(["anneal", "--graph", pair_graph_file, "--schedule", sched, "--out", out])
        assert code == EXIT_VERDICT
        report = read_report(os.path.join(out, ANNEAL_REPORT))
        assert report["mis_in_topk"] is False


class TestRefusedBeforeAnnealing:
    @pytest.fixture(autouse=True)
    def no_anneal(self, monkeypatch):
        def evolve(*args, **kwargs):
            raise AssertionError("evolve must not run for a refused input")

        monkeypatch.setattr(rydnash.pipeline, "evolve", evolve)

    @pytest.mark.parametrize("command", ["anneal", "all"])
    def test_over_limit_graph(self, command, chain25_file, tmp_path, capsys, monkeypatch):
        def pair_energy(self):
            raise AssertionError("no 2**n table may be built for a refused input")

        monkeypatch.setattr(RydbergSystem, "pair_energy", property(pair_energy))
        out = tmp_path / "out"
        assert main([command, "--graph", chain25_file, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {OVER_LIMIT}\n"
        assert not out.exists()

    def test_negative_seed(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        args = ["anneal", "--graph", GRAPH_A_FILE, "--coupling-c", str(C_A), "--seed", "-1", "--out", out]
        assert main(args) == EXIT_ERROR
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        with pytest.raises(InvalidInput):
            RunConfig(graph=load_graph(GRAPH_A_FILE), seed=-1)

    @pytest.mark.parametrize("field", ["shots", "seed", "c6"])
    def test_bool_is_not_a_number(self, field):
        # True would pass as 1 and be written as true, which the report
        # reader refuses
        with pytest.raises(InvalidInput, match=f"{field} must be {RUN_NUMBERS[field]}, got True"):
            RunConfig(graph=load_graph(GRAPH_A_FILE), **{field: True})

    def test_shots_past_int64_before_any_work(self, tmp_path, capsys, monkeypatch):
        # numpy's multinomial raised OverflowError on such a count, and only
        # after both evolve passes
        def evolve(*args, **kwargs):
            raise AssertionError("evolve must not run for a refused input")

        monkeypatch.setattr(rydnash.pipeline, "evolve", evolve)
        refused = f"shots must be an integer <= {2**63 - 1}, got {2**63}"
        out = tmp_path / "out"
        assert main(["all", "--graph", GRAPH_A_FILE, "--shots", str(2**63), "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {refused}\n"
        assert not out.exists()
        graph = load_graph(GRAPH_A_FILE)
        with pytest.raises(InvalidInput, match=refused):
            run_quantum(RunConfig(graph=graph, shots=2**63))
        assert RunConfig(graph=graph, shots=np.uint64(2**63 - 1)).shots == 2**63 - 1

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("shots", 2.5), ("c6", "1e6")])
    def test_non_number_before_any_work(self, field, value, pair_graph_file, monkeypatch):
        # each used to run the anneal first, then fail on it
        calls = []
        monkeypatch.setattr(rydnash.pipeline, "evolve", lambda *args: calls.append(args))
        with pytest.raises(InvalidInput, match=f"{field} must be {RUN_NUMBERS[field]}, got {value!r}"):
            run_quantum(RunConfig(graph=load_graph(pair_graph_file), **{field: value}))
        assert calls == []

    @pytest.mark.parametrize(
        "field, value",
        [("graph", GRAPH_A_FILE), ("game", {"e_star": 1.0}), ("schedule", "x")],
        ids=["graph-path", "game-mapping", "schedule-text"],
    )
    def test_unloaded_input_before_any_work(self, field, value, monkeypatch):
        # a path or a mapping used to fail inside run_classical with an
        # AttributeError, and a schedule of "x" was taken
        def enumerate_mis(*args, **kwargs):
            raise AssertionError("enumerate_mis must not run for a refused input")

        monkeypatch.setattr(rydnash.pipeline, "enumerate_mis", enumerate_mis)
        with pytest.raises(InvalidInput) as refused:
            run_classical(RunConfig(**{"graph": load_graph(GRAPH_A_FILE), field: value}))
        message = str(refused.value)
        assert message.startswith(f"{field} must be ") and message.endswith(f"; read a file with fileio.load_{field}")
        assert repr(value) in message

    def test_numpy_numbers_become_python_numbers(self, pair_graph_file):
        # the report writer takes only Python numbers
        graph = load_graph(pair_graph_file)
        config = RunConfig(graph=graph, shots=np.int64(50), seed=np.uint8(3), c6=np.float32(2e6))
        assert config == RunConfig(graph=graph, shots=50, seed=3, c6=2e6)
        assert (type(config.shots), type(config.seed), type(config.c6)) == (int, int, float)

    @pytest.mark.parametrize("c6", ["-1", "0", "nan", "inf"])
    def test_bad_coupling_before_any_work(self, c6, tmp_path, capsys, monkeypatch):
        def enumerate_mis(*args, **kwargs):
            raise AssertionError("enumerate_mis must not run for a refused input")

        monkeypatch.setattr(rydnash.pipeline, "enumerate_mis", enumerate_mis)
        out = tmp_path / "out"
        assert main(["all", "--graph", GRAPH_A_FILE, "--coupling-c", c6, "--out", str(out)]) == EXIT_ERROR
        assert f"c6 must be a positive finite number, got {float(c6)!r}" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(InvalidInput):
            RunConfig(graph=load_graph(GRAPH_A_FILE), c6=float(c6))

    @pytest.mark.parametrize("final", [0.0, -7.27])
    @pytest.mark.parametrize("command", ["validate", "anneal", "all"])
    def test_no_coupling_derived_from_final_detuning(self, command, final, tmp_path, capsys, monkeypatch):
        # C6 = Δ_f·R⁶ needs Δ_f > 0: the run is refused before any 2**n table
        def pair_energy(self):
            raise AssertionError("no 2**n table may be built for a refused input")

        monkeypatch.setattr(RydbergSystem, "pair_energy", property(pair_energy))
        sched = _ramp_ending_at(tmp_path, final)
        out = tmp_path / "out"
        assert main([command, "--graph", GRAPH_B_FILE, "--schedule", sched, "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: the schedule's final detuning {final} rad/us") and "--coupling-c" in err
        assert not (out / VALIDATION_REPORT).exists() and not (out / ANNEAL_REPORT).exists()

    @pytest.mark.parametrize("radius", [1.0e60, 2.0e51, 1.0e-60])
    @pytest.mark.parametrize("command", ["validate", "anneal", "all"])
    def test_derived_coupling_past_the_largest_float(self, command, radius, tmp_path, capsys, monkeypatch):
        # Δ_f·R⁶ used to raise OverflowError past R = 2.4e51 um, and to be
        # refused as "c6 ... got inf" above 1.7e51 um, or "got 0.0" where it
        # underflows: values never passed
        def pair_energy(self):
            raise AssertionError("no 2**n table may be built for a refused input")

        monkeypatch.setattr(RydbergSystem, "pair_energy", property(pair_energy))
        graph = str(tmp_path / "graph.yaml")
        save_yaml(graph, build_unit_disk_graph([(0.0, 0.0), (6.0, 0.0)], radius))
        out = tmp_path / "out"
        assert main([command, "--graph", graph, "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "--coupling-c" in err
        assert f"radius {radius} um" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("final, radius", [(0.0, 7.0), (7.27, 1.0e60)], ids=["final-detuning-0", "radius-1e60"])
    def test_all_refuses_before_the_sweeps(self, final, radius, tmp_path, capsys, monkeypatch):
        # all derives C6 before it sweeps: a C6 it cannot derive leaves no
        # classical report behind
        def sweep(*args, **kwargs):
            raise AssertionError("no sweep may run for a refused input")

        monkeypatch.setattr(rydnash.pipeline, "enumerate_specialized_nash", sweep)
        monkeypatch.setattr(rydnash.pipeline, "enumerate_mis", sweep)
        graph = str(tmp_path / "graph.yaml")
        save_yaml(graph, build_unit_disk_graph([(0.0, 0.0), (6.0, 0.0)], radius))
        out = tmp_path / "out"
        args = ["all", "--graph", graph, "--schedule", _ramp_ending_at(tmp_path, final), "--out", str(out)]
        assert main(args) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "--coupling-c" in err
        assert not out.exists()


class TestDerivedCoupling:
    """With no --coupling-c, a run's C6 is Δ_f·R⁶: 7.27 rad/us on the
    reference ramp, R the graph file's radius."""

    @pytest.mark.parametrize(
        "path, radius", [(GRAPH_A_FILE, GRAPH_A_RADIUS), (GRAPH_B_FILE, GRAPH_B_RADIUS)], ids=["graph_a", "graph_b"]
    )
    def test_bundled_graphs_pass(self, path, radius, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["all", "--graph", path, "--out", out]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert main(["validate", "--graph", path, "--out", out]) == EXIT_OK
        assert capsys.readouterr().err == ""
        for name in (ANNEAL_REPORT, VALIDATION_REPORT):
            assert read_report(os.path.join(out, name))["c6"] == 7.27 * radius**6
        lo, hi = load(os.path.join(out, VALIDATION_REPORT), ValidationReport).window
        assert lo < 7.27 * radius**6 < hi

    def test_explicit_coupling_needs_no_positive_final_detuning(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        args = ["validate", "--graph", GRAPH_B_FILE, "--schedule", _ramp_ending_at(tmp_path, 0.0)]
        assert main([*args, "--coupling-c", "6e5", "--out", out]) == EXIT_OK
        assert "no C6 makes" in capsys.readouterr().err
        assert load(os.path.join(out, VALIDATION_REPORT), ValidationReport).c6 == 6e5

    def test_rule_reads_no_set_family(self, monkeypatch):
        def enumerate_mis(*args, **kwargs):
            raise AssertionError("the coupling must not depend on the maximum sets")

        monkeypatch.setattr(rydnash.pipeline, "enumerate_mis", enumerate_mis)
        assert RunConfig(graph=load_graph(GRAPH_A_FILE)).system.c6 == 7.27 * GRAPH_A_RADIUS**6

    @pytest.mark.parametrize("coupling", [[], ["--coupling-c", "1e6"]], ids=["derived", "pinned"])
    @pytest.mark.parametrize("command", ["validate", "anneal", "all"])
    def test_atoms_too_far_apart_to_interact(self, command, coupling, tmp_path, capsys):
        # r**6 used to overflow in the unit-coupling table of the drive-off
        # window; the pair reads V = 0, so no C6 above 0 lets "11" lose
        graph = str(tmp_path / "far.yaml")
        save_yaml(graph, build_unit_disk_graph([(0.0, 0.0), (1.0e60, 0.0)], 7.0))
        out = str(tmp_path / "out")
        assert main([command, "--graph", graph, *coupling, "--out", out]) == EXIT_OK
        assert capsys.readouterr().err == ""
        if command == "validate":
            assert load(os.path.join(out, VALIDATION_REPORT), ValidationReport).window == (0.0, math.inf)


class TestModuleEntryPoint:
    def test_help(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["rydnash", "--help"])
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("rydnash", run_name="__main__")
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rydnash")

    @pytest.mark.filterwarnings("ignore:'rydnash.cli' found in sys.modules:RuntimeWarning")
    def test_cli_module_help(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["rydnash", "--help"])
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("rydnash.cli", run_name="__main__")
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rydnash")


class TestCompareCommand:
    def test_pipeline_then_compare(self, pair_graph_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["classical", "--graph", pair_graph_file, "--out", out]) == EXIT_OK
        assert main(["anneal", "--graph", pair_graph_file, "--out", out]) == EXIT_OK
        assert main(["compare", "--out", out]) == EXIT_OK
        report = read_report(os.path.join(out, COMPARE_REPORT))
        assert report["verdicts"] == {"nash_equals_mis": True, "mis_in_topk": True, "overall_pass": True}

    def test_incompatible_runs(self, tmp_path, capsys):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        main(["classical", "--graph", GRAPH_A_FILE, "--out", out_a])
        main(["classical", "--graph", GRAPH_B_FILE, "--out", out_b])
        main(["anneal", "--graph", GRAPH_B_FILE, "--coupling-c", "6e5", "--out", out_b])
        mixed = str(tmp_path / "mixed")
        os.makedirs(mixed)
        shutil.copy(os.path.join(out_a, CLASSICAL_REPORT), mixed)
        shutil.copy(os.path.join(out_b, ANNEAL_REPORT), mixed)
        capsys.readouterr()
        assert main(["compare", "--out", mixed]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: classical run is for graph e6af62dd5018d773, annealing run for 9599c48070d06adf\n"
        assert not os.path.exists(os.path.join(mixed, COMPARE_REPORT))

    def test_missing_reports(self, tmp_path):
        assert main(["compare", "--out", str(tmp_path / "empty")]) == EXIT_ERROR

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            (CLASSICAL_REPORT, lambda d: d.pop("witnesses"), "missing required field 'witnesses'"),
            (ANNEAL_REPORT, lambda d: d.pop("top_k"), "missing required field 'top_k'"),
            (ANNEAL_REPORT, lambda d: d.update(shots=d["shots"] + 1), "'shots' is 201, but the other fields give 200"),
            (ANNEAL_REPORT, lambda d: d["classification"][0].update(count=-1), "counts must be nonnegative"),
            (ANNEAL_REPORT, lambda d: d["classification"][0].pop("mis"), "'classification[0]': missing required"),
            (CLASSICAL_REPORT, lambda d: d.update(witnesses=[["100110"]]), "'witnesses[0]' must be a list of 2"),
            (CLASSICAL_REPORT, lambda d: d.update(nash_supports="100110"), "'nash_supports' must be a list"),
            (CLASSICAL_REPORT, lambda d: d.update(nash_supports=[1, 2]), "'nash_supports[0]' must be a string"),
            (ANNEAL_REPORT, lambda d: d["classification"][0].update(count="7"), "'classification[0].count' must be"),
            (CLASSICAL_REPORT, lambda d: d.update(colour="red"), "unknown fields ['colour']"),
            (ANNEAL_REPORT, lambda d: d["classification"].reverse(), "classification rows must be ranked"),
            (ANNEAL_REPORT, lambda d: d["classification"][1].update(mis=True),
             "readout 010100 disagrees with the maximum sets ['100110']"),
            (ANNEAL_REPORT, _rename_last_row, "expected a bitstring of length 6 over '0'/'1', got 'zz'"),
            (CLASSICAL_REPORT, _add_support_2, "expected a bitstring of length 6 over '0'/'1', got '2'"),
            (ANNEAL_REPORT, lambda d: d.update(n=9), "expected a bitstring of length 9 over '0'/'1', got '"),
            (CLASSICAL_REPORT, _empty_families, "the maximal independent sets must not be empty"),
            (ANNEAL_REPORT, _no_maximum_sets, "the maximum independent sets must not be empty"),
        ],
        ids=[
            "classical-no-witnesses",
            "anneal-no-top_k",
            "anneal-shots-mismatch",
            "anneal-negative-count",
            "anneal-row-no-mis",
            "classical-witness-not-pair",
            "classical-supports-not-list",
            "classical-supports-not-strings",
            "anneal-row-count-string",
            "classical-unknown-key",
            "anneal-rows-out-of-rank-order",
            "anneal-row-wrong-mis-flag",
            "anneal-row-not-bitstring",
            "classical-support-not-bitstring",
            "anneal-n-not-bitstring-length",
            "classical-empty-families",
            "anneal-empty-maximum-sets",
        ],
    )
    def test_malformed_report(self, name, edit, message, graph_a_results, tmp_path, capsys):
        out = str(tmp_path / "out")
        _write_results(out, *graph_a_results)
        path = os.path.join(out, name)
        data = read_report(path)
        edit(data)
        write_report(path, data)
        assert main(["compare", "--out", out]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert not os.path.exists(os.path.join(out, COMPARE_REPORT))

    @pytest.mark.parametrize(
        "name, cls, key, edit",
        [
            (VALIDATION_REPORT, ValidationReport, "ok", lambda d: d.update(ok=False)),
            (CLASSICAL_REPORT, ClassicalResult, "maximum_independent_sets",
             lambda d: d.update(maximum_independent_sets=d["maximal_independent_sets"])),
            (CLASSICAL_REPORT, ClassicalResult, "witnesses", lambda d: d.update(witnesses=[["100110", "nash_only"]])),
            (CLASSICAL_REPORT, ClassicalResult, "nash_equals_mis", lambda d: d.update(nash_equals_mis=False)),
            (ANNEAL_REPORT, QuantumResult, "counts",
             lambda d: d["counts"].update({"100110": d["counts"]["100110"] + 1})),
            (ANNEAL_REPORT, QuantumResult, "shots", lambda d: d.update(shots=d["shots"] + 1)),
            (ANNEAL_REPORT, QuantumResult, "top_k", lambda d: d.update(top_k=[d["classification"][1]["bitstring"]])),
            (ANNEAL_REPORT, QuantumResult, "mis_in_topk", lambda d: d.update(mis_in_topk=False)),
            (COMPARE_REPORT, ComparisonReport, "verdicts.overall_pass",
             lambda d: d["verdicts"].update(overall_pass=False)),
        ],
        ids=[
            "ok", "maximum_independent_sets", "witnesses", "nash_equals_mis", "counts", "shots", "top_k", "mis_in_topk",
            "verdicts.overall_pass",
        ],
    )
    def test_derived_value_is_checked(self, name, cls, key, edit, graph_a_all_run, tmp_path, capsys):
        # every derived field is written, and read back only if it is what
        # its class computes from the other fields; compare reads the
        # classical and anneal reports, so it refuses theirs with exit 1
        out = str(tmp_path / "out")
        shutil.copytree(graph_a_all_run[0], out)
        path = os.path.join(out, name)
        data = read_report(path)
        edit(data)
        write_report(path, data)
        message = f"{path}: {key!r} is "
        with pytest.raises(ConfigError) as refused:
            load(path, cls)
        assert str(refused.value).startswith(message) and "but the other fields give" in str(refused.value)
        if cls in (ClassicalResult, QuantumResult):
            os.remove(os.path.join(out, COMPARE_REPORT))
            assert main(["compare", "--out", out]) == EXIT_ERROR
            assert capsys.readouterr().err.startswith(f"error: {message}")
            assert not os.path.exists(os.path.join(out, COMPARE_REPORT))

    def test_non_mapping_report(self, graph_a_results, tmp_path, capsys):
        out = str(tmp_path / "out")
        _write_results(out, *graph_a_results)
        path = os.path.join(out, CLASSICAL_REPORT)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("- graph_hash\n")
        assert main(["compare", "--out", out]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {path}: expected a mapping at the top level, got list")


class TestAllCommand:
    def test_graph_a_full_run(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(
            ["all", "--graph", GRAPH_A_FILE, "--coupling-c", str(C_A), "--out", out, "--seed", "7"]
        )
        assert code == EXIT_OK
        for name in (CLASSICAL_REPORT, ANNEAL_REPORT, COMPARE_REPORT, HISTOGRAM_CSV):
            assert os.path.exists(os.path.join(out, name))
        report = read_report(os.path.join(out, COMPARE_REPORT))
        assert report["verdicts"]["overall_pass"] is True
        assert read_report(os.path.join(out, ANNEAL_REPORT))["top_k"] == ["100110"]

    def test_block_style_graph_gives_the_same_reports(self, graph_a_all_run, tmp_path):
        # a hand-written layout is read by PyYAML, the bundled one without it
        out, _ = graph_a_all_run
        block = tmp_path / "graph_a.yaml"
        block.write_text("# graph_a in block style\n" + yaml.safe_dump(read_report(GRAPH_A_FILE)))
        assert rydnash.fileio._read_canonical(block.read_text()) is None
        block_out = str(tmp_path / "out")
        for command in ("all", "validate"):
            assert main([command, "--graph", str(block), "--coupling-c", str(C_A), "--out", block_out]) == EXIT_OK
        names = sorted(os.listdir(block_out))
        assert names == sorted([ANNEAL_REPORT, CLASSICAL_REPORT, COMPARE_REPORT, HISTOGRAM_CSV, VALIDATION_REPORT])
        for name in names:
            with open(os.path.join(out, name), "rb") as f1, open(os.path.join(block_out, name), "rb") as f2:
                assert f1.read() == f2.read(), name

    @pytest.mark.parametrize("layout", ["graph_b", "chain11"])
    def test_libyaml_reports_match_pure_python(self, layout, tmp_path, monkeypatch):
        # every file that all writes, and chain11's graph and ramp files, must
        # hold byte for byte what both PyYAML dumpers write for the same data,
        # and read back as that data under both PyYAML loaders; chain11 has
        # about 200 classification rows
        if not yaml.__with_libyaml__:
            pytest.skip("PyYAML is built without libyaml")
        written = []
        write = rydnash.fileio.write_report

        def recording(path, data):
            written.append((path, data))
            write(path, data)

        for module in list(sys.modules.values()):  # wherever rydnash or the tests bind it
            if getattr(module, "write_report", None) is write:
                monkeypatch.setattr(module, "write_report", recording)
        if layout == "graph_b":
            args = ["--graph", GRAPH_B_FILE, "--coupling-c", "6e5"]
        else:
            graph, ramp = str(tmp_path / "chain.yaml"), str(tmp_path / "ramp.yaml")
            save_yaml(graph, build_unit_disk_graph([(6.0 * i, 0.0) for i in range(11)], 6.0))
            save_yaml(ramp, default_schedule(duration=1.0))
            args = ["--graph", graph, "--schedule", ramp, "--coupling-c", "1e6"]
        assert main(["all", *args, "--out", str(tmp_path / "out"), "--seed", "7"]) == EXIT_OK
        assert {os.path.basename(path) for path, _ in written} >= {CLASSICAL_REPORT, ANNEAL_REPORT, COMPARE_REPORT}
        for path, data in written:
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
            for dumper in (yaml.SafeDumper, yaml.CSafeDumper):
                assert text == yaml.dump(data, Dumper=dumper, sort_keys=True, default_flow_style=None)
            for loader in (yaml.SafeLoader, yaml.CSafeLoader):
                assert yaml.load(text, Loader=loader) == data
        if layout == "chain11":
            assert len(read_report(os.path.join(tmp_path, "out", ANNEAL_REPORT))["classification"]) > 150

    def test_outdir_env_default(self, pair_graph_file, tmp_path, monkeypatch):
        monkeypatch.delenv(OUTDIR_ENV, raising=False)
        assert build_parser().parse_args(["classical", "--graph", pair_graph_file]).outdir == DEFAULT_OUTDIR
        env_dir = str(tmp_path / "envout")
        monkeypatch.setenv(OUTDIR_ENV, env_dir)
        assert main(["classical", "--graph", pair_graph_file]) == EXIT_OK
        assert os.listdir(env_dir) == [CLASSICAL_REPORT]

    def test_parser_built_once_per_outdir_default(self, pair_graph_file, tmp_path, monkeypatch):
        # repeated main calls in one process reuse one parser; a new
        # $RYDNASH_OUT still sets the default output directory
        built = []

        def counting():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(rydnash.cli, "build_parser", counting)
        monkeypatch.delenv(OUTDIR_ENV, raising=False)
        rydnash.cli._parser.cache_clear()
        for name in ("one", "two"):
            assert main(["classical", "--graph", pair_graph_file, "--out", str(tmp_path / name)]) == EXIT_OK
        assert len(built) == 1
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "env"))
        assert main(["classical", "--graph", pair_graph_file]) == EXIT_OK
        assert os.listdir(tmp_path / "env") == [CLASSICAL_REPORT]
        assert len(built) == 2

    @settings(max_examples=10, deadline=None)
    @given(graph=unit_disk_layouts(n_max=5))
    def test_reruns_write_identical_files(self, graph):
        # pairs at the 4 um floor stay at or below 25 rad/us at this C6; a
        # layout refused for spacing compares its validation reports
        with tempfile.TemporaryDirectory() as tmp:
            graph_file, ramp = os.path.join(tmp, "graph.yaml"), os.path.join(tmp, "ramp.yaml")
            save_yaml(graph_file, graph)
            save_yaml(ramp, default_schedule(duration=1.0))
            args = ["all", "--graph", graph_file, "--schedule", ramp, "--coupling-c", "1e5", "--seed", "7"]
            runs = [os.path.join(tmp, name) for name in ("run1", "run2")]
            codes = [main([*args, "--out", out]) for out in runs]
            assert codes[0] == codes[1] and codes[0] in (EXIT_OK, EXIT_VERDICT)
            names = sorted(os.listdir(runs[0]))
            assert names == sorted(os.listdir(runs[1])) and CLASSICAL_REPORT in names
            for name in names:
                with open(os.path.join(runs[0], name), "rb") as f1, open(os.path.join(runs[1], name), "rb") as f2:
                    assert f1.read() == f2.read(), name

    def test_loads_and_sweeps_once(self, tmp_path, monkeypatch):
        assert _count_calls(monkeypatch, "all", tmp_path) == {"load": 1, "mis": 1, "window": 1, "spacing": 1}

    def test_omitted_options_take_run_config_defaults(self):
        args = build_parser().parse_args(["all", "--graph", GRAPH_A_FILE, "--out", "o"])
        assert _config_from_args(args) == RunConfig(graph=load_graph(GRAPH_A_FILE))
        # the output options stay the CLI's own
        assert (args.outdir, args.plot_data) == ("o", False)
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert fields == {"graph", "game", "schedule", "c6", "shots", "seed"}


class TestPipelineApi:
    def test_run_quantum_refuses_from_config_validation(self):
        from rydnash.errors import ConstraintViolation

        config = RunConfig(graph=build_unit_disk_graph([(0.0, 0.0), (2.0, 0.0)], 4.0), shots=10)
        with pytest.raises(ConstraintViolation, match="1 violation"):
            run_quantum(config)
        assert not config.validation.ok
        assert [v.kind for v in config.validation.violations] == ["pair_distance"]

    def test_compare_joins_the_results_verdicts(self, pair_graph_file):
        config = RunConfig(graph=load_graph(pair_graph_file), shots=50)
        classical = run_classical(config)
        quantum = run_quantum(config)
        report = compare(classical, quantum)
        assert report == ComparisonReport(classical.graph_hash, Verdicts(classical.nash_equals_mis, quantum.mis_in_topk))
        assert report.verdicts.overall_pass == (classical.nash_equals_mis and quantum.mis_in_topk)

    def test_compare_refuses_other_maximum_sets(self, graph_a_results, tmp_path, capsys):
        # an anneal result, consistent in itself, whose maximum sets add a
        # bitstring it never read out: compare refuses the pair, exit 1
        classical, quantum = graph_a_results
        absent = next(bits for bits in map("{:06b}".format, range(64)) if bits not in quantum.counts)
        other = dataclasses.replace(quantum, maximum_sets=(*quantum.maximum_sets, absent))
        message = f"classical run has maximum sets ['100110'], annealing run ['100110', '{absent}']"
        with pytest.raises(IncompatibleRuns) as refused:
            compare(classical, other)
        assert str(refused.value) == message
        out = str(tmp_path / "out")
        _write_results(out, classical, other)
        assert main(["compare", "--out", out]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(os.path.join(out, COMPARE_REPORT))

    @pytest.mark.parametrize(
        "graph, c6, dropped, maximum",
        [
            (GRAPH_A_FILE, C_A, "010001", None),
            (GRAPH_B_FILE, 6e5, "100110", ["010101", "100101", "101010"]),
            (GRAPH_A_FILE, C_A, "100110", ["010001", "010100", "100001", "101000"]),
        ],
        ids=["graph_a-non-maximum", "graph_b-one-of-four-maximum", "graph_a-only-maximum"],
    )
    def test_readout_flags_check_the_sweep(self, graph, c6, dropped, maximum, monkeypatch, tmp_path, capsys):
        # the readout flags come from the local rules, not from the MIS
        # sweep: a sweep that loses a non-maximum set leaves every row as it
        # was, and one that loses a maximum set is refused at that readout
        # (the largest maximal one on graph_a), before any report is written
        rows = run_quantum(RunConfig(graph=load_graph(graph), c6=c6, shots=200)).rows
        assert any(row.bitstring == dropped and row.maximal for row in rows)
        sweep = rydnash.pipeline.enumerate_mis
        monkeypatch.setattr(rydnash.pipeline, "enumerate_mis", lambda g: tuple(s for s in sweep(g) if s != dropped))
        if maximum is None:
            assert run_quantum(RunConfig(graph=load_graph(graph), c6=c6, shots=200)).rows == rows
            return
        message = f"readout {dropped} disagrees with the maximum sets {maximum}"
        with pytest.raises(InvalidInput) as refused:
            run_quantum(RunConfig(graph=load_graph(graph), c6=c6, shots=200))
        assert str(refused.value) == message
        out = tmp_path / "out"
        args = ["anneal", "--graph", graph, "--coupling-c", str(c6), "--shots", "200", "--out", str(out)]
        assert main(args) == EXIT_ERROR
        assert capsys.readouterr().err.endswith(f"error: {message}\n")  # after any window warning
        assert not out.exists()

    def test_nash_kernel_fault_is_caught(self, monkeypatch, tmp_path):
        # a kernel that loses one non-maximum support, wherever rydnash
        # binds it, loses it from the Nash family only: the maximal sets come
        # from their own search, so the cross-check fails
        kernel = rydnash.game._rule_supports
        dropped = "010001"

        def faulty(neighbors, rule):
            return tuple(s for s in kernel(neighbors, rule) if s != dropped)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("rydnash") and getattr(module, "_rule_supports", None) is kernel:
                monkeypatch.setattr(module, "_rule_supports", faulty)
        assert rydnash.game._rule_supports is faulty
        out = tmp_path / "out"
        assert main(["all", "--graph", GRAPH_A_FILE, "--out", str(out)]) == EXIT_VERDICT
        report = read_report(str(out / CLASSICAL_REPORT))
        assert report["nash_equals_mis"] is False
        assert dropped in report["maximal_independent_sets"] and dropped not in report["nash_supports"]

    def test_run_classical_sweeps_each_family_once(self, monkeypatch):
        calls = {"nash": 0, "mis": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        nash = counting("nash", rydnash.game.enumerate_specialized_nash)
        mis = counting("mis", rydnash.indsets.enumerate_mis)
        for module in (rydnash.game, rydnash.pipeline):
            monkeypatch.setattr(module, "enumerate_specialized_nash", nash)
        for module in (rydnash.indsets, rydnash.pipeline):
            monkeypatch.setattr(module, "enumerate_mis", mis)
        result = run_classical(RunConfig(graph=load_graph(GRAPH_A_FILE)))
        assert calls == {"nash": 1, "mis": 1}
        assert result.maximum_sets == ("100110",)
        assert result.nash_equals_mis and result.witnesses == ()

    def test_row_energy_is_the_ranked_diagonal(self, graph_a_results):
        # the energy column is RydbergSystem.diagonal, which evolve
        # integrates, so the all-ground readout reads 0.0, not -0.0
        _, result = graph_a_results
        config = RunConfig(graph=load_graph(GRAPH_A_FILE), c6=C_A)
        energies = RydbergSystem(config.graph, C_A).diagonal(config.schedule.delta_at(config.schedule.duration))
        assert "0" * result.n in {row.bitstring for row in result.rows}
        for row in result.rows:
            assert row.energy == energies[from_bitstring(row.bitstring, result.n)]
            assert str(row.energy) != "-0.0"

    @pytest.mark.parametrize(
        "name, cls",
        [
            (CLASSICAL_REPORT, ClassicalResult),
            (ANNEAL_REPORT, QuantumResult),
            (COMPARE_REPORT, ComparisonReport),
            (VALIDATION_REPORT, ValidationReport),
            (REFUSED_VALIDATION_REPORT, ValidationReport),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else None,
    )
    def test_result_round_trip(self, name, cls, graph_a_all_run, tmp_path):
        # each report that all, validate and a refused anneal write loads
        # back through the shared reader into the result it was written
        # from, and rewrites byte for byte
        out, results = graph_a_all_run
        path = os.path.join(out, name)
        loaded = load(path, cls)
        assert loaded == results[name]
        again = str(tmp_path / name)
        write_report(again, to_mapping(loaded))
        with open(path, "rb") as written, open(again, "rb") as rewritten:
            assert written.read() == rewritten.read()

    def test_compare_report_file_unchanged(self, graph_a_all_run):
        # the nested Verdicts dataclass writes the line the flat bool fields
        # were written as: one flow mapping under verdicts, written last
        out, _ = graph_a_all_run
        with open(os.path.join(out, COMPARE_REPORT), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[-1] == "verdicts: {mis_in_topk: true, nash_equals_mis: true, overall_pass: true}"

    def test_compare_on_reloaded_reports(self, graph_a_results, tmp_path):
        out = str(tmp_path)
        _write_results(out, *graph_a_results)
        classical = load(os.path.join(out, CLASSICAL_REPORT), ClassicalResult)
        quantum = load(os.path.join(out, ANNEAL_REPORT), QuantumResult)
        assert compare(classical, quantum) == compare(*graph_a_results)


class TestReportSchema:
    """Pins every report's keys, so a new result field that changes a
    report's schema shows up here."""

    def test_all_reports(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["all", "--graph", GRAPH_A_FILE, "--coupling-c", str(C_A), "--out", out]) == EXIT_OK
        classical = read_report(os.path.join(out, CLASSICAL_REPORT))
        anneal = read_report(os.path.join(out, ANNEAL_REPORT))
        report = read_report(os.path.join(out, COMPARE_REPORT))
        assert set(classical) == {
            "graph_hash", "n", "nash_supports", "maximal_independent_sets", "maximum_independent_sets",
            "nash_equals_mis", "witnesses",
        }
        assert set(anneal) == {
            "graph_hash", "n", "c6", "shots", "seed", "duration", "counts", "classification",
            "maximum_independent_sets", "top_k", "mis_aggregate_probability", "mis_in_topk",
        }
        # the compare report copies no family and no readout: the classical
        # and anneal reports hold them
        assert set(report) == {"graph_hash", "verdicts"}
        assert set(report["verdicts"]) == {"nash_equals_mis", "mis_in_topk", "overall_pass"}
        row_keys = {"bitstring", "count", "probability", "energy", "independent", "maximal", "mis"}
        assert anneal["classification"] and all(set(row) == row_keys for row in anneal["classification"])
        # compare on the reloaded reports rewrites what all wrote
        with open(os.path.join(out, COMPARE_REPORT), "rb") as fh:
            written = fh.read()
        assert main(["compare", "--out", out]) == EXIT_OK
        with open(os.path.join(out, COMPARE_REPORT), "rb") as fh:
            assert fh.read() == written

    def test_validation_report(self, tmp_path):
        out = str(tmp_path / "b")
        assert main(["validate", "--graph", GRAPH_B_FILE, "--coupling-c", "6e5", "--out", out]) == EXIT_OK
        report = read_report(os.path.join(out, VALIDATION_REPORT))
        assert set(report) == {"ok", "violations", "c6", "window"}
        assert report["ok"] is True and report["c6"] == 6e5
        assert isinstance(report["window"], list) and len(report["window"]) == 2

        graph = str(tmp_path / "close.yaml")
        with open(graph, "w") as fh:
            yaml.safe_dump({"nodes": [[0.0, 0.0], [3.0, 0.0]], "radius": 4.0}, fh)
        out = str(tmp_path / "close")
        assert main(["validate", "--graph", graph, "--out", out]) == EXIT_VERDICT
        (v,) = read_report(os.path.join(out, VALIDATION_REPORT))["violations"]
        assert set(v) == {"kind", "subject", "value", "limit"} and v["subject"] == [0, 1]


def _close_pair_file(tmp_path):
    """A 3 um pair: below the 4 um floor, so its anneal is refused."""
    path = str(tmp_path / "close.yaml")
    save_yaml(path, build_unit_disk_graph([(0.0, 0.0), (3.0, 0.0)], 4.0))
    return path


def _all_a(out):
    """``all`` on graph_a at its pinned coupling, with every file it can write."""
    assert main(["all", "--graph", GRAPH_A_FILE, "--coupling-c", str(C_A), "--plot-data", "--out", out]) == EXIT_OK
    assert sorted(os.listdir(out)) == sorted(set(OUTPUT_SETS["all"]) - {VALIDATION_REPORT})


class TestOutputSets:
    """A command that writes any file removes the files of its output set
    that it did not rewrite, so none of an earlier run's is left beside its own."""

    @pytest.mark.parametrize("command", ["all", "anneal"])
    def test_refused_anneal_after_all(self, command, tmp_path):
        out = str(tmp_path / "X")
        _all_a(out)
        close = _close_pair_file(tmp_path)
        assert main([command, "--graph", close, "--out", out]) == EXIT_VERDICT
        assert sorted(os.listdir(out)) == [CLASSICAL_REPORT, VALIDATION_REPORT]
        # all rewrote the classical report for the pair; anneal left graph_a's
        expected = close if command == "all" else GRAPH_A_FILE
        assert load(os.path.join(out, CLASSICAL_REPORT), ClassicalResult).graph_hash == graph_fingerprint(
            load_graph(expected)
        )
        assert not load(os.path.join(out, VALIDATION_REPORT), ValidationReport).ok

    def test_anneal_after_refusal_removes_the_validation_report(self, pair_graph_file, tmp_path):
        out = str(tmp_path / "X")
        assert main(["anneal", "--graph", _close_pair_file(tmp_path), "--out", out]) == EXIT_VERDICT
        assert main(["anneal", "--graph", pair_graph_file, "--shots", "20", "--out", out]) == EXIT_OK
        assert sorted(os.listdir(out)) == [ANNEAL_REPORT, HISTOGRAM_CSV]

    def test_classical_after_all(self, tmp_path):
        out = str(tmp_path / "X")
        _all_a(out)
        assert main(["classical", "--graph", GRAPH_B_FILE, "--out", out]) == EXIT_OK
        # the anneal outputs are not classical's to remove; the compare
        # report, derived from the classical report, is
        assert sorted(os.listdir(out)) == [ANNEAL_REPORT, CLASSICAL_REPORT, HISTOGRAM_CSV, SCHEDULE_SERIES_CSV]
        assert main(["compare", "--out", out]) == EXIT_ERROR
        assert COMPARE_REPORT not in os.listdir(out)

    def test_error_after_a_write_still_removes_the_rest(self, tmp_path, monkeypatch):
        out = str(tmp_path / "X")
        _all_a(out)

        def evolve(*args, **kwargs):
            raise IntegrationFailure("stopped at the anneal")

        monkeypatch.setattr(rydnash.pipeline, "evolve", evolve)
        assert main(["all", "--graph", GRAPH_B_FILE, "--coupling-c", str(C_B), "--out", out]) == EXIT_ERROR
        assert os.listdir(out) == [CLASSICAL_REPORT]

    def test_error_before_any_write_removes_nothing(self, tmp_path):
        out = str(tmp_path / "X")
        _all_a(out)
        before = sorted(os.listdir(out))
        assert main(["all", "--graph", str(tmp_path / "missing.yaml"), "--out", out]) == EXIT_ERROR
        assert sorted(os.listdir(out)) == before

    def test_rerun_over_another_run_matches_a_clean_run(self, tmp_path):
        dirty, clean = str(tmp_path / "dirty"), str(tmp_path / "clean")
        _all_a(dirty)
        args = ["all", "--graph", GRAPH_B_FILE, "--coupling-c", str(C_B), "--seed", "7"]
        assert main([*args, "--out", dirty]) == main([*args, "--out", clean]) == EXIT_OK
        names = sorted(os.listdir(clean))
        assert names == sorted(os.listdir(dirty)) == [ANNEAL_REPORT, CLASSICAL_REPORT, COMPARE_REPORT, HISTOGRAM_CSV]
        for name in names:
            with open(os.path.join(dirty, name), "rb") as f1, open(os.path.join(clean, name), "rb") as f2:
                assert f1.read() == f2.read(), name


def _reference_fingerprint(graph):
    """``graph_fingerprint`` through hashlib: the same bytes, hashed at once."""
    text = str(graph.n) + graph.radius.hex() + "".join(x.hex() + y.hex() for x, y in graph.positions)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fresh_python(code, *args):
    """The last line ``code`` prints in a new interpreter that imports this rydnash."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=child_env(), capture_output=True, text=True, check=True
    )
    return done.stdout.splitlines()[-1]


class TestGraphFingerprint:
    @pytest.mark.parametrize("path, digest", [(GRAPH_A_FILE, "e6af62dd5018d773"), (GRAPH_B_FILE, "9599c48070d06adf")])
    def test_bundled_graphs(self, path, digest):
        graph = load_graph(path)
        assert graph_fingerprint(graph) == _reference_fingerprint(graph) == digest

    @settings(max_examples=50, deadline=None)
    @given(graph=unit_disk_layouts())
    def test_matches_hashlib(self, graph):
        assert graph_fingerprint(graph) == _reference_fingerprint(graph)

    def test_commands_that_never_sample_leave_openssl_unloaded(self, tmp_path):
        # the n = 24 King's layout's classical report also matches one
        # written in this process, byte for byte
        out, kings_out, again = (str(tmp_path / name) for name in ("out", "kings", "again"))
        kings = str(tmp_path / "kings24.yaml")
        save_yaml(kings, kings_24())
        assert main(["anneal", "--graph", GRAPH_B_FILE, "--coupling-c", str(C_B), "--out", out]) == EXIT_OK
        code = (
            "import sys\n"
            "from rydnash import cli\n"
            "graph, c6, out, kings, kings_out = sys.argv[1:]\n"
            "runs = [['classical', '--graph', graph, '--out', out],\n"
            "        ['validate', '--graph', graph, '--coupling-c', c6, '--out', out], ['compare', '--out', out],\n"
            "        ['classical', '--graph', kings, '--out', kings_out]]\n"
            "print([cli.main(argv) for argv in runs], '_hashlib' in sys.modules)\n"
        )
        printed = _fresh_python(code, GRAPH_B_FILE, str(C_B), out, kings, kings_out)
        assert printed == f"[{EXIT_OK}, {EXIT_OK}, {EXIT_OK}, {EXIT_OK}] False"
        report = load(os.path.join(kings_out, CLASSICAL_REPORT), ClassicalResult)
        assert len(report.maximal_sets) == 544 and report.nash_equals_mis
        assert main(["classical", "--graph", kings, "--out", again]) == EXIT_OK
        written, rewritten = (os.path.join(d, CLASSICAL_REPORT) for d in (kings_out, again))
        with open(written, "rb") as f1, open(rewritten, "rb") as f2:
            assert f1.read() == f2.read()

    def test_hashlib_fallback_gives_the_same_digest(self):
        code = (
            "import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\n"
            "from rydnash import fileio, pipeline\n"
            "assert pipeline.sha256 is hashlib.sha256\n"
            "print(*(pipeline.graph_fingerprint(fileio.load_graph(path)) for path in sys.argv[1:]))\n"
        )
        assert _fresh_python(code, GRAPH_A_FILE, GRAPH_B_FILE) == "e6af62dd5018d773 9599c48070d06adf"


class TestImportFootprint:
    def test_import_loads_neither_yaml_nor_openssl(self):
        code = "import sys, rydnash\nprint('yaml' in sys.modules, '_hashlib' in sys.modules)\n"
        assert _fresh_python(code) == "False False"

    def test_commands_leave_yaml_unloaded(self, tmp_path):
        # the bundled configs and the reports are what rydnash writes, so no
        # command needs PyYAML to read them
        code = (
            "import sys\n"
            "from rydnash import cli\n"
            "configs, out_a, out_b = sys.argv[1:]\n"
            "seen = ['yaml' in sys.modules]\n"
            "game, schedule = f'{configs}/game_default.yaml', f'{configs}/schedule_default.yaml'\n"
            "for args in (['all', '--graph', f'{configs}/graph_a.yaml', '--game', game, '--schedule', schedule,\n"
            "              '--out', out_a],\n"
            "             ['compare', '--out', out_a],\n"
            "             ['classical', '--graph', f'{configs}/graph_b.yaml', '--game', game, '--out', out_b],\n"
            "             ['validate', '--graph', f'{configs}/graph_b.yaml', '--schedule', schedule, '--out', out_b]):\n"
            "    seen += [cli.main(args), 'yaml' in sys.modules]\n"
            "print(*seen)\n"
        )
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert _fresh_python(code, CONFIGS, out_a, out_b) == " ".join(["False"] + [f"{EXIT_OK} False"] * 4)

    def test_sampling_run_leaves_openssl_unloaded(self, tmp_path):
        # numpy.random imports secrets, and with it OpenSSL, unless sample
        # imports it first; every file the two processes write must be the
        # same either way
        code = (
            "import os, sys\n"
            "graph, first, out = sys.argv[1:]\n"
            "if first == 'numpy.random':\n"
            "    import numpy.random\n"
            "from rydnash import cli\n"
            "code = cli.main(['all', '--graph', graph, '--coupling-c', '2.2e6', '--out', out])\n"
            "loaded = '_hashlib' in sys.modules\n"
            "import secrets\n"
            "print(code, loaded, os.path.basename(secrets.__file__), len(secrets.token_hex(4)))\n"
        )
        alone, numpy_first = str(tmp_path / "alone"), str(tmp_path / "numpy_first")
        assert _fresh_python(code, GRAPH_A_FILE, "rydnash", alone) == f"{EXIT_OK} False secrets.py 8"
        assert _fresh_python(code, GRAPH_A_FILE, "numpy.random", numpy_first).startswith(f"{EXIT_OK} ")
        names = sorted(os.listdir(alone))
        assert names == sorted(os.listdir(numpy_first)) and len(names) == 4
        for name in names:
            with open(os.path.join(alone, name), "rb") as f1, open(os.path.join(numpy_first, name), "rb") as f2:
                assert f1.read() == f2.read(), name
