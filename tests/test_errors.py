"""The one numeric-argument rule: every site that takes a number refuses a
bool, a string, a non-finite value and an out-of-range value with
InvalidInput, and takes a numpy scalar as the Python number it equals."""

import math

import numpy as np
import pytest

from conftest import save_yaml
from rydnash._bits import from_bitstring
from rydnash.dynamics import QuantumState, RydbergSystem, propagate, sample
from rydnash.errors import InvalidInput, integer, pairs, real
from rydnash.fileio import load_game
from rydnash.game import GameParams, payoff
from rydnash.geometry import EmbeddedGraph, blockade_radius, build_unit_disk_graph
from rydnash.pipeline import RunConfig
from rydnash.schedule import Schedule, default_schedule

PAIR = build_unit_disk_graph([(0.0, 0.0), (6.0, 0.0)], 8.0)
PAIR_SYSTEM = RydbergSystem(PAIR, 2e6)
RAMP = default_schedule(0.5)
PLUS = QuantumState(np.full(2, math.sqrt(0.5)))
WAVE = ((0.0, 0.0), (1.0, 1.0))

# (site, call, a value the site takes, a value out of its range); ``call``
# returns what the site stores, or what it returns when it stores nothing
SITES = [
    ("RunConfig.shots", lambda v: RunConfig(PAIR, shots=v).shots, 5, 0),
    ("RunConfig.seed", lambda v: RunConfig(PAIR, seed=v).seed, 3, -1),
    ("RunConfig.c6", lambda v: RunConfig(PAIR, c6=v).c6, 2e6, 0.0),
    ("RydbergSystem.c6", lambda v: RydbergSystem(PAIR, v).c6, 2e6, -1.0),
    ("propagate.step", lambda v: propagate(PAIR_SYSTEM, RAMP, v).amplitudes.tobytes(), 0.05, 0.0),
    ("sample.shots", lambda v: sample(PLUS, v, 1), 20, 0),
    ("sample.seed", lambda v: sample(PLUS, 20, v), 4, -1),
    ("GameParams.e_star", lambda v: GameParams(e_star=v).e_star, 2.0, 0.0),
    ("GameParams.cost", lambda v: GameParams(c=v).c, 0.25, 1.0),
    ("agent", lambda v: payoff(PAIR, GameParams(), "10", v), 1, 2),
    ("EmbeddedGraph.radius", lambda v: EmbeddedGraph(((0.0, 0.0), (6.0, 0.0)), v).radius, 8.0, 0.0),
    ("EmbeddedGraph.positions", lambda v: EmbeddedGraph(((0.0, 0.0), (v, 0.0)), 8.0).positions[1][0], 6.0, 0.0),
    ("blockade_radius.c6", lambda v: blockade_radius(v, 1.0, 0.0), 1e6, -1.0),
    ("blockade_radius.omega", lambda v: blockade_radius(1e6, v, 0.0), 1.0, 0.0),
    ("blockade_radius.delta", lambda v: blockade_radius(1e6, 0.0, v), 1.0, 0.0),
    ("Schedule.duration", lambda v: Schedule(WAVE, WAVE, v).duration, 1.0, 0.0),
    ("Schedule.omega", lambda v: Schedule(((0.0, 0.0), (1.0, v)), WAVE, 1.0).omega[1][1], 2.0, -1.0),
    ("Schedule.times", lambda v: Schedule(WAVE, ((0.0, 0.0), (v, 1.0)), 1.0).delta[1][0], 1.0, 0.5),
    ("default_schedule", lambda v: default_schedule(v).duration, 2.0, 0.0),
]
SITE_IDS = [site for site, *_ in SITES]


@pytest.mark.parametrize("kind", ["bool", "string", "nan", "inf", "out-of-range"])
@pytest.mark.parametrize("site, call, good, bad", SITES, ids=SITE_IDS)
def test_refused(site, call, good, bad, kind):
    value = {"bool": True, "string": str(good), "nan": math.nan, "inf": math.inf, "out-of-range": bad}[kind]
    with pytest.raises(InvalidInput):
        call(value)


@pytest.mark.parametrize("site, call, good, bad", SITES, ids=SITE_IDS)
def test_numpy_scalar_is_a_python_number(site, call, good, bad):
    expected = call(good)
    taken = call(np.int64(good) if type(good) is int else np.float64(good))
    assert taken == expected and type(taken) is type(expected)


def test_helpers_return_python_numbers():
    assert type(real("x", np.float32(0.5))) is float and real("x", 3) == 3.0
    assert type(integer("k", np.uint8(3), 0)) is int
    with pytest.raises(InvalidInput, match="x must be a finite number, got 1000"):
        real("x", 10**400)  # too large for a float
    with pytest.raises(InvalidInput, match="k must be an integer >= 0"):
        integer("k", np.bool_(False), 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: EmbeddedGraph((5.0, (1.0, 2.0)), 3.0), r"atom 0: expected a \(x, y\) pair, got 5\.0"),
        (lambda: EmbeddedGraph(None, 3.0), "expected a sequence of atoms, got None"),
        (lambda: Schedule(((0.0,), (1.0, 1.0)), WAVE, 1.0), r"omega breakpoint 0: expected a \(time, value\) pair"),
        (lambda: Schedule(None, WAVE, 1.0), "expected a sequence of omega breakpoints, got None"),
    ],
    ids=["float-point", "no-points", "short-breakpoint", "no-breakpoints"],
)
def test_malformed_pairs_refused(call, message):
    # a point or breakpoint that is no pair of numbers is named, not left to
    # a TypeError or ValueError from unpacking it
    with pytest.raises(InvalidInput, match=message):
        call()


def nested(depth):
    value = [0.0]
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "call",
    [
        lambda: EmbeddedGraph((nested(3000),), 1.0),
        lambda: EmbeddedGraph(((0.0, nested(3000)),), 1.0),
        lambda: pairs(nested(3000)[0], "atom", ("x", "y")),
        lambda: real("radius", [1.0] * 100_000),
        lambda: integer("shots", nested(3000), 1),
        lambda: from_bitstring("0" * 100_000, 6),
        lambda: GameParams(benefit="b" * 100_000),
    ],
    ids=["deep-point", "deep-coordinate", "deep-points", "long-number", "deep-integer", "long-bitstring",
         "long-benefit"],
)
def test_refused_value_is_shown_cut_short(call):
    # a value read from a file may be nested or long beyond what a message
    # can show: it is echoed cut short, never in full or by a RecursionError
    with pytest.raises(InvalidInput) as refused:
        call()
    assert len(str(refused.value)) < 200


@pytest.mark.parametrize("e_star", [1, np.float64(1.0)], ids=["int", "numpy"])
def test_game_round_trip(e_star, tmp_path):
    # an int e_star used to be written as 1, which reads back as no float,
    # and a numpy one could not be written at all
    path, default = str(tmp_path / "game.yaml"), str(tmp_path / "default.yaml")
    save_yaml(path, GameParams(e_star=e_star))
    save_yaml(default, GameParams())
    assert load_game(path) == GameParams()
    assert open(path, encoding="utf-8").read() == open(default, encoding="utf-8").read()
