"""Acceptance gate: one test per release criterion, each printing a PASS
line with its measured margin. Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the per-criterion lines inline).

Pinned constants:

* Couplings: C_A = 2.2e6 and C_B = 6.0e5 rad/us um^6 place the blockade
  radius strictly between each layout's edge distance (6 um) and closest
  non-edge distance (10.39 um / 8.49 um).
* Sampling seed: 7 (the documented default).
* Ground-state tie tolerance for the four-optimum layout: 3.0 rad/us.
  Beyond-radius 1/r**6 tails split the four optima into two exact pairs
  1.69 rad/us apart at C_B, while the nearest non-optimal state sits
  5.56 rad/us above the bottom, so any tolerance in (1.69, 5.56) returns
  exactly the optimum manifold; 3.0 sits centrally.
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import (
    C_A,
    C_B,
    GRAPH_A_MAXIMUM,
    GRAPH_A_MIS_FAMILY,
    GRAPH_B_MIS_FAMILY,
    SEED,
    apply_hamiltonian,
    brute_force_mis,
    members,
    random_unit_disk,
    support_bitstring,
)
from rydnash.cli import ANNEAL_REPORT, CLASSICAL_REPORT, COMPARE_REPORT, EXIT_OK, HISTOGRAM_CSV, main
from rydnash.dynamics import RydbergSystem, evolve, exact_ground_states, propagate, sample
from rydnash.errors import ConstraintViolation
from rydnash.game import GameParams, enumerate_specialized_nash
from rydnash.geometry import build_unit_disk_graph, validate_embedding
from rydnash.indsets import enumerate_mis, maximum_independent_sets
from rydnash.schedule import Schedule, default_schedule, validate_schedule

GROUND_TIE_TOL_B = 3.0  # rad/us, see module docstring

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
GRAPH_A_FILE = os.path.join(CONFIGS, "graph_a.yaml")
GRAPH_B_FILE = os.path.join(CONFIGS, "graph_b.yaml")


@pytest.fixture(scope="module")
def anneal_a(graph_a):
    system = RydbergSystem(graph_a, C_A)
    return evolve(system, default_schedule(), tolerance=1e-6)


@pytest.fixture(scope="module")
def anneal_b(graph_b):
    system = RydbergSystem(graph_b, C_B)
    return evolve(system, default_schedule(), tolerance=1e-6)


def test_criterion_1_graph_a_classical(graph_a):
    start = time.perf_counter()
    nash = enumerate_specialized_nash(graph_a, GameParams())
    mis = enumerate_mis(graph_a)
    maximum = maximum_independent_sets(graph_a)
    elapsed = time.perf_counter() - start

    assert len(nash) == 5 and len(mis) == 5
    assert set(nash) == set(mis) == GRAPH_A_MIS_FAMILY
    assert list(maximum) == [GRAPH_A_MAXIMUM]
    assert len(members(maximum[0])) == 3
    assert sorted(members(maximum[0])) == [0, 3, 4]
    assert elapsed < 1.0
    print(f"CRITERION 1 PASS: hexagon layout has 5 equilibria = 5 maximal sets, "
          f"unique maximum {{0,3,4}} ({elapsed * 1e3:.0f} ms)")


def test_criterion_2_graph_b_classical(graph_b):
    start = time.perf_counter()
    nash = enumerate_specialized_nash(graph_b, GameParams())
    mis = enumerate_mis(graph_b)
    maximum = maximum_independent_sets(graph_b)
    elapsed = time.perf_counter() - start

    assert len(nash) == 4 and len(mis) == 4
    assert set(nash) == set(mis) == GRAPH_B_MIS_FAMILY
    assert all(len(members(s)) == 3 for s in mis)
    assert set(maximum) == GRAPH_B_MIS_FAMILY
    assert elapsed < 1.0
    print(f"CRITERION 2 PASS: house layout has 4 equilibria, all maximum sets of size 3 "
          f"({elapsed * 1e3:.0f} ms)")


def test_criterion_3_correspondence_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20250808)
    params = GameParams()
    checked = 0
    for _ in range(200):
        g = random_unit_disk(rng, n_max=8)
        nash = set(enumerate_specialized_nash(g, params))
        mis_fast = set(enumerate_mis(g))
        assert nash == mis_fast, f"equilibria != maximal sets on {g.positions} r={g.radius}"
        oracle = {support_bitstring(s, g.n) for s in brute_force_mis(g)}
        assert mis_fast == oracle, f"enumeration != brute-force filter on {g.positions} r={g.radius}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200
    assert elapsed < 30.0
    print(f"CRITERION 3 PASS: 200/200 random layouts, equilibria == maximal sets == "
          f"brute force ({elapsed:.1f} s)")


def test_criterion_4_ground_state_oracle(graph_a, graph_b):
    start = time.perf_counter()
    ground_a = exact_ground_states(RydbergSystem(graph_a, C_A), 7.27)
    mis_a = maximum_independent_sets(graph_a)
    assert ground_a == mis_a == (GRAPH_A_MAXIMUM,)

    ground_b = exact_ground_states(RydbergSystem(graph_b, C_B), 7.27, tol=GROUND_TIE_TOL_B)
    mis_b = maximum_independent_sets(graph_b)
    assert ground_b == mis_b
    assert set(ground_b) == GRAPH_B_MIS_FAMILY
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"CRITERION 4 PASS: drive-off ground states equal the maximum independent sets "
          f"for both layouts ({elapsed * 1e3:.0f} ms)")


def test_criterion_5_rabi_analytic_sweep():
    start = time.perf_counter()
    g = build_unit_disk_graph([(0.0, 0.0)], 1.0)
    system = RydbergSystem(g, 1.0)
    omega = 2.0
    worst = 0.0
    for t in np.linspace(0.2, 4.0, 20):
        sched = Schedule(((0.0, omega), (float(t), omega)), ((0.0, 0.0), (float(t), 0.0)), float(t))
        state = evolve(system, sched, initial_step=0.02)
        err = abs(state.probability_of("1") - math.sin(omega * t / 2.0) ** 2)
        worst = max(worst, err)
        assert err < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"CRITERION 5 PASS: 20-point Rabi sweep, worst |P1 - sin^2| = {worst:.2e} "
          f"({elapsed:.1f} s)")


def test_criterion_6_annealing_reproduction(anneal_a, anneal_b, graph_b):
    start = time.perf_counter()

    hist_a = sample(anneal_a, 1000, seed=SEED)
    modal, modal_count = hist_a.ranked()[0]
    assert modal == GRAPH_A_MAXIMUM
    assert modal_count >= 300  # >= 30% of 1000 shots

    hist_b = sample(anneal_b, 1000, seed=SEED)
    top4 = set(hist_b.top(4))
    assert top4 == GRAPH_B_MIS_FAMILY
    probs = anneal_b.probabilities()
    aggregate = sum(float(probs[int(b, 2)]) for b in GRAPH_B_MIS_FAMILY)
    assert aggregate > 0.5

    elapsed = time.perf_counter() - start
    print(f"CRITERION 6 PASS: modal readout {modal} at {modal_count / 10:.1f}% on the unique-"
          f"optimum layout; 4 optima fill the top-4 ranks with amplitude weight "
          f"{aggregate:.3f} on the degenerate one (+{elapsed:.1f} s after shared anneals)")


def test_criterion_6_runtime_budget(graph_a, graph_b):
    # the anneals themselves, timed end to end at n = 6
    start = time.perf_counter()
    state_a = evolve(RydbergSystem(graph_a, C_A), default_schedule())
    state_b = evolve(RydbergSystem(graph_b, C_B), default_schedule())
    sample(state_a, 1000, seed=SEED)
    sample(state_b, 1000, seed=SEED)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"CRITERION 6 RUNTIME PASS: both 1000-shot anneals in {elapsed:.1f} s")


def test_criterion_7_numerics(graph_a, anneal_a):
    system = RydbergSystem(graph_a, C_A)

    # norm drift over the full anneal
    drift = abs(anneal_a.norm() - 1.0)
    assert drift < 1e-9

    # halving the internal step moves the final state by < 1e-6
    coarse = propagate(system, default_schedule(), 1e-3)
    fine = propagate(system, default_schedule(), 5e-4)
    residual = float(np.linalg.norm(coarse.amplitudes - fine.amplitudes))
    assert residual < 1e-6

    # hermiticity on random vectors
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(30):
        phi = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        lhs = np.vdot(phi, apply_hamiltonian(system, 3.3, -2.1, psi))
        rhs = np.conj(np.vdot(psi, apply_hamiltonian(system, 3.3, -2.1, phi)))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10
    print(f"CRITERION 7 PASS: norm drift {drift:.1e}, halving residual {residual:.1e}, "
          f"hermiticity defect {worst:.1e}")


def test_criterion_8_constraint_validation():
    layout = build_unit_disk_graph([(0.0, 0.0), (3.0, 0.0)], 4.0)
    report = validate_embedding(layout)
    assert not report.ok
    assert len(report.violations) == 1
    v = report.violations[0]
    assert (v.kind, v.subject, v.value, v.limit) == ("pair_distance", (0, 1), 3.0, 4.0)

    with pytest.raises(ConstraintViolation):
        default_schedule(duration=5.0)
    long_schedule = Schedule(((0.0, 0.0), (2.5, 7.27), (5.0, 0.0)), ((0.0, -7.27), (5.0, 7.27)), 5.0)
    sched_report = validate_schedule(long_schedule)
    assert not sched_report.ok
    assert [v.kind for v in sched_report.violations] == ["duration"]
    print("CRITERION 8 PASS: 3 um pair rejected with exactly one violation; "
          "5 us schedule rejected against the 4 us limit")


def test_criterion_9_deterministic_reports(tmp_path):
    args = ["all", "--graph", GRAPH_A_FILE, "--coupling-c", str(C_A), "--seed", str(SEED), "--shots", "1000"]
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    assert main(args + ["--out", out1]) == EXIT_OK
    assert main(args + ["--out", out2]) == EXIT_OK
    names = (CLASSICAL_REPORT, ANNEAL_REPORT, COMPARE_REPORT, HISTOGRAM_CSV)
    for name in names:
        with open(os.path.join(out1, name), "rb") as f1, open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read(), f"{name} differs between identical runs"
    print(f"CRITERION 9 PASS: {len(names)} report files byte-identical across reruns")
