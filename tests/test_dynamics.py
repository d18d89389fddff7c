import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rydnash.dynamics
import rydnash.pipeline
from conftest import (
    C_A,
    C_B,
    CHAIN25_POSITIONS,
    CHAIN25_RADIUS,
    GRAPH_A_MAXIMUM,
    GRAPH_A_POSITIONS,
    GRAPH_A_RADIUS,
    GRAPH_B_MIS_FAMILY,
    GRAPH_B_POSITIONS,
    GRAPH_B_RADIUS,
    INTEGRATOR_ORDER,
    OVER_LIMIT,
    apply_hamiltonian,
    child_env,
    dense_hamiltonian,
    diagonal_energy,
    reference_propagate,
    unit_disk_layouts,
)
from rydnash._bits import EXHAUSTIVE_LIMIT
from rydnash.dynamics import (
    _BLOCK,
    QuantumState,
    RydbergSystem,
    _block_bounds,
    _rotation_calls,
    _rotation_index,
    _rotation_table,
    _substep_matrices,
    drive_off_window,
    evolve,
    propagate,
    sample,
)
from rydnash.errors import (
    IntegrationFailure,
    InvalidInput,
    TooLarge,
)
from rydnash.fileio import from_mapping, to_mapping
from rydnash.geometry import build_unit_disk_graph
from rydnash.indsets import maximum_independent_sets
from rydnash.pipeline import QuantumResult, RunConfig, run_quantum
from rydnash.schedule import Schedule, default_schedule


@pytest.fixture(scope="module")
def triangle_system():
    g = build_unit_disk_graph([(0.0, 0.0), (5.0, 0.0), (2.5, 4.33)], 6.0)
    return RydbergSystem(g, 1.0e5)


@pytest.fixture(scope="module")
def anneal_a(graph_a):
    """Graph A annealed on the reference ramp at its pinned coupling."""
    system = RydbergSystem(graph_a, C_A)
    return system, evolve(system, default_schedule())


def constant_schedule(omega, delta, duration):
    return Schedule(((0.0, omega), (duration, omega)), ((0.0, delta), (duration, delta)), duration)


class TestInteractionMatrix:
    def test_unit_distance(self):
        g = build_unit_disk_graph([(0.0, 0.0), (1.0, 0.0)], 2.0)
        v = RydbergSystem(g, 64.0).interactions
        assert v[0, 1] == 64.0 and v[1, 0] == 64.0
        assert v[0, 0] == 0.0 and v[1, 1] == 0.0

    def test_r6_falloff(self):
        g = build_unit_disk_graph([(0.0, 0.0), (2.0, 0.0)], 3.0)
        assert RydbergSystem(g, 64.0).interactions[0, 1] == 1.0

    def test_pair_too_far_apart_to_interact(self):
        # r**6 overflows a float past about 2.4e51 um, and used to raise
        # OverflowError; such a pair reads V = 0, and no other pair moves
        g = build_unit_disk_graph([(0.0, 0.0), (2.0, 0.0), (1.0e60, 0.0)], 3.0)
        v = RydbergSystem(g, 64.0).interactions
        assert v[0, 1] == 1.0 and v[1, 2] == v[0, 2] == 0.0 and v[2, 1] == v[2, 0] == 0.0

    def test_distance_homogeneity(self):
        rng = np.random.default_rng(400)
        pts = [(float(x), float(y)) for x, y in rng.uniform(0, 5, size=(5, 2))]
        g1 = build_unit_disk_graph(pts, 10.0)
        g2 = build_unit_disk_graph([(2 * x, 2 * y) for x, y in pts], 20.0)
        v1 = RydbergSystem(g1, 7.0).interactions
        v2 = RydbergSystem(g2, 7.0).interactions
        assert np.allclose(v1, 64.0 * v2, rtol=1e-12)

    def test_bad_c6(self, triangle_system):
        with pytest.raises(InvalidInput):
            RydbergSystem(triangle_system.graph, 0.0)
        # a bool would read as 1.0
        with pytest.raises(InvalidInput, match="c6 must be a positive finite number, got True"):
            RydbergSystem(triangle_system.graph, True)

    def test_exhaustive_limit(self, chain25):
        # the guard runs at construction, which builds no 2**n table, so a
        # 24-atom system is cheap to make and a 25-atom one is refused
        chain24 = build_unit_disk_graph(CHAIN25_POSITIONS[:EXHAUSTIVE_LIMIT], CHAIN25_RADIUS)
        assert RydbergSystem(chain24, C_A).n == EXHAUSTIVE_LIMIT
        with pytest.raises(TooLarge, match=OVER_LIMIT):
            RydbergSystem(chain25, C_A)


class TestApplyHamiltonian:
    def test_single_atom_flip(self):
        g = build_unit_disk_graph([(0.0, 0.0)], 1.0)
        system = RydbergSystem(g, 1.0)
        out = apply_hamiltonian(system, 2.0, 0.0, np.array([1.0, 0.0], dtype=complex))
        assert np.allclose(out, [0.0, 1.0])

    def test_detuning_diagonal(self):
        # far-separated pair: interaction negligible against the atol below
        g = build_unit_disk_graph([(0.0, 0.0), (100.0, 0.0)], 200.0)
        system = RydbergSystem(g, 64.0)
        psi = np.zeros(4, dtype=complex)
        psi[3] = 1.0  # |11>
        out = apply_hamiltonian(system, 0.0, 3.0, psi)
        assert out[3] == pytest.approx(-6.0, abs=1e-9)

    def test_hermiticity_random_vectors(self, triangle_system):
        rng = np.random.default_rng(401)
        for _ in range(25):
            phi = rng.normal(size=8) + 1j * rng.normal(size=8)
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            lhs = np.vdot(phi, apply_hamiltonian(triangle_system, 3.1, -1.7, psi))
            rhs = np.conj(np.vdot(psi, apply_hamiltonian(triangle_system, 3.1, -1.7, phi)))
            assert abs(lhs - rhs) < 1e-10

    def test_matches_dense_matrix(self, triangle_system):
        rng = np.random.default_rng(402)
        h = dense_hamiltonian(triangle_system, 3.1, -1.7)
        assert np.allclose(h, h.T)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert np.allclose(h @ v, apply_hamiltonian(triangle_system, 3.1, -1.7, v), atol=1e-12)

    def test_dimension_mismatch(self, triangle_system):
        with pytest.raises(InvalidInput, match="state has dimension"):
            apply_hamiltonian(triangle_system, 1.0, 0.0, np.ones(4, dtype=complex))

    def test_accepts_quantum_state(self, triangle_system):
        state = QuantumState.all_ground(3)
        out = apply_hamiltonian(triangle_system, 2.0, 0.0, state)
        assert out.shape == (8,)


class TestDiagonalEnergy:
    def test_all_ground_is_zero(self, triangle_system):
        assert diagonal_energy(triangle_system, 7.27, "000") == 0.0

    def test_single_excitation(self, triangle_system):
        assert diagonal_energy(triangle_system, 7.27, "100") == pytest.approx(-7.27)

    def test_graph_a_mis_with_tail(self, graph_a):
        # excited pair distances inside {0,3,4}: 18, sqrt(108), sqrt(108)
        system = RydbergSystem(graph_a, 5.42e6)
        tail = 5.42e6 / 18.0**6 + 2 * (5.42e6 / math.sqrt(108.0) ** 6)
        expected = -3 * 7.27 + tail
        got = diagonal_energy(system, 7.27, "100110")
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(-13.045504035255089, rel=1e-9)

    def test_matches_vectorized_diagonal(self, triangle_system):
        # cross-check the scalar path against the precomputed table
        energies = triangle_system.pair_energy - 2.5 * triangle_system.excitation_count
        for z in range(8):
            bits = format(z, "03b")
            assert diagonal_energy(triangle_system, 2.5, bits) == pytest.approx(float(energies[z]), rel=1e-12)

    def test_bad_bitstring(self, triangle_system):
        with pytest.raises(InvalidInput):
            diagonal_energy(triangle_system, 0.0, "0101")

    @settings(max_examples=40, deadline=None)
    @given(graph=unit_disk_layouts())
    def test_pair_energy_is_the_direct_sum(self, graph):
        # each pair adds on its strided view in the direct sum's pair order,
        # so the table matches the scalar sum bit for bit at every index
        assume(all(d >= 0.1 for d in graph.pair_distances.values()))
        system = RydbergSystem(graph, C_A)
        n = graph.n
        direct = [diagonal_energy(system, 0.0, format(z, f"0{n}b")) for z in range(1 << n)]
        assert np.array_equal(system.pair_energy, direct)


def drive_off_order(system, delta):
    """Every basis state as its bitstring, lowest drive-off energy first."""
    n = system.n
    return [format(int(z), f"0{n}b") for z in np.argsort(system.diagonal(delta), kind="stable")]


class TestExactGroundStates:
    """The exact drive-off ground states: the lowest entries of
    ``RydbergSystem.diagonal``, found by sorting all of it."""

    def test_graph_a_unique_mis(self, graph_a):
        system = RydbergSystem(graph_a, C_A)
        energies = system.diagonal(7.27)
        assert drive_off_order(system, 7.27)[0] == GRAPH_A_MAXIMUM
        assert np.count_nonzero(energies == energies.min()) == 1

    def test_graph_b_manifold(self, graph_b):
        # beyond-radius tails split the four optima into two exact pairs
        # ~1.69 rad/us apart, while the next state sits 5.56 rad/us up
        system = RydbergSystem(graph_b, C_B)
        order = drive_off_order(system, 7.27)
        energies = np.sort(system.diagonal(7.27))
        assert set(order[:4]) == GRAPH_B_MIS_FAMILY
        assert set(order[:2]) == {"100101", "100110"}
        assert energies[1] - energies[0] < 1e-9
        assert 1.6 < energies[2] - energies[1] < 1.8
        assert energies[3] - energies[2] < 1e-9
        assert 5.5 < energies[4] - energies[0] < 5.6

    def test_negative_detuning_empties(self, graph_a):
        system = RydbergSystem(graph_a, C_A)
        energies = system.diagonal(-1.0)
        assert drive_off_order(system, -1.0)[0] == "0" * 6
        assert np.count_nonzero(energies == energies.min()) == 1

    def test_limit(self, chain25):
        # the system refuses the layout before any 2**n table, so no sweep
        # over it starts
        with pytest.raises(TooLarge, match=OVER_LIMIT):
            RydbergSystem(chain25, C_A)

    def test_oracle_agreement_on_random_layouts(self):
        # whenever the weakest edge interaction exceeds n * delta and every
        # node's beyond-radius tail stays below delta / 2, the drive-off
        # ground manifold is exactly the maximum-independent family: it
        # occupies a strict low-energy prefix, with a gap above it
        rng = np.random.default_rng(555)
        delta = 7.27
        usable = 0
        for _ in range(400):
            pts = [(float(x), float(y)) for x, y in rng.uniform(0, 12, size=(6, 2))]
            g = build_unit_disk_graph(pts, float(rng.uniform(2.0, 14.0)))
            if not g.edges:
                continue
            longest_edge = max(g.pair_distances[edge] for edge in g.edges)
            c_low = 6 * delta * longest_edge**6
            tail_coeffs = [
                sum(
                    1.0 / math.dist(g.positions[v], g.positions[u]) ** 6
                    for u in range(6)
                    if u != v and u not in g.neighbors[v]
                )
                for v in range(6)
            ]
            worst_tail = max(tail_coeffs)
            c_high = (delta / 2) / worst_tail if worst_tail > 0 else 100 * c_low
            if c_low >= c_high:
                continue  # the stated hierarchy is unreachable at this geometry
            usable += 1
            system = RydbergSystem(g, math.sqrt(c_low * c_high))
            energies = system.pair_energy - delta * system.excitation_count
            mis = set(maximum_independent_sets(g))
            order = np.argsort(energies, kind="stable")
            prefix = {format(int(z), "06b") for z in order[: len(mis)]}
            assert prefix == mis
            worst_mis = max(float(energies[int(b, 2)]) for b in mis)
            gap = float(energies[order[len(mis)]]) - worst_mis
            assert gap > 0
        assert usable >= 100  # the suite must actually exercise the claim


class TestDriveOffWindow:
    """The C6 window in which the maximum independent sets are exactly the
    lowest drive-off energies, at the reference ramp's final detuning."""

    DELTA = 7.27

    @classmethod
    def separated(cls, graph, c6, maximum):
        """Whether every maximum set lies strictly below every other state."""
        energies = RydbergSystem(graph, c6).diagonal(cls.DELTA)
        member = np.zeros(energies.size, dtype=bool)
        member[[int(bits, 2) for bits in maximum]] = True
        return energies[member].max() < energies[~member].min()

    @pytest.mark.parametrize(
        "positions, radius, c6, expected",
        [
            (GRAPH_A_POSITIONS, GRAPH_A_RADIUS, C_A, (1.712e5, 4.579e6)),
            (GRAPH_B_POSITIONS, GRAPH_B_RADIUS, C_B, (3.386e5, 1.284e6)),
            ([(6.0 * i, 0.0) for i in range(11)], 6.0, 1e6, (1.707e5, 7.534e6)),
        ],
        ids=["graph_a", "graph_b", "chain11"],
    )
    def test_recorded_windows(self, positions, radius, c6, expected):
        # the window does not depend on the run's own C6, only its rounding
        graph = build_unit_disk_graph(positions, radius)
        window = drive_off_window(RydbergSystem(graph, c6), self.DELTA, maximum_independent_sets(graph))
        assert tuple(float(f"{v:.4g}") for v in window) == expected
        assert window[0] < c6 < window[1]

    @pytest.mark.parametrize(
        "positions, radius",
        [(GRAPH_A_POSITIONS, GRAPH_A_RADIUS), ([(0.0, 0.0), (3.0, 0.0)], 4.0)],
        ids=["graph_a", "pair"],
    )
    def test_window_does_not_move_with_coupling(self, positions, radius):
        # the old default, the two pinned couplings and the derived
        # delta_f * R**6 give the same floats, to the last digit
        graph = build_unit_disk_graph(positions, radius)
        maximum = maximum_independent_sets(graph)
        couplings = (5.42e6, C_A, C_B, default_schedule().final_detuning * radius**6)
        windows = {drive_off_window(RydbergSystem(graph, c6), self.DELTA, maximum) for c6 in couplings}
        assert len(windows) == 1, windows

    def test_nonpositive_detuning_is_empty(self):
        # at zero detuning the empty state ties a lone atom at every C6
        graph = build_unit_disk_graph([(0.0, 0.0), (5.0, 0.0)], 6.0)
        lo, hi = drive_off_window(RydbergSystem(graph, 1e6), 0.0, ("01", "10"))
        assert lo >= hi

    @settings(max_examples=60, deadline=None)
    @given(graph=unit_disk_layouts(n_max=8), c6=st.floats(1e3, 1e8))
    def test_window_is_exact(self, graph, c6):
        # strictly inside, the maximum sets are the lowest energies; just
        # outside either finite end, some other state is at or below one
        assume(all(d >= 0.1 for d in graph.pair_distances.values()))
        maximum = maximum_independent_sets(graph)
        lo, hi = drive_off_window(RydbergSystem(graph, c6), self.DELTA, maximum)
        if lo < hi:
            inside = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * lo + 1.0
            assert self.separated(graph, inside, maximum)
        if lo > 0:
            assert not self.separated(graph, lo * (1 - 1e-6), maximum)
        if math.isfinite(hi) and hi > 0:
            assert not self.separated(graph, hi * (1 + 1e-6), maximum)


class TestPropagateAndEvolve:
    def test_rabi_oscillation(self):
        g = build_unit_disk_graph([(0.0, 0.0)], 1.0)
        system = RydbergSystem(g, 1.0)
        omega = 2.0
        for t in np.linspace(0.2, 4.0, 12):
            state = evolve(system, constant_schedule(omega, 0.0, float(t)))
            assert state.probability_of("1") == pytest.approx(math.sin(omega * t / 2) ** 2, abs=1e-6)

    def test_blockade_pair_suppression(self):
        # 4 um apart at the default coupling: V = 5.42e6/4^6 ~ 1323 rad/us,
        # far above the 7.27 rad/us drive; double excitation stays closed
        g = build_unit_disk_graph([(0.0, 0.0), (4.0, 0.0)], 8.0)
        system = RydbergSystem(g, 5.42e6)
        state = evolve(system, default_schedule())
        assert state.probability_of("11") < 0.05

    def test_zero_drive_is_stationary(self):
        g = build_unit_disk_graph([(0.0, 0.0), (4.0, 0.0)], 8.0)
        system = RydbergSystem(g, 5.42e6)
        sched = Schedule(((0.0, 0.0), (4.0, 0.0)), ((0.0, -7.27), (4.0, 7.27)), 4.0)
        state = evolve(system, sched)
        assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)

    def test_norm_conserved(self, graph_a):
        system = RydbergSystem(graph_a, C_A)
        state = propagate(system, default_schedule(), 1e-3)
        assert abs(state.norm() - 1.0) < 1e-9

    def test_convergence_order(self):
        # time-dependent single-atom problem with both drive and detuning;
        # the reference step's own error (~1e-12) is far below the measured
        # errors (~1e-7 and up), so the ratios read the true order
        g = build_unit_disk_graph([(0.0, 0.0)], 1.0)
        system = RydbergSystem(g, 1.0)
        sched = Schedule(((0.0, 1.0), (2.0, 5.0)), ((0.0, -6.0), (2.0, 6.0)), 2.0)
        ref = propagate(system, sched, 5e-4)
        errs = [
            float(np.linalg.norm(propagate(system, sched, h).amplitudes - ref.amplitudes))
            for h in (4e-2, 2e-2, 1e-2)
        ]
        nominal = 2.0**INTEGRATOR_ORDER
        for bigger, smaller in zip(errs, errs[1:]):
            assert bigger / smaller == pytest.approx(nominal, rel=0.2)

    def test_step_halving_contract(self, anneal_a):
        system, state = anneal_a
        finer = propagate(system, default_schedule(), 2.5e-4)
        assert float(np.linalg.norm(state.amplitudes - finer.amplitudes)) < 1e-6

    def test_propagate_peak_memory(self):
        # the state, its spare, a one-row phase table, two pair phases and
        # the returned copy: about 96 bytes per amplitude at this size
        n = 16
        system = RydbergSystem(build_unit_disk_graph([(6.0 * i, 0.0) for i in range(n)], 6.0), 1e6)
        system.pair_energy, system.excitation_count  # cached tables, not propagate's own
        tracemalloc.start()
        try:
            propagate(system, default_schedule(duration=0.01), 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1 << n) * 100

    def test_propagate_peak_memory_small(self):
        # at n = 6 the 126-row phase table and the pair phases tiled to the
        # same 126 rows (126 KiB each) are most of it: tracemalloc read
        # 420 KB, 429 KB on a process's first call, which also builds the
        # cached rotation indices
        system = RydbergSystem(build_unit_disk_graph([(6.0 * i, 0.0) for i in range(6)], 6.0), 1e6)
        system.pair_energy, system.excitation_count
        tracemalloc.start()
        try:
            propagate(system, default_schedule(duration=0.4), 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 440_000

    def test_integration_failure_at_step_floor(self, monkeypatch):
        # two atoms at the 4 um floor and the default C6 need five passes,
        # down to a 6.25e-5 us step; with the floor raised to 5e-4 us the
        # third is refused
        monkeypatch.setattr(rydnash.dynamics, "_MIN_STEP", 5e-4)
        system = RydbergSystem(build_unit_disk_graph([(0.0, 0.0), (4.0, 0.0)], 5.0))
        with pytest.raises(IntegrationFailure, match=r"above 1e-06 at step 0\.0005 us \(floor 0\.0005 us\)"):
            evolve(system, default_schedule())

    @pytest.mark.parametrize(
        "positions",
        [[(0.0, 0.0), (4.0, 0.0)], [(6.0 * i, 0.0) for i in range(7)]],
        ids=["one-block", "blocks-3-4"],
    )
    def test_initial_state_is_all_ground(self, positions):
        # with the drive off, every rotation is the identity and every phase
        # on the all-ground state is exp(0), so the register stays exactly
        # where it started; the 7-atom chain also runs the kron-form block
        system = RydbergSystem(build_unit_disk_graph(positions, 8.0), 5.42e6)
        state = propagate(system, constant_schedule(0.0, 3.0, 1.0), 0.5)
        np.testing.assert_array_equal(state.amplitudes, QuantumState.all_ground(system.n).amplitudes)

    @pytest.mark.parametrize("layout", ["graph_a", "graph_b"])
    def test_blockade_holds_on_every_edge(self, layout, request):
        # with every edge interaction at >= 20x the drive scale, the total
        # weight on readouts violating any single edge stays below 5%
        graph = request.getfixturevalue(layout)
        scale = 20 * 7.27
        c6 = scale * max(graph.pair_distances[edge] for edge in graph.edges) ** 6
        system = RydbergSystem(graph, c6)
        assert min(system.interactions[i, j] for i, j in graph.edges) >= scale
        state = evolve(system, default_schedule())
        probs = state.probabilities()
        for i, j in graph.edges:
            violating = sum(
                float(probs[z])
                for z in range(1 << graph.n)
                if (z >> (graph.n - 1 - i)) & 1 and (z >> (graph.n - 1 - j)) & 1
            )
            assert violating < 0.05


# A short ramp whose first segment has the drive off, so stages there rotate
# by the identity while their phases still merge with the driven stages after
# them.
SHORT_RAMP = Schedule(
    ((0.0, 0.0), (0.01, 0.0), (0.02, 6.0), (0.03, 2.0)),
    ((0.0, -5.0), (0.015, 1.0), (0.03, 7.27)),
    0.03,
)


# evolve's cases: two passes each, at the default ramp (chain11 at 1 us)
EVOLVE_CASES = [("graph_a", C_A, 4.0), ("graph_b", C_B, 4.0), ("chain11", 1e6, 1.0)]


def evolve_case(layout, c6, duration, request):
    """One of ``EVOLVE_CASES`` as ``(system, schedule)``."""
    if layout == "chain11":
        graph = build_unit_disk_graph([(6.0 * i, 0.0) for i in range(11)], 6.0)
    else:
        graph = request.getfixturevalue(layout)
    return RydbergSystem(graph, c6), default_schedule(duration=duration)


def assert_matches_reference(graph):
    # pairs capped at 50 rad/us, so the merged and separate half phases stay
    # at the same round-off
    closest = min(graph.pair_distances.values(), default=1.0)
    system = RydbergSystem(graph, 50.0 * closest**6)
    # the short default ramps hold the drive constant for most of their
    # substeps, where the fast stage reuses its rotation matrices; at step
    # 1e-3 the longer one has a 240-substep segment, which crosses sampling
    # chunks and phase tables inside one segment
    schedules = (SHORT_RAMP, default_schedule(duration=0.05), default_schedule(duration=0.4))
    for schedule, step in itertools.product(schedules, (1e-3, 4e-3)):
        fast = propagate(system, schedule, step).amplitudes
        slow = reference_propagate(system, schedule, step).amplitudes
        assert float(np.linalg.norm(fast - slow)) < 1e-10


class TestBlockRotation:
    @pytest.mark.parametrize("theta", [0.3, -0.7])  # the middle stage runs backward
    @pytest.mark.parametrize("b", range(1, 7))
    def test_block_matrix_is_kronecker_power(self, b, theta):
        c, s = math.cos(theta), math.sin(theta)
        table = _rotation_table(np.array([theta]), b)[0]
        matrix = np.take(table, _rotation_index(b, False))
        # a few ulps per factor of the product
        expected = functools.reduce(np.kron, [np.array([[c, s], [-s, c]])] * b)
        np.testing.assert_allclose(matrix, expected, rtol=0, atol=1e-14)
        np.testing.assert_allclose(matrix @ matrix.T, np.eye(1 << b), rtol=0, atol=1e-14)
        # the drive rotation seen from the twisted frame: S^-1 R_x^(x b) S
        # with S = diag(i**|z|)
        rotation = functools.reduce(np.kron, [np.array([[c, -1j * s], [-1j * s, c]])] * b)
        twist = np.array([1, 1j, -1, -1j])[np.bitwise_count(np.arange(1 << b)) % 4]
        np.testing.assert_allclose(matrix, rotation * twist / twist[:, None], rtol=0, atol=1e-14)
        # the lowest-order block acts on the interleaved float64 view
        rng = np.random.default_rng(b)
        x = rng.normal(size=(4, 1 << b)) + 1j * rng.normal(size=(4, 1 << b))
        lowest = np.take(table, _rotation_index(b, True))
        product = (x.view(np.float64) @ lowest).view(np.complex128)
        np.testing.assert_allclose(product, x @ matrix.T, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("start", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 11, 13, 16])
    def test_calls_write_what_dot_and_matmul_write(self, n, start):
        # each call writes the bits np.dot (np.matmul for a batched middle
        # block) writes on the same operands and output view
        rng = np.random.default_rng(n)
        bounds = _block_bounds(n)
        keys = {(hi - lo, lo > 0 and hi == n) for lo, hi in zip(bounds, bounds[1:])}
        matrices = {key: rng.normal(size=_rotation_index(*key).shape) for key in keys}
        buffers = [np.empty(1 << n, dtype=np.complex128) for _ in range(2)]
        source, spare = buffers[start], buffers[1 - start]
        source[:] = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        calls = _rotation_calls(bounds, matrices, source, spare)
        assert len(calls) == len(bounds) - 1
        for product, right, out in calls:
            if isinstance(product, functools.partial):
                assert product.func is np.matmul and right.ndim == 3
                np.matmul(*product.args, right, out=out)
            else:
                np.dot(product.__self__, right, out=out)
            expected = out.copy()
            out[...] = np.nan
            product(right, out)
            assert np.array_equal(out, expected)
        # the state is read from source and lands in source after an even
        # number of blocks, in spare after an odd one
        assert np.shares_memory(calls[0][1], source)
        assert np.shares_memory(calls[-1][2], (source, spare)[len(calls) % 2])

    def test_substep_fill_matches_per_matrix_take(self):
        # one take over a substep's three rows of the side-by-side tables
        # fills every position's matrix of every kind with the bits of its
        # own take from its own size's table
        kinds = {(b, lowest) for b in range(1, _BLOCK + 1) for lowest in (False, True)}
        sizes, index, held, matrices = _substep_matrices(kinds)
        theta = np.array([0.3, -0.7, 0.3, 1.1, -0.05, 1e-9])
        tables = np.concatenate([_rotation_table(theta, b) for b in sizes], axis=1)
        for first in (0, 3):
            held[...] = np.nan
            tables[first : first + 3].take(index, out=held, mode="clip")
            for position, views in enumerate(matrices):
                assert set(views) == kinds
                for (b, lowest), matrix in views.items():
                    assert np.shares_memory(matrix, held[position])
                    expected = np.take(_rotation_table(theta, b)[first + position], _rotation_index(b, lowest))
                    assert np.array_equal(matrix, expected), (first, position, b, lowest)

    def test_block_bounds_stay_within_block(self):
        for n in range(1, 25):
            bounds = _block_bounds(n)
            widths = np.diff(bounds)
            assert bounds[0] == 0 and bounds[-1] == n
            assert (len(widths) == 1) == (n <= 4)
            # keeps every rotation matrix, kron(K_b.T, I_2) included, at
            # 2**(2 * _BLOCK + 2) entries or fewer
            assert 1 <= widths.min() and widths.max() <= _BLOCK
            assert widths.max() - widths.min() <= 1


# The stage the class is named after is gone; the name keeps the test ids of
# the reference comparisons and pass-count pins stable.
class TestWalshHadamardStage:
    @pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 11, 13, 16])
    def test_chain_matches_reference(self, n):
        # qubits per block by n: 1 and 2 are one block; 5 is (2, 3); 6 is
        # (3, 3); 7 is (3, 4); 11 is (3, 4, 4), with one batched middle
        # block; 13 is (3, 3, 3, 4) and 16 is (4, 4, 4, 4), with two each
        assert_matches_reference(build_unit_disk_graph([(6.0 * i, 0.0) for i in range(n)], 6.0))

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [6, 7])
    def test_table_rows_match_reference(self, n, rows, monkeypatch):
        # budgets of three rows and more round down to a multiple of 3, so
        # every group starts at triple-jump position 0; with one or two rows
        # groups start at every position, and the group's pair phases are a
        # slice of the tiled block that starts inside it
        monkeypatch.setattr(rydnash.dynamics, "_TABLE_BYTES", rows * 16 << n)
        assert rydnash.dynamics._table_rows(n) == {4: 3, 5: 3}.get(rows, rows)
        assert_matches_reference(build_unit_disk_graph([(6.0 * i, 0.0) for i in range(n)], 6.0))

    @pytest.mark.parametrize("n", [6, 7, 11])
    def test_table_rows_leave_bits_unchanged(self, n, monkeypatch):
        # the drive ramps on over a 70-substep segment, past one chunk, and
        # holds through the next; at one and two rows a substep's fill and
        # its later stages fall in different groups of rows
        schedule = Schedule(((0.0, 0.0), (0.07, 7.27), (0.1, 7.27)), ((0.0, -7.27), (0.1, 7.27)), 0.1)
        system = RydbergSystem(build_unit_disk_graph([(6.0 * i, 0.0) for i in range(n)], 6.0), 1e6)
        expected = propagate(system, schedule, 1e-3).amplitudes
        for rows in range(1, 7):
            monkeypatch.setattr(rydnash.dynamics, "_TABLE_BYTES", rows * 16 << n)
            assert np.array_equal(propagate(system, schedule, 1e-3).amplitudes, expected), rows

    @settings(max_examples=25, deadline=None)
    @given(graph=unit_disk_layouts(n_max=9))
    def test_layouts_match_reference(self, graph):
        # near-coincident atoms would underflow the coupling scale
        assume(all(d >= 0.1 for d in graph.pair_distances.values()))
        assert_matches_reference(graph)

    @pytest.mark.parametrize("layout, c6, duration", EVOLVE_CASES)
    def test_evolve_pass_count(self, layout, c6, duration, request, monkeypatch, tmp_path):
        # the coarse pass may run in a forked worker, which an in-process
        # spy cannot see, so each pass appends its step to a file
        log = tmp_path / "steps"

        def counted(system, schedule, step):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{step!r}\n")
            return propagate(system, schedule, step)

        monkeypatch.setattr(rydnash.dynamics, "propagate", counted)
        state = evolve(*evolve_case(layout, c6, duration, request))
        # each pass once, in either order, and no third pass
        assert sorted(float(step) for step in log.read_text(encoding="ascii").split()) == [5e-4, 1e-3]
        assert abs(state.norm() - 1.0) < 1e-9


class TestCoarsePassWorker:
    """``evolve`` runs its coarse first pass in a forked worker beside the
    fine pass where it can, and inline otherwise, with the same bits."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Calls of ``os.fork``, with two CPUs to run on whatever the host
        has."""
        calls = []
        fork = os.fork

        def counted():
            calls.append(None)
            return fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", counted)
        return calls

    @pytest.fixture
    def worker(self, forks, monkeypatch):
        """``forks``, with the worker path taken wherever fork works, also
        beside a BLAS pool's threads."""
        monkeypatch.setattr(rydnash.dynamics, "_sole_thread", lambda: True)
        return forks

    @pytest.fixture
    def system_a(self, graph_a):
        return RydbergSystem(graph_a, C_A), default_schedule()

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("layout, c6, duration", EVOLVE_CASES)
    def test_worker_and_inline_give_the_same_bits(self, layout, c6, duration, request, worker, monkeypatch):
        system, schedule = evolve_case(layout, c6, duration, request)
        expected = propagate(system, schedule, 5e-4).amplitudes
        forked = evolve(system, schedule).amplitudes
        assert len(worker) == 1
        self.assert_no_child()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        inline = evolve(system, schedule).amplitudes
        assert len(worker) == 1
        assert np.array_equal(forked, expected)
        assert np.array_equal(inline, expected)

    def test_failing_worker_pass_runs_again_here(self, system_a, worker, monkeypatch):
        # the worker's pass fails only in the worker, so the rerun here
        # gives the same bits as the worker would have sent
        caller = os.getpid()

        def failing(system, schedule, step):
            if step == 1e-3 and os.getpid() != caller:
                raise RuntimeError("the coarse pass failed")
            return propagate(system, schedule, step)

        expected = propagate(*system_a, 5e-4).amplitudes
        monkeypatch.setattr(rydnash.dynamics, "propagate", failing)
        state = evolve(*system_a)
        assert len(worker) == 1
        self.assert_no_child()
        assert np.array_equal(state.amplitudes, expected)

    def test_worker_error_raises_with_its_own_type(self, system_a, worker, monkeypatch):
        def failing(system, schedule, step):
            if step == 1e-3:
                raise InvalidInput("the coarse pass failed")
            return propagate(system, schedule, step)

        monkeypatch.setattr(rydnash.dynamics, "propagate", failing)
        with pytest.raises(InvalidInput, match="the coarse pass failed"):
            evolve(*system_a)
        assert len(worker) == 1
        self.assert_no_child()

    def test_short_data_runs_the_pass_again_here(self, system_a, worker, monkeypatch):
        # the worker's state has one atom too few, so its write into the
        # mapping fails, the worker exits with status 1 and the pass runs
        # again here
        caller = os.getpid()

        def short(system, schedule, step):
            if step == 1e-3 and os.getpid() != caller:
                return QuantumState.all_ground(system.n - 1)
            return propagate(system, schedule, step)

        expected = propagate(*system_a, 5e-4).amplitudes
        monkeypatch.setattr(rydnash.dynamics, "propagate", short)
        state = evolve(*system_a)
        assert len(worker) == 1
        self.assert_no_child()
        assert np.array_equal(state.amplitudes, expected)

    def test_worker_leaves_before_the_fine_pass_ends(self, worker, monkeypatch):
        # at n = 13 the coarse state is 128 KiB, more than a pipe holds: the
        # worker must not wait for the caller to read it. Its pass returns at
        # once, and the caller's fine pass waits up to 5 s for it to exit,
        # leaving it to be reaped
        exited = []

        def passes(system, schedule, step):
            deadline = time.monotonic() + 5.0
            while step == 5e-4 and time.monotonic() < deadline:
                child = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
                if child is not None:
                    exited.append((child.si_code, child.si_status))
                    break
                time.sleep(0.01)
            return QuantumState.all_ground(system.n)

        chain = build_unit_disk_graph([(6.0 * i, 0.0) for i in range(13)], 6.0)
        monkeypatch.setattr(rydnash.dynamics, "propagate", passes)
        state = evolve(RydbergSystem(chain, 1e6), default_schedule(duration=1.0))
        assert len(worker) == 1
        self.assert_no_child()
        assert exited == [(os.CLD_EXITED, 0)]
        assert state.n == 13

    def test_too_little_memory_runs_inline(self, system_a, worker, monkeypatch):
        # two passes' working sets at n = 6: 2 * 112.7 * 64 = 14425.6 bytes
        expected = propagate(*system_a, 5e-4).amplitudes
        monkeypatch.setattr(rydnash.dynamics, "_available_memory", lambda: 14425)
        state = evolve(*system_a)
        assert worker == []
        assert np.array_equal(state.amplitudes, expected)
        monkeypatch.setattr(rydnash.dynamics, "_available_memory", lambda: 14426)
        state = evolve(*system_a)
        assert len(worker) == 1
        self.assert_no_child()
        assert np.array_equal(state.amplitudes, expected)

    def test_available_memory_reads_meminfo(self, monkeypatch):
        with open("/proc/meminfo", encoding="ascii") as meminfo:
            total = next(int(line.split()[1]) << 10 for line in meminfo if line.startswith("MemTotal:"))
        assert 0 < rydnash.dynamics._available_memory() <= total

        # as on macOS and Windows, where both passes run inline
        def missing(path, mode="r"):
            raise FileNotFoundError(path)

        monkeypatch.setattr(rydnash.dynamics, "open", missing, raising=False)
        assert rydnash.dynamics._available_memory() == 0

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failing_fine_pass_kills_the_worker(self, error, system_a, worker, monkeypatch):
        def failing(system, schedule, step):
            if step == 5e-4:
                raise error("the fine pass failed")
            return propagate(system, schedule, step)

        monkeypatch.setattr(rydnash.dynamics, "propagate", failing)
        with pytest.raises(error, match="the fine pass failed"):
            evolve(*system_a)
        assert len(worker) == 1
        self.assert_no_child()

    def test_second_thread_runs_inline(self, system_a, forks):
        expected = propagate(*system_a, 5e-4).amplitudes
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            state = evolve(*system_a)
        finally:
            release.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert forks == []
        assert np.array_equal(state.amplitudes, expected)

    def test_sole_thread_counts_every_thread(self):
        # a fresh interpreter that imports rydnash before numpy, with no BLAS
        # thread count set, has BLAS pinned to one thread and the variables
        # unset again after: it runs one thread until it starts a Python
        # thread. A BLAS pool of two, which OpenBLAS starts only with two
        # CPUs to run on, adds one from the start
        code = (
            "import os, threading, rydnash.dynamics as d\n"
            "alone = d._sole_thread()\n"
            "release = threading.Event()\n"
            "thread = threading.Thread(target=release.wait)\n"
            "thread.start()\n"
            "print(alone, d._sole_thread(), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "release.set()\n"
            "thread.join()\n"
        )
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

        def run(blas_threads):
            env = {name: value for name, value in child_env().items() if name not in names}
            if blas_threads is not None:
                env.update(dict.fromkeys(names, blas_threads))
            result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
            assert result.returncode == 0, result.stderr
            return result.stdout.split()

        assert run(None) == ["True", "False", "None"]
        assert run("1") == ["True", "False", "1"]
        if len(os.sched_getaffinity(0)) >= 2:
            assert run("2") == ["False", "False", "2"]

    def test_sole_thread_without_proc(self, monkeypatch):
        # as on macOS and Windows, where both passes run inline
        def listdir(path):
            raise FileNotFoundError(path)

        monkeypatch.setattr(os, "listdir", listdir)
        assert rydnash.dynamics._sole_thread() is False

    def test_refused_fork_runs_inline(self, system_a, worker, monkeypatch):
        def refused():
            worker.append(None)
            raise OSError(11, "Resource temporarily unavailable")

        expected = propagate(*system_a, 5e-4).amplitudes
        descriptors = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", refused)
        state = evolve(*system_a)
        assert len(worker) == 1
        assert len(os.listdir("/proc/self/fd")) == descriptors  # no descriptor is left open
        assert np.array_equal(state.amplitudes, expected)


class TestQuantumState:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidInput, match="deviates from 1"):
            QuantumState(np.array([1.0, 1.0], dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidInput, match="deviates from 1"):
            QuantumState(np.full(4, bad, dtype=complex))
        with pytest.raises(InvalidInput, match="deviates from 1"):
            QuantumState(np.array([bad, 1.0], dtype=complex))

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidInput, match="power of two"):
            QuantumState(np.ones(3, dtype=complex) / math.sqrt(3))

    def test_immutable(self):
        state = QuantumState.all_ground(2)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_probability_of_wrong_length(self):
        state = QuantumState.all_ground(3)
        for bits in ("1", "10000000", ""):
            with pytest.raises(InvalidInput):
                state.probability_of(bits)

    def test_probability_of_bad_character(self):
        state = QuantumState.all_ground(3)
        for bits in ("1x1", "1_1", " 11", 3):
            with pytest.raises(InvalidInput):
                state.probability_of(bits)


class TestSample:
    def test_point_mass(self):
        state = QuantumState(np.array([0.0, 0.0, 1.0, 0.0], dtype=complex))
        assert sample(state, 37, seed=5) == {"10": 37}

    def test_uniform_two_state_within_5_sigma(self):
        amp = np.zeros(4, dtype=complex)
        amp[0] = amp[3] = 1.0 / math.sqrt(2.0)
        counts = sample(QuantumState(amp), 100_000, seed=11)
        sigma = math.sqrt(100_000 * 0.25)
        assert abs(counts["00"] - 50_000) < 5 * sigma
        assert abs(counts["11"] - 50_000) < 5 * sigma
        assert sum(counts.values()) == 100_000

    def test_seed_determinism(self, anneal_a):
        _, state = anneal_a
        assert sample(state, 1000, seed=42) == sample(state, 1000, seed=42)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_probabilities(self, bad):
        # a state that bypassed validation still gets a typed error, not
        # numpy's ValueError from the multinomial draw
        state = QuantumState.all_ground(1)
        object.__setattr__(state, "amplitudes", np.array([bad, 0.0], dtype=complex))
        with pytest.raises(InvalidInput, match="deviates from 1"):
            sample(state, 10, seed=1)

    def test_samples_a_state_at_the_norm_boundary(self):
        # a norm within 1e-6 of 1 is accepted, though its squared norm,
        # the probabilities' sum, is 1.6e-6 off
        state = QuantumState(np.array([1 + 8e-7, 0.0], dtype=complex))
        assert float(state.probabilities().sum()) - 1.0 > 1e-6
        assert sample(state, 10, seed=1) == {"0": 10}

    def test_bad_shots(self):
        with pytest.raises(InvalidInput):
            sample(QuantumState.all_ground(1), 0, seed=1)
        # a bool would draw 1 shot
        with pytest.raises(InvalidInput, match="shots must be an integer >= 1, got True"):
            sample(QuantumState.all_ground(1), True, seed=1)
        # numpy's multinomial takes its count as a C int64
        with pytest.raises(InvalidInput, match=f"shots must be an integer <= {2**63 - 1}, got {2**63}"):
            sample(QuantumState.all_ground(1), 2**63, seed=1)
        assert sample(QuantumState.all_ground(1), 2**63 - 1, seed=1) == {"0": 2**63 - 1}

    @pytest.mark.parametrize("seed", [1.5, -1, "7", True])
    def test_bad_seed(self, seed):
        with pytest.raises(InvalidInput, match="seed must be an integer >= 0"):
            sample(QuantumState.all_ground(1), 10, seed)

    @pytest.fixture
    def tied_result(self, monkeypatch):
        """run_quantum on a blockaded pair whose readout ties two counts."""
        graph = build_unit_disk_graph([(0.0, 0.0), (6.0, 0.0)], 8.0)
        monkeypatch.setattr(rydnash.pipeline, "evolve", lambda system, schedule: QuantumState.all_ground(2))
        monkeypatch.setattr(rydnash.pipeline, "sample", lambda state, shots, seed: {"10": 5, "01": 5, "11": 2})
        return run_quantum(RunConfig(graph=graph, shots=12))

    def test_ranking_order(self, tied_result):
        # descending count, bitstring as tiebreak, in both the rows and top_k
        assert [(r.bitstring, r.count) for r in tied_result.rows] == [("01", 5), ("10", 5), ("11", 2)]
        assert tied_result.top_k == ("01", "10")

    def test_counts_must_sum(self, tied_result):
        # a report's counts come in from outside through QuantumResult's
        # rows; shots is their sum, and a report that says otherwise is refused
        assert tied_result.shots == 12
        with pytest.raises(ValueError, match="shots is declared with init=False"):
            dataclasses.replace(tied_result, shots=13)
        data = to_mapping(tied_result)
        data["shots"] = 13
        with pytest.raises(ValueError, match="'shots' is 13, but the other fields give 12"):
            from_mapping(QuantumResult, data)
        first, second, _ = tied_result.rows
        rows = (dataclasses.replace(first, count=14), dataclasses.replace(second, count=-2))
        with pytest.raises(InvalidInput, match="counts must be nonnegative"):
            dataclasses.replace(tied_result, rows=rows)
