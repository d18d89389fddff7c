import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRAPH_A_EDGES, GRAPH_B_EDGES, child_env, random_unit_disk, unit_disk_layouts
from rydnash.errors import InvalidInput, TooLarge
from rydnash.geometry import (
    MIN_PAIR_DISTANCE,
    Violation,
    blockade_radius,
    build_unit_disk_graph,
    validate_embedding,
)


class TestBuildUnitDiskGraph:
    def test_graph_a_edges(self, graph_a):
        assert set(graph_a.edges) == GRAPH_A_EDGES
        # every edge at 6 um, every non-edge at sqrt(108) um or farther
        p = graph_a.positions
        for i in range(6):
            for j in range(i + 1, 6):
                d = math.dist(p[i], p[j])
                if (i, j) in GRAPH_A_EDGES:
                    assert d == pytest.approx(6.0)
                else:
                    assert d >= math.sqrt(108) - 1e-9

    def test_graph_b_edges(self, graph_b):
        assert set(graph_b.edges) == GRAPH_B_EDGES
        p = graph_b.positions
        for i, j in GRAPH_B_EDGES:
            assert math.dist(p[i], p[j]) == pytest.approx(6.0)

    def test_single_point(self):
        g = build_unit_disk_graph([(0.0, 0.0)], 1.0)
        assert g.n == 1
        assert g.edges == ()

    def test_duplicate_points_rejected(self):
        with pytest.raises(InvalidInput, match="atoms 0 and 1 coincide"):
            build_unit_disk_graph([(1.0, 2.0), (1.0, 2.0)], 1.0)

    def test_signed_zero_counts_as_coincident(self):
        with pytest.raises(InvalidInput, match="atoms 0 and 1 coincide"):
            build_unit_disk_graph([(0.0, 0.0), (-0.0, 0.0)], 1.0)

    def test_nonfinite_coordinate_rejected(self):
        with pytest.raises(InvalidInput):
            build_unit_disk_graph([(0.0, 0.0), (math.nan, 1.0)], 1.0)
        with pytest.raises(InvalidInput):
            build_unit_disk_graph([(0.0, 0.0), (math.inf, 1.0)], 1.0)

    def test_bad_radius_rejected(self):
        with pytest.raises(InvalidInput):
            build_unit_disk_graph([(0.0, 0.0)], 0.0)
        with pytest.raises(InvalidInput):
            build_unit_disk_graph([(0.0, 0.0)], -2.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            build_unit_disk_graph([], 1.0)

    def test_edge_rule_is_closed_disk(self):
        g = build_unit_disk_graph([(0.0, 0.0), (5.0, 0.0)], 5.0)
        assert g.edges == ((0, 1),)

    def test_adjacency_symmetric_irreflexive(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            g = random_unit_disk(rng)
            for i, nbrs in enumerate(g.neighbors):
                assert i not in nbrs
                for j in nbrs:
                    assert i in g.neighbors[j]

    def test_radius_monotonicity(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            g = random_unit_disk(rng)
            bigger = build_unit_disk_graph(g.positions, g.radius * 1.5)
            assert set(g.edges) <= set(bigger.edges)


class TestPairDistances:
    @settings(max_examples=100, deadline=None)
    @given(graph=unit_disk_layouts())
    def test_one_table_feeds_edges_and_validation(self, graph):
        # every pair i < j once, row-major, at math.dist; the edges and the
        # spacing violations are what a pair-by-pair scan of the points finds
        p = graph.positions
        pairs = list(itertools.combinations(range(graph.n), 2))
        assert list(graph.pair_distances) == pairs
        assert [graph.pair_distances[i, j] for i, j in pairs] == [math.dist(p[i], p[j]) for i, j in pairs]
        brute = {(i, j): math.hypot(p[i][0] - p[j][0], p[i][1] - p[j][1]) for i, j in pairs}
        assert graph.edges == tuple(pair for pair in pairs if brute[pair] <= graph.radius)
        assert validate_embedding(graph) == tuple(
            Violation("pair_distance", pair, brute[pair], MIN_PAIR_DISTANCE)
            for pair in pairs
            if brute[pair] < MIN_PAIR_DISTANCE
        )

    def test_table_is_read_only(self, graph_a):
        with pytest.raises(TypeError):
            graph_a.pair_distances[0, 1] = 0.0
        assert graph_a.pair_distances[0, 1] == math.dist(graph_a.positions[0], graph_a.positions[1])

    def test_over_limit_layout_builds_no_table(self):
        # a hand-written layout of thousands of atoms is refused at the
        # table's first use, before any of its n**2 entries exist
        g = build_unit_disk_graph([(5.0 * k, 0.0) for k in range(3000)], 6.0)
        for use in (lambda: g.pair_distances, lambda: g.edges, lambda: validate_embedding(g)):
            with pytest.raises(TooLarge, match="^3000 nodes exceeds the exhaustive limit of 24$"):
                use()
        assert "pair_distances" not in vars(g)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (1.0, 0.0), (0.0, 5e-324)]), min_size=1, max_size=30))
    def test_coincidence_is_the_first_pair_at_distance_zero(self, points):
        # the check compares points, not distances; for finite points the
        # two agree, and the first such pair row-major is the one named
        n = len(points)
        at_zero = [(i, j) for i in range(n) for j in range(i + 1, n) if math.dist(points[i], points[j]) == 0.0]
        if not at_zero:
            assert build_unit_disk_graph(points, 1.0).positions == tuple(points)
            return
        i, j = at_zero[0]
        with pytest.raises(InvalidInput) as refused:
            build_unit_disk_graph(points, 1.0)
        assert str(refused.value) == f"atoms {i} and {j} coincide at {points[i]}"

    def test_coincidence_found_in_one_pass(self):
        # naming the pair used to rescan the layout once per atom, which took
        # minutes at 10**5 atoms; a child process lets the timeout stop it
        code = (
            "from rydnash.errors import InvalidInput\n"
            "from rydnash.geometry import build_unit_disk_graph\n"
            "points = [(6.0 * k, 0.0) for k in range(99999)] + [(6.0 * 99998, 0.0)]\n"
            "try:\n"
            "    build_unit_disk_graph(points, 7.0)\n"
            "except InvalidInput as exc:\n"
            "    print(exc)\n"
        )
        args = [sys.executable, "-c", code]
        done = subprocess.run(args, env=child_env(), capture_output=True, text=True, timeout=10)
        assert (done.stdout, done.stderr) == ("atoms 99998 and 99999 coincide at (599988.0, 0.0)\n", "")


class TestBlockadeRadius:
    def test_delta_zero_closed_form(self):
        c6, omega = 123.4, 5.6
        assert blockade_radius(c6, omega, 0.0) == pytest.approx((c6 / omega) ** (1 / 6))

    def test_reference_value(self):
        # inverse check: r**6 * sqrt(omega**2 + delta**2) must recover c6
        r = blockade_radius(5.42e6, 7.27, 7.27)
        assert r == pytest.approx(8.987901680284356, rel=1e-12)
        assert r**6 * math.hypot(7.27, 7.27) == pytest.approx(5.42e6, rel=1e-12)

    def test_homogeneity_in_c6(self):
        r = blockade_radius(3.0e5, 1.2, 3.4)
        assert blockade_radius(64 * 3.0e5, 1.2, 3.4) == pytest.approx(2 * r, rel=1e-12)

    def test_strictly_decreasing_in_drive_scale(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            c6 = float(rng.uniform(1e3, 1e7))
            s1, s2 = sorted(rng.uniform(0.1, 50.0, size=2))
            if s1 == s2:
                continue
            assert blockade_radius(c6, s1, 0.0) > blockade_radius(c6, s2, 0.0)

    def test_undefined_at_zero_drive(self):
        with pytest.raises(InvalidInput, match="blockade radius is undefined"):
            blockade_radius(1.0, 0.0, 0.0)

    def test_bad_c6(self):
        with pytest.raises(InvalidInput):
            blockade_radius(-1.0, 1.0, 0.0)


class TestValidateEmbedding:
    def test_graph_a_ok(self, graph_a):
        assert validate_embedding(graph_a) == ()

    def test_close_pair_reported(self):
        g = build_unit_disk_graph([(0.0, 0.0), (3.0, 0.0)], 4.0)
        violations = validate_embedding(g)
        assert len(violations) == 1
        v = violations[0]
        assert (v.kind, v.subject, v.value, v.limit) == ("pair_distance", (0, 1), 3.0, 4.0)

    def test_single_atom_ok(self):
        g = build_unit_disk_graph([(5.0, 5.0)], 2.0)
        assert validate_embedding(g) == ()

    def test_exactly_at_floor_is_ok(self):
        g = build_unit_disk_graph([(0.0, 0.0), (4.0, 0.0)], 5.0)
        assert validate_embedding(g) == ()

    def test_completeness_under_insertion(self):
        # adding a pair at half the floor distance, far from everything,
        # creates exactly one new violation
        rng = np.random.default_rng(104)
        for _ in range(10):
            g = random_unit_disk(rng, n_max=6)
            base = len(validate_embedding(g))
            far = 1000.0 + float(rng.uniform(0, 10))
            positions = g.positions + ((far, 0.0), (far + MIN_PAIR_DISTANCE / 2, 0.0))
            g2 = build_unit_disk_graph(positions, g.radius)
            assert len(validate_embedding(g2)) == base + 1
