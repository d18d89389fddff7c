import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    GRAPH_A_MAXIMUM,
    GRAPH_A_MIS_FAMILY,
    GRAPH_B_MIS_FAMILY,
    OVER_LIMIT,
    brute_force_mis,
    members,
    random_unit_disk,
    unit_disk_layouts,
)
from rydnash.errors import InvalidInput, TooLarge
from rydnash.game import GameParams, enumerate_specialized_nash
from rydnash.geometry import build_unit_disk_graph
from rydnash.indsets import (
    correspondence_witnesses,
    enumerate_mis,
    is_independent,
    is_maximal,
    maximum_independent_sets,
)


class TestIsIndependent:
    def test_empty_set(self, graph_a):
        assert is_independent(graph_a, "000000")

    def test_graph_a_mis(self, graph_a):
        assert is_independent(graph_a, GRAPH_A_MAXIMUM)

    def test_edge_endpoints(self, graph_a):
        for i, j in graph_a.edges:
            bits = "".join("1" if v in (i, j) else "0" for v in range(graph_a.n))
            assert not is_independent(graph_a, bits)

    def test_out_of_range(self, graph_a):
        # a node beyond the graph: a set of node indices, or a seventh character
        for s in ({0, 9}, "1000001"):
            with pytest.raises(InvalidInput):
                is_independent(graph_a, s)

    def test_bitstring_rejected(self, graph_a):
        # a malformed bitstring: wrong length, bad character, empty
        for bits in ("10011", "10011x", ""):
            with pytest.raises(InvalidInput):
                is_independent(graph_a, bits)


class TestIsMaximal:
    def test_extendable_set(self, graph_b):
        assert not is_maximal(graph_b, "010001")  # node 3 can still join

    def test_graph_a_pair(self, graph_a):
        assert is_maximal(graph_a, "010100")

    def test_k2_singleton(self):
        g = build_unit_disk_graph([(0.0, 0.0), (1.0, 0.0)], 1.0)
        assert is_maximal(g, "10")

    def test_dependent_set_raises(self, graph_a):
        with pytest.raises(InvalidInput, match="110000 contains an edge"):
            is_maximal(graph_a, "110000")

    def test_bitstring_rejected(self, graph_a):
        # a malformed bitstring (wrong length, bad character, empty) or a
        # set of node indices
        for s in ("1000010", "10000x", "", {0, 5}):
            with pytest.raises(InvalidInput):
                is_maximal(graph_a, s)


class TestEnumerateMis:
    def test_graph_a(self, graph_a):
        found = enumerate_mis(graph_a)
        assert list(found) == sorted(GRAPH_A_MIS_FAMILY)
        assert {members(s) for s in found} == {
            frozenset(x) for x in ({0, 3, 4}, {1, 3}, {0, 5}, {1, 5}, {0, 2})
        }

    def test_graph_b(self, graph_b):
        found = enumerate_mis(graph_b)
        assert list(found) == sorted(GRAPH_B_MIS_FAMILY)
        assert all(len(members(s)) == 3 for s in found)

    def test_two_node_path(self):
        g = build_unit_disk_graph([(0.0, 0.0), (1.0, 0.0)], 1.0)
        assert set(enumerate_mis(g)) == {"01", "10"}

    def test_limit(self, chain25):
        with pytest.raises(TooLarge, match=OVER_LIMIT):
            enumerate_mis(chain25)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(300)
        for _ in range(25):
            g = random_unit_disk(rng, n_max=8)
            fast = {members(s) for s in enumerate_mis(g)}
            assert fast == brute_force_mis(g)

    def test_brute_force_agreement_larger(self):
        # three double-digit instances to exercise the oracle bound
        rng = np.random.default_rng(301)
        for n in (10, 11, 12):
            pts = [(float(x), float(y)) for x, y in rng.uniform(0, 10, size=(n, 2))]
            g = build_unit_disk_graph(pts, float(rng.uniform(2.0, 8.0)))
            assert {members(s) for s in enumerate_mis(g)} == brute_force_mis(g)

    def test_outputs_are_maximal_independent(self):
        rng = np.random.default_rng(302)
        for _ in range(10):
            g = random_unit_disk(rng, n_max=8)
            for s in enumerate_mis(g):
                assert is_independent(g, s)
                assert is_maximal(g, s)

    @settings(max_examples=40, deadline=None)
    @given(g=unit_disk_layouts(n_max=10))
    def test_property_matches_predicates_on_every_subset(self, g):
        expected = set()
        for z in range(1 << g.n):
            bits = format(z, f"0{g.n}b")
            if is_independent(g, bits) and is_maximal(g, bits):
                expected.add(bits)
        assert set(enumerate_mis(g)) == expected


class TestMaximumIndependentSets:
    def test_graph_a_unique(self, graph_a):
        found = maximum_independent_sets(graph_a)
        assert list(found) == [GRAPH_A_MAXIMUM]
        assert len(members(found[0])) == 3

    def test_graph_b_all_four(self, graph_b):
        assert set(maximum_independent_sets(graph_b)) == GRAPH_B_MIS_FAMILY

    def test_edgeless_graph(self):
        g = build_unit_disk_graph([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 1.0)
        found = maximum_independent_sets(g)
        assert len(found) == 1
        assert members(found[0]) == frozenset({0, 1, 2})

    def test_every_maximum_is_maximal(self):
        rng = np.random.default_rng(303)
        for _ in range(10):
            g = random_unit_disk(rng, n_max=8)
            mis = set(enumerate_mis(g))
            for s in maximum_independent_sets(g):
                assert s in mis


class TestCorrespondence:
    def test_witnesses_name_the_side(self):
        witnesses = correspondence_witnesses(["01", "10"], ["10", "11"])
        assert witnesses == (("01", "nash_only"), ("11", "mis_only"))
        assert correspondence_witnesses(["10"], ["10"]) == ()

    @staticmethod
    def witnesses(g):
        return correspondence_witnesses(enumerate_specialized_nash(g, GameParams()), enumerate_mis(g))

    def test_graph_a(self, graph_a):
        assert self.witnesses(graph_a) == ()

    def test_graph_b(self, graph_b):
        assert self.witnesses(graph_b) == ()

    def test_fifty_random_layouts(self):
        rng = np.random.default_rng(304)
        for _ in range(50):
            g = random_unit_disk(rng, n_max=8)
            witnesses = self.witnesses(g)
            assert witnesses == (), f"mismatch on {g.positions} r={g.radius}: {witnesses}"


class TestAutomorphismClosure:
    def test_relabeling_permutes_families(self):
        rng = np.random.default_rng(305)
        for _ in range(10):
            g = random_unit_disk(rng, n_max=7)
            perm = [int(k) for k in rng.permutation(g.n)]
            permuted = build_unit_disk_graph([g.positions[perm[i]] for i in range(g.n)], g.radius)
            for fn in (enumerate_mis, maximum_independent_sets):
                base = {members(s) for s in fn(g)}
                mapped = {frozenset(perm[i] for i in members(s)) for s in fn(permuted)}
                assert base == mapped
