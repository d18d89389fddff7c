import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    GRAPH_A_MAXIMUM,
    GRAPH_A_MIS_FAMILY,
    GRAPH_B_MIS_FAMILY,
    brute_force_mis,
    random_unit_disk,
    unit_disk_layouts,
)
from rydnash.errors import InvalidSet, NotIndependent, TooLarge
from rydnash.game import GameParams
from rydnash.geometry import build_unit_disk_graph
from rydnash.indsets import (
    NodeSet,
    correspondence_witnesses,
    enumerate_mis,
    is_independent,
    is_maximal,
    maximum_independent_sets,
    verify_correspondence,
)


class TestNodeSet:
    def test_bitstring_round_trip(self):
        s = NodeSet(frozenset({0, 3, 4}), 6)
        assert s.bitstring == "100110"
        assert NodeSet.from_bitstring("100110") == s
        assert sorted(s) == [0, 3, 4]
        assert 3 in s and 1 not in s
        assert len(s) == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidSet):
            NodeSet(frozenset({7}), 6)

    def test_bad_bitstring(self):
        with pytest.raises(InvalidSet):
            NodeSet.from_bitstring("10x0")


class TestIsIndependent:
    def test_empty_set(self, graph_a):
        assert is_independent(graph_a, set())

    def test_graph_a_mis(self, graph_a):
        assert is_independent(graph_a, {0, 3, 4})

    def test_edge_endpoints(self, graph_a):
        for i, j in graph_a.edges:
            assert not is_independent(graph_a, {i, j})

    def test_out_of_range(self, graph_a):
        with pytest.raises(InvalidSet):
            is_independent(graph_a, {0, 9})


class TestIsMaximal:
    def test_extendable_set(self, graph_b):
        assert not is_maximal(graph_b, {1, 5})  # node 3 can still join

    def test_graph_a_pair(self, graph_a):
        assert is_maximal(graph_a, {1, 3})

    def test_k2_singleton(self):
        g = build_unit_disk_graph([(0.0, 0.0), (1.0, 0.0)], 1.0)
        assert is_maximal(g, {0})

    def test_dependent_set_raises(self, graph_a):
        with pytest.raises(NotIndependent):
            is_maximal(graph_a, {0, 1})


class TestEnumerateMis:
    def test_graph_a(self, graph_a):
        found = enumerate_mis(graph_a)
        assert [s.bitstring for s in found] == sorted(GRAPH_A_MIS_FAMILY)
        assert {frozenset(s.members) for s in found} == {
            frozenset(x) for x in ({0, 3, 4}, {1, 3}, {0, 5}, {1, 5}, {0, 2})
        }

    def test_graph_b(self, graph_b):
        found = enumerate_mis(graph_b)
        assert [s.bitstring for s in found] == sorted(GRAPH_B_MIS_FAMILY)
        assert all(len(s) == 3 for s in found)

    def test_two_node_path(self):
        g = build_unit_disk_graph([(0.0, 0.0), (1.0, 0.0)], 1.0)
        assert {s.bitstring for s in enumerate_mis(g)} == {"01", "10"}

    def test_limit(self, graph_a):
        with pytest.raises(TooLarge):
            enumerate_mis(graph_a, limit=4)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(300)
        for _ in range(25):
            g = random_unit_disk(rng, n_max=8)
            fast = {frozenset(s.members) for s in enumerate_mis(g)}
            assert fast == brute_force_mis(g)

    def test_brute_force_agreement_larger(self):
        # three double-digit instances to exercise the oracle bound
        rng = np.random.default_rng(301)
        for n in (10, 11, 12):
            pts = [(float(x), float(y)) for x, y in rng.uniform(0, 10, size=(n, 2))]
            g = build_unit_disk_graph(pts, float(rng.uniform(2.0, 8.0)))
            assert {frozenset(s.members) for s in enumerate_mis(g)} == brute_force_mis(g)

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
            members = [i for i in range(g.n) if z >> (g.n - 1 - i) & 1]
            if is_independent(g, members) and is_maximal(g, members):
                expected.add(frozenset(members))
        assert {frozenset(s.members) for s in enumerate_mis(g)} == expected


class TestMaximumIndependentSets:
    def test_graph_a_unique(self, graph_a):
        found = maximum_independent_sets(graph_a)
        assert [s.bitstring for s in found] == [GRAPH_A_MAXIMUM]
        assert len(found[0]) == 3

    def test_graph_b_all_four(self, graph_b):
        assert {s.bitstring for s in maximum_independent_sets(graph_b)} == GRAPH_B_MIS_FAMILY

    def test_edgeless_graph(self):
        g = build_unit_disk_graph([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 1.0)
        found = maximum_independent_sets(g)
        assert len(found) == 1
        assert frozenset(found[0].members) == frozenset({0, 1, 2})

    def test_every_maximum_is_maximal(self):
        rng = np.random.default_rng(303)
        for _ in range(10):
            g = random_unit_disk(rng, n_max=8)
            mis = set(s.bitstring for s in enumerate_mis(g))
            for s in maximum_independent_sets(g):
                assert s.bitstring in mis


class TestCorrespondence:
    def test_witnesses_name_the_side(self):
        witnesses = correspondence_witnesses(["01", "10"], ["10", "11"])
        assert witnesses == (("01", "nash_only"), ("11", "mis_only"))
        assert correspondence_witnesses(["10"], ["10"]) == ()

    def test_graph_a(self, graph_a):
        ok, witnesses = verify_correspondence(graph_a, GameParams())
        assert ok and witnesses == ()

    def test_graph_b(self, graph_b):
        ok, witnesses = verify_correspondence(graph_b, GameParams())
        assert ok and witnesses == ()

    def test_fifty_random_layouts(self):
        rng = np.random.default_rng(304)
        for _ in range(50):
            g = random_unit_disk(rng, n_max=8)
            ok, witnesses = verify_correspondence(g, GameParams())
            assert ok, f"mismatch on {g.positions} r={g.radius}: {witnesses}"


class TestAutomorphismClosure:
    def test_relabeling_permutes_families(self):
        rng = np.random.default_rng(305)
        for _ in range(10):
            g = random_unit_disk(rng, n_max=7)
            perm = [int(k) for k in rng.permutation(g.n)]
            permuted = build_unit_disk_graph([g.positions[perm[i]] for i in range(g.n)], g.radius)
            for fn in (enumerate_mis, maximum_independent_sets):
                base = {frozenset(s.members) for s in fn(g)}
                mapped = {frozenset(perm[i] for i in s.members) for s in fn(permuted)}
                assert base == mapped
