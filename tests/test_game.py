import ast
import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GRAPH_A_MIS_FAMILY, GRAPH_B_MIS_FAMILY, members, random_unit_disk, unit_disk_layouts
import rydnash.game
from rydnash.errors import InvalidAgent, InvalidInput, TooLarge
from rydnash.game import (
    BENEFITS,
    GameParams,
    best_responses,
    enumerate_specialized_nash,
    is_nash,
    payoff,
)
from rydnash.geometry import build_unit_disk_graph


PAIR = build_unit_disk_graph([(0.0, 0.0), (1.0, 0.0)], 1.0)


@pytest.fixture
def pair_graph():
    return PAIR


@contextlib.contextmanager
def wide_benefit():
    """Params whose benefit satiates at 1.5 * e_star, registered for the
    duration of the block.

    The default cost bound keeps ties out of reach for the satiating
    benefit, so realize one through the registry: an agent with one
    contributing neighbor compares u0 = b(1) = 1 against
    u1 = b(2) - 0.5 = 1, an exact dyadic tie.
    """
    BENEFITS["satiating_linear_wide"] = lambda x, e_star: np.minimum(x, 1.5 * e_star)
    try:
        yield GameParams(e_star=1.0, c=0.5, benefit="satiating_linear_wide")
    finally:
        del BENEFITS["satiating_linear_wide"]


@pytest.fixture
def lone_graph():
    return build_unit_disk_graph([(0.0, 0.0)], 1.0)


class TestGameParams:
    def test_defaults_valid(self):
        p = GameParams()
        assert p.e_star == 1.0 and p.c == 0.5
        assert float(p.b(2.0)) == 1.0  # satiating

    def test_cost_bounds(self):
        with pytest.raises(InvalidInput):
            GameParams(c=0.0)
        with pytest.raises(InvalidInput):
            GameParams(c=1.0)
        with pytest.raises(InvalidInput):
            GameParams(c=-0.3)

    def test_unknown_benefit(self):
        with pytest.raises(InvalidInput):
            GameParams(benefit="quadratic")

    def test_bad_e_star(self):
        with pytest.raises(InvalidInput):
            GameParams(e_star=0.0)


class TestPayoff:
    def test_isolated_contributor(self, lone_graph):
        params = GameParams()
        assert payoff(lone_graph, params, "1", 0) == 0.5  # b(1) - 0.5

    def test_pure_free_rider(self, pair_graph):
        params = GameParams()
        assert payoff(pair_graph, params, "01", 0) == 1.0  # b(1) - 0

    def test_redundant_contribution_satiates(self, pair_graph):
        params = GameParams()
        assert payoff(pair_graph, params, "11", 0) == 0.5  # min(2, 1) - 0.5

    def test_bad_agent(self, pair_graph):
        with pytest.raises(InvalidAgent):
            payoff(pair_graph, GameParams(), "00", 2)

    def test_wrong_length_profile(self, pair_graph):
        # wrong length, a bad character, the empty string and a set of node
        # indices are all refused, by each of the three game oracles
        params = GameParams()
        for bits in ("0", "010", "0x", "", {0, 1}):
            with pytest.raises(InvalidInput):
                payoff(pair_graph, params, bits, 0)
            with pytest.raises(InvalidInput):
                best_responses(pair_graph, params, bits, 0)
            with pytest.raises(InvalidInput):
                is_nash(pair_graph, params, bits)


class TestBestResponses:
    def test_contribute_when_uncovered(self, pair_graph):
        params = GameParams()
        assert best_responses(pair_graph, params, "00", 0) == frozenset({1.0})

    def test_free_ride_when_covered(self, pair_graph):
        params = GameParams()
        assert best_responses(pair_graph, params, "01", 0) == frozenset({0.0})

    def test_satiated_neighborhood_means_abstain(self):
        params = GameParams(e_star=1.0, c=0.5)
        g = build_unit_disk_graph([(0.0, 0.0), (1.0, 0.0)], 1.0)
        # agent 0: u(contribute) = b(2) - 0.5 = 0.5; u(abstain) = b(1) = 1.0
        assert best_responses(g, params, "11", 0) == frozenset({0.0})

    def test_exact_tie_returns_both_levels(self, pair_graph):
        with wide_benefit() as params:
            assert best_responses(pair_graph, params, "01", 0) == frozenset({0.0, 1.0})
            # is_nash accepts on a tie: both completions are equilibria
            assert is_nash(pair_graph, params, "01")
            assert is_nash(pair_graph, params, "11")

    def test_closed_form_on_random_graphs(self):
        # default params: contribute iff no neighbor contributes
        rng = np.random.default_rng(200)
        params = GameParams()
        for _ in range(10):
            g = random_unit_disk(rng, n_max=8)
            for z in range(1 << g.n):
                bits = format(z, f"0{g.n}b")
                for agent in range(g.n):
                    covered = any(bits[j] == "1" for j in g.neighbors[agent])
                    expected = frozenset({0.0}) if covered else frozenset({1.0})
                    assert best_responses(g, params, bits, agent) == expected


class TestIsNash:
    def test_graph_a_equilibrium(self, graph_a):
        params = GameParams()
        assert is_nash(graph_a, params, "100110")

    def test_adjacent_contributors_not_nash(self, graph_a):
        params = GameParams()
        assert not is_nash(graph_a, params, "110000")

    def test_empty_profile_not_nash(self, graph_a):
        params = GameParams()
        assert not is_nash(graph_a, params, "000000")

    def test_affine_invariance_of_decisions(self):
        # rescaling utility by a + b*u (b > 0) must not change best responses
        rng = np.random.default_rng(201)
        params = GameParams()
        for _ in range(20):
            g = random_unit_disk(rng, n_max=6)
            z = int(rng.integers(0, 1 << g.n))
            bits = format(z, f"0{g.n}b")
            a, b = float(rng.normal()), float(rng.uniform(0.5, 3.0))
            for agent in range(g.n):
                others = sum(1.0 for j in g.neighbors[agent] if bits[j] == "1")
                u0 = float(params.b(others))
                u1 = float(params.b(1.0 + others)) - params.c
                t0, t1 = a + b * u0, a + b * u1
                expected = {1.0} if t1 > t0 else {0.0} if t0 > t1 else {0.0, 1.0}
                assert best_responses(g, params, bits, agent) == frozenset(expected)


class TestEnumerate:
    def test_graph_a(self, graph_a):
        found = enumerate_specialized_nash(graph_a, GameParams())
        assert list(found) == sorted(GRAPH_A_MIS_FAMILY)
        assert {members(p) for p in found} == {
            frozenset(s) for s in ({0, 3, 4}, {1, 3}, {0, 5}, {1, 5}, {0, 2})
        }

    def test_graph_b(self, graph_b):
        found = enumerate_specialized_nash(graph_b, GameParams())
        assert list(found) == sorted(GRAPH_B_MIS_FAMILY)
        assert all(len(members(p)) == 3 for p in found)

    def test_two_connected_nodes(self):
        g = build_unit_disk_graph([(0.0, 0.0), (1.0, 0.0)], 1.0)
        found = enumerate_specialized_nash(g, GameParams())
        assert list(found) == ["01", "10"]

    def test_limit_enforced(self, graph_a):
        with pytest.raises(TooLarge):
            enumerate_specialized_nash(graph_a, GameParams(), limit=5)

    def test_agrees_with_per_profile_check(self):
        # dual route: vectorized enumeration vs scalar is_nash over all 2**n
        rng = np.random.default_rng(202)
        params = GameParams()
        for _ in range(15):
            g = random_unit_disk(rng, n_max=8)
            found = set(enumerate_specialized_nash(g, params))
            for z in range(1 << g.n):
                bits = format(z, f"0{g.n}b")
                assert (bits in found) == is_nash(g, params, bits)

    @settings(max_examples=30, deadline=None)
    @given(
        g=unit_disk_layouts(n_max=10),
        e_star=st.floats(0.1, 10.0),
        cost_share=st.floats(0.01, 0.99),
    )
    def test_property_matches_is_nash_on_every_profile(self, g, e_star, cost_share):
        # The table-driven sweep against the scalar best-response check, over
        # all 2**n profiles and a range of satiation levels and costs.
        params = GameParams(e_star=e_star, c=cost_share * float(GameParams(e_star=e_star).b(e_star)) / e_star)
        found = set(enumerate_specialized_nash(g, params))
        expected = set()
        for z in range(1 << g.n):
            bits = format(z, f"0{g.n}b")
            if is_nash(g, params, bits):
                expected.add(bits)
        assert found == expected

    @settings(max_examples=30, deadline=None)
    @given(g=unit_disk_layouts(n_max=9), wide=st.booleans())
    @example(g=PAIR, wide=True)
    def test_every_support_matches_is_nash(self, g, wide):
        # Under the wide benefit, supports with adjacent contributors are
        # equilibria, so a sweep that assumed independent supports fails here.
        with wide_benefit() as wide_params:
            params = wide_params if wide else GameParams()
            found = enumerate_specialized_nash(g, params)
            profiles = (format(z, f"0{g.n}b") for z in range(1 << g.n))
            assert set(found) == {bits for bits in profiles if is_nash(g, params, bits)}

    def test_wide_benefit_admits_adjacent_contributors(self, pair_graph):
        with wide_benefit() as params:
            assert enumerate_specialized_nash(pair_graph, params) == ("01", "10", "11")

    def test_game_does_not_import_indsets(self):
        # The Nash sweep must derive its rule from payoffs alone, so that the
        # cross-check against the independent sets stays independent.
        tree = ast.parse(open(rydnash.game.__file__, encoding="utf-8").read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
        assert not any("indsets" in name.split(".") for name in imported)

    def test_closed_under_automorphism(self):
        # relabeling nodes permutes the equilibrium set
        rng = np.random.default_rng(203)
        params = GameParams()
        for _ in range(10):
            g = random_unit_disk(rng, n_max=7)
            perm = [int(k) for k in rng.permutation(g.n)]
            # permuted-graph node i carries original node perm[i]'s position,
            # so a permuted support maps back via perm
            permuted = build_unit_disk_graph([g.positions[perm[i]] for i in range(g.n)], g.radius)
            base = {members(p) for p in enumerate_specialized_nash(g, params)}
            mapped = {
                frozenset(perm[i] for i in members(p))
                for p in enumerate_specialized_nash(permuted, params)
            }
            assert base == mapped
