import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import unit_disk_layouts
from rydnash._bits import rule_supports
from rydnash.game import GameParams, enumerate_specialized_nash
from rydnash.geometry import build_unit_disk_graph
from rydnash.indsets import enumerate_mis

N_MAX = 9


def brute_force_supports(graph, rule):
    """Every subset at which each node passes ``rule[own, k]``, checked one
    subset at a time; neighbor counts come from the edge list."""
    n = graph.n
    found = []
    for z in range(1 << n):
        bits = format(z, f"0{n}b")
        k = [0] * n
        for i, j in graph.edges:
            k[i] += bits[j] == "1"
            k[j] += bits[i] == "1"
        if all(rule[int(bits[v]), k[v]] for v in range(n)):
            found.append(bits)
    return tuple(found)


def rule_table(code, n):
    """The (2, n + 1) boolean table whose entry (own, k) is bit own*(n+1) + k of ``code``."""
    return np.array([[bool(code >> (own * (n + 1) + k) & 1) for k in range(n + 1)] for own in (0, 1)])


def chain(n):
    return build_unit_disk_graph([(1.0 * i, 0.0) for i in range(n)], 1.0)


class TestRuleSupports:
    @settings(max_examples=60, deadline=None)
    @given(g=unit_disk_layouts(n_max=N_MAX), code=st.integers(0, 2 ** (2 * (N_MAX + 1)) - 1))
    @example(g=chain(1), code=0b0100)
    @example(g=chain(2), code=0b010011)
    @example(g=chain(5), code=0b000001_111110)  # the maximal-independent-set rule, odd n
    @example(g=chain(7), code=0b10101010_01010101)
    def test_matches_brute_force(self, g, code):
        # Arbitrary tables reach pruning cases no benefit curve produces,
        # such as a count that passes for members and non-members alike.
        for rule in (rule_table(code, g.n), np.ones((2, g.n + 1), bool), np.zeros((2, g.n + 1), bool)):
            assert rule_supports(g.neighbors, rule) == brute_force_supports(g, rule)


def perfect_matching(n):
    """Node i paired with node i + n/2 across the high/low split: no half
    assignment can be ruled out, so the sweep checks all 2**n supports."""
    half = n // 2
    return build_unit_disk_graph([(10.0 * i, 0.0) for i in range(half)] + [(10.0 * i, 1.0) for i in range(half)], 1.5)


def kings_24():
    """A 5x5 King's lattice at 6 um with the centre site vacant, radius 9 um."""
    sites = [(6.0 * c, 6.0 * r) for r in range(5) for c in range(5) if (r, c) != (2, 2)]
    return build_unit_disk_graph(sites, 9.0)


SWEEPS = {
    "nash": lambda g: enumerate_specialized_nash(g, GameParams()),
    "mis": enumerate_mis,
}


def sweep_peak(sweep, graph):
    tracemalloc.start()
    try:
        found = sweep(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return found, peak


class TestSweepMemory:
    @pytest.mark.parametrize("name", SWEEPS)
    def test_unpruned_matching_peak(self, name):
        # one byte for the surviving grid and one for a node's verdict
        # (2.41 measured); nothing may add a third 2**n-long array
        g = perfect_matching(20)
        found, peak = sweep_peak(SWEEPS[name], g)
        assert len(found) == 2**10
        assert peak <= 3 * 2**g.n

    @pytest.mark.parametrize("name", SWEEPS)
    def test_kings_24_peak(self, name):
        # the half tables and the 38 x 38 surviving grid: 0.123 bytes per
        # index measured, against 3.0 for a full 2**n sweep
        g = kings_24()
        found, peak = sweep_peak(SWEEPS[name], g)
        assert g.n == 24 and len(found) == 544
        assert peak <= 2**g.n // 4
