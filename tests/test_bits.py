import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bron_kerbosch_mis, brute_force_mis, kings_24, support_bitstring, unit_disk_layouts
from rydnash._bits import check_bitstrings, from_bitstring
from rydnash.errors import InvalidInput
from rydnash.game import GameParams, _rule_supports, enumerate_specialized_nash
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


def mis_rule(n):
    """The maximal-independent-set rule for :func:`_rule_supports`: a member
    has no neighbor inside the support, and a non-member has at least one."""
    k = np.arange(n + 1)
    return np.stack([k > 0, k == 0])


class TestRuleSupports:
    @settings(max_examples=60, deadline=None)
    @given(g=unit_disk_layouts(n_max=N_MAX), code=st.integers(0, 2 ** (2 * (N_MAX + 1)) - 1))
    @example(g=chain(1), code=0b0100)
    @example(g=chain(2), code=0b010011)
    @example(g=chain(5), code=0b000001_111110)  # the maximal-independent-set rule, odd n
    @example(g=chain(7), code=0b10101010_01010101)
    # a rule that holds only for a member with all four neighbors inside,
    # the largest count a node here reaches, and one that holds only for a
    # non-member at count 0, with no degree into the other half: on the
    # complete graph only 11111 passes, and on the edgeless one only 00000
    @example(g=build_unit_disk_graph([(0.1 * i, 0.0) for i in range(5)], 1.0), code=1 << 10)
    @example(g=build_unit_disk_graph([(2.0 * i, 0.0) for i in range(5)], 1.0), code=1)
    def test_matches_brute_force(self, g, code):
        # Arbitrary tables reach pruning cases no benefit curve produces,
        # such as a count that passes for members and non-members alike.
        for rule in (rule_table(code, g.n), np.ones((2, g.n + 1), bool), np.zeros((2, g.n + 1), bool)):
            assert _rule_supports(g.neighbors, rule) == brute_force_supports(g, rule)


class TestCheckBitstrings:
    @settings(max_examples=200, deadline=None)
    @given(
        family=st.lists(st.one_of(st.text(alphabet="01\ud800x", max_size=4), st.integers(0, 3)), max_size=4),
        n=st.integers(-1, 4),
    )
    @example(family=["01", "1"], n=2)  # right total length, wrong item lengths
    @example(family=["01"], n=0)
    @example(family=["\ud800\ud800"], n=2)  # no UTF-8 text
    def test_agrees_with_from_bitstring(self, family, n):
        # the batch pass refuses exactly what one from_bitstring per item
        # refuses, with from_bitstring's message for the first refused item
        expected = None
        try:
            for bits in family:
                from_bitstring(bits, n)
        except InvalidInput as exc:
            expected = str(exc)
        if expected is None:
            check_bitstrings(family, n)
        else:
            with pytest.raises(InvalidInput) as refused:
                check_bitstrings(family, n)
            assert str(refused.value) == expected


def perfect_matching(n):
    """Node i paired with node i + n/2 across the high/low split: no half
    assignment can be ruled out, so the sweep checks all 2**n supports."""
    half = n // 2
    return build_unit_disk_graph([(10.0 * i, 0.0) for i in range(half)] + [(10.0 * i, 1.0) for i in range(half)], 1.5)


def kings_21(seed, count):
    """``count`` 5x5 King's lattices at 6 um, radius 9 um, each with four
    sites drawn vacant by ``random.Random(seed)``."""
    rng = random.Random(seed)
    sites = [(6.0 * c, 6.0 * r) for r in range(5) for c in range(5)]
    layouts = []
    for _ in range(count):
        vacant = set(rng.sample(range(len(sites)), 4))
        layouts.append(build_unit_disk_graph([p for k, p in enumerate(sites) if k not in vacant], 9.0))
    return layouts


#: Layouts with 10 to 12 bits in each half: three drawn n = 21 lattices and
#: the n = 24 one, the exhaustive limit.
KINGS = {f"kings21-{k}": g for k, g in enumerate(kings_21(1, 3))} | {"kings24": kings_24()}


def disjoint_triangles(count):
    """``count`` triangles far apart: 3**count maximal sets, the most any
    graph on 3 * count nodes has (Moon & Moser, 1965)."""
    corners = ((0.0, 0.0), (1.0, 0.0), (0.5, 0.8))
    return build_unit_disk_graph([(10.0 * t + x, y) for t in range(count) for x, y in corners], 1.5)


#: Extremes beside the lattices, each with its number of maximal sets: the
#: n = 24 worst case for the search, one node, and no edges or all of them
#: at the exhaustive limit.
EXTREMES = {
    "triangles24": (disjoint_triangles(8), 3**8),
    "single": (chain(1), 1),
    "edgeless24": (build_unit_disk_graph([(2.0 * i, 0.0) for i in range(24)], 1.0), 1),
    "complete24": (build_unit_disk_graph([(0.1 * i, 0.0) for i in range(24)], 3.0), 24),
}


#: The production sweeps, and the kernel of the Nash sweep run on the
#: maximal-set rule as an oracle for ``enumerate_mis``.
SWEEPS = {
    "nash": lambda g: enumerate_specialized_nash(g, GameParams()),
    "mis": enumerate_mis,
    "mis-rule": lambda g: _rule_supports(g.neighbors, mis_rule(g.n)),
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
        # (2.25 measured); nothing may add a third 2**n-long array
        g = perfect_matching(20)
        found, peak = sweep_peak(SWEEPS[name], g)
        assert len(found) == 2**10
        assert peak <= 3 * 2**g.n

    @pytest.mark.parametrize("name", SWEEPS)
    def test_kings_24_peak(self, name):
        # the half tables and the 38 x 38 surviving grid: 0.020 bytes per
        # index measured, against 3.0 for a full 2**n sweep
        g = kings_24()
        found, peak = sweep_peak(SWEEPS[name], g)
        assert g.n == 24 and len(found) == 544
        assert peak <= 2**g.n // 16

    @pytest.mark.parametrize("name", SWEEPS)
    def test_kings_21_peak(self, name):
        # the half tables and one node's pruning test at a time: 0.064 to
        # 0.072 bytes per index measured on the three layouts
        for layout in ("kings21-0", "kings21-1", "kings21-2"):
            g = KINGS[layout]
            found, peak = sweep_peak(SWEEPS[name], g)
            assert g.n == 21 and found
            assert peak <= 2**g.n // 5, layout


class TestAgainstBronKerbosch:
    @settings(max_examples=60, deadline=None)
    @given(g=unit_disk_layouts(n_max=N_MAX))
    def test_oracle_matches_brute_force(self, g):
        assert bron_kerbosch_mis(g) == brute_force_mis(g)

    @pytest.mark.parametrize("layout", KINGS)
    @pytest.mark.parametrize("name", SWEEPS)
    def test_kings_lattices(self, name, layout):
        # both families are the maximal sets, in canonical order
        g = KINGS[layout]
        assert SWEEPS[name](g) == tuple(sorted(support_bitstring(s, g.n) for s in bron_kerbosch_mis(g)))

    @pytest.mark.parametrize("layout", EXTREMES)
    @pytest.mark.parametrize("name", SWEEPS)
    def test_extremes(self, name, layout):
        g, count = EXTREMES[layout]
        expected = tuple(sorted(support_bitstring(s, g.n) for s in bron_kerbosch_mis(g)))
        assert len(expected) == count
        assert SWEEPS[name](g) == expected
