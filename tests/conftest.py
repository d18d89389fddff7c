"""Shared fixtures and independent brute-force oracles.

The two reference layouts pin their hexagon/house geometries at a 6 um edge
length, which clears the 4 um hardware floor with margin. The coupling
constants pin the blockade radius strictly between the edge distance (6 um)
and the closest non-edge distance (sqrt(108) ~ 10.39 um for the hexagon,
6*sqrt(2) ~ 8.49 um for the house), which is the regime where the drive-off
ground states are the maximum independent sets.
"""

import itertools
import math

import pytest
from hypothesis import strategies as st

from rydnash.geometry import build_unit_disk_graph

ROOT3 = math.sqrt(3.0)

GRAPH_A_POSITIONS = ((0.0, 0.0), (6.0, 0.0), (12.0, 0.0), (18.0, 0.0), (9.0, 3 * ROOT3), (15.0, 3 * ROOT3))
GRAPH_A_RADIUS = 8.0
GRAPH_A_EDGES = {(0, 1), (1, 2), (2, 3), (1, 4), (2, 4), (2, 5), (3, 5), (4, 5)}
GRAPH_A_MIS_FAMILY = {"010001", "010100", "100001", "100110", "101000"}
GRAPH_A_MAXIMUM = "100110"  # support {0, 3, 4}

GRAPH_B_POSITIONS = ((0.0, 0.0), (6.0, 0.0), (12.0, 0.0), (18.0, 0.0), (6.0, -6.0), (12.0, -6.0))
GRAPH_B_RADIUS = 7.0
GRAPH_B_EDGES = {(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (2, 5)}
GRAPH_B_MIS_FAMILY = {"010101", "100101", "100110", "101010"}

# Coupling pinned per layout: edge interaction far above the 7.27 rad/us
# detuning, beyond-radius tails well below it.
C_A = 2.2e6  # rad/us um^6; blockade radius ~8.19 um at the 7.27 scale
C_B = 6.0e5  # rad/us um^6; blockade radius ~6.60 um at the 7.27 scale

SEED = 7  # documented sampling seed used throughout


@pytest.fixture(scope="session")
def graph_a():
    return build_unit_disk_graph(GRAPH_A_POSITIONS, GRAPH_A_RADIUS)


@pytest.fixture(scope="session")
def graph_b():
    return build_unit_disk_graph(GRAPH_B_POSITIONS, GRAPH_B_RADIUS)


def random_unit_disk(rng, n_max=8, box=10.0):
    """A random layout with node count and radius drawn to vary edge density."""
    n = int(rng.integers(1, n_max + 1))
    positions = [(float(rng.uniform(0, box)), float(rng.uniform(0, box))) for _ in range(n)]
    radius = float(rng.uniform(1.0, 1.5 * box))
    return build_unit_disk_graph(positions, radius)


@st.composite
def unit_disk_layouts(draw, n_max=10, box=10.0):
    """Hypothesis strategy: distinct points in a box and a radius drawn to
    range from an empty graph to a complete one."""
    coord = st.floats(0.0, box, allow_nan=False, allow_infinity=False)
    positions = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=n_max, unique=True))
    radius = draw(st.floats(0.1, 1.5 * box))
    return build_unit_disk_graph(positions, radius)


def brute_force_mis(graph):
    """Reference enumeration: filter all 2**n subsets with direct checks.

    Deliberately independent of the vectorized implementation: independence
    scans the edge list, maximality scans closed neighborhoods.
    """
    n = graph.n
    edges = graph.edges
    out = []
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            s = set(subset)
            if any(i in s and j in s for i, j in edges):
                continue
            if all(v in s or (graph.neighbors[v] & s) for v in range(n)):
                out.append(frozenset(s))
    return set(out)


def support_bitstring(members, n):
    return "".join("1" if i in members else "0" for i in range(n))
