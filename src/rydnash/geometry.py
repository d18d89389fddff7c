"""Unit-disk layouts, blockade radii, and embedding validation.

Distances are in micrometers. A layout is a sequence of 2D points plus a disk
radius; two atoms are adjacent exactly when their Euclidean distance is at
most the radius (closed disk, exact float comparison, no tolerance). Node
order is the canonical bit order for every bitstring produced elsewhere in
the package: node 0 is the leftmost bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import InvalidInput, pairs, real

Point = tuple[float, float]

#: Closest two atoms may sit, in um: the hardware spacing floor of the
#: device in Ebadi et al., Science 376 (2022), arXiv:2202.09372.
MIN_PAIR_DISTANCE = 4.0


@dataclass(frozen=True)
class EmbeddedGraph:
    """2D atom layout whose adjacency is derived from a unit-disk rule.

    Adjacency is never stored independently: ``i ~ j`` iff ``i != j`` and
    ``dist(p_i, p_j) <= radius``.
    """

    positions: tuple[Point, ...]
    radius: float

    def __post_init__(self):
        clean = pairs(self.positions, "atom", ("x", "y"))
        if not clean:
            raise InvalidInput("layout needs at least one atom")
        object.__setattr__(self, "radius", real("radius", self.radius, positive=True))
        object.__setattr__(self, "positions", clean)
        for i in range(len(clean)):
            for j in range(i + 1, len(clean)):
                if math.dist(clean[i], clean[j]) == 0.0:
                    raise InvalidInput(f"atoms {i} and {j} coincide at {clean[i]}")

    @property
    def n(self) -> int:
        return len(self.positions)

    def distance(self, i: int, j: int) -> float:
        return math.dist(self.positions[i], self.positions[j])

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Adjacent pairs ``(i, j)`` with ``i < j``."""
        return tuple(
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.distance(i, j) <= self.radius
        )

    @cached_property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        return tuple(frozenset(s) for s in nbrs)


@dataclass(frozen=True)
class Violation:
    """One hard-constraint breach: what, where, measured value, limit."""

    kind: str
    subject: tuple[int, ...]  # the atom pair; empty for a waveform, which ``kind`` names
    value: float
    limit: float


def build_unit_disk_graph(positions: Sequence[Sequence[float]], radius: float) -> EmbeddedGraph:
    """Build the graph whose edges are exactly the pairs within ``radius``.

    Raises InvalidInput for coincident points, non-finite coordinates or a
    non-positive radius.
    """
    return EmbeddedGraph(tuple(tuple(p) for p in positions), radius)


def blockade_radius(c6: float, omega: float, delta: float) -> float:
    """Distance below which the pair interaction dominates the drive scale.

    Computed as ``(c6 / sqrt(omega**2 + delta**2)) ** (1/6)``; strictly
    decreasing in the drive scale and scaling as ``c6 ** (1/6)``.
    """
    c6 = real("c6", c6, positive=True)
    scale = math.hypot(real("omega", omega), real("delta", delta))
    if scale == 0.0:
        raise InvalidInput("blockade radius is undefined when drive and detuning are both zero")
    return (c6 / scale) ** (1.0 / 6.0)


def validate_embedding(graph: EmbeddedGraph) -> tuple[Violation, ...]:
    """Every atom pair closer than ``MIN_PAIR_DISTANCE``.

    Reports, never throws: an empty tuple means the layout passes.
    """
    violations = []
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            d = graph.distance(i, j)
            if d < MIN_PAIR_DISTANCE:
                violations.append(Violation("pair_distance", (i, j), d, MIN_PAIR_DISTANCE))
    return tuple(violations)
