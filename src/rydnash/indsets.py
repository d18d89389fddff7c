"""Maximal and maximum independent sets, and the equilibrium cross-check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._bits import index_of, node_mask, popcount_map, to_bitstring
from .errors import InvalidSet, NotIndependent, TooLarge
from .game import DEFAULT_EXHAUSTIVE_LIMIT, GameParams, enumerate_specialized_nash
from .geometry import EmbeddedGraph


@dataclass(frozen=True)
class NodeSet:
    """Set of node indices with a canonical fixed-width bitstring form."""

    members: frozenset[int]
    n: int

    def __post_init__(self):
        members = frozenset(int(i) for i in self.members)
        object.__setattr__(self, "members", members)
        if any(not (0 <= i < self.n) for i in members):
            raise InvalidSet(f"members {sorted(members)} out of range for n={self.n}")

    @classmethod
    def from_bitstring(cls, bits: str) -> "NodeSet":
        if not bits or any(ch not in "01" for ch in bits):
            raise InvalidSet(f"bitstring must be a nonempty string over '0'/'1', got {bits!r}")
        return cls(frozenset(i for i, ch in enumerate(bits) if ch == "1"), len(bits))

    @property
    def bitstring(self) -> str:
        return "".join("1" if i in self.members else "0" for i in range(self.n))

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, i) -> bool:
        return i in self.members


def _as_nodeset(graph: EmbeddedGraph, s) -> NodeSet:
    if isinstance(s, NodeSet):
        if s.n != graph.n:
            raise InvalidSet(f"set is over {s.n} nodes but the graph has {graph.n}")
        return s
    return NodeSet(frozenset(s), graph.n)


def is_independent(graph: EmbeddedGraph, s: NodeSet | Iterable[int]) -> bool:
    """True iff no edge has both endpoints in the set."""
    ns = _as_nodeset(graph, s)
    return not any(i in ns.members and j in ns.members for i, j in graph.edges)


def is_maximal(graph: EmbeddedGraph, s: NodeSet | Iterable[int]) -> bool:
    """True iff every node outside the (independent) set has a neighbor in it."""
    ns = _as_nodeset(graph, s)
    if not is_independent(graph, ns):
        raise NotIndependent(f"{sorted(ns.members)} contains an edge")
    return all(v in ns.members or graph.neighbors[v] & ns.members for v in range(graph.n))


def enumerate_mis(graph: EmbeddedGraph, limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> tuple[NodeSet, ...]:
    """Every maximal independent set, in canonical bitstring order.

    Exhaustive scan of all 2**n subsets, vectorized on bit masks one node
    at a time. A member with a neighbor inside the subset breaks
    independence and a non-member without one breaks maximality, so a
    subset qualifies when, at every node, membership and having a neighbor
    inside differ.
    """
    n = graph.n
    if n > limit:
        raise TooLarge(n, limit)
    ok = np.ones(1 << n, dtype=bool)
    verdict = np.empty_like(ok)
    for v in range(n):
        masks = (index_of(graph.neighbors[v], n), node_mask(v, n))
        ok &= popcount_map(lambda nbrs, member: (nbrs > 0) != (member > 0), masks, n, out=verdict)
    return tuple(NodeSet.from_bitstring(to_bitstring(int(i), n)) for i in np.flatnonzero(ok))


def largest(sets: tuple[NodeSet, ...]) -> tuple[NodeSet, ...]:
    """The sets of largest cardinality, in their given order."""
    best = max(len(s) for s in sets)
    return tuple(s for s in sets if len(s) == best)


def maximum_independent_sets(
    graph: EmbeddedGraph, limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> tuple[NodeSet, ...]:
    """The maximal independent sets of largest cardinality."""
    return largest(enumerate_mis(graph, limit))


def correspondence_witnesses(nash: Iterable[str], mis: Iterable[str]) -> tuple[tuple[str, str], ...]:
    """The symmetric difference of Nash supports and maximal independent
    sets (both as bitstrings), as sorted ``(bitstring, side)`` pairs with
    ``side`` naming the family the set appears in (``"nash_only"`` or
    ``"mis_only"``)."""
    nash, mis = set(nash), set(mis)
    return tuple(sorted([(b, "nash_only") for b in nash - mis] + [(b, "mis_only") for b in mis - nash]))


def verify_correspondence(
    graph: EmbeddedGraph, params: GameParams, limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> tuple[bool, tuple[tuple[str, str], ...]]:
    """Check that Nash supports and maximal independent sets coincide.

    Returns ``(ok, witnesses)``, the witnesses as in
    :func:`correspondence_witnesses`.
    """
    witnesses = correspondence_witnesses(
        (p.bitstring for p in enumerate_specialized_nash(graph, params, limit)),
        (s.bitstring for s in enumerate_mis(graph, limit)),
    )
    return (not witnesses, witnesses)
