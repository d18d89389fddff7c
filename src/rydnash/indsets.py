"""Maximal and maximum independent sets, and the equilibrium cross-check."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ._bits import index_of, node_mask, popcount_map, to_bitstring
from .errors import InvalidSet, NotIndependent, TooLarge
from .game import DEFAULT_EXHAUSTIVE_LIMIT, GameParams, enumerate_specialized_nash
from .geometry import EmbeddedGraph


def _members(graph: EmbeddedGraph, s: Iterable[int]) -> frozenset[int]:
    """The node indices in ``s``. InvalidSet for an index outside the graph,
    and for a string, whose characters would be misread as indices."""
    if isinstance(s, str):
        raise InvalidSet(f"expected node indices, got the string {s!r}")
    members = frozenset(int(i) for i in s)
    if any(not (0 <= i < graph.n) for i in members):
        raise InvalidSet(f"members {sorted(members)} out of range for n={graph.n}")
    return members


def is_independent(graph: EmbeddedGraph, s: Iterable[int]) -> bool:
    """True iff no edge has both endpoints in the set of node indices."""
    members = _members(graph, s)
    return not any(i in members and j in members for i, j in graph.edges)


def is_maximal(graph: EmbeddedGraph, s: Iterable[int]) -> bool:
    """True iff every node outside the (independent) set of node indices
    has a neighbor in it."""
    members = _members(graph, s)
    if not is_independent(graph, members):
        raise NotIndependent(f"{sorted(members)} contains an edge")
    return all(v in members or graph.neighbors[v] & members for v in range(graph.n))


def enumerate_mis(graph: EmbeddedGraph, limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> tuple[str, ...]:
    """Every maximal independent set, as bitstrings in canonical order.

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
    return tuple(to_bitstring(int(i), n) for i in np.flatnonzero(ok))


def largest(sets: tuple[str, ...]) -> tuple[str, ...]:
    """The bitstrings with the most members, in their given order."""
    best = max(s.count("1") for s in sets)
    return tuple(s for s in sets if s.count("1") == best)


def maximum_independent_sets(
    graph: EmbeddedGraph, limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> tuple[str, ...]:
    """The maximal independent sets of largest cardinality, as bitstrings."""
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
        enumerate_specialized_nash(graph, params, limit), enumerate_mis(graph, limit)
    )
    return (not witnesses, witnesses)
