"""Maximal and maximum independent sets, and the equilibrium cross-check."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ._bits import from_bitstring, rule_supports
from .errors import NotIndependent, TooLarge
from .game import DEFAULT_EXHAUSTIVE_LIMIT, GameParams, enumerate_specialized_nash
from .geometry import EmbeddedGraph


def is_independent(graph: EmbeddedGraph, bits: str) -> bool:
    """True iff no edge has both endpoints in the support ``bits``."""
    from_bitstring(bits, graph.n)
    return not any(bits[i] == "1" and bits[j] == "1" for i, j in graph.edges)


def is_maximal(graph: EmbeddedGraph, bits: str) -> bool:
    """True iff every node outside the (independent) support ``bits`` has a
    neighbor in it."""
    if not is_independent(graph, bits):
        raise NotIndependent(f"{bits} contains an edge")
    return all(bits[v] == "1" or any(bits[u] == "1" for u in graph.neighbors[v]) for v in range(graph.n))


def enumerate_mis(graph: EmbeddedGraph, limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> tuple[str, ...]:
    """Every maximal independent set, as bitstrings in canonical order.

    A member with a neighbor inside the subset breaks independence and a
    non-member without one breaks maximality, so a subset qualifies when,
    at every node, membership and having a neighbor inside differ. That
    local rule goes to :func:`~rydnash._bits.rule_supports`, which drops each
    half of the subset that already breaks it at one of its own nodes (two
    adjacent members, or a non-member with no neighbor in the subset and
    none in the other half) and checks only the surviving combinations.
    """
    n = graph.n
    if n > limit:
        raise TooLarge(n, limit)
    k = np.arange(n + 1)
    return rule_supports(graph.neighbors, np.stack([k > 0, k == 0]))


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
