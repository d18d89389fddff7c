"""Maximal and maximum independent sets, and the equilibrium cross-check."""

from __future__ import annotations

from typing import Iterable

from ._bits import check_size, from_bitstring, to_bitstring
from .errors import InvalidInput
from .geometry import EmbeddedGraph


def is_independent(graph: EmbeddedGraph, bits: str) -> bool:
    """True iff no edge has both endpoints in the support ``bits``."""
    from_bitstring(bits, graph.n)
    return not any(bits[i] == "1" and bits[j] == "1" for i, j in graph.edges)


def is_maximal(graph: EmbeddedGraph, bits: str) -> bool:
    """True iff every node outside the (independent) support ``bits`` has a
    neighbor in it."""
    if not is_independent(graph, bits):
        raise InvalidInput(f"{bits} contains an edge")
    return all(bits[v] == "1" or any(bits[u] == "1" for u in graph.neighbors[v]) for v in range(graph.n))


def enumerate_mis(graph: EmbeddedGraph) -> tuple[str, ...]:
    """Every maximal independent set, as bitstrings in canonical order.

    The maximal independent sets are the maximal cliques of the complement
    graph, found by Bron-Kerbosch (Bron & Kerbosch, CACM 16, 1973) with
    Tomita's pivot (Tomita, Tanaka & Takahashi, TCS 363, 2006) on int
    bitmasks, node ``v`` at bit ``n - 1 - v`` as in a support's index. A
    branch holds its members, the candidates that may still join and the
    excluded nodes that could join but were already tried. The pivot is the
    candidate or excluded node whose closed neighborhood holds the fewest
    candidates, and only those are branched on: a set grown from this branch
    without any of them would leave the pivot free to join, so it would not
    be maximal, or the pivot's branch has found it already. It
    works from ``graph.neighbors`` alone and shares no code with the Nash
    sweep, so the two families check each other. Its work follows the
    number of maximal sets, not 2**n, but it still raises TooLarge above
    ``_bits.EXHAUSTIVE_LIMIT`` nodes, as every exhaustive search does.
    """
    n = graph.n
    check_size(n)
    closed = [0] * n  # by bit position: each node's bit and its neighbors'
    for v, nbrs in enumerate(graph.neighbors):
        closed[n - 1 - v] = 1 << (n - 1 - v) | sum(1 << (n - 1 - u) for u in nbrs)
    found = []

    def expand(members: int, cand: int, excl: int) -> None:
        if not cand:
            if not excl:
                found.append(members)
            return
        rest, fewest = cand | excl, n + 1
        while rest:
            p = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            k = (cand & closed[p]).bit_count()
            if k < fewest:
                fewest, pivot = k, p
        branch = cand & closed[pivot]
        while branch:
            b = branch & -branch
            branch ^= b
            near = closed[b.bit_length() - 1]
            expand(members | b, cand & ~near, excl & ~near)
            cand ^= b
            excl |= b

    expand(0, (1 << n) - 1, 0)
    found.sort()
    return tuple(to_bitstring(z, n) for z in found)


def largest(sets: tuple[str, ...]) -> tuple[str, ...]:
    """The bitstrings with the most members, in their given order."""
    best = max(s.count("1") for s in sets)
    return tuple(s for s in sets if s.count("1") == best)


def maximum_independent_sets(graph: EmbeddedGraph) -> tuple[str, ...]:
    """The maximal independent sets of largest cardinality, as bitstrings."""
    return largest(enumerate_mis(graph))


def correspondence_witnesses(nash: Iterable[str], mis: Iterable[str]) -> tuple[tuple[str, str], ...]:
    """The symmetric difference of Nash supports and maximal independent
    sets (both as bitstrings), as sorted ``(bitstring, side)`` pairs with
    ``side`` naming the family the set appears in (``"nash_only"`` or
    ``"mis_only"``)."""
    nash, mis = set(nash), set(mis)
    return tuple(sorted([(b, "nash_only") for b in nash - mis] + [(b, "mis_only") for b in mis - nash]))
