"""Networked public-goods payoffs and specialized equilibrium search.

Agents sit on the nodes of an :class:`~rydnash.geometry.EmbeddedGraph` and
choose an effort level. An agent's benefit is a concave function of its own
effort plus its neighbors' total effort; its cost is linear in its own
effort. Specialized profiles restrict every agent to either zero effort or
the satiation level, the regime in which equilibrium supports coincide
with maximal independent sets of the graph.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._bits import check_size, from_bitstring
from .errors import InvalidInput, integer, real
from .geometry import EmbeddedGraph


@dataclass(frozen=True)
class GameParams:
    """Satiation effort, marginal cost, and the name of the benefit curve:
    ``satiating_linear``, the only one, is ``min(x, e_star)``.

    The cost bound ``0 < c < b(e_star)/e_star`` guarantees that a lone
    contribution is profitable while free-riding on a contributing neighbor
    is strictly better. The defaults make every payoff an exact dyadic
    rational, so exact tie comparison is well defined.
    """

    e_star: float = 1.0
    c: float = 0.5
    benefit: str = "satiating_linear"

    def __post_init__(self):
        if self.benefit != "satiating_linear":
            raise InvalidInput(f"unknown benefit function {reprlib.repr(self.benefit)}; known: ['satiating_linear']")
        object.__setattr__(self, "e_star", real("e_star", self.e_star, positive=True))
        object.__setattr__(self, "c", real("cost", self.c))
        cap = float(self.b(self.e_star)) / self.e_star
        if not (0 < self.c < cap):
            raise InvalidInput(
                f"cost must lie in (0, {cap}) so that lone contribution pays "
                f"and free-riding dominates; got {self.c!r}"
            )

    def b(self, x):
        """Benefit of consuming total effort ``x`` (scalar or array)."""
        return np.minimum(x, self.e_star)


def _check_agent(graph: EmbeddedGraph, agent: int) -> None:
    if integer("agent", agent, 0) >= graph.n:
        raise InvalidInput(f"agent {agent!r} out of range for a {graph.n}-node graph")


def _effort(params: GameParams, bits: str, agent: int) -> float:
    return params.e_star if bits[agent] == "1" else 0.0


def _neighbor_effort(graph: EmbeddedGraph, params: GameParams, bits: str, agent: int) -> float:
    # e* times the contributor count: identical arithmetic to the vectorized
    # enumeration path, so exact ties agree between the two.
    k = sum(1 for j in graph.neighbors[agent] if bits[j] == "1")
    return params.e_star * k


def payoff(graph: EmbeddedGraph, params: GameParams, bits: str, agent: int) -> float:
    """Benefit of own-plus-neighborhood effort minus the linear own cost, in
    the specialized profile whose support is the bitstring ``bits``."""
    _check_agent(graph, agent)
    from_bitstring(bits, graph.n)
    e_i = _effort(params, bits, agent)
    return float(params.b(e_i + _neighbor_effort(graph, params, bits, agent))) - params.c * e_i


def best_responses(graph: EmbeddedGraph, params: GameParams, bits: str, agent: int) -> frozenset[float]:
    """Effort levels in {0, e*} maximizing the agent's payoff, others fixed
    at the specialized profile with support ``bits``.

    Exact payoff ties put both levels in the set (weak inequality).
    """
    _check_agent(graph, agent)
    from_bitstring(bits, graph.n)
    others = _neighbor_effort(graph, params, bits, agent)
    u0 = float(params.b(others))
    u1 = float(params.b(params.e_star + others)) - params.c * params.e_star
    if u1 > u0:
        return frozenset({params.e_star})
    if u0 > u1:
        return frozenset({0.0})
    return frozenset({0.0, params.e_star})


def is_nash(graph: EmbeddedGraph, params: GameParams, bits: str) -> bool:
    """True when, in the specialized profile with support ``bits``, every
    agent's effort is one of its best responses."""
    from_bitstring(bits, graph.n)
    return all(
        _effort(params, bits, agent) in best_responses(graph, params, bits, agent) for agent in range(graph.n)
    )


def enumerate_specialized_nash(graph: EmbeddedGraph, params: GameParams) -> tuple[str, ...]:
    """The support of every specialized Nash profile, as bitstrings in
    canonical order.

    An agent's payoffs for abstaining and contributing depend only on its
    contributing-neighbor count, so both are tabulated once per count into a
    best-response table over (own effort, count), derived from the payoffs
    alone. :func:`_rule_supports` finds every support at which each agent's
    effort passes that table: it drops each half of the support
    that some agent there cannot pass whatever the other half holds, and
    checks only the surviving combinations, so it visits far fewer than 2**n
    supports when the table rules many out. It assumes nothing about which
    supports qualify, so ties that admit adjacent contributors are kept.
    ``indsets.enumerate_mis`` finds the maximal independent sets by a search
    that shares no code with this sweep, so the cross-check compares two
    algorithms. Like every 2**n sweep, it raises TooLarge above
    ``_bits.EXHAUSTIVE_LIMIT`` nodes.
    """
    e = params.e_star
    k = np.arange(graph.n + 1, dtype=np.float64)
    u0 = params.b(e * k)
    u1 = params.b(e * (k + 1.0)) - params.c * e
    # is_best[own, k]: with k contributing neighbors, effort own * e* is a best response
    is_best = np.stack([u0 >= u1, u1 >= u0])
    return _rule_supports(graph.neighbors, is_best)


def _rule_supports(neighbors: Sequence[Sequence[int]], rule: np.ndarray) -> tuple[str, ...]:
    """Every support on ``n = len(neighbors)`` nodes at which each node passes
    the local rule, as bitstrings in canonical order.

    Node ``v`` passes when ``rule[own_v, k_v]`` holds, with ``own_v`` 1 for a
    member and ``k_v`` its neighbors inside the support; ``rule`` is a
    ``(2, n + 1)`` boolean table.

    Meet in the middle: every index splits into high and low bits,
    ``z = hi * 2**low + lo`` with ``low = n // 2``, and so does each count.
    Each half has one table of every node's own bit and neighbor count on
    every assignment of that half (``n * 2**ceil(n/2)`` one-byte entries),
    built by doubling: the entries for ``z + 2**b`` are those for ``z`` plus
    bit ``b``'s own and neighbor bits, one in-place uint8 add per bit of the
    half. A node's entries in the two halves add up to its index into the
    flattened rule, so one read-only table, ``window[a, c]``, the flattened
    rule at ``a + c``, serves both steps. A half assignment is dropped when
    one of its own nodes can reach no passing count: no ``k`` from its count
    in this half to that plus its degree into the other half has
    ``rule[own, k]``, one lookup per node and assignment in the running
    ``or`` along ``window``'s rows. The rule is then evaluated only on the
    grid of surviving high x low assignments, one node at a time: with
    nothing dropped, the grid is all ``2**n`` indices and holds two bytes
    per index. TooLarge above ``_bits.EXHAUSTIVE_LIMIT`` nodes.
    """
    n = len(neighbors)
    check_size(n)
    low = n // 2
    stride = n + 1  # a row of rule: the counts 0 .. n
    # keys[half][v] = own * stride + count for node v on every assignment of
    # that half: own is v's bit (0 outside the node's own half) and count its
    # neighbors there (uint8: below 2 * stride). Bit b of the half is node
    # u's, so setting it adds step[u]: stride at u and one at each neighbor.
    step = np.zeros((n, n), dtype=np.uint8)
    step.flat[[u * n + v for u, nbrs in enumerate(neighbors) for v in nbrs]] = 1
    np.fill_diagonal(step, stride)
    keys = []
    for shift, bits in ((low, n - low), (0, low)):
        table = np.zeros((n, 1 << bits), dtype=np.uint8)
        for b in range(bits):
            np.add(table[:, : 1 << b], step[n - 1 - shift - b, :, None], out=table[:, 1 << b : 2 << b])
        keys.append(table)
    flat = np.zeros((4, stride), dtype=bool)  # rule, then false past its end
    flat[:2] = rule
    window = sliding_window_view(flat.ravel(), 2 * stride)[: 2 * stride]  # window[a, c] = flat[a + c]
    # reach[a, d]: rule holds at some flat index a .. a + d
    reach = np.logical_or.accumulate(window, axis=1)
    alive = []
    for half, (first, last) in enumerate(((0, n - low), (n - low, n))):
        ok = np.ones(keys[half].shape[1], dtype=bool)
        for v in range(first, last):
            ok &= reach[:, keys[1 - half][v, -1]].take(keys[half][v])  # v's degree into the other half
        alive.append(np.flatnonzero(ok))
    hi, lo = alive
    if not (hi.size and lo.size):
        return ()
    hi_key, lo_key = keys[0][:, hi], keys[1][:, lo]
    keep = np.ones((hi.size, lo.size), dtype=bool)
    verdict = np.empty_like(keep)
    for v in range(n):  # mode="clip": take buffers out= in its default mode
        keep &= window.take(lo_key[v], axis=1).take(hi_key[v], axis=0, out=verdict, mode="clip")
    # not // and %, << or |: their integer loops add 64-128 KiB of numpy
    # code to the resident set of a process that uses them nowhere else
    h, l = np.unravel_index(np.flatnonzero(keep), keep.shape)
    spec = f"0{n}b"
    return tuple(format(z, spec) for z in (hi[h] * (1 << low) + lo[l]).tolist())
