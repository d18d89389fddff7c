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

import numpy as np

from ._bits import from_bitstring, rule_supports
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
    alone. :func:`~rydnash._bits.rule_supports` finds every support at which
    each agent's effort passes that table: it drops each half of the support
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
    return rule_supports(graph.neighbors, is_best)
