"""Networked public-goods payoffs and specialized equilibrium search.

Agents sit on the nodes of an :class:`~rydnash.geometry.EmbeddedGraph` and
choose an effort level. An agent's benefit is a concave function of its own
effort plus its neighbors' total effort; its cost is linear in its own
effort. Specialized profiles restrict every agent to either zero effort or
the satiation level, the regime in which equilibrium supports coincide
with maximal independent sets of the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._bits import from_bitstring, rule_supports
from .errors import InvalidAgent, InvalidInput, TooLarge
from .geometry import EmbeddedGraph

DEFAULT_EXHAUSTIVE_LIMIT = 24


def _satiating_linear(x, e_star):
    return np.minimum(x, e_star)


# Concave benefit curves, keyed by the name used in game parameter files.
# Each callable must accept scalars or numpy arrays elementwise.
BENEFITS: dict[str, Callable] = {
    "satiating_linear": _satiating_linear,
}


@dataclass(frozen=True)
class GameParams:
    """Satiation effort, marginal cost, and benefit curve selector.

    The cost bound ``0 < c < b(e_star)/e_star`` guarantees that a lone
    contribution is profitable while free-riding on a contributing neighbor
    is strictly better. The defaults make every payoff an exact dyadic
    rational, so exact tie comparison is well defined.
    """

    e_star: float = 1.0
    c: float = 0.5
    benefit: str = "satiating_linear"

    def __post_init__(self):
        if self.benefit not in BENEFITS:
            raise InvalidInput(f"unknown benefit function {self.benefit!r}; known: {sorted(BENEFITS)}")
        if not (math.isfinite(self.e_star) and self.e_star > 0):
            raise InvalidInput(f"e_star must be positive and finite, got {self.e_star!r}")
        cap = float(self.b(self.e_star)) / self.e_star
        if not (0 < self.c < cap):
            raise InvalidInput(
                f"cost must lie in (0, {cap}) so that lone contribution pays "
                f"and free-riding dominates; got {self.c!r}"
            )

    def b(self, x):
        """Benefit of consuming total effort ``x`` (scalar or array)."""
        return BENEFITS[self.benefit](x, self.e_star)


def _check_agent(graph: EmbeddedGraph, agent: int) -> None:
    if not isinstance(agent, (int, np.integer)) or not (0 <= agent < graph.n):
        raise InvalidAgent(f"agent {agent!r} out of range for a {graph.n}-node graph")


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


def enumerate_specialized_nash(
    graph: EmbeddedGraph, params: GameParams, limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> tuple[str, ...]:
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
    """
    n = graph.n
    if n > limit:
        raise TooLarge(n, limit)
    e = params.e_star
    k = np.arange(n + 1, dtype=np.float64)
    u0 = params.b(e * k)
    u1 = params.b(e * (k + 1.0)) - params.c * e
    # is_best[own, k]: with k contributing neighbors, effort own * e* is a best response
    is_best = np.stack([u0 >= u1, u1 >= u0])
    return rule_supports(graph.neighbors, is_best)
