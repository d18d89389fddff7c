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

from ._bits import from_bitstring, index_of, node_mask, popcount_map, to_bitstring
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


@dataclass(frozen=True)
class StrategyProfile:
    """Effort vector in which every entry is 0 or one shared positive level:
    the input type of :func:`payoff`, :func:`best_responses` and :func:`is_nash`."""

    efforts: tuple[float, ...]

    def __post_init__(self):
        efforts = tuple(float(e) for e in self.efforts)
        object.__setattr__(self, "efforts", efforts)
        if any(not math.isfinite(e) or e < 0 for e in efforts):
            raise InvalidInput("efforts must be finite and nonnegative")
        levels = {e for e in efforts if e != 0.0}
        if len(levels) > 1:
            raise InvalidInput(f"specialized profile may use one nonzero level, got {sorted(levels)}")

    @classmethod
    def from_support(cls, support, n: int, e_star: float) -> "StrategyProfile":
        members = frozenset(support)
        if any(not (0 <= int(i) < n) for i in members):
            raise InvalidInput(f"support {sorted(members)} out of range for n={n}")
        return cls(tuple(e_star if i in members else 0.0 for i in range(n)))

    @classmethod
    def from_bitstring(cls, bits: str, e_star: float) -> "StrategyProfile":
        n = len(bits)
        z = from_bitstring(bits, n)
        return cls(tuple(e_star if z & node_mask(i, n) else 0.0 for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.efforts)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.efforts) if e > 0)

    @property
    def bitstring(self) -> str:
        return "".join("1" if e > 0 else "0" for e in self.efforts)


def _check_profile(graph: EmbeddedGraph, params: GameParams, profile: StrategyProfile) -> None:
    if profile.n != graph.n:
        raise InvalidInput(f"profile has {profile.n} entries for a {graph.n}-node graph")
    for e in profile.efforts:
        if e != 0.0 and e != params.e_star:
            raise InvalidInput(f"profile effort {e} is neither 0 nor e*={params.e_star}")


def _check_agent(graph: EmbeddedGraph, agent: int) -> None:
    if not isinstance(agent, (int, np.integer)) or not (0 <= agent < graph.n):
        raise InvalidAgent(f"agent {agent!r} out of range for a {graph.n}-node graph")


def _neighbor_effort(graph: EmbeddedGraph, params: GameParams, profile: StrategyProfile, agent: int) -> float:
    # e* times the contributor count: identical arithmetic to the vectorized
    # enumeration path, so exact ties agree between the two.
    k = sum(1 for j in graph.neighbors[agent] if profile.efforts[j] > 0)
    return params.e_star * k


def payoff(graph: EmbeddedGraph, params: GameParams, profile: StrategyProfile, agent: int) -> float:
    """Benefit of own-plus-neighborhood effort minus the linear own cost."""
    _check_agent(graph, agent)
    _check_profile(graph, params, profile)
    e_i = profile.efforts[agent]
    return float(params.b(e_i + _neighbor_effort(graph, params, profile, agent))) - params.c * e_i


def best_responses(
    graph: EmbeddedGraph, params: GameParams, profile: StrategyProfile, agent: int
) -> frozenset[float]:
    """Effort levels in {0, e*} maximizing the agent's payoff, others fixed.

    Exact payoff ties put both levels in the set (weak inequality).
    """
    _check_agent(graph, agent)
    _check_profile(graph, params, profile)
    others = _neighbor_effort(graph, params, profile, agent)
    u0 = float(params.b(others))
    u1 = float(params.b(params.e_star + others)) - params.c * params.e_star
    if u1 > u0:
        return frozenset({params.e_star})
    if u0 > u1:
        return frozenset({0.0})
    return frozenset({0.0, params.e_star})


def is_nash(graph: EmbeddedGraph, params: GameParams, profile: StrategyProfile) -> bool:
    """True when every agent's current effort is one of its best responses."""
    _check_profile(graph, params, profile)
    return all(
        profile.efforts[agent] in best_responses(graph, params, profile, agent)
        for agent in range(graph.n)
    )


def enumerate_specialized_nash(
    graph: EmbeddedGraph, params: GameParams, limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> tuple[str, ...]:
    """The support of every specialized Nash profile, found by sweeping all
    2**n supports.

    An agent's payoffs for abstaining and contributing depend only on its
    contributing-neighbor count, so both are tabulated once per count, and
    each agent's best-response check over all supports is a lookup by its
    own effort and that count. Supports come back as bitstrings in
    canonical order.
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
    keep = np.ones(1 << n, dtype=bool)
    verdict = np.empty_like(keep)
    for agent in range(n):
        masks = (index_of(graph.neighbors[agent], n), node_mask(agent, n))
        keep &= popcount_map(lambda nbrs, own: is_best[own, nbrs], masks, n, out=verdict)
    return tuple(to_bitstring(int(i), n) for i in np.flatnonzero(keep))
