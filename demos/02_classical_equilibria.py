"""Public-goods equilibria by exhaustive search, and why they are exactly
the maximal independent sets.

Each agent either contributes the satiation effort (cost 0.5) or free-rides.
Contributing alone pays (payoff 0.5 vs 0); free-riding on any contributing
neighbor pays better (1.0 vs 0.5). So in equilibrium contributors form an
independent set, and every free-rider must see a contributor: a maximal
independent set.
"""

import math

from rydnash import (
    GameParams,
    best_responses,
    build_unit_disk_graph,
    correspondence_witnesses,
    enumerate_mis,
    enumerate_specialized_nash,
    is_nash,
    payoff,
)

ROOT3 = math.sqrt(3.0)
graph_a = build_unit_disk_graph(
    [(0, 0), (6, 0), (12, 0), (18, 0), (9, 3 * ROOT3), (15, 3 * ROOT3)], radius=8.0
)
params = GameParams()  # e* = 1, cost 0.5, satiating-linear benefit

# one agent's incentives; a profile is its support bitstring, node 0 leftmost
print("no contributors anywhere:")
print(f"  agent 0 payoff if it contributes: {payoff(graph_a, params, '100000', 0)}")
print(f"  agent 0 best responses: {sorted(best_responses(graph_a, params, '000000', 0))}")

print("neighbor 1 contributes:")
print(f"  agent 0 best responses: {sorted(best_responses(graph_a, params, '010000', 0))}")

# full enumeration: all 2^6 contributor subsets
equilibria = enumerate_specialized_nash(graph_a, params)
print(f"\ngraph A has {len(equilibria)} specialized equilibria:")
for bits in equilibria:
    contributors = [i for i, ch in enumerate(bits) if ch == "1"]
    print(f"  contributors {contributors}  (bitstring {bits}, "
          f"nash={is_nash(graph_a, params, bits)})")

mis = enumerate_mis(graph_a)
print(f"\nmaximal independent sets: {list(mis)}")

witnesses = correspondence_witnesses(equilibria, mis)
print(f"equilibrium supports == maximal independent sets: {not witnesses}")
