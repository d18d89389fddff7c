"""Annealing the house-strip layout, whose optimum is four-fold degenerate.

All four maximum independent sets have size 3, so the drive-off spectrum
ends in a near-degenerate four-state manifold (beyond-radius 1/r^6 tails
split it into two exact pairs ~1.7 rad/us apart at this coupling). The
anneal spreads its weight across the manifold: the four optima take the
four largest readout counts.
"""

from rydnash import (
    RydbergSystem,
    build_unit_disk_graph,
    default_schedule,
    evolve,
    exact_ground_states,
    maximum_independent_sets,
    sample,
)

graph = build_unit_disk_graph(
    [(0, 0), (6, 0), (12, 0), (18, 0), (6, -6), (12, -6)], radius=7.0
)
system = RydbergSystem(graph, c6=6.0e5)

optima = maximum_independent_sets(graph)
print("maximum independent sets:", optima)
print("ground manifold (tie tolerance 3 rad/us):",
      exact_ground_states(system, delta=7.27, tol=3.0))
print("strict ground pair (tolerance 1e-9):",
      exact_ground_states(system, delta=7.27))

state = evolve(system, default_schedule())
histogram = sample(state, shots=1000, seed=7)

print("\ntop readouts of 1000 shots:")
for bits, count in histogram.ranked()[:6]:
    marker = "optimum" if bits in optima else ""
    print(f"  {bits}   {count:5d}   {marker}")

aggregate = sum(state.probability_of(b) for b in optima)
print(f"\naggregate amplitude weight on the four optima: {aggregate:.3f}")
print(f"four optima occupy the top four count ranks: {set(histogram.top(4)) == set(optima)}")
