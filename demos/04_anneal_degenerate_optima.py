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
    drive_off_window,
    evolve,
    maximum_independent_sets,
    sample,
)

graph = build_unit_disk_graph(
    [(0, 0), (6, 0), (12, 0), (18, 0), (6, -6), (12, -6)], radius=7.0
)
system = RydbergSystem(graph, c6=6.0e5)

optima = maximum_independent_sets(graph)
print("maximum independent sets:", optima)
lo, hi = drive_off_window(system, 7.27, optima)
print(f"drive-off window ({lo:.4g}, {hi:.4g}) rad/us um^6, where they are the four lowest states; "
      f"C6 {system.c6:.4g} inside: {lo < system.c6 < hi}")

state = evolve(system, default_schedule())
counts = sample(state, shots=1000, seed=7)
ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))

print("\ntop readouts of 1000 shots:")
for bits, count in ranked[:6]:
    marker = "optimum" if bits in optima else ""
    print(f"  {bits}   {count:5d}   {marker}")

aggregate = sum(state.probability_of(b) for b in optima)
print(f"\naggregate amplitude weight on the four optima: {aggregate:.3f}")
top4 = {bits for bits, _ in ranked[:4]}
print(f"four optima occupy the top four count ranks: {top4 == set(optima)}")
