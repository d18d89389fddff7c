"""Annealing the hexagon-strip layout, whose optimum is unique.

The detuning sweeps from -7.27 to +7.27 rad/us over 4 us while the drive
holds at 7.27 rad/us, so the register starts in the trivial all-ground
configuration and ends (adiabatically) in the drive-off ground state. With
the coupling pinned at 2.2e6 rad/us um^6 the blockade radius sits between
the edge and non-edge distances, and that ground state is the unique
maximum independent set {0, 3, 4}.
"""

import math

from rydnash import (
    RydbergSystem,
    build_unit_disk_graph,
    default_schedule,
    drive_off_window,
    evolve,
    maximum_independent_sets,
    sample,
)

ROOT3 = math.sqrt(3.0)
graph = build_unit_disk_graph(
    [(0, 0), (6, 0), (12, 0), (18, 0), (9, 3 * ROOT3), (15, 3 * ROOT3)], radius=8.0
)
system = RydbergSystem(graph, c6=2.2e6)
schedule = default_schedule()  # 4 us ramp, peaks at 7.27 rad/us

optima = maximum_independent_sets(graph)
lo, hi = drive_off_window(system, 7.27, optima)
print("maximum independent set(s):", optima)
print(f"drive-off window ({lo:.4g}, {hi:.4g}) rad/us um^6, where they are the ground state(s); "
      f"C6 {system.c6:.4g} inside: {lo < system.c6 < hi}")

state = evolve(system, schedule)
print(f"final norm deviation: {abs(state.norm() - 1.0):.2e}")

counts = sample(state, shots=1000, seed=7)
ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
print("\ntop readouts of 1000 shots:")
print("bitstring  count  P(amplitude)  energy at final detuning")
for bits, count in ranked[:6]:
    print(f"  {bits}   {count:5d}   {state.probability_of(bits):12.4f}  "
          f"{system.diagonal(7.27)[int(bits, 2)]:8.3f}")

modal, modal_count = ranked[0]
print(f"\nmodal readout {modal} carries {modal_count / 10:.1f}% of shots; "
      f"excited atoms {[i for i, ch in enumerate(modal) if ch == '1']} form the optimum")
