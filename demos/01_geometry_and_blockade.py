"""Unit-disk layouts and the blockade radius.

Two six-atom layouts, both with 6 um nearest-neighbor spacing:

* a hexagon-flavored strip ("graph A"): a four-atom chain with two atoms
  perched above it, disk radius 8 um;
* a house-shaped strip ("graph B"): the same chain with two atoms hanging
  below, disk radius 7 um.

The script builds both, shows the derived adjacency, and checks them
against the hardware spacing floor. It then prints each layout's drive-off
C6 window: the couplings at which the maximum independent sets are exactly
the lowest energies once the drive is off at the ramp's final detuning. The
C6 a run derives when none is given, final detuning times radius**6, lies
inside both windows.
"""

import math

from rydnash import (
    RydbergSystem,
    blockade_radius,
    build_unit_disk_graph,
    default_schedule,
    drive_off_window,
    maximum_independent_sets,
    validate_embedding,
)

ROOT3 = math.sqrt(3.0)

graph_a = build_unit_disk_graph(
    [(0, 0), (6, 0), (12, 0), (18, 0), (9, 3 * ROOT3), (15, 3 * ROOT3)], radius=8.0
)
graph_b = build_unit_disk_graph(
    [(0, 0), (6, 0), (12, 0), (18, 0), (6, -6), (12, -6)], radius=7.0
)

COUPLINGS = (6.0e5, 2.2e6, 5.42e6)  # rad/us um^6
schedule = default_schedule()
final_delta = schedule.final_detuning

for name, g in (("A", graph_a), ("B", graph_b)):
    print(f"graph {name}: {g.n} atoms, radius {g.radius} um")
    print(f"  edges: {g.edges}")
    print(f"  spacing floor ok: {validate_embedding(g) == ()}")
    # the window does not depend on the system's own C6, which only sets
    # the scale the pair energies are divided back out of
    lo, hi = drive_off_window(RydbergSystem(g, COUPLINGS[0]), final_delta, maximum_independent_sets(g))
    print(f"  drive-off C6 window at delta = {final_delta}: ({lo:.4g}, {hi:.4g})")
    for c6 in COUPLINGS:
        print(f"    c6 = {c6:9.3g}: {'inside' if lo < c6 < hi else 'outside'}")
    # a run given no C6 takes the one whose drive-off blockade radius is R
    derived = final_delta * g.radius**6
    print(f"    derived c6 = delta * R^6 = {derived:.4g}: {'inside' if lo < derived < hi else 'outside'}")

# The blockade radius is where the pair interaction equals the drive scale.
# At the coupling used for graph A below, it lands between the 6 um edges
# and the 10.39 um closest non-edge, which is exactly what the unit-disk
# rule needs.
for c6 in COUPLINGS:
    rb = blockade_radius(c6, omega=7.27, delta=7.27)
    print(f"c6 = {c6:9.3g} rad/us um^6  ->  blockade radius {rb:.2f} um")
