"""The whole pipeline through the Python API: classical enumeration, a
simulated anneal, and the cross-check report, written to ./demo_out.

Equivalent to:

    rydnash all --graph configs/graph_a.yaml --seed 7 --out demo_out

With no coupling given, C6 is the final detuning times the graph's radius
to the sixth: 7.27 * 8**6 = 1.906e6 rad/us um^6 for graph A.
"""

import os

from rydnash import RunConfig, compare, run_classical, run_quantum
from rydnash.cli import HISTOGRAM_CSV
from rydnash.fileio import load_graph, to_mapping, write_histogram_csv, write_report

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(os.getcwd(), "demo_out")

config = RunConfig(
    graph=load_graph(os.path.join(HERE, os.pardir, "configs", "graph_a.yaml")),
    shots=1000,
    seed=7,
)

classical = run_classical(config)
print(f"classical: {len(classical.nash)} equilibria, "
      f"{len(classical.maximum_sets)} maximum set(s), match={classical.nash_equals_mis}")

quantum = run_quantum(config)
print(f"anneal at C6 {quantum.c6:.4g}: modal readout {quantum.top_k[0]}, "
      f"optimum weight {quantum.mis_aggregate_probability:.3f}")

report = compare(classical, quantum)
verdicts = report.verdicts
print(f"verdicts: nash==mis {verdicts.nash_equals_mis}, "
      f"optima in top-{len(quantum.maximum_sets)} {verdicts.mis_in_topk}, "
      f"overall {'PASS' if verdicts.overall_pass else 'FAIL'}")

write_report(os.path.join(OUT, "classical_report.yaml"), to_mapping(classical))
write_report(os.path.join(OUT, "anneal_report.yaml"), to_mapping(quantum))
write_report(os.path.join(OUT, "compare_report.yaml"), to_mapping(report))
write_histogram_csv(os.path.join(OUT, HISTOGRAM_CSV), quantum.rows)
print(f"reports in {OUT}")
