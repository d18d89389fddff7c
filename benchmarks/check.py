"""Output checks for one benchmark case, independent of the program's code.

The classical side is checked against maximal independent sets found by
Bron-Kerbosch with pivoting on the complement graph. The anneal side is
checked against the same families, a direct drive-off energy sum, and a
final state integrated here with scipy's DOP853 instead of the program's
split-operator stepper.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np
import yaml

REPORT_FILES = ("classical_report.yaml", "anneal_report.yaml", "compare_report.yaml", "histogram.csv")

# evolve() stops once halving the step moves the final state by less than
# 1e-6 in 2-norm. A probability summed over any set of basis states moves by
# at most twice the state's 2-norm change, so 2e-6 bounds the program's error.
EVOLVE_TOLERANCE = 1e-6
AGGREGATE_TOLERANCE = 2 * EVOLVE_TOLERANCE
ENERGY_RTOL = 1e-9


def file_hashes(out: str) -> dict[str, str]:
    """sha256 of every report and CSV file the case wrote."""
    hashes = {}
    for name in REPORT_FILES:
        path = os.path.join(out, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def adjacency(positions, radius: float) -> list[set[int]]:
    n = len(positions)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if math.dist(positions[i], positions[j]) <= radius:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def _bits(members, n: int) -> str:
    return "".join("1" if i in members else "0" for i in range(n))


def maximal_independent_sets(adj: list[set[int]]) -> list[str]:
    """Maximal cliques of the complement graph, as sorted bitstrings."""
    n = len(adj)
    comp = [set(range(n)) - adj[v] - {v} for v in range(n)]
    found = []

    def expand(r, p, x):
        if not p and not x:
            found.append(_bits(r, n))
            return
        pivot = max(p | x, key=lambda u: len(p & comp[u]))
        for v in list(p - comp[pivot]):
            expand(r | {v}, p & comp[v], x & comp[v])
            p.remove(v)
            x.add(v)

    expand(set(), set(range(n)), set())
    return sorted(found)


class Families:
    """Maximal and maximum independent sets of one layout."""

    def __init__(self, positions, radius: float):
        self.adj = adjacency(positions, radius)
        self.maximal = maximal_independent_sets(self.adj)
        best = max(b.count("1") for b in self.maximal)
        self.maximum = [b for b in self.maximal if b.count("1") == best]

    def independent(self, bits: str) -> bool:
        members = [i for i, ch in enumerate(bits) if ch == "1"]
        return not any(j in self.adj[i] for i in members for j in members)


def reference_state(positions, c6: float, ramp: dict) -> np.ndarray:
    """Final amplitudes of the anneal from the all-ground state, integrated
    segment by segment between breakpoints with tight DOP853 tolerances."""
    from scipy.integrate import solve_ivp

    n = len(positions)
    z = np.arange(1 << n)
    occ = [((z >> (n - 1 - i)) & 1).astype(float) for i in range(n)]
    count = sum(occ)
    pair = np.zeros(1 << n)
    for i in range(n):
        for j in range(i + 1, n):
            pair += c6 / math.dist(positions[i], positions[j]) ** 6 * occ[i] * occ[j]
    flips = [z ^ (1 << (n - 1 - i)) for i in range(n)]

    def waveform(points, t):
        return float(np.interp(t, [p[0] for p in points], [p[1] for p in points]))

    times = sorted({t for t, _ in ramp["omega"]} | {t for t, _ in ramp["delta"]})
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    for t0, t1 in zip(times, times[1:]):
        w0, w1 = waveform(ramp["omega"], t0), waveform(ramp["omega"], t1)
        d0, d1 = waveform(ramp["delta"], t0), waveform(ramp["delta"], t1)

        def rhs(t, y, t0=t0, t1=t1, w0=w0, w1=w1, d0=d0, d1=d1):
            s = (t - t0) / (t1 - t0)
            omega, delta = w0 + s * (w1 - w0), d0 + s * (d1 - d0)
            drive = sum(y[f] for f in flips)
            return -1j * ((pair - delta * count) * y + 0.5 * omega * drive)

        psi = solve_ivp(rhs, (t0, t1), psi, method="DOP853", rtol=1e-12, atol=1e-13).y[:, -1]
    return psi


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def check_classical(report: dict, fam: Families, n: int) -> list[str]:
    problems = []
    if report.get("n") != n:
        problems.append(f"n is {report.get('n')}, expected {n}")
    if report.get("maximal_independent_sets") != fam.maximal:
        problems.append("maximal_independent_sets differ from Bron-Kerbosch")
    if report.get("maximum_independent_sets") != fam.maximum:
        problems.append("maximum_independent_sets differ from Bron-Kerbosch")
    if report.get("nash_supports") != fam.maximal:
        problems.append("nash_supports differ from the maximal independent sets")
    if report.get("nash_equals_mis") is not True or report.get("witnesses") != []:
        problems.append("nash_equals_mis is not true")
    return problems


def _energy(bits: str, positions, c6: float, delta: float) -> float:
    members = [i for i, ch in enumerate(bits) if ch == "1"]
    e = -delta * len(members)
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            e += c6 / math.dist(positions[members[a]], positions[members[b]]) ** 6
    return e


def check_quantum(out: str, case, fam: Families, aggregate_ref: float) -> list[str]:
    q = case.quantum
    anneal = _load(os.path.join(out, "anneal_report.yaml"))
    verdicts = _load(os.path.join(out, "compare_report.yaml"))["verdicts"]
    problems = []
    if not (verdicts["overall_pass"] and verdicts["nash_equals_mis"] and verdicts["mis_in_topk"]):
        problems.append(f"verdict failed: {verdicts}")
    if sum(anneal["counts"].values()) != q.shots:
        problems.append(f"counts sum to {sum(anneal['counts'].values())}, not {q.shots}")
    if anneal["maximum_independent_sets"] != fam.maximum:
        problems.append("anneal maximum_independent_sets differ from Bron-Kerbosch")
    if not set(fam.maximum) <= set(anneal["top_k"]):
        problems.append("a maximum independent set is missing from top_k")
    delta_final = q.ramp["delta"][-1][1]
    maximal = set(fam.maximal)
    rows = anneal["classification"]
    for row in rows:
        bits = row["bitstring"]
        want = (fam.independent(bits), bits in maximal, bits in fam.maximum)
        if (row["independent"], row["maximal"], row["mis"]) != want:
            problems.append(f"row {bits}: flags differ from the independent families")
        if row["count"] != anneal["counts"].get(bits):
            problems.append(f"row {bits}: count differs from the histogram")
        energy = _energy(bits, case.positions, q.c6, delta_final)
        if abs(row["energy"] - energy) > ENERGY_RTOL * max(1.0, abs(energy)):
            problems.append(f"row {bits}: energy {row['energy']} != {energy}")
    if len(rows) != len(anneal["counts"]):
        problems.append(f"{len(rows)} classification rows for {len(anneal['counts'])} observed readouts")
    with open(os.path.join(out, "histogram.csv"), "r", encoding="utf-8", newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    if [r["bitstring"] for r in csv_rows] != [r["bitstring"] for r in rows]:
        problems.append("histogram.csv rows differ from the report's classification")
    aggregate = anneal["mis_aggregate_probability"]
    if abs(aggregate - aggregate_ref) > AGGREGATE_TOLERANCE:
        problems.append(f"mis_aggregate_probability {aggregate} vs reference {aggregate_ref}")
    return problems


def check_case(case, fam: Families, aggregate_ref: float | None) -> list[str]:
    """Every problem found in one case's written outputs (empty when correct)."""
    needed = REPORT_FILES if case.quantum is not None else REPORT_FILES[:1]
    missing = [name for name in needed if not os.path.exists(os.path.join(case.out, name))]
    if missing:
        return [f"missing outputs: {missing}"]
    problems = check_classical(_load(os.path.join(case.out, "classical_report.yaml")), fam, len(case.positions))
    if case.quantum is not None:
        problems += check_quantum(case.out, case, fam, aggregate_ref)
    return problems
