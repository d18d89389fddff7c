"""End-to-end orchestration: load configs, run the classical and annealing
analyses on the same graph, and compare the two.

Every result type round-trips through a plain-dict report form so runs can
be persisted, reloaded, and compared across processes. Reports contain no
timestamps or absolute paths: identical configuration and seed produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from functools import cached_property

from ._bits import from_bitstring
from .dynamics import (
    DEFAULT_C6,
    RydbergSystem,
    ShotHistogram,
    evolve,
    sample,
)
from .errors import ConstraintViolation, IncompatibleRuns, InvalidInput
from .fileio import load_graph
from .game import DEFAULT_EXHAUSTIVE_LIMIT, GameParams, enumerate_specialized_nash
from .geometry import (
    EmbeddedGraph,
    HardwareConstraints,
    ValidationReport,
    ambiguity_warnings,
    validate_embedding,
)
from .indsets import correspondence_witnesses, enumerate_mis, is_independent, largest
from .schedule import Schedule, default_schedule, validate_schedule

#: Documented default sampling seed; reports quote it so reruns reproduce.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run needs, with conservative defaults.

    Both analyses of one config share its graph and maximal independent
    sets: each is loaded or enumerated once, on first use.
    """

    graph_path: str
    game: GameParams = GameParams()
    schedule: Schedule | None = None  # None selects the default ramp
    c6: float = DEFAULT_C6
    shots: int = 1000
    seed: int = DEFAULT_SEED
    outdir: str = "rydnash_out"
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT
    margin: float = 0.15
    plot_data: bool = False
    hw: HardwareConstraints = field(default_factory=HardwareConstraints)

    def __post_init__(self):
        if self.shots < 1:
            raise InvalidInput(f"shots must be >= 1, got {self.shots!r}")
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed!r}")
        if not (self.c6 > 0 and math.isfinite(self.c6)):
            raise InvalidInput(f"c6 must be positive and finite, got {self.c6!r}")
        if self.schedule is None:
            object.__setattr__(self, "schedule", default_schedule(hw=self.hw))

    @cached_property
    def graph(self) -> EmbeddedGraph:
        """The layout read from ``graph_path``."""
        return load_graph(self.graph_path)

    @cached_property
    def maximal_sets(self) -> tuple[str, ...]:
        """The graph's maximal independent sets; TooLarge above ``limit``."""
        return enumerate_mis(self.graph, self.limit)


def graph_fingerprint(graph: EmbeddedGraph) -> str:
    """Short digest of the exact layout, used to pair up runs."""
    h = hashlib.sha256()
    h.update(str(graph.n).encode())
    h.update(graph.radius.hex().encode())
    for x, y in graph.positions:
        h.update(x.hex().encode())
        h.update(y.hex().encode())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class ClassicalResult:
    """Equilibrium and independent-set families plus their match verdict."""

    graph_hash: str
    n: int
    nash: tuple[str, ...]
    maximal_sets: tuple[str, ...]
    maximum_sets: tuple[str, ...]
    nash_equals_mis: bool
    witnesses: tuple[tuple[str, str], ...]

    def to_report(self) -> dict:
        return {
            "graph_hash": self.graph_hash,
            "n": self.n,
            "nash_supports": list(self.nash),
            "maximal_independent_sets": list(self.maximal_sets),
            "maximum_independent_sets": list(self.maximum_sets),
            "nash_equals_mis": self.nash_equals_mis,
            "witnesses": [list(w) for w in self.witnesses],
        }

    @classmethod
    def from_report(cls, data: dict) -> "ClassicalResult":
        return cls(
            graph_hash=data["graph_hash"],
            n=data["n"],
            nash=tuple(data["nash_supports"]),
            maximal_sets=tuple(data["maximal_independent_sets"]),
            maximum_sets=tuple(data["maximum_independent_sets"]),
            nash_equals_mis=data["nash_equals_mis"],
            witnesses=tuple((w[0], w[1]) for w in data["witnesses"]),
        )


@dataclass(frozen=True)
class BitstringRow:
    """One observed readout, classified against the graph's set families.

    The field order is the histogram CSV's column order.
    """

    bitstring: str
    count: int
    probability: float
    energy: float
    independent: bool
    maximal: bool
    mis: bool


def _row_dicts(rows: tuple[BitstringRow, ...]) -> list[dict]:
    """Rows as field-ordered dicts; the fields are plain values, so they
    are read as they are rather than deep-copied as ``asdict`` would."""
    names = [f.name for f in fields(BitstringRow)]
    return [{name: getattr(row, name) for name in names} for row in rows]


@dataclass(frozen=True)
class QuantumResult:
    """Annealing readout statistics plus per-bitstring classification."""

    graph_hash: str
    n: int
    c6: float
    shots: int
    seed: int
    duration: float
    histogram: ShotHistogram
    rows: tuple[BitstringRow, ...]
    maximum_sets: tuple[str, ...]
    top_k: tuple[str, ...]
    mis_aggregate_probability: float
    mis_in_topk: bool

    def to_report(self) -> dict:
        return {
            "graph_hash": self.graph_hash,
            "n": self.n,
            "c6": self.c6,
            "shots": self.shots,
            "seed": self.seed,
            "duration": self.duration,
            "counts": dict(self.histogram.counts),
            "classification": _row_dicts(self.rows),
            "maximum_independent_sets": list(self.maximum_sets),
            "top_k": list(self.top_k),
            "mis_aggregate_probability": self.mis_aggregate_probability,
            "mis_in_topk": self.mis_in_topk,
        }

    @classmethod
    def from_report(cls, data: dict) -> "QuantumResult":
        return cls(
            graph_hash=data["graph_hash"],
            n=data["n"],
            c6=data["c6"],
            shots=data["shots"],
            seed=data["seed"],
            duration=data["duration"],
            histogram=ShotHistogram(dict(data["counts"]), data["shots"], data["seed"]),
            rows=tuple(BitstringRow(**r) for r in data["classification"]),
            maximum_sets=tuple(data["maximum_independent_sets"]),
            top_k=tuple(data["top_k"]),
            mis_aggregate_probability=data["mis_aggregate_probability"],
            mis_in_topk=data["mis_in_topk"],
        )


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side verdicts; every verdict is recomputable from the fields."""

    graph_hash: str
    nash: tuple[str, ...]
    maximal_sets: tuple[str, ...]
    maximum_sets: tuple[str, ...]
    top_k: tuple[str, ...]
    classification: tuple[BitstringRow, ...]
    mis_aggregate_probability: float
    nash_equals_mis: bool
    mis_in_topk: bool
    overall_pass: bool

    def to_report(self) -> dict:
        return {
            "graph_hash": self.graph_hash,
            "nash_supports": list(self.nash),
            "maximal_independent_sets": list(self.maximal_sets),
            "maximum_independent_sets": list(self.maximum_sets),
            "top_k": list(self.top_k),
            "classification": _row_dicts(self.classification),
            "mis_aggregate_probability": self.mis_aggregate_probability,
            "verdicts": {
                "nash_equals_mis": self.nash_equals_mis,
                "mis_in_topk": self.mis_in_topk,
                "overall_pass": self.overall_pass,
            },
        }


def run_classical(config: RunConfig) -> ClassicalResult:
    """Enumerate equilibria and independent sets; verdict their agreement."""
    graph = config.graph
    nash = enumerate_specialized_nash(graph, config.game, config.limit)
    maximal = config.maximal_sets
    witnesses = correspondence_witnesses(nash, maximal)
    return ClassicalResult(
        graph_hash=graph_fingerprint(graph),
        n=graph.n,
        nash=nash,
        maximal_sets=maximal,
        maximum_sets=largest(maximal),
        nash_equals_mis=not witnesses,
        witnesses=witnesses,
    )


def validate_run(config: RunConfig) -> ValidationReport:
    """Hardware validation for a run: spacing floor, waveform limits, and
    boundary-ambiguity warnings, merged into one report."""
    graph = config.graph
    report = validate_embedding(graph, config.hw).merged(validate_schedule(config.schedule, config.hw))
    return ValidationReport(report.violations, report.warnings + ambiguity_warnings(graph, config.margin))


def run_quantum(config: RunConfig) -> QuantumResult:
    """Anneal, sample, and classify every observed bitstring.

    Refuses (ConstraintViolation carrying the validation report) when the
    layout or schedule breaks hardware limits, and raises TooLarge above
    the exhaustive limit, both before annealing. Deterministic for a fixed
    (config, seed).
    """
    report = validate_run(config)
    if not report.ok:
        raise ConstraintViolation(
            f"hardware validation failed with {len(report.violations)} violation(s)", report=report
        )
    graph, schedule = config.graph, config.schedule
    maximal = set(config.maximal_sets)
    maximum = largest(config.maximal_sets)
    system = RydbergSystem(graph, config.c6)
    state = evolve(system, schedule)
    histogram = sample(state, config.shots, config.seed)
    energies = system.diagonal(schedule.delta_at(schedule.duration))
    probs = state.probabilities()
    rows = []
    for bits, count in histogram.ranked():
        z = from_bitstring(bits, graph.n)
        rows.append(
            BitstringRow(
                bitstring=bits,
                count=count,
                probability=float(probs[z]),
                energy=float(energies[z]),
                independent=is_independent(graph, bits),
                maximal=bits in maximal,
                mis=bits in maximum,
            )
        )
    top_k = histogram.top(len(maximum))
    aggregate = float(sum(probs[from_bitstring(b, graph.n)] for b in maximum))
    return QuantumResult(
        graph_hash=graph_fingerprint(graph),
        n=graph.n,
        c6=config.c6,
        shots=config.shots,
        seed=config.seed,
        duration=schedule.duration,
        histogram=histogram,
        rows=tuple(rows),
        maximum_sets=maximum,
        top_k=top_k,
        mis_aggregate_probability=aggregate,
        mis_in_topk=set(maximum) <= set(top_k),
    )


def compare(classical: ClassicalResult, quantum: QuantumResult) -> ComparisonReport:
    """Cross-check the two analyses of one graph.

    Raises IncompatibleRuns when the graph fingerprints differ.
    """
    if classical.graph_hash != quantum.graph_hash:
        raise IncompatibleRuns(
            f"classical run is for graph {classical.graph_hash}, annealing run for {quantum.graph_hash}"
        )
    nash_equals_mis = set(classical.nash) == set(classical.maximal_sets)
    mis_in_topk = set(classical.maximum_sets) <= set(quantum.top_k)
    return ComparisonReport(
        graph_hash=classical.graph_hash,
        nash=classical.nash,
        maximal_sets=classical.maximal_sets,
        maximum_sets=classical.maximum_sets,
        top_k=quantum.top_k,
        classification=quantum.rows,
        mis_aggregate_probability=quantum.mis_aggregate_probability,
        nash_equals_mis=nash_equals_mis,
        mis_in_topk=mis_in_topk,
        overall_pass=nash_equals_mis and mis_in_topk,
    )
