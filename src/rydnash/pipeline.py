"""End-to-end orchestration: run the classical and annealing analyses on the
same loaded graph, and compare the two. Nothing here reads a file.

Every report is the mapping of its result dataclass, written with
``fileio.write_report(path, fileio.to_mapping(result))`` and read back with
``fileio.load(path, cls)``, so runs can be persisted, reloaded, and compared
across processes. Reports contain no timestamps or absolute paths: identical
configuration and seed produce byte-identical files.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property

from ._bits import check_bitstrings, from_bitstring
from .dynamics import MAX_SHOTS, RydbergSystem, drive_off_window, evolve, sample
from .errors import ConstraintViolation, IncompatibleRuns, InvalidInput, integer, real
from .game import GameParams, enumerate_specialized_nash
from .geometry import EmbeddedGraph, Violation, validate_embedding
from .indsets import correspondence_witnesses, enumerate_mis, is_independent, is_maximal, largest
from .schedule import Schedule, default_schedule, validate_schedule

# hashlib loads OpenSSL's libcrypto, about 3 MiB of library pages, for this
# one digest; CPython's own SHA-256 module gives the same digest without it.
# An interpreter built without its own hashes falls back to hashlib.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

#: Documented default sampling seed; reports quote it so reruns reproduce.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run needs, with conservative defaults; a
    ``c6`` of None is derived from the layout and the ramp (see ``system``).

    Validation and both analyses of one config share its set families,
    Rydberg system and validation report: each is made once, on first use.
    Above ``_bits.EXHAUSTIVE_LIMIT`` nodes, the set families, the system
    and the validation each raise TooLarge.
    """

    graph: EmbeddedGraph
    game: GameParams = GameParams()
    schedule: Schedule | None = None  # None selects the default ramp
    c6: float | None = None  # None derives C6 = Δ_f·R⁶
    shots: int = 1000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        # a path or a mapping in place of a loaded input would fail only deep
        # inside a run, or not at all
        inputs = (
            ("graph", EmbeddedGraph, "an EmbeddedGraph"),
            ("game", GameParams, "a GameParams"),
            ("schedule", (Schedule, type(None)), "a Schedule or None"),
        )
        for name, cls, kind in inputs:
            value = getattr(self, name)
            if not isinstance(value, cls):
                raise InvalidInput(f"{name} must be {kind}, got {value!r}; read a file with fileio.load_{name}")
        # checked before any work, and kept as Python numbers: the report
        # writer takes no numpy scalar
        object.__setattr__(self, "shots", integer("shots", self.shots, 1, MAX_SHOTS))
        object.__setattr__(self, "seed", integer("seed", self.seed, 0))
        if self.c6 is not None:
            object.__setattr__(self, "c6", real("c6", self.c6, positive=True))
        if self.schedule is None:
            object.__setattr__(self, "schedule", default_schedule())

    @cached_property
    def maximal_sets(self) -> tuple[str, ...]:
        """The graph's maximal independent sets."""
        return enumerate_mis(self.graph)

    @cached_property
    def maximum_sets(self) -> tuple[str, ...]:
        """The largest of ``maximal_sets``."""
        return largest(self.maximal_sets)

    @cached_property
    def system(self) -> RydbergSystem:
        """The layout at ``c6``, or else at Δ_f·R⁶: the C6 at which the
        drive-off blockade radius is the disk radius R. The rule reads the
        layout and the schedule only, never the set families. Raises
        InvalidInput, before any 2**n work, when Δ_f is not positive or
        Δ_f·R⁶ is no positive finite float."""
        if self.c6 is not None:
            return RydbergSystem(self.graph, self.c6)
        delta, radius = self.schedule.final_detuning, self.graph.radius
        if delta <= 0:
            raise InvalidInput(f"the schedule's final detuning {delta} rad/us gives no C6 to derive; pass --coupling-c")
        c6 = math.inf
        with suppress(OverflowError):  # R**6 overflows past about 2.4e51 um
            c6 = delta * radius**6
        if not 0 < c6 < math.inf:
            raise InvalidInput(f"the final detuning {delta} rad/us times the radius {radius} um to the sixth "
                               "gives no positive finite C6; pass --coupling-c")
        return RydbergSystem(self.graph, c6)

    @cached_property
    def validation(self) -> ValidationReport:
        """Hardware validation for the run: the spacing floor and the
        waveform limits, plus the run's drive-off C6 window."""
        violations = validate_embedding(self.graph) + validate_schedule(self.schedule)
        window = drive_off_window(self.system, self.schedule.final_detuning, self.maximum_sets)
        return ValidationReport(violations, self.system.c6, window)


def graph_fingerprint(graph: EmbeddedGraph) -> str:
    """Short digest of the exact layout, used to pair up runs."""
    h = sha256()
    h.update(str(graph.n).encode())
    h.update(graph.radius.hex().encode())
    for x, y in graph.positions:
        h.update(x.hex().encode())
        h.update(y.hex().encode())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class ValidationReport:
    """Hardware violations (``ok`` when there are none), the run's C6 and
    its ``dynamics.drive_off_window`` at the schedule's final detuning."""

    ok: bool = field(init=False)
    violations: tuple[Violation, ...]
    c6: float
    window: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "ok", not self.violations)


@dataclass(frozen=True)
class ClassicalResult:
    """Equilibrium and independent-set families plus their match verdict."""

    graph_hash: str
    n: int
    nash: tuple[str, ...]
    maximal_sets: tuple[str, ...]
    maximum_sets: tuple[str, ...] = field(init=False)
    nash_equals_mis: bool = field(init=False)
    witnesses: tuple[tuple[str, str], ...] = field(init=False)

    def __post_init__(self):
        check_bitstrings(self.nash, self.n)
        check_bitstrings(self.maximal_sets, self.n)
        if not self.maximal_sets:
            raise InvalidInput("the maximal independent sets must not be empty")
        object.__setattr__(self, "maximum_sets", largest(self.maximal_sets))
        object.__setattr__(self, "witnesses", correspondence_witnesses(self.nash, self.maximal_sets))
        object.__setattr__(self, "nash_equals_mis", not self.witnesses)


@dataclass(frozen=True)
class BitstringRow:
    """One observed readout, flagged by the local rules and the maximum size.

    The field order is the histogram CSV's column order.
    """

    bitstring: str
    count: int
    probability: float
    energy: float
    independent: bool
    maximal: bool
    mis: bool


@dataclass(frozen=True)
class QuantumResult:
    """Annealing readout statistics plus per-bitstring classification, the
    rows ranked by count descending, then bitstring."""

    graph_hash: str
    n: int
    c6: float
    shots: int = field(init=False)
    seed: int
    duration: float
    counts: dict[str, int] = field(init=False)
    rows: tuple[BitstringRow, ...]
    maximum_sets: tuple[str, ...]
    top_k: tuple[str, ...] = field(init=False)
    mis_aggregate_probability: float
    mis_in_topk: bool = field(init=False)

    def __post_init__(self):
        check_bitstrings([row.bitstring for row in self.rows], self.n)
        check_bitstrings(self.maximum_sets, self.n)
        if not self.maximum_sets:
            raise InvalidInput("the maximum independent sets must not be empty")
        counts = {row.bitstring: row.count for row in self.rows}
        if any(c < 0 for c in counts.values()):
            raise InvalidInput("counts must be nonnegative")
        ranks = [(-row.count, row.bitstring) for row in self.rows]
        if ranks != sorted(ranks) or len(counts) < len(ranks):
            raise InvalidInput("classification rows must be ranked by count descending, then bitstring, each once")
        # the flags come from the local rules, so this checks the maximum sets
        maximum, size = frozenset(self.maximum_sets), max(s.count("1") for s in self.maximum_sets)
        for row in self.rows:
            if row.mis != (row.bitstring in maximum) or (row.maximal and row.bitstring.count("1") > size):
                raise InvalidInput(f"readout {row.bitstring} disagrees with the maximum sets {list(self.maximum_sets)}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots", sum(counts.values()))
        object.__setattr__(self, "top_k", tuple(row.bitstring for row in self.rows[: len(self.maximum_sets)]))
        object.__setattr__(self, "mis_in_topk", set(self.maximum_sets) <= set(self.top_k))


@dataclass(frozen=True)
class Verdicts:
    """The cross-check's three verdicts."""

    nash_equals_mis: bool
    mis_in_topk: bool
    overall_pass: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "overall_pass", self.nash_equals_mis and self.mis_in_topk)


@dataclass(frozen=True)
class ComparisonReport:
    """The verdicts of one graph's two results, each as that result decided it."""

    graph_hash: str
    verdicts: Verdicts


def run_classical(config: RunConfig) -> ClassicalResult:
    """Enumerate equilibria and independent sets; verdict their agreement."""
    graph = config.graph
    nash = enumerate_specialized_nash(graph, config.game)
    return ClassicalResult(graph_fingerprint(graph), graph.n, nash, config.maximal_sets)


def run_quantum(config: RunConfig) -> QuantumResult:
    """Anneal, sample, and classify every observed bitstring.

    Refuses (ConstraintViolation; ``config.validation`` holds the report)
    when the layout or schedule breaks hardware limits, and raises TooLarge
    above the exhaustive limit, both before annealing. Deterministic for a
    fixed (config, seed).
    """
    report = config.validation
    if not report.ok:
        raise ConstraintViolation(f"hardware validation failed with {len(report.violations)} violation(s)")
    graph, schedule, system = config.graph, config.schedule, config.system
    maximum = config.maximum_sets
    size = maximum[0].count("1")
    state = evolve(system, schedule)
    counts = sample(state, config.shots, config.seed)
    # by descending count, bitstring as tiebreak
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    energies = system.diagonal(schedule.final_detuning)
    probs = state.probabilities()
    rows = []
    for bits, count in ranked:
        z = from_bitstring(bits, graph.n)
        independent = is_independent(graph, bits)
        maximal = independent and is_maximal(graph, bits)
        flags = independent, maximal, maximal and bits.count("1") == size
        rows.append(BitstringRow(bits, count, float(probs[z]), float(energies[z]), *flags))
    aggregate = float(sum(probs[from_bitstring(b, graph.n)] for b in maximum))
    return QuantumResult(
        graph_hash=graph_fingerprint(graph), n=graph.n, c6=system.c6, seed=config.seed,
        duration=schedule.duration, rows=tuple(rows), maximum_sets=maximum, mis_aggregate_probability=aggregate,
    )


def compare(classical: ClassicalResult, quantum: QuantumResult) -> ComparisonReport:
    """Join the verdicts of the two analyses of one graph.

    Raises IncompatibleRuns when the graph hashes or maximum sets differ.
    """
    if classical.graph_hash != quantum.graph_hash:
        raise IncompatibleRuns(
            f"classical run is for graph {classical.graph_hash}, annealing run for {quantum.graph_hash}"
        )
    if classical.maximum_sets != quantum.maximum_sets:
        raise IncompatibleRuns(f"classical run has maximum sets {list(classical.maximum_sets)}, "
                               f"annealing run {list(quantum.maximum_sets)}")
    return ComparisonReport(classical.graph_hash, Verdicts(classical.nash_equals_mis, quantum.mis_in_topk))
