"""Nash equilibria of networked public-goods games via Rydberg-array
annealing simulation, cross-checked against classical enumeration.

The package splits into five layers:

* :mod:`rydnash.geometry`: unit-disk layouts, blockade radii, validation.
* :mod:`rydnash.game`: payoffs, best responses, equilibrium enumeration.
* :mod:`rydnash.indsets`: maximal/maximum independent sets, correspondence.
* :mod:`rydnash.dynamics` + :mod:`rydnash.schedule`: the annealing simulator.
* :mod:`rydnash.pipeline` + :mod:`rydnash.cli`: config-driven runs and reports.
"""

from ._bits import EXHAUSTIVE_LIMIT
from .errors import (
    ConfigError,
    ConstraintViolation,
    IncompatibleRuns,
    IntegrationFailure,
    InvalidInput,
    RydnashError,
    TooLarge,
)
from .geometry import (
    EmbeddedGraph,
    Violation,
    blockade_radius,
    build_unit_disk_graph,
    validate_embedding,
)
from .schedule import Schedule, default_schedule, validate_schedule
from .game import (
    GameParams,
    best_responses,
    enumerate_specialized_nash,
    is_nash,
    payoff,
)
from .indsets import (
    correspondence_witnesses,
    enumerate_mis,
    is_independent,
    is_maximal,
    maximum_independent_sets,
)
from .dynamics import (
    QuantumState,
    RydbergSystem,
    drive_off_window,
    evolve,
    propagate,
    sample,
)
from .pipeline import (
    ClassicalResult,
    ComparisonReport,
    QuantumResult,
    RunConfig,
    ValidationReport,
    Verdicts,
    compare,
    graph_fingerprint,
    run_classical,
    run_quantum,
)

__version__ = "0.1.0"
