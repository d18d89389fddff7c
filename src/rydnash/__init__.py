"""Nash equilibria of networked public-goods games via Rydberg-array
annealing simulation, cross-checked against classical enumeration.

The package splits into five layers:

* :mod:`rydnash.geometry`: unit-disk layouts, blockade radii, validation.
* :mod:`rydnash.game`: payoffs, best responses, equilibrium enumeration.
* :mod:`rydnash.indsets`: maximal/maximum independent sets, correspondence.
* :mod:`rydnash.dynamics` + :mod:`rydnash.schedule`: the annealing simulator.
* :mod:`rydnash.pipeline` + :mod:`rydnash.cli`: config-driven runs and reports.
"""

from .errors import (
    ConfigError,
    ConstraintViolation,
    DegenerateLayout,
    IncompatibleRuns,
    IntegrationFailure,
    InvalidAgent,
    InvalidInput,
    InvalidState,
    NotIndependent,
    RydnashError,
    TooLarge,
    UndefinedRadius,
)
from .geometry import (
    AmbiguityWarning,
    EmbeddedGraph,
    HardwareConstraints,
    ValidationReport,
    Violation,
    ambiguity_warnings,
    blockade_radius,
    build_unit_disk_graph,
    validate_embedding,
)
from .schedule import Schedule, default_schedule, validate_schedule
from .game import (
    BENEFITS,
    DEFAULT_EXHAUSTIVE_LIMIT,
    GameParams,
    best_responses,
    enumerate_specialized_nash,
    is_nash,
    payoff,
)
from .indsets import (
    enumerate_mis,
    is_independent,
    is_maximal,
    maximum_independent_sets,
    verify_correspondence,
)
from .dynamics import (
    DEFAULT_C6,
    QuantumState,
    RydbergSystem,
    ShotHistogram,
    evolve,
    exact_ground_states,
    interaction_matrix,
    propagate,
    sample,
)
from .pipeline import (
    ClassicalResult,
    ComparisonReport,
    QuantumResult,
    RunConfig,
    compare,
    graph_fingerprint,
    run_classical,
    run_quantum,
)

__version__ = "0.1.0"
