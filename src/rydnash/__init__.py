"""Nash equilibria of networked public-goods games via Rydberg-array
annealing simulation, cross-checked against classical enumeration.

The package splits into five layers:

* :mod:`rydnash.geometry`: unit-disk layouts, blockade radii, validation.
* :mod:`rydnash.game`: payoffs, best responses, equilibrium enumeration.
* :mod:`rydnash.indsets`: maximal/maximum independent sets, correspondence.
* :mod:`rydnash.dynamics` + :mod:`rydnash.schedule`: the annealing simulator.
* :mod:`rydnash.pipeline` + :mod:`rydnash.cli`: config-driven runs and reports.

Imported before numpy, the package loads numpy with BLAS pinned to one
thread, unless ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS`` is set. OpenBLAS otherwise starts one thread per CPU,
which nothing here gains from and which keeps ``evolve`` from running its
coarse pass in a forked worker. The environment is left as it was found.
"""

import os

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
    try:
        import numpy  # BLAS reads its thread count as numpy loads
    finally:
        for _name in _BLAS_THREADS:
            del os.environ[_name]

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
