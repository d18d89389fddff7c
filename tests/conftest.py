"""Shared fixtures and independent brute-force oracles.

The two reference layouts pin their hexagon/house geometries at a 6 um edge
length, which clears the 4 um hardware floor with margin. The coupling
constants pin the blockade radius strictly between the edge distance (6 um)
and the closest non-edge distance (sqrt(108) ~ 10.39 um for the hexagon,
6*sqrt(2) ~ 8.49 um for the house), which is the regime where the drive-off
ground states are the maximum independent sets.
"""

import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import strategies as st

import rydnash
from rydnash._bits import from_bitstring
from rydnash.dynamics import _W0, _W1, QuantumState, RydbergSystem
from rydnash.errors import InvalidInput
from rydnash.fileio import to_mapping, write_report
from rydnash.geometry import build_unit_disk_graph
from rydnash.schedule import Schedule

ROOT3 = math.sqrt(3.0)

GRAPH_A_POSITIONS = ((0.0, 0.0), (6.0, 0.0), (12.0, 0.0), (18.0, 0.0), (9.0, 3 * ROOT3), (15.0, 3 * ROOT3))
GRAPH_A_RADIUS = 8.0
GRAPH_A_EDGES = {(0, 1), (1, 2), (2, 3), (1, 4), (2, 4), (2, 5), (3, 5), (4, 5)}
GRAPH_A_MIS_FAMILY = {"010001", "010100", "100001", "100110", "101000"}
GRAPH_A_MAXIMUM = "100110"  # support {0, 3, 4}

GRAPH_B_POSITIONS = ((0.0, 0.0), (6.0, 0.0), (12.0, 0.0), (18.0, 0.0), (6.0, -6.0), (12.0, -6.0))
GRAPH_B_RADIUS = 7.0
GRAPH_B_EDGES = {(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (2, 5)}
GRAPH_B_MIS_FAMILY = {"010101", "100101", "100110", "101010"}

# Coupling pinned per layout: edge interaction far above the 7.27 rad/us
# detuning, beyond-radius tails well below it.
C_A = 2.2e6  # rad/us um^6; blockade radius ~8.19 um at the 7.27 scale
C_B = 6.0e5  # rad/us um^6; blockade radius ~6.60 um at the 7.27 scale

SEED = 7  # documented sampling seed used throughout

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
GRAPH_A_FILE = os.path.join(CONFIGS, "graph_a.yaml")
GRAPH_B_FILE = os.path.join(CONFIGS, "graph_b.yaml")

# One atom past the exhaustive limit of 24: a 6 um chain, every pair at or
# above the 4 um floor, so only its size is refused.
CHAIN25_POSITIONS = tuple((6.0 * i, 0.0) for i in range(25))
CHAIN25_RADIUS = 8.0
OVER_LIMIT = "25 nodes exceeds the exhaustive limit of 24"


@pytest.fixture(scope="session")
def graph_a():
    return build_unit_disk_graph(GRAPH_A_POSITIONS, GRAPH_A_RADIUS)


@pytest.fixture(scope="session")
def graph_b():
    return build_unit_disk_graph(GRAPH_B_POSITIONS, GRAPH_B_RADIUS)


@pytest.fixture(scope="session")
def chain25():
    return build_unit_disk_graph(CHAIN25_POSITIONS, CHAIN25_RADIUS)


def kings_24():
    """A 5x5 King's lattice at 6 um with the centre site vacant, radius 9 um:
    n = 24, the exhaustive limit, with 544 maximal independent sets."""
    sites = [(6.0 * c, 6.0 * r) for r in range(5) for c in range(5) if (r, c) != (2, 2)]
    return build_unit_disk_graph(sites, 9.0)


def save_yaml(path, obj) -> None:
    """Write a layout, game or schedule (any dataclass of the file formats)
    to ``path`` as rydnash writes its reports."""
    write_report(str(path), to_mapping(obj))


def child_env():
    """The environment of a new interpreter that imports this rydnash."""
    src = os.path.dirname(os.path.dirname(rydnash.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def random_unit_disk(rng, n_max=8, box=10.0):
    """A random layout with node count and radius drawn to vary edge density."""
    n = int(rng.integers(1, n_max + 1))
    positions = [(float(rng.uniform(0, box)), float(rng.uniform(0, box))) for _ in range(n)]
    radius = float(rng.uniform(1.0, 1.5 * box))
    return build_unit_disk_graph(positions, radius)


@st.composite
def unit_disk_layouts(draw, n_max=10, box=10.0):
    """Hypothesis strategy: distinct points in a box and a radius drawn to
    range from an empty graph to a complete one."""
    coord = st.floats(0.0, box, allow_nan=False, allow_infinity=False)
    positions = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=n_max, unique=True))
    radius = draw(st.floats(0.1, 1.5 * box))
    return build_unit_disk_graph(positions, radius)


def brute_force_mis(graph):
    """Reference enumeration: filter all 2**n subsets with direct checks.

    Deliberately independent of the vectorized implementation: independence
    scans the edge list, maximality scans closed neighborhoods.
    """
    n = graph.n
    edges = graph.edges
    out = []
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            s = set(subset)
            if any(i in s and j in s for i, j in edges):
                continue
            if all(v in s or (graph.neighbors[v] & s) for v in range(n)):
                out.append(frozenset(s))
    return set(out)


def bron_kerbosch_mis(graph):
    """Reference enumeration for large graphs: the maximal cliques of the
    complement graph, by Bron-Kerbosch with pivoting (Bron & Kerbosch,
    CACM 16, 1973), as a set of frozensets of nodes.

    Independent of the bit tables of the sweeps: it grows sets one node at a
    time through neighbor sets, and its work follows the number of maximal
    sets, not 2**n.
    """
    nodes = frozenset(range(graph.n))
    apart = [nodes - graph.neighbors[v] - {v} for v in range(graph.n)]  # complement neighbors
    found = set()

    def expand(clique, candidates, excluded):
        if not candidates and not excluded:
            found.add(clique)
            return
        pivot = max(candidates | excluded, key=lambda u: len(candidates & apart[u]))
        for v in candidates - apart[pivot]:
            expand(clique | {v}, candidates & apart[v], excluded & apart[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    expand(frozenset(), nodes, frozenset())
    return found


def support_bitstring(members, n):
    return "".join("1" if i in members else "0" for i in range(n))


def members(bits):
    """The node indices a support bitstring marks."""
    return frozenset(i for i, ch in enumerate(bits) if ch == "1")


# Physics oracles: the matrix-free and dense Hamiltonians, the scalar energy,
# and the per-atom split-operator integrator the fast propagate replaced.

#: Nominal convergence order of ``propagate`` under step refinement.
INTEGRATOR_ORDER = 4


def apply_hamiltonian(system: RydbergSystem, omega: float, delta: float, psi) -> np.ndarray:
    """H(omega, delta) applied to ``psi``, without materializing the matrix.

    The drive couples each basis state to its n single-bit flips with
    amplitude omega/2; the diagonal contributes ``-delta`` per excitation
    plus the pairwise interaction energy. Returns the unnormalized product.
    """
    vec = psi.amplitudes if isinstance(psi, QuantumState) else np.asarray(psi, dtype=np.complex128)
    if vec.ndim != 1 or vec.size != 1 << system.n:
        raise InvalidInput(f"state has dimension {vec.shape}, expected {1 << system.n}")
    out = system.diagonal(delta) * vec
    if omega != 0.0:
        half = 0.5 * omega
        for i in range(system.n):
            view = out.reshape(1 << i, 2, -1)
            view += half * vec.reshape(1 << i, 2, -1)[:, ::-1, :]
    return out


def dense_hamiltonian(system: RydbergSystem, omega: float, delta: float) -> np.ndarray:
    """Explicit 2**n x 2**n real symmetric Hamiltonian matrix.

    Intended for small systems: reference integrators, spectra, and
    cross-checks of the matrix-free apply.
    """
    dim = 1 << system.n
    h = np.zeros((dim, dim))
    h[np.diag_indices(dim)] = system.diagonal(delta)
    idx = np.arange(dim)
    for i in range(system.n):
        h[idx, idx ^ (1 << (system.n - 1 - i))] += 0.5 * omega  # flip node i's bit
    return h


def diagonal_energy(system: RydbergSystem, delta: float, z: str) -> float:
    """Energy of basis state ``z`` under the drive-off Hamiltonian:
    ``-delta * (excitation count) + sum of V_ij over excited pairs``."""
    from_bitstring(z, system.n)
    members = [i for i, ch in enumerate(z) if ch == "1"]
    v = system.interactions
    energy = -delta * len(members)
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            energy += v[members[a], members[b]]
    return float(energy)


def _strang_stage(
    psi: np.ndarray, spare: np.ndarray, system: RydbergSystem, h: float, omega: float, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One self-adjoint split step: half diagonal phase, uniform single-atom
    drive rotation, half diagonal phase. Each atom's rotation is written
    into the other buffer, so this returns the buffer that holds the state,
    then the spare one."""
    half_phase = np.exp((-0.5j * h) * system.diagonal(delta))
    psi *= half_phase
    theta = 0.5 * h * omega
    if theta != 0.0:
        c, s = math.cos(theta), math.sin(theta)
        for i in range(system.n):
            view, out = psi.reshape(1 << i, 2, -1), spare.reshape(1 << i, 2, -1)
            np.multiply(view[:, ::-1, :], -1j * s, out=out)
            out += c * view
            psi, spare = spare, psi
    psi *= half_phase
    return psi, spare


def reference_propagate(system: RydbergSystem, schedule: Schedule, step: float) -> QuantumState:
    """The same triple-jump scheme as ``propagate``, one stage at a time with
    the drive rotation applied atom by atom."""
    if not (step > 0 and math.isfinite(step)):
        raise InvalidInput(f"step must be positive and finite, got {step!r}")
    n = system.n
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[0] = 1.0
    spare = np.empty_like(psi)
    times = schedule.breakpoint_times
    for t0, t1 in zip(times, times[1:]):
        segment = t1 - t0
        substeps = max(1, math.ceil(segment / step))
        h = segment / substeps
        for k in range(substeps):
            t = t0 + k * h
            virtual = t
            for w in (_W1, _W0, _W1):
                tm = virtual + 0.5 * w * h
                psi, spare = _strang_stage(psi, spare, system, w * h, schedule.omega_at(tm), schedule.delta_at(tm))
                virtual += w * h
    return QuantumState(psi)
