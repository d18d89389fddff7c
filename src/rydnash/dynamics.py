"""Rydberg-array Hamiltonian, annealing evolution, sampling, and the exact
diagonal ground-state oracle.

Units: hbar = 1, so drive amplitude, detuning, and pair interactions are all
angular frequencies in rad/us; times in us; distances in um. Basis states
are indexed by bitstrings with node 0 as the leftmost bit; bit value 1 means
the atom is in the excited (Rydberg) state. The Hamiltonian is

    H(t) = (omega(t)/2) * sum_i x_i  -  delta(t) * sum_i n_i
           + sum_{i<j} V_ij n_i n_j,

with ``x_i`` flipping atom i, ``n_i`` its excitation number, and
``V_ij = c6 / r_ij**6``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._bits import from_bitstring, node_mask, popcounts, to_bitstring
from .errors import (
    IntegrationFailure,
    InvalidInput,
    InvalidState,
    TooLarge,
)
from .game import DEFAULT_EXHAUSTIVE_LIMIT
from .geometry import EmbeddedGraph
from .schedule import Schedule

#: Default van der Waals coefficient, rad/us * um**6. Production-scale
#: magnitude; analyses that depend on where the blockade radius falls
#: relative to a specific layout should pin their own value.
DEFAULT_C6 = 5.42e6

# Triple-jump composition coefficients turning a self-adjoint second-order
# stage into a fourth-order step (middle stage runs backward).
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
_WEIGHTS = np.array([_W1, _W0, _W1])
# Each stage's midpoint within its substep, in units of the substep.
_MIDPOINTS = np.cumsum(_WEIGHTS) - 0.5 * _WEIGHTS

# Qubits per Walsh-Hadamard block: one dense factor of at most 2**6 x 2**6
# keeps the transform at O(2**n * n) work at every size.
_BLOCK = 6
# Substeps whose waveform samples and phase tables are computed together;
# bounds the tables' memory on long segments.
_CHUNK = 64


def interaction_matrix(graph: EmbeddedGraph, c6: float) -> np.ndarray:
    """Pairwise van der Waals energies ``c6 / r**6`` with zero diagonal."""
    if not (c6 > 0 and math.isfinite(c6)):
        raise InvalidInput(f"van der Waals coefficient must be positive and finite, got {c6!r}")
    n = graph.n
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            r = graph.distance(i, j)
            out[i, j] = out[j, i] = c6 / r**6
    return out


@dataclass(frozen=True)
class RydbergSystem:
    """An embedded layout plus its van der Waals coupling strength."""

    graph: EmbeddedGraph
    c6: float = DEFAULT_C6

    def __post_init__(self):
        if not (self.c6 > 0 and math.isfinite(self.c6)):
            raise InvalidInput(f"c6 must be positive and finite, got {self.c6!r}")

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def interactions(self) -> np.ndarray:
        v = interaction_matrix(self.graph, self.c6)
        v.flags.writeable = False
        return v

    @cached_property
    def pair_energy(self) -> np.ndarray:
        """Sum of V_ij over excited pairs, for every basis index."""
        n = self.n
        z = np.arange(1 << n, dtype=np.uint64)
        q = np.zeros(1 << n)
        for i in range(n):
            for j in range(i + 1, n):
                both = np.uint64(node_mask(i, n) | node_mask(j, n))
                q[(z & both) == both] += self.interactions[i, j]
        q.flags.writeable = False
        return q

    @cached_property
    def excitation_count(self) -> np.ndarray:
        pc = popcounts(self.n)
        pc.flags.writeable = False
        return pc

    def diagonal(self, delta: float) -> np.ndarray:
        """Drive-off Hamiltonian diagonal at detuning ``delta``, for every
        basis index."""
        return self.pair_energy - delta * self.excitation_count


@dataclass(frozen=True)
class QuantumState:
    """Normalized vector of 2**n complex amplitudes in bitstring order."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=np.complex128)
        if a.ndim != 1 or a.size < 2 or (a.size & (a.size - 1)) != 0:
            raise InvalidState(f"amplitude vector length must be a power of two >= 2, got shape {a.shape}")
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > 1e-6:
            raise InvalidState(f"state norm {norm} deviates from 1 by more than 1e-6")
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)

    @classmethod
    def all_ground(cls, n: int) -> "QuantumState":
        a = np.zeros(1 << n, dtype=np.complex128)
        a[0] = 1.0
        return cls(a)

    @property
    def n(self) -> int:
        return int(self.amplitudes.size.bit_length() - 1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def probability_of(self, bits: str) -> float:
        return float(abs(self.amplitudes[from_bitstring(bits, self.n)]) ** 2)


@dataclass(frozen=True)
class ShotHistogram:
    """Bitstring counts from projective measurement of a final state."""

    counts: dict[str, int]
    shots: int
    seed: int

    def __post_init__(self):
        if any(c < 0 for c in self.counts.values()):
            raise InvalidInput("counts must be nonnegative")
        if sum(self.counts.values()) != self.shots:
            raise InvalidInput(f"counts sum to {sum(self.counts.values())}, expected {self.shots} shots")

    def ranked(self) -> tuple[tuple[str, int], ...]:
        """Entries ordered by descending count, bitstring as tiebreak."""
        return tuple(sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def top(self, k: int) -> tuple[str, ...]:
        return tuple(bits for bits, _ in self.ranked()[:k])


def exact_ground_states(
    system: RydbergSystem,
    delta: float,
    tol: float = 1e-9,
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> tuple[str, ...]:
    """Bitstrings minimizing the drive-off diagonal energy, exhaustively.

    Every state within ``tol`` (rad/us) of the minimum is returned, in
    canonical bitstring order, so exact ties come back together. With a
    positive detuning and edge interactions dominating it, the minimizers
    are the maximum independent sets; beyond-radius 1/r**6 tails split
    otherwise-degenerate optima by a finite amount, and ``tol`` controls
    whether such a near-degenerate manifold counts as one ground state.
    """
    if system.n > limit:
        raise TooLarge(system.n, limit)
    if tol < 0 or not math.isfinite(tol):
        raise InvalidInput(f"tolerance must be nonnegative and finite, got {tol!r}")
    energies = system.diagonal(delta)
    cutoff = energies.min() + tol
    return tuple(to_bitstring(int(i), system.n) for i in np.nonzero(energies <= cutoff)[0])


def _walsh_hadamard(source: np.ndarray, spare: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The unnormalised Walsh-Hadamard transform of ``source`` as
    ``np.matmul(factor, src, out=dst)`` calls, one per qubit block.

    The n qubits split into ceil(n / _BLOCK) near-equal blocks. A block's
    +-1 Sylvester factor acts on the middle axis of a float64 view reshaped
    to ``(pre, 2**b, post)``, so real and imaginary parts ride along in
    ``post`` and no axis is moved. Successive blocks alternate between the
    two buffers: the result lands in ``source`` after an even number of
    blocks and in ``spare`` after an odd one.
    """
    n = source.size.bit_length() - 1
    count = -(-n // _BLOCK)
    bounds = [n * i // count for i in range(count + 1)]
    buffers = (source.view(np.float64), spare.view(np.float64))
    calls = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        factor = np.ones((1, 1))
        for _ in range(hi - lo):
            factor = np.block([[factor, factor], [factor, -factor]])
        shape = (1 << lo, len(factor), 2 << (n - hi))
        calls.append((factor, buffers[i % 2].reshape(shape), buffers[(i + 1) % 2].reshape(shape)))
    return calls


def propagate(system: RydbergSystem, schedule: Schedule, step: float) -> QuantumState:
    """Integrate the Schrodinger equation from the all-ground state at a
    fixed internal step.

    Fourth-order split-operator stepping: each substep is a triple-jump
    composition of self-adjoint second-order stages, with the waveforms
    sampled at each stage's own midpoint. The sample times all fall strictly
    inside the substep, substeps align with waveform breakpoints (so the
    piecewise-linear kinks are never crossed mid-step), and every factor is
    unitary, so the norm is conserved to round-off regardless of step size.

    A stage of length ``x`` is a half diagonal phase ``exp(-i x/2 D)``, the
    uniform drive rotation ``R(theta)^n = W diag(exp(-i theta (n - 2|z|))) W / 2**n``
    with ``theta = x omega / 2`` and ``W`` the Walsh-Hadamard transform
    (``H R_x H = R_z``), and the other half phase. The closing half phase of
    one stage and the opening one of the next are applied as one product.
    """
    if not (step > 0 and math.isfinite(step)):
        raise InvalidInput(f"step must be positive and finite, got {step!r}")
    n = system.n
    pair, count = system.pair_energy, system.excitation_count
    k = np.arange(n + 1)
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[0] = 1.0
    spare = np.empty_like(psi)
    forward = _walsh_hadamard(psi, spare)
    rotated, other = (spare, psi) if len(forward) % 2 else (psi, spare)
    back = _walsh_hadamard(rotated, other)
    # the last stage's closing half phase, still to be applied: x / 2 for
    # the pair phase and x * delta / 2 for the popcount phase
    carry_s = carry_a = 0.0
    times = schedule.breakpoint_times
    for t0, t1 in zip(times, times[1:]):
        segment = t1 - t0
        substeps = max(1, math.ceil(segment / step))
        h = segment / substeps
        pair_phase = {}  # by merged half length; about three per segment
        for first in range(0, substeps, _CHUNK):
            index = np.arange(first, min(first + _CHUNK, substeps))
            mid = (t0 + (index[:, None] + _MIDPOINTS) * h).ravel()
            half_s = np.tile(0.5 * h * _WEIGHTS, index.size)
            theta = half_s * schedule.omega_at(mid)
            half_a = half_s * schedule.delta_at(mid)
            opening_s = np.concatenate(([carry_s], half_s[:-1])) + half_s
            opening_a = np.concatenate(([carry_a], half_a[:-1])) + half_a
            carry_s, carry_a = float(half_s[-1]), float(half_a[-1])
            detuning = np.exp(1j * opening_a[:, None] * k)
            drive = np.exp(-1j * theta[:, None] * (n - 2 * k)) * 0.5**n
            for s, th, det, rot in zip(opening_s.tolist(), theta.tolist(), detuning, drive):
                phase = pair_phase.get(s)
                if phase is None:
                    phase = pair_phase[s] = np.exp(-1j * s * pair)
                psi *= phase
                psi *= det[count]
                if th != 0.0:
                    for factor, src, dst in forward:
                        np.matmul(factor, src, out=dst)
                    rotated *= rot[count]
                    for factor, src, dst in back:
                        np.matmul(factor, src, out=dst)
    psi *= np.exp(-1j * carry_s * pair) * np.exp(1j * carry_a * k)[count]
    return QuantumState(psi)


def evolve(
    system: RydbergSystem,
    schedule: Schedule,
    tolerance: float = 1e-6,
    initial_step: float = 1e-3,
    min_step: float = 1e-5,
) -> QuantumState:
    """Anneal from the all-ground state, refining the step until halving it
    moves the final state by less than ``tolerance`` in 2-norm.

    Returns the finer of the last two passes. Raises IntegrationFailure if
    the step would have to fall below ``min_step`` before converging.
    """
    if not (tolerance > 0):
        raise InvalidInput(f"tolerance must be positive, got {tolerance!r}")
    if not (0 < min_step <= initial_step):
        raise InvalidInput("need 0 < min_step <= initial_step")
    h = min(float(initial_step), schedule.duration)
    coarse = propagate(system, schedule, h)
    while True:
        fine = propagate(system, schedule, h / 2.0)
        if float(np.linalg.norm(fine.amplitudes - coarse.amplitudes)) < tolerance:
            return fine
        if h / 4.0 < min_step:
            raise IntegrationFailure(
                f"step-halving residual still above {tolerance} at step {h / 2.0} us "
                f"(floor {min_step} us)"
            )
        h /= 2.0
        coarse = fine


def sample(state: QuantumState, shots: int, seed: int) -> ShotHistogram:
    """Projective-measurement statistics: a multinomial draw over |a_z|^2.

    A single generator call from a fixed seed makes the histogram a pure
    function of ``(state, shots, seed)``.
    """
    if not isinstance(shots, (int, np.integer)) or shots < 1:
        raise InvalidInput(f"shots must be a positive integer, got {shots!r}")
    p = state.probabilities()
    total = float(p.sum())
    if abs(total - 1.0) > 1e-6:
        raise InvalidState(f"probabilities sum to {total}, state is not normalized")
    rng = np.random.default_rng(seed)
    counts_vec = rng.multinomial(int(shots), p / total)
    n = state.n
    counts = {to_bitstring(int(z), n): int(counts_vec[z]) for z in np.flatnonzero(counts_vec)}
    return ShotHistogram(counts=counts, shots=int(shots), seed=int(seed))
