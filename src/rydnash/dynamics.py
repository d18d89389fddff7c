"""Rydberg-array Hamiltonian, annealing evolution, sampling, and the C6
window in which the maximum independent sets are the drive-off ground states.

Units: hbar = 1, so drive amplitude, detuning, and pair interactions are all
angular frequencies in rad/us; times in us; distances in um. Basis states
are indexed by bitstrings with node 0 as the leftmost bit; bit value 1 means
the atom is in the excited (Rydberg) state. The Hamiltonian is

    H(t) = (omega(t)/2) * sum_i x_i  -  delta(t) * sum_i n_i
           + sum_{i<j} V_ij n_i n_j,

with ``x_i`` flipping atom i, ``n_i`` its excitation number, and
``V_ij = c6 / r_ij**6``. Internally ``propagate`` carries the state in the
twisted frame ``i**(-|z|) * psi``, where the drive rotation is real
orthogonal; every state it returns is back in the frame above. Each of its
stages is the same two steps, with no stage treated apart: one multiply by a
row of a phase table that is filled in bulk for a group of stages, then the
drive rotation.
"""

from __future__ import annotations

import math
import mmap
import os
import random
import sys
import types
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import accumulate

import numpy as np

from ._bits import check_size, from_bitstring, to_bitstring
from .errors import IntegrationFailure, InvalidInput, integer, real
from .geometry import EmbeddedGraph
from .schedule import Schedule

#: ``RydbergSystem``'s default coupling, rad/us * um**6. No run uses it, as
#: ``RunConfig`` pins C6 or derives it; it stays because ``benchmarks/child.py``
#: builds its traced stiff pair as ``RydbergSystem(graph)``.
DEFAULT_C6 = 5.42e6

# Triple-jump composition coefficients turning a self-adjoint second-order
# stage into a fourth-order step (middle stage runs backward).
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
_WEIGHTS = np.array([_W1, _W0, _W1])
# Each stage's midpoint within its substep, in units of the substep.
_MIDPOINTS = np.cumsum(_WEIGHTS) - 0.5 * _WEIGHTS

# Drive-rotation blocks: ceil(n / _BLOCK) near-equal blocks, each at most
# 2**(n + _BLOCK + 2) real multiply-adds, so a stage stays O(2**n * n) at
# every size and a block matrix stays within 2**(2 * _BLOCK + 2) entries.
_BLOCK = 4
# Substeps whose waveform samples and rotation tables are computed together;
# bounds the tables' memory on long segments.
_CHUNK = 64
# Bytes of the fused diagonal-phase table, one 2**n-entry complex row per
# stage (see _table_rows). 128 KiB keeps three rows at n = 11, where one or
# two rows per fill slowed the anneal, and costs less peak memory at n = 6
# than 256 KiB: there the table and the block of pair phases tiled to its
# size are the growth.
_TABLE_BYTES = 1 << 17

#: Most shots ``sample`` draws: numpy's multinomial takes its count as a C
#: int64, and a larger one raises OverflowError only after the anneal.
MAX_SHOTS = 2**63 - 1

#: The step-halving contract of ``evolve``: it returns once halving its step
#: moves the final state by less than this, in 2-norm.
TOLERANCE = 1e-6
# evolve's first step, and the floor below which it gives up, in us
_INITIAL_STEP = 1e-3
_MIN_STEP = 1e-5
# signal.SIGKILL, which POSIX fixes at 9; a run does not otherwise load signal
_SIGKILL = 9
# bytes per amplitude that one of evolve's passes holds at its peak, with the
# state it keeps from the pass before (see ROADMAP item 8)
_PASS_BYTES = 112.7


@dataclass(frozen=True)
class RydbergSystem:
    """An embedded layout plus its van der Waals coupling strength.

    Its 2**n tables, and so everything that anneals or sweeps it, exist only
    up to ``_bits.EXHAUSTIVE_LIMIT`` atoms: a larger layout is refused with
    TooLarge here, before any of them is built.
    """

    graph: EmbeddedGraph
    c6: float = DEFAULT_C6

    def __post_init__(self):
        object.__setattr__(self, "c6", real("c6", self.c6, positive=True))
        check_size(self.graph.n)

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def interactions(self) -> np.ndarray:
        """Pairwise van der Waals energies ``c6 / r**6`` with zero diagonal."""
        n = self.n
        v = np.zeros((n, n))
        for (i, j), r in self.graph.pair_distances.items():
            try:
                r6 = r**6
            except OverflowError:  # atoms too far apart to interact at all
                r6 = math.inf
            # atoms so close that r**6 underflows interact without bound
            v[i, j] = v[j, i] = self.c6 / r6 if r6 > 0 else math.inf
        v.flags.writeable = False
        return v

    @cached_property
    def pair_energy(self) -> np.ndarray:
        """Sum of V_ij over excited pairs, for every basis index.

        Each pair adds in place on the strided view of the indices where
        both of its bits are 1: axis 1 is node i's bit and axis 3 node j's.
        """
        n = self.n
        q = np.zeros(1 << n)
        for i, j in self.graph.pair_distances:
            q.reshape(1 << i, 2, 1 << (j - i - 1), 2, 1 << (n - 1 - j))[:, 1, :, 1, :] += self.interactions[i, j]
        q.flags.writeable = False
        return q

    @cached_property
    def excitation_count(self) -> np.ndarray:
        """Number of excited atoms, for every basis index."""
        pc = np.bitwise_count(np.arange(1 << self.n, dtype=np.uint64)).astype(np.int64)
        pc.flags.writeable = False
        return pc

    def diagonal(self, delta: float) -> np.ndarray:
        """Drive-off Hamiltonian diagonal at detuning ``delta``, for every
        basis index."""
        return self.pair_energy - delta * self.excitation_count


def _check_norm(norm: float) -> None:
    """Refuse a state whose 2-norm is not within 1e-6 of 1."""
    if not (abs(norm - 1.0) <= 1e-6):  # also rejects a NaN norm
        raise InvalidInput(f"state norm {norm} deviates from 1 by more than 1e-6")


@dataclass(frozen=True)
class QuantumState:
    """Normalized vector of 2**n complex amplitudes in bitstring order."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=np.complex128)
        if a.ndim != 1 or a.size < 2 or (a.size & (a.size - 1)) != 0:
            raise InvalidInput(f"amplitude vector length must be a power of two >= 2, got shape {a.shape}")
        _check_norm(float(np.linalg.norm(a)))
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


def drive_off_window(system: RydbergSystem, delta: float, maximum_sets: tuple[str, ...]) -> tuple[float, float]:
    """The open C6 interval ``(lo, hi)`` in which every maximum set's
    drive-off energy lies below every other state's. It is empty when
    ``lo >= hi``, and ``hi`` is ``inf`` when no state bounds C6 from above.

    ``E(z) = C6 * S(z) - delta * |z|`` is linear in C6, so each other state
    bounds C6 from above or below against the highest maximum-set ``S``, or
    allows all or no C6 where the two tie. It divides by no zero. ``S`` is
    read from the layout at unit coupling, so the window does not move with
    ``system.c6``, not even in its last digit.
    """
    unit = RydbergSystem(system.graph, 1.0).pair_energy
    member = np.zeros(unit.size, dtype=bool)
    member[[from_bitstring(bits, system.n) for bits in maximum_sets]] = True
    slope = unit[member].max() - unit[~member]
    gain = delta * (maximum_sets[0].count("1") - system.excitation_count[~member])
    up, down = slope > 0, slope < 0
    hi = np.min(gain[up] / slope[up], initial=math.inf if np.all(gain[slope == 0] > 0) else 0.0)
    lo = np.max(gain[down] / slope[down], initial=0.0)
    return float(lo), float(hi)


def _block_bounds(n: int) -> list[int]:
    """Qubit boundaries of the drive-rotation blocks, highest-order first."""
    count = -(-n // _BLOCK)
    return [n * i // count for i in range(count + 1)]


@cache
def _rotation_index(b: int, lowest: bool) -> np.ndarray:
    """Where each entry of a ``b``-qubit drive-rotation matrix sits in its
    row of ``_rotation_table``.

    In the twisted frame the block rotation is the real orthogonal
    ``K_b = [[cos, sin], [-sin, cos]]^(x b)``, whose entry at row ``r``,
    column ``c`` is ``cos**(b - d) * sin**d * (-1)**u`` with
    ``d = popcount(r ^ c)`` and ``u = popcount(r & ~c)``. The lowest-order
    block multiplies the interleaved real and imaginary parts from the
    right, so its matrix is ``kron(K_b.T, I_2)``, whose other entries index
    the table's trailing zero. Each index is built once and kept, read-only.
    """
    rows = np.arange(1 << b, dtype=np.uint64)[:, None]
    flips = rows ^ rows.T
    # r & ~c written as (r ^ c) & r, and the arithmetic done on intp: this
    # touches no integer loop the rest of a run does not, which keeps numpy
    # code pages out of the peak resident memory
    d = np.bitwise_count(flips).astype(np.intp)
    u = np.bitwise_count(flips & rows).astype(np.intp)
    index = d + (b + 1) * (u % 2)
    if lowest:
        spread = np.full((1 << b, 2, 1 << b, 2), 2 * b + 2, dtype=np.intp)
        spread[:, 0, :, 0] = spread[:, 1, :, 1] = index.T
        index = spread.reshape(2 << b, 2 << b)
    index.flags.writeable = False
    return index


def _rotation_table(theta: np.ndarray, b: int) -> np.ndarray:
    """One row per angle: ``cos(theta)**(b - d) * sin(theta)**d`` for
    ``d = 0 .. b``, then their negatives, then a zero."""
    d = np.arange(b + 1)
    t = np.cos(theta)[:, None] ** (b - d) * np.sin(theta)[:, None] ** d
    return np.concatenate((t, -t, np.zeros((theta.size, 1))), axis=1)


def _substep_matrices(kinds: set[tuple[int, bool]]) -> tuple[list[int], np.ndarray, np.ndarray, list[dict]]:
    """The drive-rotation matrices of a substep's three triple-jump
    positions, held as the rows of one float64 array, and the index that
    fills all of them with one ``take``.

    ``kinds`` are a run's ``(b, lowest)`` block kinds. The ``take`` reads a
    substep's three rows of one concatenated rotation table, in which every
    block size's ``_rotation_table`` sits side by side in the order of the
    returned ``sizes``. Row ``p`` of the index is every kind's
    ``_rotation_index``, shifted to its size's columns and to the substep's
    row ``p``. ``matrices[p]`` maps each kind to its view into row ``p`` of
    the held array, so calls bound to the views stay valid for the whole
    run. Returns ``(sizes, index, held, matrices)``.
    """
    sizes = sorted({b for b, _ in kinds})
    widths = [2 * b + 3 for b in sizes]
    start = dict(zip(sizes, accumulate(widths, initial=0)))
    kinds = sorted(kinds)
    slots = [_rotation_index(*key) for key in kinds]
    row = np.concatenate([slot.ravel() + start[b] for (b, _), slot in zip(kinds, slots)])
    index = row + sum(widths) * np.arange(len(_WEIGHTS))[:, None]
    held = np.empty(index.shape)
    ends = list(accumulate(slot.size for slot in slots))
    matrices = [
        {key: r[end - slot.size : end].reshape(slot.shape) for key, slot, end in zip(kinds, slots, ends)} for r in held
    ]
    return sizes, index, held, matrices


def _rotation_calls(
    bounds: list[int],
    matrices: dict[tuple[int, bool], np.ndarray],
    source: np.ndarray,
    spare: np.ndarray,
) -> list[tuple]:
    """The uniform drive rotation of ``source`` as ``(product, right, out)``
    calls ``product(right, out)``, one real matrix product per qubit block.

    The complex state is read as float64 pairs, so a block of ``b`` qubits
    views it as ``(pre, 2**b, 2 * post)`` and multiplies by ``K_b`` along
    the middle axis: one ``K @ X`` gemm for the highest-order block,
    batched over ``pre`` for the blocks between. The lowest-order block,
    where the pair is the innermost axis, is one ``X @ kron(K_b.T, I_2)``
    gemm on the ``(pre, 2**(b + 1))`` view. Successive blocks alternate
    between the two buffers: the result lands in ``source`` after an even
    number of blocks and in ``spare`` after an odd one. The two 2-D products
    are the bound ``ndarray.dot`` of their left operand: it runs the same
    routine as ``np.dot``, so gives the same bits, without ``np.dot``'s
    ``__array_function__`` dispatch, over a third of a small product's cost.
    Only the batched middle blocks need ``np.matmul``. The matrices are
    refilled in place, so the calls stay valid for the whole run.
    """
    n = bounds[-1]
    buffers = (source.view(np.float64), spare.view(np.float64))
    calls = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        src, dst = buffers[i % 2], buffers[(i + 1) % 2]
        b = hi - lo
        if lo > 0 and hi == n:
            shape = (1 << lo, 2 << b)
            calls.append((src.reshape(shape).dot, matrices[b, True], dst.reshape(shape)))
        elif lo == 0:
            shape = (1 << b, 2 << (n - hi))
            calls.append((matrices[b, False].dot, src.reshape(shape), dst.reshape(shape)))
        else:
            shape = (1 << lo, 1 << b, 2 << (n - hi))
            calls.append((partial(np.matmul, matrices[b, False]), src.reshape(shape), dst.reshape(shape)))
    return calls


def _table_rows(n: int) -> int:
    """Rows of the fused phase table: as many as fit in ``_TABLE_BYTES``, at
    least one, and a multiple of 3 from 3 rows up."""
    rows = max(1, _TABLE_BYTES >> (n + 4))
    return rows - rows % 3 if rows >= 3 else rows


def _pair_phase(pair: np.ndarray, s: float, out: np.ndarray) -> None:
    """``exp(-i s pair)`` written into ``out``."""
    out.real = 0.0
    np.multiply(pair, -s, out=out.imag)
    np.exp(out, out=out)


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
    uniform drive rotation ``R_x(2 theta)`` on every qubit with
    ``theta = x omega / 2``, and the other half phase. The state is carried
    in the twisted frame ``phi = i**(-|z|) psi``: diagonals commute with the
    twist, and since ``S^-1 R_x(2 theta) S = [[cos, sin], [-sin, cos]]``
    for the phase gate ``S = diag(1, i)``, the rotation there is real. It
    is a tensor product over qubits, so it is applied as one float64 matrix
    product per qubit block on the state's real view (see
    ``_rotation_index`` and ``_rotation_calls``). The block matrices of the
    three triple-jump positions are the rows of one float64 array held for
    the whole run (``_substep_matrices``). A substep whose three angles
    differ from the ones last filled refills all of them with one ``take``
    from its three rows of the block sizes' rotation tables, set side by
    side; constant-drive stretches fill none. At n = 6 that ``take`` takes
    1.2 us, against 6.4 us for the six per-matrix ``take``s it replaces.

    Every stage is one multiply by a row of a phase table, then the
    rotation. A row holds one stage's closing half phase merged with the
    next one's opening half; rows are filled in bulk for a group of stages:
    one ``take`` of their popcount phases over the excitation counts, then
    one same-shape multiply by a block that holds, for each row, the
    segment's pair phase at its triple-jump position (``(w1 + w1) h / 2``
    at the first position, ``(w1 + w0) h / 2`` at the other two); each
    segment tiles its two pair phases into that block once. Each segment
    opens with one multiply of the state by the pair phase that takes the
    previous segment's closing half to the ``w1 h / 2`` its first row
    assumes; the last phase also untwists the state. The table holds
    ``_TABLE_BYTES`` of rows, at least one, in multiples of 3 from 3 up
    (``_table_rows``).
    """
    step = real("step", step, positive=True)
    n = system.n
    pair, count = system.pair_energy, system.excitation_count
    k = np.arange(n + 1)
    buffers = (np.zeros(1 << n, dtype=np.complex128), np.empty(1 << n, dtype=np.complex128))
    buffers[0][0] = 1.0  # the all-ground state is its own twist
    bounds = _block_bounds(n)
    # per triple-jump position: one matrix per block kind, all rows of one
    # held array, and the rotation's calls starting from either buffer
    sizes, index, held, matrices = _substep_matrices(
        {(hi - lo, lo > 0 and hi == n) for lo, hi in zip(bounds, bounds[1:])}
    )
    calls = [[_rotation_calls(bounds, m, buffers[i], buffers[1 - i]) for i in (0, 1)] for m in matrices]
    built = None  # the substep angles the held matrices were last filled for
    swap = (len(bounds) - 1) % 2
    current = 0  # index of the buffer holding the state
    # one row of fused diagonal phases per stage, for a group of stages
    # within a chunk
    table = np.empty((_table_rows(n), 1 << n), dtype=np.complex128)
    rows = list(table)
    # row i: the segment's pair phase at triple-jump position i % 3. With
    # three or more table rows every group starts at position 0; with one or
    # two it starts anywhere, and the group's rows are a slice of two or four
    tiled = np.empty((len(rows) if len(rows) >= 3 else 2 * len(rows), 1 << n), dtype=np.complex128)
    spread = np.minimum(np.arange(2, len(tiled)) % 3, 1)
    pattern = tiled[:2]  # positions 0 and 1
    # the last stage's closing half phase, still to be applied: x / 2 for
    # the pair phase and x * delta / 2 for the popcount phase
    carry_s = carry_a = 0.0
    # per stage of a chunk: its midpoint from the chunk's start and its half
    # length, in substeps (built here, not at import, so that runs without
    # dynamics touch none of the numpy code behind them)
    offsets = (np.arange(_CHUNK)[:, None] + _MIDPOINTS).ravel()
    halves = np.tile(0.5 * _WEIGHTS, _CHUNK)
    times = schedule.breakpoint_times
    for t0, t1 in zip(times, times[1:]):
        substeps = max(1, math.ceil((t1 - t0) / step))
        h = (t1 - t0) / substeps
        outer, inner = h * halves[:2]
        # bring the last closing half to the w1 h / 2 the first row assumes
        _pair_phase(pair, carry_s - outer, pattern[0])
        np.multiply(buffers[current], pattern[0], out=buffers[current])
        _pair_phase(pair, outer + outer, pattern[0])
        _pair_phase(pair, outer + inner, pattern[1])
        pattern.take(spread, axis=0, out=tiled[2:], mode="clip")
        for first in range(0, substeps, _CHUNK):
            stages = 3 * (min(first + _CHUNK, substeps) - first)
            mid = t0 + (first + offsets[:stages]) * h
            half_s = h * halves[:stages]
            theta = half_s * schedule.omega_at(mid)
            half_a = half_s * schedule.delta_at(mid)
            opening_a = np.concatenate(([carry_a], half_a[:-1])) + half_a
            detuning = np.multiply.outer(opening_a, 1j * k)
            np.exp(detuning, out=detuning)
            thetas = theta.tolist()
            tables = None  # the chunk's rotation tables, once a substep needs them
            for j in range(0, stages, len(rows)):
                r = min(len(rows), stages - j)
                detuning[j : j + r].take(count, axis=1, out=table[:r], mode="clip")
                # chunk stage j sits at triple-jump position j % 3; a
                # two-row block's second row serves positions 1 and 2
                o = min(j % 3, len(tiled) - r)
                np.multiply(table[:r], tiled[o : o + r], out=table[:r])
                for i, row in enumerate(rows[:r], j):
                    psi = buffers[current]
                    psi *= row
                    position = i % len(_WEIGHTS)
                    if position == 0 and thetas[i : i + 3] != built:
                        built = thetas[i : i + 3]
                        if tables is None:
                            tables = np.concatenate([_rotation_table(theta, b) for b in sizes], axis=1)
                        # mode="clip" lets numpy write into out directly
                        tables[i : i + 3].take(index, out=held, mode="clip")
                    for product, right, out in calls[position][current]:
                        product(right, out)
                    current ^= swap
            carry_s, carry_a = float(half_s[-1]), float(half_a[-1])
    untwist = np.array([1, 1j, -1, -1j])[k % 4]
    (np.exp(1j * carry_a * k) * untwist).take(count, out=rows[0], mode="clip")
    _pair_phase(pair, carry_s, pattern[0])
    rows[0] *= pattern[0]
    psi = buffers[current]
    psi *= rows[0]
    return QuantumState(psi)


def _sole_thread() -> bool:
    """Whether this process runs one thread, native ones included; False
    where ``/proc`` cannot tell, as on macOS and Windows.

    Forking a process with other threads is unsafe, and a BLAS pool's
    threads count too: OpenBLAS starts one per CPU unless its thread count
    is pinned, and two processes' pools on the same CPUs made the overlapped
    passes of an n = 14 anneal several times slower than serial ones.
    """
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _available_memory() -> int:
    """The bytes the kernel reports as available (``MemAvailable`` in
    ``/proc/meminfo``), or 0 where it cannot tell."""
    try:
        with open("/proc/meminfo", "rb") as meminfo:
            for line in meminfo:
                if line.startswith(b"MemAvailable:"):
                    return int(line.split()[1]) << 10
    except OSError:
        pass
    return 0


def _first_passes(system: RydbergSystem, schedule: Schedule, h: float) -> tuple[QuantumState, QuantumState]:
    """``evolve``'s two passes that always run, at steps ``h`` and ``h / 2``.

    The coarse pass runs in a child made with ``os.fork`` while this process
    runs the fine one; the child writes its amplitudes into an anonymous
    shared mapping made before the fork and leaves through ``os._exit``. A
    forked process shares no GIL, so the two overlap even where threads
    could not. Where a fork is not safe or not useful, both passes run here,
    one after the other: when another thread runs (``_sole_thread``), when
    this process may run on fewer than two CPUs, when the two passes'
    working sets (``_PASS_BYTES`` per amplitude each) would not fit in the
    memory the kernel reports as available, or when the mapping or
    ``os.fork`` is refused. The states are the same bits either way. Any
    exception in the fine pass, KeyboardInterrupt included, kills and reaps
    the child before it propagates. If the child's exit status is not 0,
    its pass runs again here, which raises the child's error with its own
    type or gives the same bits.
    """
    pid = None
    if (
        _sole_thread()
        and len(os.sched_getaffinity(0)) >= 2
        and _available_memory() >= 2 * _PASS_BYTES * (1 << system.n)
    ):
        try:
            shared = mmap.mmap(-1, 16 << system.n)
            pid = os.fork()
        except OSError:
            pass
    if pid is None:
        return propagate(system, schedule, h), propagate(system, schedule, h / 2.0)
    coarse = np.frombuffer(shared, dtype=np.complex128)
    if pid == 0:
        status = 1
        try:
            coarse[:] = propagate(system, schedule, h).amplitudes
            status = 0
        finally:
            os._exit(status)
    try:
        fine = propagate(system, schedule, h / 2.0)
        status = os.waitpid(pid, 0)[1]
    except BaseException:
        os.kill(pid, _SIGKILL)
        os.waitpid(pid, 0)
        raise
    if status != 0:
        return propagate(system, schedule, h), fine
    return QuantumState(coarse), fine


def evolve(system: RydbergSystem, schedule: Schedule) -> QuantumState:
    """Anneal from the all-ground state, starting at a 1e-3 us step and
    halving it until one more halving moves the final state by less than
    ``TOLERANCE`` (1e-6) in 2-norm.

    The first two passes always run, and run side by side where they can
    (``_first_passes``); later ones run here, one at a time. Returns the
    finer of the last two passes. Raises IntegrationFailure if the step
    would have to fall below 1e-5 us before converging.
    """
    h = min(_INITIAL_STEP, schedule.duration)
    coarse, fine = _first_passes(system, schedule, h)
    while True:
        if float(np.linalg.norm(fine.amplitudes - coarse.amplitudes)) < TOLERANCE:
            return fine
        if h / 4.0 < _MIN_STEP:
            raise IntegrationFailure(
                f"step-halving residual still above {TOLERANCE} at step {h / 2.0} us (floor {_MIN_STEP} us)"
            )
        h /= 2.0
        coarse = fine
        fine = propagate(system, schedule, h / 2.0)


def _random():
    """``numpy.random``, imported so that a run that seeds its generator does
    not load OpenSSL.

    numpy's ``bit_generator`` imports ``secrets``, which imports ``hmac`` and
    with it ``_hashlib`` and libcrypto, only for ``secrets.randbits``, which
    draws the entropy of an unseeded generator. When neither module is
    loaded yet, ``numpy.random`` is imported under a stand-in ``secrets``
    whose ``randbits`` is what the stdlib defines it as,
    ``random.SystemRandom().getrandbits``. The stand-in is in
    ``sys.modules`` only for that one import; a later ``import secrets``
    loads the stdlib module.
    """
    if "numpy.random" in sys.modules or "secrets" in sys.modules:
        return np.random
    stand_in = types.ModuleType("secrets")
    stand_in.randbits = random.SystemRandom().getrandbits
    sys.modules["secrets"] = stand_in
    try:
        import numpy.random
    finally:
        del sys.modules["secrets"]
    return numpy.random


def sample(state: QuantumState, shots: int, seed: int) -> dict[str, int]:
    """Projective-measurement statistics: a multinomial draw over |a_z|^2,
    as the count of every observed bitstring, in canonical order.

    A single generator call from a fixed seed makes the counts a pure
    function of ``(state, shots, seed)``.
    """
    shots, seed = integer("shots", shots, 1, MAX_SHOTS), integer("seed", seed, 0)
    p = state.probabilities()
    total = float(p.sum())
    _check_norm(math.sqrt(total))
    counts_vec = _random().default_rng(seed).multinomial(shots, p / total)
    n = state.n
    return {to_bitstring(int(z), n): int(counts_vec[z]) for z in np.flatnonzero(counts_vec)}
