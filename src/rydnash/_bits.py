"""Bit conventions shared by the game, set, and dynamics modules.

Bitstrings are big-endian in node order: node 0 is the leftmost character
(most significant bit) and '1' marks a contributing agent or Rydberg-excited
atom. A subset of nodes passes between modules as such a bitstring.
Integer basis indices, used only as array subscripts, follow the same
convention; :func:`to_bitstring` and :func:`from_bitstring` convert both ways.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .errors import InvalidInput


def node_mask(node: int, n: int) -> int:
    """Integer with only ``node``'s bit set."""
    return 1 << (n - 1 - node)


def to_bitstring(index: int, n: int) -> str:
    return format(index, f"0{n}b")


def from_bitstring(bits: str, n: int) -> int:
    """Basis index of ``bits``; InvalidInput unless it is a string of ``n``
    characters, each '0' or '1'."""
    if not (isinstance(bits, str) and len(bits) == n > 0 and set(bits) <= {"0", "1"}):
        raise InvalidInput(f"expected a bitstring of length {n} over '0'/'1', got {bits!r}")
    return int(bits, 2)


def index_of(members, n: int) -> int:
    """Basis index with exactly the given nodes' bits set."""
    z = 0
    for i in members:
        z |= node_mask(i, n)
    return z


def rule_supports(neighbors: Sequence[Sequence[int]], rule: np.ndarray) -> tuple[str, ...]:
    """Every support on ``n = len(neighbors)`` nodes at which each node passes
    the local rule, as bitstrings in canonical order.

    Node ``v`` passes when ``rule[own_v, k_v]`` holds, with ``own_v`` 1 for a
    member and ``k_v`` its neighbors inside the support; ``rule`` is a
    ``(2, n + 1)`` boolean table.

    Meet in the middle: every index splits into high and low bits,
    ``z = hi * 2**low + lo`` with ``low = n // 2``, and so does each count.
    One ``bitwise_count`` per half tabulates every node's neighbor and own
    counts on every half assignment (``n * 2**ceil(n/2)`` entries). A half
    assignment is dropped when one of its own nodes can reach no passing
    count: no ``k`` from its count in this half to that plus its degree into
    the other half has ``rule[own, k]``. The rule is evaluated only on the
    surviving grid, one node at a time. Grid rows of equal high-half counts
    hold equal values, so each node's rule runs once per combination of its
    high-half own and neighbor counts, and the rows are gathered into a
    buffer: with nothing dropped, the grid is all ``2**n`` indices and holds
    two bytes per index.
    """
    n = len(neighbors)
    low = n // 2
    stride = n + 2  # a row of rule's n + 1 counts, plus one for its prefix counts
    masks = [index_of(nbrs, n) for nbrs in neighbors] + [node_mask(v, n) for v in range(n)]
    # keys[half][v] = own * stride + count for node v on every assignment of
    # that half: own is v's bit (0 outside the node's own half) and count its
    # neighbors there, so a node's two keys add up to its flat index into rule
    # (uint8: at most 2 * stride for the n <= 64 that 64-bit masks allow)
    keys = []
    for shift, bits in ((low, n - low), (0, low)):
        part = np.array([(m >> shift) & ((1 << bits) - 1) for m in masks], dtype=np.uint64)
        counts = np.bitwise_count(part[:, None] & np.arange(1 << bits, dtype=np.uint64))
        keys.append(counts[n:] * stride + counts[:n])
    # rule[own, k] holds for some k in a .. b - 1 iff reached[own, b] > reached[own, a]
    reached = np.array([list(itertools.accumulate(map(int, row), initial=0)) for row in rule]).ravel()
    alive = []
    for half, nodes in enumerate((slice(0, n - low), slice(n - low, n))):
        key = keys[half][nodes]
        other = keys[1 - half][nodes, -1:]  # degree into the other half
        alive.append(np.flatnonzero((reached[key + other + 1] > reached[key]).all(axis=0)))
    hi, lo = alive
    if not (hi.size and lo.size):
        return ()
    hi_key, lo_key = keys[0][:, hi].astype(np.intp), keys[1][:, lo]  # take indexes by intp
    flat = np.zeros((2, stride), dtype=bool)
    flat[:, :-1] = rule
    flat = flat.ravel()
    keep = np.ones((hi.size, lo.size), dtype=bool)
    verdict = np.empty_like(keep)
    for v, top in enumerate(hi_key.max(axis=1) + 1):
        rows = flat[np.arange(top, dtype=lo_key.dtype)[:, None] + lo_key[v]]
        keep &= np.take(rows, hi_key[v], axis=0, out=verdict, mode="clip")
    h, l = np.unravel_index(np.flatnonzero(keep), keep.shape)
    return tuple(to_bitstring(int(z), n) for z in hi[h] * (1 << low) + lo[l])


def popcounts(n: int) -> np.ndarray:
    """Number of set bits for every basis index ``0 .. 2**n - 1``."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
