"""Bit conventions shared by the game, set, and dynamics modules.

Bitstrings are big-endian in node order: node 0 is the leftmost character
(most significant bit) and '1' marks a contributing agent or Rydberg-excited
atom. A subset of nodes passes between modules as such a bitstring.
Integer basis indices, used only as array subscripts, follow the same
convention; :func:`to_bitstring` and :func:`from_bitstring` convert both ways.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

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


def popcount_map(f: Callable[..., np.ndarray], masks: Sequence[int], n: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out[z] = f(popcount(z & masks[0]), popcount(z & masks[1]), ...)``
    for every basis index ``z`` in ``0 .. 2**n - 1``, and return ``out``.

    ``f`` maps integer count arrays elementwise to ``out``'s dtype. Every
    index splits into high and low bits, ``z = hi * 2**(n//2) + lo``, and so
    does each popcount. Rows of equal high-bit counts hold equal values, so
    ``f`` runs once per combination of high-bit counts, on small arrays, and
    the rows are copied into ``out``: no other 2**n-long array is made.
    """
    low = n // 2
    hi = np.arange(1 << (n - low), dtype=np.uint64)
    lo = np.arange(1 << low, dtype=np.uint64)
    hi_counts = [np.bitwise_count(hi & np.uint64(m >> low)) for m in masks]
    lo_counts = [np.bitwise_count(lo & np.uint64(m & ((1 << low) - 1))) for m in masks]
    shape = tuple(int(c.max()) + 1 for c in hi_counts)
    combos = np.unravel_index(np.arange(math.prod(shape)), shape)
    rows = f(*(c[:, None] + l for c, l in zip(combos, lo_counts)))
    np.take(rows, np.ravel_multi_index(hi_counts, shape), axis=0, out=out.reshape(hi.size, lo.size))
    return out


def popcounts(n: int) -> np.ndarray:
    """Number of set bits for every basis index ``0 .. 2**n - 1``."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
