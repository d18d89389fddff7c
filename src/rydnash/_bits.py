"""Bit conventions and the exhaustive size guard shared by the game, set,
and dynamics modules, and the Nash sweep's kernel, :func:`rule_supports`.

Bitstrings are big-endian in node order: node 0 is the leftmost character
(most significant bit) and '1' marks a contributing agent or Rydberg-excited
atom. A subset of nodes passes between modules as such a bitstring.
Integer basis indices, used only as array subscripts, follow the same
convention; :func:`to_bitstring` and :func:`from_bitstring` convert both ways.
"""

from __future__ import annotations

import itertools
import reprlib
from contextlib import suppress
from typing import Sequence

import numpy as np

from .errors import InvalidInput, TooLarge

#: Largest node count for which any exhaustive search or 2**n table is built:
#: :func:`rule_supports` (the Nash sweep), ``indsets.enumerate_mis`` and the
#: Hamiltonian tables in ``dynamics.RydbergSystem`` each refuse a larger
#: graph with TooLarge.
EXHAUSTIVE_LIMIT = 24


def check_size(n: int) -> None:
    """TooLarge when ``n`` nodes exceed :data:`EXHAUSTIVE_LIMIT`."""
    if n > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"{n} nodes exceeds the exhaustive limit of {EXHAUSTIVE_LIMIT}")


def to_bitstring(index: int, n: int) -> str:
    return format(index, f"0{n}b")


def from_bitstring(bits: str, n: int) -> int:
    """Basis index of ``bits``; InvalidInput unless it is a string of ``n``
    characters, each '0' or '1'."""
    if not (isinstance(bits, str) and len(bits) == n > 0 and set(bits) <= {"0", "1"}):
        raise InvalidInput(f"expected a bitstring of length {n} over '0'/'1', got {reprlib.repr(bits)}")
    return int(bits, 2)


def check_bitstrings(family: Sequence[str], n: int) -> None:
    """InvalidInput, as :func:`from_bitstring` words it, unless every item of
    ``family`` is a bitstring that :func:`from_bitstring` accepts. One pass
    over the joined family, not one call per item, when all of them are."""
    with suppress(TypeError, UnicodeError):  # an item that is no string, or no text
        text = "".join(family).encode()
        if n > 0 and set(map(len, family)) <= {n} and not text.translate(None, b"01"):
            return
    for bits in family:
        from_bitstring(bits, n)


#: Nodes whose half assignments :func:`rule_supports` tests at once for a
#: reachable passing count. The test gathers two 64-bit words per node and
#: assignment, so on the n = 21 King's layouts one sweep peaks under
#: tracemalloc at 118, 262 and 486 KiB for 1, 4 and all 11 nodes at a time;
#: 4 was the fastest of 1, 2, 3, 4 and 8 there on a 2-vCPU VM (0.76 ms a sweep,
#: against 0.88 ms for 1).
_PRUNE_NODES = 4


def rule_supports(neighbors: Sequence[Sequence[int]], rule: np.ndarray) -> tuple[str, ...]:
    """Every support on ``n = len(neighbors)`` nodes at which each node passes
    the local rule, as bitstrings in canonical order.

    Node ``v`` passes when ``rule[own_v, k_v]`` holds, with ``own_v`` 1 for a
    member and ``k_v`` its neighbors inside the support; ``rule`` is a
    ``(2, n + 1)`` boolean table. ``game.enumerate_specialized_nash`` is the
    only caller in the package; ``indsets.enumerate_mis`` searches on its
    own, so a fault here shows as a Nash family that differs from the
    maximal sets.

    Meet in the middle: every index splits into high and low bits,
    ``z = hi * 2**low + lo`` with ``low = n // 2``, and so does each count.
    Each half has one table of every node's own bit and neighbor count on
    every assignment of that half (``n * 2**ceil(n/2)`` one-byte entries),
    built by doubling: the entries for ``z + 2**b`` are those for ``z`` plus
    bit ``b``'s own and neighbor bits, one in-place uint8 add per bit of the
    half. A half assignment is dropped when one of its own nodes can reach
    no passing count: no ``k`` from its count in this half to that plus its
    degree into the other half has ``rule[own, k]``, tested for a few nodes
    at a time. The rule is evaluated only on the surviving grid, one node at
    a time. Grid rows of equal high-half counts hold equal values, so each
    node's rule runs once per combination of its high-half own and neighbor
    counts, and the rows are gathered into a buffer: with nothing dropped,
    the grid is all ``2**n`` indices and holds two bytes per index. TooLarge
    above :data:`EXHAUSTIVE_LIMIT` nodes.
    """
    n = len(neighbors)
    check_size(n)
    low = n // 2
    stride = n + 2  # a row of rule's n + 1 counts, plus one for its prefix counts
    # keys[half][v] = own * stride + count for node v on every assignment of
    # that half: own is v's bit (0 outside the node's own half) and count its
    # neighbors there, so a node's two keys add up to its flat index into rule
    # (uint8: below 2 * stride). Bit b of the half is node u's, so setting it
    # adds stride at u and one at each node that u neighbors.
    keys = []
    for shift, bits in ((low, n - low), (0, low)):
        table = np.zeros((n, 1 << bits), dtype=np.uint8)
        for b in range(bits):
            u = n - 1 - shift - b
            step = np.array([(u in nbrs) + stride * (v == u) for v, nbrs in enumerate(neighbors)], dtype=np.uint8)
            np.add(table[:, : 1 << b], step[:, None], out=table[:, 1 << b : 2 << b])
        keys.append(table)
    # rule[own, k] holds for some k in a .. b - 1 iff reached[own, b] > reached[own, a]
    reached = np.array([list(itertools.accumulate(map(int, row), initial=0)) for row in rule]).ravel()
    alive = []
    for half, (first, last) in enumerate(((0, n - low), (n - low, n))):
        ok = np.ones(keys[half].shape[1], dtype=bool)
        for v in range(first, last, _PRUNE_NODES):
            nodes = slice(v, min(v + _PRUNE_NODES, last))
            key = keys[half][nodes]
            other = keys[1 - half][nodes, -1:]  # degree into the other half
            ok &= (reached[key + other + 1] > reached[key]).all(axis=0)
        alive.append(np.flatnonzero(ok))
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

