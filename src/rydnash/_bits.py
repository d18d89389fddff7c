"""Bit conventions and the exhaustive size guard shared across the package.

Bitstrings are big-endian in node order: node 0 is the leftmost character
(most significant bit) and '1' marks a contributing agent or Rydberg-excited
atom. A subset of nodes passes between modules as such a bitstring.
Integer basis indices, used only as array subscripts, follow the same
convention; :func:`to_bitstring` and :func:`from_bitstring` convert both ways.
"""

from __future__ import annotations

import reprlib
from contextlib import suppress
from typing import Sequence

from .errors import InvalidInput, TooLarge

#: Largest node count for which any exhaustive search or 2**n table is built:
#: the Nash sweep's kernel ``game._rule_supports``, ``indsets.enumerate_mis``
#: and the Hamiltonian tables in ``dynamics.RydbergSystem`` each refuse a
#: larger graph with TooLarge.
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
