"""Exception hierarchy shared across the package, and the one check of a
numeric argument or a sequence of number pairs."""

import math
import numbers
from contextlib import suppress


class RydnashError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(RydnashError):
    """Malformed argument of any kind: a number refused by :func:`real` or
    :func:`integer`, a point or breakpoint refused by :func:`pairs`, a
    coincident atom, an undefined blockade radius, a bad waveform or
    bitstring, an agent out of range, a dependent set where an independent
    one is needed, or a state vector of the wrong length or norm."""


def real(name: str, value, positive: bool = False) -> float:
    """``value`` as a Python float: a finite real number (a numpy one
    included), above zero when ``positive``. A bool, a string or any other
    type is refused with InvalidInput naming ``name``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with suppress(OverflowError):  # an int too large for a float
            number = float(value)
            if math.isfinite(number) and (number > 0 or not positive):
                return number
    raise InvalidInput(f"{name} must be a {'positive ' if positive else ''}finite number, got {value!r}")


def integer(name: str, value, low: int) -> int:
    """``value`` as a Python int: an integer (a numpy one included) of at
    least ``low``. A bool, a float, a string or any other type is refused
    with InvalidInput naming ``name``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low:
        return int(value)
    raise InvalidInput(f"{name} must be an integer >= {low}, got {value!r}")


def pairs(value, entry: str, parts: tuple[str, str]) -> tuple[tuple[float, float], ...]:
    """``value`` as a tuple of pairs of Python floats, each checked by
    :func:`real`. A value that is no sequence, or an entry that is no pair,
    is refused with InvalidInput naming ``entry``, and the entry's index
    and ``parts``."""
    try:
        entries = tuple(value)
    except TypeError:
        raise InvalidInput(f"expected a sequence of {entry}s, got {value!r}") from None
    checked = []
    for k, item in enumerate(entries):
        try:
            a, b = item
        except (TypeError, ValueError):
            raise InvalidInput(f"{entry} {k}: expected a ({', '.join(parts)}) pair, got {item!r}") from None
        checked.append((real(f"{entry} {k} {parts[0]}", a), real(f"{entry} {k} {parts[1]}", b)))
    return tuple(checked)


class TooLarge(RydnashError):
    """2**n work refused: node count above ``_bits.EXHAUSTIVE_LIMIT``."""


class IntegrationFailure(RydnashError):
    """Time integration did not converge before reaching the step floor."""


class ConstraintViolation(RydnashError):
    """Requested run breaks a hardware limit; a pipeline run's
    ``RunConfig.validation`` lists every violation."""


class IncompatibleRuns(RydnashError):
    """Attempted to compare results computed on different graphs."""


class ConfigError(RydnashError):
    """Configuration file is missing, malformed, or has unknown fields."""
