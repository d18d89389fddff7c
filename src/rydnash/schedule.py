"""Piecewise-linear drive waveforms and hardware checks for them.

Breakpoint times are in microseconds, values in rad/us. Evaluation between
breakpoints is linear interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintViolation, InvalidInput, pairs, real
from .geometry import Violation

Waveform = tuple[tuple[float, float], ...]

# Reference annealing ramp over 4 us at peak 7.27 rad/us: the detuning sweeps
# from fully negative to fully positive with a flat zero crossing, while the
# drive ramps on early and off only at the very end. The two interior drive
# breakpoints at constant value are kept verbatim; interpolation is unaffected.
_OMEGA_REF: Waveform = ((0.0, 0.0), (0.25, 1.0), (1.25, 1.0), (1.35, 1.0), (3.75, 1.0), (4.0, 0.0))
_DELTA_REF: Waveform = ((0.0, -1.0), (0.25, -1.0), (1.25, 0.0), (1.35, 0.0), (3.75, 1.0), (4.0, 1.0))
_REF_DURATION = 4.0
_REF_PEAK = 7.27  # rad/us

# Waveform limits of the device in Ebadi et al., Science 376 (2022),
# arXiv:2202.09372: evolution time in us, drive and |detuning| in rad/us.
MAX_EVOLUTION_TIME = 4.0
MAX_RABI = 15.8
MAX_DETUNING = 125.0


@dataclass(frozen=True)
class Schedule:
    """Drive amplitude and detuning as piecewise-linear breakpoint lists.

    Both waveforms must start at t = 0 and end exactly at ``duration`` with
    strictly increasing times; drive values must be nonnegative.
    """

    omega: Waveform
    delta: Waveform
    duration: float

    def __post_init__(self):
        duration = real("duration", self.duration, positive=True)
        object.__setattr__(self, "duration", duration)
        for name in ("omega", "delta"):
            wf = pairs(getattr(self, name), f"{name} breakpoint", ("time", "value"))
            object.__setattr__(self, name, wf)
            if len(wf) < 2:
                raise InvalidInput(f"{name}: need at least two breakpoints")
            times = [t for t, _ in wf]
            if times[0] != 0.0:
                raise InvalidInput(f"{name}: first breakpoint must be at t=0, got {times[0]}")
            if times[-1] != duration:
                raise InvalidInput(f"{name}: last breakpoint must be at t=duration={duration}, got {times[-1]}")
            if any(a >= b for a, b in zip(times, times[1:])):
                raise InvalidInput(f"{name}: breakpoint times must be strictly increasing")
        if any(v < 0 for _, v in self.omega):
            raise InvalidInput("omega values must be nonnegative")

    @cached_property
    def _tables(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Breakpoint times and values of each waveform, keyed by its name."""
        return {name: tuple(map(np.asarray, zip(*getattr(self, name)))) for name in ("omega", "delta")}

    def _at(self, name: str, t):
        out = np.interp(t, *self._tables[name])
        return float(out) if np.isscalar(t) else out

    def omega_at(self, t):
        """Drive amplitude at time ``t`` (scalar or array)."""
        return self._at("omega", t)

    def delta_at(self, t):
        """Detuning at time ``t`` (scalar or array)."""
        return self._at("delta", t)

    @property
    def final_detuning(self) -> float:
        """Δ_f, the detuning at ``duration``, where the readout happens."""
        return self.delta[-1][1]

    @cached_property
    def breakpoint_times(self) -> tuple[float, ...]:
        """Union of both waveforms' breakpoint times, sorted."""
        return tuple(sorted({t for t, _ in self.omega} | {t for t, _ in self.delta}))


def default_schedule(duration: float = _REF_DURATION) -> Schedule:
    """The reference annealing ramp, with its times scaled to ``duration``.

    Raises ConstraintViolation when ``duration`` exceeds
    ``MAX_EVOLUTION_TIME``.
    """
    duration = real("duration", duration, positive=True)
    if duration > MAX_EVOLUTION_TIME:
        raise ConstraintViolation(f"duration {duration} us exceeds the {MAX_EVOLUTION_TIME} us hardware limit")
    s = duration / _REF_DURATION
    omega = tuple((t * s, v * _REF_PEAK) for t, v in _OMEGA_REF)
    delta = tuple((t * s, v * _REF_PEAK) for t, v in _DELTA_REF)
    return Schedule(omega, delta, duration)


def validate_schedule(schedule: Schedule) -> tuple[Violation, ...]:
    """Every waveform extent that breaks the hardware limits.

    Piecewise-linear extrema occur at breakpoints, so checking those covers
    the whole waveform.
    """
    violations = []
    if schedule.duration > MAX_EVOLUTION_TIME:
        violations.append(Violation("duration", (), schedule.duration, MAX_EVOLUTION_TIME))
    peak_omega = max(v for _, v in schedule.omega)
    if peak_omega > MAX_RABI:
        violations.append(Violation("rabi_amplitude", (), peak_omega, MAX_RABI))
    peak_delta = max(abs(v) for _, v in schedule.delta)
    if peak_delta > MAX_DETUNING:
        violations.append(Violation("detuning_amplitude", (), peak_delta, MAX_DETUNING))
    return tuple(violations)
