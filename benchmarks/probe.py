"""Host-speed probes: scale the benchmark's times to one fixed host speed.

The benchmark runs on a few cores of a shared host, and that host switches
between a fast and a slow state that lasts from about a second to minutes.
In the slow state the same ``propagate`` call takes up to 1.9 times as long,
in CPU time as well as in wall time, so two runs of the same code that fall
in different states disagree by far more than any change worth measuring.
A probe timed in another process, or just before and after a pass, does not
see the state the pass ran in; a probe in the same process, between the
program's own steps, does.

A probe is a fixed piece of work shaped like one workload's hot loop,
written here, not imported from the program: split-operator stages on a
64-amplitude state (paper-graphs), the same on 2048 amplitudes
(anneal-chain), or mask sweeps over a 2^18-entry array (classical-sweep).
While a case runs, an interval timer interrupts it and runs one probe in the
same process. A case's slowdown is the mean probe time during it divided by
the probe's reference time, and its time at the reference speed is its own
time, less the probes', divided by that slowdown. Set-up is scaled the same
way, by ``stages6`` probes that a set-up-only child runs right after set-up.
"""

from __future__ import annotations

import functools
import math
import signal
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

SETUP_KIND = "stages6"
SETUP_WINDOW_S = 0.2  # probing time after set-up

_TIMES = np.array([0.0, 0.25, 1.25, 1.35, 3.75, 4.0])
_VALUES = np.array([0.0, 1.0, 1.0, 0.5, 1.0, 0.0])


class _Stages:
    """Second-order split stages on a fixed state of 2**n amplitudes."""

    def __init__(self, n: int):
        rng = np.random.default_rng(n)
        self.n = n
        self.diagonal = rng.random(1 << n)
        self.counts = rng.random(1 << n)
        psi = np.exp(1j * np.arange(1 << n, dtype=float))
        self.psi = psi / np.linalg.norm(psi)

    def run(self, stages: int) -> None:
        psi = self.psi
        for k in range(stages):
            t = 1e-3 * k
            omega = float(np.interp(t, _TIMES, _VALUES))
            delta = float(np.interp(t, _TIMES, _VALUES))
            half_phase = np.exp(-0.5e-3j * (self.diagonal - delta * self.counts))
            psi *= half_phase
            c, s = math.cos(1e-3 * omega), math.sin(1e-3 * omega)
            for i in range(self.n):
                view = psi.reshape(1 << i, 2, -1)
                top = view[:, 0, :].copy()
                view[:, 0, :] = c * top - 1j * s * view[:, 1, :]
                view[:, 1, :] = c * view[:, 1, :] - 1j * s * top
            psi *= half_phase


class _Masks:
    """Pair-mask sweeps over every index of a 2**n-entry array."""

    def __init__(self, n: int):
        self.z = np.arange(1 << n, dtype=np.uint64)
        self.masked = np.empty_like(self.z)  # buffers, so a probe allocates nothing
        self.hit = np.empty(self.z.shape, dtype=bool)
        self.ok = np.empty(self.z.shape, dtype=bool)

    def run(self) -> int:
        self.ok.fill(True)
        for m in (3, 12, 48, 192, 768, 3072, 12288, 49152):
            pair = np.uint64(m)
            np.bitwise_and(self.z, pair, out=self.masked)
            np.not_equal(self.masked, pair, out=self.hit)
            self.ok &= self.hit
        return int(np.count_nonzero(self.ok))


@dataclass(frozen=True)
class Kind:
    work: Callable[[], object]
    ref_s: float  # the probe's time at the reference speed
    interval_s: float  # one probe per interval


# Reference times are about each probe's median on an ordinary minute of the
# 2-vCPU host the bounds were set on, so scaled times stay close to the wall
# times measured there. Probes take about 1 % of a case's time.
# Each probe's state is built on first use, so a child holds only its own.
_stages = functools.cache(_Stages)
_masks = functools.cache(_Masks)
KINDS = {
    "stages6": Kind(lambda: _stages(6).run(10), 1.0e-3, 0.1),
    "stages11": Kind(lambda: _stages(11).run(3), 1.2e-3, 0.1),
    "masks18": Kind(lambda: _masks(18).run(), 2.9e-3, 0.25),
}


def probe(kind: str) -> float:
    """Run one probe; return its wall time in seconds."""
    work = KINDS[kind].work
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def slowdown(kind: str, probe_times) -> float:
    return sum(probe_times) / len(probe_times) / KINDS[kind].ref_s


def probe_for(kind: str, window_s: float) -> list[float]:
    """Probe back to back for ``window_s`` seconds, after one unrecorded
    warm-up probe."""
    probe(kind)
    times = [probe(kind)]
    end = time.perf_counter() + window_s
    while time.perf_counter() < end:
        times.append(probe(kind))
    return times


class Sampler:
    """Runs a probe from a SIGALRM handler once per interval while on.

    The handler runs in the main thread between bytecodes, so a probe never
    interleaves with the program's own numpy calls. ``cost_wall_s`` and
    ``cost_cpu_s`` are the time the handler took, to be taken off the
    interrupted work's own times.
    """

    def __init__(self, kind: str):
        probe(kind)  # warm-up: builds the probe's state
        self.kind = kind
        self.times: list[float] = []
        self.cost_wall_s = 0.0
        self.cost_cpu_s = 0.0

    def _handler(self, signum, frame) -> None:
        c0 = time.process_time()
        t0 = time.perf_counter()
        self.times.append(probe(self.kind))
        self.cost_wall_s += time.perf_counter() - t0
        self.cost_cpu_s += time.process_time() - c0

    def start(self) -> None:
        self.times, self.cost_wall_s, self.cost_cpu_s = [], 0.0, 0.0
        interval = KINDS[self.kind].interval_s
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.times:  # shorter than one interval: probe once now
            self.times.append(probe(self.kind))

    def slowdown(self) -> float:
        return slowdown(self.kind, self.times)
