"""Host-speed probe, so that timings from a shared machine can be compared.

On a shared virtual machine the whole process runs 20–40% slower for
seconds to minutes at a time, whatever it runs (see bench/README.md). A
probe is a fixed piece of work built only from numpy and the interpreter,
never from `ntfusion`, so no change to the measured code can speed it up. It
runs between the workload's timed steps, outside their timings. A timed step
is then reported in *reference seconds*: its seconds times `REF_S` over the
median probe taken around it. When the machine slows, the step and the
probes around it slow together and the ratio stays put.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median

import numpy as np

# The probe's median duration on the 2-vCPU machine the bounds were measured
# on (bench/README.md). It only sets the scale: a reference second is what a
# second was there. Never change it, nor the probe, between two measurements
# that are compared.
REF_S = 0.008
WINDOW_S = 0.25  # probes this close to a step's interval describe its speed
MIN_PROBES = 3
MIN_GAP_S = 0.05  # `maybe_probe` spacing

_rng = np.random.default_rng(2502_06849)
_MAT = _rng.standard_normal((192, 192)).astype(np.float32)
_VEC = _rng.standard_normal(200_000).astype(np.float32)


def _probe_work() -> float:
    """About 8 ms of the kinds of work ntfusion does: BLAS, sorting,
    elementwise array passes and interpreted loops."""
    acc = 0.0
    for _ in range(15):
        acc += float((_MAT @ _MAT)[0, 0])
        acc += float(np.sort(_VEC[:20_000])[0])
        acc += float((_VEC * 1.5 + 2.0).sum())
        for i in range(1500):
            acc += i * 0.5
    return acc


@dataclass(frozen=True)
class Timed:
    """A timed step: its interval and the seconds it was busy in it (probe
    time inside the interval excluded)."""

    start: float
    end: float
    seconds: float


class Speed:
    """Probes the host between timed steps and scales steps by the probes
    around them. Disabled, it probes nothing and `Clock` measures raw time."""

    def __init__(self) -> None:
        self.enabled = True
        self.probes: list[tuple[float, float]] = []  # (middle, seconds)
        self.probe_total_s = 0.0
        self._last = -float("inf")

    def probe(self) -> None:
        if not self.enabled:
            return
        t0 = time.perf_counter()
        _probe_work()
        t1 = time.perf_counter()
        self.probes.append(((t0 + t1) / 2, t1 - t0))
        self.probe_total_s += t1 - t0
        self._last = t1

    def maybe_probe(self) -> None:
        """Probe unless the last probe ended less than MIN_GAP_S ago."""
        if time.perf_counter() - self._last >= MIN_GAP_S:
            self.probe()

    def warm_up(self, n: int = 5) -> None:
        for _ in range(n):
            self.probe()

    def start(self) -> "Clock":
        return Clock(self)

    def local_probe_s(self, start: float, end: float) -> float:
        """Median probe within WINDOW_S of [start, end]; the MIN_PROBES
        nearest to it when fewer lie there."""
        near = [s for mid, s in self.probes if start - WINDOW_S <= mid <= end + WINDOW_S]
        if len(near) < MIN_PROBES:
            centre = (start + end) / 2
            nearest = sorted(self.probes, key=lambda p: abs(p[0] - centre))[:MIN_PROBES]
            near = [s for _, s in nearest]
        if not near:
            raise RuntimeError("no host-speed probe was taken")
        return median(near)

    def scaled(self, step: Timed) -> float:
        """`step.seconds` in reference seconds."""
        return step.seconds * REF_S / self.local_probe_s(step.start, step.end)


class Clock:
    """Times one step from its creation to `stop`, leaving out the time
    spent in probes run meanwhile."""

    def __init__(self, speed: Speed) -> None:
        self.speed = speed
        self.probe_s0 = speed.probe_total_s
        self.t0 = time.perf_counter()

    def stop(self) -> Timed:
        t1 = time.perf_counter()
        return Timed(self.t0, t1, (t1 - self.t0) - (self.speed.probe_total_s - self.probe_s0))
