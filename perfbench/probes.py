"""Fixed probe workloads that read the machine's current speed.

The machine's speed drifts.  A shared 2-vCPU Intel Xeon virtual machine
moved between a fast and a slow state every few seconds to minutes, in CPU
time as well as wall time: a `partition` command took 1.4 s or 2.5 s, a
`table1` command about 6.5 s or 8 s.  The benchmark brackets every timed
event with a probe and scales the event's time by the probe's reference
time over its measured time.

Workloads slow down by different amounts in the slow state, so each has a
probe of its own kind of work.  Measured slow/fast ratios over 80 s:
small numpy contractions 1.41, small-object arithmetic 1.79, interpreter
loop with numpy 1.51.  Each probe's reference time is its time in the
fast state on that machine.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass
from time import perf_counter

import numpy as np


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _timed(kernel) -> tuple[float, float]:
    c0, t0 = cpu_seconds(), perf_counter()
    kernel()
    return perf_counter() - t0, cpu_seconds() - c0


def _loop_and_products() -> None:
    acc = 0.0
    for i in range(400_000):
        acc += (i % 7) * 0.5
    a = np.linspace(0.0, 1.0, 4096).reshape(64, 64)
    for _ in range(200):
        a = np.exp(-(a @ a) / 64.0)


_T = np.linspace(0.0, 1.0, 45 * 45).reshape(45, 45)
_G = _T.T.copy()
_W = np.linspace(1.0, 2.0, 45)


def _small_contractions() -> None:
    for _ in range(500):
        e = np.einsum("ij,jk,k->i", _T, _G, _W, optimize=False)
        e -= _T @ _W


@dataclass(frozen=True)
class _Series:
    lead: int
    c0: float
    c1: float

    def __add__(self, o):
        return _Series(min(self.lead, o.lead), self.c0 + o.c0, self.c1 + o.c1)

    def __mul__(self, o):
        return _Series(self.lead + o.lead, self.c0 * o.c0,
                       self.c0 * o.c1 + self.c1 * o.c0)


def _small_objects() -> None:
    acc = _Series(0, 1.0, 0.0)
    x = _Series(1, 0.5, 1.0)
    for i in range(14_000):
        acc = acc + x * _Series(0, float(i % 5), 1.0)
    rows = [[float(i * j % 7) for j in range(90)] for i in range(90)]
    s = 0.0
    for r in rows:
        for v in r:
            s += v


@dataclass(frozen=True)
class Probe:
    """A probe kernel and its reference wall time in seconds."""

    kernel: object
    reference_s: float

    def __call__(self) -> tuple[float, float]:
        """Wall and CPU seconds of one run of the kernel."""
        return _timed(self.kernel)


LOOP_AND_PRODUCTS = Probe(_loop_and_products, 0.036)
SMALL_CONTRACTIONS = Probe(_small_contractions, 0.061)
SMALL_OBJECTS = Probe(_small_objects, 0.040)
