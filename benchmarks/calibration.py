"""Fixed pieces of work, apart from the program, that measure how fast the
shared host runs at a given moment.

The benchmark runs one before the first case of a timed pass, right before
the top case and after the last case of every round, and after any case
that ends half a second or more after the last calibration.  It reports
each case's time at a fixed reference speed: its time times the kind's
reference time over the mean of the two calibrations around it.  On a host
whose speed moves by half in phases of seconds to minutes, that takes the
phase out of the figures and leaves the program's own cost.  A change to
the program moves the cases and not the calibration, so it shows in full.

Host phases do not slow every kind of work alike: pure-Python code that
makes and drops many small objects slows in step with the ladders of
`counting` and `direct`, and hardly at all with the lattice counts at large
S, which slow in step with numpy passes over freshly made large arrays.  So
there are two kinds, and each workload names the one it is made of:

  objects  small objects made, hashed into a set and sorted, integer gcds
           and exact rational sums (the fraction enumeration, the pair
           scan, the direct accumulation, the Python side of the counts)
  arrays   integer grids as large as a disc at S = 512, made afresh, and
           masked passes over them (the lattice counts of the region specs)

Neither uses anything of the program.  The cyclic collector is off while a
calibration runs, so its time does not hang on the objects the program
holds.  The arrays kind allocates its grids as the lattice counts do, since
making large arrays is part of what slows under load; the allocator's
state it meets is that of the timed pass, which the program's own counts
keep the same from round to round.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy

# about the median time of each kind on the host the baseline was measured
# on (Intel Xeon, 2.1 GHz, two cores of a shared host)
REFERENCE_S = {"objects": 0.04, "arrays": 0.03}

POINTS = 15000
FRESH = 10000
FRACTIONS = 600
RADIUS, SHIFTS = 512, 3


@dataclass(frozen=True, slots=True)
class _Point:
    x: int
    y: int


class Calibration:
    def __init__(self, kind: str):
        self.reference_s = REFERENCE_S[kind]
        self.work = {"objects": self._objects, "arrays": _arrays}[kind]
        if kind == "objects":
            self.points = [_Point((k * 7919) % 1009 - 504, k % 97) for k in range(POINTS)]

    def __call__(self) -> float:
        """Seconds the work takes now."""
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.work()
            return time.perf_counter() - t0
        finally:
            gc.enable()

    def _objects(self) -> None:
        order = sorted(self.points, key=lambda p: (p.x * p.x + p.y * p.y, p.x))
        sum(gcd(p.x * p.x + p.y * p.y, 3 * p.x + p.y) for p in order)
        seen, fresh = set(), []
        for k in range(FRESH):
            p = _Point((k * 7919) % 1009 - 504, (k * 31) % 97)
            if p not in seen:
                seen.add(p)
                fresh.append(p)
        fresh.sort(key=lambda p: (p.y, p.x))
        total = Fraction(0)
        for k in range(1, FRACTIONS):
            total += Fraction(1, k * k + 1)


def _arrays() -> None:
    """Count the points of the disc of radius RADIUS outside each of SHIFTS
    shifted discs."""
    r = numpy.arange(-RADIUS, RADIUS + 1)
    X, Y = numpy.meshgrid(r, r)
    R2 = RADIUS * RADIUS
    for d in range(1, SHIFTS + 1):
        outside = (X * X + Y * Y <= R2) & ((X + d) ** 2 + (Y - d) ** 2 > R2)
        int(numpy.count_nonzero(outside))
