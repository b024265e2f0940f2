"""Machine-speed probe: makes timings comparable across a noisy shared host.

On a shared two-core virtual machine the same code runs 15-35% slower for
stretches of ten seconds or more while neighbours are busy, so two runs of
one program can differ by more than the changes this benchmark must see.  The
slowdown hits exact ``Fraction`` arithmetic and its allocations much as it
hits lbldg.  The worker therefore runs ``probe`` (fixed ``Fraction`` and dict
work, about 5 ms) between items, at most every ``EVERY_S`` seconds, and
divides each item's wall time by the probe's slowdown around it:

    normalized = wall * REFERENCE_S / mean(probe before item, probe after item)

Every time metric is reported in these reference-speed units; the raw wall
times are kept in the run record.  The probe is benchmark code, so no change
to lbldg can alter it.
"""

import time
from fractions import Fraction

# probe time on a quiet host (Intel Xeon at 2.0 GHz, Python 3.11.7)
REFERENCE_S = 0.005
EVERY_S = 0.1


def probe():
    """Time one fixed unit of Fraction and dict work, in seconds."""
    start = time.perf_counter()
    terms = [Fraction(k, 6) for k in range(1, 29)]
    acc = {}
    for x in terms:
        for y in terms:
            e = x + y
            acc[e] = acc.get(e, 0) + x * y
    return time.perf_counter() - start


def normalize(items, probes):
    """Scale item wall times to reference speed.

    `items` holds (wall_s, index of the last probe before the item); `probes`
    holds probe durations, and some probe follows every item."""
    return [
        wall * REFERENCE_S * 2 / (probes[before] + probes[before + 1])
        for wall, before in items
    ]


class Meter:
    """Times a sequence of steps with probes between them.

    ``step(wall)`` records one step's wall time and probes if ``EVERY_S`` has
    passed since the last probe; ``spent`` estimates the reference-speed time
    so far from the latest probe; ``finish`` probes once more and returns the
    steps' normalized times."""

    def __init__(self):
        self.probes = [probe()]
        self.last = time.perf_counter()
        self.timed = []
        self.spent = 0.0

    def step(self, wall):
        self.timed.append((wall, len(self.probes) - 1))
        self.spent += wall * REFERENCE_S / self.probes[-1]
        if time.perf_counter() - self.last >= EVERY_S:
            self.probes.append(probe())
            self.last = time.perf_counter()

    def finish(self):
        self.probes.append(probe())
        return normalize(self.timed, self.probes)

    @property
    def walls(self):
        return [wall for wall, _ in self.timed]
