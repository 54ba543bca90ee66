"""Machine-speed probe: a fixed reference computation timed between ops.

The speed of a shared 2-core host drifts by up to a factor of two, in
phases that last from seconds to minutes, and CPU time drifts with wall
time, so neither tells a slower program from a slower machine.  The probe
runs `reference()` -- pure Python written here, sharing no code with
privavg, that allocates small frozen objects and walks lists and tuples the
way the simulator does -- every PROBE_EVERY_S seconds of a timed phase.  Times multiplied by `scale()` are in reference-speed seconds: what
they would have been had the machine run `reference()` in NOMINAL_S.
"""

from __future__ import annotations

import gc
import random
import signal
from dataclasses import dataclass
from statistics import mean
from time import perf_counter

NOMINAL_S = 0.005  # one reference() call on a quiet 2-core host, CPython 3.11
PROBE_EVERY_S = 0.25
MIN_SAMPLES = 8


@dataclass(frozen=True, slots=True)
class _Packet:
    src: int
    dst: int
    y: int
    z: int


def reference() -> int:
    """60 nodes pass half their mass to a random node for 60 rounds."""
    rng = random.Random(7)
    nodes = [(i, 3 * i, 1) for i in range(60)]
    sent: list[_Packet] = []
    for _ in range(60):
        inbox: list[list[_Packet]] = [[] for _ in nodes]
        for p in sent:
            inbox[p.dst].append(p)
        sent = []
        after = []
        for i, y, z in nodes:
            for p in inbox[i]:
                y += p.y
                z += p.z
            sent.append(_Packet(i, rng.randrange(60), y // 2, z))
            after.append((i, y - y // 2, z))
        nodes = after
    return sum(y for _i, y, _z in nodes) + sum(p.y for p in sent)


class Probe:
    """Samples reference() every PROBE_EVERY_S seconds of wall time.

    An interval timer raises SIGALRM and the handler runs the sample, so
    samples fall inside long ops too, evenly spread over the phase.  `spent`
    is the time the samples took; callers subtract it from what they time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, _signum, _frame) -> None:
        self.sample()

    def sample(self) -> None:
        # With the collector off, the probe's time does not grow with the
        # number of objects the program under test keeps alive.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference()
            took = perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append(took)
        self.spent += took

    def fill(self) -> None:
        """Top up to MIN_SAMPLES, for phases too short to collect that many."""
        while len(self.samples) < MIN_SAMPLES:
            self.sample()

    def scale(self) -> float:
        return NOMINAL_S / mean(self.samples)
