"""Host-speed-adjusted clock for the timed runs.

The benchmark's host runs the same code up to about 1.7x slower or faster
from one moment to the next (a fast and a slow mode, switching within a
second at some times and holding for minutes at others), with CPU time equal
to wall time and no cycle counters. A plain wall time then measures the host
as much as the program.

``SpeedClock`` samples the host's speed while the program runs: every
PERIOD_S a SIGALRM handler times REFERENCE_ITERS iterations of a fixed loop
of small matrix products, the same kind of work as the simulator's inner
loop. Between samples the clock advances by the wall time elapsed times
REF_LOOP_S / (that loop's time), so one adjusted second is the time the work
would take on a host where the loop takes REF_LOOP_S. The loop's own time is
not counted. The program's functions are not wrapped or touched.
"""
from __future__ import annotations

import signal
import statistics
import time
from typing import Dict, List, Sequence

import numpy as np

PERIOD_S = 0.05
REFERENCE_ITERS = 100
# scale of an adjusted second: about the loop's time on a 2-vCPU Intel Xeon
# host in its fast mode, so adjusted and wall seconds are close there
REF_LOOP_S = 2.0e-4

_A = np.full((16, 64), 0.5)
_B = np.full((64, 8), 0.25)


def reference_loop() -> float:
    """Seconds for REFERENCE_ITERS small matrix products and Python adds."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(REFERENCE_ITERS):
        total += float((_A @ _B)[0, 0]) + i
    return time.perf_counter() - t0


class SpeedClock:
    """Maps wall-clock times (``time.perf_counter``) to adjusted seconds.

    Use as a context manager around the timed work. ``span(t0, t1)``
    gives the adjusted seconds between two perf_counter readings taken
    inside the block, once the block has ended.
    """

    def __init__(self) -> None:
        # breakpoints of the piecewise-linear map: wall time -> adjusted time
        self._wall: List[float] = []
        self._adj: List[float] = []
        self.loop_s: List[float] = []
        self._busy = False

    def _point(self, wall: float, adj: float) -> None:
        self._wall.append(wall)
        self._adj.append(adj)

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a signal arrived while sampling; skip it
            return
        self._busy = True
        try:
            t = time.perf_counter()
            loop = reference_loop()
            adj = self._adj[-1] + (t - self._wall[-1]) * REF_LOOP_S / loop
            self._point(t, adj)
            # flat while the loop ran: its time is not the program's
            self._point(time.perf_counter(), adj)
            self.loop_s.append(loop)
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedClock":
        self._point(time.perf_counter(), 0.0)
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _at(self, wall: float) -> float:
        if not self._wall[0] <= wall <= self._wall[-1]:
            raise ValueError(f"time {wall} outside the sampled range")
        return float(np.interp(wall, self._wall, self._adj))

    def span(self, t0: float, t1: float) -> float:
        """Adjusted seconds between two perf_counter readings."""
        return self._at(t1) - self._at(t0)

    def rounds(self, end: float, durations: Sequence[float]) -> List[float]:
        """Adjusted seconds of back-to-back intervals with the given wall
        durations that end at `end` (rounds timed inside a library call)."""
        out, t1 = [], end
        for d in reversed(durations):
            t0 = max(t1 - d, self._wall[0])
            out.append(self.span(t0, t1))
            t1 = t0
        return out[::-1]

    def summary(self) -> Dict[str, float]:
        """Quartiles of the sampled loop times, in seconds: how fast the
        host ran during the run."""
        q = statistics.quantiles(self.loop_s, n=4) if len(self.loop_s) > 1 else [0.0] * 3
        return {"samples": len(self.loop_s), "loop_s_q1": q[0], "loop_s_median": q[1],
                "loop_s_q3": q[2], "ref_loop_s": REF_LOOP_S}


class WallClock:
    """SpeedClock's interface in plain wall seconds."""

    @staticmethod
    def span(t0: float, t1: float) -> float:
        return t1 - t0

    @staticmethod
    def rounds(end: float, durations: Sequence[float]) -> List[float]:
        return list(durations)
