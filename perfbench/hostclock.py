"""Host time that cancels the shared machine's speed swings.

On a shared host the same simulated work takes anywhere from 0.6 s to
1.1 s from one minute to the next, with no CPU steal: the virtual CPU
runs, just slower.  :class:`HostTimer` therefore runs a fixed piece of
pure-Python calibration work after every step it times, and scales the
step's wall time by how long the calibration took against its nominal
duration.  The work and the calibration alternate every ~0.1 s, so both
see the same machine state; a change that makes the simulator itself
faster moves only the work's time.

The calibration touches nothing of the program, so no change to the
program can speed it up.  Raw wall times stay in the run's detail line.
"""

import heapq
import time

#: Iterations of one calibration piece.
PIECE_ITERATIONS = 2000
#: Typical wall time of one piece on the reference host (2 vCPUs,
#: Python 3.11) when it runs between simulation steps, which leave its
#: caches cold.  Normalized seconds are wall seconds on that host in
#: that typical state.
PIECE_NOMINAL_S = 0.0026


def calibration_piece() -> float:
    """Run one piece of heap, dict and integer work; return its wall
    time in seconds."""
    start = time.perf_counter()
    heap = []
    table = {}
    total = 0
    for i in range(PIECE_ITERATIONS):
        heapq.heappush(heap, (i * 7919 % 1009, i))
        table[i & 1023] = total
        if len(heap) > 64:
            total += heapq.heappop(heap)[1]
    return time.perf_counter() - start


class HostTimer:
    """Wall time of a sequence of steps, each followed by a calibration
    piece that is not counted in it."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.calibration_s = 0.0
        self.pieces = 0

    def step(self, work) -> None:
        start = time.perf_counter()
        work()
        self.wall_s += time.perf_counter() - start
        self.calibration_s += calibration_piece()
        self.pieces += 1

    @property
    def normalized_s(self) -> float:
        """The steps' wall time at the nominal calibration speed."""
        return self.wall_s * self.pieces * PIECE_NOMINAL_S \
            / self.calibration_s
