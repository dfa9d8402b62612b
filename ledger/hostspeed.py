"""Host-speed probe: a fixed calibration kernel run between operations.

The build box is a shared 2-vCPU guest whose speed is not constant: while
this benchmark was sized, the same ``stream-270`` repetition read anywhere
between 33k and 66k events/s within a minute, and whole minutes ran 1.3x
slower than their neighbours, with no steal time reported to the guest.
That is more than any bound a benchmark may declare, and it says nothing
about the program.

So every measured operation is bracketed by this kernel — pure Python,
independent of ``src/`` by construction, the same interpreter-bound mix
of attribute, dict, list and heap work the simulator does, strided over a
few MB of small objects — and its wall time is scaled by the host speed
the two bracketing runs saw::

    host_speed     = REFERENCE_S / mean(kernel before, kernel after)
    corrected wall = wall * host_speed

On a quiet host ``host_speed`` is 1 and nothing changes; on a slowed host
both the operation and the kernel stretch and the correction takes most
of it out (over seven noisy minutes the run-to-run spread of a 15-sample
median fell from 16.5 % to 7.7 %).  Raw walls and the host speed of every
operation stay in the ledger JSON.
"""

from __future__ import annotations

import heapq
import time

#: Kernel wall between operations on the quiet build box (its pool is
#: cache-cold there); fixes the scale so that ``host_speed`` reads about
#: 1.0 on that box.  Changing it rescales every timed
#: metric: it is part of the benchmark's definition.
REFERENCE_S = 0.0135


class _Cell:
    __slots__ = ("weight", "items")

    def __init__(self, index: int) -> None:
        self.weight = index * 0.5
        self.items = [index]


#: The kernel's working set (~3 MB, past the per-core caches).
_POOL = [_Cell(index) for index in range(16_384)]


def kernel(steps: int = 20_000) -> float:
    """Wall seconds of one calibration run."""
    started = time.perf_counter()
    pool = _POOL
    size = len(pool)
    heap: list = []
    seen: dict = {}
    total = 0.0
    index = 7
    for step in range(steps):
        index = (index * 1103515245 + 12345) % size
        cell = pool[index]
        total += cell.weight + cell.items[0]
        seen[index & 4095] = cell
        if step & 3 == 0:
            heapq.heappush(heap, (cell.weight, step))
            if len(heap) > 256:
                heapq.heappop(heap)
    return time.perf_counter() - started


def speed(before: float, after: float) -> float:
    """Host speed seen by an operation bracketed by two kernel runs."""
    return REFERENCE_S / ((before + after) / 2)
