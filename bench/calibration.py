"""Host-speed calibration for the timing metrics.

The benchmark runs on shared hosts whose speed drifts by a quarter or
more from one minute to the next (other tenants, frequency changes).  A
plain wall time then varies more between two runs of the same code than
any useful regression bound.  Every timed job is therefore paired with a
run of :func:`calibrate` just before it: a fixed unit of pure-Python work
of the kind the package does (frozen dataclasses with validation, bit
operations, set and dict updates, ``itertools.combinations``), which
shares none of the package's code and so does not speed up or slow down
with it.  A job's time is reported scaled to the reference speed:

    scaled = wall * REFERENCE_S / calibration wall

with the calibration wall taken as the median over the job and its
neighbours (see ``run.job_times``).  On a quiet host the two walls agree.
On the host the benchmark was tuned on, over one minute, the ratio of a
job's wall time to its calibration drifted by about 6% while the wall
time itself drifted by 20%.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

#: median calibration wall time on a quiet 2-core Intel Xeon VM under
#: CPython 3.11.7
REFERENCE_S = 0.85e-3


@dataclass(frozen=True)
class _Mask:
    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < 1 << self.n:
            raise ValueError("mask out of range")


def calibrate() -> float:
    """Seconds one fixed unit of work takes right now."""
    start = time.perf_counter()
    seen: set[int] = set()
    counts: dict[int, int] = {}
    acc = 0
    for combo in combinations(range(13), 4):
        bits = 0
        for i in combo:
            bits |= 1 << i
        mask = _Mask(13, bits)
        if mask.bits not in seen:
            seen.add(mask.bits)
            acc += (mask.bits ^ acc).bit_count()
            counts[mask.bits & 63] = counts.get(mask.bits & 63, 0) + 1
    return time.perf_counter() - start
