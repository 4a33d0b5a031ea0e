"""Host-speed correction for the gated time metrics.

The shared host this benchmark runs on changes speed by itself: a fixed
pure-Python loop, timed in 10-second windows, ranged from 0.75x to 1.3x
of its median within five minutes, with slow phases up to a minute
long. No run length averages that out, so raw times of one run and the
next differ by 20-35% with no change to the program.

A fixed reference computation tracks the drift. The CPUs of the host
drift apart as well, by up to 15% over seconds, so the benchmark and
the SUT (system under test) it launches all run on one CPU, ``CPU``.
The reference runs in the benchmark's own process, between jobs or
blocks of requests, while the SUT is idle, so the SUT's work never
slows it. Each raw time is scaled by ``REFERENCE_S / ref``, where
``ref`` is the mean of the ``WINDOW`` probes on either side of it. The
corrected figure reads in the raw figure's unit, at the host speed
where the reference takes ``REFERENCE_S``.

The reference lives in this file, so no change to the program can
move it. A program change that makes the SUT slower or faster moves
the corrected figures by the same share as the raw ones.
"""

from __future__ import annotations

import os
import statistics
import time

#: Nominal time of one reference computation (its median on the 2-core
#: host the benchmark was tuned on).
REFERENCE_S = 0.010
#: Reference computations per probe; a probe reports their median.
REPEATS = 3
#: Probes on each side of a job or block that its ``ref`` averages.
WINDOW = 2

#: The one CPU the benchmark and the SUT run on: the lowest this
#: process may use.
CPU = min(os.sched_getaffinity(0))


class _Pair:
    __slots__ = ("a", "b")


def _reference() -> int:
    """Interpreter-bound work like the program's own: small objects,
    attribute access, dict lookups, list appends and a sort."""
    table: dict[int, _Pair] = {}
    out: list[int] = []
    for i in range(20000):
        pair = _Pair()
        pair.a = i
        pair.b = i * 3
        table[i & 1023] = pair
        other = table.get((i * 7) & 1023)
        out.append(pair.a + other.b if other is not None else 0)
    out.sort()
    return len(out)


def probe() -> float:
    """Seconds one reference computation takes on the host right now."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        _reference()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def local_refs(probes: list[float]) -> list[float]:
    """For the jobs or blocks between ``len(probes)`` probes, the mean
    of the ``WINDOW`` probes on either side of each."""
    return [
        statistics.fmean(probes[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
        for i in range(len(probes) - 1)
    ]


def corrected(raw: float, ref: float) -> float:
    """``raw`` (a time) at the reference host speed."""
    return raw * REFERENCE_S / ref


_reference()  # pay first-use costs at import, not in the first probe
