"""Host readings that keep timings comparable on a shared virtual machine.

On a shared virtual machine, wall time includes the time the hypervisor
hands the CPU to other guests (steal); CPU time does not.  CPU speed
still changes: each virtual CPU switches between speed states that
differ by tens of percent within seconds.  The benchmark therefore
times work in CPU time and scales it by :func:`speed_probe`, a fixed
workload that runs no code of the program under test.
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

#: what :func:`speed_probe` takes on the reference host.
REFERENCE_PROBE_S = 0.001


def speed_probe(clock=time.process_time) -> float:
    """Seconds a fixed stdlib workload takes right now on this CPU.

    Fraction arithmetic, dict inserts and a sort, like the compiler's
    own inner loops, but no code of the program under test, so a change
    to the program never moves it.
    """
    start = clock()
    total = Fraction(0)
    table = {}
    for i in range(200):
        part = Fraction(i + 1, i % 7 + 3)
        total += part * part
        table[f"k{i}"] = (total, i)
    sorted(table.items(), key=lambda item: item[1][1], reverse=True)
    return clock() - start


class HostClock:
    """Scales the CPU times of a closed loop to the reference host speed.

    Each timed operation is bracketed by two probes on the process CPU
    clock; its scaled time is its CPU time times ``REFERENCE_PROBE_S``
    over the mean of the two probes: the time it would take where the
    probe takes the reference time.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._last = speed_probe()

    def scale(self, cpu_s: float) -> float:
        after = speed_probe()
        self.probes.append(after)
        factor = REFERENCE_PROBE_S * 2 / (self._last + after)
        self._last = after
        return cpu_s * factor

    def probe_ms(self) -> float:
        return statistics.median(self.probes) * 1000


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the host so far (``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    return fields[7], sum(fields)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time the hypervisor took between two readings."""
    return (after[0] - before[0]) / max(after[1] - before[1], 1)


def _tasks(pid: int) -> list[str]:
    try:
        return os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return []


def process_cpu_s(pid: int, *, main_thread: bool = True) -> float:
    """On-CPU seconds of the live threads of a process (``schedstat``)."""
    total = 0
    for tid in _tasks(pid):
        if not main_thread and tid == str(pid):
            continue
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat", encoding="ascii") as f:
                total += int(f.read().split()[0])
        except FileNotFoundError:
            continue  # the thread ended
    return total / 1e9


def child_pids(pid: int) -> list[int]:
    children = []
    for tid in _tasks(pid):
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as f:
                children += [int(child) for child in f.read().split()]
        except FileNotFoundError:
            continue
    return children
