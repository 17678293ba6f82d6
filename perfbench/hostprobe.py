"""The host-speed probe: how fast a CPU of this host runs Python now.

A probe times two fixed pure-Python loops, each the best of a few
repeats, and takes the geometric mean of the two times: an arithmetic
loop, and a walk over a shuffled table of a few megabytes that also
allocates.  Either loop alone tracks the benchmark's work less well
than their mean.  The loops run no code of the repository, so a
change to the program cannot move the probe.

The probe runs in a helper process (``HostProbe``) that pins itself
to the CPU it is asked to measure, so the table does not count in the
peak RSS of any process the benchmark measures.  Run as a script,
this file is that helper: each input line names a CPU, or ``all`` for
the mean over every CPU it may use, and is answered by one probe time
in seconds.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPEATS = 5
ARITH_LOOP = 10_000
TABLE_LOOP = 2_000
TABLE_KEYS = range(0, 400_000, 7)


def _arith_seconds() -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        acc = 0
        for i in range(ARITH_LOOP):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - started)
    return best


class _Table:
    """A shuffled table, walked a different stretch each time."""

    def __init__(self):
        self.order = list(TABLE_KEYS)
        random.Random(0).shuffle(self.order)
        self.table = {key: [key, str(key)] for key in self.order}
        self.offset = 0

    def seconds(self) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            start = self.offset
            self.offset = (start + TABLE_LOOP) % (len(self.order)
                                                  - TABLE_LOOP)
            started = time.perf_counter()
            head = None
            for i in range(start, start + TABLE_LOOP):
                value = self.table[self.order[i]]
                head = (value[0], len(value[1]), head)
            best = min(best, time.perf_counter() - started)
        return best


def serve() -> None:
    """Answer each request line with one probe time."""
    table = _Table()
    cpus = sorted(os.sched_getaffinity(0))
    for line in sys.stdin:
        asked = cpus if line.strip() == "all" else [int(line)]
        times = []
        for cpu in asked:
            os.sched_setaffinity(0, {cpu})
            times.append((_arith_seconds() * table.seconds()) ** 0.5)
        print(repr(statistics.fmean(times)), flush=True)


def current_cpu() -> int:
    """The CPU this process last ran on, from ``/proc``."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[36])  # field 39 of proc(5), counting from 1


class HostProbe:
    """The helper process; call it for a probe time in seconds."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self, cpu: int | None = None) -> float:
        """Probe *cpu*, or every CPU and average."""
        self.process.stdin.write("all\n" if cpu is None else f"{cpu}\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("the host probe process ended")
        return float(line)

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


if __name__ == "__main__":
    serve()
