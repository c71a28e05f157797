"""Machine-speed sampler, run in a process of its own.

The shared test machine changes speed by ±20 % and at times by 2x, in
phases of seconds to minutes, as its neighbours load the cores: 30-second
``paper-grid`` runs a few minutes apart read 46 and 95 scenarios/s.  No
run length averages that away.  So while a workload runs, this script
times a fixed pure-Python reference task that runs no ``repro`` code on
every core the benchmark may use, in turn, every ``SAMPLE_PERIOD_S``, and
appends ``<perf_counter> <cpu> <seconds>`` lines to a file.  It runs in a
separate interpreter (its own GIL, heap and collector state), pins itself
to each core for its reading, and times the task in thread CPU time, so a
reading does not include waiting for a core the program holds.
:meth:`Speedometer.scale` rescales the CPU part of each measured span of
the program by ``REFERENCE_S`` over the median reading taken during it:
the span expressed at one fixed machine speed.

Readings in wall-clock time, or taken only on the core the program left
idle, did not track the program's speed (correlation about 0.1 with the
time of each 75-scenario figure curve); CPU-time readings on every core
did (about 0.8).

Usage (started by :class:`Speedometer`): ``python3 speedometer.py FILE``.
It stops on SIGTERM or when its parent exits.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, List, Sequence, Tuple

#: CPU seconds one reference task takes at the reference speed (about the
#: median reading on a 2-core box under CPython 3.11).  It sets the scale
#: of normalised figures only; comparisons between commits do not depend
#: on it.
REFERENCE_S = 0.0017
#: Seconds between two rounds of readings.
SAMPLE_PERIOD_S = 0.1
#: Readings this far either side of a span also count for it: one reading
#: jitters, the machine's phases last seconds.  Over five 30-second
#: ``paper-grid`` runs on the shared 2-core test machine, a pad of 0.5, 1 and 2 s gave quartile spreads of
#: 0.03-0.05 in scenarios/s, against 0.14 for one factor per run and 0.36
#: raw.
WINDOW_PAD_S = 1.0


def reference_task() -> int:
    """Fixed pure-Python work: dict inserts, small allocations, a sort."""
    table = {}
    for i in range(2500):
        table[(i * 7919) % 10007] = (i & 255, str(i))
    return len(sorted(table.values()))


class Speedometer:
    """Runs the sampler beside a workload and normalises its spans.

    Both processes read ``time.perf_counter``, which on Linux is the
    system-wide ``CLOCK_MONOTONIC``, so their timestamps compare.
    Scale after the work, so that readings after a span count too.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._proc: Any = None

    def __enter__(self) -> "Speedometer":
        self.path.write_text("", encoding="utf-8")
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), str(self.path)])
        # Wait for the first reading, so every span has one.
        while not self.readings() and self._proc.poll() is None:
            time.sleep(0.01)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGTERM)
        self._proc.wait()

    def readings(self) -> List[Tuple[float, float]]:
        """(time, CPU seconds of one reference task), in time order."""
        out = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            fields = line.split()
            if len(fields) == 3:
                out.append((float(fields[0]), float(fields[2])))
        return out

    def scale(self, spans: Sequence[Tuple[float, float]], cpu_share: float) -> List[float]:
        """Each ``(start, end)`` span's seconds at the reference speed.

        The ``cpu_share`` of a span that was CPU work is scaled by
        ``REFERENCE_S`` over the median reading taken during it, give or
        take ``WINDOW_PAD_S``; the rest (waiting on timers, disks or
        sockets) is kept as it is."""
        readings = self.readings()
        if not readings:
            raise RuntimeError("the speed sampler recorded nothing")
        times = [t for t, _ in readings]
        out = []
        for start, end in spans:
            low = bisect.bisect_left(times, start - WINDOW_PAD_S)
            high = bisect.bisect_right(times, end + WINDOW_PAD_S)
            if low == high:
                # No reading that close: take the nearest one.
                low = min(low, len(times) - 1)
                high = low + 1
            speed = REFERENCE_S / statistics.median(r for _, r in readings[low:high])
            out.append((end - start) * (1.0 - cpu_share + cpu_share * speed))
        return out


def main(path: str) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    parent = os.getppid()
    cpus = sorted(os.sched_getaffinity(0))
    with open(path, "a", encoding="utf-8") as out:
        while os.getppid() == parent:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                started = time.thread_time()
                reference_task()
                spent = time.thread_time() - started
                out.write(f"{time.perf_counter()!r} {cpu} {spent!r}\n")
            out.flush()
            os.sched_setaffinity(0, cpus)
            time.sleep(SAMPLE_PERIOD_S)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
