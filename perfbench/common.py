"""Helpers shared by the workloads: timing loop, percentiles, digests, RSS."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

clock = time.perf_counter


def digest(obj: Any) -> str:
    """Short sha256 of a JSON-able value (sorted keys, no whitespace)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """``ru_maxrss`` in MB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


#: A measured interval: (start, end) in ``clock`` seconds.
Span = Tuple[float, float]


def repeat_setup(times: int, fn: Callable[[], Any]) -> Tuple[List[Span], Any]:
    """Run ``fn`` ``times`` times: the span of each run and the last result."""
    spans: List[Span] = []
    result = None
    for _ in range(times):
        started = clock()
        result = fn()
        spans.append((started, clock()))
    return spans, result


def durations(spans: Sequence[Span]) -> List[float]:
    return [end - start for start, end in spans]


def cpu_seconds(pid: int = 0) -> float:
    """User plus system CPU seconds of a process (0: this one), all threads."""
    if pid == 0:
        return time.process_time()
    with open(f"/proc/{pid}/stat", encoding="ascii") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def end_to_end(
    timing: Dict[str, Any], seconds: Callable[[Sequence[Span], float], List[float]]
) -> Dict[str, float]:
    """The end-to-end figures from a workload's ``timing``: its set-up
    spans, its operations' spans, the spans its operations were counted
    over, that ``count``, its peak RSS, and ``cpu_share``, the part of the
    operations' time that was CPU work.  ``seconds(spans, cpu_share)``
    gives each span's length: raw, or at a fixed machine speed.  Set-up
    counts as CPU work throughout."""
    share = timing["cpu_share"]
    ms = [t * 1000.0 for t in seconds(timing["ops"], share)]
    return {
        "setup_s": median(seconds(timing["setup"], 1.0)),
        "peak_rss_mb": timing["peak_rss_mb"],
        "ops_per_s": timing["count"] / sum(seconds(timing["work"], share)),
        "op_p50_ms": percentile(ms, 50),
        "op_p99_ms": percentile(ms, 99),
    }


def keep_going(started: float, seconds: float, unit_times: Sequence[float]) -> bool:
    """Start another unit unless it would end more than half past the
    deadline (at least one unit always runs)."""
    if not unit_times:
        return True
    return clock() - started + 0.5 * median(unit_times) < seconds


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Tally:
    """Attempted / failed operation counts plus failure reasons.

    An operation is counted once when it runs (:meth:`attempt`); any check
    it fails later marks it failed (:meth:`fail`)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.failed += n
        self.reasons[reason] = self.reasons.get(reason, 0) + n
        log(f"FAILED ({n}): {reason}")

    def check(self, condition: bool, reason: str, n: int = 1) -> bool:
        if not condition:
            self.fail(reason, n)
        return condition
