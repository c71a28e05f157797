"""The long-running detection service — the one ingestion driver.

:class:`StreamService` tails a feed file (or FIFO) in batched reads, pushes
every record through a :class:`~repro.stream.engine.StreamEngine`, and
persists two artefacts:

* the **alarm log** — one canonical JSON line per first-seen alarm;
* the **checkpoint chain** — a full engine snapshot plus delta-encoded
  incremental boundaries (see :mod:`repro.stream.checkpoint`).

With ``shards > 1`` or several vantage feeds, the engine is replaced by a
:class:`~repro.stream.router.ShardedSource` — forked shard engines fed by
prefix and synchronised on day barriers — and everything below holds
unchanged: there is one durability path, whichever source feeds it.

The two artefacts are coupled transactionally: pending alarm lines are
flushed to the log *only* at boundaries — every ``checkpoint_every``
records, with or without a chain, and once more at a graceful stop — and
the chain record written immediately after states how many lines — and
bytes — are durable.  A service killed at an arbitrary point therefore
leaves an alarm log whose durable prefix is named by the last durable chain
record, and a resume — which replays the chain, rolls the log back with a
single ``os.truncate`` to the recorded byte offset, and seeks the feed(s)
to the recorded byte offset(s) — continues producing exactly the remaining
lines.  Concatenating the two runs' logs reproduces the uninterrupted log
byte for byte; ``tests/test_stream_service.py``, the fault-injection suite
in ``tests/test_stream_faults.py`` and the ``stream-smoke`` CI job hold
that property.

Serialisation is **double-buffered off the ingest path**: at a boundary the
service captures the (cheap, delta-encoded) payload synchronously, then
hands the alarm flush + chain append + index commit to a background writer
thread; ingest only blocks when two boundaries are already in flight.
Ordering is preserved by the queue, so the durability invariants are
exactly those of the synchronous path — ``async_io=False`` forces inline
writes for tests.

Wall time never steers detection: the loop takes an injectable ``clock``
(throughput/latency measurement only — quarantined like every other timing
field) and an injectable ``sleeper`` (follow-mode polling and throttling),
so tests drive the service with fakes and the repro-lint R006 rule keeps
``time.sleep`` out of everything except the one default-sleeper call site
below.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import FrameType
from typing import (
    IO,
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.fsio import fsync_parent_dir
from repro.obs.manifest import ManifestRecord
from repro.obs.metrics import Counter, MetricsRegistry
from repro.stream.checkpoint import (
    DEFAULT_FULL_EVERY,
    ChainWriter,
    Checkpoint,
    CheckpointError,
    FaultHook,
    load_chain,
    reap_stale_tmp,
)
from repro.stream.engine import StreamEngine
from repro.stream.feed import FeedError, FeedRecord, parse_feed_line
from repro.stream.router import ShardedSource, composite_totals

if TYPE_CHECKING:  # runtime import is lazy: stream never *needs* query
    from repro.query.builder import IndexBuilder, IndexJob

#: Environment hook for crash-injection in subprocess tests: a fault-point
#: name, optionally ``:n`` to crash on the n-th hit (default first).
FAULT_ENV_VAR = "REPRO_STREAM_FAULT"
#: Exit status used by the injected-crash hook (distinct from real errors).
FAULT_EXIT_CODE = 73


def _real_sleep(seconds: float) -> None:
    """Default sleeper (follow-mode polling / throttling); tests inject fakes."""
    time.sleep(seconds)  # repro-lint: disable=R006


def _real_clock() -> float:
    """Default wall clock; measurement only, never an input to detection."""
    return time.perf_counter()  # repro-lint: disable=R002


def fault_hook_from_env() -> Optional[FaultHook]:
    """Build a crash hook from ``REPRO_STREAM_FAULT`` (``point[:n]``).

    The hook hard-exits the process (``os._exit``) at the chosen fault
    point, simulating a crash with no flushing, no handlers, no goodbye —
    which is the honest model for kill-testing durability code.
    """
    spec = os.environ.get(FAULT_ENV_VAR)
    if not spec:
        return None
    point, _, nth_text = spec.partition(":")
    remaining = [int(nth_text) if nth_text else 1]

    def hook(name: str) -> None:
        if name != point:
            return
        remaining[0] -= 1
        if remaining[0] <= 0:
            os._exit(FAULT_EXIT_CODE)

    return hook


class FeedTailer:
    """Batched reader over a feed file, tracking exact byte offsets.

    Reads in binary so ``byte_offset`` is always the start of the next
    unconsumed line.  A partial line at EOF (a writer caught mid-record) is
    left unconsumed — the next poll re-reads it once the newline lands.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: IO[bytes] = self.path.open("rb")
        self.byte_offset = 0

    def seek(self, byte_offset: int) -> None:
        self._handle.seek(byte_offset)
        self.byte_offset = byte_offset

    def read_batch(self, limit: int) -> List[FeedRecord]:
        """Up to ``limit`` records; empty means EOF (poll again or finish)."""
        records: List[FeedRecord] = []
        while len(records) < limit:
            position = self._handle.tell()
            line = self._handle.readline()
            if not line:
                break
            if not line.endswith(b"\n"):
                self._handle.seek(position)
                break
            self.byte_offset = self._handle.tell()
            try:
                record = parse_feed_line(line.decode("utf-8"))
            except FeedError as exc:
                raise FeedError(f"{self.path} at byte {position}: {exc}") from exc
            if record is not None:
                records.append(record)
        return records

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


@dataclass
class StreamSummary:
    """One service run's outcome (the manifest ``outcome`` payload)."""

    records: int
    offset: int
    alarms_emitted: int
    alarm_duplicates: int
    alarm_lines: int
    checkpoints: int
    moas_active: int
    state_prefixes: int
    days_ticked: int
    stopped: bool
    eof: bool
    wall_seconds: float
    events_per_sec: float
    checkpoint_seconds: float
    checkpoint_fulls: int = 0
    checkpoint_deltas: int = 0
    shards: int = 1
    alarm_totals: Dict[str, int] = field(default_factory=dict)
    daily_series: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; timing lives under quarantined TIMING_KEYS names."""
        return {
            "records": self.records,
            "offset": self.offset,
            "alarms_emitted": self.alarms_emitted,
            "alarm_duplicates": self.alarm_duplicates,
            "alarm_lines": self.alarm_lines,
            "alarm_totals": dict(sorted(self.alarm_totals.items())),
            "checkpoints": self.checkpoints,
            "checkpoint_fulls": self.checkpoint_fulls,
            "checkpoint_deltas": self.checkpoint_deltas,
            "moas_active": self.moas_active,
            "state_prefixes": self.state_prefixes,
            "days_ticked": self.days_ticked,
            "daily_series": list(self.daily_series),
            "stopped": self.stopped,
            "eof": self.eof,
            "shards": self.shards,
            "events_per_sec": self.events_per_sec,
            "checkpoint_seconds": self.checkpoint_seconds,
        }


#: One boundary's durable work: alarm lines to append, then (optionally)
#: one chain write — a full Checkpoint or a delta record's fields — then
#: (optionally) one prepared index segment+manifest publish, strictly last
#: so the index commit point can never get ahead of the chain.
_WriterTask = Tuple[
    List[str],
    Optional[str],
    Optional[Checkpoint],
    Dict[str, Any],
    Optional["IndexJob"],
]


class _WriterPump:
    """Background double-buffered executor for boundary writes.

    Tasks run strictly in submission order on one thread; ``submit`` blocks
    only when ``depth`` boundaries are already in flight (the double
    buffer).  The first failure is latched and re-raised to the submitter —
    durability errors must never be silently swallowed off-thread.
    """

    _STOP = object()

    def __init__(
        self, execute: Callable[[_WriterTask], None], depth: int = 2
    ) -> None:
        self._execute = execute
        self._tasks: "queue.Queue[Any]" = queue.Queue(maxsize=max(1, depth))
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._loop, name="stream-writer", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while True:
            task = self._tasks.get()
            if task is self._STOP:
                return
            if self._error is not None:
                continue  # drain without executing after a failure
            try:
                self._execute(task)
            except BaseException as exc:  # latched, re-raised on the caller
                self._error = exc

    def _check(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def submit(self, task: _WriterTask) -> None:
        self._check()
        self._tasks.put(task)

    def close(self) -> None:
        """Drain, stop the thread, and surface any latched failure."""
        self._tasks.put(self._STOP)
        self._thread.join()
        self._check()




#: What feeds a run: the in-process tailer, or the sharded fleet.
_Source = Union[FeedTailer, ShardedSource]


class StreamService:
    """Tail feeds, detect online, checkpoint incrementally, survive kills.

    One feed with ``shards=1`` runs one in-process engine.  ``shards > 1``
    or several feeds route the records by prefix into shard processes (a
    :class:`~repro.stream.router.ShardedSource`, which has no follow mode
    and checkpoints on day barriers); the alarm log, the checkpoint chain,
    the index, resume and signals are this class's either way.
    """

    def __init__(
        self,
        feed: Union[str, Path, Sequence[Union[str, Path]]],
        alarms: Union[str, Path],
        checkpoint: Optional[Union[str, Path]] = None,
        *,
        shards: int = 1,
        window: float = 30.0,
        batch_size: int = 256,
        checkpoint_every: int = 1000,
        full_every: int = DEFAULT_FULL_EVERY,
        follow: bool = False,
        poll_interval: float = 0.2,
        throttle: float = 0.0,
        max_records: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        sleeper: Optional[Callable[[float], None]] = None,
        async_io: bool = True,
        fault: Optional[FaultHook] = None,
        index: Optional[Union[str, Path]] = None,
    ) -> None:
        if isinstance(feed, (str, Path)):
            self.feed_paths = [Path(feed)]
        else:
            self.feed_paths = [Path(path) for path in feed]
        if not self.feed_paths:
            raise ValueError("the service needs at least one feed")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if full_every < 1:
            raise ValueError(f"full_every must be >= 1, got {full_every}")
        self.shards = shards
        self.sharded = shards > 1 or len(self.feed_paths) > 1
        if self.sharded and follow:
            raise ValueError(
                "follow mode is not supported with sharded routing"
            )
        self.alarms_path = Path(alarms)
        self.checkpoint_path = None if checkpoint is None else Path(checkpoint)
        self.window = window
        # A sharded run's engines live in the shard processes.
        self.engine = StreamEngine(
            window=window, metrics=None if self.sharded else metrics
        )
        self.batch_size = batch_size
        self.checkpoint_every = checkpoint_every
        self.full_every = full_every
        self.follow = follow
        self.poll_interval = poll_interval
        self.throttle = throttle
        self.max_records = max_records
        self._metrics = metrics
        self._fault: Optional[FaultHook] = (
            fault if fault is not None else fault_hook_from_env()
        )
        self._builder: Optional["IndexBuilder"] = None
        if index is not None:
            from repro.query.builder import IndexBuilder as _IndexBuilder

            self._builder = _IndexBuilder(
                index, metrics=metrics, fault=self._fault
            )
        self._chain: Optional[ChainWriter] = None
        if self.checkpoint_path is not None:
            self._chain = ChainWriter(
                self.checkpoint_path,
                full_every=full_every,
                fault=self._fault,
            )
        self._alarm_lines = 0
        self._alarm_bytes = 0
        self._pending: List[str] = []
        self._stop_requested = False
        self._clock = clock if clock is not None else _real_clock
        self._sleeper = sleeper if sleeper is not None else _real_sleep
        self._async_io = async_io
        self._pump: Optional[_WriterPump] = None
        self._checkpoint_seconds = 0.0
        self._m_checkpoints: Optional[Counter] = None
        self._m_fulls: Optional[Counter] = None
        self._m_deltas: Optional[Counter] = None
        if metrics is not None:
            self._m_checkpoints = metrics.counter("stream.checkpoints")
            self._m_fulls = metrics.counter("stream.checkpoint_fulls")
            self._m_deltas = metrics.counter("stream.checkpoint_deltas")

    # -- control ---------------------------------------------------------------

    def request_stop(self) -> None:
        """Finish the in-flight batch (or day), checkpoint, then return."""
        self._stop_requested = True

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful stop (main thread only)."""
        signal.signal(signal.SIGTERM, self._on_signal)
        signal.signal(signal.SIGINT, self._on_signal)

    def _on_signal(self, signum: int, frame: Optional[FrameType]) -> None:
        self.request_stop()

    # -- the run loop -----------------------------------------------------------

    def run(self, resume: bool = False) -> StreamSummary:
        started = self._clock()
        if self.checkpoint_path is not None:
            # A crash mid-write strands `<name>*.tmp` files that nothing
            # would ever collect; sweep them before touching the chain.
            reap_stale_tmp(self.checkpoint_path)
        # The shards fork here, before the writer thread exists.
        source: _Source
        if self.sharded:
            source = ShardedSource(
                self.feed_paths,
                self.shards,
                self.window,
                index=self._builder is not None,
                metrics=self._metrics,
            )
        else:
            source = FeedTailer(self.feed_paths[0])
        try:
            if self._async_io:
                self._pump = _WriterPump(self._execute_boundary)
            if resume:
                self._resume(source)
            else:
                # Fresh run: start the alarm log empty so reruns never append
                # to a stale log.
                self._reset_alarm_log()
                self._alarm_lines = 0
                if self._builder is not None:
                    from repro.query.builder import MODE_ROUTER, MODE_SINGLE

                    self._builder.start_fresh(
                        MODE_ROUTER if self.sharded else MODE_SINGLE,
                        feed_count=len(self.feed_paths),
                    )
            # Whatever stops the ingest, the closing boundary leaves the log
            # and checkpoint agreeing on a resumable record boundary.
            totals: Dict[str, Any]
            if isinstance(source, FeedTailer):
                applied, reached_eof = self._ingest(source)
                self._checkpoint(self._plan(), source)
                totals = {
                    "offset": self.engine.offset,
                    "alarms_emitted": self.engine.alarms_emitted,
                    "alarm_duplicates": self.engine.alarm_duplicates,
                    "moas_active": self.engine.moas_active,
                    "state_prefixes": self.engine.state_prefixes,
                    "days_ticked": len(self.engine.daily_counts),
                    "alarm_totals": self.engine.alarm_totals(),
                    "daily_series": self.engine.daily_series(),
                }
            else:
                applied, reached_eof = self._ingest_sharded(source)
                # The closing barrier always gathers full shard states: the
                # summary totals come from them.
                kind = self._plan(full=True)
                payloads = self._barrier(source, None, "full")
                self._checkpoint(kind, source, payloads)
                states = [state for state in payloads if state is not None]
                totals = dict(composite_totals(states), offset=source.records)
            self._drain_pump()
            wall = self._clock() - started
            chain = self._chain
            fulls = 0 if chain is None else chain.fulls_written
            deltas = 0 if chain is None else chain.deltas_written
            return StreamSummary(
                records=applied,
                alarm_lines=self._alarm_lines,
                checkpoints=fulls + deltas,
                checkpoint_fulls=fulls,
                checkpoint_deltas=deltas,
                stopped=not reached_eof,
                eof=reached_eof,
                wall_seconds=wall,
                events_per_sec=applied / wall if wall > 0 else 0.0,
                checkpoint_seconds=self._checkpoint_seconds,
                shards=self.shards,
                **totals,
            )
        finally:
            try:
                self._drain_pump()
            finally:
                source.close()

    def _ingest(self, tailer: FeedTailer) -> Tuple[int, bool]:
        """The single-engine loop: batches through the in-process engine,
        a boundary every ``checkpoint_every`` records.  Returns the records
        applied and whether the feed reached EOF."""
        applied = 0
        since_checkpoint = 0
        while not self._stop_requested:
            if self.max_records is not None and applied >= self.max_records:
                break
            limit = self.batch_size
            if self.max_records is not None:
                limit = min(limit, self.max_records - applied)
            batch = tailer.read_batch(limit)
            if not batch:
                if not self.follow:
                    return applied, True
                self._sleeper(self.poll_interval)
                continue
            for record in batch:
                for alarm in self.engine.apply(record):
                    self._pending.append(alarm.to_json_line())
                if self._builder is not None:
                    self._builder.observe(record)
            applied += len(batch)
            since_checkpoint += len(batch)
            if self.throttle > 0.0:
                self._sleeper(self.throttle)
            if since_checkpoint >= self.checkpoint_every:
                self._checkpoint(self._plan(), tailer)
                since_checkpoint = 0
        return applied, False

    def _ingest_sharded(self, source: ShardedSource) -> Tuple[int, bool]:
        """The sharded loop: one day per barrier, a boundary at the first
        barrier after ``checkpoint_every`` records.  Returns the records
        applied and whether every feed reached EOF."""
        applied = 0
        since_checkpoint = 0
        while not self._stop_requested:
            if self.max_records is not None and applied >= self.max_records:
                break
            if source.eof:
                return applied, True
            routed, day = source.advance()
            applied += routed
            since_checkpoint += routed
            if day is None:
                continue  # some feeds went EOF mid-day; re-evaluate
            applied += 1  # the day's tick
            since_checkpoint += 1
            due = since_checkpoint >= self.checkpoint_every
            kind = self._plan() if due else None
            payloads = self._barrier(source, day, kind)
            if due:
                self._checkpoint(kind, source, payloads)
                since_checkpoint = 0
            if self.throttle > 0.0:
                self._sleeper(self.throttle)
        return applied, False

    def _barrier(
        self, source: ShardedSource, day: Optional[float], kind: Optional[str]
    ) -> List[Optional[Dict[str, Any]]]:
        """Close a day on every shard; keep its alarms and index events."""
        lines, events, payloads = source.barrier(day, kind)
        self._pending.extend(lines)
        if self._builder is not None and events:
            self._builder.ingest_events(events)
        return payloads

    def _drain_pump(self) -> None:
        if self._pump is not None:
            pump, self._pump = self._pump, None
            began = self._clock()
            pump.close()
            self._checkpoint_seconds += self._clock() - began

    # -- resume ---------------------------------------------------------------

    def _resume(self, source: _Source) -> None:
        if self.checkpoint_path is None:
            raise ValueError("resume requested but no checkpoint path configured")
        chain = load_chain(self.checkpoint_path)
        checkpoint = chain.checkpoint
        state = checkpoint.engine_state
        self._check_layout(state)
        if isinstance(source, FeedTailer):
            self.engine.restore_state(state)
            if checkpoint.offset != self.engine.offset:
                raise CheckpointError(
                    f"checkpoint offset {checkpoint.offset} disagrees with its "
                    f"engine state offset {self.engine.offset}"
                )
            source.seek(checkpoint.byte_offset)
        else:
            source.restore(checkpoint.offset, state)
        self._alarm_lines = checkpoint.alarm_lines
        if self.alarms_path.exists():
            self._truncate_alarm_log(checkpoint)
        else:
            # Resuming onto a fresh log path: it receives only the lines the
            # uninterrupted run would emit after the checkpoint.
            self._reset_alarm_log()
        assert self._chain is not None  # checkpoint_path implies a chain
        self._chain.resume(chain)
        if self._builder is not None:
            end = checkpoint.index_coordinates()
            # The truncation above may have corrected v1-era byte
            # accounting; the index must catch up to what is actually
            # durable in *this* log file.
            end["alarm_bytes"] = self._alarm_bytes
            self._builder.resume(
                feeds=self.feed_paths, alarms=self.alarms_path, end=end
            )

    def _check_layout(self, state: Dict[str, Any]) -> None:
        """Refuse a checkpoint another ingest layout wrote: a single-engine
        state for a sharded run, a composite for a single-engine run, or a
        composite of a different shard or feed count."""
        written = state.get("shard_count")
        if written is None:
            if self.sharded:
                raise CheckpointError(
                    f"{self.checkpoint_path} is a single-engine checkpoint, "
                    f"cannot resume with {self.shards} shard(s) over "
                    f"{len(self.feed_paths)} feed(s)"
                )
            return
        offsets = state.get("feed_offsets") or []
        if not self.sharded:
            raise CheckpointError(
                f"{self.checkpoint_path} is a composite checkpoint of "
                f"{written} shard(s) over {len(offsets)} feed(s), cannot "
                f"resume with a single engine"
            )
        if int(written) != self.shards:
            raise CheckpointError(
                f"checkpoint was written by {written} shards, "
                f"cannot resume with {self.shards}"
            )
        if len(offsets) != len(self.feed_paths):
            raise CheckpointError(
                f"checkpoint recorded {len(offsets)} feeds, "
                f"got {len(self.feed_paths)}"
            )

    def _reset_alarm_log(self) -> None:
        """Start the alarm log empty; directory-fsync so the (possibly new)
        log file itself survives a crash."""
        self.alarms_path.write_text("", encoding="utf-8")
        fsync_parent_dir(self.alarms_path)
        self._alarm_bytes = 0

    def _truncate_alarm_log(self, checkpoint: Checkpoint) -> None:
        """Roll the log back to the checkpoint's durable prefix.

        Robust against a crash that landed between the alarm flush and the
        chain write: any bytes past the recorded durable length were
        flushed for a boundary that never became durable, and will be
        re-emitted.  The rollback itself is one ``os.truncate`` — a single
        atomic syscall, safe to die during and idempotent to repeat.
        """
        keep_bytes = checkpoint.alarm_bytes
        if keep_bytes == 0 and checkpoint.alarm_lines > 0:
            # v1-era checkpoint without byte accounting: locate the byte
            # offset of the recorded line count, then truncate atomically.
            keep_bytes = self._line_byte_offset(checkpoint.alarm_lines)
        size = self.alarms_path.stat().st_size
        if size < keep_bytes:
            raise CheckpointError(
                f"alarm log {self.alarms_path} has {size} bytes but the "
                f"checkpoint recorded {keep_bytes} durable"
            )
        with self.alarms_path.open("r+b") as handle:
            if keep_bytes > 0:
                handle.seek(keep_bytes - 1)
                if handle.read(1) != b"\n":
                    raise CheckpointError(
                        f"alarm log {self.alarms_path} does not end a line at "
                        f"byte {keep_bytes}; refusing to truncate"
                    )
            if self._fault is not None:
                self._fault("truncate-pre")
            if size > keep_bytes:
                handle.truncate(keep_bytes)
                handle.flush()
                os.fsync(handle.fileno())
            if self._fault is not None:
                self._fault("truncate-post")
        self._alarm_bytes = keep_bytes

    def _line_byte_offset(self, lines: int) -> int:
        """Byte offset just past line ``lines`` of the alarm log."""
        offset = 0
        seen = 0
        with self.alarms_path.open("rb") as handle:
            for line in handle:
                seen += 1
                offset += len(line)
                if seen == lines:
                    return offset
        raise CheckpointError(
            f"alarm log {self.alarms_path} has {seen} lines but the "
            f"checkpoint recorded {lines}"
        )

    # -- checkpointing ----------------------------------------------------------

    def _plan(self, full: bool = False) -> Optional[str]:
        """The next boundary's chain record kind (``None``: no chain)."""
        if self._chain is None:
            return None
        kind = self._chain.plan(full)
        if self._m_checkpoints is not None:
            self._m_checkpoints.inc()
        counter = self._m_fulls if kind == "full" else self._m_deltas
        if counter is not None:
            counter.inc()
        return kind

    def _checkpoint(
        self,
        kind: Optional[str],
        source: _Source,
        payloads: Optional[List[Optional[Dict[str, Any]]]] = None,
    ) -> None:
        """Capture one boundary and hand its durable work to the writer:
        the pending alarm lines, the ``kind`` chain record, the index
        segment.  ``payloads`` are the shard states a sharded barrier
        gathered for ``kind``."""
        began = self._clock()
        pending, self._pending = self._pending, []
        self._alarm_lines += len(pending)
        self._alarm_bytes += sum(len(line.encode("utf-8")) + 1 for line in pending)
        cursor: Dict[str, Any]
        if isinstance(source, FeedTailer):
            state = self.engine.checkpoint_payload(kind)
            records, byte_offset = self.engine.offset, source.byte_offset
            cursor = {"feed_bytes": byte_offset}
        else:
            assert payloads is not None
            state = None if kind is None else source.state(kind, payloads)
            records, byte_offset = source.records, 0
            cursor = {"feed_offsets": source.feed_offsets()}
        checkpoint: Optional[Checkpoint] = None
        delta: Dict[str, Any] = {}
        if kind == "full":
            assert state is not None
            checkpoint = Checkpoint(
                offset=records,
                byte_offset=byte_offset,
                alarm_lines=self._alarm_lines,
                engine_state=state,
                alarm_bytes=self._alarm_bytes,
            )
        elif kind == "delta":
            delta = {
                "offset": records,
                "byte_offset": byte_offset,
                "alarm_lines": self._alarm_lines,
                "alarm_bytes": self._alarm_bytes,
                "delta": state,
            }
        job: Optional["IndexJob"] = None
        if self._builder is not None:
            job = self._builder.prepare_boundary(
                {"records": records, "alarm_bytes": self._alarm_bytes, **cursor},
                pending,
            )
        task: _WriterTask = (pending, kind, checkpoint, delta, job)
        if self._pump is not None:
            self._pump.submit(task)
        else:
            self._execute_boundary(task)
        self._checkpoint_seconds += self._clock() - began

    def _execute_boundary(self, task: _WriterTask) -> None:
        """One boundary's durable work (writer thread, or inline when sync)."""
        pending, kind, checkpoint, delta, job = task
        if pending:
            if self._fault is not None:
                self._fault("alarm-pre-append")
            with self.alarms_path.open("a", encoding="utf-8") as handle:
                for line in pending:
                    handle.write(line + "\n")
                handle.flush()
                if self._fault is not None:
                    self._fault("alarm-pre-fsync")
                os.fsync(handle.fileno())
            if self._fault is not None:
                self._fault("alarm-post-fsync")
        if kind is not None:
            assert self._chain is not None
            if kind == "full":
                assert checkpoint is not None
                self._chain.write_full(checkpoint)
            else:
                self._chain.append_delta(
                    offset=delta["offset"],
                    byte_offset=delta["byte_offset"],
                    alarm_lines=delta["alarm_lines"],
                    alarm_bytes=delta["alarm_bytes"],
                    delta=delta["delta"],
                )
        if job is not None:
            # Strictly after the chain write: the manifest (the index's
            # commit point) must never reference a boundary the chain has
            # not made durable.
            assert self._builder is not None
            self._builder.commit(job)

    # -- attribution -------------------------------------------------------------

    def manifest_record(
        self,
        summary: StreamSummary,
        spec: Optional[Dict[str, Any]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> ManifestRecord:
        """The run's single manifest line (timing under quarantined keys)."""
        base_spec: Dict[str, Any] = {
            "kind": "stream",
            "feeds": [str(path) for path in self.feed_paths],
            "shards": self.shards,
            "window": self.window,
            "batch_size": self.batch_size,
            "checkpoint_every": self.checkpoint_every,
            "full_every": self.full_every,
        }
        if spec is not None:
            base_spec.update(spec)
        return ManifestRecord(
            index=0,
            seed=0,
            spec=base_spec,
            outcome=summary.to_dict(),
            metrics={} if metrics is None else dict(metrics.snapshot()),
            worker="stream",
            wall_seconds=summary.wall_seconds,
        )
