"""Sharded ingest — N vantage-point feeds fanned into S engine processes.

A single :class:`~repro.stream.engine.StreamEngine` tops out around one
core's worth of per-update work.  :class:`ShardedSource` scales ingest
across processes by partitioning the prefix space: each **shard** is a
forked worker owning one engine, and the parent routes every announce /
withdraw line to ``crc32(prefix) % shards`` without parsing it (a raw-byte
substring scan — the canonical feed serialisation makes ``"p":"…"`` the
only place a prefix appears).  Because the dedup key of every alarm starts
with its prefix, shards never produce duplicate alarms across the fleet,
and the MOAS-active count for a day is simply the sum of the shard counts.

**Day-boundary synchronisation.**  Each feed carries one tick per day.  The
source reads every feed up to its day-``D`` tick, flushes the routed
lines, then broadcasts exactly one ``tick(D)`` barrier to every shard —
satisfying the engine's one-tick-per-day invariant and giving eviction the
same global day clock a single engine would see.  The barrier reply
carries each shard's alarm lines since the previous barrier; they are
concatenated in shard-index order, so the merged log's line order is a
pure function of the feed contents — ``(day, shard, emission order)`` — no
matter where checkpoints or interruptions fall.

**One durability domain.**  This module owns no file but the feeds it
reads.  :class:`~repro.stream.service.StreamService` drives the source
(``shards=S`` or several feeds) and owns the alarm log, the checkpoint
chain, the index, resume and signals — the same code as a single-engine
run.  At a checkpoint boundary (the first day barrier after
``checkpoint_every`` records) every shard also returns its engine payload,
and :meth:`ShardedSource.state` wraps the payloads into one composite
chain record: ``shard_count``, per-shard states, per-feed byte offsets and
the completed day.  Boundaries therefore sit on day barriers, and the
merged-log ordering above holds across interruptions.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import Counter, MetricsRegistry
from repro.stream.engine import StreamEngine
from repro.stream.feed import OP_TICK, FeedError, FeedRecord, parse_feed_line

#: Raw-byte markers in the canonical feed serialisation (sorted keys,
#: compact separators — see FeedRecord.to_json_line).
_PREFIX_MARK = b'"p":"'
_TICK_MARK = b'"op":"T"'
_HEADER_MARK = b'"format"'


class RouterError(ValueError):
    """Raised for feed/shard misconfiguration the router refuses to run."""


def shard_for_prefix(prefix_bytes: bytes, shards: int) -> int:
    """Stable prefix -> shard assignment (crc32, never the salted builtin
    ``hash``) — must agree across runs for resume to hold."""
    return zlib.crc32(prefix_bytes) % shards


def route_line(line: bytes, shards: int) -> Optional[int]:
    """Classify one raw feed line: a shard index for announce/withdraw,
    ``None`` for ticks and headers (handled by the parent)."""
    start = line.find(_PREFIX_MARK)
    if start < 0:
        return None
    start += len(_PREFIX_MARK)
    end = line.index(b'"', start)
    return shard_for_prefix(line[start:end], shards)


def merged_daily_counts(shard_states: Sequence[Dict[str, Any]]) -> Dict[int, int]:
    """Global per-day MOAS counts: the sum of the shard counts."""
    totals: Dict[int, int] = {}
    for state in shard_states:
        for day, count in state["daily_counts"]:
            totals[int(day)] = totals.get(int(day), 0) + int(count)
    return dict(sorted(totals.items()))


def composite_totals(shard_states: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fleet-wide engine aggregates from full shard states, named as the
    :class:`~repro.stream.service.StreamSummary` fields they fill."""
    daily = merged_daily_counts(shard_states)
    totals: Dict[str, int] = {}
    for state in shard_states:
        for row in state["alarm_counts"]:
            kind_name = str(row[1])
            totals[kind_name] = totals.get(kind_name, 0) + int(row[5])
    return {
        "alarms_emitted": sum(s["alarms_emitted"] for s in shard_states),
        "alarm_duplicates": sum(s["alarm_duplicates"] for s in shard_states),
        "moas_active": sum(s["moas_active"] for s in shard_states),
        "state_prefixes": sum(
            len(
                {name for name, _ in s["origins"]}
                | {name for name, _ in s["observed"]}
            )
            for s in shard_states
        ),
        "days_ticked": len(daily),
        "alarm_totals": dict(sorted(totals.items())),
        "daily_series": list(daily.values()),
    }


# -- the shard worker --------------------------------------------------------


def _shard_worker(
    conn: Any,
    window: float,
    index_enabled: bool = False,
    inherited: Sequence[Any] = (),
) -> None:
    """One shard: an engine fed raw lines, answering barrier requests.

    Runs in a forked child.  The parent dying (even via ``SIGKILL`` /
    ``os._exit`` crash injection) closes the pipe, which surfaces here as
    ``EOFError``/``OSError`` — the worker exits, so crashes never strand
    shard processes.  That needs the parent to hold the only copy of the
    other end: the fork also copied it (and earlier shards' parent ends)
    into this process, so ``inherited`` lists them for closing first.

    With ``index_enabled`` the shard also runs a
    :class:`~repro.query.track.OriginTracker` beside the engine and ships
    the index events it produced back with each barrier reply (the third
    tuple element) — the parent's :class:`~repro.query.builder.IndexBuilder`
    adopts them in shard-index order.  A shard's per-prefix event order is
    the parent's read order for that prefix, which is why a byte-range
    replay reproduces the live-built index exactly.
    """
    for stale in inherited:
        stale.close()
    engine = StreamEngine(window=window)
    tracker = None
    if index_enabled:
        from repro.query.track import OriginTracker

        tracker = OriginTracker()
    pending: List[str] = []
    events: List[List[Any]] = []
    try:
        while True:
            message = conn.recv()
            tag = message[0]
            if tag == "lines":
                for raw in message[1]:
                    record = parse_feed_line(raw.decode("utf-8"))
                    if record is not None:
                        for alarm in engine.apply(record):
                            pending.append(alarm.to_json_line())
                        if tracker is not None:
                            event = tracker.apply(record)
                            if event is not None:
                                events.append(event)
            elif tag == "barrier":
                day, kind = message[1], message[2]
                if day is not None:
                    engine.apply(FeedRecord(op=OP_TICK, time=day))
                    if tracker is not None:
                        event = tracker.apply(
                            FeedRecord(op=OP_TICK, time=day)
                        )
                        if event is not None:
                            events.append(event)
                payload = engine.checkpoint_payload(kind)
                lines, pending = pending, []
                shipped, events = events, []
                conn.send((lines, payload, shipped))
            elif tag == "restore":
                engine.restore_state(message[1])
                if tracker is not None:
                    from repro.query.track import OriginTracker

                    tracker = OriginTracker.from_live(
                        {
                            prefix: [origin for origin, _ in pairs]
                            for prefix, pairs in message[1]["origins"]
                        }
                    )
                    events = []
                conn.send(("ok",))
            elif tag == "stop":
                return
    except (EOFError, OSError):
        return
    finally:
        conn.close()


class _Shard:
    """Parent-side handle: the worker process, its pipe, a line buffer."""

    def __init__(self, index: int, process: Any, conn: Any) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.buffer: List[bytes] = []


class _RoutedFeed:
    """One vantage-point feed: raw binary reader with exact byte offsets."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.handle: IO[bytes] = path.open("rb")
        self.byte_offset = 0
        self.pending_tick: Optional[float] = None
        self.done = False

    def seek(self, byte_offset: int) -> None:
        self.handle.seek(byte_offset)
        self.byte_offset = byte_offset

    def read_to_tick(self, shards: List[_Shard]) -> int:
        """Consume up to (and including) the next tick line, routing
        announce/withdraw lines into shard buffers.  Returns the number of
        records routed."""
        routed = 0
        while True:
            line = self.handle.readline()
            if not line or not line.endswith(b"\n"):
                self.done = True
                return routed
            self.byte_offset += len(line)
            if _HEADER_MARK in line:
                continue
            if _TICK_MARK in line:
                self.pending_tick = _tick_day(line, self.path)
                return routed
            target = route_line(line, len(shards))
            if target is None:
                raise FeedError(
                    f"{self.path}: unroutable feed line {line[:80]!r}"
                )
            shards[target].buffer.append(line)
            routed += 1

    def close(self) -> None:
        if not self.handle.closed:
            self.handle.close()


def _tick_day(line: bytes, path: Path) -> float:
    try:
        return float(json.loads(line.decode("utf-8"))["t"])
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise FeedError(f"{path}: malformed tick line {line!r}: {exc}") from exc


#: One barrier's harvest in shard-index order: alarm lines, index events,
#: and (at a checkpoint boundary) each shard's engine payload.
Harvest = Tuple[List[str], List[Any], List[Optional[Dict[str, Any]]]]


class ShardedSource:
    """N feeds read a day at a time into S forked shard engines.

    Construction opens the feeds and forks the shards, so the service
    builds the source before it starts its writer thread: forking after
    another thread holds a lock can deadlock the child.
    """

    def __init__(
        self,
        feeds: Sequence[Path],
        shards: int,
        window: float,
        *,
        index: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.shard_count = shards
        self.window = window
        #: Records applied fleet-wide: routed lines plus one per day tick.
        self.records = 0
        #: The last day a barrier closed (``None`` before the first).
        self.epoch: Optional[float] = None
        self._m_records: Optional[Counter] = None
        self._m_barriers: Optional[Counter] = None
        if metrics is not None:
            self._m_records = metrics.counter("router.records")
            self._m_barriers = metrics.counter("router.barriers")
            metrics.gauge("router.shards").set(shards)
        self.feeds: List[_RoutedFeed] = []
        self._shards: List[_Shard] = []
        try:
            for path in feeds:
                self.feeds.append(_RoutedFeed(path))
            self._spawn(index)
        except BaseException:
            self.close()
            raise

    def _spawn(self, index: bool) -> None:
        import multiprocessing  # only sharded runs pay for the import

        try:
            context = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise RouterError("sharded routing requires fork support") from exc
        for number in range(self.shard_count):
            parent_conn, child_conn = context.Pipe()
            inherited = [shard.conn for shard in self._shards] + [parent_conn]
            process = context.Process(
                target=_shard_worker,
                args=(child_conn, self.window, index, inherited),
                name=f"stream-shard-{number}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._shards.append(_Shard(number, process, parent_conn))

    def close(self) -> None:
        """Stop the shard processes and close the feeds."""
        for shard in self._shards:
            try:
                shard.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            shard.conn.close()
        for shard in self._shards:
            shard.process.join(timeout=10)
            if shard.process.is_alive():  # pragma: no cover - hung worker
                shard.process.terminate()
                shard.process.join(timeout=10)
        self._shards = []
        for feed in self.feeds:
            feed.close()

    # -- coordinates -----------------------------------------------------------

    @property
    def eof(self) -> bool:
        return all(feed.done for feed in self.feeds)

    def feed_offsets(self) -> List[int]:
        return [feed.byte_offset for feed in self.feeds]

    def restore(self, records: int, state: Dict[str, Any]) -> None:
        """Adopt a composite checkpoint whose layout the caller checked."""
        for shard, shard_state in zip(self._shards, state["shards"]):
            shard.conn.send(("restore", shard_state))
        for shard in self._shards:
            reply = shard.conn.recv()
            if reply != ("ok",):  # pragma: no cover - defensive
                raise RouterError(f"shard {shard.index} failed to restore")
        for feed, offset in zip(self.feeds, state["feed_offsets"]):
            feed.seek(int(offset))
        self.epoch = state["epoch"]
        self.records = records

    # -- one day ---------------------------------------------------------------

    def advance(self) -> Tuple[int, Optional[float]]:
        """Route every live feed up to its next tick.

        Returns the records routed and the day to close with a barrier,
        or ``None`` when no feed reached a tick (some hit EOF mid-day:
        their lines stay buffered for the next barrier).
        """
        routed = 0
        for feed in self.feeds:
            if not feed.done and feed.pending_tick is None:
                routed += feed.read_to_tick(self._shards)
        self.records += routed
        if self._m_records is not None:
            self._m_records.inc(routed)
        ticking = [
            feed for feed in self.feeds
            if not feed.done and feed.pending_tick is not None
        ]
        if not ticking:
            return routed, None
        days = sorted({feed.pending_tick or 0.0 for feed in ticking})
        if len(days) != 1:
            raise RouterError(
                f"vantage feeds disagree on the current day: {days}"
            )
        for feed in ticking:
            feed.pending_tick = None
        self.records += 1  # the day's tick, applied fleet-wide
        return routed, days[0]

    def barrier(self, day: Optional[float], kind: Optional[str]) -> Harvest:
        """Synchronise every shard on ``day`` (``None``: no tick, the final
        flush) and gather, in shard-index order, what each produced since
        the last barrier — the order that fixes the merged log's lines.
        ``kind`` asks each shard for a ``"full"`` or ``"delta"`` payload."""
        for shard in self._shards:
            if shard.buffer:
                shard.conn.send(("lines", shard.buffer))
                shard.buffer = []
        for shard in self._shards:
            shard.conn.send(("barrier", day, kind))
        lines: List[str] = []
        events: List[Any] = []
        payloads: List[Optional[Dict[str, Any]]] = []
        for shard in self._shards:
            shard_lines, payload, shard_events = shard.conn.recv()
            lines.extend(shard_lines)
            events.extend(shard_events)
            payloads.append(payload)
        if day is not None:
            self.epoch = day
        if self._m_barriers is not None:
            self._m_barriers.inc()
        return lines, events, payloads

    def state(
        self, kind: str, payloads: List[Optional[Dict[str, Any]]]
    ) -> Dict[str, Any]:
        """The composite chain payload: a full document or a delta."""
        state: Dict[str, Any] = {
            "epoch": self.epoch,
            "feed_offsets": self.feed_offsets(),
            "shards": payloads,
        }
        if kind == "full":
            state["shard_count"] = self.shard_count
            state["window"] = self.window
        return state
