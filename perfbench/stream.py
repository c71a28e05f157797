"""The online workloads: ``stream-ingest`` and ``query-mix``.

``stream-ingest`` runs ``StreamService`` in its production durability
setting over a refresh-mode feed.  ``query-mix`` drives ``repro query
serve`` in a child process with a closed-loop keep-alive HTTP client.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import quote

from common import (
    Span, Tally, clock, cpu_seconds, durations, keep_going, log, median, peak_rss_mb, percentile,
    repeat_setup,
)
from layers import derive, install_stream
from tracer import Tracer

from repro.measurement.trace import FaultSpike, TraceConfig, TraceGenerator
from repro.query.model import (
    TOP_KEYS,
    canonical_json,
    daily_answer,
    prefix_report,
    stats_answer,
    top_answer,
)
from repro.query.scan import scan_state
from repro.query.segments import load_manifest, manifest_etag
from repro.stream.feed import FeedWriter, snapshot_deltas
from repro.stream.service import StreamService

#: The 120-day paper-calibrated segment with one fault spike.
TRACE_CONFIG = TraceConfig(
    days=120,
    faults=(FaultSpike(day=60, faulty_as=8584, n_prefixes=300),),
    n_background_prefixes=500,
    include_background=True,
)
#: Production durability: chain every 2000 records, compaction every 32.
SERVICE_SETTINGS = dict(batch_size=1024, checkpoint_every=2000, full_every=32)
#: About three seconds of set-ups each (see sim.SETUP_REPEATS).
SETUP_REPEATS = 45
QUERY_SETUP_REPEATS = 5
CLIENT_CONNECTIONS = 2
#: The request mix is an assumption, not a measurement: the repository
#: holds no access log or traffic source.  Its basis is the ROADMAP's
#: "Zipf-popular prefix workload" and the many concurrent consumers
#: CommunityWatch motivates: 70 % /v1/prefix with Zipf(1.1) popularity,
#: 10 % each /v1/top, /v1/stats and /v1/daily (``_query_inputs``), a
#: 4000-request sequence, and a quarter of requests revalidating with
#: If-None-Match.  A 304 costs far less than a 200, so ops_per_s_norm
#: follows the conditional share, and above a 50 % share op_p50_ms_norm
#: would measure the 304 path instead of the 200 path.
QUERY_REQUESTS = 4000
NOT_MODIFIED_SHARE = 0.25
ZIPF_EXPONENT = 1.1
TRACE_SLICE_S = 1.0


def write_feed(path: Path, seed: int, refresh: bool) -> int:
    generator = TraceGenerator(TRACE_CONFIG, random.Random(seed))
    with FeedWriter(path) as writer:
        return writer.write_all(snapshot_deltas(generator.snapshots(), refresh=refresh))


def _file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _service(feed: Path, out: Path, **extra: Any) -> StreamService:
    return StreamService(
        feed,
        out / "alarms.jsonl",
        out / "cp.json",
        index=out / "index",
        **SERVICE_SETTINGS,
        **extra,
    )


# -- stream-ingest ------------------------------------------------------------------


def stream_ingest(
    seed: int, seconds: float, trace: bool, expected: Dict[str, str], work: Path
) -> Dict[str, Any]:
    tally = Tally()
    feed = work / "feed.jsonl"
    records = write_feed(feed, seed, refresh=True)
    t0 = clock()
    observer, _ = TraceGenerator(TRACE_CONFIG, random.Random(seed)).run_study(
        duration_cutoff=TRACE_CONFIG.days
    )
    batch_oracle_s = clock() - t0
    batch_series = observer.daily_series()

    # Set-up: construct the service and run it to its first durable
    # checkpoint (one batch, then the closing flush).
    def setup_once() -> None:
        out = _fresh(work / "setup")
        _service(feed, out, max_records=SERVICE_SETTINGS["batch_size"]).run()

    setup_spans, _ = repeat_setup(SETUP_REPEATS, setup_once)

    alarm_digest: Optional[str] = None
    pass_spans: List[Span] = []
    pass_cpu = 0.0
    intervals: List[Span] = []
    unit_times: List[float] = []
    plain_times: List[float] = []
    traced_times: List[float] = []
    tracer = Tracer()

    def one_pass(traced: bool) -> Span:
        nonlocal alarm_digest
        out = _fresh(work / "pass")
        marks: List[float] = []
        if traced:
            install_stream(tracer)
        try:
            started = clock()
            # A no-op sleeper behind a vanishing throttle timestamps each
            # batch; nothing sleeps.
            service = _service(feed, out, throttle=1e-9, sleeper=lambda _s: marks.append(clock()))
            summary = service.run()
            ended = clock()
        finally:
            if traced:
                tracer.uninstall()
        tally.attempt(records)
        if not traced:
            # The sleeper runs after each batch, before its boundary
            # flush: any two batches span one durable boundary.
            intervals.extend((marks[i], marks[i + 2]) for i in range(0, len(marks) - 2, 2))
        log_sha = _file_sha(out / "alarms.jsonl")
        manifest = load_manifest(out / "index")
        checks = {
            "pass did not consume the feed": summary.records == records and summary.eof,
            "daily MOAS counts differ from the batch fold": summary.daily_series == batch_series,
            "alarm log differs between passes": alarm_digest in (None, log_sha),
            "alarm log differs from the stored digest": expected.get("alarm_log", log_sha) == log_sha,
            "daily series differs from the stored digest": (
                expected.get("daily", "") in ("", _series_sha(summary.daily_series))
            ),
            "checkpoint chain not written": summary.checkpoint_fulls >= 1 and summary.checkpoint_deltas >= 1,
            "index does not cover the feed": manifest is not None and manifest["end"]["records"] == records,
        }
        failed = [reason for reason, ok in checks.items() if not ok]
        if failed:
            tally.fail("; ".join(failed), records)
        alarm_digest = alarm_digest or log_sha
        return started, ended

    started = clock()
    while keep_going(started, seconds, unit_times):
        cpu = cpu_seconds()
        span = one_pass(False)
        pass_cpu += cpu_seconds() - cpu
        pass_spans.append(span)
        unit = span[1] - span[0]
        if trace:
            plain_times.append(unit)
            again = one_pass(True)
            traced_times.append(again[1] - again[0])
            unit += traced_times[-1]
        unit_times.append(unit)
    pass_times = durations(pass_spans)

    out: Dict[str, Any] = {
        "tally": tally,
        "digests": {"alarm_log": alarm_digest, "daily": _series_sha(batch_series)},
        "info": {
            "records": records,
            "passes": len(pass_times),
            "pass_s": pass_times,
            "batch_oracle_s": batch_oracle_s,
        },
        "timing": {
            "setup": setup_spans,
            "ops": intervals,
            "work": pass_spans,
            "count": records * len(pass_spans),
            "peak_rss_mb": peak_rss_mb(),
            "cpu_share": min(1.0, pass_cpu / sum(pass_times)),
        },
    }
    if trace:
        out["trace"] = tracer.snapshot()
        out["layers"] = derive(
            out["trace"],
            passes=len(traced_times),
            extra={
                "measurement.batch_oracle_s": batch_oracle_s,
                "trace.overhead_ratio": sum(traced_times) / sum(plain_times),
            },
        )
    log(f"stream-ingest: {len(pass_times)} pass(es) of {records} records, median {median(pass_times):.3f}s")
    return out


def _series_sha(series: List[int]) -> str:
    return hashlib.sha256(repr(list(series)).encode("ascii")).hexdigest()[:16]


# -- query-mix ------------------------------------------------------------------


class _Server:
    """``repro query serve`` in a child process (optionally traced)."""

    PORT_LINE = re.compile(r"http://([0-9.]+):([0-9]+)")

    def __init__(self, root: Path, index: Path, trace_out: Optional[Path] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        if trace_out is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [
                sys.executable,
                str(root / "perfbench" / "serve_traced.py"),
                "--trace-out",
                str(trace_out),
                "--",
            ]
        argv += ["query", "serve", str(index), "--port", "0"]
        self.proc = subprocess.Popen(
            argv, env=env, cwd=str(root), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline() if self.proc.stdout else ""
        match = self.PORT_LINE.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"query server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


def _query_inputs(seed: int, state: Any) -> Tuple[List[Tuple[str, bool]], Dict[str, bytes]]:
    """The seeded request sequence and the oracle body for each path."""
    rng = random.Random(seed)
    prefixes = sorted(state.prefixes)
    rng.shuffle(prefixes)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(prefixes))]
    requests: List[Tuple[str, bool]] = []
    docs: Dict[str, Any] = {}
    for prefix in rng.choices(prefixes, weights, k=QUERY_REQUESTS):
        pick = rng.random()
        if pick < 0.7:
            path = "/v1/prefix?p=" + quote(prefix, safe="")
            docs.setdefault(path, lambda p=prefix: prefix_report(state, p))
        elif pick < 0.8:
            k, by = rng.choice((5, 10, 25)), rng.choice(TOP_KEYS)
            path = f"/v1/top?k={k}&by={by}"
            docs.setdefault(path, lambda k=k, by=by: top_answer(state, k, by))
        elif pick < 0.9:
            path = "/v1/stats"
            docs.setdefault(path, lambda: stats_answer(state))
        else:
            kind = rng.choice(("alarms", "moas"))
            path = f"/v1/daily?kind={kind}"
            docs.setdefault(path, lambda kind=kind: daily_answer(state, kind))
        requests.append((path, rng.random() < NOT_MODIFIED_SHARE))
    bodies = {path: (canonical_json(make()) + "\n").encode("utf-8") for path, make in docs.items()}
    return requests, bodies


class _Client:
    """Closed loop: each connection sends its next request only after the
    previous answer arrived.  Every answer is checked against the oracle."""

    def __init__(self, requests: List[Tuple[str, bool]], bodies: Dict[str, bytes], etag: str, tally: Tally) -> None:
        self.requests = requests
        self.bodies = bodies
        self.etag = etag
        self.tally = tally
        self.lock = threading.Lock()

    def drive(
        self, server: _Server, start: int, deadline: Optional[float] = None, count: Optional[int] = None
    ) -> List[Tuple[float, float, int]]:
        """Run until ``deadline`` or ``count`` requests; (start, end, status) each."""
        samples: List[Tuple[float, float, int]] = []
        cursor = [start]

        def take() -> Optional[int]:
            with self.lock:
                if count is not None and cursor[0] - start >= count:
                    return None
                if deadline is not None and clock() >= deadline:
                    return None
                index = cursor[0]
                cursor[0] += 1
                return index

        def worker() -> None:
            conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
            try:
                while True:
                    index = take()
                    if index is None:
                        return
                    path, conditional = self.requests[index % len(self.requests)]
                    headers = {"If-None-Match": self.etag} if conditional else {}
                    try:
                        t0 = clock()
                        conn.request("GET", path, headers=headers)
                        response = conn.getresponse()
                        body = response.read()
                        t1 = clock()
                    except (OSError, http.client.HTTPException) as exc:
                        with self.lock:
                            self.tally.attempt()
                            self.tally.fail(f"request error: {exc!r}")
                        conn.close()
                        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
                        continue
                    status = response.status
                    if conditional:
                        good = status == 304 and body == b""
                    else:
                        good = status == 200 and body == self.bodies[path]
                    good = good and response.getheader("ETag") == self.etag
                    with self.lock:
                        self.tally.attempt()
                        samples.append((t0, t1, status))
                        if not good:
                            self.tally.fail(f"wrong answer for {path} (status {status})")
            finally:
                conn.close()

        threads = [threading.Thread(target=worker) for _ in range(CLIENT_CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return samples


def _first_answer(server: _Server, body: bytes, etag: str) -> bool:
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("GET", "/v1/stats")
        response = conn.getresponse()
        return response.status == 200 and response.read() == body and response.getheader("ETag") == etag
    finally:
        conn.close()


def query_mix(seed: int, seconds: float, trace: bool, work: Path, root: Path) -> Dict[str, Any]:
    tally = Tally()
    # The diff-mode encoding of the same trace: identical origin history,
    # a fraction of the records, so input generation stays cheap.
    feed = work / "feed.jsonl"
    write_feed(feed, seed, refresh=False)
    built = _fresh(work / "built")
    _service(feed, built).run()
    index = built / "index"
    state = scan_state([feed], built / "alarms.jsonl")
    manifest = load_manifest(index)
    etag = manifest_etag(manifest) if manifest is not None else ""
    requests, bodies = _query_inputs(seed, state)
    stats_body = (canonical_json(stats_answer(state)) + "\n").encode("utf-8")
    client = _Client(requests, bodies, etag, tally)

    servers: List[_Server] = []

    def start_to_first_answer() -> _Server:
        server = _Server(root, index)
        servers.append(server)
        tally.attempt()
        tally.check(_first_answer(server, stats_body, etag), "first answer wrong")
        return server

    try:
        setup_spans: List[Span] = []
        for attempt in range(QUERY_SETUP_REPEATS):
            t0 = clock()
            plain = start_to_first_answer()
            setup_spans.append((t0, clock()))
            if attempt < QUERY_SETUP_REPEATS - 1:
                plain.stop()
        out: Dict[str, Any]
        if not trace:
            cpu = cpu_seconds() + cpu_seconds(plain.proc.pid)
            started = clock()
            samples = client.drive(plain, 0, deadline=started + seconds)
            loop = (started, clock())
            # Client and server CPU over the requests' summed latency.
            cpu = cpu_seconds() + cpu_seconds(plain.proc.pid) - cpu
            plain.stop()
            requests = [(start, end) for start, end, _ in samples]
            out = {
                "timing": {
                    "setup": setup_spans,
                    "ops": requests,
                    "work": [loop],
                    "count": len(samples),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
                    "cpu_share": min(1.0, cpu / sum(durations(requests))),
                },
                "info": {"requests": len(samples)},
            }
        else:
            trace_file = work / "server-trace.json"
            traced = _Server(root, index, trace_out=trace_file)
            servers.append(traced)
            plain_samples: List[Tuple[float, float, int]] = []
            plain_s = traced_s = 0.0
            traced_requests = 0
            cursor = 0
            started = clock()
            # Paired slices: the plain server answers for a while, then the
            # traced one answers exactly the same requests.
            while clock() - started < seconds:
                t0 = clock()
                got = client.drive(plain, cursor, deadline=t0 + TRACE_SLICE_S)
                plain_s += clock() - t0
                plain_samples.extend(got)
                t0 = clock()
                again = client.drive(traced, cursor, count=len(got))
                traced_s += clock() - t0
                traced_requests += len(again)
                cursor += len(got)
            plain.stop()
            traced.stop()
            snap = json.loads(trace_file.read_text(encoding="utf-8"))
            ok_ms = [(s[1] - s[0]) * 1000.0 for s in plain_samples if s[2] == 200]
            nm_ms = [(s[1] - s[0]) * 1000.0 for s in plain_samples if s[2] == 304]
            out = {
                "trace": snap,
                "layers": derive(
                    snap,
                    requests=traced_requests,
                    server_starts=1,
                    extra={
                        "query.server.p50_200_ms": percentile(ok_ms, 50),
                        "query.server.p50_304_ms": percentile(nm_ms, 50),
                        "query.server.not_modified_share": len(nm_ms) / max(1, len(plain_samples)),
                        "trace.overhead_ratio": traced_s / plain_s,
                    },
                ),
                "info": {"requests": len(plain_samples) + traced_requests},
            }
    finally:
        for server in servers:
            server.stop()
    out["tally"] = tally
    out["digests"] = {"etag": etag}
    return out
