"""Which ``repro`` entry points belong to which layer, and the per-layer
metrics derived from a traced run.

Layers are named after the modules that implement them.  Every target is
``module:Class.method`` or ``module:function``; a target that a later
refactor removes is reported as missing by the tracer, and ``run.py``
then prints it and counts the run as failed.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from tracer import Tracer, layer_totals

#: Simulator layers (paper-grid).
SIM_TARGETS: List[Tuple[str, str]] = [
    ("repro.topology.generators:generate_paper_topology", "topology"),
    ("repro.bgp.network:Network.__init__", "bgp.network.build"),
    ("repro.core.deployment:DeploymentPlan.apply", "bgp.network.build"),
    ("repro.bgp.network:Network.establish_sessions", "bgp.network.establish"),
    ("repro.bgp.network:Network.run_to_convergence", "bgp.network.converge"),
    ("repro.eventsim.simulator:Simulator.run", "eventsim.simulator"),
    ("repro.eventsim.queue:EventQueue.push", "eventsim.queue.push"),
    ("repro.eventsim.queue:EventQueue.pop_due", "eventsim.queue.pop"),
    ("repro.net.link:Link.send", "net.link"),
    ("repro.net.link:Link._deliver", "net.link.deliver"),
    ("repro.bgp.session:Session.handle_wire", "bgp.session"),
    ("repro.bgp.speaker:BGPSpeaker.handle_update", "bgp.speaker"),
    ("repro.bgp.interning:RouteInterner.attributes", "bgp.interning"),
    ("repro.bgp.interning:RouteInterner.as_path", "bgp.interning"),
]

#: Stream-ingest layers (the writer thread's spans keep its thread name).
STREAM_TARGETS: List[Tuple[str, str]] = [
    ("repro.stream.service:StreamService.run", "stream.service"),
    ("repro.stream.service:_WriterPump.submit", "stream.service.wait"),
    ("repro.stream.service:_WriterPump.close", "stream.service.wait"),
    ("repro.stream.service:StreamService._execute_boundary", "stream.service.writer"),
    ("repro.stream.engine:StreamEngine.snapshot_state", "stream.engine.state"),
    ("repro.stream.engine:StreamEngine.delta_state", "stream.engine.state"),
    ("repro.stream.engine:StreamEngine.mark_clean", "stream.engine.state"),
    ("repro.query.builder:IndexBuilder.observe", "query.builder.observe"),
    ("repro.query.builder:IndexBuilder.prepare_boundary", "query.builder.prepare"),
]

#: Query-server layers, installed inside the server process.
QUERY_TARGETS: List[Tuple[str, str]] = [
    ("repro.query.reader:QueryIndex.__init__", "query.reader.fold"),
    ("repro.query.reader:QueryIndex.reload_if_changed", "query.reader.reload"),
    ("repro.query.segments:load_manifest", "query.segments.manifest"),
    ("repro.query.segments:load_segment", "query.segments.load"),
    ("repro.query.model:prefix_report", "query.model.answer"),
    ("repro.query.model:stats_answer", "query.model.answer"),
    ("repro.query.model:top_answer", "query.model.answer"),
    ("repro.query.model:daily_answer", "query.model.answer"),
    ("repro.query.model:canonical_json", "query.model.json"),
    ("repro.query.server:QueryRequestHandler.do_GET", "query.server.handler"),
]

#: Every per-layer metric: name -> (unit, better).  Each traced run prints
#: all of them; a layer the workload does not reach reads 0.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "topology.generate_s": ("s", "lower"),
    "bgp.network.build_s": ("s/scenario", "lower"),
    "bgp.network.establish_s": ("s/scenario", "lower"),
    "bgp.network.converge_s": ("s/scenario", "lower"),
    "eventsim.events": ("n/scenario", "lower"),
    "eventsim.queue.pushes": ("n/scenario", "lower"),
    "eventsim.queue.self_s": ("s/scenario", "lower"),
    "net.link.sends": ("n/scenario", "lower"),
    "net.link.deliveries": ("n/scenario", "lower"),
    "net.link.msgs_per_delivery": ("ratio", "higher"),
    "net.link.self_s": ("s/scenario", "lower"),
    "bgp.session.wire_msgs": ("n/scenario", "lower"),
    "bgp.session.self_s": ("s/scenario", "lower"),
    "bgp.speaker.updates_in": ("n/scenario", "lower"),
    "bgp.speaker.updates_sent": ("n/scenario", "lower"),
    "bgp.speaker.self_s": ("s/scenario", "lower"),
    "bgp.interning.lookups": ("n/scenario", "lower"),
    "bgp.interning.hit_ratio": ("ratio", "higher"),
    "bgp.interning.entries": ("n/scenario", "lower"),
    "core.checker.validations": ("n/scenario", "lower"),
    "core.checker.alarms": ("n/scenario", "lower"),
    "core.checker.suppressed": ("n/scenario", "lower"),
    "core.checker.self_s": ("s/scenario", "lower"),
    "process.gc_enabled_after_run": ("bool", "higher"),
    "process.rss_mb_per_scenario": ("MB/scenario", "lower"),
    "stream.feed.records": ("n/pass", "higher"),
    "stream.feed.read_s": ("s/pass", "lower"),
    "stream.engine.apply_s": ("s/pass", "lower"),
    "stream.engine.alarms": ("n/pass", "lower"),
    "stream.engine.state_s": ("s/pass", "lower"),
    "stream.checkpoint.fulls": ("n/pass", "lower"),
    "stream.checkpoint.deltas": ("n/pass", "lower"),
    "stream.checkpoint.bytes": ("bytes/pass", "lower"),
    "stream.checkpoint.write_s": ("s/pass", "lower"),
    "stream.service.boundary_wait_s": ("s/pass", "lower"),
    "stream.service.unattributed_s": ("s/pass", "lower"),
    "query.builder.observe_s": ("s/pass", "lower"),
    "query.builder.prepare_s": ("s/pass", "lower"),
    "query.builder.commit_s": ("s/pass", "lower"),
    "query.builder.segments": ("n/pass", "lower"),
    "measurement.batch_oracle_s": ("s", "lower"),
    "query.reader.fold_s": ("s", "lower"),
    "query.reader.reload_checks": ("n/request", "lower"),
    "query.segments.manifest_load_s": ("s/request", "lower"),
    "query.model.answer_s": ("s/request", "lower"),
    "query.model.json_s": ("s/request", "lower"),
    "query.server.p50_200_ms": ("ms", "lower"),
    "query.server.p50_304_ms": ("ms", "lower"),
    "query.server.not_modified_share": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


# -- hooks --------------------------------------------------------------------


def install_sim(tracer: Tracer) -> None:
    """Simulator targets plus the per-scenario read-outs.

    ``Network.best_origins`` runs once per scenario, after convergence, so
    its hook reads the scenario's totals off the public network object.
    """
    for target, layer in SIM_TARGETS:
        tracer.install(target, layer)

    def after_measure(args: Tuple[Any, ...], result: Any, elapsed: float) -> None:
        network = args[0]
        tracer.add("scenarios")
        tracer.add("events", network.sim.events_processed)
        tracer.add("updates_sent", network.total_updates_sent())
        stats = network.interner.stats()
        tracer.add("intern_hits", stats["hits"])
        tracer.add("intern_misses", stats["misses"])
        tracer.add("intern_entries", stats["attributes"] + stats["paths"])

    def after_validate(args: Tuple[Any, ...], result: Any, elapsed: float) -> None:
        if result is False:
            tracer.add("suppressed")

    tracer.install("repro.bgp.network:Network.best_origins", "bgp.network.measure", after_measure)
    tracer.install("repro.core.checker:MoasChecker.validate", "core.checker", after_validate)


def install_stream(tracer: Tracer) -> None:
    for target, layer in STREAM_TARGETS:
        tracer.install(target, layer)
    delta_sizes: Dict[int, int] = {}

    def after_read(args: Tuple[Any, ...], result: Any, elapsed: float) -> None:
        tracer.add("records", len(result))

    def after_apply(args: Tuple[Any, ...], result: Any, elapsed: float) -> None:
        if result:
            tracer.add("alarms", len(result))

    def _size(path: Any) -> int:
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    def after_full(args: Tuple[Any, ...], result: Any, elapsed: float) -> None:
        writer = args[0]
        tracer.add("fulls")
        tracer.add("checkpoint_bytes", _size(writer.path))
        delta_sizes[id(writer)] = _size(writer.delta_path)

    def after_delta(args: Tuple[Any, ...], result: Any, elapsed: float) -> None:
        writer = args[0]
        size = _size(writer.delta_path)
        tracer.add("deltas")
        tracer.add("checkpoint_bytes", max(0, size - delta_sizes.get(id(writer), 0)))
        delta_sizes[id(writer)] = size

    def after_commit(args: Tuple[Any, ...], result: Any, elapsed: float) -> None:
        tracer.add("segments")

    tracer.install("repro.stream.service:FeedTailer.read_batch", "stream.feed", after_read)
    tracer.install("repro.stream.engine:StreamEngine.apply", "stream.engine", after_apply)
    tracer.install("repro.stream.checkpoint:ChainWriter.write_full", "stream.checkpoint", after_full)
    tracer.install("repro.stream.checkpoint:ChainWriter.append_delta", "stream.checkpoint", after_delta)
    tracer.install("repro.query.builder:IndexBuilder.commit", "query.builder.commit", after_commit)


def install_query(tracer: Tracer) -> None:
    for target, layer in QUERY_TARGETS:
        tracer.install(target, layer)


# -- derivation ---------------------------------------------------------------


def _per(value: float, n: float) -> float:
    return value / n if n else 0.0


def derive(
    snap: Dict[str, Any],
    *,
    scenarios: int = 0,
    passes: int = 0,
    requests: int = 0,
    server_starts: int = 0,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric from one tracer snapshot.

    Times and counts are per unit of the workload: per simulated scenario,
    per feed pass, or per HTTP request (``query.reader.fold_s`` per server
    start).  ``extra`` supplies the metrics measured outside the tracer.
    """
    totals = layer_totals(snap)
    counters = snap["counters"]

    def busy(layer: str) -> float:
        return totals.get(layer, {}).get("busy_s", 0.0)

    def own(layer: str) -> float:
        return totals.get(layer, {}).get("self_s", 0.0)

    def calls(layer: str) -> float:
        return totals.get(layer, {}).get("count", 0)

    out = {name: 0.0 for name in PER_LAYER}
    topo_calls = calls("topology")
    out["topology.generate_s"] = _per(busy("topology"), topo_calls)
    if scenarios:
        n = scenarios
        deliveries = calls("net.link.deliver")
        wire = calls("bgp.session")
        lookups = counters.get("intern_hits", 0.0) + counters.get("intern_misses", 0.0)
        out.update({
            "bgp.network.build_s": busy("bgp.network.build") / n,
            "bgp.network.establish_s": busy("bgp.network.establish") / n,
            "bgp.network.converge_s": busy("bgp.network.converge") / n,
            "eventsim.events": counters.get("events", 0.0) / n,
            "eventsim.queue.pushes": calls("eventsim.queue.push") / n,
            "eventsim.queue.self_s": (own("eventsim.queue.push") + own("eventsim.queue.pop")) / n,
            "net.link.sends": calls("net.link") / n,
            "net.link.deliveries": deliveries / n,
            "net.link.msgs_per_delivery": _per(wire, deliveries),
            "net.link.self_s": (own("net.link") + own("net.link.deliver")) / n,
            "bgp.session.wire_msgs": wire / n,
            "bgp.session.self_s": own("bgp.session") / n,
            "bgp.speaker.updates_in": calls("bgp.speaker") / n,
            "bgp.speaker.updates_sent": counters.get("updates_sent", 0.0) / n,
            "bgp.speaker.self_s": own("bgp.speaker") / n,
            "bgp.interning.lookups": lookups / n,
            "bgp.interning.hit_ratio": _per(counters.get("intern_hits", 0.0), lookups),
            "bgp.interning.entries": counters.get("intern_entries", 0.0) / n,
            "core.checker.validations": calls("core.checker") / n,
            "core.checker.suppressed": counters.get("suppressed", 0.0) / n,
            "core.checker.self_s": own("core.checker") / n,
        })
    if passes:
        p = passes
        ingest = layer_totals(snap, thread="MainThread")
        out.update({
            "stream.feed.records": counters.get("records", 0.0) / p,
            "stream.feed.read_s": busy("stream.feed") / p,
            "stream.engine.apply_s": busy("stream.engine") / p,
            "stream.engine.alarms": counters.get("alarms", 0.0) / p,
            "stream.engine.state_s": busy("stream.engine.state") / p,
            "stream.checkpoint.fulls": counters.get("fulls", 0.0) / p,
            "stream.checkpoint.deltas": counters.get("deltas", 0.0) / p,
            "stream.checkpoint.bytes": counters.get("checkpoint_bytes", 0.0) / p,
            "stream.checkpoint.write_s": busy("stream.checkpoint") / p,
            "stream.service.boundary_wait_s": busy("stream.service.wait") / p,
            "stream.service.unattributed_s": ingest.get("stream.service", {}).get("self_s", 0.0) / p,
            "query.builder.observe_s": busy("query.builder.observe") / p,
            "query.builder.prepare_s": busy("query.builder.prepare") / p,
            "query.builder.commit_s": busy("query.builder.commit") / p,
            "query.builder.segments": counters.get("segments", 0.0) / p,
        })
    if requests:
        r = requests
        out.update({
            "query.reader.fold_s": _per(busy("query.reader.fold"), server_starts),
            "query.reader.reload_checks": calls("query.reader.reload") / r,
            "query.segments.manifest_load_s": busy("query.segments.manifest") / r,
            "query.model.answer_s": busy("query.model.answer") / r,
            "query.model.json_s": busy("query.model.json") / r,
        })
    if extra:
        out.update(extra)
    return out

