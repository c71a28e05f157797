"""Benchmark entry point: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload paper-grid --seed 8 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, each in a fresh process

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program.  ``--trace 1`` is a separate run that alternates untraced
and traced units of the same work, reports every per-layer metric and the
traced/untraced wall-time ratio, and checks that tracing changed no
output.  The last line of standard output is the result object; the full
record (environment, digests, spans) goes to
``.perfbench_work/results/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-grid", "stream-ingest", "query-mix")
DEFAULT_SEED = 8
#: Reported metric -> (figure, unit).  Times are normalised to a fixed
#: machine speed (speedometer.py), hence ``_norm``; ``setup_s`` is
#: normalised too but keeps the name the benchmark contract gives it.
END_TO_END = {
    "setup_s": ("setup_s", "s"),
    "peak_rss_mb": ("peak_rss_mb", "MB"),
    "ops_per_s_norm": ("ops_per_s", "1/s"),
    "op_p50_ms_norm": ("op_p50_ms", "ms"),
    "op_p99_ms_norm": ("op_p99_ms", "ms"),
}


def environment(args: argparse.Namespace) -> Dict[str, Any]:
    """Where and on what the numbers were taken."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode("utf-8"))
        source.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": source.hexdigest()[:16],
        "loadavg": list(os.getloadavg()),
    }


def run_one(args: argparse.Namespace) -> Dict[str, Any]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import sim
    import stream
    from common import durations, end_to_end
    from speedometer import Speedometer

    expected_all = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    # Digests of the default seed, or of every seed ("any") where the
    # workload's content does not depend on the seed.
    stored = expected_all.get(args.workload, {})
    expected = stored.get(str(args.seed), stored.get("any", {}))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace = bool(args.trace)
    try:
        with Speedometer(work / "speed.txt") as meter:
            if args.workload == "paper-grid":
                out = sim.paper_grid(args.seed, args.seconds, trace, expected)
            elif args.workload == "stream-ingest":
                out = stream.stream_ingest(args.seed, args.seconds, trace, expected, work)
            else:
                out = stream.query_mix(args.seed, args.seconds, trace, work, ROOT)
            if not trace:
                out["raw"] = end_to_end(out["timing"], lambda spans, _share: durations(spans))
                out["normalised"] = end_to_end(out["timing"], meter.scale)
            return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh interpreter; one combined result line."""
    attempted = failed = 0
    metrics: Dict[str, Any] = {}
    for workload in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"{workload} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics[f"{workload}.{name}"] = metric
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # Settings that change what the program does come from the command
    # line only, never from the caller's environment.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    if args.workload == "all":
        return run_all(args)

    env = environment(args)
    out = run_one(args)
    tally = out["tally"]
    # A wrapped entry point that no longer resolves would leave its
    # per-layer metrics at 0, which reads as a gain: the run fails instead.
    missing = (out.get("trace") or {}).get("missing") or []
    if missing:
        print("missing trace targets: " + ", ".join(missing))
        tally.fail("trace targets could not be installed: " + ", ".join(missing))
    if args.trace:
        sys.path.insert(0, str(HERE))
        from layers import PER_LAYER

        values = out["layers"]
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
    else:
        normalised = out["normalised"]
        metrics = {
            name: {"value": normalised[figure], "unit": unit} for name, (figure, unit) in END_TO_END.items()
        }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = dict(result, environment=env, failures=tally.reasons, digests=out.get("digests"),
                  raw=out.get("raw"), cpu_share=out.get("timing", {}).get("cpu_share"),
                  info=out.get("info"), trace=out.get("trace"))
    results = ROOT / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print("environment " + json.dumps(env))
    if args.trace:
        for key, metric in metrics.items():
            print(f"{key:40s} {metric['value']:.6g} {metric['unit']}")
    else:
        # The program's own wall-clock figures beside the reported ones.
        for key, (figure, unit) in END_TO_END.items():
            raw, normalised = out["raw"][figure], out["normalised"][figure]
            print(f"{figure:12s} raw {raw:12.6g}   {key:15s} {normalised:12.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
