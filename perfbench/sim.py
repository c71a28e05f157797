"""The simulator workload: ``paper-grid``.

It drives only public callables (``build_sweep_scenarios``,
``run_hijack_scenario``, ``figure10`` and the topology generator) with
serial engines.
"""

from __future__ import annotations

import dataclasses
import gc
import random
from typing import Any, Dict, List, Tuple

from common import Span, Tally, clock, cpu_seconds, digest, durations, keep_going, peak_rss_mb, repeat_setup
from layers import derive, install_sim
from tracer import Tracer

from repro.experiments.exp_topology_size import figure10
from repro.experiments.runner import DeploymentKind, HijackOutcome, HijackScenario, run_hijack_scenario
from repro.experiments.sweep import SweepConfig, SweepPoint, build_sweep_scenarios
from repro.topology import generators

#: The Figure 10 grid: paper topologies and sweep draws at the figure's
#: own seed 8, one origin, attacker fractions 5-40 %, both arms.  The grid
#: is fixed, because other sweep seeds change its cost by up to 25 %; the
#: run's seed orders the cycles that are not measured.
PAPER_SIZES = (25, 46, 63)
PAPER_FRACTIONS = (0.05, 0.10, 0.20, 0.30, 0.40)
ARMS = (DeploymentKind.NONE, DeploymentKind.FULL)
TOPOLOGY_SEED = 8
FIGURE_SEED = 8
#: Cycles over the grid the metrics come from.  With the cycle collector
#: left off every cycle runs on a larger heap than the one before, so the
#: measured cycles are a fixed number, always completed, in a fixed order.
MEASURED_CYCLES = 3
#: The size whose curves are recomputed with ``figure10`` itself on every
#: run (the smallest: about a second).
CROSS_CHECKED_SIZE = 25
#: About three seconds of topology generation: the median over a window
#: that long is steadier than over a shorter one on a shared machine.
SETUP_REPEATS = 15


@dataclasses.dataclass
class Curve:
    """One curve of the figure: a size, an arm, every fraction's scenarios
    drawn by one sweep configuration, exactly as ``figure10`` draws them."""

    size: int
    deployment: DeploymentKind
    per_fraction: List[Tuple[float, int, List[HijackScenario]]]

    @property
    def scenarios(self) -> List[HijackScenario]:
        return [s for _, _, scenarios in self.per_fraction for s in scenarios]

    def points(self, outcomes: List[HijackOutcome]) -> List[SweepPoint]:
        """Aggregate this curve's outcomes the way ``run_sweep`` does."""
        points = []
        cursor = 0
        for fraction, n_attackers, scenarios in self.per_fraction:
            chunk = outcomes[cursor:cursor + len(scenarios)]
            cursor += len(scenarios)
            fractions = [o.poisoned_fraction for o in chunk]
            alarms = [o.alarms for o in chunk]
            points.append(SweepPoint(
                attacker_fraction=fraction,
                n_attackers=n_attackers,
                mean_poisoned_fraction=sum(fractions) / len(fractions),
                min_poisoned_fraction=min(fractions),
                max_poisoned_fraction=max(fractions),
                mean_alarms=sum(alarms) / len(alarms),
                runs=len(fractions),
            ))
        return points


def build_grid(graphs: Dict[int, Any]) -> List[Curve]:
    """Every curve in the order ``figure10`` runs them."""
    return [
        Curve(size, arm, build_sweep_scenarios(SweepConfig(
            graph=graphs[size], n_origins=1, deployment=arm,
            attacker_fractions=PAPER_FRACTIONS, seed=FIGURE_SEED,
        )))
        for size in PAPER_SIZES
        for arm in ARMS
    ]


def points_digest(curves: List[Tuple[DeploymentKind, List[SweepPoint]]]) -> str:
    """Digest of one figure panel entry: both arms' points for a size."""
    return digest([[arm.value, [dataclasses.asdict(p) for p in points]] for arm, points in curves])


def outcomes_digest(outcomes: List[HijackOutcome]) -> str:
    """Digest of outcomes with the timing field masked: poisoned sets,
    alarms, suppressions, events and updates."""
    return digest([o.masked_timing().to_dict() for o in outcomes])


class _RouteCapture:
    """Records ``Network.best_origins`` answers during verification runs."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.answers: List[Tuple[int, Dict[int, Any]]] = []

    def __enter__(self) -> "_RouteCapture":
        def keep(args: Tuple[Any, ...], result: Any, elapsed: float) -> None:
            self.answers.append((len(args[0].graph), dict(result)))

        self.tracer.install("repro.bgp.network:Network.best_origins", "verify", keep)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.tracer.uninstall()


def _verify_routes(
    tally: Tally, scenario: HijackScenario, routes: Dict[int, Any], n_ases: int, outcome: HijackOutcome
) -> None:
    """Every AS routes to a genuine or false origin.  Without deployment
    every AS holds a route; with detect-and-suppress an AS cut off from the
    genuine origin rejects every false route and is left with none, which
    the scheme intends."""
    claimants = set(scenario.origins) | set(scenario.attackers)
    tally.check(
        len(routes) == n_ases and all(o is None or o in claimants for o in routes.values()),
        "an AS routes to an origin nobody announced",
    )
    routeless = sum(1 for origin in routes.values() if origin is None)
    tally.check(
        routeless == 0 or (scenario.deployment is not DeploymentKind.NONE and outcome.routes_suppressed > 0),
        "an AS holds no route although nothing was suppressed",
    )


def _run_curve(curve: Curve, spans: List[Span]) -> List[HijackOutcome]:
    """Run a curve's scenarios one by one, cold, appending each one's
    span to ``spans``."""
    outcomes = []
    for scenario in curve.scenarios:
        started = clock()
        outcomes.append(run_hijack_scenario(scenario, warm_start="off"))
        spans.append((started, clock()))
    return outcomes


def paper_grid(seed: int, seconds: float, trace: bool, expected: Dict[str, str]) -> Dict[str, Any]:
    tally = Tally()
    tracer = Tracer()
    if trace:
        install_sim(tracer)
    setup_spans, graphs = repeat_setup(
        SETUP_REPEATS,
        # Called through the module so a traced run sees the call.
        lambda: {s: generators.generate_paper_topology(s, seed=TOPOLOGY_SEED) for s in PAPER_SIZES},
    )
    tracer.uninstall()
    rss_after_setup = peak_rss_mb()
    grid = build_grid(graphs)

    # The measured cycles run the curves in the figure's order; later
    # cycles, which serve the determinism checks, in a seeded order.
    rng = random.Random(seed)
    first: Dict[int, List[HijackOutcome]] = {}
    measured: List[Span] = []
    measured_cpu = 0.0
    plain_times: List[float] = []
    traced_times: List[float] = []
    traced_outcomes: List[HijackOutcome] = []
    unit_times: List[float] = []
    order: List[int] = []
    cycles = 0
    scenarios_run = 0
    rss_first_cycle = 0.0
    # Every curve runs at least once, for the digests; a traced run reports
    # no end-to-end metric and needs no more.
    whole = 1 if trace else MEASURED_CYCLES
    started = clock()
    while cycles < whole or (cycles == whole and order) or keep_going(started, seconds, unit_times):
        if not order:
            if cycles == 1:
                rss_first_cycle = peak_rss_mb()
            order = list(reversed(range(len(grid))))
            if cycles >= MEASURED_CYCLES:
                rng.shuffle(order)
            cycles += 1
        index = order.pop()
        curve = grid[index]
        n = len(curve.scenarios)
        spans: List[Span] = []
        cpu = cpu_seconds()
        outcomes = _run_curve(curve, spans)
        if cycles <= MEASURED_CYCLES:
            measured.extend(spans)
            measured_cpu += cpu_seconds() - cpu
        tally.attempt(n)
        scenarios_run += n
        unit = sum(durations(spans))
        for scenario, outcome in zip(curve.scenarios, outcomes):
            tally.check(
                not (outcome.poisoned & set(scenario.attackers)),
                "an attacker is counted as poisoned",
            )
        if trace:
            plain_times.append(unit)
            install_sim(tracer)
            try:
                again: List[Span] = []
                traced = _run_curve(curve, again)
            finally:
                tracer.uninstall()
            tally.attempt(n)
            scenarios_run += n
            traced_times.append(sum(durations(again)))
            traced_outcomes.extend(traced)
            unit += traced_times[-1]
            tally.check(
                outcomes_digest(traced) == outcomes_digest(outcomes), "traced run differs from untraced", n
            )
        unit_times.append(unit)
        reference = first.setdefault(index, outcomes)
        tally.check(
            outcomes_digest(reference) == outcomes_digest(outcomes), "a scenario is not deterministic", n
        )
    loop_s = clock() - started
    rss_end = peak_rss_mb()

    # Digests per size, compared with the stored ones: the masked outcomes,
    # and the figure points they aggregate to.
    digests: Dict[str, str] = {}
    for size in PAPER_SIZES:
        indices = [i for i, c in enumerate(grid) if c.size == size]
        digests[f"{size}/outcomes"] = outcomes_digest([o for i in indices for o in first[i]])
        digests[f"{size}/points"] = points_digest(
            [(grid[i].deployment, grid[i].points(first[i])) for i in indices]
        )
        keys = (f"{size}/outcomes", f"{size}/points")
        wrong = [k for k in keys if expected.get(k, digests[k]) != digests[k]]
        if wrong:
            n = sum(len(grid[i].scenarios) for i in indices)
            tally.fail(" and ".join(wrong) + " differ from the stored digests", n)

    # Untimed: the figure itself must agree with the scenarios timed here.
    size = CROSS_CHECKED_SIZE
    tally.attempt()
    panel = figure10(
        sizes=(size,), origin_counts=(1,), attacker_fractions=PAPER_FRACTIONS,
        seed=FIGURE_SEED, graphs={size: graphs[size]}, workers=1,
    ).panels[1][size]
    tally.check(
        points_digest([(c.deployment, c.points) for c in panel]) == digests[f"{size}/points"],
        f"figure10 at {size} AS disagrees with its scenarios run one by one",
    )

    # Untimed: rerun the heaviest point's scenarios and check every AS's
    # route after convergence, and that the reruns repeat the outcomes.
    for index, curve in enumerate(grid):
        if curve.size != PAPER_SIZES[-1]:
            continue
        offset = sum(len(s) for _, _, s in curve.per_fraction[:-1])
        for i, scenario in enumerate(curve.per_fraction[-1][2]):
            tally.attempt()
            with _RouteCapture() as capture:
                outcome = run_hijack_scenario(scenario, warm_start="off")
            if not tally.check(bool(capture.answers), "routes after convergence could not be read"):
                continue
            n_ases, routes = capture.answers[-1]
            _verify_routes(tally, scenario, routes, n_ases, outcome)
            tally.check(outcome.equivalent_to(first[index][offset + i]), "a rerun scenario differs")

    out: Dict[str, Any] = {
        "tally": tally,
        "digests": digests,
        "info": {
            "cycles": cycles,
            "scenarios_run": scenarios_run,
            "loop_s": loop_s,
            "gc_enabled_after_run": gc.isenabled(),
            "rss_after_setup_mb": rss_after_setup,
        },
        "timing": {
            "setup": setup_spans,
            "ops": measured,
            "work": measured,
            "count": len(measured),
            # The high-water mark after one full cycle: a fixed amount of
            # work, so the leak from GC left disabled shows at a fixed size.
            "peak_rss_mb": rss_first_cycle,
            "cpu_share": min(1.0, measured_cpu / sum(durations(measured))),
        },
    }
    if trace:
        n = len(traced_outcomes)
        out["trace"] = tracer.snapshot()
        out["layers"] = derive(
            out["trace"],
            scenarios=n,
            extra={
                "core.checker.alarms": sum(o.alarms for o in traced_outcomes) / n,
                "process.gc_enabled_after_run": float(gc.isenabled()),
                "process.rss_mb_per_scenario": (rss_end - rss_after_setup) / scenarios_run,
                "trace.overhead_ratio": sum(traced_times) / sum(plain_times),
            },
        )
    return out
