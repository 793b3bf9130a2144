"""The bench registry: each BENCH_sim.json section, its runs and its gates.

Each :class:`Entry` names one report section, produces it at full or
smoke size from fixed parameters and seeds, and lists its
:class:`Gate` rows.  A gate measures labelled values from the section
and holds every value to one limit, either as a floor
(``value >= limit``) or as a ceiling (``value <= limit``):

* **hard** gates guard deterministic properties (same-seed reruns give
  equal digests, zero invariant violations); a hard gate that fires
  fails the run;
* **soft** gates guard wall-clock floors, which move with the host, so
  a soft gate that fires only warns.

:func:`evaluate` is the one loop that checks them.  A requested section
that is absent, or that lacks a value a gate reads, fires that gate
rather than skipping it.  ``scripts/bench.py`` runs it from the command
line::

    PYTHONPATH=src python scripts/bench.py                      # full
    PYTHONPATH=src python scripts/bench.py --smoke --only skew  # CI-sized
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

#: Seed of every simulated section except the fuzz search.
SEED = 0
#: The fuzz search's seed and run-count budget (the same at both sizes).
FUZZ_SEED = 42
FUZZ_BUDGET = 300
#: Where the fuzz entry saves its corpus (violating entries under
#: ``violations/``), for post-mortems of a failed search.
FUZZ_CORPUS_DIR = "fuzz_corpus"

_REPO = Path(__file__).resolve().parents[2]

Section = Dict[str, Any]
Values = Iterable[Tuple[str, float]]


@dataclass(frozen=True)
class Gate:
    """One check over a section: every measured value against ``limit``."""

    name: str
    hard: bool
    measure: Callable[[Section], Values]
    limit: float
    #: ``True``: values must stay at or under ``limit``; else at or over.
    ceiling: bool = False


@dataclass(frozen=True)
class Entry:
    """One report section: its run function and its gates."""

    name: str
    run: Callable[[bool], Section]      # smoke -> section
    gates: Tuple[Gate, ...]


# -- run functions ------------------------------------------------------------


def run_figures(smoke: bool) -> Section:
    """The figure sweep (runner task tables), shaped like the baselines."""
    from .experiments import runner

    report = runner.run_experiments(
        runner.SMOKE_TASKS if smoke else runner.DEFAULT_TASKS)
    for figure, stats in sorted(report["figures"].items()):
        print(f"{figure}: {stats['events']:,} events in "
              f"{stats['wall_seconds']:.2f}s "
              f"({stats['events_per_sec']:,.0f} events/s)")
    return report


def run_scale(smoke: bool) -> Section:
    """Control-plane publish and frontend sweep (Figs 15/16 regime)."""
    from .experiments.scale_bench import run_sweep

    if smoke:
        section = run_sweep((10_000,), rounds=10, route_lookups=20_000,
                            seed=SEED)
    else:
        section = run_sweep(seed=SEED)
    section["smoke"] = smoke
    for point in section["points"]:
        best = max(s["publishes_per_sec"] for s in point["publish_sweep"])
        print(f"shards={point['shards']:>9,}  "
              f"publish(dirty=1)={best:>10,.0f}/s  "
              f"full={point['full_map_bytes']:>12,}B  "
              f"delta(min)={point['publish_sweep'][0]['delta_bytes']:>8,}B  "
              f"routes={point['frontend_routes_per_sec']:>12,.0f}/s  "
              f"({point['frontend_speedup_vs_linear']:,.0f}x linear)")
    return section


def run_fluid(smoke: bool) -> Section:
    """Event- vs fluid-mode Fig 18 walls, then the 10M-user scenario."""
    from .experiments import fig18_production_upgrades, fluid_scale

    if smoke:
        fig18_kwargs = dict(shards=120, servers=10, day_length=1_200.0,
                            days=1, seed=SEED)
        scale_kwargs = dict(users=1_000_000, shards=200,
                            servers_per_region=8, day_length=1_200.0,
                            days=1, epoch=15.0, seed=SEED)
    else:
        fig18_kwargs = dict(shards=400, servers=20, day_length=3_600.0,
                            days=2, seed=SEED)
        scale_kwargs = dict(seed=SEED)

    fig18, walls = {}, {}
    for traffic in ("event", "fluid"):
        start = time.perf_counter()
        fig18[traffic] = fig18_production_upgrades.run(traffic=traffic,
                                                       **fig18_kwargs)
        walls[traffic] = time.perf_counter() - start
        print(f"fig18 {traffic}: {walls[traffic]:.2f}s  "
              f"err={fig18[traffic].overall_error_rate:.5f}  "
              f"upgrades={fig18[traffic].upgrades_run}")
    event, fluid = fig18["event"], fig18["fluid"]

    scale = fluid_scale.run(**scale_kwargs)
    print(fluid_scale.format_report(scale))
    return {
        "smoke": smoke,
        "fig18": {
            "event_wall_seconds": walls["event"],
            "fluid_wall_seconds": walls["fluid"],
            "speedup": (walls["event"] / walls["fluid"]
                        if walls["fluid"] > 0 else 0.0),
            "event_error_rate": event.overall_error_rate,
            "fluid_error_rate": fluid.overall_error_rate,
            "error_rate_delta": abs(fluid.overall_error_rate
                                    - event.overall_error_rate),
            "event_upgrades": event.upgrades_run,
            "fluid_upgrades": fluid.upgrades_run,
        },
        # The acceptance bar: finish under the event-mode fig18 wall.
        "scale": dict(asdict(scale), under_event_fig18_wall=(
            scale.wall_seconds < walls["event"])),
    }


def run_skew(smoke: bool) -> Section:
    """The three ``skew_lb`` arms, each run twice at the same seed."""
    from .experiments.skew_lb import ARMS, SkewParams, format_report, run_arm

    params = SkewParams(servers=6, shards=24, duration=240.0, settle=40.0,
                        warmup=30.0, request_rate=60.0, scatter_rate=5.0,
                        service_time=0.03) if smoke else SkewParams()
    start = time.monotonic()
    results, deterministic = {}, True
    for arm in ARMS:
        first = run_arm(arm, params, SEED)
        deterministic &= run_arm(arm, params, SEED).digest == first.digest
        results[arm] = first
        print(f"{arm:<16} p99={first.p99 * 1e3:8.1f}ms  "
              f"imbalance={first.imbalance:5.2f}  moves={first.moves:4d}  "
              f"digest={first.digest[:16]}")
    wall = time.monotonic() - start
    print(format_report(results))

    sm = results["sm"]
    baseline_p99 = min(results[a].p99 for a in ARMS if a != "sm")
    baseline_imb = min(results[a].imbalance for a in ARMS if a != "sm")
    return {
        "smoke": smoke,
        "seed": SEED,
        "params": {
            "servers": params.servers,
            "shards": params.shards,
            "skew": params.skew,
            "duration": params.duration,
            "request_rate": params.request_rate,
            "scatter_rate": params.scatter_rate,
            "fanout": params.fanout,
            "service_time": params.service_time,
        },
        "arms": {arm: result.to_dict() for arm, result in results.items()},
        # best (lowest-P99 / least-imbalanced) baseline vs SM: > 1 means
        # SM wins even against the stronger baseline.
        "sm_p99_advantage": round(baseline_p99 / sm.p99, 3) if sm.p99 else 0.0,
        "sm_imbalance_advantage": round(baseline_imb / sm.imbalance, 3)
        if sm.imbalance else 0.0,
        "deterministic": deterministic,
        "wall_seconds": round(wall, 2),
    }


def run_fuzz(smoke: bool) -> Section:
    """The coverage-guided chaos search, run twice to prove determinism.

    The budget counts runs, not seconds, so ``(seed, budget)`` decides
    the whole search and both sizes run the same one.
    """
    from .chaos.fuzz import Corpus, FuzzConfig, FuzzEngine
    from .obs.coverage import coverage_summary

    config = FuzzConfig(seed=FUZZ_SEED, budget=FUZZ_BUDGET)
    start = time.perf_counter()
    result = FuzzEngine(config).run()
    wall = time.perf_counter() - start
    second = FuzzEngine(config).run()
    stats, keys = result.stats, result.coverage_set()
    print(f"fuzz: {stats.executed} specs in {wall:.1f}s, corpus "
          f"{len(result.corpus)}, {coverage_summary(keys)}, "
          f"{stats.violating} violating, coverage digest "
          f"{result.coverage_digest()[:12]}")
    for entry in result.violations:
        print(f"violation: {entry.spec.name} (seed {entry.run_seed}) breaks "
              f"{sorted(entry.violated)}: "
              f"{[(a.kind, a.at) for a in entry.spec.actions]}")

    paths = result.corpus.save(FUZZ_CORPUS_DIR)
    print(f"saved {len(paths)} corpus entries to {FUZZ_CORPUS_DIR}")
    if result.violations:
        violating = Corpus()
        violating.entries = list(result.violations)
        violating.save(Path(FUZZ_CORPUS_DIR) / "violations")

    return {
        "seed": config.seed,
        "budget": config.budget,
        "arm": config.arm,
        "specs_executed": stats.executed,
        "wall_seconds": wall,
        "specs_per_sec": stats.executed / wall if wall > 0 else 0.0,
        "corpus_size": len(result.corpus),
        "distinct_coverage_keys": len(keys),
        "coverage_keys_per_100_runs": (100.0 * len(keys)
                                       / max(1, stats.executed)),
        "violations_found": stats.violating,
        "duplicates": stats.duplicates,
        "shrink_evals": stats.shrink_evals,
        "coverage_digest": result.coverage_digest(),
        # Same coverage-key set and per-spec journal digests across the
        # two identical searches.
        "deterministic": (second.coverage_set() == keys
                          and second.digests() == result.digests()),
    }


# -- gate measures ------------------------------------------------------------


def _events_per_sec_vs(baseline: str) -> Callable[[Section], Values]:
    """Per-figure events/s as a fraction of a checked-in baseline's."""
    def measure(section: Section) -> Values:
        base = json.loads((_REPO / baseline).read_text())["figures"]
        return [(figure, stats["events_per_sec"]
                 / base[figure]["events_per_sec"])
                for figure, stats in sorted(section["figures"].items())
                if figure in base]
    return measure


def _per_point(key: Callable[[Section], float]) -> Callable[[Section], Values]:
    return lambda section: [(f"{point['shards']} shards", key(point))
                            for point in section["points"]]


def _field(*path: str) -> Callable[[Section], Values]:
    """One value at ``path`` (booleans read as 1.0 / 0.0)."""
    def measure(section: Section) -> Values:
        value: Any = section
        for key in path:
            value = value[key]
        return [(path[-1], float(value))]
    return measure


SOFT, HARD = False, True

ENTRIES: Dict[str, Entry] = {entry.name: entry for entry in (
    Entry("figures", run_figures, (
        Gate("figures.events_per_sec_vs_baseline", SOFT,
             _events_per_sec_vs("benchmarks/baseline_sim.json"), 0.85),
        Gate("figures.events_per_sec_vs_noobs", SOFT,
             _events_per_sec_vs("benchmarks/baseline_noobs.json"), 0.98),
    )),
    Entry("scale", run_scale, (
        Gate("scale.publish_ops", SOFT, _per_point(
            lambda p: max(s["publishes_per_sec"]
                          for s in p["publish_sweep"])), 500),
        Gate("scale.frontend_speedup", SOFT, _per_point(
            lambda p: p["frontend_speedup_vs_linear"]), 10),
    )),
    Entry("fluid", run_fluid, (
        Gate("fluid.users_per_sec", SOFT,
             _field("scale", "users_per_sec"), 100_000),
        Gate("fluid.under_event_fig18_wall", SOFT,
             _field("scale", "under_event_fig18_wall"), 1),
    )),
    Entry("skew", run_skew, (
        Gate("skew.sm_p99_advantage", SOFT, _field("sm_p99_advantage"), 1.3),
        Gate("skew.sm_imbalance_advantage", SOFT,
             _field("sm_imbalance_advantage"), 1.0),
        Gate("skew.deterministic", HARD, _field("deterministic"), 1),
        Gate("skew.violations", HARD, lambda section: [
            (arm, stats["violations"])
            for arm, stats in sorted(section["arms"].items())], 0,
            ceiling=True),
    )),
    Entry("fuzz", run_fuzz, (
        Gate("fuzz.specs_per_sec", SOFT, _field("specs_per_sec"), 5),
        Gate("fuzz.deterministic", HARD, _field("deterministic"), 1),
        Gate("fuzz.violations_found", HARD, _field("violations_found"), 0,
             ceiling=True),
    )),
)}


# -- the evaluator ------------------------------------------------------------


def evaluate(report: Dict[str, Any],
             names: Sequence[str]) -> Dict[str, Dict[str, Any]]:
    """Check every gate of the named sections; one verdict per gate.

    A verdict lists the measured values and the labels that broke the
    limit (``failed``); a gate fires when that list is non-empty, which
    includes a missing section, an unreadable one and one that yields
    no values at all.
    """
    verdicts: Dict[str, Dict[str, Any]] = {}
    for name in names:
        section = report.get(name)
        for gate in ENTRIES[name].gates:
            values: Dict[str, float] = {}
            failed: List[str] = []
            if section is None:
                failed.append(f"no `{name}` section")
            else:
                try:
                    values = dict(gate.measure(section))
                except (KeyError, TypeError, ValueError) as exc:
                    failed.append(f"unreadable section: {exc!r}")
                else:
                    if not values:
                        failed.append("nothing measured")
            failed += [label for label, value in values.items()
                       if not (value <= gate.limit if gate.ceiling
                               else value >= gate.limit)]
            verdicts[gate.name] = {
                "hard": gate.hard,
                "bound": f"{'<=' if gate.ceiling else '>='} {gate.limit:g}",
                "values": values,
                "failed": failed,
                "fired": bool(failed),
            }
    return verdicts


def summary(verdicts: Dict[str, Dict[str, Any]]) -> List[str]:
    """One line per gate (GitHub annotations for fired ones), then one
    line naming every soft gate that fired."""
    lines = []
    for name, verdict in verdicts.items():
        values = ", ".join(f"{label} {value:,.3g}"
                           for label, value in verdict["values"].items())
        if not verdict["fired"]:
            lines.append(f"ok   {name} {verdict['bound']}: {values}")
            continue
        kind = "error" if verdict["hard"] else "warning"
        lines.append(f"::{kind} title={name}::{verdict['bound']} broken by "
                     f"{', '.join(verdict['failed'])} ({values})")
    soft = [name for name, verdict in verdicts.items()
            if verdict["fired"] and not verdict["hard"]]
    lines.append(f"soft gates fired: {', '.join(soft) or 'none'}")
    return lines


def exit_code(verdicts: Dict[str, Dict[str, Any]]) -> int:
    """1 iff a hard gate fired."""
    return int(any(v["fired"] and v["hard"] for v in verdicts.values()))
