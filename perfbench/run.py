#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload skew_scatter --seed 1 \\
        --seconds 20 --trace 0

With ``--trace 0`` the workload is run repeatedly, untraced, for
``--seconds`` seconds (at least ``MIN_REPS`` times).  The repetitions do
identical work, and each timed phase is split into fixed simulated
slices; a phase's time is the sum over its slices of the fastest
repetition's time for that slice, which discounts the minutes-long speed
swings of a shared host.  With ``--trace 1`` it is run once untraced
and once under :class:`tracing.Tracer`, and the per-layer metrics come
from the traced run; the spans are written to ``.perfbench/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Runs from the root of a checkout and reads the program from
its ``src/`` directory; without it the script exits non-zero and prints
no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
from time import perf_counter
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Set-ups timed per repetition.
SETUP_SAMPLES = 5
#: Deploys timed per repetition, each of a fresh set-up, stopping early
#: once they took ``DEPLOY_BUDGET`` seconds; the last one is run.
DEPLOY_SAMPLES = 10
DEPLOY_BUDGET = 2.0
#: Repetitions per timed run, however short ``--seconds`` is.
MIN_REPS = 3
#: Largest share of the traced deploy+run wall left outside every span.
MAX_UNATTRIBUTED = 0.03

END_TO_END = (
    ("setup_s", "s"),
    ("deploy_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics: (name, unit).  ``sim_*`` are the exact simulated
#: outcomes (units in simulated time), 0 on workloads without them.
#: Migration generators run inside orchestrator processes, so their time
#: is orchestrator self time.
PER_LAYER = (
    ("engine.events", "count"), ("engine.self_s", "s"),
    ("network.rpcs", "count"), ("network.rpcs_failed", "count"),
    ("network.self_s", "s"),
    ("router.requests", "count"), ("router.retries", "count"),
    ("router.misroutes", "count"), ("router.cache_hit_ratio", "ratio"),
    ("router.evictions", "count"), ("router.map_updates", "count"),
    ("router.self_s", "s"),
    ("client.requests", "count"), ("client.failed", "count"),
    ("client.self_s", "s"),
    ("scatter.requests", "count"), ("scatter.self_s", "s"),
    ("server.served", "count"), ("server.forwarded", "count"),
    ("server.self_s", "s"),
    ("orchestrator.publishes", "count"),
    ("orchestrator.rebalance_rounds", "count"),
    ("orchestrator.self_s", "s"),
    ("allocator.emergency_plan.calls", "count"),
    ("allocator.emergency_plan.s", "s"),
    ("allocator.build_problem.calls", "count"),
    ("allocator.build_problem.s", "s"),
    ("allocator.self_s", "s"),
    ("solver.solves", "count"), ("solver.solve.s", "s"),
    ("solver.evaluations", "count"), ("solver.moves", "count"),
    ("solver.final_violations", "count"), ("solver.timeouts", "count"),
    ("solver.self_s", "s"),
    ("migration.moves", "count"), ("migration.creates", "count"),
    ("migration.failures", "count"),
    ("shard_map.snapshot_delta.calls", "count"),
    ("shard_map.snapshot_delta.s", "s"),
    ("shard_map.changed", "count"), ("shard_map.self_s", "s"),
    ("discovery.publishes", "count"), ("discovery.delta_ratio", "ratio"),
    ("discovery.deliveries", "count"), ("discovery.resyncs", "count"),
    ("discovery.publish.s", "s"), ("discovery.self_s", "s"),
    ("task_controller.review_ops.calls", "count"),
    ("task_controller.review_ops.s", "s"),
    ("task_controller.self_s", "s"),
    ("twine.container_ops", "count"), ("twine.self_s", "s"),
    ("zk.reads", "count"), ("zk.writes", "count"), ("zk.s", "s"),
    ("zk.self_s", "s"),
    ("other.self_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.spans", "count"),
    ("trace.engine_share", "ratio"), ("trace.request_path_share", "ratio"),
    ("trace.control_plane_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("sim_p50_ms", "sim_ms"), ("sim_p99_ms", "sim_ms"),
    ("sim_scatter_p99_ms", "sim_ms"), ("sim_imbalance", "ratio"),
    ("sim_upgrade_s", "sim_s"), ("sim_recovery_s", "sim_s"),
    ("sim_rebalance_s", "sim_s"),
)

#: Layer-self-time metrics: metric name -> layer (module under repro).
SELF_TIME = {
    "engine.self_s": "sim.engine", "network.self_s": "sim.network",
    "router.self_s": "discovery.router", "client.self_s": "app.client",
    "scatter.self_s": "app.scatter", "server.self_s": "app.server",
    "orchestrator.self_s": "core.orchestrator",
    "allocator.self_s": "core.allocator", "solver.self_s": "solver",
    "shard_map.self_s": "core.shard_map",
    "discovery.self_s": "discovery.service_discovery",
    "task_controller.self_s": "core.task_controller",
    "twine.self_s": "cluster.twine", "zk.self_s": "coordination.zookeeper",
}


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)


def fingerprint(outcome: Dict[str, object], solves: List) -> str:
    """Hash of every simulated metric and deterministic count."""
    record = {
        "sim": outcome["sim"], "counts": outcome["counts"],
        "attempted": outcome["attempted"], "failed": outcome["failed"],
        "solves": [(r.moves, r.swaps, r.evaluations, r.initial_violations,
                    r.final_violations) for r in solves],
    }
    text = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_once(workload: str, seed: int, params: Optional[dict] = None,
             tracer=None) -> Dict[str, object]:
    """Time ``SETUP_SAMPLES`` set-ups, then deploy fresh set-ups until
    ``DEPLOY_SAMPLES`` deploys or ``DEPLOY_BUDGET`` seconds of them, and
    run the last one.  Deploys and the run are timed slice by slice."""
    from scenarios import WORKLOADS
    from tracing import SolveLog

    cls = WORKLOADS[workload]
    setups: List[float] = []
    for _ in range(SETUP_SAMPLES):
        scenario = cls(seed, **(params or {}))
        gc.collect()
        began = perf_counter()
        scenario.setup()
        setups.append(perf_counter() - began)
    deploys: List[List[float]] = []
    while True:
        with SolveLog() as solves:
            if tracer is not None:
                tracer.log.clear()
            gc.collect()
            scenario.start_laps()
            scenario.deploy()
            scenario.lap()
            deploys.append(scenario.laps)
            last = (len(deploys) >= DEPLOY_SAMPLES
                    or sum(map(sum, deploys)) >= DEPLOY_BUDGET)
            if last:
                scenario.start_laps()
                scenario.run()
                scenario.lap()
        if last:
            break
        scenario = cls(seed, **(params or {}))
        scenario.setup()
    outcome = scenario.finish()
    timeouts = sum(1 for result in solves.results if result.timed_out)
    checks = list(scenario.failed_checks)
    if timeouts:
        checks.append(f"{timeouts} solver runs hit the host time budget")
    return {
        "scenario": scenario, "outcome": outcome, "solves": solves.results,
        "setup_s": setups, "deploy_laps": deploys, "run_laps": scenario.laps,
        "wall_s": sum(deploys[-1]) + sum(scenario.laps),
        "checks": checks, "fingerprint": fingerprint(outcome, solves.results),
    }


def fastest(samples: List[List[float]], checks: List[str]) -> float:
    """Sum over timed slices of the fastest sample's time for each.

    Every sample is the same simulated work slice by slice (the
    repetitions' fingerprints agree), so this is the time on the
    machine's fastest level during the run.
    """
    if len({len(laps) for laps in samples}) > 1:
        checks.append("repetitions ran different numbers of slices")
        return min(sum(laps) for laps in samples)
    return sum(min(times) for times in zip(*samples))


def warm_up(workload: str, seed: int, params: Optional[dict]) -> None:
    """Untimed smoke-scale run, so the first timed repetition does not
    pay the interpreter's first-execution costs."""
    from scenarios import SMOKE

    run_once(workload, seed, dict(SMOKE[workload], **(params or {})))


def measure(workload: str, seed: int, seconds: float,
            params: Optional[dict] = None) -> Dict[str, object]:
    """Untraced repetitions for ``seconds``; end-to-end metrics."""
    warm_up(workload, seed, params)
    deadline = perf_counter() + seconds
    reps: List[Dict[str, object]] = []
    while len(reps) < MIN_REPS or perf_counter() < deadline:
        rep = run_once(workload, seed, params)
        del rep["scenario"]  # free the cluster before the next repetition
        reps.append(rep)
    first = reps[0]
    checks = list(first["checks"])
    prints = {rep["fingerprint"] for rep in reps}
    if len(prints) > 1:
        checks.append(f"repetitions disagree: fingerprints {sorted(prints)}")
    metrics = {
        "setup_s": min(t for rep in reps for t in rep["setup_s"]),
        "deploy_s": fastest([laps for rep in reps
                             for laps in rep["deploy_laps"]], checks),
        "run_s": fastest([rep["run_laps"] for rep in reps], checks),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"metrics": metrics, "units": dict(END_TO_END), "checks": checks,
            "outcome": first["outcome"], "fingerprint": first["fingerprint"],
            "runs": len(reps)}


def measure_traced(workload: str, seed: int,
                   params: Optional[dict] = None,
                   spans_path: Optional[str] = None) -> Dict[str, object]:
    """One untraced and one traced run; per-layer metrics."""
    from tracing import Tracer

    warm_up(workload, seed, params)
    plain = run_once(workload, seed, params)
    with Tracer() as tracer:
        traced = run_once(workload, seed, params, tracer=tracer)
    checks = list(traced["checks"])
    if traced["fingerprint"] != plain["fingerprint"]:
        checks.append("traced outcome differs from the untraced one: "
                      f"{traced['fingerprint']} != {plain['fingerprint']}")
    wall = traced["wall_s"]
    summary = tracer.log.summary()
    metrics = layer_metrics(traced, tracer, summary)
    attributed = sum(entry["self_s"] for entry in summary.values())
    unattributed = (wall - attributed) / wall
    metrics["trace.unattributed_share"] = unattributed
    metrics["trace.overhead_ratio"] = wall / plain["wall_s"]
    if abs(unattributed) > MAX_UNATTRIBUTED:
        checks.append(f"layer self times cover {attributed:.3f} s of the "
                      f"traced {wall:.3f} s deploy+run")
    if spans_path:
        tracer.log.save(spans_path)
    return {"metrics": metrics, "units": dict(PER_LAYER), "checks": checks,
            "outcome": traced["outcome"],
            "fingerprint": traced["fingerprint"], "runs": 1}


def layer_metrics(traced: Dict[str, object], tracer,
                  summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    from tracing import CONTROL_PLANE, ENGINE, REQUEST_PATH

    scenario, outcome = traced["scenario"], traced["outcome"]
    counts, sim = outcome["counts"], outcome["sim"]
    solves = traced["solves"]
    by_layer: Dict[str, float] = {}
    for name, entry in summary.items():
        layer = name.split(":", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + entry["self_s"]

    def span(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    routers = [client.router for client in scenario.clients]
    hits = sum(router.route_cache_hits for router in routers)
    lookups = hits + sum(router.route_cache_misses for router in routers)
    discovery = scenario.cluster.discovery
    observed = tracer.counts
    total_self = sum(by_layer.values())
    metrics = {
        "engine.events": counts["engine.events"],
        "network.rpcs": counts["network.rpcs"],
        "network.rpcs_failed": counts["network.rpcs_failed"],
        "router.requests": sum(r.requests_started for r in routers),
        "router.retries": sum(r.retries for r in routers),
        "router.misroutes": sum(r.misroutes for r in routers),
        "router.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "router.evictions": sum(r.route_evictions for r in routers),
        "router.map_updates": sum(r.map_updates for r in routers),
        "client.requests": counts.get("client.requests", 0),
        "client.failed": counts.get("client.failed", 0),
        "scatter.requests": counts.get("scatter.requests", 0),
        "server.served": (observed["server.requests"]
                          - observed["server.rejected"]
                          - observed["server.forwarded"]),
        "server.forwarded": observed["server.forwarded"],
        "orchestrator.publishes": counts["orchestrator.publishes"],
        "orchestrator.rebalance_rounds":
            counts["orchestrator.rebalance_rounds"],
        "allocator.emergency_plan.calls":
            span("core.allocator:emergency_plan", "calls"),
        "allocator.emergency_plan.s":
            span("core.allocator:emergency_plan", "total_s"),
        "allocator.build_problem.calls":
            span("core.allocator:build_problem", "calls"),
        "allocator.build_problem.s":
            span("core.allocator:build_problem", "total_s"),
        "solver.solves": len(solves),
        "solver.solve.s": span("solver:solve", "total_s"),
        "solver.evaluations": sum(r.evaluations for r in solves),
        "solver.moves": sum(r.moves for r in solves),
        "solver.final_violations": (solves[-1].final_violations
                                    if solves else 0),
        "solver.timeouts": sum(1 for r in solves if r.timed_out),
        "migration.moves": counts["migration.moves"],
        "migration.creates": counts["migration.creates"],
        "migration.failures": counts["migration.failures"],
        "shard_map.snapshot_delta.calls":
            span("core.shard_map:snapshot_delta", "calls"),
        "shard_map.snapshot_delta.s":
            span("core.shard_map:snapshot_delta", "total_s"),
        "shard_map.changed": observed["shard_map.changed"],
        "discovery.publishes": discovery.publishes,
        "discovery.delta_ratio": (discovery.delta_publishes
                                  / discovery.publishes
                                  if discovery.publishes else 0.0),
        "discovery.deliveries": sum(s.deliveries
                                    for s in tracer.subscriptions),
        "discovery.resyncs": sum(s.resyncs for s in tracer.subscriptions),
        "discovery.publish.s":
            span("discovery.service_discovery:publish", "total_s"),
        "task_controller.review_ops.calls":
            span("core.task_controller:review_ops", "calls"),
        "task_controller.review_ops.s":
            span("core.task_controller:review_ops", "total_s"),
        "twine.container_ops": counts["twine.container_ops"],
        "zk.reads": span("coordination.zookeeper:read", "calls"),
        "zk.writes": span("coordination.zookeeper:write", "calls"),
        "zk.s": (span("coordination.zookeeper:read", "total_s")
                 + span("coordination.zookeeper:write", "total_s")),
        "trace.spans": len(tracer.log),
    }
    for metric, layer in SELF_TIME.items():
        metrics[metric] = by_layer.get(layer, 0.0)
    metrics["other.self_s"] = total_self - sum(
        by_layer.get(layer, 0.0) for layer in SELF_TIME.values())
    share = (lambda layers: sum(by_layer.get(layer, 0.0) for layer in layers)
             / total_self if total_self else 0.0)
    metrics["trace.engine_share"] = share((ENGINE,))
    metrics["trace.request_path_share"] = share(REQUEST_PATH)
    metrics["trace.control_plane_share"] = share(CONTROL_PLANE)
    for name, unit in PER_LAYER:
        if name.startswith("sim_"):
            metrics[name] = sim.get(name, 0.0)
    return metrics


def report(workload: str, seed: int, result: Dict[str, object]) -> List[str]:
    """Human-readable lines: every metric with its unit, and the checks."""
    outcome = result["outcome"]
    lines = [f"perfbench {workload} seed={seed} runs={result['runs']} "
             f"fingerprint={result['fingerprint']}"]
    for name, value in sorted(outcome["sim"].items()):
        lines.append(f"  {name:34s} {value:.6g}")
    for name, unit in result["units"].items():
        lines.append(f"  {name:34s} {result['metrics'][name]:.6g} {unit}")
    lines.append(f"  attempted={outcome['attempted']} "
                 f"failed={outcome['failed']}")
    for check in result["checks"]:
        lines.append(f"  CHECK FAILED: {check}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    from scenarios import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(sorted(WORKLOADS))}")
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        result = measure_traced(
            args.workload, args.seed,
            spans_path=os.path.join(OUT_DIR, f"{args.workload}.spans.npz"))
    else:
        result = measure(args.workload, args.seed, args.seconds)
    for line in report(args.workload, args.seed, result):
        print(line)
    outcome = result["outcome"]
    print(json.dumps({
        "correct": not result["checks"],
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in result["units"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
