"""The benchmark's three workloads, composed from the public harness API.

Each workload is one simulated scenario run in three host-timed phases:

* ``setup``  -- build the cluster, the app spec and the containers; the
  simulated clock stays at t=0;
* ``deploy`` -- simulate from t=0 until every desired replica is READY;
* ``run``    -- simulate the post-deploy scenario to its fixed simulated end.

``finish`` then reads the outcome: exact simulated metrics, deterministic
operation counts, the failure share and the correctness checks that did
not hold.  Only the workload seed reaches the program, as the seed of the
cluster and of the generated client inputs.

Deploy and run advance the clock in fixed simulated slices and record the
host time of each (``laps``), so repetitions of one seed -- identical
work, slice by slice -- can be compared segment by segment.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Dict, List, Optional

from repro.app.client import WorkloadRecorder
from repro.app.scatter import ScatterGatherClient, queued_handler_factory
from repro.cluster.topology import DEFAULT_CAPACITY
from repro.cluster.twine import TwineConfig
from repro.core.orchestrator import OrchestratorConfig
from repro.core.spec import (
    AppSpec,
    LoadBalancePolicy,
    ReplicationStrategy,
    uniform_shards,
)
from repro.core.task_controller import SMTaskControllerConfig
from repro.harness import SimCluster, deploy_app
from repro.metrics.timeseries import percentile
from repro.sim.rng import substream
from repro.solver.local_search import SearchConfig
from repro.workloads.load import ZipfKeySampler

#: Simulated seconds between readiness checks while waiting for READY.
READY_SLICE = 1.0
#: Simulated seconds per timed slice elsewhere.
RUN_SLICE = 30.0


class Scenario:
    """One workload: ``setup`` / ``deploy`` / ``run`` / ``finish``."""

    name = ""
    #: Simulated deadline for the deploy phase (a correctness bound).
    deploy_limit = 600.0

    def __init__(self, seed: int, **params) -> None:
        for key, value in params.items():
            if not hasattr(type(self), key):
                raise TypeError(f"{self.name}: unknown parameter {key!r}")
            setattr(self, key, value)
        self.seed = seed
        self.cluster: Optional[SimCluster] = None
        self.app = None
        self.clients: List = []          # ApplicationClients, for counters
        self.failed_checks: List[str] = []
        self.ready_at = 0.0
        self.start_laps()

    def setup(self) -> None:
        raise NotImplementedError

    def deploy(self) -> None:
        if not self._run_until_ready(self.deploy_limit):
            self.failed_checks.append("deploy: replicas not READY by "
                                      f"t={self.deploy_limit:.0f}")
        self.ready_at = self.cluster.engine.now

    def run(self) -> None:
        raise NotImplementedError

    def finish(self) -> Dict[str, object]:
        """``{"sim": {...}, "counts": {...}, "attempted", "failed"}``."""
        raise NotImplementedError

    # -- host-time laps ---------------------------------------------------------

    def start_laps(self) -> None:
        self.laps: List[float] = []
        self._lap_mark = perf_counter()

    def lap(self) -> None:
        """Close the current timed segment."""
        now = perf_counter()
        self.laps.append(now - self._lap_mark)
        self._lap_mark = now

    # -- shared helpers -------------------------------------------------------

    def _advance(self, until: float, step: float = RUN_SLICE) -> None:
        """Run the engine to ``until`` in ``step``-second timed slices."""
        cluster = self.cluster
        while cluster.engine.now < until:
            cluster.run(until=min(until, cluster.engine.now + step))
            self.lap()

    def _run_until_ready(self, limit: float) -> bool:
        cluster, app = self.cluster, self.app
        while app.ready_fraction() < 1.0:
            if cluster.engine.now >= limit:
                return False
            self._advance(cluster.engine.now + READY_SLICE)
        return True

    def _check_all_ready(self, when: str) -> None:
        if self.app.ready_fraction() < 1.0:
            self.failed_checks.append(f"{when}: replicas not READY")

    def _ready_replicas(self) -> int:
        return sum(1 for replica in self.app.orchestrator.table.all_replicas()
                   if replica.available)

    def control_counts(self) -> Dict[str, int]:
        """Deterministic control-plane and substrate counts."""
        cluster, orchestrator = self.cluster, self.app.orchestrator
        stats = orchestrator.executor.stats
        history = orchestrator.rebalance_history
        return {
            "engine.events": cluster.engine.processed_events,
            "network.rpcs": cluster.network.rpcs_sent,
            "network.rpcs_failed": cluster.network.rpcs_failed,
            "orchestrator.publishes": orchestrator.publishes,
            "orchestrator.rebalance_rounds": len(history),
            "orchestrator.rebalance_violations": sum(v for _, v, _ in history),
            "migration.moves": stats.total_moves,
            "migration.creates": stats.creates,
            "migration.drops": stats.drops,
            "migration.failures": stats.failures,
            "discovery.publishes": cluster.discovery.publishes,
            "discovery.delta_publishes": cluster.discovery.delta_publishes,
            "twine.container_ops": sum(
                twine.container_stops_planned
                + twine.container_stops_unplanned
                for twine in cluster.twines.values()),
        }


def _tail_ms(recorder: WorkloadRecorder, since: float, pct: float) -> float:
    values = [latency for time, latency in recorder.latency if time >= since]
    return percentile(values, pct) * 1e3 if values else 0.0


def _check_accounted(checks: List[str], label: str,
                     recorder: WorkloadRecorder) -> None:
    if recorder.sent <= 0:
        checks.append(f"{label}: no requests attempted")
    elif recorder.succeeded + recorder.failed != recorder.sent:
        checks.append(f"{label}: {recorder.sent} sent but "
                      f"{recorder.succeeded + recorder.failed} completed")


class RollingUpgrade(Scenario):
    """Fig 17's SM arm: a rolling upgrade under open-loop point reads.

    One region, 2,000 primary-only shards on 60 servers, a 10% restart
    cap, graceful migration and the TaskController.  A uniform point-read
    client with ``attempts=1`` sends at a fixed rate for a fixed simulated
    horizon that covers the whole upgrade.
    """

    name = "rolling_upgrade"
    shards = 2_000
    servers = 60
    restart_duration = 60.0
    request_rate = 100.0
    horizon = 1_500.0
    warmup = 60.0
    min_success = 0.999

    def setup(self) -> None:
        self.cluster = SimCluster.build(
            regions=("FRC",), machines_per_region=self.servers + 4,
            seed=self.seed,
            twine_config=TwineConfig(negotiation_interval=5.0),
            discovery_base_delay=2.0, discovery_jitter=3.0)
        self.concurrency = max(1, self.servers // 10)
        self.spec = AppSpec(
            name="upgrade",
            shards=uniform_shards(self.shards, key_space=self.shards * 16),
            replication=ReplicationStrategy.PRIMARY_ONLY,
            max_concurrent_container_ops=self.concurrency)
        self.app = deploy_app(
            self.cluster, self.spec, {"FRC": self.servers},
            orchestrator_config=OrchestratorConfig(
                graceful_migration=True,
                failover_grace=self.restart_duration * 2.0,
                rebalance_interval=60.0,
                drain_concurrency=2,
                drain_pacing=2.0),
            controller_config=SMTaskControllerConfig(
                restart_duration_hint=self.restart_duration * 2.0))

    def run(self) -> None:
        cluster = self.cluster
        key_space = self.shards * 16
        client = self.app.client(cluster, "FRC", attempts=1, rpc_timeout=0.5)
        self.clients.append(client)
        self.recorder = WorkloadRecorder.with_bucket(30.0)
        self.start = cluster.engine.now
        rate = self.request_rate
        client.run_workload(
            duration=self.horizon, rate=lambda _t: rate,
            key_fn=lambda rng: rng.randrange(key_space),
            recorder=self.recorder,
            rng=substream(self.seed, "perfbench", self.name))
        self.upgrade = cluster.twines["FRC"].start_rolling_upgrade(
            self.spec.name, max_concurrent=self.concurrency,
            restart_duration=self.restart_duration)
        # A few seconds past the client's horizon so every request settles.
        self._advance(self.start + self.horizon + 5.0)
        client.close()

    def finish(self) -> Dict[str, object]:
        checks, recorder, upgrade = self.failed_checks, self.recorder, \
            self.upgrade
        self._check_all_ready("end of run")
        _check_accounted(checks, "point reads", recorder)
        if (upgrade.finished_at is None
                or upgrade.finished_at > self.start + self.horizon):
            checks.append("upgrade did not finish inside the horizon")
        success = recorder.succeeded / max(1, recorder.sent)
        if success < self.min_success:
            checks.append(f"success share {success:.5f} < {self.min_success}")
        since = self.start + self.warmup
        upgrade_s = ((upgrade.finished_at - upgrade.started_at)
                     if upgrade.finished_at is not None else 0.0)
        return {
            "sim": {
                "sim_ready_s": self.ready_at,
                "sim_p50_ms": _tail_ms(recorder, since, 50.0),
                "sim_p99_ms": _tail_ms(recorder, since, 99.0),
                "sim_upgrade_s": upgrade_s,
                "sim_success": success,
            },
            "counts": dict(self.control_counts(),
                           **{"client.requests": recorder.sent,
                              "client.failed": recorder.failed}),
            "attempted": recorder.sent,
            "failed": recorder.failed,
        }


class RegionFailover(Scenario):
    """Region kill, emergency recovery, repair and rebalance back.

    Three regions of 20 servers and 10,000 primary-only shards, with no
    client traffic.  Each machine's ``shard_count`` capacity is twice the
    fair share, so the app fills about half of it and the balance band
    trips once the repaired region comes back empty.  Rebalancing back
    takes ~25 rounds: the allocator moves at most 4 replicas per server
    per round, 80 into the 20 repaired servers.
    """

    name = "region_failover"
    regions = ("FRC", "PRN", "ODN")
    failed_region = "PRN"             # not the orchestrator's control region
    servers_per_region = 20
    shards = 10_000
    steady = 60.0                     # ready -> region kill
    down = 150.0                      # region kill -> repair
    rebalance = 1_050.0               # repair -> fixed end of the run

    def setup(self) -> None:
        servers = self.servers_per_region * len(self.regions)
        capacity = dict(DEFAULT_CAPACITY,
                        shard_count=2.0 * self.shards / servers)
        self.cluster = SimCluster.build(
            regions=self.regions,
            machines_per_region=self.servers_per_region,
            seed=self.seed, capacity=capacity)
        self.spec = AppSpec(
            name="failover",
            shards=uniform_shards(self.shards, key_space=self.shards * 16),
            replication=ReplicationStrategy.PRIMARY_ONLY)
        self.app = deploy_app(
            self.cluster, self.spec,
            {region: self.servers_per_region for region in self.regions},
            # Loads are read once per rebalance round: shard_count, the
            # only LB metric here, needs no load reports at all.
            orchestrator_config=OrchestratorConfig(
                load_poll_interval=30.0, max_moves_per_round=200))

    def run(self) -> None:
        cluster = self.cluster
        twine = cluster.twines[self.failed_region]
        self.killed_at = cluster.engine.now + self.steady
        self._advance(self.killed_at)
        twine.fail_region()
        self.repaired_at = self.killed_at + self.down
        # Recovered once every replica is READY again and none is left
        # on a container of the failed region.
        lost = {container.address for container in self.app.containers
                if container.machine.region == self.failed_region}
        self.recovered_at = None
        while cluster.engine.now < self.repaired_at:
            self._advance(cluster.engine.now + READY_SLICE)
            replicas = self.app.orchestrator.table.all_replicas()
            if (len(replicas) == self.spec.total_replicas()
                    and all(replica.available and replica.address not in lost
                            for replica in replicas)):
                self.recovered_at = cluster.engine.now
                break
        self._advance(self.repaired_at)
        twine.repair_region()
        self.end = self.repaired_at + self.rebalance
        self._advance(self.end)

    def finish(self) -> Dict[str, object]:
        checks = self.failed_checks
        orchestrator = self.app.orchestrator
        self._check_all_ready("end of run")
        if self.recovered_at is None:
            checks.append("recovery did not converge before the repair")
        # Rebalance back: from the repair until the first round reporting
        # zero violations after the rounds that saw the empty region.
        after = [(time, violations) for time, violations, _ in
                 orchestrator.rebalance_history if time > self.repaired_at]
        first_busy = next((i for i, (_, v) in enumerate(after) if v > 0),
                          None)
        converged = None
        if first_busy is None:
            checks.append("no rebalance round saw the repaired region")
        else:
            converged = next((time for time, violations in after[first_busy:]
                              if violations == 0), None)
            if converged is None:
                checks.append("rebalance did not converge inside the horizon")
        stats = orchestrator.executor.stats
        placements = stats.creates + stats.total_moves
        not_ready = self.spec.total_replicas() - self._ready_replicas()
        if placements <= 0:
            checks.append("no replica placements attempted")
        return {
            "sim": {
                "sim_ready_s": self.ready_at,
                "sim_recovery_s": ((self.recovered_at or 0.0)
                                   - self.killed_at),
                "sim_rebalance_s": ((converged or 0.0) - self.repaired_at),
            },
            "counts": self.control_counts(),
            "attempted": placements,
            "failed": stats.failures + not_ready,
        }


class SkewScatter(Scenario):
    """``skew_lb``'s SM arm at bench parameters.

    48 shards on 12 FIFO-queued servers, Zipf(1.4) point reads plus
    fan-out-4 scatter-gather, a hot-set rotation halfway through, and the
    load-based solver with its 2 s search budget.
    """

    name = "skew_scatter"
    servers = 12
    shards = 48
    keys_per_shard = 16
    skew = 1.4
    duration = 600.0
    settle = 60.0                      # traffic starts at this sim time
    warmup = 60.0                      # excluded from latency percentiles
    request_rate = 120.0
    scatter_rate = 10.0
    fanout = 4
    service_time = 0.015
    sample_interval = 30.0
    shift_at = 0.5

    @property
    def key_space(self) -> int:
        return self.shards * self.keys_per_shard

    def stride(self) -> int:
        """Coprime stride spreading consecutive Zipf ranks one per shard."""
        stride = self.keys_per_shard + 1
        while math.gcd(stride, self.key_space) != 1:
            stride += 1
        return stride

    def setup(self) -> None:
        offered = self.request_rate + self.scatter_rate * self.fanout
        self.cluster = SimCluster.build(
            regions=("prod",), machines_per_region=self.servers,
            seed=self.seed,
            capacity={"request_rate": 1.3 * offered / self.servers / 0.7,
                      "shard_count": 1000.0})
        spec = AppSpec(
            name="skew",
            shards=uniform_shards(self.shards, key_space=self.key_space,
                                  replica_count=1),
            replication=ReplicationStrategy.PRIMARY_ONLY,
            lb_policy=LoadBalancePolicy.MULTI_METRIC,
            lb_metrics=("request_rate", "shard_count"),
            utilization_threshold=0.85, balance_band=0.1, spread_levels=())
        self.spec = spec
        self.handlers: Dict[str, object] = {}
        self.app = deploy_app(
            self.cluster, spec, {"prod": self.servers},
            handler_factory=queued_handler_factory(
                self.cluster, self.service_time, registry=self.handlers),
            orchestrator_config=OrchestratorConfig(
                load_poll_interval=10.0, rebalance_interval=30.0,
                failover_grace=60.0,
                search_config=SearchConfig(time_budget=2.0,
                                           rng_seed=self.seed)))

    def run(self) -> None:
        cluster = self.cluster
        engine = cluster.engine
        self._advance(max(engine.now, self.settle))
        self.start = engine.now
        sampler = ZipfKeySampler(self.key_space, skew=self.skew,
                                 stride=self.stride())
        engine.call_at(self.start + self.shift_at * self.duration,
                       sampler.rotate, self.key_space // 3)
        self.point = WorkloadRecorder.with_bucket(self.sample_interval)
        self.scatter = WorkloadRecorder.with_bucket(self.sample_interval)
        client = self.app.client(cluster, "prod", name="skew-client")
        scatter_client = ScatterGatherClient(
            self.app.client(cluster, "prod", name="skew-scatter"),
            self.key_space, fanout=self.fanout)
        self.clients += [client, scatter_client.client]
        rate, scatter_rate = self.request_rate, self.scatter_rate
        key_space = self.key_space
        # skew_lb's substream names, so seed 0 reproduces its SM arm.
        client.run_workload(self.duration, lambda _t: rate, sampler,
                            self.point,
                            rng=substream(self.seed, "skew-workload", "sm"))
        scatter_client.run_workload(
            self.duration, lambda _t: scatter_rate,
            lambda rng: rng.randrange(key_space), self.scatter,
            rng=substream(self.seed, "skew-scatter", "sm"))
        # Per-server served-rate imbalance, sampled from the live queue
        # handlers between fixed simulated slices.
        self.imbalance: List[tuple] = []
        previous = {address: handler.served
                    for address, handler in self.handlers.items()}
        for _ in range(int(self.duration // self.sample_interval)):
            cluster.run(until=engine.now + self.sample_interval)
            self.lap()
            rates = []
            for address in sorted(self.handlers):
                served = self.handlers[address].served
                rates.append((served - previous[address])
                             / self.sample_interval)
                previous[address] = served
            mean = sum(rates) / len(rates)
            if mean > 0.0:
                self.imbalance.append((engine.now, max(rates) / mean))
        self._advance(self.start + self.duration + 5.0)
        client.close()
        scatter_client.client.close()

    def finish(self) -> Dict[str, object]:
        checks = self.failed_checks
        self._check_all_ready("end of run")
        _check_accounted(checks, "point reads", self.point)
        _check_accounted(checks, "scatter reads", self.scatter)
        since = self.start + self.warmup
        steady = [value for time, value in self.imbalance if time >= since]
        attempted = self.point.sent + self.scatter.sent
        return {
            "sim": {
                "sim_ready_s": self.ready_at,
                "sim_p50_ms": _tail_ms(self.point, since, 50.0),
                "sim_p99_ms": _tail_ms(self.point, since, 99.0),
                "sim_scatter_p99_ms": _tail_ms(self.scatter, since, 99.0),
                "sim_imbalance": (sum(steady) / len(steady)
                                  if steady else 0.0),
            },
            "counts": dict(self.control_counts(),
                           **{"client.requests": self.point.sent,
                              "client.failed": self.point.failed,
                              "scatter.requests": self.scatter.sent,
                              "scatter.failed": self.scatter.failed}),
            "attempted": attempted,
            "failed": self.point.failed + self.scatter.failed,
        }


WORKLOADS = {cls.name: cls for cls in (RollingUpgrade, RegionFailover,
                                       SkewScatter)}

#: Small versions of each workload (well under a second each), for the
#: untimed warm-up of a timed run and for the benchmark's own tests.
SMOKE = {
    "rolling_upgrade": dict(shards=200, servers=20, restart_duration=20.0,
                            request_rate=20.0, horizon=900.0),
    "region_failover": dict(shards=600, servers_per_region=4, down=120.0,
                            rebalance=600.0),
    "skew_scatter": dict(duration=120.0, request_rate=40.0,
                         scatter_rate=4.0),
}
