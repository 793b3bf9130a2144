"""Unit tests for the allocator's emergency and periodic planning."""

import random
from dataclasses import replace
from typing import Dict, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import Machine
from repro.core.allocator import (
    AllocationPlan,
    Allocator,
    CreateReplica,
    PromoteReplica,
    ServerRecord,
)
from repro.core.orchestrator import OrchestratorConfig
from repro.core.shard_map import AssignmentTable, ReplicaState, Role
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards
from repro.harness import SimCluster, deploy_app
from repro.solver.local_search import SearchConfig


def machine(machine_id, region="A", capacity=None):
    return Machine(machine_id=machine_id, region=region,
                   datacenter=f"{region}.dc0", rack=f"{region}.rack0",
                   capacity=capacity or {"shard_count": 100.0})


def servers_in(regions, per_region=2):
    records = {}
    for region in regions:
        for index in range(per_region):
            address = f"{region}/app/{index}"
            records[address] = ServerRecord(
                address=address, machine=machine(f"{region}-m{index}", region))
    return records


class TestEmergencyPlan:
    def test_places_all_missing_replicas(self):
        spec = AppSpec(name="app",
                       shards=uniform_shards(6, 60, replica_count=2),
                       replication=ReplicationStrategy.SECONDARY_ONLY)
        allocator = Allocator(spec)
        table = AssignmentTable(spec)
        plan = allocator.emergency_plan(table, servers_in(["A", "B"]), now=0.0)
        assert len(plan.creates) == 12

    def test_spreads_replicas_across_regions(self):
        spec = AppSpec(name="app",
                       shards=uniform_shards(8, 80, replica_count=2),
                       replication=ReplicationStrategy.SECONDARY_ONLY)
        allocator = Allocator(spec)
        table = AssignmentTable(spec)
        servers = servers_in(["A", "B"], per_region=4)
        plan = allocator.emergency_plan(table, servers, now=0.0)
        by_shard = {}
        for create in plan.creates:
            region = servers[create.address].machine.region
            by_shard.setdefault(create.shard_id, set()).add(region)
        assert all(len(regions) == 2 for regions in by_shard.values())

    def test_honors_region_preference(self):
        spec = AppSpec(
            name="app",
            shards=uniform_shards(4, 40, preferred_regions={i: "B"
                                                            for i in range(4)}),
            replication=ReplicationStrategy.PRIMARY_ONLY)
        allocator = Allocator(spec)
        table = AssignmentTable(spec)
        servers = servers_in(["A", "B"], per_region=4)
        plan = allocator.emergency_plan(table, servers, now=0.0)
        for create in plan.creates:
            assert servers[create.address].machine.region == "B"

    def test_primary_only_creates_primaries(self):
        spec = AppSpec(name="app", shards=uniform_shards(3, 30),
                       replication=ReplicationStrategy.PRIMARY_ONLY)
        allocator = Allocator(spec)
        plan = allocator.emergency_plan(AssignmentTable(spec),
                                        servers_in(["A"]), now=0.0)
        assert all(create.role is Role.PRIMARY for create in plan.creates)

    def test_promotes_ready_secondary_when_primary_lost(self):
        spec = AppSpec(name="app",
                       shards=uniform_shards(1, 10, replica_count=2),
                       replication=ReplicationStrategy.PRIMARY_SECONDARY)
        allocator = Allocator(spec)
        table = AssignmentTable(spec)
        table.add("shard0", "A/app/0", Role.SECONDARY,
                  state=ReplicaState.READY)
        table.add("shard0", "A/app/1", Role.SECONDARY,
                  state=ReplicaState.READY)
        plan = allocator.emergency_plan(table, servers_in(["A"]), now=0.0)
        assert len(plan.promotes) == 1

    def test_skips_draining_and_dead_servers(self):
        spec = AppSpec(name="app", shards=uniform_shards(2, 20),
                       replication=ReplicationStrategy.PRIMARY_ONLY)
        allocator = Allocator(spec)
        servers = servers_in(["A"], per_region=3)
        addresses = sorted(servers)
        servers[addresses[0]].alive = False
        servers[addresses[1]].draining = True
        plan = allocator.emergency_plan(AssignmentTable(spec), servers,
                                        now=0.0)
        assert {create.address for create in plan.creates} == {addresses[2]}

    def test_expected_down_window_respected(self):
        spec = AppSpec(name="app", shards=uniform_shards(1, 10),
                       replication=ReplicationStrategy.PRIMARY_ONLY)
        allocator = Allocator(spec)
        servers = servers_in(["A"], per_region=1)
        record = next(iter(servers.values()))
        record.expected_down_until = 100.0
        assert allocator.emergency_plan(AssignmentTable(spec), servers,
                                        now=50.0).empty
        assert not allocator.emergency_plan(AssignmentTable(spec), servers,
                                            now=150.0).empty

    def test_no_duplicate_address_per_shard(self):
        spec = AppSpec(name="app",
                       shards=uniform_shards(2, 20, replica_count=3),
                       replication=ReplicationStrategy.SECONDARY_ONLY)
        allocator = Allocator(spec)
        plan = allocator.emergency_plan(AssignmentTable(spec),
                                        servers_in(["A", "B"], 3), now=0.0)
        per_shard = {}
        for create in plan.creates:
            per_shard.setdefault(create.shard_id, []).append(create.address)
        for addresses in per_shard.values():
            assert len(addresses) == len(set(addresses))


class TestPeriodicPlan:
    def _setup(self, num_servers=6, num_shards=12):
        spec = AppSpec(
            name="app", shards=uniform_shards(num_shards, num_shards * 10),
            replication=ReplicationStrategy.PRIMARY_ONLY,
            lb_metrics=("cpu",))
        allocator = Allocator(spec, SearchConfig(time_budget=5.0))
        table = AssignmentTable(spec)
        servers = {}
        for index in range(num_servers):
            address = f"A/app/{index}"
            servers[address] = ServerRecord(
                address=address,
                machine=machine(f"m{index}", capacity={"cpu": 100.0}))
        # Pile everything on server 0.
        for shard in spec.shards:
            table.add(shard.shard_id, "A/app/0", Role.PRIMARY,
                      state=ReplicaState.READY)
        return spec, allocator, table, servers

    def test_moves_off_overloaded_server(self):
        _spec, allocator, table, servers = self._setup()
        plan = allocator.periodic_plan(
            table, servers, now=0.0,
            load_of=lambda replica: (20.0,))
        assert plan.moves
        assert all(move.from_address == "A/app/0" for move in plan.moves)
        assert all(move.to_address != "A/app/0" for move in plan.moves)

    def test_no_moves_when_balanced(self):
        spec, allocator, table, servers = self._setup()
        # Redistribute evenly first.
        addresses = sorted(servers)
        for index, replica in enumerate(table.all_replicas()):
            table.relocate(replica.replica_id, addresses[index % 6])
        plan = allocator.periodic_plan(
            table, servers, now=0.0, load_of=lambda replica: (20.0,))
        assert not plan.moves

    def test_move_cap_respected(self):
        _spec, allocator, table, servers = self._setup(num_shards=40)
        allocator.max_moves_per_round = 5
        plan = allocator.periodic_plan(
            table, servers, now=0.0, load_of=lambda replica: (10.0,))
        assert len(plan.moves) <= 5

    def test_empty_when_no_servers(self):
        spec = AppSpec(name="app", shards=uniform_shards(2, 20),
                       replication=ReplicationStrategy.PRIMARY_ONLY)
        allocator = Allocator(spec)
        plan = allocator.periodic_plan(AssignmentTable(spec), {}, 0.0,
                                       lambda replica: (1.0,))
        assert plan.empty


# -- decision parity of the unhealthy-set emergency plan ---------------------

def full_scan_emergency_plan(spec, table, servers, now):
    """The emergency planner as it was before the unhealthy-shard set:
    every shard of the spec is visited on every call.  Kept verbatim as
    the oracle the incremental planner must match decision for decision.
    """
    plan = AllocationPlan()
    usable = [record for record in servers.values() if record.usable(now)]
    if not usable:
        return plan
    target_order = sorted(
        usable,
        key=lambda r: (len(table.on_address(r.address)), r.address))
    placements_this_plan = {r.address: 0 for r in usable}
    planned_addresses: Dict[str, Set[str]] = {}
    planned_regions: Dict[str, Set[str]] = {}
    cursor = 0

    def next_target(shard_id, preferred_region):
        nonlocal cursor
        existing_addresses = {r.address for r in table.replicas_of(shard_id)}
        existing_addresses |= planned_addresses.get(shard_id, set())
        existing_regions = {servers[a].machine.region
                            for a in existing_addresses if a in servers}
        existing_regions |= planned_regions.get(shard_id, set())
        best: Optional[ServerRecord] = None
        best_key: Optional[Tuple] = None
        pref_needed = (preferred_region is not None
                       and preferred_region not in existing_regions)
        for offset in range(len(target_order)):
            record = target_order[(cursor + offset) % len(target_order)]
            if record.address in existing_addresses:
                continue
            key = (
                0 if (pref_needed
                      and record.machine.region == preferred_region) else 1,
                0 if record.machine.region not in existing_regions else 1,
                placements_this_plan[record.address],
            )
            if best_key is None or key < best_key:
                best_key = key
                best = record
        if best is None:
            return None
        placements_this_plan[best.address] += 1
        planned_addresses.setdefault(shard_id, set()).add(best.address)
        planned_regions.setdefault(shard_id, set()).add(best.machine.region)
        cursor += 1
        return best.address

    for shard in spec.shards:
        replicas = table.replicas_view(shard.shard_id)
        live_count = 0
        has_live_primary = False
        for r in replicas:
            if r.state is not ReplicaState.DROPPED:
                live_count += 1
                if r.role is Role.PRIMARY:
                    has_live_primary = True
        if (live_count >= shard.replica_count
                and (not spec.has_primaries() or has_live_primary)):
            continue
        live = [r for r in replicas if r.state is not ReplicaState.DROPPED]
        missing = shard.replica_count - len(live)
        for _ in range(max(0, missing)):
            address = next_target(shard.shard_id, shard.preferred_region)
            if address is None:
                break
            plan.creates.append(CreateReplica(
                shard_id=shard.shard_id, address=address,
                role=Role.SECONDARY))
        if spec.has_primaries():
            has_primary = any(r.role is Role.PRIMARY for r in live)
            if not has_primary:
                ready_secondary = next(
                    (r for r in live if r.state is ReplicaState.READY), None)
                if ready_secondary is not None:
                    plan.promotes.append(PromoteReplica(
                        shard_id=shard.shard_id,
                        replica_id=ready_secondary.replica_id))
                elif not plan.creates or all(
                        c.shard_id != shard.shard_id for c in plan.creates):
                    address = next_target(shard.shard_id,
                                          shard.preferred_region)
                    if address is not None:
                        plan.creates.append(CreateReplica(
                            shard_id=shard.shard_id, address=address,
                            role=Role.PRIMARY))
    if spec.has_primaries():
        primaries_planned = set()
        for index, create in enumerate(plan.creates):
            shard_id = create.shard_id
            live = [r for r in table.replicas_of(shard_id)
                    if r.state is not ReplicaState.DROPPED]
            has_primary = any(r.role is Role.PRIMARY for r in live)
            promote_planned = any(p.shard_id == shard_id
                                  for p in plan.promotes)
            if (not has_primary and not promote_planned
                    and shard_id not in primaries_planned):
                plan.creates[index] = CreateReplica(
                    shard_id=shard_id, address=create.address,
                    role=Role.PRIMARY)
                primaries_planned.add(shard_id)
    return plan


STATES = tuple(ReplicaState)
REGIONS = ("A", "B", "C")
#: An address no server record knows (a container that is gone).
GHOST = "Z/app/0"


def random_spec(rng):
    replication = rng.choice(list(ReplicationStrategy))
    shards = uniform_shards(rng.randint(1, 25), 1000)
    for index, shard in enumerate(shards):
        replica_count = (1 if replication is ReplicationStrategy.PRIMARY_ONLY
                         else rng.randint(1, 3))
        preferred = rng.choice(REGIONS) if rng.random() < 0.3 else None
        shards[index] = replace(shard, replica_count=replica_count,
                                preferred_region=preferred)
    return AppSpec(name="app", shards=shards, replication=replication)


def random_servers(rng):
    regions = REGIONS[:rng.randint(1, 3)]
    servers = servers_in(regions, per_region=rng.randint(1, 4))
    for record in servers.values():
        shake_server(rng, record)
    return servers


def shake_server(rng, record):
    record.alive = rng.random() > 0.15
    record.draining = rng.random() < 0.15
    record.expected_down_until = 100.0 if rng.random() < 0.15 else 0.0


def apply_op(table, op, a, b, c, addresses):
    """One table mutation chosen by small integers (shared by the seeded
    parity test and the hypothesis property)."""
    shards = table.spec.shards
    replicas = table.all_replicas()
    if op == 0 or not replicas:
        shard_id = shards[a % len(shards)].shard_id
        role = (Role.PRIMARY if c % 2 and table.primary_of(shard_id) is None
                else Role.SECONDARY)
        table.add(shard_id, addresses[b % len(addresses)], role,
                  state=STATES[c % len(STATES)])
        return
    replica = replicas[a % len(replicas)]
    if op == 1:
        table.drop(replica.replica_id)
    elif op == 2:
        table.set_state(replica.replica_id, STATES[b % len(STATES)])
    elif op == 3:
        current = table.primary_of(replica.shard_id)
        if b % 2 and (current is None or current is replica):
            table.set_role(replica.replica_id, Role.PRIMARY)
        else:
            table.set_role(replica.replica_id, Role.SECONDARY)
    else:
        table.relocate(replica.replica_id, addresses[b % len(addresses)])


def apply_plan(rng, table, plan):
    """Carry a plan out the way the executor would, in random states."""
    for promote in plan.promotes:
        replica = table.find(promote.replica_id)
        current = table.primary_of(promote.shard_id)
        if replica is not None and current is None:
            table.set_role(replica.replica_id, Role.PRIMARY)
    for create in plan.creates:
        if (create.role is Role.PRIMARY
                and table.primary_of(create.shard_id) is not None):
            continue
        table.add(create.shard_id, create.address, create.role,
                  state=rng.choice((ReplicaState.READY, ReplicaState.PENDING,
                                    ReplicaState.PREPARING)))


def brute_force_unhealthy(table):
    unhealthy = set()
    for shard in table.spec.shards:
        live = [r for r in table.replicas_view(shard.shard_id)
                if r.state is not ReplicaState.DROPPED]
        if len(live) < shard.replica_count or (
                table.spec.has_primaries()
                and not any(r.role is Role.PRIMARY for r in live)):
            unhealthy.add(shard.shard_id)
    return unhealthy


class TestEmergencyPlanParity:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_full_scan_oracle(self, seed):
        rng = random.Random(seed)
        spec = random_spec(rng)
        servers = random_servers(rng)
        addresses = sorted(servers) + [GHOST]
        table = AssignmentTable(spec)
        allocator = Allocator(spec)
        for _step in range(40):
            for _ in range(rng.randint(1, 3)):
                apply_op(table, rng.randrange(5), rng.randrange(1000),
                         rng.randrange(1000), rng.randrange(1000), addresses)
            if rng.random() < 0.2:
                shake_server(rng, rng.choice(list(servers.values())))
            now = rng.choice((0.0, 50.0, 150.0))
            plan = allocator.emergency_plan(table, servers, now)
            oracle = full_scan_emergency_plan(spec, table, servers, now)
            assert plan.creates == oracle.creates
            assert plan.promotes == oracle.promotes
            assert not plan.moves
            if rng.random() < 0.5:
                apply_plan(rng, table, plan)
        assert table.unhealthy_shards() == brute_force_unhealthy(table)

    def test_oracle_comparisons_plan_something(self):
        """The parity sweep is not vacuous: its tables need creates,
        promotes and primary creates."""
        kinds = set()
        for seed in range(60):
            rng = random.Random(seed)
            spec = random_spec(rng)
            servers = random_servers(rng)
            addresses = sorted(servers) + [GHOST]
            table = AssignmentTable(spec)
            for _step in range(40):
                for _ in range(rng.randint(1, 3)):
                    apply_op(table, rng.randrange(5), rng.randrange(1000),
                             rng.randrange(1000), rng.randrange(1000),
                             addresses)
                plan = full_scan_emergency_plan(spec, table, servers, 0.0)
                kinds.update(c.role for c in plan.creates)
                if plan.promotes:
                    kinds.add("promote")
        assert kinds == {Role.PRIMARY, Role.SECONDARY, "promote"}


@settings(max_examples=60, deadline=None)
@given(
    replication=st.sampled_from(list(ReplicationStrategy)),
    replica_count=st.integers(min_value=1, max_value=3),
    ops=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 99),
                           st.integers(0, 99), st.integers(0, 99)),
                 max_size=60),
)
def test_unhealthy_set_and_ready_count_match_brute_force(
        replication, replica_count, ops):
    if replication is ReplicationStrategy.PRIMARY_ONLY:
        replica_count = 1
    spec = AppSpec(name="app",
                   shards=uniform_shards(6, 60, replica_count=replica_count),
                   replication=replication)
    table = AssignmentTable(spec)
    addresses = ["A/app/0", "A/app/1", "B/app/0", GHOST]
    assert table.unhealthy_shards() == brute_force_unhealthy(table)
    for op, a, b, c in ops:
        apply_op(table, op, a, b, c, addresses)
        assert table.unhealthy_shards() == brute_force_unhealthy(table)
        assert table.ready_count == sum(
            1 for r in table.all_replicas() if r.available)


class TestEmergencyShardsExamined:
    def test_idle_examines_nothing_and_a_kill_only_the_lost_shards(self):
        cluster = SimCluster.build(regions=("FRC",), machines_per_region=12,
                                   seed=3)
        spec = AppSpec(name="big", shards=uniform_shards(10_000, 160_000),
                       replication=ReplicationStrategy.PRIMARY_ONLY)
        app = deploy_app(cluster, spec, {"FRC": 10},
                         orchestrator_config=OrchestratorConfig(
                             failover_grace=15.0, rebalance_enabled=False),
                         settle=30.0)
        assert app.ready_fraction() == 1.0
        allocator = app.orchestrator.allocator
        # The deploy examined every shard once, on its first tick.
        assert allocator.emergency_shards_examined == 10_000
        cluster.run(until=cluster.engine.now + 60.0)   # 12 idle ticks
        assert allocator.emergency_shards_examined == 10_000
        victim = app.containers[0]
        lost = app.orchestrator.shards_on(victim.address)
        assert lost
        cluster.twines["FRC"].fail_machine(victim.machine.machine_id)
        cluster.run(until=cluster.engine.now + 60.0)
        assert app.ready_fraction() == 1.0
        assert allocator.emergency_shards_examined == 10_000 + len(lost)
