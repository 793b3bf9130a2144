"""Unit tests for the legacy sharding baselines."""

import random

import pytest

from repro.baselines.consistent_hashing import ConsistentHashRing
from repro.baselines.pinned import (
    PinnedAllocator,
    modulo_placement,
    ring_placement,
)
from repro.cluster.topology import Machine
from repro.core.allocator import ServerRecord
from repro.core.shard_map import AssignmentTable, ReplicaState, Role
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards


SERVERS = [f"s{i}" for i in range(20)]


def modulo_moved_fraction(keys, before, after):
    """Fraction of ``keys`` whose static-modulo owner changes when the
    server count goes from ``before`` to ``after``."""
    moved = sum(1 for key in keys
                if modulo_placement(key, "", SERVERS[:before])
                != modulo_placement(key, "", SERVERS[:after]))
    return moved / len(keys)


class TestModuloPlacement:
    def test_modulo_routing(self):
        assert modulo_placement(0, "", SERVERS[:10]) == "s0"
        assert modulo_placement(25, "", SERVERS[:10]) == "s5"

    def test_resharding_moves_most_keys(self):
        # Co-prime resize moves nearly every key.
        assert modulo_moved_fraction(range(10_000), 10, 11) > 0.8

    def test_resharding_to_multiple_moves_fewer(self):
        assert modulo_moved_fraction(range(10_000), 10, 20) == \
            pytest.approx(0.5, abs=0.02)

    def test_load_distribution_uniform_for_sequential_keys(self):
        counts = {}
        for key in range(1000):
            owner = modulo_placement(key, "", SERVERS[:10])
            counts[owner] = counts.get(owner, 0) + 1
        assert sorted(counts) == sorted(SERVERS[:10])
        assert all(count == 100 for count in counts.values())


class TestConsistentHashRing:
    def test_routing_is_stable(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        owner = ring.node_for_key(12345)
        assert ring.node_for_key(12345) == owner

    def test_all_nodes_get_keys(self):
        ring = ConsistentHashRing(["a", "b", "c"], virtual_nodes=200)
        counts = ring.load_distribution(range(3000))
        assert all(count > 0 for count in counts.values())

    def test_balance_with_virtual_nodes(self):
        ring = ConsistentHashRing(["a", "b", "c", "d"], virtual_nodes=300)
        counts = ring.load_distribution(range(20_000))
        mean = 5000
        for count in counts.values():
            assert 0.6 * mean < count < 1.4 * mean

    def test_adding_node_moves_about_one_over_n(self):
        ring = ConsistentHashRing([f"n{i}" for i in range(9)],
                                  virtual_nodes=200)
        moved = ring.movement_on_change(range(20_000), add=["n9"])
        assert moved == pytest.approx(1 / 10, abs=0.05)

    def test_removing_node_moves_only_its_keys(self):
        ring = ConsistentHashRing([f"n{i}" for i in range(10)],
                                  virtual_nodes=200)
        before = ring.load_distribution(range(20_000))
        moved = ring.movement_on_change(range(20_000), remove=["n0"])
        assert moved == pytest.approx(before["n0"] / 20_000, abs=0.01)

    def test_duplicate_add_rejected(self):
        ring = ConsistentHashRing(["a"])
        with pytest.raises(ValueError):
            ring.add_node("a")

    def test_remove_unknown_rejected(self):
        with pytest.raises(KeyError):
            ConsistentHashRing(["a"]).remove_node("b")

    def test_empty_ring_raises(self):
        with pytest.raises(RuntimeError):
            ConsistentHashRing().node_for_key(1)

    def test_len_and_nodes(self):
        ring = ConsistentHashRing(["b", "a"])
        assert len(ring) == 2
        assert ring.nodes() == ["a", "b"]

    def test_measurement_leaves_ring_unchanged(self):
        """Regression: movement_on_change used to permanently apply the
        membership change it was only supposed to measure."""
        ring = ConsistentHashRing([f"n{i}" for i in range(8)],
                                  virtual_nodes=100)
        keys = range(5000)
        owners_before = [ring.node_for_key(k) for k in keys]
        ring.movement_on_change(keys, add=["n8"], remove=["n0"])
        assert ring.nodes() == [f"n{i}" for i in range(8)]
        assert [ring.node_for_key(k) for k in keys] == owners_before

    def test_measurement_is_repeatable(self):
        ring = ConsistentHashRing([f"n{i}" for i in range(8)],
                                  virtual_nodes=100)
        first = ring.movement_on_change(range(5000), add=["n8"])
        second = ring.movement_on_change(range(5000), add=["n8"])
        assert first == second

    def test_copy_is_independent(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        clone = ring.copy()
        clone.remove_node("a")
        clone.add_node("d")
        assert ring.nodes() == ["a", "b", "c"]
        assert clone.nodes() == ["b", "c", "d"]
        for key in range(200):
            assert ring.node_for_key(key) in {"a", "b", "c"}

    def test_remove_then_readd_restores_routing(self):
        ring = ConsistentHashRing(["a", "b", "c"], virtual_nodes=150)
        owners = [ring.node_for_key(k) for k in range(2000)]
        ring.remove_node("b")
        assert all(ring.node_for_key(k) != "b" for k in range(2000))
        ring.add_node("b")
        assert [ring.node_for_key(k) for k in range(2000)] == owners

    def test_static_vs_consistent_on_resize(self):
        """The §2.2.1 comparison: consistent hashing's churn advantage."""
        keys = list(range(10_000))
        static_moved = modulo_moved_fraction(keys, 10, 11)
        ring = ConsistentHashRing([f"n{i}" for i in range(10)],
                                  virtual_nodes=200)
        ch_moved = ring.movement_on_change(keys, add=["n10"])
        assert ch_moved < static_moved / 3


def _pinned_fixture(shards=6, servers=3):
    spec = AppSpec(name="app", shards=uniform_shards(shards, shards * 10),
                   replication=ReplicationStrategy.PRIMARY_ONLY,
                   spread_levels=())
    records = {}
    for index in range(servers):
        address = f"A/app/{index}"
        records[address] = ServerRecord(
            address=address,
            machine=Machine(machine_id=f"A-m{index}", region="A",
                            datacenter="A.dc0", rack=f"A.rack{index}",
                            capacity={"shard_count": 100.0}))
    return spec, records


class TestPinnedAllocator:
    def test_emergency_creates_land_on_pins(self):
        spec, servers = _pinned_fixture()
        allocator = PinnedAllocator(spec, modulo_placement)
        plan = allocator.emergency_plan(AssignmentTable(spec), servers,
                                        now=0.0)
        addresses = sorted(servers)
        assert {c.shard_id: c.address for c in plan.creates} == {
            shard.shard_id: addresses[i % len(addresses)]
            for i, shard in enumerate(spec.shards)}

    def test_steady_state_plans_zero_moves(self):
        spec, servers = _pinned_fixture()
        allocator = PinnedAllocator(spec, modulo_placement)
        table = AssignmentTable(spec)
        addresses = sorted(servers)
        for i, shard in enumerate(spec.shards):
            table.add(shard.shard_id, addresses[i % len(addresses)],
                      Role.PRIMARY, state=ReplicaState.READY)
        plan = allocator.periodic_plan(table, servers, now=0.0,
                                       load_of=lambda r: (1.0,))
        assert plan.moves == []

    def test_drifted_shard_moved_back_to_pin(self):
        spec, servers = _pinned_fixture()
        allocator = PinnedAllocator(spec, modulo_placement)
        table = AssignmentTable(spec)
        addresses = sorted(servers)
        for i, shard in enumerate(spec.shards):
            pin = addresses[i % len(addresses)]
            # Drift shard 0 off its pin; everyone else sits on it.
            table.add(shard.shard_id, addresses[1] if i == 0 else pin,
                      Role.PRIMARY, state=ReplicaState.READY)
        plan = allocator.periodic_plan(table, servers, now=0.0,
                                       load_of=lambda r: (1.0,))
        assert len(plan.moves) == 1
        move = plan.moves[0]
        assert move.shard_id == spec.shards[0].shard_id
        assert move.to_address == addresses[0]

    def test_mid_migration_shard_left_alone(self):
        spec, servers = _pinned_fixture()
        allocator = PinnedAllocator(spec, modulo_placement)
        table = AssignmentTable(spec)
        addresses = sorted(servers)
        table.add(spec.shards[0].shard_id, addresses[1], Role.PRIMARY,
                  state=ReplicaState.PREPARING)
        plan = allocator.periodic_plan(table, servers, now=0.0,
                                       load_of=lambda r: (1.0,))
        assert plan.moves == []

    def test_ring_placement_is_membership_stable(self):
        addresses = [f"A/app/{i}" for i in range(5)]
        placement = ring_placement(virtual_nodes=100)
        pins = {i: placement(i, f"shard{i}", addresses) for i in range(40)}
        survivors = addresses[1:]  # lose one node
        moved = sum(
            1 for i in range(40)
            if pins[i] != placement(i, f"shard{i}", survivors)
            and pins[i] in survivors)
        # Only the lost node's shards move; survivors' pins are stable.
        assert moved == 0
