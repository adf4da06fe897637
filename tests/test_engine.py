"""Tests for the sharded data-plane execution engine (§7.3 / Appendix C).

The load-bearing property: the sharded engine is *delivery-equivalent* to
the sequential engine — same records (packet, egress, hop count) in the
same order, same final state stores, same per-link packet counters — and
both agree with the OBS ``eval`` semantics, on the Table 3 application
traces.  Shards are proven disjoint before any parallelism happens, so
this holds whether lanes run inline or on a thread pool.
"""

import pytest

from repro.analysis.sharding import shard_by_inport, shard_defaults
from repro.apps import (
    assign_egress,
    default_subnets,
    dns_tunnel_detect,
    port_assumption,
    stateful_firewall,
    syn_flood_detect,
)
from repro.core.controller import SnapController
from repro.core.options import CompilerOptions
from repro.core.program import Program
from repro.dataplane.engine import (
    ProcessPoolEngine,
    SequentialEngine,
    ShardedEngine,
    get_engine,
    ingress_state_footprint,
    plan_shards,
)
from repro.lang import ast, make_packet
from repro.lang.errors import DataPlaneError, SnapError
from repro.lang.state import Store
from repro.topology.campus import campus_topology
from repro.util.ipaddr import IPPrefix
from repro import workloads
from repro.workloads import replay, replay_obs

NUM_PORTS = 6
SUBNETS = default_subnets(NUM_PORTS)
PORTS = list(range(1, NUM_PORTS + 1))


def ip(text):
    return IPPrefix(text).network


def compiled(app=None, policy=None, defaults=None, name="case",
             engine="sequential", guard=None):
    if app is not None:
        body = app.policy if guard is None else ast.If(guard, app.policy, ast.Id())
        policy = ast.Seq(body, assign_egress(SUBNETS))
        defaults = app.state_defaults
        name = app.name
    program = Program(
        policy,
        assumption=port_assumption(SUBNETS),
        state_defaults=defaults or {},
        name=name,
    )
    controller = SnapController(
        campus_topology(), program, options=CompilerOptions(engine=engine)
    )
    return controller.submit(), program


def sharded_monitor():
    """§7.3's example: ``count[inport]++`` split into per-port shards."""
    body = ast.Seq(
        ast.StateIncr("count", ast.Field("inport")), assign_egress(SUBNETS)
    )
    return compiled(
        policy=shard_by_inport(body, "count", PORTS),
        defaults=shard_defaults({"count": 0}, "count", PORTS),
        name="monitor-sharded",
    )


def record_view(records):
    return [(r.egress, r.hops, r.packet) for r in records]


def assert_engines_equivalent(snapshot, program, trace, sharded=None):
    """Sequential ≡ sharded ≡ OBS eval, field by field."""
    net_seq = snapshot.build_network()
    net_shard = snapshot.build_network()
    arrivals = list(trace)
    seq = SequentialEngine().run(net_seq, arrivals)
    shard = (sharded or ShardedEngine()).run(net_shard, arrivals)

    assert len(seq) == len(shard) == len(arrivals)
    for per_seq, per_shard in zip(seq, shard):
        assert record_view(per_seq) == record_view(per_shard)
    assert net_seq.global_store() == net_shard.global_store()
    assert net_seq.link_packets == net_shard.link_packets
    assert record_view(net_seq.deliveries) == record_view(net_shard.deliveries)

    obs_store, obs_outputs = replay_obs(
        trace, program.full_policy(), Store(program.state_defaults)
    )
    assert net_shard.global_store() == obs_store
    for records, expected in zip(shard, obs_outputs):
        delivered = frozenset(
            r.packet.without("inport") for r in records if r.egress is not None
        )
        assert delivered == frozenset(p.without("inport") for p in expected)


class TestShardPlanning:
    def test_sharded_monitor_gets_one_shard_per_port(self):
        snapshot, _ = sharded_monitor()
        plan = plan_shards(snapshot.build_network())
        assert plan.parallelism == NUM_PORTS
        for shard in plan.shards:
            (port,) = shard.ports
            assert shard.variables == frozenset((f"count@{port}",))

    def test_global_state_collapses_to_single_lane(self):
        """A variable every port can touch serializes everything."""
        snapshot, _ = compiled(app=dns_tunnel_detect())
        plan = plan_shards(snapshot.build_network())
        assert plan.parallelism == 1
        assert plan.shards[0].ports == tuple(PORTS)

    def test_footprint_only_covers_guarded_ports(self):
        """State guarded to one ingress port stays out of the others'
        footprints."""
        body = ast.Seq(
            ast.If(
                ast.Test("inport", 1),
                ast.StateIncr("only1", ast.Field("srcip")),
                ast.Id(),
            ),
            assign_egress(SUBNETS),
        )
        snapshot, _ = compiled(
            policy=body, defaults={"only1": 0}, name="guarded"
        )
        footprint = ingress_state_footprint(snapshot.xfdd, PORTS)
        assert "only1" in footprint[1]
        for port in PORTS[1:]:
            assert "only1" not in footprint[port]

    def test_stateless_ports_become_singleton_shards(self):
        body = ast.Seq(
            ast.If(
                ast.Test("inport", 1),
                ast.StateIncr("only1", ast.Field("srcip")),
                ast.Id(),
            ),
            assign_egress(SUBNETS),
        )
        snapshot, _ = compiled(
            policy=body, defaults={"only1": 0}, name="guarded"
        )
        plan = plan_shards(snapshot.build_network())
        assert plan.parallelism == NUM_PORTS  # 1 stateful + 5 stateless
        sizes = sorted(len(s.ports) for s in plan.shards)
        assert sizes == [1] * NUM_PORTS

    def test_plan_cached_per_network(self):
        snapshot, _ = sharded_monitor()
        network = snapshot.build_network()
        engine = ShardedEngine()
        assert engine.plan_for(network) is engine.plan_for(network)

    def test_plan_cache_invalidated_by_xfdd_swap(self):
        """In-place mutation of the network's program never leaves a
        stale plan behind — the cache is keyed on the xFDD root."""
        snap_sharded, _ = sharded_monitor()
        snap_global, _ = compiled(app=dns_tunnel_detect())
        network = snap_sharded.build_network()
        engine = ShardedEngine()
        plan_before = engine.plan_for(network)
        assert plan_before.parallelism == NUM_PORTS
        donor = snap_global.build_network()
        # Graft the global-state program onto the same network object —
        # the shape of a hand-rolled hot swap that reuses the instance.
        network.index = donor.index
        network.switches = donor.switches
        network.placement = donor.placement
        network.mapping = donor.mapping
        plan_after = engine.plan_for(network)
        assert plan_after is not plan_before
        assert plan_after.parallelism == 1  # global state: one lane

    def test_rewired_network_never_replays_against_stale_plan(self):
        _, program = sharded_monitor()
        controller = SnapController(
            campus_topology(), program, options=CompilerOptions(engine="sharded")
        )
        controller.submit()
        engine = ShardedEngine()
        plan_cold = engine.plan_for(controller.network())
        controller.fail_link("C1", "C5")
        rewired = controller.network()
        plan_hot = engine.plan_for(rewired)
        # Same xFDD, same ports: the partition is identical, but it was
        # computed for (and cached on) the rewired object.
        assert [s.ports for s in plan_hot.shards] == [
            s.ports for s in plan_cold.shards
        ]
        assert engine.plan_for(rewired) is plan_hot
        trace = workloads.background_traffic(SUBNETS, count=40, seed=2)
        stats = replay(trace, rewired, engine=engine)
        assert stats.sent == 40

    def test_adopted_network_plan_tracks_new_program(self):
        _, monitor_program = sharded_monitor()
        controller = SnapController(
            campus_topology(), monitor_program,
            options=CompilerOptions(engine="sharded"),
        )
        controller.submit()
        engine = ShardedEngine()
        assert engine.plan_for(controller.network()).parallelism == NUM_PORTS
        app = dns_tunnel_detect()
        global_program = Program(
            ast.Seq(app.policy, assign_egress(SUBNETS)),
            assumption=port_assumption(SUBNETS),
            state_defaults=app.state_defaults,
            name=app.name,
        )
        controller.update_policy(global_program)  # rebuild + adopt_state
        assert engine.plan_for(controller.network()).parallelism == 1


def corrupt_shard(network, port):
    """Poison ``count@port`` so its lane's increment raises mid-run."""
    var = f"count@{port}"
    owner = network.placement[var]
    network.switches[owner].store.write(var, (port,), "corrupt")


def one_packet_per_port():
    return [
        (make_packet(srcip=SUBNETS[p].host(1), dstip=SUBNETS[6].host(1)), p)
        for p in PORTS
    ]


class TestLaneFailureContract:
    """A failing lane merges what completed, then raises a wrapped
    DataPlaneError naming the shard — the network is never silently
    half-updated."""

    def test_inline_failure_merges_completed_lanes_only(self):
        snapshot, _ = sharded_monitor()
        network = snapshot.build_network()
        corrupt_shard(network, 3)
        with pytest.raises(DataPlaneError, match=r"shard 2 \(ports \[3\]\)"):
            ShardedEngine(max_workers=1).run(network, one_packet_per_port())
        store = network.global_store()
        # Lanes run in shard order inline: ports 1 and 2 completed and
        # were merged; the failing lane stopped everything after it.
        assert store.read("count@1", (1,)) == 1
        assert store.read("count@2", (2,)) == 1
        assert store.read("count@3", (3,)) == "corrupt"
        assert store.read("count@4", (4,)) == 0
        assert len(network.deliveries) == 2
        assert sum(network.link_packets.values()) > 0

    def test_sequential_failure_raises_unwrapped_and_keeps_earlier_packets(self):
        """The sequential engine has no lanes to name: the failing packet's
        own exception surfaces unwrapped, and every packet before it
        stays recorded."""
        snapshot, _ = sharded_monitor()
        network = snapshot.build_network()
        corrupt_shard(network, 3)
        with pytest.raises(SnapError, match="non-numeric value 'corrupt'") as info:
            SequentialEngine().run(network, one_packet_per_port())
        assert not isinstance(info.value, DataPlaneError)
        reference = snapshot.build_network()
        SequentialEngine().run(reference, one_packet_per_port()[:2])
        assert record_view(network.deliveries) == record_view(
            reference.deliveries
        )
        assert network.link_packets == reference.link_packets
        store = network.global_store()
        assert store.read("count@1", (1,)) == 1
        assert store.read("count@2", (2,)) == 1
        assert store.read("count@3", (3,)) == "corrupt"
        for port in (4, 5, 6):
            assert store.read(f"count@{port}", (port,)) == 0

    def test_thread_pool_failure_merges_completed_lanes(self):
        snapshot, _ = sharded_monitor()
        network = snapshot.build_network()
        corrupt_shard(network, 3)
        with pytest.raises(DataPlaneError, match=r"shard 2 \(ports \[3\]\)"):
            ShardedEngine(max_workers=4).run(network, one_packet_per_port())
        store = network.global_store()
        # Submitted lanes all ran to completion except the failing one.
        for port in (1, 2, 4, 5, 6):
            assert store.read(f"count@{port}", (port,)) == 1
        assert store.read("count@3", (3,)) == "corrupt"
        assert len(network.deliveries) == 5

    def test_process_pool_failure_merges_completed_lanes(self):
        snapshot, _ = sharded_monitor()
        network = snapshot.build_network()
        corrupt_shard(network, 3)
        engine = ProcessPoolEngine(max_workers=2)
        try:
            with pytest.raises(DataPlaneError, match=r"shard 2 \(ports \[3\]\)"):
                engine.run(network, one_packet_per_port())
            store = network.global_store()
            # Completed workers' state deltas were merged back; the
            # failing shard's state is untouched (still corrupt).
            for port in (1, 2, 4, 5, 6):
                assert store.read(f"count@{port}", (port,)) == 1
            assert store.read("count@3", (3,)) == "corrupt"
            assert len(network.deliveries) == 5
            # The merged records are the surviving packets' records,
            # field for field, in arrival order.
            survivors = [
                (packet, port) for packet, port in one_packet_per_port()
                if port != 3
            ]
            expected = SequentialEngine().run(
                snapshot.build_network(), survivors
            )
            assert record_view(network.deliveries) == record_view(
                [record for records in expected for record in records]
            )
        finally:
            engine.close()


class TestEngineEquivalence:
    """Sharded ≡ sequential ≡ eval_policy on Table 3 traces."""

    def test_sharded_monitor_background(self):
        snapshot, program = sharded_monitor()
        trace = workloads.background_traffic(SUBNETS, count=300, seed=7)
        assert_engines_equivalent(snapshot, program, trace)

    def test_dns_tunnel_attack_and_benign(self):
        snapshot, program = compiled(app=dns_tunnel_detect(threshold=3))
        attack = workloads.dns_tunnel_attack(
            ip("10.0.6.66"), 6, ip("10.0.1.53"), 1, num_responses=4
        )
        benign = workloads.benign_dns_usage(
            ip("10.0.6.77"), 6, ip("10.0.1.53"), 1,
            servers=[ip("10.0.2.10"), ip("10.0.2.11")], server_port=2,
        )
        trace = attack.interleaved_with(benign, seed=3)
        assert_engines_equivalent(snapshot, program, trace)

    def test_syn_flood_with_sessions(self):
        guard = ast.Or(
            ast.Test("dstip", SUBNETS[6]), ast.Test("srcip", SUBNETS[6])
        )
        snapshot, program = compiled(app=syn_flood_detect(threshold=10), guard=guard)
        flood = workloads.syn_flood(ip("10.0.1.66"), 1, ip("10.0.6.1"), count=15)
        sessions = workloads.tcp_session(ip("10.0.2.5"), ip("10.0.6.1"), 2, 6)
        trace = flood.interleaved_with(sessions, seed=9)
        assert_engines_equivalent(snapshot, program, trace)

    def test_stateful_firewall_background(self):
        snapshot, program = compiled(app=stateful_firewall())
        trace = workloads.background_traffic(SUBNETS, count=200, seed=11)
        assert_engines_equivalent(snapshot, program, trace)

    def test_thread_pool_lanes_match(self):
        """Explicit multi-worker pool: lanes on real threads, same answer."""
        snapshot, program = sharded_monitor()
        trace = workloads.background_traffic(SUBNETS, count=300, seed=5)
        assert_engines_equivalent(
            snapshot, program, trace, sharded=ShardedEngine(max_workers=4)
        )

    def test_sharded_replay_stats_match_sequential(self):
        snapshot, _ = sharded_monitor()
        trace = workloads.background_traffic(SUBNETS, count=200, seed=3)
        stats_seq = replay(trace, snapshot.build_network(), engine="sequential")
        stats_shard = replay(trace, snapshot.build_network(), engine="sharded")
        assert stats_seq.sent == stats_shard.sent
        assert stats_seq.delivered == stats_shard.delivered
        assert stats_seq.dropped == stats_shard.dropped
        assert stats_seq.per_egress == stats_shard.per_egress
        assert stats_seq.total_hops == stats_shard.total_hops


class TestEngineSelection:
    def test_get_engine_resolution(self):
        assert isinstance(get_engine(None), SequentialEngine)
        assert isinstance(get_engine("sequential"), SequentialEngine)
        assert isinstance(get_engine("sharded"), ShardedEngine)
        custom = ShardedEngine(max_workers=2)
        assert get_engine(custom) is custom
        with pytest.raises(SnapError):
            get_engine("warp-drive")

    def test_options_reject_unknown_engine(self):
        with pytest.raises(ValueError):
            CompilerOptions(engine="warp-drive")

    def test_controller_threads_engine_to_live_network(self):
        snapshot_ignored, program = sharded_monitor()
        controller = SnapController(
            campus_topology(), program, options=CompilerOptions(engine="sharded")
        )
        controller.submit()
        network = controller.network()
        assert network.default_engine == "sharded"
        trace = workloads.background_traffic(SUBNETS, count=50, seed=1)
        stats = replay(trace, network)  # runs on the sharded engine
        assert stats.sent == 50

    def test_engine_survives_hot_swap(self):
        _, program = sharded_monitor()
        controller = SnapController(
            campus_topology(), program, options=CompilerOptions(engine="sharded")
        )
        controller.submit()
        assert controller.network().default_engine == "sharded"
        controller.fail_link("C1", "C5")
        assert controller.network().default_engine == "sharded"  # rewire path
        controller.update_policy(program)
        assert controller.network().default_engine == "sharded"  # rebuild path

    def test_default_engine_is_sequential(self):
        snapshot, _ = sharded_monitor()
        assert snapshot.build_network().default_engine == "sequential"
        assert CompilerOptions().engine == "sequential"
