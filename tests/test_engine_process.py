"""Tests for the process-pool execution engine and the lowered program form.

Four load-bearing properties:

* ``LoweredProgram`` is pickle-clean pure data and round-trips — a
  rehydrated program is behaviorally identical to the one it was lowered
  from;
* the lane wire (``encode_batch`` / ``encode_records``) round-trips
  batches and delivery records in order, field dict for field dict, as
  packets with no cached hash;
* the process engine is delivery- and state-equivalent to the sequential
  engine (and therefore to OBS ``eval``) on the Table-3 traces and on
  hypothesis-generated policies including multicast and unshardable
  state, and is deterministic across runs with a multi-worker pool;
* the worker pool follows the session lifecycle: it survives TE rewires
  (same compiled programs) and restarts on policy rebuilds.
"""

import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.lang.errors import DataPlaneError, PlacementError

from repro.analysis.sharding import shard_by_inport, shard_defaults
from repro.apps import (
    assign_egress,
    default_subnets,
    dns_tunnel_detect,
    port_assumption,
    stateful_firewall,
    syn_flood_detect,
)
from repro.cluster import ClusterEngine
from repro.core.controller import SnapController
from repro.core.options import CompilerOptions
from repro.core.program import Program
from repro.dataplane.engine import (
    ProcessPoolEngine,
    SequentialEngine,
    ShardedEngine,
    get_engine,
)
from repro.dataplane.header import SNAP_INPORT, SNAP_NODE, SNAP_OUTPORT
from repro.dataplane.netasm import LoweredProgram, from_lowered
from repro.dataplane.network import (
    DeliveryRecord,
    decode_batch,
    decode_records,
    encode_batch,
    encode_records,
)
from repro.lang import ast
from repro.lang.packet import Packet
from repro.lang.values import Symbol
from repro.topology.campus import campus_topology
from repro.util.ipaddr import IPPrefix
from repro import workloads
from repro.workloads import replay

from tests.test_engine import (
    PORTS,
    SUBNETS,
    compiled,
    ip,
    record_view,
    sharded_monitor,
)

#: One pool for the whole module: mirrors how a session uses the engine
#: (pools are long-lived) and keeps the hypothesis property affordable.
ENGINE = ProcessPoolEngine(max_workers=2)

#: And one 2-daemon cluster, for the cross-engine property: daemons (like
#: pools) are long-lived, and their spec caches turn over per generated
#: policy — exactly the cache-churn regime the bounded worker caches and
#: the missing-spec re-ship path must survive.
CLUSTER = ClusterEngine(workers=2)


@pytest.fixture(scope="module", autouse=True)
def _shared_pool():
    yield
    ENGINE.close()
    CLUSTER.close()


def assert_process_equivalent(snapshot, trace, engine=None):
    """Process engine ≡ sequential, field by field, stores and counters."""
    net_seq = snapshot.build_network()
    net_proc = snapshot.build_network()
    arrivals = list(trace)
    seq = SequentialEngine().run(net_seq, arrivals)
    proc = (engine or ENGINE).run(net_proc, arrivals)
    assert len(seq) == len(proc) == len(arrivals)
    for per_seq, per_proc in zip(seq, proc):
        assert record_view(per_seq) == record_view(per_proc)
    assert net_seq.global_store() == net_proc.global_store()
    assert net_seq.link_packets == net_proc.link_packets
    assert record_view(net_seq.deliveries) == record_view(net_proc.deliveries)


class TestLoweredProgram:
    def test_round_trip_and_pickle_clean(self):
        snapshot, _ = compiled(app=dns_tunnel_detect())
        network = snapshot.build_network()
        for name, program in network.switches.items():
            lowered = program.to_lowered()
            assert isinstance(lowered, LoweredProgram)
            wire = pickle.loads(pickle.dumps(lowered))
            assert wire == lowered, name
            rehydrated = from_lowered(wire)
            # The round trip is a fixed point of the lowering.
            assert rehydrated.to_lowered() == lowered, name
            assert rehydrated.entries == program.entries, name
            assert len(rehydrated.instructions) == len(program.instructions)

    def test_rehydrated_programs_behaviorally_identical(self):
        """A network running entirely on rehydrated programs produces the
        same records, stores, and counters as the original."""
        guard = ast.Or(
            ast.Test("dstip", SUBNETS[6]), ast.Test("srcip", SUBNETS[6])
        )
        snapshot, _ = compiled(app=syn_flood_detect(threshold=10), guard=guard)
        original = snapshot.build_network()
        rebuilt = snapshot.build_network()
        rebuilt.switches = {
            name: from_lowered(program.to_lowered())
            for name, program in rebuilt.switches.items()
        }
        trace = list(workloads.background_traffic(SUBNETS, count=150, seed=13))
        out_a = SequentialEngine().run(original, trace)
        out_b = SequentialEngine().run(rebuilt, trace)
        for a, b in zip(out_a, out_b):
            assert record_view(a) == record_view(b)
        assert original.global_store() == rebuilt.global_store()
        assert original.link_packets == rebuilt.link_packets

    def test_prefix_and_symbol_values_survive_the_wire(self):
        snapshot, _ = compiled(app=stateful_firewall())
        network = snapshot.build_network()
        for program in network.switches.values():
            assert pickle.loads(pickle.dumps(program.to_lowered())) == (
                program.to_lowered()
            )


# -- the lane wire --------------------------------------------------------------

WIRE_FIELDS = (
    "srcip", "dstip", "srcport", "proto", "inport", "outport",
    SNAP_INPORT, SNAP_OUTPORT, SNAP_NODE,
)
wire_values = st.one_of(
    st.none(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=6),
    st.builds(
        IPPrefix,
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=32),
    ),
    st.sampled_from(["SYN", "ACK", "ESTABLISHED"]).map(Symbol),
)
#: Field lists in generated order, so key sets *and* key orders vary.
wire_packets = st.lists(
    st.tuples(st.sampled_from(WIRE_FIELDS), wire_values),
    max_size=len(WIRE_FIELDS), unique_by=lambda item: item[0],
).map(lambda items: Packet(dict(items)))
wire_indices = st.lists(
    st.integers(min_value=0, max_value=10**6), unique=True, max_size=12
)


def _fresh_packet(original, decoded):
    assert decoded._hash is None
    assert decoded._fields == original._fields
    assert list(decoded._fields) == list(original._fields)


@st.composite
def wire_batches(draw):
    indices = draw(wire_indices)
    return [
        (index, draw(wire_packets), draw(st.integers(min_value=1, max_value=8)))
        for index in indices
    ]


@st.composite
def wire_records(draw):
    """A lane's ``{index: [DeliveryRecord]}``: multicast copies, drops
    (no egress, SNAP header still on) and empty lanes."""
    results = {}
    for index in draw(wire_indices):
        copies = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            packet = draw(wire_packets)
            if draw(st.booleans()):  # a drop keeps its SNAP header
                packet = packet.modify_many(
                    {SNAP_INPORT: 1, SNAP_OUTPORT: None, SNAP_NODE: 4}
                )
                egress = None
            else:
                egress = draw(st.integers(min_value=1, max_value=8))
            hops = draw(st.integers(min_value=0, max_value=1000))
            copies.append(DeliveryRecord(packet, egress, hops))
        results[index] = copies
    return results


class TestLaneWire:
    """The lane codec: what crosses a process boundary comes back equal,
    in order, as fresh packets."""

    @settings(max_examples=100, deadline=None)
    @given(batch=wire_batches())
    def test_batch_round_trip(self, batch):
        for _, packet, _ in batch:
            hash(packet)  # a cached hash must not survive the wire
        decoded = decode_batch(encode_batch(batch))
        assert [(i, port) for i, _, port in decoded] == [
            (i, port) for i, _, port in batch
        ]
        for (_, original, _), (_, packet, _) in zip(batch, decoded):
            _fresh_packet(original, packet)

    @settings(max_examples=100, deadline=None)
    @given(results=wire_records())
    def test_records_round_trip(self, results):
        for records in results.values():
            for record in records:
                hash(record.packet)
        decoded = decode_records(encode_records(results))
        assert list(decoded) == list(results)
        for index, records in results.items():
            assert [(r.egress, r.hops) for r in decoded[index]] == [
                (r.egress, r.hops) for r in records
            ]
            for original, record in zip(records, decoded[index]):
                _fresh_packet(original.packet, record.packet)


class TestProcessEquivalence:
    """Process ≡ sequential ≡ eval on the Table-3 traces."""

    def test_sharded_monitor_background(self):
        snapshot, _ = sharded_monitor()
        trace = workloads.background_traffic(SUBNETS, count=300, seed=7)
        assert_process_equivalent(snapshot, trace)

    def test_dns_tunnel_attack_and_benign(self):
        snapshot, _ = compiled(app=dns_tunnel_detect(threshold=3))
        attack = workloads.dns_tunnel_attack(
            ip("10.0.6.66"), 6, ip("10.0.1.53"), 1, num_responses=4
        )
        benign = workloads.benign_dns_usage(
            ip("10.0.6.77"), 6, ip("10.0.1.53"), 1,
            servers=[ip("10.0.2.10"), ip("10.0.2.11")], server_port=2,
        )
        assert_process_equivalent(snapshot, attack.interleaved_with(benign, seed=3))

    def test_syn_flood_with_sessions(self):
        guard = ast.Or(
            ast.Test("dstip", SUBNETS[6]), ast.Test("srcip", SUBNETS[6])
        )
        snapshot, _ = compiled(app=syn_flood_detect(threshold=10), guard=guard)
        flood = workloads.syn_flood(ip("10.0.1.66"), 1, ip("10.0.6.1"), count=15)
        sessions = workloads.tcp_session(ip("10.0.2.5"), ip("10.0.6.1"), 2, 6)
        assert_process_equivalent(snapshot, flood.interleaved_with(sessions, seed=9))

    def test_two_runs_identical_with_two_workers(self):
        """Worker scheduling never leaks into the output ordering."""
        snapshot, _ = sharded_monitor()
        trace = list(workloads.background_traffic(SUBNETS, count=250, seed=5))
        nets = [snapshot.build_network() for _ in range(2)]
        runs = [ENGINE.run(net, trace) for net in nets]
        for a, b in zip(runs[0], runs[1]):
            assert record_view(a) == record_view(b)
        assert nets[0].global_store() == nets[1].global_store()
        assert nets[0].link_packets == nets[1].link_packets
        assert record_view(nets[0].deliveries) == record_view(nets[1].deliveries)

    def test_single_worker_budget_runs_inline(self):
        snapshot, _ = sharded_monitor()
        trace = workloads.background_traffic(SUBNETS, count=100, seed=1)
        engine = ProcessPoolEngine(max_workers=1)
        try:
            assert_process_equivalent(snapshot, trace, engine=engine)
            assert engine._pool is None  # never paid for a pool
        finally:
            engine.close()

    def test_replay_stats_match_sequential(self):
        snapshot, _ = sharded_monitor()
        trace = workloads.background_traffic(SUBNETS, count=200, seed=3)
        stats_seq = replay(trace, snapshot.build_network(), engine="sequential")
        stats_proc = replay(trace, snapshot.build_network(), engine=ENGINE)
        assert stats_seq.sent == stats_proc.sent
        assert stats_seq.delivered == stats_proc.delivered
        assert stats_seq.dropped == stats_proc.dropped
        assert stats_seq.per_egress == stats_proc.per_egress
        assert stats_seq.total_hops == stats_proc.total_hops


class TestPoolLifecycle:
    def test_engine_selection(self):
        assert isinstance(get_engine("process"), ProcessPoolEngine)
        custom = ProcessPoolEngine(max_workers=2)
        assert get_engine(custom) is custom
        assert CompilerOptions(engine="process").engine == "process"

    def test_named_engine_is_shared(self):
        """replay(..., engine="process") must reuse one pool across
        calls instead of leaking a fresh engine (and pool) per call."""
        assert get_engine("process") is get_engine("process")

    def test_broken_pool_recovers_on_next_run(self):
        """A crashed worker must not brick the engine: the broken pool
        is released and the next run starts a fresh one."""
        snapshot, _ = sharded_monitor()
        trace = list(workloads.background_traffic(SUBNETS, count=60, seed=8))
        engine = ProcessPoolEngine(max_workers=2)
        try:
            assert len(engine.run(snapshot.build_network(), trace)) == 60
            pool = engine._pool
            assert pool is not None
            for process in pool._processes.values():
                process.terminate()
            with pytest.raises(DataPlaneError):
                engine.run(snapshot.build_network(), trace)
            assert engine._pool is None  # broken executor released
            out = engine.run(snapshot.build_network(), trace)  # fresh pool
            assert len(out) == 60
        finally:
            engine.close()

    def test_in_place_mutation_refreshes_worker_caches(self):
        """Grafting a different program onto the same network object
        (the mutation path the shard-plan cache self-invalidates on)
        must also invalidate the workers' rehydration caches — otherwise
        warm workers keep executing the old policy."""
        snap_a, _ = sharded_monitor()
        guarded = ast.Seq(
            ast.If(
                ast.Test("inport", 1),
                ast.StateIncr("only1", ast.Field("srcip")),
                ast.Id(),
            ),
            assign_egress(SUBNETS),
        )
        snap_b, _ = compiled(policy=guarded, defaults={"only1": 0},
                             name="guarded")
        trace = list(workloads.background_traffic(SUBNETS, count=80, seed=6))
        engine = ProcessPoolEngine(max_workers=2)
        try:
            network = snap_a.build_network()
            engine.run(network, trace)  # warm the workers on program A
            donor = snap_b.build_network()
            for attr in ("index", "switches", "placement", "mapping",
                         "routing", "rules", "demands", "state_defaults"):
                setattr(network, attr, getattr(donor, attr))
            network._init_routing_indices()
            network.link_packets = {}
            network.deliveries = []
            out = engine.run(network, trace)

            reference = snap_b.build_network()
            ref = SequentialEngine().run(reference, trace)
            for a, b in zip(ref, out):
                assert record_view(a) == record_view(b)
            assert network.global_store() == reference.global_store()
        finally:
            engine.close()

    def test_single_shard_runs_inline(self):
        """One shard gains nothing from IPC — the engine falls back to
        the inline lane and never creates a pool."""
        snapshot, _ = compiled(app=dns_tunnel_detect())
        engine = ProcessPoolEngine(max_workers=4)
        try:
            trace = workloads.background_traffic(SUBNETS, count=80, seed=2)
            assert_process_equivalent(snapshot, trace, engine=engine)
            assert engine._pool is None
        finally:
            engine.close()

    def test_session_pool_survives_rewire_restarts_on_rebuild(self):
        _, program = sharded_monitor()
        controller = SnapController(
            campus_topology(), program,
            options=CompilerOptions(engine="process"),
        )
        controller.submit()
        net_cold = controller.network()
        engine = net_cold.default_engine
        assert isinstance(engine, ProcessPoolEngine)
        try:
            engine.max_workers = 2  # keep the test pool small
            trace = workloads.background_traffic(SUBNETS, count=60, seed=4)
            assert replay(trace, net_cold).sent == 60
            pool = engine._pool
            assert pool is not None

            controller.fail_link("C1", "C5")  # TE rewire
            net_te = controller.network()
            assert net_te.default_engine is engine
            assert engine._pool is pool  # pool survived
            assert net_te._exec_program_key == net_cold._exec_program_key
            assert net_te._exec_network_key != net_cold._exec_network_key
            assert replay(trace, net_te).sent == 60

            controller.update_policy(program)  # policy rebuild
            net_policy = controller.network()
            assert net_policy.default_engine is engine
            assert engine._pool is None  # pool restarted
            assert net_policy._exec_program_key != net_cold._exec_program_key
            assert replay(trace, net_policy).sent == 60  # fresh pool works
        finally:
            controller.close()
            assert engine._pool is None


# -- cross-engine hypothesis property ----------------------------------------
#
# Random policies over the campus: optionally per-port sharded counters,
# optionally a global (unshardable) counter, optionally multicast and
# partial drops in the egress stage.  Every engine — thread lanes,
# process-pool lanes, the 2-daemon cluster, and the default-configured
# columnar vector tier — must agree with the sequential baseline field
# by field, including the final global store.

MULTICAST_EGRESS = ast.If(
    ast.Test("dstport", 99),
    ast.Parallel(ast.Mod("outport", 2), ast.Mod("outport", 5)),
    assign_egress(SUBNETS),
)

DROPPY_EGRESS = ast.If(
    ast.Test("srcport", 7), ast.Drop(), assign_egress(SUBNETS)
)


@st.composite
def campus_cases(draw):
    defaults = {}
    state_parts = []
    if draw(st.booleans()):
        state_parts.append(
            shard_by_inport(
                ast.StateIncr("cnt", ast.Field("inport")), "cnt", PORTS
            )
        )
        defaults.update(shard_defaults({"cnt": 0}, "cnt", PORTS))
    if draw(st.booleans()):
        # Guarded to the server subnet's flows so placement stays
        # feasible — still touched from every ingress port, so it is
        # unshardable and collapses the stateful ports into one lane.
        state_parts.append(
            ast.If(
                ast.Test("dstip", SUBNETS[6]),
                ast.StateIncr("glob", ast.Value(0)),
                ast.Id(),
            )
        )
        defaults["glob"] = 0
    guarded_port = draw(st.sampled_from(PORTS))
    if draw(st.booleans()):
        state_parts.append(
            ast.If(
                ast.Test("inport", guarded_port),
                ast.StateIncr("guarded", ast.Field("srcip")),
                ast.Id(),
            )
        )
        defaults["guarded"] = 0
    egress = draw(
        st.sampled_from([assign_egress(SUBNETS), MULTICAST_EGRESS, DROPPY_EGRESS])
    )
    policy = egress
    for part in state_parts:
        policy = ast.Seq(part, policy)
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return policy, defaults, seed


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(case=campus_cases())
def test_cross_engine_equivalence(case):
    policy, defaults, seed = case
    program = Program(
        policy,
        assumption=port_assumption(SUBNETS),
        state_defaults=defaults,
        name="generated",
    )
    try:
        snapshot = SnapController(campus_topology(), program).submit()
    except PlacementError:
        assume(False)
        return
    trace = list(workloads.background_traffic(SUBNETS, count=60, seed=seed))
    # Sprinkle in packets that trigger the multicast / drop egresses.
    extra = [
        (
            workloads.traces.make_packet(
                srcip=SUBNETS[p].host(9), dstip=SUBNETS[6].host(9),
                srcport=7 if p % 2 else 40000, dstport=99,
            ),
            p,
        )
        for p in PORTS
    ]
    arrivals = trace + extra

    nets = {
        "sequential": snapshot.build_network(),
        "sharded": snapshot.build_network(),
        # Replication explicitly on / off: the default rows above
        # follow the network's flag, these two pin both settings so a
        # regression in either path (per-lane replicas + log merge, or
        # the classic owner-lane collapse) cannot hide behind defaults.
        "sharded-replicate": snapshot.build_network(),
        "sharded-owner-lane": snapshot.build_network(),
        "process": snapshot.build_network(),
        "cluster": snapshot.build_network(),
        "vector": snapshot.build_network(),
    }
    try:
        baseline_run = SequentialEngine().run(nets["sequential"], arrivals)
    except DataPlaneError:
        # The reference simulator itself cannot route this placement
        # (multi-variable pause chains are a known egress-retag
        # limitation) — engine equivalence is vacuous here.
        assume(False)
        return
    results = {
        "sequential": baseline_run,
        "sharded": ShardedEngine(max_workers=2).run(nets["sharded"], arrivals),
        "sharded-replicate": ShardedEngine(
            max_workers=2, replicate_state=True
        ).run(nets["sharded-replicate"], arrivals),
        "sharded-owner-lane": ShardedEngine(
            max_workers=2, replicate_state=False
        ).run(nets["sharded-owner-lane"], arrivals),
        "process": ENGINE.run(nets["process"], arrivals),
        "cluster": CLUSTER.run(nets["cluster"], arrivals),
        "vector": get_engine("vector").run(nets["vector"], arrivals),
    }
    baseline = results["sequential"]
    base_store = nets["sequential"].global_store()
    for name in ("sharded", "sharded-replicate", "sharded-owner-lane",
                 "process", "cluster", "vector"):
        assert len(results[name]) == len(baseline), name
        for a, b in zip(baseline, results[name]):
            assert record_view(a) == record_view(b), name
        assert nets[name].global_store() == base_store, name
        assert nets[name].link_packets == nets["sequential"].link_packets, name
