"""State-compute replication on the deliberately-unshardable workload.

The ``global-heavy-hitter`` app is the §7.3 worst case: one
network-wide per-source counter every ingress updates, so the shard
planner collapses all six campus ports into a single serialized owner
lane.  This bench replays gravity-weighted background traffic on
``ShardedEngine`` across a lane-count sweep with replication off (the
collapse: 1 lane regardless of workers) and on (per-lane replicas +
deterministic delta merge: 6 lanes), recording pkt/s, the recovered
lane count, and the replica-log bytes shipped per packet.  One more
row per lane count runs a default-configured ``VectorEngine``, which
resolves replication like every other engine (skipped without numpy).
A sequential
run is the byte-identity reference — final stores and per-packet
records are asserted equal on the measured runs themselves.

Honest numbers: thread lanes share the GIL, so on a single-CPU host the
replicated pkt/s tracks (or trails) sequential — the ``cpus`` field in
the merged results says how to read the curve.  What the bench proves
structurally on any host is the parallelism recovery: lanes go 1 -> 6
the moment replication is on, the property a multi-core host converts
into wall-clock speedup.

Results merge into ``BENCH_xfdd.json`` under ``replication``.  Smoke
mode for CI: ``REPLICATION_SMOKE=1`` shrinks the trace and the sweep.
"""

import gc
import os
import time

from repro.apps import assign_egress, default_subnets, global_heavy_hitter, \
    port_assumption
from repro.core.controller import SnapController
from repro.core.program import Program
from repro.dataplane.engine import SequentialEngine, ShardedEngine, plan_for
from repro.dataplane.replication import replica_plan_for
from repro.lang import ast
from repro.topology.campus import campus_topology
from repro.workloads import background_traffic

try:  # the vector rows need the optional numpy dependency
    from repro.dataplane.vector import VectorEngine
except ImportError:  # pragma: no cover - only without numpy
    VectorEngine = None

from conftest import merge_bench_results
from workloads import print_table

SMOKE = os.environ.get("REPLICATION_SMOKE") == "1"

NUM_PORTS = 6
SUBNETS = default_subnets(NUM_PORTS)
PACKETS = 1500 if SMOKE else 8000
ROUNDS = 3 if SMOKE else 5
LANE_SWEEP = (1, 2) if SMOKE else (1, 2, 4, 6)

_RESULTS = []
_SUMMARY = {
    "packets": PACKETS,
    "cpus": os.cpu_count(),
    "smoke": SMOKE,
    "workloads": {},
}


def global_counter_snapshot():
    app = global_heavy_hitter()
    program = Program(
        ast.Seq(app.policy, assign_egress(SUBNETS)),
        assumption=port_assumption(SUBNETS),
        state_defaults=app.state_defaults,
        name=app.name,
    )
    return SnapController(campus_topology(), program).submit()


def _record_view(records):
    return [(r.egress, r.hops, r.packet) for r in records]


def _best_time(engine, snapshot, trace):
    best = float("inf")
    records = network = None
    for _ in range(ROUNDS):
        network = snapshot.build_network()
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        records = engine.run(network, trace)
        elapsed = time.perf_counter() - start
        gc.enable()
        best = min(best, elapsed)
    return best, records, network


def test_global_heavy_hitter_sweep(benchmark):
    """pkt/s and lane count vs workers, replication on vs off."""
    snapshot = global_counter_snapshot()
    trace = list(background_traffic(SUBNETS, count=PACKETS, seed=7))
    base_net = snapshot.build_network()
    assert plan_for(base_net).parallelism == 1  # the collapse is real
    assert sorted(replica_plan_for(base_net, True).replicated) \
        == ["global-hh"]

    def run():
        seq_time, seq_records, seq_net = _best_time(
            SequentialEngine(), snapshot, trace
        )
        rows = {}
        for workers in LANE_SWEEP:
            configs = [
                (replicate, ShardedEngine(
                    max_workers=workers, replicate_state=replicate
                ))
                for replicate in (False, True)
            ]
            if VectorEngine is not None:
                configs.append(("vector", VectorEngine(max_workers=workers)))
            for replicate, engine in configs:
                elapsed, records, net = _best_time(engine, snapshot, trace)
                # Byte-identity vs sequential, on the measured runs.
                assert net.global_store() == seq_net.global_store(), (
                    workers, replicate,
                )
                for a, b in zip(seq_records, records):
                    assert _record_view(a) == _record_view(b)
                stats = engine.last_run_stats
                rows[(workers, replicate)] = {
                    "pps": round(PACKETS / elapsed),
                    "lanes": stats["lanes"],
                    "log_bytes_per_packet": round(
                        stats.get("replica_log_bytes", 0) / PACKETS, 2
                    ),
                    "log_entries": stats.get("replica_log_entries", 0),
                }
        return seq_time, rows

    seq_time, rows = benchmark.pedantic(run, iterations=1, rounds=1)
    sequential_pps = round(PACKETS / seq_time)
    _SUMMARY["workloads"]["global-heavy-hitter"] = {
        "sequential_pps": sequential_pps,
        "sweep": [
            {
                "workers": workers,
                "replicate_state": replicate,
                **rows[(workers, replicate)],
            }
            for (workers, replicate) in rows
        ],
    }
    for (workers, replicate), row in rows.items():
        _RESULTS.append((
            workers,
            replicate if replicate == "vector"
            else "on" if replicate else "off",
            row["lanes"],
            f"{row['pps']:,}",
            row["log_bytes_per_packet"],
        ))
    # The structural claim: replication recovers every lane the collapse
    # serialized, and lane count never shrinks as workers grow.
    for workers in LANE_SWEEP:
        assert rows[(workers, False)]["lanes"] == 1
        assert rows[(workers, True)]["lanes"] == NUM_PORTS
        assert rows[(workers, True)]["log_entries"] > 0
        if VectorEngine is not None:
            assert rows[(workers, "vector")]["lanes"] == NUM_PORTS
    off_pps = [rows[(w, False)]["pps"] for w in LANE_SWEEP]
    on_pps = [rows[(w, True)]["pps"] for w in LANE_SWEEP]
    assert min(off_pps) > 0 and min(on_pps) > 0
    _SUMMARY["workloads"]["global-heavy-hitter"]["recovered_lanes"] = (
        NUM_PORTS - 1
    )


def test_zz_report(benchmark):
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    assert _RESULTS
    print_table(
        f"State-compute replication: global-heavy-hitter "
        f"({os.cpu_count()} CPUs, {PACKETS} packets, "
        f"sequential {_SUMMARY['workloads']['global-heavy-hitter']['sequential_pps']:,} pkt/s)",
        ("workers", "replication", "lanes", "pkt/s", "log B/pkt"),
        _RESULTS,
    )
    merge_bench_results("replication", _SUMMARY)
