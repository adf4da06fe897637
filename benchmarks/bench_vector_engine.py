"""Vectorized batch tier (columnar NetASM kernels) vs scalar engines.

The campus sharded workload (§7.3 / Appendix C) replayed on three
engines — sequential, thread lanes (``ShardedEngine``) and the columnar
tier (``engine="vector"``) — plus the dns-tunnel control whose state
tests demote the whole batch to the scalar fallback (vector must track
the scalar lane at parity there, not win).

Methodology: kernels are cached by ``_exec_program_key`` and
``build_network()`` mints fresh keys per build, so each engine builds
**one** network, pays kernel planning on a warm-up run (whose records
seed the equivalence check — every engine starts from default state),
and is then timed best-of-N on the warm network.  That is the deployed
shape: a controller session replays many batches against one compiled
network, re-planning only on policy rebuild.

The batch-size sweep shows where the columnar tier pays: per-batch
fixed costs (mask partitioning, LUT growth) amortize as the batch
grows, while per-row record materialization bounds the single-core
ceiling (Amdahl).  Honest numbers: this records ``cpus`` — on a 1-CPU
container the vector tier's ~4-5x is pure interpreter removal; the
>=10x Table-3 target composes it with multi-core lanes (cluster
workers opt in via ``ClusterEngine(lane="vector")``).

Smoke mode for CI: ``VECTOR_ENGINE_SMOKE=1`` shrinks the trace and sweep.
"""

import gc
import os
import time

import pytest

np = pytest.importorskip("numpy")

from repro.analysis.sharding import shard_by_inport, shard_defaults
from repro.apps import assign_egress, default_subnets, port_assumption
from repro.apps.chimera import dns_tunnel_detect
from repro.core.controller import SnapController
from repro.core.program import Program
from repro.dataplane.engine import SequentialEngine, ShardedEngine
from repro.dataplane.vector import (
    VectorEngine,
    kernel_cache_stats,
    reset_kernel_stats,
)
from repro.lang import ast
from repro.topology.campus import campus_topology
from repro.workloads import background_traffic

from conftest import merge_bench_results
from workloads import print_table

SMOKE = os.environ.get("VECTOR_ENGINE_SMOKE") == "1"

NUM_PORTS = 6
SUBNETS = default_subnets(NUM_PORTS)
PACKETS = 1200 if SMOKE else 8000
ROUNDS = 2 if SMOKE else 5
BATCH_SWEEP = (300, 1200) if SMOKE else (1000, 8000, 32000)

ENGINES = (
    ("sequential", SequentialEngine),
    ("sharded", ShardedEngine),
    ("vector", VectorEngine),
)

_RESULTS = []
_SWEEP_ROWS = []
_SUMMARY = {
    "packets": PACKETS,
    "smoke": SMOKE,
    "workloads": {},
    "batch_sweep": [],
}


def sharded_monitor_snapshot():
    """The vectorizable headline workload: per-port counters, six lanes."""
    ports = list(range(1, NUM_PORTS + 1))
    body = ast.Seq(
        ast.StateIncr("count", ast.Field("inport")), assign_egress(SUBNETS)
    )
    program = Program(
        shard_by_inport(body, "count", ports),
        assumption=port_assumption(SUBNETS),
        state_defaults=shard_defaults({"count": 0}, "count", ports),
        name="monitor-sharded",
    )
    return SnapController(campus_topology(), program).submit()


def dns_tunnel_snapshot():
    """Scalar-fallback control: state tests demote the whole batch."""
    app = dns_tunnel_detect()
    program = Program(
        ast.Seq(app.policy, assign_egress(SUBNETS)),
        assumption=port_assumption(SUBNETS),
        state_defaults=app.state_defaults,
        name=app.name,
    )
    return SnapController(campus_topology(), program).submit()


def _warm_best(engine, snapshot, trace):
    """Warm-up once (kernel plans), then best-of-N on the warm network.

    Returns ``(best_seconds, warmup_records, network)``; the warm-up
    records come from default state, so they are comparable across
    engines even though the timed rounds accumulate counter state.
    """
    network = snapshot.build_network()
    warmup_records = engine.run(network, trace)
    best = float("inf")
    for _ in range(ROUNDS):
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        engine.run(network, trace)
        best = min(best, time.perf_counter() - start)
        gc.enable()
    return best, warmup_records, network


def _record_view(records):
    """Per-arrival views: ``run`` returns one record list per input packet."""
    return [[(r.egress, r.hops, r.packet) for r in per_arrival]
            for per_arrival in records]


def _compare(snapshot, packets):
    trace = list(background_traffic(SUBNETS, count=packets, seed=7))
    reset_kernel_stats()
    rows = {}
    baseline = None
    for engine_name, engine_cls in ENGINES:
        before = kernel_cache_stats()
        best, records, network = _warm_best(engine_cls(), snapshot, trace)
        after = kernel_cache_stats()
        rows[engine_name] = {
            "pps": packets / best,
            "seconds": best,
            "kernel_calls": after["kernel_calls"] - before["kernel_calls"],
            "kernel_plans": after["plans"] - before["plans"],
            "kernel_cache_hits": after["cache_hits"] - before["cache_hits"],
        }
        view = _record_view(records)
        if baseline is None:
            baseline = (view, network.global_store(), network.link_packets)
            continue
        # Byte-identical delivery on the warm-up run (default state on
        # every engine); the timed rounds advance counters identically
        # on each engine's private network, so final stores agree too.
        assert len(view) == packets and view == baseline[0]
        assert network.global_store() == baseline[1]
        assert network.link_packets == baseline[2]
    return rows


def test_monitor_sharded(benchmark):
    """Headline: columnar kernels vs the per-packet interpreter."""
    snapshot = sharded_monitor_snapshot()
    rows = benchmark.pedantic(
        lambda: _compare(snapshot, PACKETS),
        iterations=1, rounds=1,
    )
    seq_pps = rows["sequential"]["pps"]
    for engine_name, row in rows.items():
        row["ratio_vs_sequential"] = round(row["pps"] / seq_pps, 2)
        _RESULTS.append((
            "monitor-sharded", engine_name, PACKETS,
            f"{row['pps']:,.0f}", f"{row['ratio_vs_sequential']:.2f}x",
            row["kernel_plans"], row["kernel_cache_hits"],
        ))
        row["pps"] = round(row["pps"])
        del row["seconds"]
    _SUMMARY["workloads"]["monitor-sharded"] = rows
    # The vector tier plans its kernels on the warm-up run and re-plans
    # nothing after: every timed round is a cache hit.
    assert rows["vector"]["kernel_plans"] > 0
    assert rows["vector"]["kernel_cache_hits"] > 0
    # Honest single-core floor (tracked at ~4-5x warm on 1 CPU; the
    # >=10x Table-3 target needs multi-core lanes on top — see docs).
    assert rows["vector"]["ratio_vs_sequential"] >= 2.0


def test_dns_tunnel_fallback_parity(benchmark):
    """Unvectorizable program: the vector tier must not tax the fallback."""
    snapshot = dns_tunnel_snapshot()
    rows = benchmark.pedantic(
        lambda: _compare(snapshot, PACKETS),
        iterations=1, rounds=1,
    )
    seq_pps = rows["sequential"]["pps"]
    for engine_name, row in rows.items():
        row["ratio_vs_sequential"] = round(row["pps"] / seq_pps, 2)
        _RESULTS.append((
            "dns-tunnel-detect", engine_name, PACKETS,
            f"{row['pps']:,.0f}", f"{row['ratio_vs_sequential']:.2f}x",
            row["kernel_plans"], row["kernel_cache_hits"],
        ))
        row["pps"] = round(row["pps"])
        del row["seconds"]
    _SUMMARY["workloads"]["dns-tunnel-detect"] = rows
    # Whole-batch scalar demotion: no kernels execute, and throughput
    # tracks the scalar lane (generous noise floor on ms-scale runs).
    assert rows["vector"]["kernel_calls"] == 0
    assert rows["vector"]["ratio_vs_sequential"] >= 0.5


def test_batch_size_sweep(benchmark):
    """Columnar payoff vs batch size: fixed costs amortize as N grows."""
    snapshot = sharded_monitor_snapshot()

    def sweep():
        out = []
        for packets in BATCH_SWEEP:
            rows = _compare(snapshot, packets)
            seq = rows["sequential"]["pps"]
            out.append({
                "batch": packets,
                "sequential_pps": round(seq),
                "vector_pps": round(rows["vector"]["pps"]),
                "vector_ratio": round(rows["vector"]["pps"] / seq, 2),
            })
        return out

    for row in benchmark.pedantic(sweep, iterations=1, rounds=1):
        _SUMMARY["batch_sweep"].append(row)
        _SWEEP_ROWS.append((
            row["batch"], f"{row['sequential_pps']:,}",
            f"{row['vector_pps']:,}", f"{row['vector_ratio']:.2f}x",
        ))


def test_zz_report(benchmark):
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    assert len(_RESULTS) == 2 * len(ENGINES)
    print_table(
        "Vector tier vs scalar engines (campus, background traffic, warm)",
        ("workload", "engine", "packets", "pkt/s", "vs seq",
         "plans", "cache hits"),
        _RESULTS,
    )
    print_table(
        "Batch-size sweep (monitor-sharded)",
        ("batch", "sequential pkt/s", "vector pkt/s", "ratio"),
        _SWEEP_ROWS,
    )
    merge_bench_results("vector_engine", _SUMMARY)
