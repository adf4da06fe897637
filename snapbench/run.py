"""The SNAP benchmark: one command, one workload per run.

    python3 snapbench/run.py --workload compile-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced operations with operations run under the layer wrappers, and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: name -> unit, in BENCHMARK.json's order.
END_TO_END = {
    "latency_p50": "ref_ms",
    "latency_p90": "ref_ms",
    "pkt_per_ref_s": "pkt/ref_s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mean_hops": "hops",
    "placement_objective": "cost",
    "netasm_instructions": "count",
}

#: What the latency percentiles time on each workload.
OP_NAMES = {"compile": "compile_ms", "event": "event_ms", "replay": "replay_call_ms"}

#: The host's speed drifts by a fifth over seconds (other tenants share its
#: cores), which moves every timing taken meanwhile.  A fixed pure-Python
#: loop, run with the collector off before every step and set-up and
#: outside timing, measures that speed; ``ref_ms``, ``pkt/ref_s`` and
#: ``setup_s`` are wall-clock figures rescaled by the median loop time of
#: the steps around them, to a host on which the loop takes
#: :data:`REFERENCE_LOOP_MS`.  The loop is timed in thread CPU time: the
#: host's drift shows there in full, while time spent waiting for another
#: thread or process of the program does not, so contention the program
#: itself creates cannot pass for a slow host.
CALIBRATION_LOOP = 10_000
CALIBRATION_WINDOW = 10  # steps on each side
REFERENCE_LOOP_MS = 1.3
_TABLE = tuple(range(64))


def calibration_ms() -> float:
    """Thread CPU time of the calibration loop, in ms."""
    gc.disable()
    try:
        start = thread_time()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += _TABLE[i & 63] * i % 7
        return (thread_time() - start) * 1000
    finally:
        gc.enable()


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``statistics.quantiles`` inclusive)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped worker child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment(workload) -> dict:
    import numpy
    import scipy

    try:  # private module: the version stays unknown where it moved
        from scipy.optimize._highspy import _core as highs

        highs_version = "{}.{}.{}".format(
            highs.HIGHS_VERSION_MAJOR, highs.HIGHS_VERSION_MINOR,
            highs.HIGHS_VERSION_PATCH,
        )
    except (ImportError, AttributeError):
        highs_version = None
    nproc = os.cpu_count() or 1
    stamp = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs_version,
        **workload.stamp(),
    }
    if nproc < stamp["workers"]:
        stamp["flag"] = (
            f"nproc {nproc} < {stamp['workers']} workers: parallel lanes "
            "share cores, so pkt_per_s understates the engine"
        )
    return stamp


def measure(workload, seconds: float):
    """Run whole input periods of ``workload`` until ``seconds`` have passed."""
    from scenarios import Tally

    tally = Tally()
    deadline = perf_counter() + seconds
    while True:
        tally.calibration.append(calibration_ms())
        workload.step(tally)
        if perf_counter() >= deadline and workload.steps % workload.period == 0:
            return tally


def measure_traced(workload, seconds: float, tracer):
    """Alternate untraced and traced units of ``workload.trace_unit``
    operations in an ABBA order, so both see the same inputs and the same
    machine; returns ``(untraced, traced)`` tallies."""
    from scenarios import Tally

    untraced, traced = Tally(), Tally()
    deadline = perf_counter() + seconds
    unit = 0
    while perf_counter() < deadline or unit < 4:
        on = unit % 4 in (1, 2)
        if on:
            tracer.install()
            workload.trace_with(tracer)
        try:
            for _ in range(workload.trace_unit):
                tally = traced if on else untraced
                tally.calibration.append(calibration_ms())
                workload.step(tally)
        finally:
            if on:
                tracer.uninstall()
                workload.trace_with(None)
        unit += 1
    return untraced, traced


def wall_clock(tally) -> dict:
    """The run's raw timings: operation latency and replay throughput."""
    ops_ms = [s * 1000 for s in tally.op_s]
    return {
        "latency_ms_p50": _quantile(ops_ms, 0.5),
        "latency_ms_p90": _quantile(ops_ms, 0.9),
        "pkt_per_s": statistics.median(tally.replay_pps),
    }


def speed_at(tally, step: int) -> float:
    """Host speed around ``step``, relative to the reference host."""
    window = tally.calibration[
        max(0, step - CALIBRATION_WINDOW): step + CALIBRATION_WINDOW + 1
    ]
    return REFERENCE_LOOP_MS / statistics.median(window)


def end_to_end(workload, tally, setup_s: list, setup_calibration: list) -> dict:
    ops_ref_ms = [
        s * 1000 * speed_at(tally, step) for s, step in zip(tally.op_s, tally.op_step)
    ]
    pps_ref = [
        pps / speed_at(tally, step)
        for pps, step in zip(tally.replay_pps, tally.replay_step)
    ]
    values = {
        "latency_p50": _quantile(ops_ref_ms, 0.5),
        "latency_p90": _quantile(ops_ref_ms, 0.9),
        "pkt_per_ref_s": statistics.median(pps_ref),
        "setup_s": statistics.median(setup_s) * REFERENCE_LOOP_MS
        / statistics.median(setup_calibration),
        "peak_rss_mb": peak_rss_mb(),
        "mean_hops": tally.hops / tally.delivered if tally.delivered else 0.0,
        **workload.quality(tally),
    }
    return {name: values[name] for name in END_TO_END}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, traced, untraced, oracle) -> dict:
    """The per-layer report of a traced window (see README.md)."""
    from layers import PHASE_LAYERS

    ops = max(1, len(traced.op_s))
    self_s = tracer.self_s

    def per_op_ms(*layers):
        return sum(self_s[layer] for layer in layers) / ops * 1000

    snapshots = traced.snapshots
    stats = [dict(s.model_stats) for s in snapshots]
    st = [s for s in stats if "xfdd_cache_hits" in s]  # ST compiles (P1-P3 ran)
    fresh = [s for s in st if "variables" in s and not s.get("solve_reused")]
    hits = sum(s["xfdd_cache_hits"] for s in st)
    misses = sum(s["xfdd_cache_misses"] for s in st)
    reused = sum(s.get("incremental_reused", 0) for s in st)
    recompiled = sum(s.get("incremental_recompiled", 0) for s in st)
    phases_s = sum(s.timer.total() for s in snapshots)
    runs = traced.engine_runs
    packets = sum(n for n, _ in runs) or 1
    lanes = [r.get("lanes", 1) for _, r in runs]
    calls = traced.calls
    replay_calls = tracer.calls["workloads.replay"] or 1
    layer_s = sum(self_s.values())
    untraced_mean = _ratio(sum(untraced.op_s), len(untraced.op_s))
    traced_mean = _ratio(sum(traced.op_s), len(traced.op_s))
    return {
        "analysis.dependencies_ms": per_op_ms("analysis.dependencies"),
        "analysis.mapping_ms": per_op_ms("analysis.mapping"),
        "analysis.effects_ms": per_op_ms("analysis.effects"),
        "xfdd.build_ms": per_op_ms("xfdd.build"),
        "xfdd.nodes": _ratio(sum(s.get("xfdd_intern_size", 0) for s in st), len(st)),
        "xfdd.apply_cache_hit_ratio": _ratio(hits, hits + misses),
        "xfdd.arms_reused_ratio": _ratio(reused, reused + recompiled),
        "milp.st_build_ms": per_op_ms("milp.st_build"),
        "milp.st_solve_ms": per_op_ms("milp.st_solve"),
        "milp.st_variables": _ratio(sum(s["variables"] for s in fresh), len(fresh)),
        "milp.st_constraints": _ratio(sum(s["constraints"] for s in fresh), len(fresh)),
        "milp.te_build_ms": per_op_ms("milp.te_build"),
        "milp.te_solve_ms": per_op_ms("milp.te_solve"),
        "milp.solve_memo_hit_ratio": _ratio(
            sum(1 for s in st if s.get("solve_reused")), len(st)
        ),
        "milp.calls.st_solves": calls["st_solves"] / ops,
        "milp.calls.te_model_builds": calls["te_model_builds"] / ops,
        "milp.calls.te_solves": calls["te_solves"] / ops,
        "core.rules_ms": per_op_ms("core.rules"),
        "core.residual_ms": (traced.timed_s - layer_s) / ops * 1000,
        "core.phase_gap_ms": (phases_s - tracer.layer_total(PHASE_LAYERS)) / ops * 1000,
        "dataplane.build_ms": per_op_ms("dataplane.build"),
        "dataplane.rules": _ratio(sum(traced.rules), len(traced.rules)),
        "dataplane.hot_swap_ms": per_op_ms("dataplane.hot_swap"),
        "dataplane.engine_run_us_per_pkt": self_s["dataplane.engine_run"] / packets * 1e6,
        "dataplane.lanes": _ratio(sum(lanes), len(lanes)),
        "dataplane.plan_ms": per_op_ms("dataplane.plan"),
        "dataplane.spec_ms": per_op_ms("dataplane.spec"),
        "dataplane.state_ship_ms": per_op_ms("dataplane.state_ship"),
        "dataplane.state_bytes_per_pkt": sum(r.get("state_bytes", 0) for _, r in runs) / packets,
        "dataplane.spec_bytes_per_run": _ratio(
            sum(r.get("spec_bytes", 0) for _, r in runs), len(runs)
        ),
        "dataplane.replica_log_bytes_per_pkt": sum(
            r.get("replica_log_bytes", 0) for _, r in runs
        ) / packets,
        "workloads.replay_overhead_ms": self_s["workloads.replay"] / replay_calls * 1000,
        "workloads.oracle_pkt_per_s": oracle.pkt_per_s,
        "obs.trace_overhead_pct": (_ratio(traced_mean, untraced_mean) - 1.0) * 100,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from layers import LayerTracer
    from oracle import Oracle
    from scenarios import SETUP_REPEATS, WORKLOADS

    oracle = Oracle()
    workload = WORKLOADS[name](seed, oracle)
    workload.prepare()
    setup_s, setup_calibration = [], []
    try:
        for _ in range(SETUP_REPEATS):
            workload.close()  # the previous set-up, untimed
            setup_calibration += [calibration_ms() for _ in range(5)]
            start = perf_counter()
            workload.setup()
            setup_s.append(perf_counter() - start)
        # Inputs, oracle expectations and the set-up are long-lived: move
        # them out of the collector's reach so full collections during the
        # timed window scan only what the program allocates there.
        gc.collect()
        gc.freeze()
        tracer = None
        if trace:
            tracer = LayerTracer()
            untraced, tally = measure_traced(workload, seconds, tracer)
        else:
            tally = measure(workload, seconds)
    finally:
        workload.close()  # reaps worker children, so peak RSS counts them
    measured = tally if tracer is None else untraced
    if not measured.op_s:
        raise SystemExit(
            f"snapbench: no {workload.op_kind} succeeded; first errors: {measured.errors}"
        )
    result = {
        "workload": workload,
        "tally": tally,
        "wall": wall_clock(measured),
        "speed": REFERENCE_LOOP_MS / statistics.median(measured.calibration),
        "end_to_end": end_to_end(workload, measured, setup_s, setup_calibration),
        "per_layer": {},
        "env": environment(workload),
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, tally, untraced, oracle)
        tally.attempted += untraced.attempted
        tally.failed += untraced.failed
        tally.errors += untraced.errors
        tracer.write_spans(OUT / f"spans-{name}-{seed}.jsonl")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"snapbench: no SNAP sources at {ROOT / 'src'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    from scenarios import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"snapbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    workload, tally = result["workload"], result["tally"]
    print(f"# workload {workload.name}  seed {args.seed}  env {json.dumps(result['env'])}")
    op_name = OP_NAMES[workload.op_kind]
    lines = [
        (name.replace("latency_ms", op_name), value, unit)
        for (name, value), unit in zip(result["wall"].items(), ("ms", "ms", "pkt/s"))
    ]
    lines.append(("host_speed", result["speed"], "x reference"))
    lines += [(name, value, END_TO_END[name]) for name, value in result["end_to_end"].items()]
    lines += [(name, value, LAYER_UNITS[name]) for name, value in result["per_layer"].items()]
    for name, value, unit in lines:
        print(f"{name:36s} {value:14.6g} {unit}")
    print(f"{'operations':36s} {len(tally.op_s):14d} {workload.op_kind}")
    error_rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"{'error_rate':36s} {error_rate:14.6g} ratio "
          f"({tally.failed} of {tally.attempted} compiles/events/packets)")
    for error in tally.errors:
        print(f"# error: {error}")
    metrics, units = (
        (result["per_layer"], LAYER_UNITS) if args.trace
        else (result["end_to_end"], END_TO_END)
    )
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


#: Per-layer metric -> unit, in BENCHMARK.json's order.
LAYER_UNITS = {
    "analysis.dependencies_ms": "ms",
    "analysis.mapping_ms": "ms",
    "analysis.effects_ms": "ms",
    "xfdd.build_ms": "ms",
    "xfdd.nodes": "count",
    "xfdd.apply_cache_hit_ratio": "ratio",
    "xfdd.arms_reused_ratio": "ratio",
    "milp.st_build_ms": "ms",
    "milp.st_solve_ms": "ms",
    "milp.st_variables": "count",
    "milp.st_constraints": "count",
    "milp.te_build_ms": "ms",
    "milp.te_solve_ms": "ms",
    "milp.solve_memo_hit_ratio": "ratio",
    "milp.calls.st_solves": "count/op",
    "milp.calls.te_model_builds": "count/op",
    "milp.calls.te_solves": "count/op",
    "core.rules_ms": "ms",
    "core.residual_ms": "ms",
    "core.phase_gap_ms": "ms",
    "dataplane.build_ms": "ms",
    "dataplane.rules": "count",
    "dataplane.hot_swap_ms": "ms",
    "dataplane.engine_run_us_per_pkt": "us",
    "dataplane.lanes": "count",
    "dataplane.plan_ms": "ms",
    "dataplane.spec_ms": "ms",
    "dataplane.state_ship_ms": "ms",
    "dataplane.state_bytes_per_pkt": "B",
    "dataplane.spec_bytes_per_run": "B",
    "dataplane.replica_log_bytes_per_pkt": "B",
    "workloads.replay_overhead_ms": "ms",
    "workloads.oracle_pkt_per_s": "pkt/s",
    "obs.trace_overhead_pct": "%",
}


if __name__ == "__main__":
    sys.exit(main())
