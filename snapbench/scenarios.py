"""The benchmark's workloads, their seeded inputs, and what one run tallies.

Every workload is a closed loop from this one client process: the next
operation starts when the previous one returned.  Inputs (programs, link
choices, demand factors, traces) are generated from the run's seed before
anything is timed; the program only ever receives those inputs.  Oracle
expectations are computed outside every timed region and outside
``setup_s``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager, nullcontext
from time import perf_counter

from repro.analysis.sharding import shard_by_inport, shard_defaults
from repro.analysis.transform import namespace_state_vars
from repro.apps import ALL_APPS, assign_egress, default_subnets, port_assumption
from repro.apps.chimera import dns_tunnel_detect
from repro.core.controller import SnapController
from repro.core.program import Program
from repro.dataplane.engine import ProcessPoolEngine
from repro.lang import ast
from repro.lang.state import Store
from repro.topology.campus import campus_topology
from repro.util.ipaddr import IPPrefix
from repro.workloads import (
    Trace,
    background_traffic,
    benign_dns_usage,
    dns_tunnel_attack,
    replay,
)

from oracle import Recorder, mismatches

NUM_PORTS = 6
SUBNETS = default_subnets(NUM_PORTS)
#: The subnet the Table-3 apps are scoped to (the paper's own placement
#: experiments compile guarded policies such as DNS-tunnel-detect on it);
#: unscoped, a variable every flow touches has no feasible placement on
#: campus.
PROTECTED = IPPrefix("10.0.6.0/24")
CLIENT_PORT = 6

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Packets in each oracle-checked burst after a compile or an event.
BURST = 100
#: Background traffic is drawn in chunks this long, each with its own
#: gravity weights, so that one seed's port mix (which sets hop counts and
#: how evenly shard lanes fill) stays close to another's.
CHUNK = 10
#: Per-call batch sizes.  Throughput depends on them (larger process-engine
#: batches ship more records), so they are part of the workload.
STATEFUL_BATCH = 1000
SHARDED_BATCH = 4000
#: Distinct pre-checked batches a replay workload cycles through.
REPLAY_BATCHES = 4
#: Process-engine workers for replay-sharded (the 2 cores of the host the
#: bounds were set on).
WORKERS = 2
#: Links of campus whose single failure keeps the composite feasible.
CHURN_LINKS = (
    ("C1", "C3"), ("C1", "C5"), ("C2", "C4"), ("C2", "C6"), ("C3", "C4"),
    ("C3", "C5"), ("C3", "D3"), ("C4", "C6"), ("C5", "C6"), ("C5", "D3"),
    ("C5", "D4"), ("C6", "D4"),
)
#: Factors applied to the *initial* traffic matrix (compounding them drives
#: the TE LP infeasible within a few dozen cycles).  Cycle i of a block of
#: twelve applies factor i mod 6, edits app i mod 6 and fails link i; a
#: seed permutes the block, so every seed sees the same events, in a
#: different order.
DEMAND_FACTORS = (0.75, 0.85, 0.95, 1.05, 1.15, 1.25)
#: Quality metrics (objective, instructions, hops) are read over this many
#: leading operations, so they do not depend on how many fit in a run.
QUALITY_OPS = 16


# -- programs ------------------------------------------------------------------


def scoped_app(name: str) -> Program:
    """A Table-3 app applied to traffic touching :data:`PROTECTED`."""
    app = ALL_APPS[name]()
    guard = ast.Or(ast.Test("srcip", PROTECTED), ast.Test("dstip", PROTECTED))
    return Program(
        ast.Seq(ast.If(guard, app.policy, ast.Id()), assign_egress(SUBNETS)),
        assumption=port_assumption(SUBNETS),
        state_defaults=app.state_defaults,
        name=app.name,
    )


def composite(num_apps: int = 6) -> Program:
    """Figure 11's workload: the first ``num_apps`` Table-3 apps in
    parallel, app i guarded to traffic for egress port i, with its state
    namespaced ``p<i>.`` so the components are independent instances."""
    arms, defaults = [], {}
    for i, name in enumerate(list(ALL_APPS)[:num_apps], start=1):
        app = ALL_APPS[name]()
        body = namespace_state_vars(app.policy, f"p{i}.")
        arms.append(ast.If(ast.Test("dstip", SUBNETS[i]), body, ast.Id()))
        defaults.update({f"p{i}.{v}": d for v, d in app.state_defaults.items()})
    return Program(
        ast.Seq(ast.par_all(arms), assign_egress(SUBNETS)),
        assumption=port_assumption(SUBNETS),
        state_defaults=defaults,
        name=f"fig11-{num_apps}-apps",
    )


def _arms(policy) -> list:
    if isinstance(policy, ast.Parallel):
        return _arms(policy.left) + _arms(policy.right)
    return [policy]


def single_app_edit(base: Program, k: int, salt: int) -> Program:
    """``base`` with arm ``k`` guarded against one more srcport.  State
    reads and writes are untouched, so nothing the ST MILP sees changes."""
    arms = _arms(base.policy.left)
    arms[k] = ast.Seq(ast.Not(ast.Test("srcport", 40000 + salt)), arms[k])
    return Program(
        ast.Seq(ast.par_all(arms), base.policy.right),
        assumption=base.assumption,
        state_defaults=dict(base.state_defaults),
        name=base.name,
    )


def dns_program() -> Program:
    app = dns_tunnel_detect()
    return Program(
        ast.Seq(app.policy, assign_egress(SUBNETS)),
        assumption=port_assumption(SUBNETS),
        state_defaults=app.state_defaults,
        name="dns-tunnel-detect+egress",
    )


def monitor_program() -> Program:
    """§7.3: ``count[inport]++`` split into one variable per ingress port."""
    ports = sorted(SUBNETS)
    body = ast.Seq(ast.StateIncr("count", ast.Field("inport")), assign_egress(SUBNETS))
    return Program(
        shard_by_inport(body, "count", ports),
        assumption=port_assumption(SUBNETS),
        state_defaults=shard_defaults({"count": 0}, "count", ports),
        name="monitor-sharded",
    )


# -- traces --------------------------------------------------------------------


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 30)


def dns_trace(count: int, rng: random.Random) -> Trace:
    """Background chatter interleaved with DNS tunnels (responses whose
    addresses are never used: ``orphan`` and ``susp-client`` written,
    ``blacklist`` written past the threshold) and benign lookup-then-
    connect sessions (``orphan`` tested and cleared, ``susp-client``
    decremented) for clients in :data:`PROTECTED`.  The two alternate,
    so every batch carries the same mix."""
    events: list = []
    tunnel = True
    while len(events) < count // 2:
        client = PROTECTED.host(rng.randrange(1, 60))
        resolver_port = rng.randrange(1, CLIENT_PORT)
        resolver = SUBNETS[resolver_port].host(rng.randrange(1, 20))
        if tunnel:
            session = dns_tunnel_attack(
                client, CLIENT_PORT, resolver, resolver_port,
                num_responses=rng.randrange(2, 6), seed=_seed(rng),
            )
        else:
            server_port = rng.randrange(1, CLIENT_PORT)
            servers = [
                SUBNETS[server_port].host(rng.randrange(1, 200))
                for _ in range(rng.randrange(1, 4))
            ]
            session = benign_dns_usage(
                client, CLIENT_PORT, resolver, resolver_port, servers,
                server_port, seed=_seed(rng),
            )
        events += session.arrivals
        tunnel = not tunnel
    return background(count - len(events), rng).interleaved_with(
        Trace("dns", events), seed=_seed(rng)
    )


def background(count: int, rng: random.Random) -> Trace:
    """Gravity-weighted chatter between all subnets, in :data:`CHUNK`s."""
    arrivals = []
    while len(arrivals) < count:
        size = min(CHUNK, count - len(arrivals))
        arrivals += background_traffic(SUBNETS, size, seed=_seed(rng)).arrivals
    return Trace("background", arrivals)


# -- what a run tallies ----------------------------------------------------------


class Tally:
    """Everything one measurement window records."""

    def __init__(self):
        self.calibration: list = []  # calibration loop ms, one per step
        self.op_s: list = []  # primary operations (compile / event / replay call)
        self.op_step: list = []  # the step each operation ran in
        self.timed_s = 0.0  # every timed region, bursts included
        self.replay_pps: list = []  # per replay() call
        self.replay_step: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        # quality, over the first QUALITY_OPS operations
        self.objectives: list = []
        self.instructions: list = []
        self.hops = 0
        self.delivered = 0
        # per-layer counts
        self.snapshots: list = []
        self.engine_runs: list = []  # (packets, last_run_stats dict)
        self.rules: list = []
        self.calls = {"st_solves": 0, "te_model_builds": 0, "te_solves": 0}

    def add_calls(self, after: dict, before: dict | None = None) -> None:
        """Add a solver backend's call counts (minus ``before``)."""
        for name in self.calls:
            self.calls[name] += after[name] - (before or {}).get(name, 0)

    def op(self, seconds: float) -> None:
        self.op_s.append(seconds)
        self.op_step.append(len(self.calibration) - 1)
        self.timed_s += seconds

    def replayed(self, packets: int, seconds: float, stats, quality: bool) -> None:
        self.replay_pps.append(packets / seconds)
        self.replay_step.append(len(self.calibration) - 1)
        if quality:
            self.hops += stats.total_hops
            self.delivered += stats.delivered

    def check(self, bad: int, packets: int) -> None:
        self.attempted += packets
        self.failed += bad

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")


class Workload:
    """One named workload: seeded inputs, a timed set-up, a timed step."""

    name = ""
    op_kind = ""
    engine = "sequential"
    workers = 1
    batch = BURST
    quality_ops = QUALITY_OPS
    #: Operations in one period of the workload's input cycle; a run ends
    #: on a period boundary, so every input weighs the same in its figures.
    period = 1
    #: Operations per traced/untraced unit of a ``--trace 1`` run.
    trace_unit = 1

    def __init__(self, seed: int, oracle):
        self.rng = random.Random(seed)
        self.oracle = oracle
        self.tracer = None
        self.replay = replay
        self.steps = 0

    def trace_with(self, tracer) -> None:
        """Route timed operations and ``replay()`` through ``tracer``."""
        self.tracer = tracer
        self.replay = tracer.wrap("workloads.replay", replay) if tracer else replay

    @contextmanager
    def timed(self, kind: str):
        """Time one operation; the yielded cell holds its wall seconds."""
        context = self.tracer.operation(kind) if self.tracer else nullcontext()
        took = [0.0]
        with context:
            start = perf_counter()
            yield took
            took[0] = perf_counter() - start

    def step(self, tally: Tally) -> None:
        tally.attempted += 1
        try:
            self._step(tally, quality=self.steps < self.quality_ops)
        except Exception as exc:  # counted against error_rate, run goes on
            tally.fail(exc)
        self.steps += 1

    def _burst(self, tally: Tally, network, trace, quality: bool):
        """Replay ``trace`` on ``network`` on the sequential engine (timed
        for ``pkt_per_s``); return the recorder holding its records."""
        recorder = Recorder("sequential")
        with self.timed("burst") as took:
            stats = self.replay(trace, network, engine=recorder)
        tally.timed_s += took[0]
        tally.replayed(len(trace), took[0], stats, quality)
        tally.engine_runs.append((len(trace), {}))
        return recorder

    def quality(self, tally: Tally) -> dict:
        """Placement quality and code size, over the leading operations."""
        return {
            "placement_objective": _mean(tally.objectives),
            "netasm_instructions": _mean(tally.instructions),
        }

    def stamp(self) -> dict:
        return {"engine": self.engine, "workers": self.workers, "batch": self.batch}

    def close(self) -> None:
        pass


class CompileCold(Workload):
    """The 21 Table-3 apps (scoped) plus the 6-app composite, in seeded
    order, each with a fresh controller: SnapController -> submit ->
    network().  A seeded burst through each new network is checked."""

    name = "compile-cold"
    op_kind = "compile"
    quality_ops = period = len(ALL_APPS) + 1  # every program once

    def prepare(self) -> None:
        programs = [scoped_app(name) for name in ALL_APPS] + [composite()]
        self.rng.shuffle(programs)
        self.programs = programs
        self.topology = campus_topology()
        self.bursts = [background(BURST, self.rng) for _ in programs]
        self.expected = [
            self.oracle.expect(trace, p.full_policy(), Store(p.state_defaults))
            for trace, p in zip(self.bursts, programs)
        ]
        self.objective = {}
        self.instruction_count = {}

    def setup(self) -> None:
        # The composite, whichever position the seed gave it: the same
        # set-up work on every seed.
        index = next(i for i, p in enumerate(self.programs) if p.name.startswith("fig11"))
        controller = SnapController(self.topology, self.programs[index])
        controller.submit()
        replay(self.bursts[index], controller.network())

    def _step(self, tally: Tally, quality: bool) -> None:
        index = self.steps % len(self.programs)
        with self.timed("compile") as took:
            controller = SnapController(self.topology, self.programs[index])
            snapshot = controller.submit()
            network = controller.network()
        tally.op(took[0])
        tally.add_calls(controller.backend.calls)
        tally.snapshots.append(snapshot)
        tally.rules.append(network.rules.total_rules())
        self.objective[index] = snapshot.objective
        self.instruction_count[index] = sum(network.instruction_counts().values())
        recorder = self._burst(tally, network, self.bursts[index], quality)
        store, expected = self.expected[index]
        tally.check(
            mismatches(recorder.records, expected, network.global_store(), store),
            len(expected),
        )

    def quality(self, tally: Tally) -> dict:
        # Sum over the distinct programs compiled.
        return {
            "placement_objective": sum(self.objective.values()),
            "netasm_instructions": sum(self.instruction_count.values()),
        }


class ControllerChurn(Workload):
    """One live session on the 6-app composite cycling set_demands ->
    single-app policy edit -> fail_link -> restore_link, each event
    followed by an oracle-checked burst on the hot-swapped network, the
    OBS store threaded across events."""

    name = "controller-churn"
    op_kind = "event"
    #: Twelve cycles: one whole block of (link, factor) pairs.
    quality_ops = 4 * len(CHURN_LINKS)
    period = trace_unit = 4

    def prepare(self) -> None:
        self.base = composite()
        self.topology = campus_topology()
        block = [
            (link, DEMAND_FACTORS[i % len(DEMAND_FACTORS)], i % 6)
            for i, link in enumerate(CHURN_LINKS)
        ]
        self.rng.shuffle(block)
        self.cycles = block
        self.bursts = [background(BURST, self.rng) for _ in range(64)]
        self.warm_store, _ = self.oracle.expect(
            self.bursts[0], self.base.full_policy(), Store(self.base.state_defaults)
        )
        self.controller = None

    def setup(self) -> None:
        controller = SnapController(self.topology, self.base)
        controller.submit()
        replay(self.bursts[0], controller.network())
        self.controller = controller
        self.initial_demands = dict(controller.demands)
        self.obs_store = self.warm_store

    def _event(self):
        controller, cycle, kind = self.controller, self.steps // 4, self.steps % 4
        link, factor, arm = self.cycles[cycle % len(self.cycles)]
        if kind == 0:
            return controller.set_demands(
                {pair: d * factor for pair, d in self.initial_demands.items()}
            )
        if kind == 1:
            edited = single_app_edit(self.base, arm, cycle)
            return controller.update_policy(edited)
        if kind == 2:
            return controller.fail_link(*link)
        return controller.restore_link(*link)

    def _step(self, tally: Tally, quality: bool) -> None:
        before = dict(self.controller.backend.calls)
        with self.timed("event") as took:
            snapshot = self._event()
        tally.op(took[0])
        tally.add_calls(self.controller.backend.calls, before)
        network = self.controller.network()
        tally.snapshots.append(snapshot)
        tally.rules.append(network.rules.total_rules())
        if quality:
            tally.objectives.append(snapshot.objective)
            tally.instructions.append(sum(network.instruction_counts().values()))
        trace = self.bursts[self.steps % len(self.bursts)]
        recorder = self._burst(tally, network, trace, quality)
        store, expected = self.oracle.expect(
            trace, self.controller.program.full_policy(), self.obs_store
        )
        self.obs_store = store
        tally.check(
            mismatches(recorder.records, expected, network.global_store(), store),
            len(expected),
        )

    def close(self) -> None:
        if self.controller is not None:
            self.controller.close()
        self.controller = None


class Replay(Workload):
    """``replay()`` calls of a fixed batch size on the session's live
    network.  Before each call its state tables are reset (untimed) to
    what they held when the network was built, so each call's output can
    be checked against an expectation computed once per batch."""

    op_kind = "replay"
    period = trace_unit = REPLAY_BATCHES

    def make_engine(self):
        return "sequential"

    def prepare(self) -> None:
        self.program = self.make_program()
        self.topology = campus_topology()
        self.batches = [self.make_trace() for _ in range(REPLAY_BATCHES)]
        self.expected = [
            self.oracle.expect(
                trace, self.program.full_policy(), Store(self.program.state_defaults)
            )
            for trace in self.batches
        ]
        self.engine_instance = None

    def setup(self) -> None:
        engine = self.make_engine()
        controller = SnapController(self.topology, self.program, engine=engine)
        self.snapshot = controller.submit()
        network = controller.network()
        self.initial_state = network.extract_shard_state(self.program.state_defaults)
        replay(self.batches[0], network)
        self.network = network
        self.engine_instance = engine
        self.recorder = Recorder(engine)

    def _step(self, tally: Tally, quality: bool) -> None:
        index = self.steps % len(self.batches)
        trace = self.batches[index]
        network = self.network
        network.install_shard_state(self.initial_state)
        network.deliveries.clear()
        recorder = self.recorder
        with self.timed("replay") as took:
            stats = self.replay(trace, network, engine=recorder)
        tally.op(took[0])
        tally.replayed(len(trace), took[0], stats, quality)
        tally.engine_runs.append(
            (len(trace), dict(getattr(recorder.engine, "last_run_stats", None) or {}))
        )
        tally.rules.append(network.rules.total_rules())
        if quality:
            tally.objectives.append(self.snapshot.objective)
            tally.instructions.append(sum(network.instruction_counts().values()))
        store, expected = self.expected[index]
        tally.check(
            mismatches(recorder.records, expected, network.global_store(), store),
            len(expected),
        )

    def close(self) -> None:
        engine = self.engine_instance
        if engine is not None and hasattr(engine, "close"):
            engine.close()
        self.engine_instance = None


class ReplayStateful(Replay):
    """dns-tunnel-detect + assign-egress: all state global, one lane."""

    name = "replay-stateful"
    batch = STATEFUL_BATCH

    def make_program(self) -> Program:
        return dns_program()

    def make_trace(self) -> Trace:
        return dns_trace(STATEFUL_BATCH, self.rng)


class ReplaySharded(Replay):
    """monitor-sharded on the process engine: 6 lanes, writes, no tests."""

    name = "replay-sharded"
    engine = "process"
    workers = WORKERS
    batch = SHARDED_BATCH

    def make_engine(self):
        return ProcessPoolEngine(max_workers=WORKERS)

    def make_program(self) -> Program:
        return monitor_program()

    def make_trace(self) -> Trace:
        return background(SHARDED_BATCH, self.rng)


WORKLOADS = {
    cls.name: cls
    for cls in (CompileCold, ControllerChurn, ReplayStateful, ReplaySharded)
}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0
