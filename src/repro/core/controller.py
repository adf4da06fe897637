"""The long-lived compilation session (Figure 5 run as a service).

SNAP's Table 4 scenarios — cold start, policy change, topology/TM change
— are events arriving at a controller that outlives any one compilation.
:class:`SnapController` models exactly that: one session owns the base
topology, the current program, the traffic matrix, the standing TE model
(§6.2.2), and the live data plane; every event method returns a new
immutable :class:`~repro.core.result.Snapshot` and never mutates a
previously returned one.

Event → phase-set mapping (Table 4):

=================  =====================  ==========================
event method       Table 4 scenario       phases run
=================  =====================  ==========================
``submit``         cold start             P1 P2 P3 P4 P5(ST) P6
``update_policy``  policy change          P1 P2 P3 P4 P5(ST) P6 [#]_
``update_topology``  topology/TM change   P5(TE, fresh model) P6
``fail_link``      topology/TM change     P5(TE, patched model) P6
``restore_link``   topology/TM change     P5(TE, patched model) P6
``set_demands``    topology/TM change     P5(TE, patched model) P6
=================  =====================  ==========================

.. [#] The paper updates the standing MILP incrementally; we rebuild it
   and report the rebuild separately as P4 so scenario totals can follow
   Table 4's phase sets (``Snapshot.scenario_time``).

Link events patch the *standing* TE model — built once per placement and
re-solved with failed links pinned to zero / demand coefficients
rewritten — instead of rebuilding it (§6.2.2).  Policy events invalidate
it, since a new placement makes the old routing LP meaningless.

:meth:`network` returns the session's live data plane.  When a later
event produces a new snapshot, the live network is *hot-swapped*: a new
data plane is compiled and the old one's state-store contents (every
``count``/``seen``/``blacklist`` entry) are carried over, so a policy
update does not forget what the network has learned — the OpenState /
Open Packet Processor notion of reconfiguring a stateful data plane
without losing its state.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import replace
from types import MappingProxyType
from typing import NamedTuple

from repro.analysis.dependency import analyze_dependencies, st_dep
from repro.analysis.effects import analyze_effects
from repro.analysis.packet_state import packet_state_mapping
from repro.core.artifacts import SubPolicyArtifact, split_units
from repro.core.options import CompilerOptions
from repro.core.program import Program
from repro.core.result import EVENT_SCENARIOS, Snapshot
from repro.dataplane.engine import make_session_engine
from repro.dataplane.network import Network
from repro.dataplane.rules import build_rule_tables
from repro.lang.ast import state_variables
from repro.lang.errors import SnapError
from repro.lang.fingerprint import fingerprint_hex
from repro.milp.backends import get_backend
from repro.milp.results import extract_paths, validate_solution
from repro.topology.graph import Topology
from repro.topology.traffic import gravity_traffic_matrix
from repro.obs import configure as _configure_telemetry
from repro.obs.metrics import counter, gauge
from repro.obs.tracing import TRACER
from repro.util.timer import PhaseTimer
from repro.xfdd.build import to_xfdd
from repro.xfdd.compose import Composer
from repro.xfdd.diagram import DiagramFactory
from repro.xfdd.incremental import CompileSession
from repro.xfdd.order import TestOrder

#: Bound on the content-keyed ST-solve memo: each entry pins a solution
#: and routing (small), and real event streams alternate among a handful
#: of placements (A/B policy flips, threshold sweeps).
SOLVE_MEMO_CAP = 32

_CONTROLLER_EVENTS = counter(
    "snap_controller_events_total",
    "Controller events processed, by event kind",
)
_GENERATION = gauge(
    "snap_controller_generation", "Generation of the latest snapshot"
)


def _norm_link(a, b=None):
    """Canonical undirected link key."""
    if b is None:
        a, b = a
    return tuple(sorted((a, b)))


class AnalysisResult(NamedTuple):
    """What P1-P3 produce for one compilation."""

    dependencies: object
    xfdd: object
    mapping: object
    stats: dict
    factory: object
    artifacts: dict
    reused: int
    recompiled: int


class SnapController:
    """One compilation session: events in, immutable snapshots out."""

    def __init__(
        self,
        topology: Topology,
        program: Program | None = None,
        demands: dict | None = None,
        options: CompilerOptions | None = None,
        **overrides,
    ):
        if options is None:
            options = CompilerOptions(**overrides)
        elif overrides:
            options = replace(options, **overrides)
        self._options = options
        if options.telemetry is not None:
            # Session-scoped telemetry override: applied process-wide
            # (the registry and tracer are shared), same as calling
            # repro.obs.configure() before constructing the session.
            _configure_telemetry(options.telemetry)
        self._backend = get_backend(options.solver)
        self._topology = topology
        self._program = program
        ports = sorted(topology.ports)
        self._demands = (
            dict(demands)
            if demands is not None
            else gravity_traffic_matrix(ports, total_demand=1000.0, seed=0)
        )
        #: Currently failed links (canonical undirected keys).
        self._failed: frozenset = frozenset()
        self._generation = -1
        self._current: Snapshot | None = None
        # Bounded: old snapshots (and the xFDD factories they pin) are
        # evicted once the limit is reached; `current` is always kept.
        self._history: deque = deque(maxlen=options.history_limit)
        self._network: Network | None = None
        # Resolved engine for the live data plane.  Engines that own OS
        # resources (the process pool) must be one instance per session,
        # not one per replay call — created lazily in network().
        self._engine_runner = None
        # Standing TE model (§6.2.2) and the failure set applied to it.
        self._te_model = None
        self._model_failed: set = set()
        # Incremental delta compilation (ROADMAP): one persistent
        # CompileSession carries the hash-consing factory, apply-cache,
        # sub-xFDD/effects memos, dependency slicer, and path-summary
        # memo across generations; the solve memo reuses whole ST
        # solutions when nothing the MILP sees changed.
        self._session = CompileSession() if options.incremental else None
        self._solve_memo: OrderedDict = OrderedDict()
        self._last_solve_key = None

    # -- introspection -----------------------------------------------------

    @property
    def options(self) -> CompilerOptions:
        return self._options

    @property
    def backend(self):
        """The solver backend (its ``calls`` counters included)."""
        return self._backend

    @property
    def topology(self) -> Topology:
        """The base topology (failed links *not* removed)."""
        return self._topology

    @property
    def program(self) -> Program | None:
        return self._program

    @property
    def demands(self):
        """Read-only view of the current traffic matrix."""
        return MappingProxyType(self._demands)

    @property
    def failed_links(self) -> frozenset:
        return self._failed

    @property
    def current(self) -> Snapshot | None:
        """The latest snapshot, or None before the first ``submit``."""
        return self._current

    @property
    def generation(self) -> int:
        """Generation of the latest snapshot (-1 before ``submit``)."""
        return self._generation

    def history(self) -> tuple:
        """Recent snapshots, oldest first (the newest
        ``options.history_limit`` of them; ``None`` retains all)."""
        return tuple(self._history)

    def effective_topology(self) -> Topology:
        """The base topology with currently failed links removed."""
        topology = self._topology
        for a, b in sorted(self._failed):
            topology = topology.without_link(a, b)
        return topology

    # -- ST events (placement re-decided) ----------------------------------

    def submit(self, program: Program | None = None) -> Snapshot:
        """Cold start: compile ``program`` from scratch (all phases, ST).

        Resets session event state (failed links, standing TE model) and
        every incremental cache — a resubmit is a genuine cold start.
        """
        with self._event_transaction():
            if program is not None:
                self._program = program
            if self._program is None:
                raise SnapError("no program: pass one to submit() or __init__")
            self._failed = frozenset()
            if self._session is not None:
                self._session.reset()
            self._solve_memo.clear()
            self._last_solve_key = None
            return self._compile_st("cold_start")

    def update_policy(
        self, program: Program | None = None, *, incremental: bool | None = None
    ) -> Snapshot:
        """Policy change: recompile (placement re-decided, ST).

        Failed links stay failed — the new placement is solved against
        the current effective topology.  ``incremental`` overrides
        ``options.incremental`` for this one event: ``False`` forces the
        from-scratch path (the escape hatch, and what the equivalence
        tests compare against); the session's caches are left alone
        either way.
        """
        self._require_current("update_policy")
        use_incremental = (
            self._options.incremental if incremental is None else incremental
        )
        with self._event_transaction():
            if program is not None:
                self._program = program
            return self._compile_st("policy_change", incremental=use_incremental)

    # -- TE events (placement fixed, routing re-optimized) -----------------

    def update_topology(
        self, topology: Topology, demands: dict | None = None
    ) -> Snapshot:
        """Replace the base topology; re-route with a fresh TE model.

        The failure set and standing model are discarded — they describe
        the old graph.
        """
        self._require_current("update_topology")
        with self._event_transaction():
            self._topology = topology
            self._failed = frozenset()
            self._invalidate_te()
            if demands is not None:
                self._demands = dict(demands)
            return self._reoptimize("topology_change")

    def fail_link(self, a, b) -> Snapshot:
        """A link went down: patch the standing model, re-route."""
        self._require_current("fail_link")
        with self._event_transaction():
            self._failed = self._failed | {_norm_link(a, b)}
            return self._reoptimize("link_failure")

    def restore_link(self, a, b) -> Snapshot:
        """A failed link came back: patch the standing model, re-route."""
        self._require_current("restore_link")
        with self._event_transaction():
            self._failed = self._failed - {_norm_link(a, b)}
            return self._reoptimize("link_restore")

    def set_demands(self, demands: dict) -> Snapshot:
        """Traffic-matrix change: rewrite demand coefficients, re-route.

        The current failure set stays in force.
        """
        self._require_current("set_demands")
        with self._event_transaction():
            self._demands = dict(demands)
            return self._reoptimize("demand_change", demands_changed=True)

    def reroute(
        self,
        failed_links=None,
        demands: dict | None = None,
        event: str = "topology_change",
    ) -> Snapshot:
        """General TE event: replace the whole failure set and/or the
        traffic matrix in one re-optimization.

        ``failed_links=None`` keeps the current set; ``[]`` restores
        everything.  This is the bulk form of ``fail_link`` /
        ``restore_link`` / ``set_demands``.  ``event`` labels the
        snapshot's provenance and must map to the topology/TM-change
        scenario.
        """
        self._require_current("reroute")
        if EVENT_SCENARIOS.get(event) != "topology_change":
            known = sorted(
                e for e, s in EVENT_SCENARIOS.items() if s == "topology_change"
            )
            raise SnapError(
                f"reroute event must be one of {known}, got {event!r}"
            )
        with self._event_transaction():
            demands_changed = False
            if demands is not None:
                self._demands = dict(demands)
                demands_changed = True
            if failed_links is not None:
                self._failed = frozenset(
                    _norm_link(link) for link in failed_links
                )
            return self._reoptimize(event, demands_changed=demands_changed)

    # -- session input mutators (no compilation) ---------------------------

    def replace_topology(self, topology: Topology) -> None:
        """Replace the base topology without re-routing yet.

        The failure set is reset (it names links of the old graph) and
        the standing TE model and solve-retention key are dropped.
        ``update_topology`` is the compiling form of this.
        """
        self._topology = topology
        self._failed = frozenset()
        self._invalidate_te()
        self._last_solve_key = None

    # -- the live data plane -----------------------------------------------

    def network(self) -> Network:
        """The session's live data plane for the current snapshot.

        Built on first call; after each subsequent event the controller
        hot-swaps it — the new snapshot's data plane is instantiated and
        the old one's state-store contents are carried over, so state
        like ``count``/``seen`` survives live reconfiguration.
        """
        self._require_current("network")
        if self._network is None:
            self._network = self._current.build_network()
            self._network.default_engine = self._session_engine()
            self._network.replicate_state = self._options.replicate_state
        return self._network

    def close(self) -> None:
        """Release session resources — the process-engine worker pool or
        the cluster engine's worker daemons (no orphan children survive).

        Safe to call repeatedly; a closed session can keep issuing events
        — the engine recreates its pool on the next replay.
        """
        runner = self._engine_runner
        if runner is not None and hasattr(runner, "close"):
            runner.close()

    def _session_engine(self):
        """``options.engine``, resolved once per session when stateful.

        Stateful engine names (``"process"``, ``"cluster"``, anything
        registered stateful) resolve to one session-owned instance —
        a *private* one, not :func:`get_engine`'s shared one, because the
        hot-swap restart on policy rebuilds must not tear down a pool
        other sessions or ad-hoc replays are using — so worker pools,
        daemons, and their rehydration caches survive across replays and
        TE hot swaps.  Stateless engine names pass through by name.
        """
        engine = self._options.engine
        if self._engine_runner is None:
            self._engine_runner = make_session_engine(engine)
        if self._engine_runner is not None:
            return self._engine_runner
        return engine

    # -- internals ---------------------------------------------------------

    def _require_current(self, what: str) -> None:
        if self._current is None:
            raise RuntimeError(f"run submit() before {what}()")

    @contextmanager
    def _event_transaction(self):
        """Roll session inputs back if an event fails mid-flight.

        Event methods set ``_program``/``_topology``/``_demands``/
        ``_failed`` before compiling; if the solve then raises (bad
        program, infeasible model), those inputs are restored so the
        session still describes ``current`` — the caller can catch the
        error and keep issuing events.  The standing TE model is
        invalidated on failure rather than unpatched: the next TE event
        rebuilds it from the (restored) session state.
        """
        saved = (self._program, self._topology, self._demands, self._failed)
        try:
            yield
        except Exception:
            self._program, self._topology, self._demands, self._failed = saved
            self._invalidate_te()
            raise

    def _invalidate_te(self) -> None:
        self._te_model = None
        self._model_failed = set()

    def _analysis(
        self,
        program: Program,
        topology: Topology,
        timer: PhaseTimer,
        session: CompileSession | None = None,
    ) -> AnalysisResult:
        """Phases P1-P3 against an explicit topology (never ``self``'s).

        With a ``session``, P1-P3 run their delta paths: the dependency
        slicer, the fingerprint-memoized sub-xFDD build, and the node-id
        path-summary memo all reuse prior-generation work, and the
        reported xfdd counters are *per-compile deltas* of the session's
        cumulative counters (so they describe this compilation, same as
        the cold path's fresh counters do).  Without one, behaviour is
        the original from-scratch compile.
        """
        full = program.full_policy()
        with timer.phase("P1"):
            slicer = session.dep_slicer if session is not None else None
            dependencies = analyze_dependencies(full, slicer=slicer)
        with timer.phase("P2"):
            if session is not None:
                composer = session.begin_compile(
                    program.registry, dependencies.state_rank
                )
                factory = session.factory
                pre = composer.cache_stats()
                memo_pre = session.stats()
                xfdd = session.build(full)
            else:
                order = TestOrder(program.registry, dependencies.state_rank)
                # One hash-consing session and apply-cache per
                # compilation: the intern table cannot leak across runs,
                # and cache hit counters describe exactly this program.
                factory = DiagramFactory()
                composer = Composer(order, factory=factory)
                xfdd = to_xfdd(full, composer)
        with timer.phase("P3"):
            ports = sorted(topology.ports)
            memo = session.mapping_memo if session is not None else None
            mapping = packet_state_mapping(xfdd, ports, ports, memo=memo)
        stats = dict(composer.cache_stats())
        if session is not None:
            counters = (
                "cache_hits", "cache_misses",
                "leaf_hits", "leaf_misses",
                "branch_hits", "branch_misses",
            )
            for name in counters:
                if name in pre:
                    stats[name] = stats[name] - pre[name]
            lookups = stats["cache_hits"] + stats["cache_misses"]
            stats["cache_hit_rate"] = (
                stats["cache_hits"] / lookups if lookups else 0.0
            )
            memo_post = session.stats()
            stats["session_memo_hits"] = (
                memo_post["session_memo_hits"] - memo_pre["session_memo_hits"]
            )
            stats["session_memo_misses"] = (
                memo_post["session_memo_misses"]
                - memo_pre["session_memo_misses"]
            )
            stats["session_memo_entries"] = memo_post["session_memo_entries"]
            stats["session_compile_no"] = memo_post["session_compile_no"]
        # Per-unit provenance artifacts (after the counter capture, so
        # the re-translation below cannot pollute per-compile numbers —
        # it is apply-cache/memo hits over already-interned nodes).
        artifacts: dict = {}
        reused = recompiled = 0
        for label, unit in split_units(full):
            if session is not None:
                was_reused = session.was_reused(unit)
                sub = session.subdiagram(unit)
                effects = session.effect_report(unit)
                unit_slice = session.dep_slicer.slice(unit)
                edges = unit_slice.edges
                unit_vars = unit_slice.reads | unit_slice.writes
            else:
                was_reused = False
                sub = to_xfdd(unit, composer)
                effects = analyze_effects(unit)
                edges = st_dep(unit)
                unit_vars = frozenset(state_variables(unit))
            reused += 1 if was_reused else 0
            recompiled += 0 if was_reused else 1
            artifacts[label] = SubPolicyArtifact(
                fingerprint=fingerprint_hex(unit),
                label=label,
                policy=unit,
                xfdd=sub,
                dep_edges=edges,
                state_vars=frozenset(unit_vars),
                effects=effects,
                reused=was_reused,
            )
        xfdd_stats = {f"xfdd_{name}": value for name, value in stats.items()}
        return AnalysisResult(
            dependencies, xfdd, mapping, xfdd_stats, factory,
            artifacts, reused, recompiled,
        )

    def _solve_key(self, topology: Topology, mapping, dependencies) -> tuple:
        """Content key over everything the ST solve reads.

        Two compilations with equal keys get byte-identical solutions
        (the MILP backend is deterministic given identical inputs), so
        the solve memo and standing-model retention are sound exactly
        when this key captures every solve input: the effective graph,
        the traffic matrix, S_uv, the dependency constraints, and the
        solver options.
        """
        return (
            topology.name,
            tuple(topology.switches()),
            tuple(sorted(topology.ports.items())),
            tuple(sorted(topology.links())),
            tuple(sorted(self._demands.items())),
            tuple(
                sorted(
                    (pair, tuple(sorted(vars_)))
                    for pair, vars_ in mapping.items()
                )
            ),
            tuple(sorted(map(tuple, map(sorted, dependencies.tied)))),
            tuple(sorted(dependencies.dep)),
            tuple(sorted(dependencies.state_rank.items())),
            self._options.stateful_switches,
            self._options.solver_time_limit,
            self._options.mip_rel_gap,
        )

    def _compile_st(self, event: str, incremental: bool = True) -> Snapshot:
        """Full recompilation: P1-P3, ST solve (or memo hit), finish."""
        with TRACER.span(f"controller.{event}", event=event) as span:
            snapshot = self._compile_st_traced(event, incremental)
            stats = snapshot.model_stats
            span.set_attr("generation", snapshot.generation)
            span.set_attr("incremental", stats.get("incremental"))
            span.set_attr(
                "incremental_reused", stats.get("incremental_reused")
            )
            span.set_attr(
                "incremental_recompiled", stats.get("incremental_recompiled")
            )
            span.set_attr("solve_reused", stats.get("solve_reused"))
            return snapshot

    def _compile_st_traced(self, event: str, incremental: bool) -> Snapshot:
        timer = PhaseTimer()
        topology = self.effective_topology()
        use_incremental = incremental and self._session is not None
        session = self._session if use_incremental else None
        analysis = self._analysis(self._program, topology, timer, session=session)
        solve_key = None
        cached = None
        if use_incremental:
            solve_key = self._solve_key(
                topology, analysis.mapping, analysis.dependencies
            )
            cached = self._solve_memo.get(solve_key)
        if cached is not None:
            # Nothing the MILP sees changed: reuse the recorded solution
            # (deterministic solver — recompute would be byte-identical).
            # P4/P5 are entered so the snapshot's phase set still follows
            # Table 4; they record ~0, which is the honest cost.
            solution, routing, solve_stats = cached
            with timer.phase("P4"):
                pass
            with timer.phase("P5"):
                pass
            self._solve_memo.move_to_end(solve_key)
        else:
            solution, routing, solve_stats = self._backend.solve_st(
                topology,
                self._demands,
                analysis.mapping,
                analysis.dependencies,
                self._options.stateful_switches,
                timer,
                time_limit=self._options.solver_time_limit,
                mip_rel_gap=self._options.mip_rel_gap,
            )
        # The standing TE model is fixed to a placement; it survives this
        # recompilation only when the solve inputs (hence the placement)
        # are provably unchanged.
        if solve_key is None or solve_key != self._last_solve_key:
            self._invalidate_te()
        self._last_solve_key = solve_key
        stats = {
            **solve_stats,
            **analysis.stats,
            "incremental": use_incremental,
            "incremental_reused": analysis.reused,
            "incremental_recompiled": analysis.recompiled,
            "solve_reused": cached is not None,
        }
        snapshot = self._finish(
            topology, self._program, analysis.dependencies, analysis.xfdd,
            analysis.mapping, solution, routing, timer, event, stats,
            analysis.factory, artifacts=analysis.artifacts,
        )
        if use_incremental and cached is None:
            self._solve_memo[solve_key] = (solution, routing, dict(solve_stats))
            while len(self._solve_memo) > SOLVE_MEMO_CAP:
                self._solve_memo.popitem(last=False)
        return snapshot

    def _reoptimize(self, event: str, demands_changed: bool = False) -> Snapshot:
        """TE re-solve against the standing model (built on first need)."""
        with TRACER.span(f"controller.{event}", event=event) as span:
            snapshot = self._reoptimize_traced(event, demands_changed)
            span.set_attr("generation", snapshot.generation)
            return snapshot

    def _reoptimize_traced(self, event: str, demands_changed: bool) -> Snapshot:
        previous = self._current
        timer = PhaseTimer()
        with timer.phase("P5"):
            model = self._te_model
            if model is None:
                # Fresh standing model: built on the *base* topology with
                # current demands; failures are applied as patches below,
                # keeping model state and self._failed in one scheme.
                model = self._backend.build_te_model(
                    self._topology,
                    self._demands,
                    previous.mapping,
                    previous.dependencies,
                    dict(previous.placement),
                    self._options.stateful_switches,
                )
                self._te_model = model
                self._model_failed = set()
            elif demands_changed:
                model.set_demands(self._demands)
            wanted = set(self._failed)
            for a, b in sorted(self._model_failed - wanted):
                model.restore_link(a, b)
            for a, b in sorted(wanted - self._model_failed):
                model.fail_link(a, b)
            self._model_failed = wanted
            solution = self._backend.solve_te(
                model, time_limit=self._options.solver_time_limit
            )
        return self._finish(
            self.effective_topology(),
            previous.program,
            previous.dependencies,
            previous.xfdd,
            previous.mapping,
            solution,
            None,
            timer,
            event,
            {},
            previous.diagram_factory,
            artifacts=previous.artifacts,
        )

    def _finish(
        self, topology, program, dependencies, xfdd, mapping, solution,
        routing, timer, event, stats, diagram_factory, artifacts=None,
    ) -> Snapshot:
        """P6 + snapshot construction + live-network hot swap.

        ``topology`` is the effective topology this solve ran against,
        threaded explicitly — the session's base topology is never
        temporarily mutated to smuggle it in.
        """
        with timer.phase("P6"):
            if routing is None:
                routing = extract_paths(solution, topology, mapping, dependencies)
            if self._options.validate:
                validate_solution(routing, topology, mapping, dependencies)
            rules = build_rule_tables(routing)
        # Every snapshot carries the static effect report (update-kind
        # classification + race findings) — the merge-safety oracle for
        # replication/sharding consumers; the AST walk is microseconds,
        # so re-deriving it on reoptimize paths (which pass stats={}) is
        # cheaper than threading it through every caller.  The session
        # memoizes it by fingerprint across generations.
        if self._session is not None:
            effects = self._session.effect_report(program.policy)
        else:
            effects = analyze_effects(program.policy)
        stats = {**stats, "effects": effects}
        self._generation += 1
        _CONTROLLER_EVENTS.labels(event=event).inc()
        _GENERATION.set(self._generation)
        snapshot = Snapshot(
            generation=self._generation,
            event=event,
            scenario=EVENT_SCENARIOS[event],
            program=program,
            topology=topology,
            demands=self._demands,
            xfdd=xfdd,
            dependencies=dependencies,
            mapping=mapping,
            placement=solution.placement,
            routing=routing,
            objective=solution.objective,
            timer=timer,
            rules=rules,
            model_stats=stats,
            artifacts=artifacts if artifacts is not None else {},
            diagram_factory=diagram_factory,
        )
        self._current = snapshot
        self._history.append(snapshot)
        if self._network is not None:
            self._network = self._swap_network(self._network, snapshot)
        return snapshot

    def _swap_network(self, live: Network, snapshot: Snapshot) -> Network:
        """The next live data plane after ``snapshot``.

        * cold start — genuinely cold: fresh stores, nothing carried;
        * TE events (same xFDD, same placement) — ``rewire``: the
          compiled switch programs and their state stores are shared,
          only routing-derived structure is rebuilt.  A process-engine
          worker pool *survives* this path: the program token is
          unchanged, so worker-side rehydration caches stay warm;
        * policy changes — full rebuild, then state-store contents
          adopted into the new placement.  The old compiled programs are
          gone, so a process-engine pool is restarted (fresh workers,
          fresh caches).
        """
        if (
            snapshot.event != "cold_start"
            and snapshot.xfdd is live.index.root
            and dict(snapshot.placement) == live.placement
            # The compiled switch set is only reusable if the new graph
            # has the same switches and the same port attachments (link
            # failures qualify; a replacement topology may not).
            and set(snapshot.topology.switches()) == set(live.topology.switches())
            and snapshot.topology.ports == live.topology.ports
        ):
            return live.rewire(
                snapshot.topology, snapshot.routing, dict(snapshot.demands),
                rules=snapshot.rules,
            )
        fresh = snapshot.build_network()
        fresh.default_engine = live.default_engine
        fresh.replicate_state = getattr(live, "replicate_state", True)
        if snapshot.event != "cold_start":
            fresh.adopt_state(live)
        if (
            fresh.default_engine is self._engine_runner
            and self._engine_runner is not None
        ):
            # Restart only the pool this session owns: a shared or
            # user-supplied engine instance may be serving other
            # sessions, whose runs must not be cancelled under them
            # (their worker caches key on exec tokens, so correctness
            # never depends on the restart — it is memory hygiene).
            self._engine_runner.restart()
        return fresh

    def __repr__(self):
        name = self._program.name if self._program is not None else None
        return (
            f"SnapController({name!r} on {self._topology.name!r}, "
            f"generation={self._generation}, solver={self._backend.name!r})"
        )
