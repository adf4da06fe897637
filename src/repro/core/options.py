"""Immutable compiler configuration.

One frozen :class:`CompilerOptions` value configures a whole
:class:`~repro.core.controller.SnapController` session.  Freezing it is
deliberate: a long-lived controller answers a stream of events, and the
answer to "what settings produced snapshot N?" must not change when the
caller later tweaks a knob.  To recompile with different settings, start
a new session (or pass a ``dataclasses.replace``-d options value).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CompilerOptions:
    """Settings shared by every compilation a session performs.

    ``solver`` names a registered :mod:`repro.milp.backends` backend
    (``"milp"`` — the §4.4 ST MILP — or ``"greedy"``, the §6.2.2
    heuristic), or is itself a backend instance for callers plugging in
    their own solver.

    ``engine`` selects how the session's live data plane executes
    workloads: ``"sequential"`` (run-to-completion in arrival order),
    ``"sharded"`` (per-ingress state shards on parallel thread lanes),
    ``"process"`` (the same shards on a pool of worker processes — one
    session-owned pool that survives TE hot swaps, see
    :mod:`repro.dataplane.engine`), ``"cluster"`` (the same shards on
    socket-connected worker daemons, local subprocesses or remote
    hosts, see :mod:`repro.cluster`), ``"vector"`` (the columnar NumPy
    batch tier inside each lane, see :mod:`repro.dataplane.vector`),
    any other name added through
    :func:`repro.dataplane.engine.register_engine`, or an engine
    instance.
    """

    solver: object = "milp"
    solver_time_limit: float | None = None
    mip_rel_gap: float | None = None
    validate: bool = True
    stateful_switches: tuple | None = None
    #: Data-plane execution engine for ``SnapController.network()``: a
    #: registered name (``"sequential"`` | ``"sharded"`` | ``"process"``
    #: | ``"cluster"`` | ``"vector"`` | ...) or an
    #: engine instance.
    engine: object = "sequential"
    #: Whether parallel engines may lift collapse-causing mergeable
    #: state variables onto per-lane replicas with deterministic merge
    #: (:mod:`repro.dataplane.replication`).  On by default: replication
    #: only ever applies where the effect analyzer proves the merged
    #: stores byte-identical to sequential execution; set ``False`` to
    #: force every unshardable variable back onto its serialized owner
    #: lane.
    replicate_state: bool = True
    #: Whether the session keeps its compilation caches across
    #: generations: the hash-consing factory and apply-cache, the
    #: fingerprint-keyed sub-xFDD memo (subtree splicing), the
    #: dependency slicer, the path-summary memo, and the content-keyed
    #: ST-solve memo.  On by default — results are identical to a cold
    #: compile (the equivalence property in the test suite asserts it);
    #: set ``False`` to force every ``update_policy`` down the from-
    #: scratch path (``update_policy(..., incremental=False)`` does the
    #: same for a single event).
    incremental: bool = True
    #: How many snapshots ``SnapController.history()`` retains (oldest
    #: evicted first; ``current`` is always kept).  Each snapshot pins
    #: its xFDD and hash-consing factory, so an unbounded history would
    #: grow a long-lived session's memory linearly with event count.
    #: ``None`` retains everything.
    history_limit: int | None = 16
    #: Telemetry for this session: ``None`` (leave the process-wide
    #: configuration alone — i.e. the ``SNAP_TELEMETRY*`` environment
    #: defaults), a bool or ``"on"``/``"off"``, or a full
    #: :class:`repro.obs.TelemetryConfig`.  Anything non-``None`` is
    #: applied process-wide when the controller starts.
    telemetry: object = None

    def __post_init__(self):
        if self.telemetry is not None:
            from repro.obs import resolve_config

            # Validate eagerly (and normalize strings/bools) so a typo
            # fails at options construction, not mid-compile.
            object.__setattr__(
                self, "telemetry", resolve_config(self.telemetry)
            )
        if self.stateful_switches is not None and not isinstance(
            self.stateful_switches, tuple
        ):
            object.__setattr__(
                self, "stateful_switches", tuple(self.stateful_switches)
            )
        if isinstance(self.engine, str):
            from repro.dataplane.engine import engine_names

            if self.engine not in engine_names():
                raise ValueError(
                    f"engine must be one of {engine_names()} or an engine "
                    f"instance, got {self.engine!r}"
                )
