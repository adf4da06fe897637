"""State-compute replication: per-lane state replicas, deterministic merge.

SNAP's §7.3 shard planner (:mod:`repro.dataplane.engine`) collapses
every ingress port that can touch an unshardable state variable into one
serialized *owner lane* — a policy with a single global counter gets no
parallelism at all.  State-Compute Replication (arXiv:2309.14647) lifts
that collapse for variables whose updates *merge*: replicate the state
computation on every lane — each lane runs against a private replica
seeded from the parent store and records a compact per-variable update
log — then converge the replicas by a deterministic per-kind merge:

``delta``
    INCREMENT variables (``x[k]++`` / ``--``, PR 7's effect lattice).
    The log holds each changed key's *integer delta sum*; the parent adds
    the deltas.  Integer addition is associative and commutative, so the
    merged table is byte-identical to a sequential run regardless of how
    the packets were split across lanes.
``insert``
    IDEMPOTENT_INSERT variables (every write stores the same literal).
    The log holds the changed keys with the (single possible) written
    value; the parent re-applies them.  Duplicate inserts from several
    lanes are idempotent by construction.
``watermark``
    MONOTONE variables (guard-chained high-/low-water marks).  The log
    holds each changed key's final value; the parent keeps the extreme
    in the variable's proven direction.  Every log is stamped with the
    parent's *merge epoch* (one per engine run) and the parent refuses a
    log from a different epoch — a requeued or duplicated lane from an
    earlier run can never drag a watermark backwards.  Unlike the two
    commutative kinds, monotone variables are *tested* by the very guard
    that proves them monotone, so per-lane execution can take different
    branches than a sequential run would: the merged store converges
    deterministically to the same supremum, but per-packet records may
    differ.  Replicating them is therefore **opt-in**
    (``plan_replicas(..., monotone=True)`` with an AST-level
    :class:`~repro.analysis.effects.EffectReport`); the engines'
    default planner replicates only the byte-identical kinds.

**The safety predicate.**  A variable is replicated only when all hold:

1. it actually causes a collapse (reachable from ≥ 2 ingress ports —
   single-port variables stay in their shard untouched, zero overhead);
2. its diagram-level effect kind (:func:`repro.analysis.effects
   .xfdd_effects`) is replica-mergeable;
3. it is never *state-tested* by the compiled diagram
   (``root.tested_state_vars()``) — an untested variable's contents can
   never influence forwarding, so per-packet delivery records and link
   counters are unchanged by construction;
4. (delta only) its declared default is an ``int`` (or absent), so the
   delta sums stay exact.

Everything else keeps today's behaviour: the variable stays collapse-
causing, its ports serialize on the owner lane, and the SNAP-W104
diagnostic keeps recommending this module.  For replicated variables the
W104 is *downgraded* to the info-level SNAP-I402 ("already applied").

This module is also the single home of the per-shard state-slice
plumbing that previously lived triplicated across
``Network.extract_shard_state`` / the process engine's footprint slices
/ the cluster engine's per-batch slices: :func:`extract_state`,
:func:`install_state` and :func:`merge_state` are the one
implementation, and ``Network``'s methods delegate here.

Engine wiring lives in :mod:`repro.dataplane.engine` (thread + process
lanes), :mod:`repro.cluster.engine` / :mod:`repro.cluster.worker` (wire
protocol v2 carries the replica spec out and the update log back), and
:mod:`repro.dataplane.vector` (its commuting-overlap check draws its
commutable-variable set from the same eligibility predicate).  Gate it
per session with ``CompilerOptions(replicate_state=...)`` or per engine
with ``ShardedEngine(replicate_state=...)``; the environment variable
``SNAP_REPLICATE_STATE=0`` force-disables it for A/B benchmarking.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from repro.lang.errors import DataPlaneError

#: Merge kinds (the wire/log vocabulary — stable strings, not enums, so
#: cluster daemons on older minor versions fail loudly, not subtly).
DELTA = "delta"
INSERT = "insert"
WATERMARK = "watermark"


# -- replica classification ---------------------------------------------------


@dataclass(frozen=True)
class ReplicaVar:
    """One replicated variable: its merge kind and (watermark) direction."""

    var: str
    kind: str  # DELTA | INSERT | WATERMARK
    direction: int = 1  # watermark only: +1 increasing, -1 decreasing

    def to_wire(self) -> tuple:
        return (self.kind, self.direction)

    @classmethod
    def from_wire(cls, var: str, payload: tuple) -> "ReplicaVar":
        kind, direction = payload
        return cls(var, kind, direction)


def replicable_delta_vars(root, state_defaults: dict) -> frozenset:
    """Delta-mergeable variables of a compiled diagram.

    The byte-identity predicate for the ``delta`` kind: INCREMENT effect,
    never state-tested, integer (or absent) default.  This is also the set
    the vector tier keeps columnar when it overlaps scalar-fallback rows
    — one predicate, one answer, whichever engine asks.
    """
    from repro.analysis.effects import EffectKind, xfdd_effects

    if root is None:
        return frozenset()
    kinds = xfdd_effects(root)
    tested = set(root.tested_state_vars())
    out = set()
    for var, kind in kinds.items():
        if kind is not EffectKind.INCREMENT or var in tested:
            continue
        default = state_defaults.get(var)
        if default is None or (type(default) is int):
            out.add(var)
    return frozenset(out)


def _classify(root, state_defaults: dict, *, monotone: bool = False,
              report=None) -> dict:
    """``{var: ReplicaVar}`` for every variable the predicate admits."""
    from repro.analysis.effects import EffectKind, xfdd_effects

    if root is None:
        return {}
    kinds = xfdd_effects(root)
    tested = set(root.tested_state_vars())
    replicas: dict = {}
    for var in replicable_delta_vars(root, state_defaults):
        replicas[var] = ReplicaVar(var, DELTA)
    for var, kind in kinds.items():
        if kind is EffectKind.IDEMPOTENT_INSERT and var not in tested:
            replicas.setdefault(var, ReplicaVar(var, INSERT))
    if monotone and report is not None:
        for var, effect in getattr(report, "variables", {}).items():
            if var in replicas:
                continue
            if effect.kind is EffectKind.MONOTONE and effect.direction:
                # The diagram must agree the writes are literal stores
                # (the monotone guard makes xfdd_effects see const-ish
                # writes); GENERAL_RMW means the AST claim did not
                # survive compilation — do not trust it.
                if kinds.get(var) is not EffectKind.GENERAL_RMW:
                    replicas[var] = ReplicaVar(
                        var, WATERMARK, 1 if effect.direction > 0 else -1
                    )
    return replicas


# -- the replica plan ---------------------------------------------------------


class ReplicaPlan:
    """A shard plan with collapse-causing mergeable variables lifted out.

    ``base`` is the unmodified :class:`~repro.dataplane.engine.ShardPlan`
    (what §7.3 alone proves); ``plan`` is the *reduced* plan computed
    with the replicated variables erased from every ingress footprint —
    the lanes the engines actually run.  ``replicated`` maps each lifted
    variable to its :class:`ReplicaVar`; ``replica_reasons`` carries the
    SNAP-I402 downgrade of the base plan's SNAP-W104 for exactly those
    variables.  With replication disabled (or nothing eligible),
    ``plan is base`` and both maps are empty.
    """

    def __init__(self, base, plan, replicated: dict, replica_reasons: dict,
                 enabled: bool):
        self.base = base
        self.plan = plan
        self.replicated = dict(replicated)
        self.replica_reasons = dict(replica_reasons)
        self.enabled = enabled

    @property
    def recovered(self) -> int:
        """Lanes recovered: reduced parallelism minus the base's."""
        return self.plan.parallelism - self.base.parallelism

    def summary(self) -> dict:
        out = self.plan.summary()
        out["replicated_vars"] = sorted(self.replicated)
        out["replica_reasons"] = dict(self.replica_reasons)
        out["recovered_lanes"] = self.recovered
        return out

    def __repr__(self):
        return (
            f"ReplicaPlan({self.plan.parallelism} lanes, "
            f"replicated={sorted(self.replicated)}, "
            f"+{self.recovered} recovered)"
        )


def _downgrade_reason(reason: str, rvar: ReplicaVar) -> str:
    """SNAP-W104 collapse reason -> SNAP-I402 'already replicated' info."""
    body = reason.split(": ", 1)[1] if ": " in reason else reason
    head = body.split("; ", 1)[0]  # "...collapsing them into one lane"
    head = head.replace("collapsing them into one lane",
                        "replicated across those lanes")
    return (
        f"SNAP-I402: {head}; state-compute replication runs the ports in "
        f"parallel and merges per-lane {rvar.kind} logs deterministically"
    )


def plan_replicas(network, *, enabled: bool = True, monotone: bool = False,
                  report=None) -> ReplicaPlan:
    """Derive a :class:`ReplicaPlan` for ``network`` (uncached).

    Only variables that actually collapse ports (reachable from ≥ 2
    ingress ports in the base footprint) are lifted; single-port
    variables stay sharded with zero replication overhead.
    """
    from repro.dataplane.engine import (
        Shard,
        ShardPlan,
        collapse_reasons,
        group_ports_by_footprint,
        plan_for,
    )

    base = plan_for(network)
    root = network.index.root if network.index is not None else None
    if not enabled or root is None:
        return ReplicaPlan(base, base, {}, {}, enabled)

    candidates = _classify(root, network.state_defaults,
                           monotone=monotone, report=report)
    if not candidates:
        return ReplicaPlan(base, base, {}, {}, enabled)

    ports_of: dict = {}
    for port, variables in base.footprint.items():
        for var in variables:
            ports_of.setdefault(var, set()).add(port)
    replicated = {
        var: rvar for var, rvar in candidates.items()
        if len(ports_of.get(var, ())) >= 2
    }
    if not replicated:
        return ReplicaPlan(base, base, {}, {}, enabled)

    lifted = frozenset(replicated)
    footprint = {
        port: variables - lifted
        for port, variables in base.footprint.items()
    }
    ports = sorted(footprint)
    shards = [
        Shard(members, variables)
        for members, variables in group_ports_by_footprint(footprint, ports)
    ]
    reduced = ShardPlan(
        shards, footprint, collapse_reasons(footprint, shards, root)
    )
    replica_reasons = {
        var: _downgrade_reason(base.collapse_reasons.get(var, ""), rvar)
        for var, rvar in replicated.items()
    }
    return ReplicaPlan(base, reduced, replicated, replica_reasons, enabled)


# -- replica-plan caching (and the engine-level plan-reuse fix) ---------------
#
# ``plan_for`` caches on the network *object*, so every TE ``rewire`` —
# which builds a fresh Network sharing the same compiled programs —
# used to re-derive the whole plan from scratch.  Both plan caches below
# are additionally keyed on the network's ``_exec_program_key``: rewires
# share that token (same programs, same xFDD), so a rewired network's
# first run revalidates the cached plan against the root-identity/port
# fingerprint and reuses it.  (The network key changes per rewire, so
# the *program* key is the only token that survives; the fingerprint
# check keeps the reuse sound — a graft changes the root object and
# misses.)

_REPLICA_PLANS: dict = {}
_PLAN_CACHE_LIMIT = 16


def _resolve_enabled(network, override) -> bool:
    env = os.environ.get("SNAP_REPLICATE_STATE")
    if env is not None:
        return env not in ("0", "", "off", "false")
    if override is not None:
        return bool(override)
    return bool(getattr(network, "replicate_state", True))


def replica_plan_for(network, replicate_state=None) -> ReplicaPlan:
    """The network's (cached) replica plan.

    ``replicate_state=None`` defers to the network's ``replicate_state``
    attribute (set by the controller from ``CompilerOptions``); a
    boolean overrides it per engine.  Cached per network object *and*
    per program token, fingerprint-validated exactly like
    :func:`repro.dataplane.engine.plan_for`.
    """
    from repro.dataplane.engine import _plan_cache_key, _same_key

    enabled = _resolve_enabled(network, replicate_state)
    key = (_plan_cache_key(network), enabled)

    def _valid(entry):
        return (entry is not None and _same_key(entry[0][0], key[0])
                and entry[0][1] == enabled)

    cached = getattr(network, "_replica_plan", None)
    if _valid(cached):
        return cached[1]
    token = getattr(network, "_exec_program_key", None)
    entry = _REPLICA_PLANS.get((token, enabled))
    if _valid(entry):
        network._replica_plan = entry
        return entry[1]
    rplan = plan_replicas(network, enabled=enabled)
    entry = (key, rplan)
    network._replica_plan = entry
    if token is not None:
        _REPLICA_PLANS[(token, enabled)] = entry
        while len(_REPLICA_PLANS) > 2 * _PLAN_CACHE_LIMIT:
            _REPLICA_PLANS.pop(next(iter(_REPLICA_PLANS)))
    return rplan


# -- the shared state-slice layer ---------------------------------------------
#
# One implementation of the per-shard state transfer that the thread,
# process and cluster engines (and ``Network``'s compatibility methods)
# all flow through.  Format: ``{var: (default, {key: value})}`` — pure
# data, picklable.


def extract_state(network, variables) -> dict:
    """Snapshot the named variables from their owner switches."""
    state: dict = {}
    for var in sorted(variables):
        owner = network.placement.get(var)
        if owner is None:
            continue  # unplaced variables cannot hold data-plane state
        variable = network.switches[owner].store.variable(var)
        state[var] = (variable.default, variable.snapshot())
    return state


def install_state(network, state: dict) -> None:
    """Replace the named variables' contents with ``state``.

    Replaces (not merges): a cached worker or replica network may hold a
    previous batch's values.
    """
    for var, (default, table) in state.items():
        owner = network.placement.get(var)
        if owner is None:
            continue
        variable = network.switches[owner].store.variable(var)
        variable.default = default
        variable._table = dict(table)


def merge_state(network, state: dict) -> None:
    """Entry-wise merge of a disjoint shard slice back into ``network``.

    Sound only for *shard-disjoint* variables (no other lane wrote
    them); replicated variables travel through :func:`replica_log` /
    :func:`apply_replica_log` instead.
    """
    for var, (default, table) in state.items():
        owner = network.placement.get(var)
        if owner is None:
            continue
        variable = network.switches[owner].store.variable(var)
        variable.default = default
        for key, value in table.items():
            variable.set(key, value)


# -- update logs and the per-kind merge ---------------------------------------

_EPOCHS = itertools.count(1)


def next_epoch(network) -> int:
    """Mint the parent-side merge epoch for one engine run.

    Epochs are globally monotone (one shared counter), so a log produced
    for any earlier run of any network compares unequal — the staleness
    check in :func:`apply_replica_log` needs nothing finer.
    """
    epoch = next(_EPOCHS)
    network._replica_epoch = epoch
    return epoch


def wire_spec(lane_vars: dict, epoch: int) -> dict:
    """The picklable replica spec shipped to a process/cluster lane."""
    return {
        "epoch": epoch,
        "vars": {var: rvar.to_wire() for var, rvar in lane_vars.items()},
    }


def replicas_from_spec(spec: dict) -> dict:
    return {
        var: ReplicaVar.from_wire(var, payload)
        for var, payload in spec["vars"].items()
    }


def lane_replicas(rplan: ReplicaPlan, batch) -> dict:
    """The replicated variables one batch can actually touch.

    The replica analogue of ``batch_footprint``: the union of the
    batch's ingress ports' *base* footprints, intersected with the
    replicated set.  A lane whose batch cannot reach any replicated
    variable runs in place on the parent store, exactly as before.
    """
    ports = {port for _, _, port in batch}
    footprint = rplan.base.footprint
    touched: dict = {}
    for port in ports:
        for var in footprint.get(port, ()):
            rvar = rplan.replicated.get(var)
            if rvar is not None:
                touched[var] = rvar
    return touched


def _require_int(var: str, key, value):
    if type(value) is not int:  # bools and floats both break exactness
        raise DataPlaneError(
            f"replicated counter '{var}' holds non-integer value "
            f"{value!r} at key {key!r}; delta merge requires exact "
            f"integer arithmetic"
        )
    return value


def replica_log(lane_vars: dict, seed: dict, final: dict,
                epoch: int) -> dict:
    """Diff a lane's replica against its seed into a compact update log.

    ``seed`` and ``final`` are state slices (:func:`extract_state`
    format) covering at least ``lane_vars``.  Unchanged keys are skipped
    *before* any arithmetic, so pre-existing foreign values a lane never
    touched can never poison the diff.
    """
    logged: dict = {}
    for var, rvar in lane_vars.items():
        seed_default, seed_table = seed.get(var, (None, {}))
        final_default, final_table = final.get(var, (seed_default, {}))
        entries: dict = {}
        for key, value in final_table.items():
            before = seed_table.get(key, seed_default)
            if value == before and type(value) is type(before):
                continue
            if rvar.kind == DELTA:
                base = 0 if before is None else _require_int(var, key, before)
                entries[key] = _require_int(var, key, value) - base
            else:  # INSERT and WATERMARK both log the final value
                entries[key] = value
        if entries:
            logged[var] = entries
    return {"epoch": epoch, "vars": logged}


def log_entries(log: dict) -> int:
    return sum(len(entries) for entries in log["vars"].values())


def apply_replica_log(network, replicated: dict, log: dict,
                      epoch: int) -> None:
    """Merge one lane's update log into the parent store.

    Order-free across lanes for ``delta`` (integer sums commute) and
    ``insert`` (idempotent same-value stores); ``watermark`` keeps the
    extreme in the proven direction.  A log stamped with a different
    epoch than the current run's is refused — the reconciliation guard
    against requeued or duplicated lanes from an earlier run.
    """
    if log["epoch"] != epoch:
        raise DataPlaneError(
            f"stale replica log: epoch {log['epoch']} != current "
            f"merge epoch {epoch}"
        )
    for var, entries in log["vars"].items():
        rvar = replicated.get(var)
        if rvar is None:
            raise DataPlaneError(
                f"replica log names unplanned variable '{var}'"
            )
        owner = network.placement.get(var)
        if owner is None:
            continue
        variable = network.switches[owner].store.variable(var)
        if rvar.kind == DELTA:
            default = 0 if variable.default is None else variable.default
            table = variable._table
            for key, delta in entries.items():
                current = table.get(key, default)
                table[key] = _require_int(var, key, current) + delta
        elif rvar.kind == INSERT:
            for key, value in entries.items():
                variable.set(key, value)
        elif rvar.kind == WATERMARK:
            direction = rvar.direction
            table = variable._table
            for key, value in entries.items():
                if key not in table or (value - table[key]) * direction > 0:
                    table[key] = value
        else:  # pragma: no cover - planner never emits other kinds
            raise DataPlaneError(
                f"unknown replica merge kind {rvar.kind!r} for '{var}'"
            )


# -- thread-lane replica networks ---------------------------------------------
#
# The process and cluster engines get replica isolation for free (each
# worker already runs a rehydrated private network); thread lanes share
# the parent's compiled programs — and NetASM lowering binds
# StateVariable objects directly into opcode closures, so isolation
# needs a *per-slot worker network* revived from the lowered pure-data
# form, exactly like a process worker but in-process.  Revived programs
# are cached per (parent, slot): rebuilding them is the expensive part,
# and a TE rewire (new parent object, same programs) re-revives only on
# its first replicated run.


def replica_network(network, slot: int):
    """A private, lane-capable replica of ``network`` for thread lane
    ``slot``.  Cached on the parent and invalidated when the parent's
    program token or xFDD root changes (the same fingerprint the plan
    caches use)."""
    from repro.dataplane.netasm import revive_programs
    from repro.dataplane.network import (
        exec_network_spec,
        exec_program_spec,
        worker_network,
    )

    token = (
        getattr(network, "_exec_program_key", None),
        network.index.root if network.index is not None else None,
    )
    cache = getattr(network, "_replica_cache", None)
    if (cache is None or cache["token"][0] != token[0]
            or cache["token"][1] is not token[1]):
        cache = {"token": token, "spec": None, "nets": {}}
        network._replica_cache = cache
    net = cache["nets"].get(slot)
    if net is not None:
        return net
    spec = cache["spec"]
    if spec is None:
        spec = exec_network_spec(network)
        spec["programs"] = exec_program_spec(network)
        cache["spec"] = spec
    programs = revive_programs(spec["programs"])
    net = worker_network(
        spec, programs, (token[0], "replica", slot),
        getattr(network, "_exec_network_key", None),
    )
    cache["nets"][slot] = net
    return net


def replica_runner(network, rplan: ReplicaPlan, shard_index: int, batch,
                   lane_vars: dict, epoch: int, make_lane):
    """A zero-argument lane runner executing on a private replica.

    Seeds the slot's replica network with the batch's full state slice
    (shard-disjoint footprint plus replica seeds) from the parent,
    runs the lane there, and returns ``(records, links, state, log)`` —
    the disjoint slice to :func:`merge_state` and the replica update log
    to :func:`apply_replica_log`.  The caller must defer both merges
    until every lane has stopped: lanes seed from the parent snapshot,
    so merging mid-run would double-count.
    """
    from repro.dataplane.engine import batch_footprint

    plan = rplan.plan
    shard = plan.shards[shard_index]
    variables = batch_footprint(plan, batch)
    lane_net = replica_network(network, shard_index)

    def run():
        seed = extract_state(network, set(variables) | set(lane_vars))
        install_state(lane_net, seed)
        lane = make_lane(lane_net, shard, batch)
        records, links = lane.run()
        state = extract_state(lane_net, variables)
        log = replica_log(
            lane_vars, seed, extract_state(lane_net, lane_vars), epoch
        )
        return records, links, state, log

    return run
