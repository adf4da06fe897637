"""Cluster execution engines: disjoint-state shards on worker daemons.

:class:`ClusterEngine` is the cross-host member of the data-plane engine
family (``engine="cluster"``): the same proven-disjoint shard plan the
thread and process engines execute, but each shard's batch travels over
TCP to a :mod:`repro.cluster.worker` daemon — a local subprocess or a
daemon on another machine — and the results merge back in deterministic
global arrival order, regardless of which worker answered first.  What a
run ships is minimal by construction:

* the *program* spec (lowered switch programs) moves once per worker per
  policy — a TE ``rewire`` keeps the program token, so rewiring a warm
  cluster ships **zero** program bytes;
* the *network* spec (routing tables, port map, placement) moves once
  per worker per rewire;
* each job carries only the shard's batch plus the
  footprint-restricted state slice its packets can actually touch
  (:func:`repro.dataplane.engine.batch_footprint`); batches go out and
  delivery records come back as lane-wire schema rows
  (:func:`repro.dataplane.network.encode_batch`).

The engine honors the PR 4 lane-failure contract end to end: a daemon
that dies mid-run has its shard requeued onto a surviving worker
(byte-identical results — state ships per run, so a re-run has no
leftover effects), and only when no capacity remains do the completed
lanes merge and a named :class:`~repro.lang.errors.DataPlaneError`
surface.  After a total-loss failure the coordinator is discarded so the
next run starts a fresh set of daemons — mirroring the process engine's
``BrokenProcessPool`` recovery.

:class:`ClusterObsEngine` is the OBS mirror's cluster member
(``replay_obs(..., engine="cluster")``): the batched mirror's
per-ingress-group planning and deterministic merge, with group
evaluation dispatched to the same daemons over the same wire.
"""

from __future__ import annotations

import pickle

from repro.cluster import protocol as wire
from repro.cluster.coordinator import ClusterCoordinator, Job
from repro.cluster.protocol import ClusterError
from repro.dataplane import replication
from repro.dataplane.engine import (
    ShardedEngine,
    _merge_lane_outcomes,
    _raise_lane_failure,
    _split_batches,
    batch_footprint,
    make_lane,
    refresh_exec_keys,
    register_engine,
)
from repro.dataplane.network import (
    Network,
    decode_records,
    encode_batch,
    exec_network_spec,
    exec_program_spec,
)
from repro.obs import postcards
from repro.obs.runstats import RunStats
from repro.obs.tracing import TRACER
from repro.workloads.obs_engine import BatchedObsEngine, register_obs_engine


def _dumps(value) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


class ClusterEngine(ShardedEngine):
    """Per-shard parallel execution on socket-connected worker daemons.

    ``workers`` local daemons are spawned lazily on the first run that
    has more than one shard (one shard gains nothing from the wire — it
    is the sharded engine's inline run on the calling thread, on the
    same lane kind the daemons would run, reported under this engine's
    name, exactly like the process engine's fallback), and/or
    pre-started daemons are attached via ``addresses``
    (``["host:port", ...]``).  The daemon set survives across runs and
    TE rewires; :meth:`restart` (the controller calls it on policy
    rebuilds) and :meth:`close` tear it down — spawned daemons are
    terminated and reaped, attached daemons are merely disconnected.

    :attr:`last_run_stats` describes the previous run: live worker
    count, lanes, and the bytes that actually moved (program / network
    spec bytes, per-job payload bytes, and the lane-wire batch and
    record bytes inside them) — the benchmark records these.
    """

    name = "cluster"

    def __init__(self, workers: int = 2, addresses=(), lane=None,
                 replicate_state: bool | None = None):
        if lane not in (None, "scalar", "vector"):
            raise ClusterError(f"unknown lane kind {lane!r}")
        # One thread: the inline fallback runs its single lane here.
        # ``replicate_state=None`` defers to the network's
        # ``replicate_state``; a boolean overrides it for this engine.
        # Replica specs and update logs ride the wire protocol since v2.
        super().__init__(max_workers=1, replicate_state=replicate_state)
        self.workers = workers
        self.addresses = tuple(addresses)
        #: Lane opt-in: "vector" asks every worker daemon
        #: to run its shard on the columnar tier (a worker without numpy
        #: silently runs the scalar lane — semantics are identical).
        self.lane = lane
        self._coordinator: ClusterCoordinator | None = None
        self._program_cache: tuple | None = None  # (program_key, bytes)
        self._network_cache: tuple | None = None  # (network_key, bytes)

    # -- execution ---------------------------------------------------------

    def run(self, network: Network, arrivals) -> list:
        arrivals = list(arrivals)
        rplan = self.replica_plan(network)
        batches = _split_batches(rplan.plan, arrivals)
        if len(batches) <= 1:
            # Zero or one lane: the wire buys no parallelism — the
            # sharded engine's inline run, spawning nothing.
            return super().run(network, arrivals)
        with TRACER.span(
            "engine.run", engine=self.name, lanes=len(batches),
            packets=len(arrivals),
        ) as run_span:
            return self._run(network, arrivals, rplan, batches, run_span)

    def _run(self, network: Network, arrivals: list, rplan, batches,
             run_span) -> list:
        plan = rplan.plan
        refresh_exec_keys(network)
        program_key = network._exec_program_key
        network_key = network._exec_network_key
        program_bytes = self._spec_bytes(
            "_program_cache", program_key, lambda: exec_program_spec(network)
        )
        network_bytes = self._spec_bytes(
            "_network_cache", network_key, lambda: exec_network_spec(network)
        )
        coordinator = self._ensure_coordinator()
        coordinator.heartbeat()
        stats_before = dict(coordinator.stats)

        def ensure(handle, force: bool = False) -> None:
            """Ship the spec halves this worker is missing."""
            if force:
                handle.programs.discard(program_key)
                handle.networks.discard(network_key)
            if network_key in handle.networks:
                return
            if program_key not in handle.programs:
                self._load_program(
                    coordinator, handle, program_key, program_bytes
                )
            # Spec shipping is bounded like job dispatch: a wedged host
            # must surface as worker loss, never block the run.
            reply_type, payload = handle.request(wire.LOAD_NETWORK, {
                "key": network_key,
                "program_key": program_key,
                "blob": network_bytes,
            }, timeout=coordinator.run_timeout)
            if reply_type == wire.ERROR and payload.get("missing") == "program":
                # The worker evicted the program spec after we shipped
                # it: re-ship both halves.
                handle.programs.discard(program_key)
                self._load_program(
                    coordinator, handle, program_key, program_bytes
                )
                reply_type, payload = handle.request(wire.LOAD_NETWORK, {
                    "key": network_key,
                    "program_key": program_key,
                    "blob": network_bytes,
                }, timeout=coordinator.run_timeout)
            if reply_type != wire.OK:
                raise ClusterError(
                    f"worker {handle.address} rejected the network spec: "
                    f"{(payload or {}).get('message', reply_type)}"
                )
            handle.networks.add(network_key)
            coordinator.add_stat("network_bytes", len(network_bytes))

        replicate = bool(rplan.replicated)
        epoch = replication.next_epoch(network) if replicate else 0
        sampler = postcards.active_sampler()
        telemetry = None
        if TRACER.enabled or sampler is not None:
            # v3 wire field: the daemon parents its shard span under this
            # context and ships its spans/postcards back in the RESULT.
            telemetry = {
                "trace": run_span.context(),
                "postcard_every": sampler.every if sampler else 0,
            }
        jobs = []
        batch_bytes = 0
        for shard_index, batch in batches:
            shard = plan.shards[shard_index]
            variables = batch_footprint(plan, batch)
            lane_vars = replication.lane_replicas(rplan, batch) \
                if replicate else {}
            # v4 wire field: the batch as lane-wire schema rows.
            batch_blob = encode_batch(batch)
            batch_bytes += len(batch_blob)
            payload = {
                "network_key": network_key,
                "ports": tuple(shard.ports),
                "variables": tuple(sorted(variables)),
                # Replica seeds ride in the same state slice; the worker
                # diffs its post-run replica against them and sends back
                # the update log instead of the raw tables.
                "state": network.extract_shard_state(
                    set(variables) | set(lane_vars)
                ),
                "replica": (
                    replication.wire_spec(lane_vars, epoch)
                    if lane_vars else None
                ),
                "batch": batch_blob,
                "lane": self.lane,
                "telemetry": telemetry,
            }
            jobs.append(Job(shard_index, wire.RUN_SHARD, payload))
        results, errors = coordinator.run_jobs(jobs, ensure=ensure)

        outcomes = []
        log_entries = record_bytes = 0
        for shard_index in sorted(results):
            payload = results[shard_index]
            network.merge_shard_state(payload["state"])
            log = payload.get("replica_log")
            if log is not None:
                # A requeued duplicate of an *earlier run's* lane would
                # carry a stale epoch and be refused here; within one
                # run the coordinator keeps a single result per shard.
                replication.apply_replica_log(
                    network, rplan.replicated, log, epoch
                )
                log_entries += replication.log_entries(log)
            if telemetry is not None:
                TRACER.adopt(payload.get("spans"))
                postcards.adopt(payload.get("postcards"))
            record_bytes += len(payload["records"])
            outcomes.append(
                (decode_records(payload["records"]), payload["links"])
            )
        merged = _merge_lane_outcomes(
            network, outcomes, len(arrivals), complete=not errors
        )
        delta = {
            key: coordinator.stats[key] - stats_before.get(key, 0)
            for key in coordinator.stats
        }
        stats = RunStats(
            workers=coordinator.worker_count(),
            lanes=len(batches),
            program_bytes=delta["program_bytes"],
            network_bytes=delta["network_bytes"],
            payload_bytes=delta["payload_bytes"],
            requeues=delta["requeues"],
            batch_bytes=batch_bytes,
            record_bytes=record_bytes,
            replicated_vars=sorted(rplan.replicated),
            replica_log_entries=log_entries,
        )
        self.last_run_stats = stats
        stats.publish(self.name, packets=len(arrivals))
        run_span.set_attr("payload_bytes", delta["payload_bytes"])
        run_span.set_attr("requeues", delta["requeues"])
        if errors:
            if not coordinator.alive_workers():
                # Total capacity loss: discard the dead cluster so the
                # next run starts fresh daemons (the BrokenProcessPool
                # recovery, worn cluster-shaped).
                self.close()
            _raise_lane_failure(plan, min(errors), errors[min(errors)])
        return merged

    def _make_lane(self, network: Network, shard, batch):
        """The inline fallback's lane: the kind the daemons run."""
        return make_lane(self.lane, network, shard, batch)

    # -- spec and lifecycle ------------------------------------------------

    @staticmethod
    def _load_program(coordinator, handle, program_key, program_bytes):
        reply_type, payload = handle.request(wire.LOAD_PROGRAM, {
            "key": program_key, "blob": program_bytes,
        }, timeout=coordinator.run_timeout)
        if reply_type != wire.OK:
            raise ClusterError(
                f"worker {handle.address} rejected the program spec: "
                f"{(payload or {}).get('message', reply_type)}"
            )
        handle.programs.add(program_key)
        coordinator.add_stat("program_bytes", len(program_bytes))

    def _spec_bytes(self, slot: str, key, build) -> bytes:
        cached = getattr(self, slot)
        if cached is not None and cached[0] == key:
            return cached[1]
        blob = _dumps(build())
        setattr(self, slot, (key, blob))
        return blob

    def _ensure_coordinator(self) -> ClusterCoordinator:
        if self._coordinator is None:
            self._coordinator = ClusterCoordinator(
                local_workers=self.workers, addresses=self.addresses
            )
        return self._coordinator.start()

    @property
    def coordinator(self) -> ClusterCoordinator | None:
        """The live coordinator, or None before the first clustered run."""
        return self._coordinator

    def restart(self) -> None:
        """Tear the daemons down; the next run starts a fresh cluster.

        Fresh daemons mean fresh spec caches — the controller calls this
        on policy rebuilds, where the old compiled programs can never be
        reused.  TE rewires do *not* restart the cluster.
        """
        self.close()

    def close(self) -> None:
        """Shut down spawned daemons and drop connections (idempotent)."""
        coordinator, self._coordinator = self._coordinator, None
        self._program_cache = None
        self._network_cache = None
        if coordinator is not None:
            coordinator.close()

    def __repr__(self):
        state = (
            f"{self._coordinator.worker_count()} workers"
            if self._coordinator is not None
            else "idle"
        )
        return (
            f"ClusterEngine(workers={self.workers}, "
            f"addresses={list(self.addresses)}, {state})"
        )


class ClusterObsEngine(BatchedObsEngine):
    """The batched OBS mirror with groups evaluated on cluster daemons.

    Inherits the shard planner's per-ingress grouping, the
    footprint-restricted store slices, and the deterministic merge from
    :class:`~repro.workloads.obs_engine.BatchedObsEngine`; only the map
    step differs — each group's ``(policy, store, variables, batch)``
    payload is dispatched to a worker daemon, which runs the exact
    sequential evaluation loop and sends back ``(state, outputs)``.
    Byte-identical to the sequential mirror, like every OBS engine.
    """

    name = "cluster"

    def __init__(self, workers: int = 2, addresses=(),
                 max_workers: int | None = None):
        super().__init__(max_workers=max_workers, processes=False)
        self.workers = workers
        self.addresses = tuple(addresses)
        self._coordinator: ClusterCoordinator | None = None

    def _map_payloads(self, payloads) -> list:
        if len(payloads) <= 1:
            return super()._map_payloads(payloads)
        if self._coordinator is None:
            self._coordinator = ClusterCoordinator(
                local_workers=self.workers, addresses=self.addresses
            )
        coordinator = self._coordinator.start()
        coordinator.heartbeat()
        jobs = [
            Job(index, wire.RUN_OBS, {"blob": _dumps(payload)})
            for index, payload in enumerate(payloads)
        ]
        results, errors = coordinator.run_jobs(jobs)
        if errors:
            if not coordinator.alive_workers():
                # Total capacity loss: discard the dead cluster so the
                # next mirror call spawns fresh daemons (same recovery
                # as the data-plane engine).
                self._coordinator = None
                coordinator.close()
            index = min(errors)
            raise ClusterError(
                f"OBS mirror group {index} failed on the cluster: "
                f"{errors[index]}"
            )
        return [
            (results[index]["state"], results[index]["outputs"])
            for index in range(len(payloads))
        ]

    def close(self) -> None:
        coordinator, self._coordinator = self._coordinator, None
        if coordinator is not None:
            coordinator.close()
        super().close()

    def __repr__(self):
        return (
            f"ClusterObsEngine(workers={self.workers}, "
            f"addresses={list(self.addresses)})"
        )


# Self-registration: importing repro.cluster plugs both engines into the
# name registries (the registries also pre-register these lazily, so the
# names work without importing this module first — either path lands
# here).
register_engine("cluster", ClusterEngine, stateful=True)
register_obs_engine("cluster", ClusterObsEngine, stateful=True)
