"""The distributed data-plane simulator — our Mininet substitute.

Each switch runs its compiled NetASM program over its local state tables;
packets carry the SNAP header and are forwarded by the per-switch
match-action tables along the MILP-selected (u, v) path.

Egress selection (Appendix D): when a packet pauses on a state variable
before its egress is known, the ingress tags it with a candidate egress
whose flow needs that variable (weighted by demand); when the leaf finally
assigns the real outport, the packet is re-tagged and continues along the
new path from its current switch — which the MILP guarantees lies on that
path too.

Two delivery modes:

* sequential (default): each injected packet runs to completion before the
  next — this must agree exactly with the OBS ``eval`` semantics, and the
  property tests check that it does.  :class:`_Lane`, the compiled
  run-to-completion interpreter, runs it; the parallel engines of
  :mod:`repro.dataplane.engine` run the same lane once per shard batch;
* concurrent: hops of in-flight packets interleave round-robin, exposing
  the §2.1 transaction hazards that ``atomic()`` exists to prevent.

Both modes make their routing decisions — the pause re-tag and the next
hop — through the same two methods, :meth:`Network._pause_egress` and
:meth:`Network._next_hop`.
"""

from __future__ import annotations

import itertools
from collections import deque

from repro.dataplane.header import (
    DONE_TAG,
    ROOT_TAG,
    SNAP_INPORT,
    SNAP_NODE,
    SNAP_OUTPORT,
    add_header,
    strip_header,
)
from repro.dataplane.netasm import SwitchProgram, compile_switch
from repro.dataplane.rules import RuleTables, build_rule_tables
from repro.dataplane.split import NodeIndex
from repro.lang.errors import DataPlaneError
from repro.lang.packet import Packet
from repro.lang.state import Store
from repro.milp.results import RoutingPaths
from repro.obs import postcards
from repro.topology.graph import Topology

MAX_HOPS = 1000

#: Monotonic tokens identifying (a) a compiled switch-program set and (b)
#: one Network instance built around it.  The process-pool engine keys its
#: worker-side rehydration caches on these: a TE ``rewire`` shares the
#: compiled programs (same program key, new network key), while a policy
#: rebuild mints a fresh program key.
_EXEC_KEYS = itertools.count(1)


class DeliveryRecord:
    """One packet's fate: delivered at a port, or dropped."""

    __slots__ = ("packet", "egress", "hops")

    def __init__(self, packet: Packet, egress: int | None, hops: int):
        self.packet = packet
        self.egress = egress  # None = dropped
        self.hops = hops

    def __repr__(self):
        where = f"port {self.egress}" if self.egress is not None else "dropped"
        return f"DeliveryRecord({where}, hops={self.hops})"


class Network:
    """Topology + per-switch programs + routing tables + link stats."""

    def __init__(
        self,
        topology: Topology,
        xfdd,
        placement: dict,
        routing: RoutingPaths,
        mapping,
        demands: dict | None = None,
        state_defaults: dict | None = None,
        rules: RuleTables | None = None,
    ):
        self.topology = topology
        self.placement = dict(placement)
        self.routing = routing
        self.mapping = mapping
        self.demands = dict(demands or {})
        self.index = NodeIndex(xfdd)
        self.rules: RuleTables = (
            rules if rules is not None else build_rule_tables(routing)
        )
        port_switches = set(topology.ports.values())
        defaults = dict(state_defaults or {})
        self.state_defaults = defaults
        self.switches: dict[str, SwitchProgram] = {
            name: compile_switch(
                name, xfdd, self.index, self.placement, defaults,
                has_ports=name in port_switches,
            )
            for name in topology.switches()
        }
        self.link_packets: dict = {}
        self.deliveries: list[DeliveryRecord] = []
        #: Engine :func:`repro.workloads.replay` uses when none is passed
        #: explicitly (a name or an engine instance; the controller sets
        #: it from ``CompilerOptions.engine``).
        self.default_engine: object = "sequential"
        #: Whether parallel engines may run state-compute replication
        #: (:mod:`repro.dataplane.replication`) on this network; the
        #: controller sets it from ``CompilerOptions.replicate_state``,
        #: and an engine's own ``replicate_state=`` overrides it.
        self.replicate_state: bool = True
        # Worker-cache keys for the process engine (see _EXEC_KEYS).
        self._exec_program_key = next(_EXEC_KEYS)
        self._exec_network_key = next(_EXEC_KEYS)
        self._init_routing_indices()

    def _init_routing_indices(self) -> None:
        """(Re)build everything derived from routing/topology/demands."""
        # Per-flow path indices: (u, v) -> {switch: position} and
        # (u, v) -> {switch: next_hop}, so the per-hop "is this switch on
        # the installed path / what comes after it" questions are dict
        # lookups instead of list scans.
        self._path_pos: dict = {}
        self._path_next: dict = {}
        for (u, v), path in self.routing.paths.items():
            self._path_pos[(u, v)] = {sw: i for i, sw in enumerate(path)}
            self._path_next[(u, v)] = dict(zip(path, path[1:]))
        # Candidate-egress index (Appendix D): (u, var) -> flows needing
        # ``var``, highest demand first (stable, so ties keep the mapping's
        # iteration order — the same flow the per-query scan used to pick).
        self._egress_index: dict = {}
        for (fu, fv), states in self.mapping.items():
            pos = self._path_pos.get((fu, fv))
            if pos is None:
                continue
            demand = self.demands.get((fu, fv), 0.0)
            for var in states:
                self._egress_index.setdefault((fu, var), []).append(
                    (demand, fv, pos)
                )
        for candidates in self._egress_index.values():
            candidates.sort(key=lambda entry: -entry[0])
        # Default routes: shortest-path next hop toward each switch, used
        # for processing-complete packets with no installed (u, v) rule —
        # e.g. hairpin flows (egress == ingress port) or re-tagged egresses.
        # Such packets have no remaining state constraints, so any route
        # to the egress is semantically equivalent.  Computed lazily: one
        # reverse BFS per egress switch covers every source at once, and
        # only egresses that actually need a default route pay for it.
        self._default_next: dict = {}
        self._default_done: set = set()

    def rewire(self, topology: Topology, routing: RoutingPaths,
               demands: dict | None = None,
               rules: RuleTables | None = None) -> "Network":
        """A new network with routing/topology/demands replaced.

        For hot swaps where the xFDD and placement are unchanged (TE
        events): the compiled switch programs — and with them the state
        stores — are *shared* with this network, so state carries over
        for free and no per-switch recompilation happens; only the rule
        tables and routing-derived indices are rebuilt.
        """
        dup = object.__new__(Network)
        dup.topology = topology
        dup.placement = dict(self.placement)
        dup.routing = routing
        dup.mapping = self.mapping
        dup.demands = dict(demands if demands is not None else self.demands)
        dup.index = self.index
        dup.rules = rules if rules is not None else build_rule_tables(routing)
        dup.state_defaults = self.state_defaults
        dup.switches = self.switches
        dup.link_packets = {}
        dup.deliveries = []
        dup.default_engine = self.default_engine
        dup.replicate_state = getattr(self, "replicate_state", True)
        # Same compiled programs -> same program key (process-pool workers
        # keep their rehydrated programs); new routing -> new network key.
        dup._exec_program_key = self._exec_program_key
        dup._exec_network_key = next(_EXEC_KEYS)
        dup._init_routing_indices()
        return dup

    # -- state access ------------------------------------------------------

    def global_store(self) -> Store:
        """Union of all switches' local state (for OBS equivalence checks)."""
        merged = Store(self.state_defaults)
        for program in self.switches.values():
            for name in program.store.names():
                var = program.store.variable(name)
                target = merged.variable(name)
                target.default = var.default
                for key, value in var.items():
                    target.set(key, value)
        return merged

    def adopt_state(self, previous: "Network") -> None:
        """Carry ``previous``'s state-store contents into this network.

        The live-reconfiguration half of a controller hot swap: every
        explicit entry of every state variable in the old data plane is
        written into the variable's new owner switch, so counters and
        flags survive a recompilation even when the placement moved.
        Variables the new program no longer declares are dropped; new
        variables keep their (fresh) defaults.
        """
        merged = previous.global_store()
        for name in merged.names():
            owner = self.placement.get(name)
            if owner is None:
                continue  # variable retired by the new program
            source = merged.variable(name)
            target = self.switches[owner].store.variable(name)
            for key, value in source.items():
                target.set(key, value)

    # -- per-shard state transfer (process-engine contract) ----------------

    # The one implementation of the slice transfer lives in
    # :mod:`repro.dataplane.replication` (imported lazily — replication
    # imports this module at load time); these methods survive as the
    # engine-facing contract every caller already uses.

    def extract_shard_state(self, variables) -> dict:
        """Snapshot the named state variables from their owner switches.

        Returns ``{var: (default, {key: value})}`` — pure data, picklable,
        suitable for shipping a shard's private state to a worker process.
        Variables without a placed owner are skipped (they cannot hold
        data-plane state).
        """
        from repro.dataplane.replication import extract_state

        return extract_state(self, variables)

    def install_shard_state(self, state: dict) -> None:
        """Replace the named variables' contents with ``state``.

        The worker-side half of the transfer: a cached worker network may
        hold a previous batch's values, so installation *replaces* each
        variable's table rather than merging into it.
        """
        from repro.dataplane.replication import install_state

        install_state(self, state)

    def merge_shard_state(self, state: dict) -> None:
        """Apply a worker's post-run shard state back into this network.

        The parent-side half: every entry the worker's run produced is
        written into the variable's owner switch.  Shards are provably
        disjoint, and state tables never delete keys, so entry-wise update
        reproduces exactly the state a sequential run would have left.
        Replicated variables travel through
        :func:`repro.dataplane.replication.apply_replica_log` instead.
        """
        from repro.dataplane.replication import merge_state

        merge_state(self, state)

    # -- egress selection (Appendix D) ----------------------------------------

    def _candidate_egress(self, u: int, var: str, current: str):
        """Pick a candidate egress whose (u, v) flow needs ``var`` and whose
        installed path passes through ``current``; weighted by demand.

        The per-(u, var) candidate list is precomputed in ``__init__`` and
        kept sorted by demand, so this is a short scan for the first
        candidate whose path covers ``current`` instead of a pass over the
        whole packet-state mapping per pause."""
        for _, fv, pos in self._egress_index.get((u, var), ()):
            if current in pos:
                return fv
        return None

    # -- default routes -------------------------------------------------------

    def _default_next_hop(self, source: str, target: str):
        """Next hop from ``source`` on some shortest path toward ``target``.

        One reverse BFS from ``target`` fills in the next hop for *every*
        source (the BFS parent pointers point toward the target), replacing
        the per-source shortest-path calls this table was built from."""
        if target not in self._default_done:
            default_next = self._default_next
            adjacency = self.topology.graph.pred  # reverse edges of the DiGraph
            visited = {target}
            frontier = deque((target,))
            while frontier:
                node = frontier.popleft()
                for prev in adjacency[node]:
                    if prev not in visited:
                        visited.add(prev)
                        default_next[(prev, target)] = node
                        frontier.append(prev)
            # Marked done only after the table is fully populated, so a
            # concurrent reader (sharded-engine lanes share this cache)
            # never observes a half-filled route table.
            self._default_done.add(target)
        return self._default_next.get((source, target))

    # -- routing decisions (shared by the lane and the interleaved walk) ----

    def _pause_egress(self, u: int, v, var: str, switch: str) -> int:
        """The egress a packet of flow ``(u, v)`` pausing on ``var`` at
        ``switch`` continues toward (Appendix D).

        ``v`` itself while its installed path still reaches ``var``'s
        owner from here; otherwise a re-tag to a candidate egress whose
        flow needs ``var`` and whose path covers ``switch``.
        """
        if v is not None:
            pos = self._path_pos.get((u, v))
            if (
                pos is not None
                and switch in pos
                and var in self.mapping.states_for(u, v)
            ):
                owner = self.placement[var]
                if owner in pos and pos[owner] >= pos[switch]:
                    return v
        candidate = self._candidate_egress(u, var, switch)
        if candidate is None:
            raise DataPlaneError(
                f"no candidate egress for flow from port {u} pausing on "
                f"{var!r} at {switch}"
            )
        return candidate

    def _next_hop(self, switch: str, u: int, v: int, tag: int) -> str:
        """The switch after ``switch`` for a ``(u, v)`` packet tagged ``tag``."""
        nxt = self.rules.next_hop(switch, u, v)
        if nxt is None:
            # Re-tagged packets may join the (u, v) path midway; recover by
            # walking the installed path from the current switch.
            chain = self._path_next.get((u, v))
            if chain is not None:
                nxt = chain.get(switch)
        if nxt is None and tag == DONE_TAG:
            # Processing finished: any route to the egress works.
            nxt = self._default_next_hop(switch, self.topology.port_switch(v))
        if nxt is None:
            raise DataPlaneError(
                f"no route at {switch} for flow ({u}, {v}) (tag={tag})"
            )
        return nxt

    # -- packet walking -----------------------------------------------------------

    def inject(self, packet: Packet, port: int) -> list[DeliveryRecord]:
        """Sequential mode: run one packet to completion."""
        return self.inject_many(((packet, port),))[0]

    def inject_many(self, packets_with_ports) -> list[list[DeliveryRecord]]:
        """Sequential mode: each packet runs to completion, in order.

        One compiled lane over every port, with no shard planning;
        returns one record list per injected packet.  If a packet raises,
        the packets before it stay recorded (deliveries and link
        counters, plus the hops the failing packet already took) and the
        exception propagates unwrapped.
        """
        lane = _Lane(self, None, [
            (index, packet, port)
            for index, (packet, port) in enumerate(packets_with_ports)
        ])
        try:
            lane.run()
        finally:
            link_packets = self.link_packets
            for link, count in lane.link_counts().items():
                link_packets[link] = link_packets.get(link, 0) + count
            deliveries = self.deliveries
            for records in lane.results.values():
                deliveries.extend(records)
        return list(lane.results.values())

    def inject_concurrent(self, packets_with_ports, scheduler=None) -> list[DeliveryRecord]:
        """Concurrent mode: all packets in flight, hops interleaved.

        ``scheduler(pending)`` picks which pending hop advances next (index
        into the list); the default is FIFO.  Adversarial schedulers model
        in-flight packet reordering — the hazard §2.1's transactions exist
        to contain.
        """
        queue: deque = deque(
            (add_header(packet, port), self.topology.port_switch(port), 0)
            for packet, port in packets_with_ports
        )
        records = self._run(queue, scheduler)
        self.deliveries.extend(records)
        return records

    def _run(self, queue: deque, scheduler=None) -> list[DeliveryRecord]:
        """Drain the arrival queue one hop at a time, hops of different
        packets interleaved (the §2.1 transaction model)."""
        records = []
        while queue:
            if scheduler is not None:
                # The deque is handed to the scheduler directly (it only
                # needs len() and indexing); copying it to a list every
                # hop made adversarial-scheduler soaks quadratic.
                index = scheduler(queue)
                packet, switch, hops = queue[index]
                del queue[index]
            else:
                packet, switch, hops = queue.popleft()
            if hops > MAX_HOPS:
                raise DataPlaneError("packet exceeded hop limit (routing loop?)")
            for item in self._step(packet, switch, hops):
                if type(item) is DeliveryRecord:
                    records.append(item)
                else:
                    queue.append(item)
        return records

    def _step(self, packet: Packet, switch: str, hops: int) -> list:
        """Process-or-forward one packet at one switch.

        Returns a list of :class:`DeliveryRecord` (done) and
        ``(packet, next_switch, hops)`` tuples (still in flight) — one item
        per packet copy.
        """
        tag = packet.get(SNAP_NODE)
        program = self.switches[switch]
        if tag != DONE_TAG and program.can_process(tag):
            return [
                self._handle_outcome(outcome, switch, hops)
                for outcome in program.process(packet)
            ]
        return [self._forward(packet, switch, hops)]

    def _handle_outcome(self, outcome, switch: str, hops: int):
        packet = outcome.packet
        kind = outcome.kind
        if kind == "drop":
            return DeliveryRecord(packet, None, hops)
        if kind == "emit":
            egress = packet.get("outport")
            if egress is None or egress not in self.topology.ports:
                return DeliveryRecord(packet, None, hops)
            packet = packet.modify_many({SNAP_OUTPORT: egress, SNAP_NODE: DONE_TAG})
            return self._forward(packet, switch, hops)
        v = packet.get(SNAP_OUTPORT)
        egress = self._pause_egress(packet.get(SNAP_INPORT), v, outcome.var, switch)
        if egress != v:
            packet = packet.modify(SNAP_OUTPORT, egress)
        return self._forward(packet, switch, hops)

    def _forward(self, packet: Packet, switch: str, hops: int):
        fields = packet._fields
        u = fields.get(SNAP_INPORT)
        v = fields.get(SNAP_OUTPORT)
        if v is None:
            raise DataPlaneError(f"packet at {switch} has no egress tag")
        tag = fields.get(SNAP_NODE)
        if tag == DONE_TAG and switch == self.topology.port_switch(v):
            return DeliveryRecord(strip_header(packet), v, hops)
        nxt = self._next_hop(switch, u, v, tag)
        counters = self.link_packets
        counters[(switch, nxt)] = counters.get((switch, nxt), 0) + 1
        return (packet, nxt, hops + 1)

    # -- reporting -------------------------------------------------------------

    def instruction_counts(self) -> dict:
        return {
            name: len(program.instructions) for name, program in self.switches.items()
        }

    def __repr__(self):
        return (
            f"Network({self.topology.name}, switches={len(self.switches)}, "
            f"rules={self.rules.total_rules()})"
        )


# -- the run-to-completion interpreter ----------------------------------------


def _delivered(fields: dict, egress: int, hops: int) -> DeliveryRecord:
    """The delivery of a finished packet, SNAP header stripped."""
    stripped = dict(fields)
    del stripped[SNAP_INPORT]
    stripped.pop(SNAP_OUTPORT, None)
    del stripped[SNAP_NODE]
    out = Packet.__new__(Packet)
    out._fields = stripped
    out._hash = None
    return DeliveryRecord(out, egress, hops)


class _Lane:
    """The data plane's run-to-completion interpreter over one batch.

    Sequential mode (:meth:`Network.inject_many`) runs every arrival
    through one lane; the parallel engines run one lane per shard batch.
    Each packet runs to completion in batch order, its copies depth-first
    in the order the switch emitted them (the OBS evaluation order).
    Forwarding hop chains are memoized as *segments* keyed by
    ``(switch, inport, outport, tag)`` — one dict hit and one counter bump
    per traversal — and expanded into per-link packet counts at the end.

    Packets the postcard sampler picks (:mod:`repro.obs.postcards`) run
    the same loop with a recorder: ``process_traced`` in place of
    ``process`` (identical opcode effects) and one ``hop`` event per
    segment link.
    """

    __slots__ = ("network", "shard", "batch", "results", "_segments",
                 "_seg_counts")

    def __init__(self, network: Network, shard, batch):
        self.network = network
        self.shard = shard
        self.batch = batch  # [(global_index, packet, port)]
        #: ``{global_index: [DeliveryRecord]}``, filled as packets finish.
        self.results: dict = {}
        self._segments: dict = {}  # (switch, u, v, tag) -> (stop, links)
        self._seg_counts: dict = {}

    def run(self):
        """Returns ``({global_index: [DeliveryRecord]}, {link: count})``."""
        results = self.results = {}
        run_packet = self._run_packet
        sampler = postcards.active_sampler()
        for index, packet, port in self.batch:
            if sampler is None or not sampler.should(index):
                results[index] = run_packet(packet, port, None)
            else:
                recorder = postcards.PostcardRecorder(index, port)
                results[index] = run_packet(packet, port, recorder)
                recorder.finish(results[index])
        return results, self.link_counts()

    def link_counts(self) -> dict:
        """``{link: packets}`` for every segment traversed so far."""
        links: dict = {}
        segments = self._segments
        for key, count in self._seg_counts.items():
            for link in segments[key][1]:
                links[link] = links.get(link, 0) + count
        return links

    # -- per-packet interpreter -------------------------------------------

    def _run_packet(self, packet: Packet, port: int, recorder) -> list:
        net = self.network
        ports = net.topology.ports
        segment = self._segment
        segments = self._segments
        seg_counts = self._seg_counts
        if recorder is None:
            process = SwitchProgram.process
        else:
            def process(program, pkt, entry):
                return program.process_traced(pkt, recorder, entry)
        # Inlined add_header: one dict copy for tag + inport.
        fields = dict(packet._fields)
        fields["inport"] = port
        fields[SNAP_INPORT] = port
        fields[SNAP_NODE] = ROOT_TAG
        tagged = Packet.__new__(Packet)
        tagged._fields = fields
        tagged._hash = None

        switch = ports.get(port)
        if switch is None:
            switch = net.topology.port_switch(port)  # raises: unknown port
        program = net.switches[switch]
        entry = program.resolve_inport_entry(ROOT_TAG, tagged, port)

        # Fast path: one outcome that emits to a valid egress — the
        # overwhelmingly common case — needs no copy stack at all.
        outcomes = process(program, tagged, entry)
        if len(outcomes) == 1 and outcomes[0].kind == "emit":
            fields = outcomes[0].packet._fields
            egress = fields.get("outport")
            if egress is not None and egress in ports:
                hops = 0
                if ports[egress] != switch:
                    # An untraced memo hit is counted inline: a
                    # _segment call per packet measurably slows this path.
                    key = (switch, port, egress, DONE_TAG)
                    seg = segments.get(key)
                    if seg is None or recorder is not None:
                        hops = segment(switch, port, egress, DONE_TAG, 0, recorder)[1]
                    else:
                        seg_counts[key] += 1
                        hops = len(seg[1])
                return [_delivered(fields, egress, hops)]

        records: list = []
        # Depth-first over packet copies, first-emitted first.  Stack
        # items are resume tuples or DeliveryRecords; a record on the
        # stack is an already-computed delivery whose forwarding hops a
        # hop-by-hop walk would still be taking, so it surfaces in the
        # same depth-first position.  ``outcomes`` (already produced
        # above — processing is stateful, never rerun) seeds the loop.
        stack: list = []
        hops = 0
        while True:
            in_flight = None
            for outcome in outcomes:
                kind = outcome.kind
                if kind == "emit":
                    # A DONE packet is never processed again, so the
                    # SNAP-header writes a hop-by-hop walk makes before
                    # forwarding would be stripped unread at the egress:
                    # deliver the stripped packet directly.
                    fields = outcome.packet._fields
                    egress = fields.get("outport")
                    if egress is None or egress not in ports:
                        records.append(
                            DeliveryRecord(outcome.packet, None, hops)
                        )
                        continue
                    if ports[egress] == switch:
                        # Delivered at this switch: surfaces before any
                        # queued copy.
                        records.append(_delivered(fields, egress, hops))
                        continue
                    total = segment(
                        switch, fields.get(SNAP_INPORT), egress, DONE_TAG,
                        hops, recorder,
                    )[1]
                    resume = _delivered(fields, egress, total)
                elif kind == "drop":
                    records.append(DeliveryRecord(outcome.packet, None, hops))
                    continue
                else:
                    resume = self._handle_pause(outcome, switch, hops, recorder)
                if in_flight is None:
                    in_flight = [resume]
                else:
                    in_flight.append(resume)
            if in_flight is not None:
                stack.extend(reversed(in_flight))
            while stack and type(stack[-1]) is DeliveryRecord:
                records.append(stack.pop())
            if not stack:
                return records
            program, pkt, entry, hops = stack.pop()
            switch = program.switch
            outcomes = process(program, pkt, entry)

    def _handle_pause(self, outcome, switch: str, hops: int, recorder):
        """A pause outcome -> the next processing stop, as a resume tuple
        ``(program, packet, entry, hops)``."""
        pkt = outcome.packet
        net = self.network
        fields = pkt._fields
        u = fields.get(SNAP_INPORT)
        v = fields.get(SNAP_OUTPORT)
        egress = net._pause_egress(u, v, outcome.var, switch)
        if egress != v:
            pkt = pkt.modify(SNAP_OUTPORT, egress)
        tag = fields.get(SNAP_NODE)
        stop, hops = self._segment(switch, u, egress, tag, hops, recorder)
        program = net.switches[stop]
        return (program, pkt, program.entries[tag], hops)

    def _segment(self, switch: str, u: int, v: int, tag: int, hops: int,
                 recorder):
        """Take the memoized segment from ``switch``; returns the stop
        switch and the packet's hop count there."""
        key = (switch, u, v, tag)
        seg = self._segments.get(key)
        if seg is None:
            seg = self._segments[key] = self._walk(switch, u, v, tag)
        self._seg_counts[key] = self._seg_counts.get(key, 0) + 1
        links = seg[1]
        if recorder is not None:
            for link in links:
                recorder.hop(*link)
        hops += len(links)
        if hops > MAX_HOPS:
            raise DataPlaneError("packet exceeded hop limit (routing loop?)")
        return seg[0], hops

    def _walk(self, switch: str, u: int, v: int, tag: int):
        """Follow :meth:`Network._next_hop` until the packet reaches a
        switch that can act on it (process the tag, or deliver a DONE
        packet at its egress); returns ``(stop, links)``."""
        net = self.network
        switches = net.switches
        done = tag == DONE_TAG
        egress_switch = net.topology.port_switch(v)
        links = []
        current = switch
        while True:
            nxt = net._next_hop(current, u, v, tag)
            links.append((current, nxt))
            if len(links) > MAX_HOPS:
                raise DataPlaneError(
                    "packet exceeded hop limit (routing loop?)"
                )
            current = nxt
            if done:
                if current == egress_switch:
                    return current, tuple(links)
            elif tag in switches[current].entries:
                return current, tuple(links)


# -- execution-spec serialization (worker processes and cluster daemons) ------
#
# A remote executor never sees the parent's Network: it receives a *spec*
# of pure data and rehydrates a lane-capable Network from it.  The spec is
# split along the exec-token boundary: the *program* half (the lowered
# switch programs, keyed ``_exec_program_key``) is the expensive part and
# survives TE rewires; the *network* half (routing tables, port map,
# reverse adjacency, packet-state mapping, placement, demands, keyed
# ``_exec_network_key``) is rebuilt per rewire.  Shipping them separately
# is what lets a cluster coordinator rewire a warm worker with zero
# program bytes on the wire.


class _WorkerGraph:
    """Reverse-adjacency view backing ``topology.graph.pred``."""

    __slots__ = ("pred",)

    def __init__(self, pred: dict):
        self.pred = pred


class _WorkerTopology:
    """Just enough topology for the per-lane fast path."""

    __slots__ = ("ports", "graph", "name")

    def __init__(self, ports: dict, pred: dict):
        self.ports = ports
        self.graph = _WorkerGraph(pred)
        self.name = "worker"

    def port_switch(self, port: int) -> str:
        try:
            return self.ports[port]
        except KeyError:
            raise DataPlaneError(f"unknown OBS port {port}") from None


class _WorkerRouting:
    """Path table shim satisfying ``Network._init_routing_indices``."""

    __slots__ = ("paths",)

    def __init__(self, paths: dict):
        self.paths = paths


def exec_program_spec(network: Network) -> dict:
    """The program half of the execution spec: ``{switch: LoweredProgram}``."""
    from repro.dataplane.netasm import lower_programs

    return lower_programs(network.switches)


def exec_network_spec(network: Network) -> dict:
    """The network half of the execution spec (pure data, no programs)."""
    topology = network.topology
    graph = topology.graph
    return {
        "ports": dict(topology.ports),
        "pred": {node: tuple(graph.pred[node]) for node in graph.pred},
        "paths": {flow: tuple(path) for flow, path in network.routing.paths.items()},
        "tables": {sw: dict(tbl) for sw, tbl in network.rules.tables.items()},
        "mapping": network.mapping,
        "placement": dict(network.placement),
        "demands": dict(network.demands),
        "state_defaults": dict(network.state_defaults),
    }


def worker_network(
    spec: dict, programs: dict, program_key, network_key
) -> Network:
    """A lane-capable Network rehydrated from an execution spec.

    ``programs`` is the (already revived, possibly cached) switch-program
    set; two networks rehydrated with the same programs share state
    stores, exactly like the parent's ``rewire`` path.  The result runs
    the compiled per-shard lane but never consults an xFDD.
    """
    network = object.__new__(Network)
    network.topology = _WorkerTopology(spec["ports"], spec["pred"])
    network.placement = spec["placement"]
    network.routing = _WorkerRouting(spec["paths"])
    network.mapping = spec["mapping"]
    network.demands = spec["demands"]
    network.index = None  # lanes never consult the xFDD
    network.rules = RuleTables(spec["tables"])
    network.state_defaults = spec["state_defaults"]
    network.switches = programs
    network.link_packets = {}
    network.deliveries = []
    network.default_engine = "sequential"
    network.replicate_state = False  # worker lanes never re-plan
    network._exec_program_key = program_key
    network._exec_network_key = network_key
    network._init_routing_indices()
    return network
