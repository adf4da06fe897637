"""Vectorized batch execution tier (``engine="vector"``).

Every existing engine parallelizes the same per-packet interpreter loop
(:meth:`repro.dataplane.netasm.SwitchProgram.process`); this module lowers
a :class:`SwitchProgram` one level further, to *columnar* execution in the
style of Open Packet Processor's mechanically-vectorizable stateful
match/action stages and DPDK's run-to-completion batching: a whole
batch's header fields are packed into NumPy column arrays and each opcode
executes once over the batch instead of once per packet.

How each opcode vectorizes:

* ``BRANCH``   — boolean mask partition of the active row set.  Field
  tests evaluate per *distinct* column value through the exact scalar
  predicate (so IP-prefix edge cases stay bit-identical) and broadcast
  via a code-indexed lookup table.
* ``SET``      — the field's column becomes a constant-code array
  (``np.where`` degenerates to ``np.full`` because the assigned value is
  a literal).
* ``STDELTA``  — increments are *deferred events*; all-integer deltas are
  grouped per state key and scattered in one pass (the ``np.add.at``
  shape), anything else replays per-event in exact sequential order.
* ``FORK``     — row duplication; every copy carries an *order key* (the
  fork-target path) so records surface in the interpreter's DFS order.
* ``DROP`` / ``EMIT`` — mask retirement into delivery records.

``PAUSE``, ``STWRITE``, and branches on state (``StateVarTest``) do not
vectorize: rows whose resolved entry can reach one fall back to the
scalar :class:`repro.dataplane.network._Lane`.  When the fallback rows'
state footprint overlaps the vectorized rows', the vector groups stay
columnar only if the static effect analysis (:mod:`repro.analysis
.effects`) proves every overlapping variable is written only by
``++``/``--``, never state-tested anywhere in the diagram, and integer —
the same predicate state-compute replication uses — because such deltas
commute with anything the scalar rows do.  Any other overlap runs the
whole batch scalar (deferred deltas may not be reordered around scalar
state reads).  Either way the engine is byte-identical to
:class:`~repro.dataplane.engine.SequentialEngine` — same records, same
link counters, same state stores — which the cross-engine property
tests assert.

Kernel plans (the op DAG, the interned value vocabulary and the test
LUTs) are cached by the network's ``_exec_program_key`` token — the same
token that versions programs for the cluster wire — so a TE ``rewire``
keeps every warm kernel and re-plans nothing.

Failure contract: like every lane, a failing vector lane loses its own
records while completed lanes still merge.  One documented deviation:
state deltas of vectorized rows are applied before the scalar-fallback
rows run, so when a *fallback* row fails, deltas of vectorized rows
arriving after it may already be applied (the two row sets' footprints
are provably disjoint, so no value is ever wrong — only the failure
cut-point differs from a strictly sequential run).

NumPy is an optional dependency: importing this module without it leaves
:data:`np` as ``None``, :func:`make_vector_lane` degrades to the scalar
lane, and constructing an engine raises a clear error.
"""

from __future__ import annotations

import threading

try:  # optional dependency — see module docstring
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

from repro.dataplane.engine import Shard, ShardedEngine, _Lane
from repro.dataplane.header import (
    DONE_TAG,
    ROOT_TAG,
    SNAP_INPORT,
    SNAP_NODE,
    SNAP_OUTPORT,
)
from repro.dataplane.netasm import (
    IBranch,
    IDrop,
    IEmit,
    IFork,
    IJump,
    IPause,
    ISet,
    IStateDelta,
    IStateWrite,
    SwitchProgram,
)
from repro.lang import ast
from repro.lang.errors import DataPlaneError
from repro.lang.packet import Packet
from repro.lang.values import matches
from repro.obs import postcards
from repro.obs.metrics import counter
from repro.obs.tracing import TRACER
from repro.util.ipaddr import IPPrefix
from repro.xfdd.tests import FieldFieldTest, FieldValueTest, StateVarTest

from repro.dataplane.network import MAX_HOPS, DeliveryRecord

#: Why vector lanes demoted work to the scalar interpreter.  Labeled by
#: cause so a parallelism flatline is explainable from a metrics scrape
#: alone (the per-run ``collapse_reasons`` only cover shard planning).
_VECTOR_FALLBACK = counter(
    "snap_vector_fallback_total",
    "Vector-lane demotions to the scalar interpreter, by cause",
)


def _demote(cause: str, rows: int) -> None:
    _VECTOR_FALLBACK.labels(cause=cause).inc()
    TRACER.add_event("vector_fallback", cause=cause, rows=rows)

# -- kernel cache -------------------------------------------------------------
#
# Kernels are keyed by the network's execution-program token plus the
# (switch, entry) pair, exactly like the worker-side program caches: a TE
# rewire keeps the program token, so every kernel (and its interned value
# vocabulary and test LUTs) stays warm; a policy rebuild mints a new
# token and the old entries age out of the bounded table.

_KERNELS: dict = {}
_KERNEL_CACHE_LIMIT = 256

#: Counters for the benchmarks and the zero-re-plan-after-rewire test.
KERNEL_STATS = {"plans": 0, "kernel_calls": 0, "cache_hits": 0}


def kernel_cache_stats() -> dict:
    """A snapshot of the kernel cache counters (plus current size)."""
    stats = dict(KERNEL_STATS)
    stats["entries"] = len(_KERNELS)
    return stats


def reset_kernel_stats() -> None:
    for key in KERNEL_STATS:
        KERNEL_STATS[key] = 0


def clear_kernel_cache() -> None:
    _KERNELS.clear()


def _kernel_for(network, program: SwitchProgram, entry: int) -> "_Kernel":
    key = (network._exec_program_key, program.switch, entry)
    kernel = _KERNELS.get(key)
    if kernel is not None and kernel.program is program:
        KERNEL_STATS["cache_hits"] += 1
        return kernel
    kernel = _Kernel(program, entry)
    _KERNELS[key] = kernel
    while len(_KERNELS) > _KERNEL_CACHE_LIMIT:
        _KERNELS.pop(next(iter(_KERNELS)))
    return kernel


# -- scalar predicates (must agree exactly with netasm._compile_test) ---------


def _value_predicate(test: FieldValueTest):
    """``f(value) -> bool`` mirroring the lowered closure's semantics."""
    value = test.value
    if isinstance(value, IPPrefix):
        network, mask = value.network, value.mask

        def prefix_pred(v):
            if type(v) is int:  # exact: bool is not an address
                return (v & mask) == network
            return matches(v, value)

        return prefix_pred
    return lambda v: v == value


# -- the per-(program, entry) kernel ------------------------------------------


class _Kernel:
    """Static plan + persistent value vocabulary for one resolved entry.

    The *vocabulary* interns every distinct field value seen in any batch
    (keyed ``(type, value)`` so ``1``, ``1.0`` and ``True`` keep distinct
    codes; cross-type equality is resolved per distinct *pair* in
    field-field tests).  Test results are memoized per code in lookup
    arrays, so a test runs its scalar predicate once per distinct value
    ever seen, not once per packet.
    """

    __slots__ = (
        "program", "entry", "vectorizable", "reason", "topo", "ops",
        "fields", "delta_vars", "has_fork", "vocab", "reps",
        "_lut_vals", "_lut_known", "_pair_luts", "lock",
    )

    def __init__(self, program: SwitchProgram, entry: int):
        KERNEL_STATS["plans"] += 1
        self.program = program
        self.entry = entry
        self.vocab: dict = {}
        self.reps: list = []
        self._lut_vals: dict = {}   # branch op idx -> np.bool_ array
        self._lut_known: dict = {}  # branch op idx -> np.bool_ array
        self._pair_luts: dict = {}  # branch op idx -> {(c1, c2): bool}
        self.lock = threading.Lock()
        self._analyze()

    # -- static analysis ---------------------------------------------------

    def _analyze(self) -> None:
        instructions = self.program.instructions
        self.vectorizable = True
        self.reason = None
        self.has_fork = False
        fields: set = {"outport"}
        delta_vars: set = set()
        ops: dict = {}

        # Iterative DFS with postorder collection: reversed postorder is
        # a topological order of the reachable op DAG, which every
        # root-to-terminal path traverses in program order (instruction
        # indices are NOT topological — the compiler memoizes shared
        # subtrees at arbitrary positions).
        order: list = []
        state: dict = {}  # idx -> 1 (on stack) | 2 (done)
        stack = [(self.entry, False)]
        while stack:
            idx, processed = stack.pop()
            if processed:
                state[idx] = 2
                order.append(idx)
                continue
            mark = state.get(idx)
            if mark is not None:
                continue
            state[idx] = 1
            stack.append((idx, True))
            instr = instructions[idx]
            succ: tuple = ()
            if isinstance(instr, IBranch):
                test = instr.test
                if isinstance(test, StateVarTest):
                    self._refuse(f"state test on {test.var!r}")
                elif isinstance(test, FieldValueTest):
                    fields.add(test.field)
                    ops[idx] = (
                        "fv", test.field, _value_predicate(test),
                        instr.on_true, instr.on_false,
                    )
                else:
                    fields.add(test.field1)
                    fields.add(test.field2)
                    ops[idx] = (
                        "ff", test.field1, test.field2,
                        instr.on_true, instr.on_false,
                    )
                succ = (instr.on_true, instr.on_false)
            elif isinstance(instr, ISet):
                fields.add(instr.field)
                ops[idx] = ("set", instr.field, self.intern(instr.value))
                succ = (idx + 1,)
            elif isinstance(instr, IStateDelta):
                delta_vars.add(instr.var)
                index_spec = []
                for expr in instr.index:
                    if isinstance(expr, ast.Field):
                        fields.add(expr.name)
                        index_spec.append(("f", expr.name))
                    else:
                        index_spec.append(("v", self.intern(expr.value)))
                ops[idx] = (
                    "delta", instr.var, tuple(index_spec), instr.delta,
                )
                succ = (idx + 1,)
            elif isinstance(instr, IJump):
                ops[idx] = ("jump", instr.target)
                succ = (instr.target,)
            elif isinstance(instr, IFork):
                self.has_fork = True
                ops[idx] = ("fork", instr.targets)
                succ = instr.targets
            elif isinstance(instr, IEmit):
                ops[idx] = ("emit",)
            elif isinstance(instr, IDrop):
                ops[idx] = ("drop",)
            elif isinstance(instr, IPause):
                self._refuse(f"pause on {instr.var!r}")
            elif isinstance(instr, IStateWrite):
                self._refuse(f"state write to {instr.var!r}")
            else:  # pragma: no cover - exhaustive over the instruction set
                self._refuse(f"unknown instruction {instr!r}")
            for target in succ:
                if state.get(target) == 1:
                    # A cycle cannot arise from the xFDD compiler; refuse
                    # rather than mis-execute if one ever does.
                    self._refuse("cyclic control flow")
                    break
                stack.append((target, False))
            if not self.vectorizable:
                break
        order.reverse()
        self.topo = order
        self.ops = ops
        self.fields = tuple(sorted(fields))
        self.delta_vars = frozenset(delta_vars)

    def _refuse(self, reason: str) -> None:
        self.vectorizable = False
        self.reason = reason

    # -- value interning and test LUTs ------------------------------------

    def intern(self, value) -> int:
        """The value's code (``(type, value)``-keyed, see class docstring)."""
        key = (value.__class__, value)
        code = self.vocab.get(key)
        if code is None:
            code = len(self.reps)
            self.vocab[key] = code
            self.reps.append(value)
        return code

    def _luts_for(self, op_idx: int):
        cap = len(self.reps)
        vals = self._lut_vals.get(op_idx)
        if vals is None or len(vals) < cap:
            grown_vals = np.zeros(cap, dtype=bool)
            grown_known = np.zeros(cap, dtype=bool)
            if vals is not None:
                grown_vals[: len(vals)] = vals
                grown_known[: len(vals)] = self._lut_known[op_idx]
            self._lut_vals[op_idx] = vals = grown_vals
            self._lut_known[op_idx] = grown_known
        return vals, self._lut_known[op_idx]

    def value_mask(self, op_idx: int, codes):
        """Field-value test over a code column, via the per-code LUT."""
        vals, known = self._luts_for(op_idx)
        unique = np.unique(codes)
        missing = unique[~known[unique]]
        if len(missing):
            pred = self.ops[op_idx][2]
            reps = self.reps
            for code in missing.tolist():
                vals[code] = pred(reps[code])
                known[code] = True
        return vals[codes]

    def pair_mask(self, op_idx: int, codes1, codes2):
        """Field-field equality, resolved once per distinct code pair.

        Code equality alone would miss cross-type equalities (``1 ==
        True``), so each distinct pair is compared through the actual
        representative values.
        """
        lut = self._pair_luts.get(op_idx)
        if lut is None:
            lut = self._pair_luts[op_idx] = {}
        span = len(self.reps)
        combined = codes1 * span + codes2
        unique = np.unique(combined)
        reps = self.reps
        verdicts = np.empty(len(unique), dtype=bool)
        for position, combo in enumerate(unique.tolist()):
            c1, c2 = divmod(combo, span)
            verdict = lut.get((c1, c2))
            if verdict is None:
                verdict = lut[(c1, c2)] = reps[c1] == reps[c2]
            verdicts[position] = verdict
        return verdicts[np.searchsorted(unique, combined)]


# -- transitive state footprint of a scalar entry -----------------------------


def _touched_vars(network, program: SwitchProgram, entry: int) -> frozenset:
    """Every state variable a run entered at ``entry`` can read or write,
    followed transitively through PAUSE into the owner switches'
    programs.  Used to prove vectorized and fallback rows disjoint."""
    memo = getattr(network, "_vector_var_memo", None)
    if memo is None:
        memo = network._vector_var_memo = {}
    key = (program.switch, entry)
    cached = memo.get(key)
    if cached is not None:
        return cached
    memo[key] = frozenset()  # cycle guard; overwritten below
    touched: set = set()
    seen: set = set()
    stack = [(program, entry)]
    while stack:
        prog, idx = stack.pop()
        walk_key = (prog.switch, idx)
        if walk_key in seen:
            continue
        seen.add(walk_key)
        instr = prog.instructions[idx]
        if isinstance(instr, IBranch):
            if isinstance(instr.test, StateVarTest):
                touched.add(instr.test.var)
            stack.append((prog, instr.on_true))
            stack.append((prog, instr.on_false))
        elif isinstance(instr, (IStateWrite, IStateDelta)):
            touched.add(instr.var)
            stack.append((prog, idx + 1))
        elif isinstance(instr, ISet):
            stack.append((prog, idx + 1))
        elif isinstance(instr, IJump):
            stack.append((prog, instr.target))
        elif isinstance(instr, IFork):
            for target in instr.targets:
                stack.append((prog, target))
        elif isinstance(instr, IPause):
            touched.add(instr.var)
            owner = network.placement.get(instr.var)
            owner_program = network.switches.get(owner)
            if owner_program is not None:
                resumed = owner_program.entries.get(instr.tag)
                if resumed is not None:
                    stack.append((owner_program, resumed))
        # IEmit / IDrop terminate the walk.
    result = frozenset(touched)
    memo[key] = result
    return result


def _commutable_vars(network) -> frozenset:
    """Variables whose deltas commute with *everything* else in the
    program: the same delta-eligibility predicate state-compute
    replication uses (:func:`repro.dataplane.replication
    .replicable_delta_vars` — increment-only, never state-tested,
    integer default), so the vector fast path and the replica planner
    always agree on which variables tolerate reordering.  Cached per
    compiled diagram (root identity), like the shard-plan cache."""
    index = network.index
    root = index.root if index is not None else None
    cached = getattr(network, "_vector_commute_memo", None)
    if cached is not None and cached[0] is root:
        return cached[1]
    if root is None:
        result = frozenset()
    else:
        from repro.dataplane.replication import replicable_delta_vars

        result = replicable_delta_vars(
            root, getattr(network, "state_defaults", {})
        )
    network._vector_commute_memo = (root, result)
    return result


# -- one vector group's batch state -------------------------------------------


class _GroupRun:
    """Columns, frames, and deferred events for one (switch, entry) group.

    A *frame* is ``(idx, overlays, okeys)``: the active rows (positions
    into this group's columns), the SET-modified columns, and — only once
    a FORK has run — each row copy's fork-path order key.  Frames flow
    through the op DAG in topological order (:meth:`run`).
    """

    __slots__ = (
        "kernel", "rows", "gidx", "port_list", "base_fields", "cols",
        "idx0", "delta_events", "terminals", "_seq",
    )

    def __init__(self, kernel: _Kernel, rows):
        self.kernel = kernel
        self.rows = rows  # [(global_index, packet, port)] in arrival order
        self.gidx = [row[0] for row in rows]
        self.port_list = [row[2] for row in rows]
        self.base_fields = [row[1]._fields for row in rows]
        self.cols = {}
        self.idx0 = np.arange(len(rows), dtype=np.int64)
        self.delta_events: list = []
        self.terminals: list = []
        self._seq = 0

    def col(self, field: str):
        """The field's base column, interned on first read.

        Lazy on purpose: a field that is always SET before it is read
        (``outport`` under an egress-assignment stage, typically) never
        pays for interning its base values at all.
        """
        column = self.cols.get(field)
        if column is None:
            n = len(self.rows)
            if field == "inport" or field == SNAP_INPORT:
                values = self.port_list
            elif field == SNAP_NODE:
                values = [ROOT_TAG] * n
            elif field == SNAP_OUTPORT:
                values = [None] * n
            else:
                base = self.base_fields
                values = [fields.get(field) for fields in base]
            intern = self.kernel.intern
            column = np.fromiter(
                (intern(v) for v in values), dtype=np.int64, count=n
            )
            self.cols[field] = column
        return column

    # -- frame primitives --------------------------------------------------

    def cat(self, parts):
        """Merge the frames arriving at one op (a DAG join point)."""
        if len(parts) == 1:
            return parts[0]
        idx = np.concatenate([part[0] for part in parts])
        overlay_fields: set = set()
        for part in parts:
            overlay_fields.update(part[1])
        overlays = {}
        col = self.col
        for field in overlay_fields:
            pieces = [
                part[1][field] if field in part[1] else col(field)[part[0]]
                for part in parts
            ]
            overlays[field] = np.concatenate(pieces)
        okeys = None
        if any(part[2] is not None for part in parts):
            okeys = []
            for part in parts:
                okeys.extend(
                    part[2] if part[2] is not None else [()] * len(part[0])
                )
        return (idx, overlays, okeys)

    def sel(self, frame, mask):
        idx, overlays, okeys = frame
        selected = {field: arr[mask] for field, arr in overlays.items()}
        if okeys is not None:
            okeys = [okeys[i] for i in np.flatnonzero(mask).tolist()]
        return (idx[mask], selected, okeys)

    def codes(self, frame, field):
        overlay = frame[1].get(field)
        if overlay is not None:
            return overlay
        return self.col(field)[frame[0]]

    def test(self, op_idx: int, frame):
        kernel = self.kernel
        spec = kernel.ops[op_idx]
        if spec[0] == "fv":
            return kernel.value_mask(op_idx, self.codes(frame, spec[1]))
        return kernel.pair_mask(
            op_idx, self.codes(frame, spec[1]), self.codes(frame, spec[2])
        )

    def set_field(self, frame, field: str, code: int):
        idx, overlays, okeys = frame
        overlays = dict(overlays)
        overlays[field] = np.full(len(idx), code, dtype=np.int64)
        return (idx, overlays, okeys)

    def fork_ok(self, frame, target_index: int):
        idx, overlays, okeys = frame
        if okeys is None:
            forked = [(target_index,)] * len(idx)
        else:
            forked = [okey + (target_index,) for okey in okeys]
        return (idx, overlays, forked)

    def delta(self, op_idx: int, frame) -> None:
        _, var, index_spec, delta = self.kernel.ops[op_idx]
        idx = frame[0]
        key_cols = tuple(
            self.codes(frame, spec[1])
            if spec[0] == "f"
            else np.full(len(idx), spec[1], dtype=np.int64)
            for spec in index_spec
        )
        self.delta_events.append(
            (self, self._seq, var, key_cols, delta, idx, frame[2])
        )
        self._seq += 1

    # -- the executor ------------------------------------------------------

    def run(self) -> None:
        kernel = self.kernel
        ops = kernel.ops
        pending: dict = {kernel.entry: [(self.idx0, {}, None)]}
        for op_idx in kernel.topo:
            parts = pending.pop(op_idx, None)
            if not parts:
                continue
            frame = self.cat(parts)
            spec = ops[op_idx]
            tag = spec[0]
            if tag == "fv" or tag == "ff":
                mask = self.test(op_idx, frame)
                on_true, on_false = spec[-2], spec[-1]
                if mask.all():
                    pending.setdefault(on_true, []).append(frame)
                elif not mask.any():
                    pending.setdefault(on_false, []).append(frame)
                else:
                    pending.setdefault(on_true, []).append(
                        self.sel(frame, mask)
                    )
                    pending.setdefault(on_false, []).append(
                        self.sel(frame, ~mask)
                    )
            elif tag == "set":
                pending.setdefault(op_idx + 1, []).append(
                    self.set_field(frame, spec[1], spec[2])
                )
            elif tag == "delta":
                self.delta(op_idx, frame)
                pending.setdefault(op_idx + 1, []).append(frame)
            elif tag == "jump":
                pending.setdefault(spec[1], []).append(frame)
            elif tag == "fork":
                for target_index, target in enumerate(spec[1]):
                    pending.setdefault(target, []).append(
                        self.fork_ok(frame, target_index)
                    )
            else:  # emit / drop
                self.terminals.append((tag, frame))


# -- the vector lane ----------------------------------------------------------


class VectorLane:
    """One shard's columnar execution lane (drop-in for ``_Lane``).

    Same contract as the scalar lane: :meth:`run` returns
    ``({global_index: [DeliveryRecord]}, {link: count})`` with exactly
    the records, ordering, and counters the sequential engine produces.
    """

    __slots__ = ("network", "shard", "batch", "_scalar", "_counter")

    def __init__(self, network, shard: Shard, batch):
        self.network = network
        self.shard = shard
        self.batch = batch
        self._scalar = _Lane(network, shard, [])
        self._counter = 0

    # -- group planning ----------------------------------------------------

    def _resolve_groups(self):
        """Split the batch by resolved ``(switch, entry)``; returns
        ``(groups, group_of_port)`` where groups maps ``(switch, entry)``
        to ``(program, rows)``."""
        net = self.network
        ports = net.topology.ports
        switches = net.switches
        resolved: dict = {}  # port -> (switch, entry, program)
        groups: dict = {}
        for row in self.batch:
            _, packet, port = row
            cached = resolved.get(port)
            if cached is None:
                switch = ports[port]
                program = switches[switch]
                fields = dict(packet._fields)
                fields["inport"] = port
                fields[SNAP_INPORT] = port
                fields[SNAP_NODE] = ROOT_TAG
                tagged = Packet.__new__(Packet)
                tagged._fields = fields
                tagged._hash = None
                entry = program.resolve_inport_entry(ROOT_TAG, tagged, port)
                cached = resolved[port] = (switch, entry, program)
            switch, entry, program = cached
            bucket = groups.get((switch, entry))
            if bucket is None:
                bucket = groups[(switch, entry)] = (program, [])
            bucket[1].append(row)
        return groups, resolved

    def run(self):
        if np is None or not self.batch:
            if np is None and self.batch:
                _demote("no-numpy", len(self.batch))
            self._scalar.batch = self.batch
            return self._scalar.run()
        net = self.network
        groups, resolved = self._resolve_groups()
        vector_groups = []
        fallback_keys: set = set()
        for group_key, (program, rows) in groups.items():
            kernel = _kernel_for(net, program, group_key[1])
            if kernel.vectorizable:
                vector_groups.append((kernel, rows))
            else:
                fallback_keys.add(group_key)
                _demote("non-vectorizable", len(rows))
        if not vector_groups:
            self._scalar.batch = self.batch
            return self._scalar.run()
        if fallback_keys:
            vector_vars = frozenset().union(
                *(kernel.delta_vars for kernel, _ in vector_groups)
            )
            fallback_vars = frozenset().union(
                *(
                    _touched_vars(net, groups[key][0], key[1])
                    for key in fallback_keys
                )
            )
            overlap = vector_vars & fallback_vars
            if overlap and not overlap <= _commutable_vars(net):
                # Deferred deltas cannot be reordered around scalar rows
                # that share state: the whole batch runs scalar — unless
                # the effect analysis proves every overlapping variable
                # increment-only and never read, so the deltas commute
                # with anything the scalar rows can do.
                _demote("state-overlap", len(self.batch))
                self._scalar.batch = self.batch
                return self._scalar.run()

        results: dict = {}
        out: dict = {}  # global_index -> [(phase, okey, counter, record)]
        delta_events: list = []
        try:
            for kernel, rows in vector_groups:
                with kernel.lock:
                    run = _GroupRun(kernel, rows)
                    run.run()
                    KERNEL_STATS["kernel_calls"] += 1
                    delta_events.extend(run.delta_events)
                    self._collect_records(run, out, results)
        except TypeError:
            # An unhashable field value cannot be interned: the columnar
            # form does not apply — rerun everything on the scalar lane
            # (no state was touched yet; deltas are deferred).
            _demote("unhashable-field", len(self.batch))
            self._scalar = _Lane(self.network, self.shard, self.batch)
            return self._scalar.run()
        _apply_delta_events(delta_events)
        for gidx, entries in out.items():
            if len(entries) == 1:
                results[gidx] = [entries[0][3]]
            else:
                entries.sort(key=lambda entry: entry[:3])
                results[gidx] = [entry[3] for entry in entries]
        if fallback_keys:
            fallback_ports = {
                port
                for port, (switch, entry, _) in resolved.items()
                if (switch, entry) in fallback_keys
            }
            self._scalar.batch = [
                row for row in self.batch if row[2] in fallback_ports
            ]
        else:
            self._scalar.batch = []
        fallback_results, links = self._scalar.run()
        results.update(fallback_results)
        sampler = postcards.active_sampler()
        if sampler is not None:
            # No per-packet interpreter to hang events on: sampled rows
            # that ran columnar get a delivery-level summary postcard.
            # (Fallback rows already produced full postcards inside the
            # scalar lane's own sampling hook.)
            for _, rows in vector_groups:
                for gidx, _packet, port in rows:
                    if sampler.should(gidx):
                        postcards.record_summary(
                            gidx, port, results.get(gidx, ()), "vector"
                        )
        return results, links

    # -- record materialization -------------------------------------------

    def _segment(self, switch: str, ingress: int, egress: int):
        key = (switch, ingress, egress, DONE_TAG)
        scalar = self._scalar
        segment = scalar._segments.get(key)
        if segment is None:
            segment = scalar._walk(switch, ingress, egress, DONE_TAG)
            scalar._segments[key] = segment
        return key, segment

    def _collect_records(self, run: _GroupRun, out: dict,
                         results: dict) -> None:
        kernel = run.kernel
        switch = kernel.program.switch
        ports = self.network.topology.ports
        reps = kernel.reps
        seg_counts = self._scalar._seg_counts
        # Fork-free programs produce exactly one record per row, so
        # record ordering is trivial: write the finished singleton lists
        # straight into ``results`` and skip the order-entry machinery.
        direct = not kernel.has_fork
        for kind, frame in run.terminals:
            idx, overlays, okeys = frame
            idx_list = idx.tolist()
            mods = [
                (arr.tolist(), field) for field, arr in overlays.items()
            ]
            dropping = kind == "drop"
            if dropping:
                route = None
            else:
                # Classify each distinct egress value once.
                out_codes = run.codes(frame, "outport").tolist()
                route = {}
                for code in set(out_codes):
                    egress = reps[code]
                    if egress is None or egress not in ports:
                        route[code] = ("invalid", None, 0, None)
                    elif ports[egress] == switch:
                        route[code] = ("local", egress, 0, None)
                    else:
                        route[code] = ("remote", egress, None, {})
            gidx = run.gidx
            port_list = run.port_list
            base_fields = run.base_fields
            counter = self._counter
            for position, row in enumerate(idx_list):
                port = port_list[row]
                if dropping:
                    cls, egress, hops = "invalid", None, 0
                else:
                    cls, egress, hops, seg_cache = route[out_codes[position]]
                    if cls == "remote":
                        cached = seg_cache.get(port)
                        if cached is None:
                            key, segment = self._segment(switch, port, egress)
                            hops = len(segment[1])
                            if hops > MAX_HOPS:
                                raise DataPlaneError(
                                    "packet exceeded hop limit "
                                    "(routing loop?)"
                                )
                            cached = seg_cache[port] = (key, hops)
                        key, hops = cached
                        seg_counts[key] = seg_counts.get(key, 0) + 1
                fields = dict(base_fields[row])
                fields["inport"] = port
                for values, field in mods:
                    fields[field] = reps[values[position]]
                if cls == "invalid":
                    # Drops and invalid egresses keep the SNAP headers,
                    # exactly like the scalar interpreter's packets.
                    fields[SNAP_INPORT] = port
                    fields[SNAP_NODE] = ROOT_TAG
                    egress = None
                packet = Packet.__new__(Packet)
                packet._fields = fields
                packet._hash = None
                record = DeliveryRecord(packet, egress, hops)
                if direct:
                    results[gidx[row]] = [record]
                    continue
                phase = 1 if cls == "remote" else 0
                okey = okeys[position] if okeys is not None else ()
                entry = (phase, okey, counter, record)
                counter += 1
                bucket = out.get(gidx[row])
                if bucket is None:
                    out[gidx[row]] = [entry]
                else:
                    bucket.append(entry)
            self._counter = counter


# -- deferred state-delta application -----------------------------------------


def _apply_delta_events(events: list) -> None:
    """Apply the deferred STDELTA events byte-identically.

    Fast path: when every delta is an integer and every touched entry
    currently holds an integer (or is unset with an integer-or-None
    default), increments commute exactly — group them per state key and
    apply one write per key.  Otherwise (float values, corrupted
    tables), replay every event one by one in the sequential engine's
    exact order — ``(arrival, fork path, program order)`` — so float
    associativity and mid-batch errors reproduce bit-for-bit.
    """
    if not events:
        return
    prepared = []
    groupable = True
    for run, seq, var_name, key_cols, delta, idx, okeys in events:
        variable = run.kernel.program.store.variable(var_name)
        reps = run.kernel.reps
        if len(key_cols) == 1:
            unique, counts = np.unique(key_cols[0], return_counts=True)
            keys = [(reps[code],) for code in unique.tolist()]
        else:
            stacked = np.column_stack(key_cols)
            unique, counts = np.unique(stacked, axis=0, return_counts=True)
            keys = [
                tuple(reps[code] for code in row)
                for row in unique.tolist()
            ]
        prepared.append((variable, keys, counts.tolist()))
        if groupable:
            if not isinstance(delta, int):
                groupable = False
            else:
                table = variable._table
                default = variable.default
                for key in keys:
                    current = table.get(key, default)
                    if current is None:
                        continue
                    if isinstance(current, int) and not isinstance(
                        current, bool
                    ):
                        continue
                    groupable = False
                    break
    if groupable:
        totals: dict = {}
        for position, (variable, keys, counts) in enumerate(prepared):
            delta = events[position][4]
            for key, count in zip(keys, counts):
                slot = (variable, key)
                totals[slot] = totals.get(slot, 0) + delta * count
        for (variable, key), total in totals.items():
            current = variable._table.get(key, variable.default)
            if current is None:
                current = 0
            variable._table[key] = current + total
        return
    # Exact replay: flatten to per-token events and sort into the order
    # the sequential interpreter would have applied them in.
    flat = []
    for run, seq, var_name, key_cols, delta, idx, okeys in events:
        variable = run.kernel.program.store.variable(var_name)
        reps = run.kernel.reps
        gidx = run.gidx
        idx_list = idx.tolist()
        columns = [col.tolist() for col in key_cols]
        for position, row in enumerate(idx_list):
            key = tuple(reps[column[position]] for column in columns)
            okey = okeys[position] if okeys is not None else ()
            flat.append((gidx[row], okey, seq, variable, key, delta))
    flat.sort(key=lambda event: event[:3])
    for _, _, _, variable, key, delta in flat:
        variable.increment(key, delta)


# -- engines and lane factory -------------------------------------------------


class VectorEngine(ShardedEngine):
    """The sharded lane planner with columnar lanes.

    Identical shard analysis, batching, deterministic merge, and failure
    contract as :class:`~repro.dataplane.engine.ShardedEngine`; each lane
    runs the vector tier (falling back per-group to the scalar lane, see
    the module docstring).  Stateless: kernels and vocabularies live in
    the module-level cache keyed by execution-program tokens, so fresh
    engine instances reuse warm kernels.
    """

    name = "vector"

    def __init__(self, max_workers: int | None = None,
                 replicate_state: bool | None = None):
        if np is None:
            raise DataPlaneError(
                "the vector engine requires numpy, which is not installed; "
                "use engine='sharded' (or install numpy)"
            )
        super().__init__(max_workers, replicate_state=replicate_state)

    def _make_lane(self, network, shard: Shard, batch):
        return VectorLane(network, shard, batch)


def make_vector_lane(network, shard: Shard, batch):
    """A lane for the cluster worker's opt-in (scalar when numpy is
    missing on the worker host — semantics are identical either way)."""
    if np is None:
        return _Lane(network, shard, batch)
    return VectorLane(network, shard, batch)
