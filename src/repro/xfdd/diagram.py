"""The xFDD data structure (Figure 6)::

    d ::= (t ? d1 : d2) | {as1, ..., asn}

A leaf is a *set of action sequences*: the empty set is ``drop``, the set
containing the empty sequence is ``id``.  Nodes are immutable and
hash-consed, so structurally equal diagrams are the same object.

Leaves validate the paper's §4.2 race rule on construction: "raising a
compile error if the final xFDD contains a leaf with parallel updates to
the same state variable."
"""

from __future__ import annotations

import weakref

from repro.lang.errors import RaceConditionError, SnapError
from repro.lang import ast
from repro.lang.packet import Packet
from repro.lang.state import Store
from repro.lang.values import matches
from repro.xfdd.actions import (
    DROP_ACTION,
    DropAction,
    FieldAssign,
    StateAssign,
    StateDelta,
    seq_written_vars,
)
from repro.xfdd.tests import FieldFieldTest, FieldValueTest, StateVarTest, XTest


class XFDD:
    """Base class; nodes are interned — compare with ``is`` or ``==``."""

    __slots__ = ("_tested_vars", "_written_vars", "_size")

    def tested_state_vars(self) -> frozenset:
        raise NotImplementedError

    def written_state_vars(self) -> frozenset:
        raise NotImplementedError


class Leaf(XFDD):
    """A set of parallel action sequences."""

    __slots__ = ("seqs", "_ordered")

    def __init__(self, seqs: frozenset):
        object.__setattr__(self, "seqs", seqs)
        object.__setattr__(self, "_tested_vars", frozenset())
        written = frozenset()
        for seq in seqs:
            written |= seq_written_vars(seq)
        object.__setattr__(self, "_written_vars", written)
        object.__setattr__(self, "_size", 1)
        object.__setattr__(self, "_ordered", None)

    def tested_state_vars(self):
        return self._tested_vars

    def written_state_vars(self):
        return self._written_vars

    def ordered_seqs(self) -> tuple:
        """The sequences in deterministic order, computed once per leaf."""
        ordered = self._ordered
        if ordered is None:
            ordered = tuple(sorted(self.seqs, key=repr))
            object.__setattr__(self, "_ordered", ordered)
        return ordered

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def __repr__(self):
        if not self.seqs:
            return "{drop}"
        parts = []
        for seq in sorted(self.seqs, key=repr):
            parts.append("id" if not seq else ";".join(repr(a) for a in seq))
        return "{" + ", ".join(parts) + "}"


class Branch(XFDD):
    """``(test ? hi : lo)``."""

    __slots__ = ("test", "hi", "lo")

    def __init__(self, test: XTest, hi: XFDD, lo: XFDD):
        object.__setattr__(self, "test", test)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo", lo)
        tested = hi.tested_state_vars() | lo.tested_state_vars()
        if isinstance(test, StateVarTest):
            tested |= frozenset((test.var,))
        object.__setattr__(self, "_tested_vars", tested)
        object.__setattr__(
            self, "_written_vars", hi.written_state_vars() | lo.written_state_vars()
        )
        object.__setattr__(self, "_size", 1 + hi._size + lo._size)

    def tested_state_vars(self):
        return self._tested_vars

    def written_state_vars(self):
        return self._written_vars

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def __repr__(self):
        return f"({self.test!r} ? {self.hi!r} : {self.lo!r})"


def _common_prefix_len(a: tuple, b: tuple) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _check_leaf_races(seqs: frozenset) -> None:
    """Reject leaves where two parallel sequences write one variable.

    Sequences in a leaf share the actions of the sequential part of the
    program as a literal common prefix (``p; (q1 + q2)`` flattens to
    ``{p·q1, p·q2}``).  Writes inside that common prefix happened *before*
    the parallel split and are not races; only writes past the common
    prefix belong to genuinely parallel branches, and two such writes to
    the same variable are the write/write conflict §3 leaves undefined.
    """
    ordered = sorted(seqs, key=repr)
    for i, seq_a in enumerate(ordered):
        for seq_b in ordered[i + 1 :]:
            prefix = _common_prefix_len(seq_a, seq_b)
            written_a = seq_written_vars(seq_a[prefix:])
            written_b = seq_written_vars(seq_b[prefix:])
            conflict = written_a & written_b
            if conflict:
                raise RaceConditionError(
                    f"parallel action sequences both write state "
                    f"variable(s) {sorted(conflict)}: {seq_a!r} and {seq_b!r}"
                )


def _normalize_seq(seq: tuple) -> tuple:
    """Truncate after a drop; a dropping sequence without state writes is
    just ``(drop,)`` (its field modifications die with the packet)."""
    out = []
    for action in seq:
        out.append(action)
        if isinstance(action, DropAction):
            break
    if out and isinstance(out[-1], DropAction) and not seq_written_vars(tuple(out)):
        return (DROP_ACTION,)
    return tuple(out)


class DiagramFactory:
    """Session-scoped hash-consing table for xFDD nodes.

    Nodes built by one factory are interned in its table, so structurally
    equal diagrams are the same object *within* that factory's session.
    Branch intern keys reference child nodes by ``id()``; this is sound
    because every interned node is pinned by the table itself (a Branch
    holds strong references to its children, and the table holds the
    Branch), so an id can never be recycled while the factory is alive.
    The flip side: ``clear()`` invalidates every diagram the factory has
    produced — do not mix nodes from before and after a ``clear()``, and
    do not mix nodes from two different factories (the global ``DROP`` /
    ``IDENTITY`` singletons, pre-seeded into every factory, are the one
    sanctioned exception).

    The compiler creates one factory per compilation, which bounds intern
    table growth to a single compilation's working set (the old module
    global grew unboundedly across compilations and could only have been
    cleared at the cost of the id-aliasing hazard above).
    """

    __slots__ = ("_intern", "leaf_hits", "leaf_misses", "branch_hits",
                 "branch_misses", "_composers", "__weakref__")

    def __init__(self):
        self._intern: dict = {}
        self.leaf_hits = 0
        self.leaf_misses = 0
        self.branch_hits = 0
        self.branch_misses = 0
        # Composers bound to this factory; their id()-keyed apply-caches
        # are only sound while the intern table pins the ids, so clear()
        # must invalidate them too.
        self._composers: weakref.WeakSet = weakref.WeakSet()
        self._seed()

    def _seed(self) -> None:
        # Share the canonical predicate leaves across factories so the
        # pervasive ``d is DROP`` / ``d is IDENTITY`` checks stay valid.
        if DROP is not None:
            self._intern[("leaf", DROP.seqs)] = DROP
            self._intern[("leaf", IDENTITY.seqs)] = IDENTITY

    def leaf(self, seqs) -> Leaf:
        """Interned leaf constructor with normalization and race validation.

        Normalization: ``(drop,)`` alone denotes the drop leaf; alongside
        other sequences it is redundant (a parallel branch that does
        nothing) and is removed.  The empty set is canonicalized to
        ``{(drop,)}``.
        """
        normalized = {_normalize_seq(tuple(seq)) for seq in seqs}
        if len(normalized) > 1:
            normalized.discard((DROP_ACTION,))
        if not normalized:
            normalized = {(DROP_ACTION,)}
        seqs = frozenset(normalized)
        key = ("leaf", seqs)
        node = self._intern.get(key)
        if node is None:
            self.leaf_misses += 1
            _check_leaf_races(seqs)
            node = Leaf(seqs)
            self._intern[key] = node
        else:
            self.leaf_hits += 1
        return node

    def branch(self, test: XTest, hi: XFDD, lo: XFDD) -> XFDD:
        """Interned branch constructor; collapses ``(t ? d : d)`` to ``d``."""
        if hi is lo:
            return hi
        key = ("branch", test, id(hi), id(lo))
        node = self._intern.get(key)
        if node is None:
            self.branch_misses += 1
            node = Branch(test, hi, lo)
            self._intern[key] = node
        else:
            self.branch_hits += 1
        return node

    def register_composer(self, composer) -> None:
        """Track a composer whose apply-cache keys on this factory's ids."""
        self._composers.add(composer)

    def clear(self) -> None:
        """Drop every interned node (keeps the DROP/IDENTITY singletons).

        Diagrams built before the clear must not be composed with diagrams
        built after it — see the class docstring.  Apply-caches of
        composers bound to this factory are invalidated along with the
        table: their id()-based keys could otherwise alias nodes built
        after the clear.
        """
        self._intern.clear()
        for composer in self._composers:
            composer.clear_cache()
        self._seed()

    def stats(self) -> dict:
        return {
            "intern_size": len(self._intern),
            "leaf_hits": self.leaf_hits,
            "leaf_misses": self.leaf_misses,
            "branch_hits": self.branch_hits,
            "branch_misses": self.branch_misses,
        }

    def __len__(self) -> int:
        return len(self._intern)


# Bootstrap: the default factory exists before DROP/IDENTITY, so _seed()
# skips them on this first construction; they are interned normally below.
DROP = None
IDENTITY = None
_DEFAULT_FACTORY = DiagramFactory()


def default_factory() -> DiagramFactory:
    """The module-wide factory behind :func:`make_leaf`/:func:`make_branch`.

    Tests and ad-hoc construction go through this shared table; the
    compiler scopes a fresh :class:`DiagramFactory` to each compilation.
    """
    return _DEFAULT_FACTORY


def make_leaf(seqs) -> Leaf:
    """Interned leaf constructor on the default factory."""
    return _DEFAULT_FACTORY.leaf(seqs)


def make_branch(test: XTest, hi: XFDD, lo: XFDD) -> XFDD:
    """Interned branch constructor on the default factory."""
    return _DEFAULT_FACTORY.branch(test, hi, lo)


DROP: Leaf = make_leaf([(DROP_ACTION,)])
IDENTITY: Leaf = make_leaf([()])


def is_predicate_diagram(d: XFDD) -> bool:
    """True when every leaf is {id} or {drop} (required by ⊖)."""
    stack = [d]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            if node is not DROP and node is not IDENTITY:
                return False
        else:
            stack.append(node.hi)
            stack.append(node.lo)
    return True


# ---------------------------------------------------------------------------
# Evaluation — the xFDD must agree with the Appendix A semantics.
# ---------------------------------------------------------------------------


def _eval_scalar(expr, packet: Packet):
    if isinstance(expr, ast.Field):
        return packet.get(expr.name)
    return expr.value


def eval_exprs(exprs: tuple, packet: Packet) -> tuple:
    return tuple(_eval_scalar(e, packet) for e in exprs)


def pack_value(values: tuple):
    """Scalar state values are stored unwrapped, vectors as tuples —
    matching :func:`repro.lang.semantics.eval_expr`."""
    return values[0] if len(values) == 1 else values


def eval_test(test: XTest, packet: Packet, store: Store) -> bool:
    if isinstance(test, FieldValueTest):
        return matches(packet.get(test.field), test.value)
    if isinstance(test, FieldFieldTest):
        return packet.get(test.field1) == packet.get(test.field2)
    if isinstance(test, StateVarTest):
        key = eval_exprs(test.index, packet)
        want = pack_value(eval_exprs(test.value, packet))
        return store.read(test.var, key) == want
    raise SnapError(f"unknown test {test!r}")


def apply_action(action, packet: Packet, store: Store):
    """Apply one action; returns the (possibly new) packet or None on drop."""
    if isinstance(action, DropAction):
        return None
    if isinstance(action, FieldAssign):
        return packet.modify(action.field, action.value)
    if isinstance(action, StateAssign):
        key = eval_exprs(action.index, packet)
        store.write(action.var, key, pack_value(eval_exprs(action.value, packet)))
        return packet
    if isinstance(action, StateDelta):
        key = eval_exprs(action.index, packet)
        store.variable(action.var).increment(key, action.delta)
        return packet
    raise SnapError(f"unknown action {action!r}")


def apply_leaf(leaf: Leaf, packet: Packet, store: Store) -> list:
    """Execute a leaf's action-sequence set, mutating ``store``.

    The sequences of a leaf share the actions of the program's sequential
    part as common prefixes (``p; (q1 + q2)`` flattens to ``{p·q1, p·q2}``),
    so the set is executed as a *trie*: a shared prefix runs exactly once,
    and copies fork only where the sequences diverge.  Returns the emitted
    packets.
    """
    outputs: list = []

    def run(suffixes: list, pkt: Packet) -> None:
        remaining = []
        emitted = False
        for suffix in suffixes:
            if suffix:
                remaining.append(suffix)
            elif not emitted:
                outputs.append(pkt)
                emitted = True
        groups: dict = {}
        for suffix in remaining:
            groups.setdefault(suffix[0], []).append(suffix[1:])
        for action in sorted(groups, key=repr):
            next_pkt = apply_action(action, pkt, store)
            if next_pkt is not None:
                run(groups[action], next_pkt)

    run(leaf.ordered_seqs(), packet)
    return outputs


def apply_sequence(seq: tuple, packet: Packet, store: Store):
    """Run one action sequence, mutating ``store``.

    Returns the output packet, or None when the sequence drops it (state
    writes made before the drop persist).
    """
    for action in seq:
        packet = apply_action(action, packet, store)
        if packet is None:
            return None
    return packet


def evaluate(d: XFDD, packet: Packet, store: Store):
    """Evaluate the diagram on one packet.

    Returns ``(new_store, frozenset_of_packets)``.  The input store is not
    mutated.
    """
    node = d
    while isinstance(node, Branch):
        node = node.hi if eval_test(node.test, packet, store) else node.lo
    out_store = store.copy()
    outputs = apply_leaf(node, packet, out_store)
    return out_store, frozenset(outputs)


def iter_leaves(d: XFDD):
    """Yield every distinct leaf in the diagram."""
    seen = set()
    stack = [d]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Leaf):
            yield node
        else:
            stack.append(node.hi)
            stack.append(node.lo)


def iter_paths(d: XFDD):
    """Yield ``(path, leaf)`` pairs, where path is a tuple of
    ``(test, bool)`` decisions from the root."""
    stack = [((), d)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, Leaf):
            yield path, node
        else:
            stack.append((path + ((node.test, True),), node.hi))
            stack.append((path + ((node.test, False),), node.lo))


def size(d: XFDD) -> int:
    """Number of nodes along all paths (tree size, not DAG size)."""
    return d._size
