"""xFDD composition operators (Figures 7–8 and Appendix E).

* ``union``      — ⊕, used for ``p + q``, ``x | y`` and conditionals
* ``negate``     — ⊖, defined on predicate diagrams only
* ``sequence``   — ⊙, used for ``p ; q`` and ``x & y``
* ``restrict``   — ``d|t`` and ``d|~t`` from Figure 7

``union`` carries a :class:`~repro.xfdd.context.Context` and runs both
operands through ``refine`` at each step (Figure 8), which removes
redundant and contradicting tests, keeping the output canonical.

The hard case (§4.2: "The hardest case is surely for ⊙") is composing an
action sequence with a branch — Algorithm 1 of Appendix E — implemented in
:meth:`Composer._seq_actions`.  Our version additionally handles
``s[e]++``/``s[e]--`` actions preceding a state test on ``s``: the
accumulated increment ``delta`` is folded into the test's value (the test
``s[e] = c`` post-increment becomes ``s[e] = c - delta`` pre-increment),
which is exactly what Figure 3's xFDD does with
``susp-client[dstip] = threshold - 1``.

Race conditions (§3): ``union`` raises :class:`RaceConditionError` when a
leaf that writes a state variable is merged against a branch that tests
the same variable (a parallel read/write conflict); leaf construction
itself rejects parallel write/write conflicts.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import CompileError, RaceConditionError
from repro.xfdd.actions import (
    DropAction,
    StateAssign,
    StateDelta,
    field_map,
    state_ops_substituted,
)
from repro.xfdd.context import Context
from repro.xfdd.diagram import (
    DROP,
    IDENTITY,
    Branch,
    DiagramFactory,
    Leaf,
    XFDD,
    default_factory,
)
from repro.xfdd.order import TestOrder
from repro.xfdd.tests import FieldFieldTest, FieldValueTest, StateVarTest, XTest

#: Adaptive apply-cache opt-out.  The largest Table 3 compositions (the
#: TCP state machine, flow-size sampling, elephant-flow detection) front-
#: load their cache hits: once the shared shallow subproblems are done,
#: the remaining lookups are deep, context-specific, and almost never
#: recur — observed per-window hit rates collapse to ~1% while the cache
#: keeps paying ``ctx.cache_key()`` construction and dict hashing on
#: every call (the TCP state machine composes ~1.6x *slower* with the
#: cache than without it).  The composer therefore samples its hit rate
#: over each window of :data:`CACHE_BYPASS_WINDOW` lookups and switches
#: the cache off for the rest of the session when a window falls below
#: :data:`CACHE_BYPASS_THRESHOLD`.  Bypassing is semantically invisible
#: (the cache only memoizes; results are hash-consed by the factory
#: either way) and the already-populated cache is kept so counters stay
#: meaningful.  Workloads whose windows keep recurring subproblems —
#: every other Table 3 app stays in the 0.12–0.17 band per window —
#: never trip it.
CACHE_BYPASS_THRESHOLD = 0.11
CACHE_BYPASS_WINDOW = 1024


def _int_const(exprs: tuple):
    """The integer constant an expression tuple denotes, if any."""
    if len(exprs) == 1 and isinstance(exprs[0], ast.Value):
        value = exprs[0].value
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    return None


def _split_test(pair) -> XTest:
    """Build the equality test for an undecided expression pair."""
    r1, r2 = pair
    if isinstance(r1, ast.Field) and isinstance(r2, ast.Field):
        return FieldFieldTest(r1.name, r2.name)
    if isinstance(r1, ast.Field):
        return FieldValueTest(r1.name, r2.value)
    return FieldValueTest(r2.name, r1.value)


class Composer:
    """Composition engine bound to one test order and one node factory.

    Beyond the structural recursion of Figures 7–8, the engine keeps an
    *apply-cache* (in BDD terminology): results of ``union``, ``sequence``,
    ``negate``, ``restrict``, and the Algorithm 1 action-sequence helper are
    memoized keyed on ``(op, id(operands), ctx.cache_key())``.  Keying on
    ``id()`` is sound because operands are hash-consed by ``self.factory``,
    whose intern table pins them alive for the composer's lifetime, and
    equal context keys decide every implication question identically.
    (A content-digest key would add nothing: interning already makes
    equal diagrams the same object, so it finds the same hits at a
    higher price per lookup.)
    Without this cache, structurally identical subproblems recur
    exponentially often in deep compositions.

    Pass ``use_cache=False`` for a reference engine that recomputes
    everything; the property tests assert both produce the *same interned
    nodes* when sharing a factory.  A cached composer also watches its own
    hit rate and opts out mid-session when the workload's subproblems
    demonstrably never recur (see :data:`CACHE_BYPASS_THRESHOLD`);
    ``cache_stats()["cache_bypassed"]`` records that it did.
    """

    def __init__(
        self,
        order: TestOrder,
        factory: DiagramFactory | None = None,
        use_cache: bool = True,
    ):
        self.order = order
        self.factory = factory if factory is not None else default_factory()
        self.factory.register_composer(self)
        self.use_cache = use_cache
        self.cache_bypassed = False
        self._cache: dict = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self._hits_at_checkpoint = 0
        # Composer-scoped root: contexts memoize their children (see
        # Context.add), so rooting each composition session in a private
        # empty context keeps that memo tree from outliving the composer.
        self.root_context = Context()

    # -- apply-cache -------------------------------------------------------

    def cache_stats(self) -> dict:
        """Hit/size counters, merged with the factory's intern counters."""
        total = self.cache_hits + self.cache_misses
        stats = {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_entries": len(self._cache),
            "cache_hit_rate": self.cache_hits / total if total else 0.0,
            "cache_bypassed": self.cache_bypassed,
        }
        stats.update(self.factory.stats())
        return stats

    def reset_bypass(self) -> None:
        """Re-arm a tripped bypass for a fresh compilation.

        A persistent (cross-generation) composer that bypassed on one
        workload should give the cache a fresh window on the next, since
        incremental recompilation is exactly the regime where earlier
        entries recur.  The populated cache and lifetime counters are
        kept; only the sticky off-switch and the window checkpoint reset.
        """
        if self.cache_bypassed:
            self.cache_bypassed = False
            self.use_cache = True
            self._hits_at_checkpoint = self.cache_hits

    def _cache_lookup(self, key):
        """One cached-operation probe: count it, maybe trip the bypass.

        Returns the cached result or ``None``; the caller stores a fresh
        result under ``key`` on a miss.  Every probe advances exactly one
        counter, so the window boundary check visits each checkpoint
        exactly once; after a bypass the cached entry points stop calling
        this, freezing the counters at their trip-time values.
        """
        hit = self._cache.get(key)
        if hit is not None:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        total = self.cache_hits + self.cache_misses
        if total & (CACHE_BYPASS_WINDOW - 1) == 0:
            window_hits = self.cache_hits - self._hits_at_checkpoint
            self._hits_at_checkpoint = self.cache_hits
            if window_hits < CACHE_BYPASS_WINDOW * CACHE_BYPASS_THRESHOLD:
                self.use_cache = False
                self.cache_bypassed = True
        return hit

    def clear_cache(self) -> None:
        self._cache.clear()

    # -- refine (Figure 8) -------------------------------------------------

    def refine(self, d: XFDD, ctx: Context) -> XFDD:
        while isinstance(d, Branch):
            verdict = ctx.implies(d.test)
            if verdict is True:
                d = d.hi
            elif verdict is False:
                d = d.lo
            else:
                break
        return d

    # -- ⊕ union -----------------------------------------------------------

    def union(self, d1: XFDD, d2: XFDD, ctx: Context | None = None) -> XFDD:
        if ctx is None:
            ctx = self.root_context
        if not self.use_cache:
            return self._union(d1, d2, ctx)
        key = ("u", id(d1), id(d2), ctx.cache_key())
        hit = self._cache_lookup(key)
        if hit is not None:
            return hit
        result = self._union(d1, d2, ctx)
        self._cache[key] = result
        return result

    def _union(self, d1: XFDD, d2: XFDD, ctx: Context) -> XFDD:
        d1 = self.refine(d1, ctx)
        d2 = self.refine(d2, ctx)
        if d1 is d2:
            return d1
        if isinstance(d1, Leaf) and isinstance(d2, Leaf):
            return self.factory.leaf(d1.seqs | d2.seqs)
        if isinstance(d1, Leaf):
            d1, d2 = d2, d1
        if isinstance(d2, Leaf):
            self._check_read_write_race(d1, d2)
            test = d1.test
            hi = self.union(d1.hi, d2, ctx.add(test, True))
            lo = self.union(d1.lo, d2, ctx.add(test, False))
            return self.factory.branch(test, hi, lo)
        key1 = self.order.key(d1.test)
        key2 = self.order.key(d2.test)
        if key1 == key2:
            test = d1.test
            hi = self.union(d1.hi, d2.hi, ctx.add(test, True))
            lo = self.union(d1.lo, d2.lo, ctx.add(test, False))
            return self.factory.branch(test, hi, lo)
        if key2 < key1:
            d1, d2 = d2, d1
        test = d1.test
        hi = self.union(d1.hi, d2, ctx.add(test, True))
        lo = self.union(d1.lo, d2, ctx.add(test, False))
        return self.factory.branch(test, hi, lo)

    def _check_read_write_race(self, branch: Branch, leaf: Leaf) -> None:
        conflict = leaf.written_state_vars() & branch.tested_state_vars()
        if conflict:
            raise RaceConditionError(
                "parallel composition reads and writes state variable(s) "
                f"{sorted(conflict)}: write {leaf!r} races with a state test"
            )

    # -- ⊖ negation ----------------------------------------------------------

    def negate(self, d: XFDD) -> XFDD:
        if not self.use_cache:
            return self._negate(d)
        key = ("n", id(d))
        hit = self._cache_lookup(key)
        if hit is not None:
            return hit
        result = self._negate(d)
        self._cache[key] = result
        return result

    def _negate(self, d: XFDD) -> XFDD:
        if isinstance(d, Leaf):
            if d is DROP:
                return IDENTITY
            if d is IDENTITY:
                return DROP
            raise CompileError(
                f"negation applies only to predicates, found actions {d!r}"
            )
        return self.factory.branch(d.test, self.negate(d.hi), self.negate(d.lo))

    # -- restriction (Figure 7, d|t and d|~t) ---------------------------------

    def restrict(self, d: XFDD, test: XTest, positive: bool) -> XFDD:
        if not self.use_cache:
            return self._restrict(d, test, positive)
        key = ("r", id(d), test, positive)
        hit = self._cache_lookup(key)
        if hit is not None:
            return hit
        result = self._restrict(d, test, positive)
        self._cache[key] = result
        return result

    def _restrict(self, d: XFDD, test: XTest, positive: bool) -> XFDD:
        branch = self.factory.branch
        if isinstance(d, Leaf):
            if d is DROP:
                return DROP
            return branch(test, d, DROP) if positive else branch(test, DROP, d)
        if d.test == test:
            if positive:
                return branch(test, d.hi, DROP)
            return branch(test, DROP, d.lo)
        if self.order.key(test) < self.order.key(d.test):
            return branch(test, d, DROP) if positive else branch(test, DROP, d)
        return branch(
            d.test,
            self.restrict(d.hi, test, positive),
            self.restrict(d.lo, test, positive),
        )

    # -- ⊙ sequencing ----------------------------------------------------------

    def sequence(self, d1: XFDD, d2: XFDD, ctx: Context | None = None) -> XFDD:
        if ctx is None:
            ctx = self.root_context
        if not self.use_cache:
            return self._sequence(d1, d2, ctx)
        key = ("s", id(d1), id(d2), ctx.cache_key())
        hit = self._cache_lookup(key)
        if hit is not None:
            return hit
        result = self._sequence(d1, d2, ctx)
        self._cache[key] = result
        return result

    def _sequence(self, d1: XFDD, d2: XFDD, ctx: Context) -> XFDD:
        d1 = self.refine(d1, ctx)
        if isinstance(d1, Leaf):
            return self._seq_leaf(d1, d2, ctx)
        test = d1.test
        hi = self.sequence(d1.hi, d2, ctx.add(test, True))
        lo = self.sequence(d1.lo, d2, ctx.add(test, False))
        return self.union(
            self.restrict(hi, test, True),
            self.restrict(lo, test, False),
            ctx,
        )

    def _seq_leaf(self, leaf: Leaf, d: XFDD, ctx: Context) -> XFDD:
        """``{as1..asn} ⊙ d = (as1 ⊙ d) ⊕ ... ⊕ (asn ⊙ d)``."""
        result = DROP
        for seq in leaf.seqs:
            result = self.union(result, self._seq_actions(seq, d, ctx), ctx)
        return result

    def _seq_actions(self, seq: tuple, d: XFDD, ctx: Context) -> XFDD:
        if not self.use_cache:
            return self._seq_actions_impl(seq, d, ctx)
        key = ("a", seq, id(d), ctx.cache_key())
        hit = self._cache_lookup(key)
        if hit is not None:
            return hit
        result = self._seq_actions_impl(seq, d, ctx)
        self._cache[key] = result
        return result

    def _seq_actions_impl(self, seq: tuple, d: XFDD, ctx: Context) -> XFDD:
        """Algorithm 1 (Appendix E): compose an action sequence with ``d``."""
        if seq and isinstance(seq[-1], DropAction):
            # The left sequence already dropped the packet; d never runs.
            return self.factory.leaf({seq})
        if isinstance(d, Leaf):
            return self.factory.leaf({seq + rest for rest in d.seqs})
        fmap = field_map(seq)
        post = ctx.with_assignments(fmap)
        test = d.test
        if isinstance(test, FieldValueTest):
            return self._seq_fv(seq, d, ctx, post, test)
        if isinstance(test, FieldFieldTest):
            return self._seq_ff(seq, d, ctx, post, test)
        return self._seq_state(seq, d, ctx, post, test)

    def _seq_fv(self, seq, d, ctx, post, test: FieldValueTest) -> XFDD:
        verdict = post.implies(test)
        if verdict is True:
            return self._seq_actions(seq, d.hi, ctx)
        if verdict is False:
            return self._seq_actions(seq, d.lo, ctx)
        # Undecided: the field cannot have been assigned (assignments are
        # literal, hence decidable), so the test reads the original packet.
        hi = self._seq_actions(seq, d.hi, ctx.add(test, True))
        lo = self._seq_actions(seq, d.lo, ctx.add(test, False))
        return self.factory.branch(test, hi, lo)

    def _seq_ff(self, seq, d, ctx, post, test: FieldFieldTest) -> XFDD:
        verdict = post.implies(test)
        if verdict is True:
            return self._seq_actions(seq, d.hi, ctx)
        if verdict is False:
            return self._seq_actions(seq, d.lo, ctx)
        r1 = post.resolve_expr(ast.Field(test.field1))
        r2 = post.resolve_expr(ast.Field(test.field2))
        emitted = _split_test((r1, r2)) if not (
            isinstance(r1, ast.Field)
            and isinstance(r2, ast.Field)
            and r1.name == test.field1
            and r2.name == test.field2
        ) else test
        hi = self._seq_actions(seq, d.hi, ctx.add(emitted, True))
        lo = self._seq_actions(seq, d.lo, ctx.add(emitted, False))
        return self.factory.branch(emitted, hi, lo)

    def _seq_state(self, seq, d, ctx, post, test: StateVarTest) -> XFDD:
        """State-test case of Algorithm 1, extended with increment folding.

        Scan the sequence's writes to ``test.var`` newest-first.  Matching
        increments accumulate into ``delta``; a matching assignment decides
        the test (written value + delta vs. tested value); an undecidable
        index or value comparison splits on the equality test and retries
        with the enriched context.
        """
        ops = state_ops_substituted(seq, test.var)
        # Basis discipline: the test's expressions describe the packet
        # *after* the sequence's field assignments — resolve them with
        # ``post`` (assigned fields become literals).  The ops' expressions
        # were already rewritten by ``state_ops_substituted`` to refer to
        # the packet at the *start* of the sequence — resolve them with
        # ``ctx``.  After resolution, any remaining field is unassigned, so
        # both sides live in the pre-sequence world and may be compared
        # (and split tests emitted) there.
        index = post.resolve_exprs(test.index)
        target = post.resolve_exprs(test.value)
        delta = 0
        for op in reversed(ops):
            op_index = ctx.resolve_exprs(op.index)
            verdict, detail = ctx.exprs_compare(op_index, index)
            if verdict is False:
                continue
            if verdict is None:
                return self._split(seq, d, ctx, _split_test(detail))
            if isinstance(op, StateDelta):
                delta += op.delta
                continue
            # A matching assignment: compare written value (+delta) to target.
            op_value = ctx.resolve_exprs(op.value)
            if delta == 0:
                verdict2, detail2 = ctx.exprs_compare(op_value, target)
                if verdict2 is True:
                    return self._seq_actions(seq, d.hi, ctx)
                if verdict2 is False:
                    return self._seq_actions(seq, d.lo, ctx)
                return self._split(seq, d, ctx, _split_test(detail2))
            written = _int_const(op_value)
            tested = _int_const(target)
            if written is None or tested is None:
                raise CompileError(
                    f"cannot compose increments of {test.var!r} with a "
                    "non-constant state test; make the compared values "
                    "integer literals"
                )
            if written + delta == tested:
                return self._seq_actions(seq, d.hi, ctx)
            return self._seq_actions(seq, d.lo, ctx)
        # No write decides the test: it reads the pre-sequence state, with
        # the tested value shifted by any accumulated increments.
        if delta != 0:
            tested = _int_const(target)
            if tested is None:
                raise CompileError(
                    f"cannot compose increments of {test.var!r} with a "
                    "non-constant state test; make the compared value an "
                    "integer literal"
                )
            target = (ast.Value(tested - delta),)
        emitted = StateVarTest(test.var, index, target)
        verdict = post.implies(emitted)
        if verdict is True:
            return self._seq_actions(seq, d.hi, ctx)
        if verdict is False:
            return self._seq_actions(seq, d.lo, ctx)
        hi = self._seq_actions(seq, d.hi, ctx.add(emitted, True))
        lo = self._seq_actions(seq, d.lo, ctx.add(emitted, False))
        return self.factory.branch(emitted, hi, lo)

    def _split(self, seq, d, ctx, test: XTest) -> XFDD:
        """The ``(test ? d : d)`` trick: split, then retry with more context."""
        hi = self._seq_actions(seq, d, ctx.add(test, True))
        lo = self._seq_actions(seq, d, ctx.add(test, False))
        return self.factory.branch(test, hi, lo)
