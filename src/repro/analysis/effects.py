"""Static state-effect analysis: what does each write *do*?

The compiler already proves where state lives (packet-state mapping,
§4.3) and which ingress ports share it (`dataplane/engine.py` shard
planning, §7.3); this module proves what each update does to it.  Every
write site — ``s[e] <- v``, ``s[e]++``, ``s[e]--`` — is classified into
a small effect lattice, then joined per variable:

``CONST_WRITE``
    writes of statically-known literals, more than one distinct value —
    last-writer-wins, order-dependent.
``INCREMENT``
    only ``++``/``--`` deltas — commutative, replica-mergeable by sum.
``MONOTONE``
    equality-guarded literal writes that only move the value in one
    direction (watermark / max-min shape) — replica-mergeable by
    max (or min), but *not* interleaving-independent across variables.
``IDEMPOTENT_INSERT``
    a single distinct literal ever written (set-insert shape) —
    commutative and idempotent.
``GENERAL_RMW``
    everything else (packet-dependent values, mixed delta/assign) — the
    lattice top; no merge strategy short of serialization.

There is deliberately no ``UNKNOWN``: the lattice top is always sound.

Two commutativity tiers fall out of the lattice:

* ``mergeable`` — {INCREMENT, IDEMPOTENT_INSERT, MONOTONE}: per-variable
  replica merge is deterministic (sum / set-union / max).  This is the
  oracle the planned state-compute replication needs (ROADMAP,
  arXiv:2309.14647).
* ``order_independent`` — {INCREMENT, IDEMPOTENT_INSERT}: the final
  store is the same under *any* per-packet interleaving, not merely
  mergeable.  MONOTONE is excluded: two equality-guarded watermark
  chains on different switches can interleave into a joint state no
  serial order produces.

:func:`analyze_effects` additionally cross-references read/write sets
across ``Parallel`` arms (§2 parallel composition races) and across the
``atomic()``-tie partition (§3 network transactions), producing
:class:`RaceFinding`s with stable diagnostic codes — see
``docs/analysis.md`` for the catalogue.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.lang import ast
from repro.lang.pretty import pretty


class EffectKind(str, enum.Enum):
    """Per-variable update classification (see module docstring)."""

    CONST_WRITE = "CONST_WRITE"
    INCREMENT = "INCREMENT"
    MONOTONE = "MONOTONE"
    IDEMPOTENT_INSERT = "IDEMPOTENT_INSERT"
    GENERAL_RMW = "GENERAL_RMW"

    @property
    def mergeable(self) -> bool:
        """Replicas of this variable converge by deterministic merge."""
        return self in _MERGEABLE

    @property
    def order_independent(self) -> bool:
        """The final value is invariant under any packet interleaving."""
        return self in _ORDER_INDEPENDENT


_MERGEABLE = frozenset((
    EffectKind.INCREMENT, EffectKind.IDEMPOTENT_INSERT, EffectKind.MONOTONE,
))
_ORDER_INDEPENDENT = frozenset((
    EffectKind.INCREMENT, EffectKind.IDEMPOTENT_INSERT,
))


@dataclass(frozen=True)
class WriteSite:
    """One syntactic write to one variable, with its guard context."""

    var: str
    op: str  #: ``"<-"``, ``"++"`` or ``"--"``
    kind: EffectKind  #: site-level kind, before the per-variable join
    provenance: str  #: pretty-printed policy text of the write
    #: literal written, when the value is a single static literal
    literal: object = None
    #: literal values of positive same-variable equality guards in scope
    guard_literals: tuple = ()
    atomic: bool = False  #: lexically inside an ``atomic()`` block

    def to_dict(self) -> dict:
        return {
            "var": self.var,
            "op": self.op,
            "kind": self.kind.value,
            "provenance": self.provenance,
            "atomic": self.atomic,
        }


@dataclass(frozen=True)
class VariableEffect:
    """The per-variable join of every write site touching it."""

    var: str
    kind: EffectKind
    sites: tuple  #: tuple[WriteSite]
    read_sites: tuple  #: pretty-printed ``StateTest`` occurrences
    direction: int | None = None  #: +1 / -1 for MONOTONE, else None

    @property
    def mergeable(self) -> bool:
        return self.kind.mergeable

    @property
    def order_independent(self) -> bool:
        return self.kind.order_independent

    @property
    def read(self) -> bool:
        return bool(self.read_sites)

    def to_dict(self) -> dict:
        return {
            "var": self.var,
            "kind": self.kind.value,
            "mergeable": self.mergeable,
            "order_independent": self.order_independent,
            "direction": self.direction,
            "writes": [site.to_dict() for site in self.sites],
            "reads": list(self.read_sites),
        }


@dataclass(frozen=True)
class RaceFinding:
    """Two conflicting sites on one variable (or variable group)."""

    code: str  #: stable diagnostic code, e.g. ``SNAP-E001``
    variable: str
    site_a: str  #: pretty-printed provenance of the first site
    site_b: str  #: pretty-printed provenance of the second site
    severity: str  #: ``"order-dependent"`` or ``"benign-commutative"``
    category: str  #: ``"parallel"`` or ``"transaction"``
    message: str

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "variable": self.variable,
            "site_a": self.site_a,
            "site_b": self.site_b,
            "severity": self.severity,
            "category": self.category,
            "message": self.message,
        }


@dataclass(frozen=True)
class EffectReport:
    """Everything :func:`analyze_effects` proved about one policy."""

    variables: dict  #: {var: VariableEffect}
    races: tuple = ()  #: Parallel-arm RaceFindings
    hazards: tuple = ()  #: cross-variable transaction RaceFindings
    atomic_groups: tuple = ()  #: written-variable partition (frozensets)

    def kind(self, var: str) -> EffectKind | None:
        effect = self.variables.get(var)
        return effect.kind if effect is not None else None

    @property
    def order_dependent_races(self) -> tuple:
        """Parallel-composition races whose merge order changes the store."""
        return tuple(
            f for f in self.races if f.severity == "order-dependent"
        )

    @property
    def interleaving_safe(self) -> bool:
        """No interleaving of concurrent in-flight packets can reach a
        store that no serial (OBS) order produces.

        True iff there is no order-dependent ``Parallel`` race and at
        most one *order-sensitive* atomic group — a group of
        ``atomic()``-tied (hence co-located) written variables that
        either contains an order-dependent write kind or is both read
        and written.  All ops on a sensitive group execute atomically at
        its owner switch, so its visit order *is* a serialization; every
        other written group must then be value-independent commutative.
        """
        if self.order_dependent_races:
            return False
        return len(self._sensitive_groups()) <= 1

    def _sensitive_groups(self) -> list:
        sensitive = []
        for group in self.atomic_groups:
            for var in group:
                effect = self.variables.get(var)
                if effect is None:
                    continue
                if not effect.kind.order_independent or effect.read:
                    sensitive.append(group)
                    break
        return sensitive

    @property
    def mergeable_vars(self) -> frozenset:
        return frozenset(
            var for var, effect in self.variables.items() if effect.mergeable
        )

    def to_dict(self) -> dict:
        """JSON-able form (stored in ``Snapshot.model_stats``)."""
        return {
            "variables": {
                var: effect.to_dict()
                for var, effect in sorted(self.variables.items())
            },
            "races": [f.to_dict() for f in self.races],
            "hazards": [f.to_dict() for f in self.hazards],
            "atomic_groups": [sorted(g) for g in self.atomic_groups],
            "interleaving_safe": self.interleaving_safe,
        }


# -- AST walk -----------------------------------------------------------------


def _literal(expr) -> tuple:
    """``(is_literal, value)`` for a (possibly vector) write value."""
    parts = ast.flatten_expr(expr)
    if any(not isinstance(part, ast.Value) for part in parts):
        return False, None
    if len(parts) == 1:
        return True, parts[0].value
    return True, tuple(part.value for part in parts)


def _positive_state_guards(pred) -> list:
    """Positive ``StateTest``s a conjunction certainly implies.

    Only ``And``-conjuncts count; anything under ``Or``/``Not`` may not
    hold on the branch, so it is conservatively ignored.
    """
    if isinstance(pred, ast.StateTest):
        return [pred]
    if isinstance(pred, ast.And):
        return (_positive_state_guards(pred.left)
                + _positive_state_guards(pred.right))
    return []


def _predicate_reads(pred, reads: dict) -> None:
    """Collect every ``StateTest`` under a predicate into ``reads``."""
    if isinstance(pred, ast.StateTest):
        reads.setdefault(pred.var, []).append(pretty(pred))
    elif isinstance(pred, ast.Not):
        _predicate_reads(pred.pred, reads)
    elif isinstance(pred, (ast.And, ast.Or)):
        _predicate_reads(pred.left, reads)
        _predicate_reads(pred.right, reads)


def _merge(into: dict, other: dict) -> dict:
    for key, items in other.items():
        into.setdefault(key, []).extend(items)
    return into


class _Walker:
    """Recursive site collector; returns per-subtree read/write maps so
    ``Parallel`` handlers can cross-reference their arms."""

    def __init__(self):
        self.sites: dict = {}  #: {var: [WriteSite]}
        self.reads: dict = {}  #: {var: [str]}
        self.overlaps: list = []  #: (var, site_a, site_b, conflict)

    def walk(self, node, guards: tuple, atomic: bool) -> tuple:
        """Returns ``(writes, reads)`` maps for this subtree."""
        if isinstance(node, ast.Predicate):
            reads: dict = {}
            _predicate_reads(node, reads)
            _merge(self.reads, reads)
            return {}, reads
        if isinstance(node, (ast.Mod,)):
            return {}, {}
        if isinstance(node, ast.StateMod):
            is_lit, value = _literal(node.value)
            kind = EffectKind.CONST_WRITE if is_lit else EffectKind.GENERAL_RMW
            site = WriteSite(
                var=node.var, op="<-", kind=kind, provenance=pretty(node),
                literal=value if is_lit else None,
                guard_literals=self._same_var_guards(node.var, guards),
                atomic=atomic,
            )
            self.sites.setdefault(node.var, []).append(site)
            return {node.var: [site]}, {}
        if isinstance(node, (ast.StateIncr, ast.StateDecr)):
            op = "++" if isinstance(node, ast.StateIncr) else "--"
            site = WriteSite(
                var=node.var, op=op, kind=EffectKind.INCREMENT,
                provenance=pretty(node),
                guard_literals=self._same_var_guards(node.var, guards),
                atomic=atomic,
            )
            self.sites.setdefault(node.var, []).append(site)
            return {node.var: [site]}, {}
        if isinstance(node, ast.Seq):
            writes_l, reads_l = self.walk(node.left, guards, atomic)
            inner = guards
            if isinstance(node.left, ast.Predicate):
                inner = guards + tuple(_positive_state_guards(node.left))
            writes_r, reads_r = self.walk(node.right, inner, atomic)
            return (_merge(writes_l, writes_r), _merge(reads_l, reads_r))
        if isinstance(node, ast.If):
            _, reads_p = self.walk(node.pred, guards, atomic)
            then_guards = guards + tuple(_positive_state_guards(node.pred))
            writes_t, reads_t = self.walk(node.then, then_guards, atomic)
            writes_e, reads_e = self.walk(node.orelse, guards, atomic)
            writes = _merge(writes_t, writes_e)
            return writes, _merge(_merge(reads_p, reads_t), reads_e)
        if isinstance(node, ast.Parallel):
            writes_l, reads_l = self.walk(node.left, guards, atomic)
            writes_r, reads_r = self.walk(node.right, guards, atomic)
            for var in set(writes_l) & set(writes_r):
                self.overlaps.append(
                    (var, writes_l[var][0], writes_r[var][0], "write-write")
                )
            for var in set(reads_l) & set(writes_r):
                self.overlaps.append(
                    (var, reads_l[var][0], writes_r[var][0].provenance,
                     "read-write")
                )
            for var in set(reads_r) & set(writes_l):
                self.overlaps.append(
                    (var, reads_r[var][0], writes_l[var][0].provenance,
                     "read-write")
                )
            return (_merge(writes_l, writes_r), _merge(reads_l, reads_r))
        if isinstance(node, ast.Atomic):
            return self.walk(node.body, guards, True)
        return {}, {}

    @staticmethod
    def _same_var_guards(var: str, guards: tuple) -> tuple:
        """Literal values of in-scope equality guards on ``var`` itself."""
        out = []
        for test in guards:
            if test.var != var:
                continue
            is_lit, value = _literal(test.value)
            if is_lit:
                out.append(value)
        return tuple(out)


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _join_variable(var: str, sites: list, read_sites: list) -> VariableEffect:
    """Per-variable join over all write sites (see the module lattice)."""
    kinds = {site.kind for site in sites}
    direction = None
    if kinds == {EffectKind.INCREMENT}:
        kind = EffectKind.INCREMENT
    elif kinds == {EffectKind.CONST_WRITE}:
        literals = {site.literal for site in sites}
        if len(literals) == 1:
            kind = EffectKind.IDEMPOTENT_INSERT
        else:
            kind, direction = _monotone_or_const(var, sites)
    else:
        # Mixed shapes (delta + assign, or any packet-dependent value)
        # join to the lattice top: general read-modify-write.
        kind = EffectKind.GENERAL_RMW
    return VariableEffect(
        var=var, kind=kind, sites=tuple(sites),
        read_sites=tuple(read_sites), direction=direction,
    )


def _monotone_or_const(var: str, sites: list) -> tuple:
    """MONOTONE iff every distinct-literal write is equality-guarded on
    its own variable and moves the value in one consistent direction."""
    directions = set()
    for site in sites:
        if not _numeric(site.literal) or not site.guard_literals:
            return EffectKind.CONST_WRITE, None
        for guard_value in site.guard_literals:
            if not _numeric(guard_value):
                return EffectKind.CONST_WRITE, None
            if site.literal > guard_value:
                directions.add(1)
            elif site.literal < guard_value:
                directions.add(-1)
            else:  # writing the guarded value back: a no-op write
                return EffectKind.CONST_WRITE, None
    if len(directions) == 1:
        return EffectKind.MONOTONE, directions.pop()
    return EffectKind.CONST_WRITE, None


# -- race findings ------------------------------------------------------------


def _parallel_findings(overlaps: list, variables: dict) -> tuple:
    findings = []
    seen = set()
    for var, a, b, conflict in overlaps:
        site_a = a.provenance if isinstance(a, WriteSite) else a
        site_b = b.provenance if isinstance(b, WriteSite) else b
        key = (var, site_a, site_b, conflict)
        if key in seen:
            continue
        seen.add(key)
        if conflict == "read-write":
            findings.append(RaceFinding(
                code="SNAP-W102", variable=var, site_a=site_a, site_b=site_b,
                severity="benign-commutative", category="parallel",
                message=(
                    f"parallel arms read and write '{var}'; SNAP parallel "
                    "composition reads the pre-state in both arms, so this "
                    "is well-defined — verify that is the intent"
                ),
            ))
            continue
        effect = variables.get(var)
        if effect is not None and effect.kind.order_independent:
            findings.append(RaceFinding(
                code="SNAP-W101", variable=var, site_a=site_a, site_b=site_b,
                severity="benign-commutative", category="parallel",
                message=(
                    f"parallel arms both write '{var}' but every write is "
                    f"{effect.kind.value}: the merge commutes"
                ),
            ))
        else:
            kind = effect.kind.value if effect is not None else "?"
            findings.append(RaceFinding(
                code="SNAP-E001", variable=var, site_a=site_a, site_b=site_b,
                severity="order-dependent", category="parallel",
                message=(
                    f"parallel arms both write '{var}' with {kind} effects: "
                    "the merged value depends on arm order"
                ),
            ))
    return tuple(findings)


def _atomic_groups(policy, written: set) -> tuple:
    """Partition the written variables by the ``atomic()``-tie relation.

    Tied variables are co-located by the MILP, so each group updates
    atomically per packet at one switch; untied written variables are
    singleton groups.
    """
    from repro.analysis.dependency import analyze_dependencies

    deps = analyze_dependencies(policy)
    grouped: dict = {}
    for tie in deps.tied:
        members = frozenset(var for var in tie if var in written)
        for var in members:
            grouped[var] = members
    groups = {
        grouped.get(var, frozenset((var,))) for var in written
    }
    return tuple(sorted(groups, key=lambda g: sorted(g)))


def _transaction_findings(report_vars: dict, groups: tuple) -> tuple:
    """A cross-variable interleaving hazard: two or more order-sensitive
    atomic groups, none of which can serve as the serialization point."""
    sensitive = []
    for group in groups:
        for var in group:
            effect = report_vars.get(var)
            if effect is None:
                continue
            if not effect.kind.order_independent or effect.read:
                sensitive.append((group, effect))
                break
    if len(sensitive) < 2:
        return ()
    (group_a, effect_a), (group_b, effect_b) = sensitive[0], sensitive[1]
    names = " + ".join(
        "{" + ", ".join(sorted(group)) + "}" for group, _ in sensitive
    )
    return (RaceFinding(
        code="SNAP-W103",
        variable=names,
        site_a=effect_a.sites[0].provenance,
        site_b=effect_b.sites[0].provenance,
        severity="order-dependent", category="transaction",
        message=(
            f"{len(sensitive)} order-sensitive variable groups ({names}) "
            "update without atomic(): concurrent in-flight packets can "
            "interleave their cross-switch updates into a store no serial "
            "order produces — wrap the updates in atomic() to co-locate "
            "them"
        ),
    ),)


def analyze_effects(policy: ast.Policy) -> EffectReport:
    """Classify every state write in ``policy`` and find its races."""
    walker = _Walker()
    walker.walk(policy, (), False)
    variables = {
        var: _join_variable(var, sites, walker.reads.get(var, []))
        for var, sites in walker.sites.items()
    }
    for var, read_sites in walker.reads.items():
        if var not in variables:
            variables[var] = VariableEffect(
                var=var, kind=EffectKind.IDEMPOTENT_INSERT, sites=(),
                read_sites=tuple(read_sites),
            )
    written = set(walker.sites)
    groups = _atomic_groups(policy, written) if written else ()
    written_vars = {
        var: effect for var, effect in variables.items() if effect.sites
    }
    return EffectReport(
        variables=variables,
        races=_parallel_findings(walker.overlaps, variables),
        hazards=_transaction_findings(written_vars, groups),
        atomic_groups=groups,
    )


# -- xFDD-level classification ------------------------------------------------


def xfdd_effects(root) -> dict:
    """Per-variable :class:`EffectKind` from a compiled diagram's leaves.

    Coarser than the AST analysis (no guard context, so no MONOTONE) but
    it sees exactly what the data plane executes — including
    ``shard_by_inport`` rewrites, whose per-port shard variables appear
    here under their ``var@port`` names.
    """
    from repro.xfdd.actions import StateAssign, StateDelta
    from repro.xfdd.diagram import iter_leaves

    deltas: set = set()
    assigns: dict = {}  #: var -> set of literal value tuples (None = RMW)
    for leaf in iter_leaves(root):
        for seq in leaf.seqs:
            for action in seq:
                if isinstance(action, StateDelta):
                    deltas.add(action.var)
                elif isinstance(action, StateAssign):
                    values = assigns.setdefault(action.var, set())
                    if any(not isinstance(part, ast.Value)
                           for part in action.value):
                        values.add(None)
                    else:
                        values.add(
                            tuple(part.value for part in action.value)
                        )
    kinds: dict = {}
    for var in deltas | set(assigns):
        values = assigns.get(var)
        if values is None:
            kinds[var] = EffectKind.INCREMENT
        elif var in deltas or None in values:
            kinds[var] = EffectKind.GENERAL_RMW
        elif len(values) == 1:
            kinds[var] = EffectKind.IDEMPOTENT_INSERT
        else:
            kinds[var] = EffectKind.CONST_WRITE
    return kinds


def commutative_delta_vars(root) -> frozenset:
    """Variables whose data-plane updates commute with *anything* else
    the diagram can do to the store: written only through ``++``/``--``
    deltas (never assigned) and never state-tested anywhere.

    Integer increments on such a variable can be applied in any order
    relative to any other packet's execution without changing a single
    observable — the soundness basis for the vector tier's
    commutative-overlap fast path (``dataplane/vector.py``).
    """
    kinds = xfdd_effects(root)
    delta_only = {
        var for var, kind in kinds.items() if kind is EffectKind.INCREMENT
    }
    return frozenset(delta_only - set(root.tested_state_vars()))
