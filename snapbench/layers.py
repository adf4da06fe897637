"""Per-layer attribution for the traced run, timed from outside the program.

:class:`LayerTracer` swaps timing wrappers in for each layer's public entry
points, at the name callers look them up by (``repro.core.controller``
imports ``analyze_dependencies`` into its own namespace, so that is where
the wrapper goes; methods are wrapped on their class).  A wrapper records
a span -- id, parent id, operation id, layer, start, end -- and the
layer's *self* time: its duration minus the time its wrapped children
took.  Spans stay in memory and are written once, when the run ends.

Only calls made on the benchmark's own thread while an operation is being
timed are recorded, so trace generation, oracle checks and the untimed
network builds between replay calls never count toward a layer.  Process
workers are forked before the wrappers go in and stay uninstrumented.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from contextlib import contextmanager
from time import perf_counter

#: (layer, "module[:Class]", attribute) -- each layer's public entry points.
LAYER_TARGETS = (
    ("analysis.dependencies", "repro.core.controller", "analyze_dependencies"),
    ("analysis.mapping", "repro.core.controller", "packet_state_mapping"),
    ("analysis.effects", "repro.core.controller", "analyze_effects"),
    ("analysis.effects", "repro.xfdd.incremental:CompileSession", "effect_report"),
    ("xfdd.build", "repro.core.controller", "to_xfdd"),
    ("xfdd.build", "repro.xfdd.incremental:CompileSession", "build"),
    ("milp.st_build", "repro.milp.placement:PlacementModel", "__init__"),
    ("milp.st_solve", "repro.milp.placement:PlacementModel", "solve"),
    ("milp.te_build", "repro.milp.backends:_TERoutingMixin", "build_te_model"),
    ("milp.te_solve", "repro.milp.backends:_TERoutingMixin", "solve_te"),
    ("core.rules", "repro.core.controller", "extract_paths"),
    ("core.rules", "repro.core.controller", "validate_solution"),
    ("core.rules", "repro.core.controller", "build_rule_tables"),
    ("dataplane.build", "repro.dataplane.network:Network", "__init__"),
    ("dataplane.hot_swap", "repro.dataplane.network:Network", "rewire"),
    ("dataplane.hot_swap", "repro.dataplane.network:Network", "adopt_state"),
    ("dataplane.plan", "repro.dataplane.replication", "replica_plan_for"),
    ("dataplane.plan", "repro.dataplane.engine", "batch_footprint"),
    ("dataplane.spec", "repro.dataplane.engine", "exec_program_spec"),
    ("dataplane.spec", "repro.dataplane.engine", "exec_network_spec"),
    ("dataplane.state_ship", "repro.dataplane.network:Network", "extract_shard_state"),
    ("dataplane.state_ship", "repro.dataplane.network:Network", "merge_shard_state"),
    ("dataplane.engine_run", "repro.dataplane.engine:SequentialEngine", "run"),
    ("dataplane.engine_run", "repro.dataplane.engine:ShardedEngine", "run"),
    ("dataplane.engine_run", "repro.dataplane.engine:ProcessPoolEngine", "run"),
)

#: A call nested inside one of these layers is left to it: the standing TE
#: model is a ``PlacementModel`` with the placement fixed, so building and
#: solving it must not count as ST work.
ABSORBED_BY = {
    "milp.st_build": ("milp.te_build",),
    "milp.st_solve": ("milp.te_solve",),
}

#: Layers whose work the compiler's own ``PhaseTimer`` (P1-P6) also times.
PHASE_LAYERS = (
    "analysis.dependencies", "analysis.mapping", "xfdd.build",
    "milp.st_build", "milp.st_solve", "milp.te_build", "milp.te_solve",
    "core.rules",
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in LAYER_TARGETS)) + (
    "workloads.replay",
)


def _resolve(where: str):
    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class LayerTracer:
    """In-memory spans and per-layer self time for timed operations."""

    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.spans: list = []
        self._stack: list = []  # [span id, child seconds, layer] per open span
        self._op = None
        self._thread = threading.get_ident()
        self._next_id = 0
        self._installed: list = []

    # -- operations --------------------------------------------------------

    @contextmanager
    def operation(self, kind: str):
        """Record the layers called inside one timed operation."""
        self._next_id += 1
        self._op = self._next_id
        start = perf_counter()
        try:
            yield
        finally:
            self.spans.append((self._op, None, self._op, kind, start, perf_counter()))
            self._op = None

    def wrap(self, layer: str, fn):
        absorbed_by = ABSORBED_BY.get(layer, ())

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if (
                self._op is None
                or threading.get_ident() != self._thread
                or any(frame[2] in absorbed_by for frame in self._stack)
            ):
                return fn(*args, **kwargs)
            self._next_id += 1
            span_id = self._next_id
            parent = self._stack[-1][0] if self._stack else self._op
            frame = [span_id, 0.0, layer]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                took = end - start
                self.self_s[layer] += took - frame[1]
                self.calls[layer] += 1
                if self._stack:
                    self._stack[-1][1] += took
                self.spans.append((span_id, parent, self._op, layer, start, end))

        return timed

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, where, name in LAYER_TARGETS:
            owner = _resolve(where)
            original = owner.__dict__[name]
            self._installed.append((owner, name, original))
            setattr(owner, name, self.wrap(layer, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def layer_total(self, layers) -> float:
        return sum(self.self_s[layer] for layer in layers)

    def write_spans(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, parent, op, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op, "name": name,
                    "start": start, "end": end,
                }) + "\n")
