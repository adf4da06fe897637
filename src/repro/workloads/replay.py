"""Replaying traces through the data plane and the reference semantics.

:func:`replay` drives a trace through a simulated network and summarizes
deliveries; :func:`replay_obs` runs the same trace through ``eval`` on the
one-big-switch, which is useful both for expected-behaviour tests and for
verifying the distributed realization against the specification.
"""

from __future__ import annotations

from repro.dataplane.engine import get_engine
from repro.dataplane.network import Network
from repro.lang import ast
from repro.lang.semantics import eval_policy
from repro.lang.state import Store
from repro.obs.metrics import counter
from repro.obs.tracing import TRACER
from repro.workloads.traces import Trace

_REPLAY_PACKETS = counter(
    "snap_replay_packets_total", "Packets injected by trace replays"
)


class ReplayStats:
    """Outcome summary of one trace replay.

    Two delivery-rate views exist because multicast makes them diverge:
    ``delivered``/``dropped`` count per-*copy* records (one injected
    packet can fan out into several), while ``sent`` counts injected
    packets.  :attr:`delivery_rate` is the packet-level reading — the
    fraction of injected packets with at least one delivered copy — and
    :attr:`copy_delivery_rate` is the per-copy ratio.  For unicast
    traffic with no drops the two agree.
    """

    def __init__(self):
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        #: Injected packets with >= 1 delivered copy (drives delivery_rate).
        self.packets_delivered = 0
        self.per_egress: dict[int, int] = {}
        self.total_hops = 0

    def record(self, records) -> None:
        self.sent += 1
        any_delivered = False
        for record in records:
            if record.egress is None:
                self.dropped += 1
            else:
                any_delivered = True
                self.delivered += 1
                self.per_egress[record.egress] = (
                    self.per_egress.get(record.egress, 0) + 1
                )
                self.total_hops += record.hops
        if any_delivered:
            self.packets_delivered += 1

    @property
    def delivery_rate(self) -> float:
        """Fraction of *injected packets* with a delivered copy."""
        return self.packets_delivered / self.sent if self.sent else 0.0

    @property
    def copy_delivery_rate(self) -> float:
        """Fraction of *packet copies* that reached an egress."""
        total = self.delivered + self.dropped
        return self.delivered / total if total else 0.0

    @property
    def mean_hops(self) -> float:
        return self.total_hops / self.delivered if self.delivered else 0.0

    def __repr__(self):
        return (
            f"ReplayStats(sent={self.sent}, delivered={self.delivered} copies, "
            f"dropped={self.dropped}, delivery_rate={self.delivery_rate:.2f}, "
            f"copy_delivery_rate={self.copy_delivery_rate:.2f}, "
            f"mean_hops={self.mean_hops:.2f})"
        )


def replay(trace: Trace, network: Network, engine=None) -> ReplayStats:
    """Drive the trace through the network; returns delivery statistics.

    ``engine`` picks the execution engine (``"sequential"`` |
    ``"sharded"`` | ``"process"`` | ``"cluster"`` | ``"vector"`` | any
    name added via
    :func:`repro.dataplane.engine.register_engine` | an engine instance
    — stateful names like ``"process"`` and ``"cluster"`` resolve to one
    shared pool/daemon-set across calls); when ``None`` the network's
    ``default_engine`` applies
    (``CompilerOptions.engine`` for networks obtained from
    :meth:`SnapController.network`).  Every engine is
    delivery-equivalent to per-packet :meth:`~Network.inject` calls.
    """
    if engine is None:
        engine = getattr(network, "default_engine", "sequential")
    runner = get_engine(engine)
    stats = ReplayStats()
    with TRACER.span(
        "replay", engine=getattr(runner, "name", str(engine))
    ) as span:
        for records in runner.run(network, trace):
            stats.record(records)
        span.set_attr("packets", stats.sent)
        span.set_attr("delivered", stats.delivered)
    _REPLAY_PACKETS.inc(stats.sent)
    return stats


def replay_obs(
    trace: Trace, policy: ast.Policy, store: Store | None = None, engine=None
):
    """Run the trace through the OBS reference semantics.

    Returns ``(final_store, outputs)`` where outputs is a list of
    per-packet frozensets.  ``engine`` selects the mirror engine
    (``"sequential"`` | ``"batched"`` | ``"process"`` | ``"cluster"`` |
    an instance, see :mod:`repro.workloads.obs_engine`); every engine
    returns exactly the sequential mirror's ``(store, outputs)``.
    """
    from repro.workloads.obs_engine import get_obs_engine

    if store is None:
        store = Store(ast.infer_state_defaults(policy))
    runner = get_obs_engine(engine)
    return runner.run(list(trace), policy, store)
