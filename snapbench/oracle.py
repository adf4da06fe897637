"""The OBS oracle behind ``failed``: every checked packet against ``replay_obs``.

The reference is the one-big-switch semantics (``replay_obs`` over
``program.full_policy()``), never another engine.  A packet counts as a
mismatch when the set of packets the data plane delivered for it differs
from the set OBS outputs for it (``inport`` ignored, as the engine
equivalence tests do); a final ``global_store()`` that differs from the
OBS store counts as one more.
"""

from __future__ import annotations

from time import perf_counter

from repro.dataplane.engine import get_engine
from repro.workloads import replay_obs


class Recorder:
    """An engine that delegates to ``engine`` and keeps the per-packet
    records of its last run, so a ``replay()`` call can be checked."""

    def __init__(self, engine):
        self.engine = get_engine(engine)
        self.name = getattr(self.engine, "name", str(engine))
        self.records: list = []

    def run(self, network, arrivals):
        self.records = self.engine.run(network, arrivals)
        return self.records


def delivered_sets(records_per_packet) -> list:
    return [
        frozenset(r.packet.without("inport") for r in records if r.egress is not None)
        for records in records_per_packet
    ]


class Oracle:
    """OBS expectations, plus what computing them cost (outside timing)."""

    def __init__(self):
        self.packets = 0
        self.seconds = 0.0

    def expect(self, trace, policy, store):
        """``(final_store, per-packet expected sets)`` for ``trace`` run
        through OBS from ``store`` (which is not modified)."""
        start = perf_counter()
        final, outputs = replay_obs(trace, policy, store.copy())
        self.seconds += perf_counter() - start
        self.packets += len(trace)
        expected = [frozenset(p.without("inport") for p in out) for out in outputs]
        return final, expected

    @property
    def pkt_per_s(self) -> float:
        return self.packets / self.seconds if self.seconds else 0.0


def mismatches(records_per_packet, expected, store=None, expected_store=None) -> int:
    """Packets whose delivered set differs from OBS, plus one for a final
    store that differs (when both stores are given)."""
    got = delivered_sets(records_per_packet)
    bad = abs(len(got) - len(expected))
    bad += sum(1 for a, b in zip(got, expected) if a != b)
    if store is not None and store != expected_store:
        bad += 1
    return bad
