"""Tests for the SnapController session API (snapshots, events, hot swap)."""

import dataclasses

import pytest

from repro.apps.chimera import dns_tunnel_detect
from repro.apps.fast import stateful_firewall
from repro.apps.routing import assign_egress, default_subnets, port_assumption
from repro.core.controller import SnapController
from repro.core.options import CompilerOptions
from repro.core.result import EVENT_SCENARIOS, SCENARIO_PHASES
from repro.core.program import Program
from repro.lang import ast
from repro.lang.errors import SnapError
from repro.lang.packet import make_packet
from repro.milp.backends import GreedyBackend, MilpBackend, get_backend
from repro.topology.campus import campus_topology
from repro.util.ipaddr import IPPrefix


def campus_program(app_program=None, num_ports=6, threshold=3):
    subnets = default_subnets(num_ports)
    app = app_program or dns_tunnel_detect(threshold=threshold)
    policy = ast.Seq(app.policy, assign_egress(subnets))
    return Program(
        policy,
        assumption=port_assumption(subnets),
        state_defaults=app.state_defaults,
        name=f"{app.name}+egress",
    )


def dns_response(client, k):
    ip = lambda s: IPPrefix(s).network
    return make_packet(
        srcip=ip("10.0.1.1"), dstip=client, srcport=53, dstport=9999,
        **{"dns.rdata": ip(f"10.0.1.{50 + k}")},
    )


@pytest.fixture(scope="module")
def session():
    """One controller driven through the full Table 4 event sequence."""
    controller = SnapController(campus_topology(), campus_program())
    snapshots = [
        controller.submit(),
        controller.update_policy(campus_program(threshold=5)),
        controller.fail_link("C1", "C5"),
        controller.restore_link("C1", "C5"),
        controller.set_demands(
            {k: v * 2 for k, v in controller.demands.items()}
        ),
    ]
    return controller, snapshots


class TestSnapshotImmutability:
    def test_attribute_assignment_raises(self, session):
        _, snapshots = session
        with pytest.raises(dataclasses.FrozenInstanceError):
            snapshots[0].objective = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            snapshots[0].generation = 99

    def test_mapping_fields_are_read_only(self, session):
        _, snapshots = session
        snap = snapshots[0]
        with pytest.raises(TypeError):
            snap.placement["blacklist"] = "C1"
        with pytest.raises(TypeError):
            snap.demands[(1, 6)] = 1.0
        with pytest.raises(TypeError):
            snap.model_stats["variables"] = -1

    def test_snapshot_detached_from_session_demands(self, session):
        controller, snapshots = session
        # The demand-change snapshot froze its own copy: it is not a view
        # of the controller's (mutable, session-internal) matrix.
        assert dict(snapshots[2].demands) != dict(snapshots[4].demands)
        assert dict(snapshots[4].demands) == dict(controller.demands)


class TestEventSequence:
    def test_generations_are_monotonic(self, session):
        _, snapshots = session
        assert [s.generation for s in snapshots] == [0, 1, 2, 3, 4]

    def test_event_provenance(self, session):
        _, snapshots = session
        assert [s.event for s in snapshots] == [
            "cold_start", "policy_change", "link_failure", "link_restore",
            "demand_change",
        ]
        assert all(s.scenario == EVENT_SCENARIOS[s.event] for s in snapshots)

    def test_phase_sets_follow_table4(self, session):
        _, snapshots = session
        assert set(snapshots[0].timer.durations) == set(
            SCENARIO_PHASES["cold_start"]
        )
        for snap in snapshots[2:]:
            assert set(snap.timer.durations) == {"P5", "P6"}

    def test_link_events_reroute(self, session):
        _, snapshots = session
        failed = snapshots[2].routing.path(1, 6)
        assert ("C1", "C5") not in set(zip(failed, failed[1:]))
        assert snapshots[3].routing.path(1, 6) == ("I1", "C1", "C5", "D4")
        # Placement is fixed across all TE events.
        assert all(
            dict(s.placement) == dict(snapshots[1].placement)
            for s in snapshots[2:]
        )

    def test_standing_te_model_reused(self, session):
        """§6.2.2: the three TE events share ONE standing model build."""
        controller, _ = session
        calls = controller.backend.calls
        assert calls["te_model_builds"] == 1
        assert calls["te_solves"] == 3
        # submit only: the update_policy edit (a threshold tweak) leaves
        # S_uv, the dependency constraints, and the demands unchanged, so
        # the incremental solve memo reuses the cold solution instead of
        # re-running the MILP.
        assert calls["st_solves"] == 1

    def test_effective_topology_threads_failures(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        snap = controller.fail_link("C1", "C5")
        # The snapshot's topology is the degraded one the solve saw...
        assert ("C1", "C5") not in {
            tuple(sorted((a, b))) for a, b, _ in snap.topology.links()
        }
        # ...while the session's base topology is never mutated.
        assert ("C1", "C5") in {
            tuple(sorted((a, b))) for a, b, _ in controller.topology.links()
        }
        restored = controller.restore_link("C1", "C5")
        assert restored.topology.num_directed_edges() == (
            controller.topology.num_directed_edges()
        )

    def test_policy_change_invalidates_standing_model(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        controller.fail_link("C1", "C5")
        assert controller.backend.calls["te_model_builds"] == 1
        controller.update_policy(campus_program(stateful_firewall()))
        controller.fail_link("C3", "C5")
        # New placement -> the old standing model could not be patched.
        assert controller.backend.calls["te_model_builds"] == 2

    def test_events_require_submit(self):
        controller = SnapController(campus_topology(), campus_program())
        for call in (
            lambda: controller.update_policy(),
            lambda: controller.fail_link("C1", "C5"),
            lambda: controller.restore_link("C1", "C5"),
            lambda: controller.set_demands({}),
            lambda: controller.update_topology(campus_topology()),
            lambda: controller.network(),
        ):
            with pytest.raises(RuntimeError):
                call()

    def test_submit_requires_program(self):
        with pytest.raises(SnapError):
            SnapController(campus_topology()).submit()

    def test_failed_event_rolls_session_inputs_back(self):
        """An infeasible event must not desynchronize the session."""
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        controller.fail_link("C1", "C5")
        # C1-C5 + C1-C3 disconnects ports 1/3: the solve is infeasible.
        with pytest.raises(Exception):
            controller.fail_link("C1", "C3")
        # The failure set reverted to what `current` describes...
        assert controller.failed_links == frozenset({("C1", "C5")})
        assert controller.current.event == "link_failure"
        assert controller.generation == 1
        # ...and the session keeps working (model rebuilt on demand).
        restored = controller.restore_link("C1", "C5")
        assert restored.routing.path(1, 6) == ("I1", "C1", "C5", "D4")

    def test_failed_policy_update_keeps_previous_program(self):
        controller = SnapController(campus_topology(), campus_program())
        good = controller.submit()
        # A counter every flow must visit is unplaceable on the campus
        # graph (see examples/middlebox_consolidation.py): infeasible ST.
        subnets = default_subnets(6)
        monitor = ast.StateIncr("count", ast.Field("inport"))
        bad = Program(
            ast.Seq(ast.Parallel(monitor, ast.Id()), assign_egress(subnets)),
            assumption=port_assumption(subnets),
            state_defaults={"count": 0},
            name="unplaceable-monitor",
        )
        with pytest.raises(Exception):
            controller.update_policy(bad)
        # Rolled back: the session still describes the good program.
        assert controller.program is good.program
        assert controller.generation == 0
        follow_up = controller.fail_link("C1", "C5")
        assert follow_up.generation == 1
        assert dict(follow_up.placement) == dict(good.placement)

    def test_reroute_rejects_foreign_events_before_mutating(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        demands_before = dict(controller.demands)
        with pytest.raises(SnapError):
            controller.reroute(
                failed_links=[("C1", "C5")],
                demands={k: v * 2 for k, v in demands_before.items()},
                event="maintenance",
            )
        # The rejected event left no trace on the session.
        assert controller.failed_links == frozenset()
        assert dict(controller.demands) == demands_before
        assert controller.generation == 0

    def test_history_records_every_snapshot(self, session):
        controller, snapshots = session
        assert controller.history() == tuple(snapshots)
        assert controller.current is snapshots[-1]
        assert controller.generation == 4

    def test_history_is_bounded(self):
        controller = SnapController(
            campus_topology(), campus_program(), history_limit=2
        )
        controller.submit()
        controller.fail_link("C1", "C5")
        last = controller.restore_link("C1", "C5")
        kept = controller.history()
        assert len(kept) == 2
        assert [s.generation for s in kept] == [1, 2]
        assert controller.current is last

    def test_snapshots_hash_by_identity(self, session):
        _, snapshots = session
        assert len({*snapshots}) == len(snapshots)
        assert snapshots[0] != snapshots[1]


class TestHotSwap:
    def test_update_policy_preserves_state(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        network = controller.network()
        client = IPPrefix("10.0.6.10").network
        for k in range(2):
            network.inject(dns_response(client, k), 1)
        assert network.global_store().read("susp-client", (client,)) == 2

        # Live policy update: raise the threshold; same state variables.
        controller.update_policy(campus_program(threshold=5))
        swapped = controller.network()
        assert swapped is not network
        store = swapped.global_store()
        assert store.read("susp-client", (client,)) == 2
        assert store.read("blacklist", (client,)) is False

        # The carried-over counter keeps counting where it left off.
        for k in range(2, 4):
            swapped.inject(dns_response(client, k), 1)
        assert swapped.global_store().read("susp-client", (client,)) == 4

    def test_retired_variables_dropped_new_ones_fresh(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        network = controller.network()
        client = IPPrefix("10.0.6.10").network
        network.inject(dns_response(client, 0), 1)
        controller.update_policy(campus_program(stateful_firewall()))
        swapped = controller.network()
        assert "susp-client" not in dict(controller.current.placement)
        assert swapped.global_store().read("established", (client, client)) is False

    def test_link_events_hot_swap_too(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        network = controller.network()
        client = IPPrefix("10.0.6.10").network
        network.inject(dns_response(client, 0), 1)
        controller.fail_link("C1", "C5")
        swapped = controller.network()
        assert swapped is not network
        # Same xFDD + placement: the swap rewires routing but shares the
        # compiled switch programs (and so the state stores) — no
        # per-switch recompilation on a TE event.
        assert swapped.switches is network.switches
        assert swapped.global_store().read("susp-client", (client,)) == 1
        records = swapped.inject(dns_response(client, 1), 1)
        assert records and records[0].egress == 6

    def test_resubmit_is_a_genuine_cold_start(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        network = controller.network()
        client = IPPrefix("10.0.6.10").network
        network.inject(dns_response(client, 0), 1)
        assert network.global_store().read("susp-client", (client,)) == 1
        controller.submit()  # cold restart: state must NOT carry over
        cold = controller.network()
        assert cold is not network
        assert cold.global_store().read("susp-client", (client,)) == 0

    def test_update_topology_with_new_switches_recompiles(self):
        """The rewire fast path must not smuggle an old switch set past a
        replacement topology that changed the graph's nodes."""
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        network = controller.network()
        client = IPPrefix("10.0.6.10").network
        network.inject(dns_response(client, 0), 1)
        bigger = campus_topology()
        bigger.add_switch("CX")
        bigger.add_link("C5", "CX", 1000.0)
        controller.update_topology(bigger)
        swapped = controller.network()
        assert swapped.switches is not network.switches
        assert "CX" in swapped.switches
        # State still carried over via adopt_state on the rebuild path.
        assert swapped.global_store().read("susp-client", (client,)) == 1

    def test_no_network_until_asked(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        assert controller._network is None
        net = controller.network()
        assert controller.network() is net


class TestBackends:
    def test_greedy_backend_matches_heuristic_flag(self):
        controller = SnapController(
            campus_topology(), campus_program(), solver="greedy"
        )
        snap = controller.submit()
        assert set(snap.placement.values()) == {"D4"}
        assert isinstance(controller.backend, GreedyBackend)

    def test_unknown_solver_rejected(self):
        with pytest.raises(SnapError):
            SnapController(campus_topology(), campus_program(), solver="simplex")
        with pytest.raises(SnapError):
            get_backend(42)

    def test_backend_instance_is_pluggable(self):
        backend = MilpBackend()
        controller = SnapController(
            campus_topology(), campus_program(),
            options=CompilerOptions(solver=backend),
        )
        controller.submit()
        assert controller.backend is backend
        assert backend.calls["st_solves"] == 1

    def test_greedy_te_events_share_standing_lp(self):
        controller = SnapController(
            campus_topology(), campus_program(), solver="greedy"
        )
        controller.submit()
        controller.fail_link("C1", "C5")
        snap = controller.restore_link("C1", "C5")
        assert controller.backend.calls["te_model_builds"] == 1
        assert snap.routing.path(1, 6)[0] == "I1"


class TestOptions:
    def test_options_frozen(self):
        options = CompilerOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.solver = "greedy"

    def test_stateful_switches_coerced_to_tuple(self):
        options = CompilerOptions(stateful_switches=["D4", "C1"])
        assert options.stateful_switches == ("D4", "C1")

    def test_keyword_overrides_build_options(self):
        controller = SnapController(
            campus_topology(), campus_program(), validate=False,
            solver_time_limit=30.0,
        )
        assert controller.options == CompilerOptions(
            validate=False, solver_time_limit=30.0
        )
